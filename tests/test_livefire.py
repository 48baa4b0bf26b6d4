"""Live-fire torture (repro.livefire): one harness, three scenarios.

Small deterministic slices of torture v3/v4/v5 — the full campaigns run
in CI and in ``benchmarks/bench_e12_live_fire.py`` /
``bench_e15_replication.py``.  Four parts: the contract every row of
``SCENARIOS`` keeps (real daemons, real sockets, seeded faults and
kills, zero acked losses); the golden :func:`plan` values that pin what
a seed means; the checks shown fabricated logs they must reject; and the
CLI (validation, replay command, telemetry round trip).
"""

from __future__ import annotations

import os
import re
import shlex

import pytest

from repro import livefire
from repro.__main__ import _build_parser, _report, main
from repro.common.rng import make_rng
from repro.livefire import (
    DAEMON,
    DERIVED,
    SCENARIOS,
    TRUNCATION_STEP,
    Ack,
    ClientLog,
    Evidence,
    Fault,
    LiveFireHarness,
    LiveFireOutcome,
    acked_writes,
    epoch_audit,
    fence_audit,
    killed_in_checkpoint,
    plan,
    promoted_serves,
    survivors_acked,
)
from repro.persist.file_log import FileLogManager
from repro.serve import DaemonClient
from repro.shard import FenceAudit
from repro.shard.group import FenceStatus

QUICK = dict(clients=2, requests_per_client=6)


def _quick_shape(name: str) -> dict:
    """A small run's shape — the row's own where a smaller one would
    not reach what the row is about (a kill inside the third online
    checkpoint needs over 1.5 MiB of puts)."""
    if SCENARIOS[name].fault is Fault.KILL_IN_CHECKPOINT:
        return {}
    return QUICK


def quick(name: str, **overrides) -> LiveFireHarness:
    return LiveFireHarness(
        name, SCENARIOS[name].config(**{**_quick_shape(name), **overrides})
    )


def quick_argv(name: str) -> list:
    """The CLI flags of :func:`quick`'s shape."""
    if not _quick_shape(name):
        return []
    return ["--clients", "2", "--requests", "6"]


# ----------------------------------------------------------------------
# the contract of every scenario
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SCENARIOS))
class TestEveryScenario:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_run_is_lossless(self, name, seed):
        outcome = LiveFireHarness(name).run(seed)
        assert outcome.ok, (outcome.error, outcome.losses)
        assert outcome.losses == []
        assert outcome.acked > 0
        assert outcome.seed == seed and name in outcome.description

    def test_campaign_report(self, name):
        report = quick(name).campaign(runs=3, seed=10)
        assert report.ok, report.summary()
        assert report.failures() == []
        assert len(report.outcomes) == 3
        assert report.total("acked") > 0
        assert report.total("losses") == 0
        summary = report.summary()
        assert f"torture {name}" in summary and "OK" in summary
        assert "3 runs" in summary and "0 acked losses" in summary

    def test_logstore_backend_and_store_root_cleanup(self, name, tmp_path):
        # The store backend is an axis of every topology: per-run roots
        # (primary and witness each their own when replicated), the
        # backend's recommended cache config, and full cleanup after.
        root = tmp_path / "stores"
        harness = quick(
            name, store_backend="logstore", store_root=str(root)
        )
        report = harness.campaign(runs=2, seed=5)
        assert report.failures() == []
        assert report.total("acked") > 0
        assert os.listdir(str(root)) == []

    def test_unknown_store_backend_fails_fast(self, name):
        with pytest.raises(ValueError):
            quick(name, store_backend="no-such-backend")

    def test_live_read_your_writes_violation_fails_the_run(
        self, name, monkeypatch
    ):
        class StaleReads(DaemonClient):
            """Serves every get one acked put behind."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.history = {}

            def request(self, kind, **fields):
                response = super().request(kind, **fields)
                if kind == "put":
                    self.history.setdefault(fields["obj"], [None]).append(
                        fields["value"]
                    )
                return response

            def get(self, obj):
                _value, vsi = super().get(obj)
                return self.history.get(obj, [None, None])[-2], vsi

        monkeypatch.setattr(livefire, "DaemonClient", StaleReads)
        outcome = quick(name, p_get=1.0, rates=None).run(seed=3)
        assert outcome.ok is False
        assert "read-your-writes violated" in outcome.error

    def test_cli(self, name, capsys):
        argv = ["torture", name, "--runs", "2", "--seed", "9",
                *quick_argv(name)]
        if SCENARIOS[name].subprocess_lane:
            argv.append("--no-subprocess")
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"torture {name}" in out and "0 acked losses" in out

    def test_cli_metrics_out(self, name, tmp_path, capsys):
        path = tmp_path / f"{name}.jsonl"
        argv = ["torture", name, "--runs", "1", "--seed", "2",
                *quick_argv(name), "--metrics-out", str(path)]
        if SCENARIOS[name].subprocess_lane:
            argv.append("--no-subprocess")
        assert main(argv) == 0
        # The dump is readable back through the metrics viewer.
        assert main(["metrics", str(path)]) == 0
        assert "serve" in capsys.readouterr().out


class TestShardKill:
    def test_survivors_ack_during_outage(self):
        # Sentinel acks from every surviving shard *while* the victim
        # is down are required, so any passing run proves the
        # partial-outage property.
        report = LiveFireHarness("v4").campaign(runs=3, seed=10)
        assert report.failures() == []
        for outcome in report.outcomes:
            assert outcome.victim in (0, 1)
            assert outcome.survivor_acks_during_outage > 0
            assert outcome.fences_conflicting == 0
        assert "survivor acks during outages" in report.summary()

    def test_cross_shard_traffic_is_exercised(self):
        config = SCENARIOS["v4"].config(p_cross=0.5, requests_per_client=20)
        outcome = LiveFireHarness("v4", config).run(3)
        assert outcome.ok, outcome.error
        assert outcome.cross_acked > 0
        assert outcome.fences_complete > 0

    def test_one_shard_has_no_survivor_to_ask(self):
        outcome = quick("v4", shards=1).run(0)
        assert outcome.ok is False
        assert "no surviving shard" in outcome.error
        assert outcome.losses == []


class TestReplica:
    def test_kill_lane_run(self):
        outcome = quick("v5", zombie_ratio=0.0).run(seed=1)
        assert outcome.ok, outcome.error or outcome.losses
        assert outcome.lane == "kill"
        assert outcome.promoted
        assert outcome.acked > 0
        assert outcome.old_epoch_acks == 0
        assert outcome.failover_seconds > 0

    def test_zombie_lane_run(self):
        # zombie_ratio=1.0 forces the lane: promote while the deposed
        # primary is still alive, then prove its acks are fenced.
        outcome = quick("v5", zombie_ratio=1.0).run(seed=2)
        assert outcome.ok, outcome.error or outcome.losses
        assert outcome.lane == "zombie"
        assert outcome.promoted
        assert outcome.losses == []
        assert outcome.old_epoch_acks == 0

    def test_campaign_counts_epochs(self):
        report = quick("v5", zombie_ratio=0.3).campaign(3, seed=20)
        assert report.ok, report.summary()
        assert report.total("old_epoch_acks") == 0
        assert all(outcome.promoted for outcome in report.outcomes)
        assert "0 old-epoch acks" in report.summary()

    def test_sharded_pair_is_still_refused(self):
        # shards x replication waits for ROADMAP item 8(c).
        with pytest.raises(ValueError):
            quick("v5", shards=2).run(0)


class TestCheckpointKill:
    def test_the_kill_lands_at_the_seeded_step(self, monkeypatch):
        landed = []
        kill = livefire._CheckpointKill._kill

        def spy(self, where):
            landed.append((self.checkpoint, where))
            kill(self, where)

        monkeypatch.setattr(livefire._CheckpointKill, "_kill", spy)
        harness = LiveFireHarness("v3-checkpoint")
        for seed in (1, 4):  # checkpoint 3 at store write 2; at truncation
            run_plan = plan(harness.scenario, harness.config, seed)
            outcome = harness.run(seed)
            assert outcome.ok, outcome.error
            # The crash was recovered in place, then the daemon killed.
            assert outcome.restarts == 1 and outcome.acked > 150
        assert landed == [(3, "store write 2"), (3, "its truncation")]
        assert [run_plan.kill_checkpoint, run_plan.kill_step] == [
            3, TRUNCATION_STEP
        ]

    def test_the_other_rows_plan_no_such_kill(self):
        for name, scenario in SCENARIOS.items():
            run_plan = plan(scenario, scenario.config(), 0)
            inside = scenario.fault is Fault.KILL_IN_CHECKPOINT
            assert (run_plan.kill_checkpoint > 0) == inside, name
        value = plan(
            SCENARIOS["v3-checkpoint"], SCENARIOS["v3-checkpoint"].config(), 0
        ).first_puts[0][1]
        assert value.startswith("ck0:c0:s0:") and len(value) == 8192


class TestSubprocessLane:
    def test_sigkill_run(self, tmp_path):
        outcome = quick("v3", requests_per_client=8).subprocess_run(
            str(tmp_path / "kill"), seed=5, graceful=False, fault_seed=5
        )
        assert outcome.ok, outcome.error
        assert outcome.lane == "sigkill"
        assert outcome.losses == []
        assert outcome.acked > 0

    def test_sigterm_run_drains_cleanly(self, tmp_path):
        outcome = quick("v3", requests_per_client=8).subprocess_run(
            str(tmp_path / "term"), seed=6, graceful=True
        )
        assert outcome.ok, outcome.error
        assert outcome.losses == []
        assert outcome.acked == outcome.sent == 16

    def test_rewrite_row_drains_over_advanced_rsis(self, tmp_path):
        """SIGTERM after 120 writes over 6 keys: the daemon installed
        what the overwrites left unexposed, so the drain's checkpoint
        truncates the log to about the live keys' last writers (it kept
        every record before), and the restart still reads every ack."""
        outcome = LiveFireHarness("v3-rewrite").subprocess_run(
            str(tmp_path / "term"), seed=4, graceful=True
        )
        assert outcome.ok, outcome.error
        assert outcome.losses == []
        assert outcome.acked == outcome.sent == 120
        wal = FileLogManager(str(tmp_path / "term" / "data"))
        try:
            operations = len(wal.stable_operations())
        finally:
            wal.close()
        assert operations <= 6 + DAEMON.max_queue < outcome.acked

    @pytest.mark.parametrize("name", ["v4", "v5"])
    def test_only_the_daemon_kill_scenario_has_one(self, name, tmp_path):
        with pytest.raises(ValueError):
            quick(name).subprocess_run(str(tmp_path))


# ----------------------------------------------------------------------
# what a seed means: golden values computed at the last commit of the
# three separate harnesses (PR 15), from their own RNG streams
# ----------------------------------------------------------------------
#: (scenario, overrides, seed) -> (kill_after, victim, lane, fault_seeds,
#: client 0's first object, value, and first draw of its RNG stream).
GOLDEN = {
    ("v3", 0): (14, None, "kill", (0,), "lf0:0", "run0:c0:s0", 0.430947418792),
    ("v3", 1): (15, None, "kill", (1,), "lf0:0", "run1:c0:s0", 0.995600769345),
    ("v3", 7): (21, None, "kill", (7,), "lf0:0", "run7:c0:s0", 0.443014816798),
    ("v3-rewrite", 0): (74, None, "kill", (0,), "rw0:0", "rw0:c0:s0", 0.13781235671),
    ("v3-rewrite", 1): (45, None, "kill", (1,), "rw0:0", "rw1:c0:s0", 0.514672268745),
    ("v3-rewrite", 7): (44, None, "kill", (7,), "rw0:0", "rw7:c0:s0", 0.818843851464),
    ("v4", 0): (37, 0, "kill", (0, 1), "v4c0:0", "v4:0:c0:s0", 0.623025166432),
    ("v4", 1): (35, 0, "kill", (2, 3), "v4c0:0", "v4:1:c0:s0", 0.205065515522),
    ("v4", 7): (3, 0, "kill", (14, 15), "v4c0:0", "v4:7:c0:s0", 0.014829333205),
    ("v5", 0): (23, None, "kill", (), "rf0:0", "run0:c0:s0", 0.641361149648),
    ("v5", 1): (20, None, "kill", (), "rf0:0", "run1:c0:s0", 0.763086990288),
    ("v5", 7): (9, None, "kill", (), "rf0:0", "run7:c0:s0", 0.926402498013),
}


class TestPlanIsPinned:
    @pytest.mark.parametrize("name,seed", sorted(GOLDEN))
    def test_default_shape(self, name, seed):
        scenario = SCENARIOS[name]
        run_plan = plan(scenario, scenario.config(), seed)
        kill_after, victim, lane, fault_seeds, obj, value, draw = GOLDEN[
            name, seed
        ]
        assert run_plan.kill_after == kill_after
        assert run_plan.victim == victim
        assert run_plan.lane == lane
        assert run_plan.fault_seeds == fault_seeds
        assert run_plan.first_puts[0] == (obj, value)
        assert len(run_plan.first_puts) == len(run_plan.client_streams) == 3
        assert make_rng(run_plan.client_streams[0]).random() == pytest.approx(
            draw, abs=1e-11
        )

    def test_three_shards_and_even_zombie_odds(self):
        v4, v5 = SCENARIOS["v4"], SCENARIOS["v5"]
        plans = [plan(v4, v4.config(shards=3), seed) for seed in (0, 1, 7)]
        assert [p.victim for p in plans] == [2, 2, 0]
        assert [p.kill_after for p in plans] == [39, 42, 3]
        assert [p.fault_seeds for p in plans] == [
            (0, 1, 2), (3, 4, 5), (21, 22, 23),
        ]
        lanes = [plan(v5, v5.config(zombie_ratio=0.5), s).lane for s in (0, 1, 7)]
        assert lanes == ["kill", "kill", "zombie"]
        # The default ratio's first zombie seeds.
        zombies = [s for s in range(16) if plan(v5, v5.config(), s).lane == "zombie"]
        assert zombies == [2, 12, 15]

    def test_objects_span_two_shards_when_there_are_two(self):
        v4 = SCENARIOS["v4"]
        assert livefire.client_objects(v4, v4.config(), 0, 0) == [
            "v4c0:0", "v4c0:1", "v4c0:2", "v4c0:3", "v4c0:x0",
        ]

    @pytest.mark.parametrize("seed,kill_after", [(0, 6), (1, 17), (7, 34)])
    def test_subprocess_lane_streams(self, seed, kill_after, monkeypatch):
        seen = {}

        def capture(self, target, run_plan, outcome):
            seen["plan"], seen["harness"] = run_plan, self
            return outcome

        monkeypatch.setattr(LiveFireHarness, "_drive", capture)
        LiveFireHarness("v3").subprocess_run("/nonexistent", seed=seed)
        run_plan, lane = seen["plan"], seen["harness"]
        assert run_plan.kill_after == kill_after
        assert run_plan.first_puts == ((f"sp{seed}:0", f"sub{seed}:s0"),)
        assert run_plan.client_streams == (f"livefire-subprocess:{seed}:0",)
        assert lane.scenario.kill_stream == "livefire-subprocess"
        assert (lane.config.clients, lane.config.requests_per_client) == (1, 36)
        assert lane.config.objects_per_client == 9


# ----------------------------------------------------------------------
# the checks are shown logs they must reject
# ----------------------------------------------------------------------
def log_of(sent, acks):
    """A client log for object ``x``: values sent, then ``(value, lsi)``
    or ``(value, lsi, epoch, t_ack)`` acks."""
    log = ClientLog(sent_values={"x": list(sent)})
    for value, lsi, *rest in acks:
        epoch, t_ack = rest if rest else (None, 0.0)
        log.acks.append(Ack("x", value, lsi, epoch, t_ack))
    return log


def judge(check, log, stored=None, **evidence):
    """Run one check over one fabricated log and a dict-backed store."""
    stored = stored if stored is not None else {}
    outcome = LiveFireOutcome("fabricated")
    check(
        Evidence([log], lambda obj: stored.get(obj, (None, None)), **evidence),
        outcome,
    )
    assert outcome.ok == (outcome.error == "")
    return outcome.error or None, outcome


class TestAckedWritesOracle:
    def test_last_acked_value_at_its_lsi_is_clean(self):
        log = log_of(["a", "b"], [("a", 1), ("b", 2)])
        error, outcome = judge(acked_writes, log, {"x": ("b", 2)})
        assert error is None and outcome.losses == []

    def test_acked_lsi_above_recovered_vsi_is_a_loss(self):
        log = log_of(["a", "b"], [("a", 1), ("b", 2)])
        error, outcome = judge(acked_writes, log, {"x": ("a", 1)})
        assert error == "1 acked writes lost"
        assert "acked through lsi 2 but recovered vsi is 1" in outcome.losses[0]

    def test_missing_object_is_a_loss(self):
        error, outcome = judge(acked_writes, log_of(["a"], [("a", 1)]))
        assert error and "recovered vsi is None" in outcome.losses[0]

    def test_wrong_value_at_the_acked_lsi_is_a_loss(self):
        log = log_of(["a", "b"], [("a", 1), ("b", 2)])
        error, outcome = judge(acked_writes, log, {"x": ("a", 2)})
        assert error and "matches the last ack" in outcome.losses[0]

    def test_value_older_than_the_last_acked_one_is_a_loss(self):
        # vSI moved on, but to a value sent *before* the last ack.
        log = log_of(["a", "b", "c"], [("a", 1), ("b", 2)])
        error, outcome = judge(acked_writes, log, {"x": ("a", 5)})
        assert error and "neither the last acked value" in outcome.losses[0]

    def test_value_never_sent_is_a_loss(self):
        log = log_of(["a", "b"], [("a", 1), ("b", 2)])
        error, outcome = judge(acked_writes, log, {"x": ("zzz", 9)})
        assert error and "'zzz'" in outcome.losses[0]

    def test_value_from_the_unacked_tail_is_accepted(self):
        # "c" was sent after the last ack and never acked: at-least-once
        # delivery may have landed it.
        log = log_of(["a", "b", "c"], [("a", 1), ("b", 2)])
        error, outcome = judge(acked_writes, log, {"x": ("c", 3)})
        assert error is None and outcome.losses == []

    def test_cross_shard_ack_without_lsi_gets_the_value_rule_only(self):
        log = log_of(["a", "d"], [("a", 4), ("d", None)])
        # No lSI floor from the cross ack: vSI 7 is fine, value decides.
        assert judge(acked_writes, log, {"x": ("d", 7)})[0] is None
        error, outcome = judge(acked_writes, log, {"x": ("a", 7)})
        assert error and "neither the last acked value" in outcome.losses[0]
        # The put's floor still holds beside it.
        assert judge(acked_writes, log, {"x": ("d", 3)})[0] is not None
        only_cross = log_of(["d"], [("d", None)])
        assert judge(acked_writes, only_cross, {"x": ("d", None)})[0] is None

    def test_refused_derive_may_have_landed_unseen(self):
        # A refused derive's value was never told; it excuses a recovered
        # value nobody sent only when it came after the last ack.
        after = log_of(["a", DERIVED], [("a", 1)])
        assert judge(acked_writes, after, {"x": (b"digest", 2)})[0] is None
        before = log_of([DERIVED, "a"], [("a", 1)])
        assert judge(acked_writes, before, {"x": (b"digest", 2)})[0] is not None


class TestOtherChecks:
    PROMOTED = dict(promoted_epoch=2, watermark=10, promote_time=100.0)

    def test_old_epoch_ack_above_the_watermark_is_counted(self):
        log = log_of(["a"], [("a", 11, 1, 100.5)])
        error, outcome = judge(epoch_audit, log, **self.PROMOTED)
        assert outcome.old_epoch_acks == 1
        assert "1 post-promotion acks from the deposed epoch" in error

    @pytest.mark.parametrize(
        "ack",
        [
            ("a", 10, 1, 100.5),  # at the watermark: adopted before promotion
            ("a", 9, 1, 100.5),  # below it
            ("a", 11, 1, 99.0),  # acked before the promotion
            ("a", 11, 2, 100.5),  # the new epoch's own ack
            ("a", 11, None, 100.5),  # a standalone daemon's ack
        ],
    )
    def test_benign_acks_are_not(self, ack):
        error, outcome = judge(epoch_audit, log_of(["a"], [ack]), **self.PROMOTED)
        assert error is None and outcome.old_epoch_acks == 0

    def test_conflicting_fence_fails_partial_fence_is_legal(self):
        def fence(state):
            return FenceStatus("xs:0@3,1@5", (0, 1), (0,), state)

        legal = FenceAudit(complete=[fence("complete")], partial=[fence("partial")])
        error, outcome = judge(fence_audit, ClientLog(), fences=legal)
        assert error is None
        assert (outcome.fences_complete, outcome.fences_partial) == (1, 1)
        broken = FenceAudit(conflicting=[fence("conflicting")])
        error, outcome = judge(fence_audit, ClientLog(), fences=broken)
        assert "1 conflicting fences" in error and "xs:0@3,1@5" in error
        assert outcome.fences_conflicting == 1

    def test_survivors_must_have_been_asked(self):
        error, outcome = judge(survivors_acked, ClientLog())
        assert "no surviving shard" in error
        asked = LiveFireOutcome("fabricated", survivor_acks_during_outage=2)
        survivors_acked(Evidence([], lambda obj: (None, None)), asked)
        assert asked.ok

    def test_a_kill_inside_a_checkpoint_must_have_landed_on_a_cut_log(self):
        error, _ = judge(killed_in_checkpoint, ClientLog())
        assert "never landed inside a checkpoint" in error
        error, _ = judge(killed_in_checkpoint, ClientLog(), log_start_at_kill=1)
        assert "no online checkpoint truncated the log" in error
        error, _ = judge(killed_in_checkpoint, ClientLog(), log_start_at_kill=90)
        assert error is None

    def test_promoted_witness_must_serve_what_it_wrote(self):
        stored = {}

        def write(obj, value):
            stored[obj] = (value, 41)
            return 41

        error, outcome = judge(promoted_serves, ClientLog(), stored, write=write, seed=4)
        assert error is None and outcome.promoted
        assert stored == {"postfailover:4": ("epoch-probe:4", 41)}
        error, outcome = judge(
            promoted_serves, ClientLog(), stored, write=lambda obj, value: 40
        )
        assert "failed the write-read probe" in error and not outcome.promoted


# ----------------------------------------------------------------------
# the CLI
# ----------------------------------------------------------------------
class TestCLI:
    @pytest.mark.parametrize(
        "argv",
        [
            ["torture", "v4", "--shards", "1"],
            ["torture", "v3", "--clients", "0"],
            ["torture", "v5", "--requests", "0"],
            ["torture", "v5", "--runs", "0"],
            ["torture", "v5", "--zombie-ratio", "1.5"],
            ["torture", "v4", "--store", "no-such-backend"],
            ["serve", "--data-dir", "unused", "--shards", "0"],
            ["serve", "--data-dir", "unused", "--shards", "two"],
        ],
    )
    def test_bad_shape_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--data-dir", "unused", "--port", "70000"],
            ["serve", "--data-dir", "unused", "--http-port", "65536"],
            ["promote", "--port", "99999"],
            ["serve", "--data-dir", "unused", "--witness-of", "host:99999"],
            ["serve", "--data-dir", "unused", "--witness-of", "host:0"],
            ["serve", "--data-dir", "unused", "--witness-of", "localhost"],
            ["serve", "--data-dir", "unused", "--p-transient", "7"],
            ["serve", "--data-dir", "unused", "--p-torn", "1.5"],
            ["serve", "--data-dir", "unused", "--p-corrupt", "-0.1"],
            ["torture", "fuzz", "--p-transient", "7"],
            ["torture", "v2", "--p-crash", "2"],
            # Budgets under which the daemon would refuse everything.
            ["serve", "--data-dir", "unused", "--default-deadline-ms", "0"],
            ["serve", "--data-dir", "unused", "--default-deadline-ms", "-5"],
            ["serve", "--data-dir", "unused", "--max-queue", "0"],
            ["promote", "--port", "1", "--attempts", "0"],
            ["promote", "--port", "1", "--deadline", "0"],
            ["promote", "--port", "1", "--deadline", "-1"],
            ["promote", "--port", "1", "--deadline", "nan"],
        ],
    )
    def test_port_or_rate_out_of_range_is_a_usage_error(self, argv, capsys):
        # Parsed, not run: a bad value must never reach a daemon.
        with pytest.raises(SystemExit) as raised:
            _build_parser().parse_args(argv)
        assert raised.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_flag_names_and_defaults_did_not_move(self):
        parser = _build_parser()
        expected = {
            "v3": dict(clients=3, requests_per_client=12, store_backend="memory",
                       no_subprocess=False),
            "v4": dict(clients=3, requests_per_client=14, store_backend="memory",
                       shards=2),
            "v5": dict(clients=3, requests_per_client=10, store_backend="memory",
                       zombie_ratio=0.2),
        }
        for name, shape in expected.items():
            args = vars(parser.parse_args(["torture", name]))
            assert args["runs"] == 25 and args["seed"] == 0
            assert args["metrics_out"] is None
            assert {key: args[key] for key in shape} == shape
        # A flag is declared only where its axis exists.
        assert "shards" not in vars(parser.parse_args(["torture", "v3"]))
        assert "zombie_ratio" not in vars(parser.parse_args(["torture", "v4"]))

    def test_failing_run_prints_the_command_that_replays_it(self, capsys):
        argv = ["torture", "v4", "--runs", "40", "--shards", "3",
                "--clients", "2", "--store", "logstore"]
        report = SCENARIOS["v4"].report("shard-kill")
        report.outcomes.append(
            LiveFireOutcome("v4 seed=17", ok=False, error="boom", seed=17)
        )
        assert _report(report, _build_parser().parse_args(argv)) == 1
        out = capsys.readouterr().out
        command = re.search(r"\(reproduce: (python -m repro .*)\)", out).group(1)
        assert command == (
            "python -m repro torture v4 --runs 1 --seed 17 "
            "--clients 2 --store logstore --shards 3"
        )
        # Pasted, it reruns exactly that seed and shape.
        assert main(shlex.split(command)[3:]) == 0
        assert (
            "1 shard-kill runs from seed 17 (3 shards, 2 clients x 14 "
            "requests, store logstore)"
        ) in capsys.readouterr().out

    def test_replay_command_keeps_the_lane(self, capsys, monkeypatch):
        def failing(lane):
            def campaign(harness, *args):
                report = harness.scenario.report(lane)
                report.outcomes.append(LiveFireOutcome(
                    "v3 seed=4", ok=False, error="boom", seed=4
                ))
                return report
            return campaign

        monkeypatch.setattr(LiveFireHarness, "campaign", failing("in-process"))
        monkeypatch.setattr(
            LiveFireHarness, "subprocess_lanes", failing("subprocess")
        )
        assert main(["torture", "v3", "--seed", "4"]) == 1
        out = capsys.readouterr().out
        replay = "(reproduce: python -m repro torture v3 --runs 1 --seed 4"
        assert f"{replay} --no-subprocess)" in out  # the in-process run
        assert f"{replay})" in out  # the subprocess lanes
