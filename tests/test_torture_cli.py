"""The ``torture`` CLI is one table: every mode's replay command and
every command line CI runs must parse with :func:`_build_parser`."""

from __future__ import annotations

import itertools
import re
import shlex
from pathlib import Path

import pytest

from repro.__main__ import TORTURE_MODES, _build_parser, main
from repro.kernel import torture

CI = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"


def _replays(out: str):
    """Each printed replay command, parsed."""
    commands = re.findall(r"\(reproduce: python -m repro (.*)\)", out)
    assert commands, out
    return [_build_parser().parse_args(shlex.split(c)) for c in commands]


@pytest.fixture
def every_run_fails(monkeypatch):
    def refuse(system):
        raise AssertionError("forced verdict")

    monkeypatch.setattr(torture, "verify_recovered", refuse)
    monkeypatch.setattr(torture, "_serves_the_oracle", refuse)


SHAPE = ["--store", "file", "--ops", "6", "--objects", "3",
         "--workload-seed", "4"]


def _same_shape(args) -> None:
    assert (args.store_backend, args.ops, args.objects, args.workload_seed) == (
        "file", 6, 3, 4
    )


def test_failing_fuzz_prints_a_runnable_replay(every_run_fails, capsys):
    argv = ["torture", "fuzz", "--runs", "2", "--seed", "7", "--p-torn", "0.02"]
    assert main(argv + SHAPE) == 1
    replays = _replays(capsys.readouterr().out)
    assert [(a.mode, a.runs, a.seed) for a in replays] == [
        ("fuzz", 1, 7), ("fuzz", 1, 8),
    ]
    for args in replays:
        _same_shape(args)
        assert args.p_torn == 0.02
    # Pasted, it reruns that one schedule.
    assert main(["torture", "fuzz", "--runs", "1", "--seed", "8",
                 "--p-torn", "0.02"] + SHAPE) == 1
    assert "fuzz seed=8: AssertionError" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["v2", "flush", "rot", "witness"])
def test_a_failing_phase_row_prints_a_runnable_replay(
    every_run_fails, capsys, mode
):
    # The witness mode has no ``--p-*`` flags: it fuzzes at its row's.
    rates = [] if mode == "witness" else ["--p-corrupt", "0.02"]
    argv = ["torture", mode, "--fuzz-runs", "2", "--seed", "9"] + rates
    assert main(argv + SHAPE) == 1
    replays = _replays(capsys.readouterr().out)
    assert len(replays) > 2
    for args in replays:
        assert args.mode == mode
        _same_shape(args)
        assert vars(args).get("p_corrupt", 0.02) == 0.02
    # The sweep's cells replay without the fuzz stage; each fuzz
    # schedule as a one-schedule fuzz stage at its seed.
    assert {args.fuzz_runs for args in replays[:-2]} == {0}
    assert [(a.fuzz_runs, a.seed) for a in replays[-2:]] == [(1, 9), (1, 10)]


def test_a_failing_sweep_cell_replays_the_sweep(every_run_fails, capsys):
    assert main(["torture", "sweep"] + SHAPE) == 1
    for args in _replays(capsys.readouterr().out):
        assert args.mode == "sweep"
        _same_shape(args)


# ----------------------------------------------------------------------
# every command line CI runs parses
# ----------------------------------------------------------------------
def _jobs(text: str):
    """``{job name: its text}`` of the workflow's ``jobs:`` map."""
    body = text.split("\njobs:\n", 1)[1]
    parts = re.split(r"(?m)^  ([\w-]+):\s*$", body)
    return dict(zip(parts[1::2], parts[2::2]))


def _matrix(job: str):
    """Every value each ``matrix.<key>`` takes in a job (list and
    ``include`` forms)."""
    values = {}
    block = re.search(r"(?ms)^\s+matrix:\n(.*?)^\s+steps:", job)
    for key, raw in re.findall(
        r"(?m)^[ \t-]*([\w-]+):[ \t]*(\S.*)$", block.group(1) if block else ""
    ):
        items = raw.strip("[]").split(",") if raw.startswith("[") else [raw]
        values.setdefault(key, []).extend(v.strip().strip('"') for v in items)
    return values


def _invocations(job: str):
    """Every ``python -m repro`` argument string in a job, its shell
    continuations and folded (``run: >``) lines joined."""
    lines = re.sub(r"\\\n\s*", " ", job).split("\n")
    for index, line in enumerate(lines):
        found = re.search(r"python -m repro (.*)$", line)
        if not found:
            continue
        command = found.group(1)
        if re.match(r"\s*run: >", lines[index - 1]):
            indent = len(line) - len(line.lstrip())
            for more in lines[index + 1:]:
                if not more.strip() or len(more) - len(more.lstrip()) != indent:
                    break
                command += " " + more.strip()
        yield command.rstrip(" &")


def _ci_command_lines():
    lines = []
    for job in _jobs(CI.read_text(encoding="utf-8")).values():
        matrix = _matrix(job)
        for command in _invocations(job):
            command = re.sub(r"\$\w+", "1", command)  # shell variables
            keys = sorted(set(re.findall(r"\$\{\{ matrix\.([\w-]+) \}\}", command)))
            for combo in itertools.product(*(matrix[key] for key in keys)):
                line = command
                for key, value in zip(keys, combo):
                    line = line.replace(f"${{{{ matrix.{key} }}}}", value)
                lines.append(line)
    return lines


def test_every_ci_command_line_parses():
    lines = _ci_command_lines()
    seen = set()
    parser = _build_parser()
    for line in lines:
        try:
            args = parser.parse_args(shlex.split(line))
        except SystemExit:
            pytest.fail(f"CI runs `python -m repro {line}`, which does not parse")
        seen.add(args.mode if args.command == "torture" else args.command)
    expected = {row.name for row in TORTURE_MODES}
    expected |= {"serve", "promote", "metrics", "trace"}
    assert seen == expected, lines
    # Every matrix value was substituted.
    assert not any("${{" in line for line in lines)
    assert "torture sweep --store logstore" in lines
    assert "torture v3-rewrite --runs 10 --seed 0 --store logstore" in lines
