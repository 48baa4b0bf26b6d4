"""Golden campaign digests: what every fault point and verdict was.

Each digest is a sha256 over every outcome's ``(description, ok, trace,
seed, attempts)`` and the sorted ``totals`` of one campaign at the
default :class:`TortureConfig`.  They were computed before the sweep,
fuzz and v2 campaigns became one run path over two phase rows, and are
not to be edited: a changed digest means a fault point was renumbered or
a verdict flipped.  They do not depend on ``PYTHONHASHSEED``.

The flush and rot rows have their own digests, taken when they joined
the harness (13.0.0).  So has the witness row (14.0.0), at the shape CI
runs it (6 objects, 30 operations, the backend's recommended cache): at
the default shape its workload collapses into one flush set, a single
point.

The bounded-cache row (``tests.conftest.small_cache_torture``) has its
own digests, taken once a quarantine restored the whole backup image
(10.0.0): its reads reach the device while the workload runs, which the
default row's unbounded cache never does.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.kernel.torture import (
    FLUSH, RECOVERY, ROT, WITNESS, TortureConfig, TortureHarness,
)
from repro.storage.registry import recommended_cache_config
from tests.conftest import small_cache_torture

CAMPAIGNS = {
    "sweep": lambda harness: harness.sweep(),
    "fuzz": lambda harness: harness.fuzz(30),
    "sweep-recovery": lambda harness: harness.sweep(RECOVERY),
    "fuzz-recovery": lambda harness: harness.fuzz(20, phase=RECOVERY),
    "sweep-flush": lambda harness: harness.sweep(FLUSH),
    "fuzz-flush": lambda harness: harness.fuzz(30, phase=FLUSH),
    "sweep-rot": lambda harness: harness.sweep(ROT),
    "fuzz-rot": lambda harness: harness.fuzz(30, phase=ROT),
    "sweep-witness": lambda harness: harness.sweep(WITNESS),
    "fuzz-witness": lambda harness: harness.fuzz(50, phase=WITNESS),
}

GOLDEN = {
    ("memory", "sweep"):
        "09bbc7798e844e2343108cbce824ffe804bf56d0033f8910b8f04d13c9fa68ed",
    ("memory", "fuzz"):
        "d0a2b27e8f4b1a26d93de857c35c0456307b3071bbe051e015a5f52c056d48a2",
    ("memory", "sweep-recovery"):
        "3cc04626215b30efac38aefc6fe540d10c78b86c77dc031de3d55002c2873bfc",
    ("memory", "fuzz-recovery"):
        "8310f49a398e2ec2c621b0ab652b131c55c34438dfd41889391686b131cb3bd1",
    ("file", "sweep"):
        "09bbc7798e844e2343108cbce824ffe804bf56d0033f8910b8f04d13c9fa68ed",
    ("file", "fuzz"):
        "d0a2b27e8f4b1a26d93de857c35c0456307b3071bbe051e015a5f52c056d48a2",
    ("file", "sweep-recovery"):
        "a4019356878975f7304ea5c3b6c7dc7e18f76578801f95b99b7077a4e18a7cd4",
    ("file", "fuzz-recovery"):
        "8310f49a398e2ec2c621b0ab652b131c55c34438dfd41889391686b131cb3bd1",
    ("logstore", "sweep"):
        "4f66e5956e188440561d3f25a57f043a771376d866764f098f02e7c3242998db",
    ("logstore", "fuzz"):
        "171d70178dea55951a1cb455db1caa4d92993fcb54d6b8c1a710eace82fe18ce",
    ("logstore", "sweep-recovery"):
        "a4019356878975f7304ea5c3b6c7dc7e18f76578801f95b99b7077a4e18a7cd4",
    ("logstore", "fuzz-recovery"):
        "b17a60abf0012077f08e7045311a1c15f27d0125581bb4ad7de13e20a1b623fa",
}
_ROWS = {
    "sweep-flush":
        "0bdaddc6d4689fc777354be37f23e37eaab1282fe19c5c90f69294ff04d8f85b",
    "fuzz-flush":
        "bf07d7c9b41807484032a4a5d5be4a4f328fb7596d9ba2f7ca4e9ddf26fae11e",
    "sweep-rot":
        "1c4e5e610bf84031400736ee786f90e3088694d98cc36daf50aa9402c0236e18",
    "fuzz-rot":
        "e64d37e42c1a7a85e052c6e0f104b7b7d2af8974a3e914417c50fcafd2e46cd5",
    "sweep-witness":
        "0a84a21ff3ace882b5537c0e9c19a14390e91f1c3354619d7b2c597911e83166",
    "fuzz-witness":
        "720c99b911145f679c50135ee648ca702e649c91c396c507cc23bbe5d5ff811d",
}
GOLDEN.update(
    ((backend, campaign), value)
    for backend in ("memory", "file", "logstore")
    for campaign, value in _ROWS.items()
)
GOLDEN["logstore", "fuzz-flush"] = (
    "0af4b1c3e1eefd08cc8b5b7a4511ebbf37213d068b122db9449a39462fc37456"
)
# A restarted logstore witness serves a rotted cycle write wrong: the
# strict xfail in tests/test_witness_row.py, so no digest until it mends.
del GOLDEN["logstore", "fuzz-witness"]


SMALL_CACHE_CAMPAIGNS = {
    "sweep": lambda harness: harness.sweep(),
    "fuzz": lambda harness: harness.fuzz(200),
    "fuzz-recovery": lambda harness: harness.fuzz(200, phase=RECOVERY),
}

SMALL_CACHE_GOLDEN = {
    ("memory", "sweep"):
        "2ebba41c953255044832fcf701f876e704b9610022f02bd23b34fa7d2c8afc5a",
    ("memory", "fuzz"):
        "bcb36411bb4ff888860449570bc6aae462df40c14a190fd6d79313b862605531",
    ("memory", "fuzz-recovery"):
        "bd4c73c80b5bde09b8b395018d5a553bfa700f5a6af60d8240f6d27b42c71720",
    ("file", "sweep"):
        "7a2a7225eeaaad3434c4c41e20a0c13a824d9c16c7f775d1ed9d2f45272b8cf6",
    ("file", "fuzz"):
        "e35da9db5f6f18614ef5030689a7a9474459e7e8941863bbca11efabbb56eb2d",
    ("file", "fuzz-recovery"):
        "c7277560500cbeb506ae8c5fb8455fc162329af36f25d8161c15ecf3ce247394",
    ("logstore", "sweep"):
        "69ca10315ab4ee769d9c9c2d527c69ca2ea857aabbed7eb2a2c4908ec2e88419",
    ("logstore", "fuzz"):
        "6f7773aa3ab9660ae5434fe1405e33a71fb698f1dc1ce559c645281f288e0c3d",
    ("logstore", "fuzz-recovery"):
        "e3e359aeaf2ccc0b27a297ef5ded356890b37cdaeec4519395a1e1485a38b7e3",
}

def digest(report) -> str:
    hasher = hashlib.sha256()
    for o in report.outcomes:
        hasher.update(
            repr((o.description, o.ok, list(o.trace), o.seed, o.attempts)).encode()
        )
    hasher.update(repr(sorted(report.totals.items())).encode())
    return hasher.hexdigest()


@pytest.mark.parametrize("backend, campaign", sorted(GOLDEN))
def test_campaign_digest_is_golden(backend, campaign):
    config = TortureConfig(store_backend=backend)
    if campaign.endswith("-witness"):
        config = TortureConfig(
            objects=6, operations=30, store_backend=backend,
            cache_factory=lambda: recommended_cache_config(backend),
        )
    harness = TortureHarness(config)
    report = CAMPAIGNS[campaign](harness)
    assert report.mode == campaign
    assert report.ok, [f"{o.description}: {o.error}" for o in report.failures()]
    assert digest(report) == GOLDEN[backend, campaign]


@pytest.mark.parametrize("backend, campaign", sorted(SMALL_CACHE_GOLDEN))
def test_small_cache_campaign_digest_is_golden(backend, campaign):
    harness = TortureHarness(small_cache_torture(backend))
    report = SMALL_CACHE_CAMPAIGNS[campaign](harness)
    assert report.mode == campaign
    assert report.ok, [f"{o.description}: {o.error}" for o in report.failures()]
    assert digest(report) == SMALL_CACHE_GOLDEN[backend, campaign]
