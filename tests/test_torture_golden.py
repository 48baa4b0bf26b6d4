"""Golden campaign digests: what every fault point and verdict was.

Each digest is a sha256 over every outcome's ``(description, ok, trace,
seed, attempts)`` and the sorted ``totals`` of one campaign at the
default :class:`TortureConfig`.  They were computed before the sweep,
fuzz and v2 campaigns became one run path over two phase rows, and are
not to be edited: a changed digest means a fault point was renumbered or
a verdict flipped.  They do not depend on ``PYTHONHASHSEED``.

The bounded-cache row (``tests.conftest.small_cache_torture``) has its
own digests, taken once a quarantine restored the whole backup image
(10.0.0): its reads reach the device while the workload runs, which the
default row's unbounded cache never does.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.kernel.torture import RECOVERY, TortureConfig, TortureHarness
from tests.conftest import small_cache_torture

CAMPAIGNS = {
    "sweep": lambda harness: harness.sweep(),
    "fuzz": lambda harness: harness.fuzz(30),
    "sweep-recovery": lambda harness: harness.sweep(RECOVERY),
    "fuzz-recovery": lambda harness: harness.fuzz(20, phase=RECOVERY),
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
    harness = TortureHarness(TortureConfig(store_backend=backend))
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
