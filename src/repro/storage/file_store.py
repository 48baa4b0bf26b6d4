"""File-backed stable store: one file per object, crash-atomic writes.

Each object version ``(value, vSI)`` is written to
``<root>/objects/<encoded-id>.obj`` as a checksummed frame —
``magic || [length][crc32] || codec payload``, mirroring the WAL's frame
format (:mod:`repro.storage.framing`) — via the classic temp-file + fsync + atomic-rename dance, so a
single-object write either fully lands or fully doesn't — exactly the
atomicity granule the paper's model assumes.  Multi-object writes
issued with ``atomic=False`` go one rename at a time and can genuinely
tear across a process crash.

The framing is the detection layer: a torn or bit-rotted object file
fails its length/checksum test on load and is **quarantined** (moved to
``<root>/quarantine/``) instead of raising a bare decoding error or
silently returning garbage; recovery then replays the object from the
log (see ``RecoverableSystem.recover``'s quarantine fallback).

Durability detail that the original rename dance missed: ``os.replace``
and ``os.unlink`` mutate the *directory*, and a metadata-losing crash
can undo them unless the directory itself is fsynced — so every rename
and unlink here is followed by :func:`~repro.storage.framing.fsync_dir`.

Object ids are percent-encoded into file names (ids contain ``:`` and
may contain ``/``).

This is the canonical home of :class:`FileStableStore`
(:mod:`repro.persist` re-exports the name).
"""

from __future__ import annotations

import os
import urllib.parse
from typing import Any, Dict, List, Optional

from repro.common.errors import CorruptObjectError
from repro.common.identifiers import ObjectId, StateId
from repro.common.retry import retry_transient
from repro.storage import framing
from repro.storage.framing import DurableMediaMarker, fsync_dir
from repro.storage.stable_store import StableStore, StoredVersion
from repro.storage.stats import IOStats

_SUFFIX = ".obj"


def _encode(obj: ObjectId) -> str:
    return urllib.parse.quote(obj, safe="") + _SUFFIX


def _decode(filename: str) -> ObjectId:
    return urllib.parse.unquote(filename[: -len(_SUFFIX)])


class FileStableStore(DurableMediaMarker, StableStore):
    """A StableStore whose contents live under ``root/objects``.

    The in-memory version map acts as a read cache over the files; the
    files are the durable truth and are reloaded on construction.
    Corrupt files discovered at load time are quarantined immediately
    and surfaced through :meth:`scrub` so the recovery path replays
    them from the log.
    """

    def __init__(self, root: str, stats: Optional[IOStats] = None) -> None:
        super().__init__(stats)
        self.root = root
        self._dir = os.path.join(root, "objects")
        self._quarantine_dir = os.path.join(root, "quarantine")
        os.makedirs(self._dir, exist_ok=True)
        #: Objects quarantined but not yet reported through scrub():
        #: obj -> reason.  Load-time detections land here.
        self._pending_quarantine: Dict[ObjectId, str] = {}
        self._load()
        self._init_marker(root)

    def _load(self) -> None:
        for name in sorted(os.listdir(self._dir)):
            if not name.endswith(_SUFFIX):
                continue
            obj = _decode(name)
            path = os.path.join(self._dir, name)
            with open(path, "rb") as handle:
                data = handle.read()
            try:
                value, vsi = framing.unframe(data, f"object file {name}")
            except CorruptObjectError as exc:
                self.stats.checksum_failures += 1
                self._quarantine_file(name)
                self._pending_quarantine[obj] = str(exc)
                continue
            # Populate the base map directly: loading is not an I/O
            # event of the simulated workload.
            self._versions[obj] = StoredVersion(value, vsi)

    def _quarantine_file(self, name: str) -> None:
        os.makedirs(self._quarantine_dir, exist_ok=True)
        source = os.path.join(self._dir, name)
        if os.path.exists(source):
            os.replace(source, os.path.join(self._quarantine_dir, name))
            fsync_dir(self._quarantine_dir)
            fsync_dir(self._dir)

    # ------------------------------------------------------------------
    # durable write path
    # ------------------------------------------------------------------
    def _persist(self, obj: ObjectId, version: StoredVersion) -> None:
        frame = framing.frame(version.value, version.vsi)
        retry_transient(
            lambda: self._write_frame(obj, frame),
            stats=self.stats,
            what=f"persist {obj!r}",
        )

    def _write_frame(self, obj: ObjectId, frame: bytes) -> None:
        """One durable object-file replacement (the device touchpoint).

        Overridden by the fault-injecting file store; transient failures
        raised from here are re-driven whole by :meth:`_persist`.
        """
        final_path = os.path.join(self._dir, _encode(obj))
        framing.write_file_durably(final_path, frame)

    def write(self, obj: ObjectId, value: Any, vsi: StateId) -> None:
        super().write(obj, value, vsi)
        self._persist(obj, StoredVersion(value, vsi))

    def write_many(self, versions, atomic: bool, count: bool = True) -> None:
        if atomic:
            # The caller used a real atomicity mechanism (our file
            # granule is per object; a true multi-file atomic install
            # would stage + manifest-swing, which the shadow mechanism
            # models), so order does not matter.
            StableStore.write_many(self, versions, atomic, count)
            for obj, version in versions.items():
                self._persist(obj, version)
            return
        # Non-atomic: persist each object file at the moment of its
        # in-memory write, so an injected crash between writes leaves
        # disk and memory torn identically — real tearing semantics.
        for obj, version in versions.items():
            if self.mid_write_hook is not None:
                self.mid_write_hook(obj)
            if count:
                self.stats.object_writes += 1
            self._versions[obj] = version
            self._persist(obj, version)

    def delete(self, obj: ObjectId) -> None:
        super().delete(obj)
        retry_transient(
            lambda: self._unlink(obj),
            stats=self.stats,
            what=f"unlink {obj!r}",
        )

    def _unlink(self, obj: ObjectId) -> None:
        path = os.path.join(self._dir, _encode(obj))
        if os.path.exists(path):
            os.unlink(path)
            fsync_dir(self._dir)

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def scrub(self) -> List[ObjectId]:
        """Re-verify every object file; return all failing objects.

        Includes objects already quarantined at load time (their replay
        is still owed) plus any damage that landed after load — e.g. a
        fault-injected torn write whose in-memory copy looks fine.
        """
        bad = list(self._pending_quarantine)
        for name in sorted(os.listdir(self._dir)):
            if not name.endswith(_SUFFIX):
                continue
            path = os.path.join(self._dir, name)
            with open(path, "rb") as handle:
                data = handle.read()
            try:
                framing.unframe(data, f"object file {name}")
            except CorruptObjectError:
                self.stats.checksum_failures += 1
                obj = _decode(name)
                if obj not in bad:
                    bad.append(obj)
        return bad

    def quarantine(self, obj: ObjectId) -> None:
        super().quarantine(obj)
        self._pending_quarantine.pop(obj, None)
        self._quarantine_file(_encode(obj))

    def restore_version(
        self, obj: ObjectId, version: Optional[StoredVersion]
    ) -> None:
        super().restore_version(obj, version)
        if version is None:
            self._unlink(obj)
        else:
            self._persist(obj, version)

    def restore_versions(self, versions) -> None:
        """Media-recovery restore: replace the directory contents."""
        for name in os.listdir(self._dir):
            if name.endswith(_SUFFIX):
                os.unlink(os.path.join(self._dir, name))
        fsync_dir(self._dir)
        StableStore.restore_versions(self, versions)
        for obj, version in versions.items():
            self._persist(obj, version)
