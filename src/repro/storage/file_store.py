"""File-backed stable store: one file per object, crash-atomic writes.

Each object version ``(value, vSI)`` is written to
``<root>/objects/<encoded-id>.obj`` as a checksummed frame
(:mod:`repro.storage.framing`: ``magic || [length][crc32] || payload``)
via temp file + fsync + atomic rename, so a single-object write either
fully lands or fully doesn't — the atomicity granule the paper's model
assumes.  Multi-object writes issued with ``atomic=False`` go one rename
at a time and can genuinely tear across a process crash.

The files are the only home of a stored value: RAM holds ``{object:
vSI}`` and every ``read`` / ``peek`` is a verified read of the object's
file.  A torn or bit-rotted file fails its frame test — on load, where
it is **quarantined** (moved to ``<root>/quarantine/``), or on the read
that touches it, which raises :class:`CorruptObjectError` — instead of
yielding garbage; recovery then rebuilds it from a backup image and
the log (see ``RecoverableSystem.recover``'s quarantine fallback).

``os.replace`` and ``os.unlink`` mutate the *directory*, and a
metadata-losing crash can undo them unless the directory is fsynced —
so every one here is followed by :func:`~repro.storage.framing.fsync_dir`.
Object ids are percent-encoded into file names (ids contain ``:`` and
may contain ``/``).  :mod:`repro.persist` re-exports the class.
"""

from __future__ import annotations

import os
import urllib.parse
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import CorruptObjectError
from repro.common.identifiers import NULL_SI, ObjectId, StateId
from repro.common.retry import retry_transient
from repro.storage import framing
from repro.storage.framing import DurableMediaMarker, fsync_dir
from repro.storage.stable_store import ABSENT, StableStore, StoredVersion
from repro.storage.stats import IOStats

_SUFFIX = ".obj"


def _encode(obj: ObjectId) -> str:
    return urllib.parse.quote(obj, safe="") + _SUFFIX


def _decode(filename: str) -> ObjectId:
    return urllib.parse.unquote(filename[: -len(_SUFFIX)])


class FileStableStore(DurableMediaMarker, StableStore):
    """A StableStore whose contents live under ``root/objects``.

    Construction frame-tests each file and keeps its vSI, not its
    value.  Corrupt files found then are quarantined immediately and
    surfaced through :meth:`scrub`, so recovery replays them.
    """

    def __init__(self, root: str, stats: Optional[IOStats] = None) -> None:
        # Not ``StableStore.__init__``: that builds the in-memory device.
        self.stats = stats if stats is not None else IOStats()
        self.root = root
        self._dir = os.path.join(root, "objects")
        self._quarantine_dir = os.path.join(root, "quarantine")
        os.makedirs(self._dir, exist_ok=True)
        #: The whole of the store's RAM: the vSI of every object file.
        self._index: Dict[ObjectId, StateId] = {}
        #: Objects quarantined but not yet reported through scrub():
        #: obj -> reason.  Load-time detections land here.
        self._pending_quarantine: Dict[ObjectId, str] = {}
        for name in self._object_files():
            try:
                self._index[_decode(name)] = self._read_file(name)[1]
            except CorruptObjectError as exc:
                self._quarantine_file(name)
                self._pending_quarantine[_decode(name)] = str(exc)
        self._init_marker(root)

    def _object_files(self) -> List[str]:
        return sorted(n for n in os.listdir(self._dir) if n.endswith(_SUFFIX))

    def _read_file(self, name: str) -> Tuple[Any, StateId]:
        """The device read: one object file, frame-tested and decoded.
        Damage (a missing file included) counts one checksum failure."""
        try:
            with open(os.path.join(self._dir, name), "rb") as handle:
                return framing.unframe(handle.read(), f"object file {name}")
        except FileNotFoundError:
            error = CorruptObjectError(f"object file {name}: the file is gone")
        except CorruptObjectError as exc:
            error = exc
        self.stats.checksum_failures += 1
        raise error

    def _quarantine_file(self, name: str) -> None:
        os.makedirs(self._quarantine_dir, exist_ok=True)
        source = os.path.join(self._dir, name)
        if os.path.exists(source):
            os.replace(source, os.path.join(self._quarantine_dir, name))
            fsync_dir(self._quarantine_dir)
            fsync_dir(self._dir)

    # ------------------------------------------------------------------
    # reads: the index answers what it can, the device the rest
    # ------------------------------------------------------------------
    def contains(self, obj: ObjectId) -> bool:
        return obj in self._index

    def peek(self, obj: ObjectId) -> StoredVersion:
        if obj not in self._index:
            return ABSENT
        return StoredVersion(*self._read_file(_encode(obj)))

    def vsi_of(self, obj: ObjectId) -> StateId:
        return self._index.get(obj, NULL_SI)

    def object_ids(self) -> List[ObjectId]:
        return list(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def footprint(self) -> Dict[str, float]:
        sizes = 0
        try:
            names = self._object_files()
        except FileNotFoundError:  # the directory was removed: a dead run
            names = []
        for name in names:
            try:
                sizes += os.path.getsize(os.path.join(self._dir, name))
            except FileNotFoundError:  # removed under the poll
                pass
        return {"objects": len(self._index), "device_bytes": sizes}

    # ------------------------------------------------------------------
    # durable write path
    # ------------------------------------------------------------------
    def _put(self, obj: ObjectId, version: StoredVersion) -> None:
        """One durable object-file replacement, then the index: RAM
        never claims a version the device did not take."""
        frame = framing.frame(version.value, version.vsi)
        retry_transient(
            lambda: self._write_frame(obj, frame),
            stats=self.stats,
            what=f"persist {obj!r}",
        )
        self._index[obj] = version.vsi

    def _write_frame(self, obj: ObjectId, frame: bytes) -> None:
        """The device touchpoint (overridden by the fault-injecting
        store); a transient failure here is re-driven by :meth:`_put`."""
        final_path = os.path.join(self._dir, _encode(obj))
        framing.write_file_durably(final_path, frame)

    def delete(self, obj: ObjectId) -> None:
        retry_transient(
            lambda: self._drop(obj), stats=self.stats, what=f"unlink {obj!r}"
        )

    def _drop(self, obj: ObjectId) -> None:
        path = os.path.join(self._dir, _encode(obj))
        if os.path.exists(path):
            os.unlink(path)
            fsync_dir(self._dir)
        self._index.pop(obj, None)

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def scrub(self) -> List[ObjectId]:
        """Re-verify every object file; return all failing objects:
        those quarantined at load (their replay is still owed) plus any
        damage since — e.g. a torn write no read has touched yet."""
        bad = list(self._pending_quarantine)
        indexed = {_encode(obj) for obj in self._index}  # vanished ones too
        for name in sorted(indexed.union(self._object_files())):
            try:
                self._read_file(name)
            except CorruptObjectError:
                if _decode(name) not in bad:
                    bad.append(_decode(name))
        return bad

    def quarantine(self, obj: ObjectId) -> None:
        self._index.pop(obj, None)
        self._pending_quarantine.pop(obj, None)
        self._quarantine_file(_encode(obj))

    def restore_versions(self, versions) -> None:
        """Media-recovery restore: replace the directory contents."""
        for name in self._object_files():
            os.unlink(os.path.join(self._dir, name))
        fsync_dir(self._dir)
        self._index = {}
        for obj, version in versions.items():
            self._put(obj, version)
