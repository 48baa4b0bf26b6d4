"""Fuzzy backups for media recovery (Section 1, ref [10]).

The paper notes that a backup must itself remain recoverable: because a
fuzzy backup copies objects asynchronously with normal execution, the
copy can violate the flush order that the cache manager honoured for the
stable store.  The companion paper [10] solves this in full; here we
provide the substrate hook — an incremental object-at-a-time backup with
a recorded *backup-start lSI* — so media recovery can be exercised:
restore the backup, then run redo recovery over the log suffix from the
backup-start point.

Replaying the whole suffix "repeats history" onto the backup image and
repairs any flush-order violations the fuzzy copy introduced, provided
the log has not been truncated past the backup-start lSI.  That proviso
is enforced by the log manager's truncation check.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.common.identifiers import ObjectId, StateId
from repro.storage.stable_store import StableStore, StoredVersion


class FuzzyBackup:
    """An object-at-a-time backup of a :class:`StableStore`.

    Usage::

        backup = FuzzyBackup(start_lsi=log.stable_end_lsi())
        for obj in store.object_ids():      # interleave with execution
            backup.copy_object(store, obj)
        backup.finish()

    The copy runs while normal execution continues, so the image is
    fuzzy: different objects reflect different moments.  ``start_lsi``
    records where the redo scan must begin when the backup is restored.
    """

    def __init__(self, start_lsi: StateId) -> None:
        self.start_lsi = start_lsi
        self._image: Dict[ObjectId, StoredVersion] = {}
        self._finished = False

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` has sealed the image."""
        return self._finished

    def copy_object(self, store: StableStore, obj: ObjectId) -> None:
        """Copy one object's current stable version into the backup.

        On a durable backend that is a verified read of the device —
        the store keeps no copy in RAM to back up instead — so a frame
        that fails its test raises ``CorruptObjectError`` here rather
        than entering the image.
        """
        if self._finished:
            raise ValueError("backup already finished")
        if store.contains(obj):
            self._image[obj] = store.peek(obj)

    def copy_all(
        self, store: StableStore, objects: Optional[Iterable[ObjectId]] = None
    ) -> None:
        """Copy ``objects`` (default: everything currently stored)."""
        ids: List[ObjectId] = (
            list(objects) if objects is not None else store.object_ids()
        )
        for obj in ids:
            self.copy_object(store, obj)

    def finish(self) -> None:
        """Seal the backup image."""
        self._finished = True

    def restore_into(self, store: StableStore) -> None:
        """Replace the store's contents with the backup image.

        The caller must follow this with a redo recovery pass starting
        at ``start_lsi`` to bring the image to a recoverable state.
        """
        if not self._finished:
            raise ValueError("cannot restore an unfinished backup")
        store.restore_versions(self._image)

    def restore_object(self, store: StableStore, obj: ObjectId) -> None:
        """Restore one object from the image (absent in image = remove).

        This is the quarantine fallback: a stored version that failed
        its checksum is replaced by the (older) backed-up version, and a
        media-style redo pass from ``start_lsi`` repeats history onto
        it.  As with a full restore, replaying the suffix is what makes
        the result correct.
        """
        if not self._finished:
            raise ValueError("cannot restore from an unfinished backup")
        store.restore_version(obj, self._image.get(obj))

    def __len__(self) -> int:
        return len(self._image)
