"""Fuzzy backups for media recovery (Section 1, ref [10]).

The paper notes that a backup must itself remain recoverable: because a
fuzzy backup copies objects asynchronously with normal execution, the
copy can violate the flush order that the cache manager honoured for the
stable store.  The companion paper [10] solves this in full; here we
provide the substrate — an object-at-a-time backup with a recorded
*backup-start lSI* — so media recovery can be exercised: restore the
whole image, then run redo recovery over the log suffix from the
backup-start point.

Replaying the suffix "repeats history" onto the image, provided the log
has not been truncated past the backup-start lSI (the log manager's
truncation check enforces that).  Replay does **not** repair a
flush-order violation that an interleaved copy introduced: a logical
record redone over the image reads the imaged versions of its inputs,
so the image must itself be a recoverable state — one the cache
manager's flush order could have left on the stable store.  For the
same reason an image is restored whole, never one object at a time.
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

        The caller must follow this with a redo pass in media mode
        from ``start_lsi``; until that pass completes the store is not
        a recoverable state, so record the window first
        (``StableStore.media_redo_pending``, as
        ``RecoverableSystem.recover`` does) if a crash may intervene.
        """
        if not self._finished:
            raise ValueError("cannot restore an unfinished backup")
        store.restore_versions(self._image)

    def __len__(self) -> int:
        return len(self._image)
