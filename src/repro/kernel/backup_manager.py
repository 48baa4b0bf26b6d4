"""Backup scheduling and media recovery for a RecoverableSystem.

The paper (Section 1) notes that media recovery needs the backup itself
to remain recoverable, and that fuzzy backups — taken while execution
continues — can violate the flush order the cache manager honoured for
the stable store.  The full logical-operation treatment is the
companion paper [10]; this manager provides the working substrate:

* **fuzzy backups** copied object-at-a-time, optionally with workload
  execution interleaved between copy steps;
* a **redo window**: the backup's ``start_lsi`` is the minimum of the
  dirty-object table's rSIs at backup start (uninstalled effects are
  not in the stable image either) and the next log position, so media
  recovery replays everything the image might be missing;
* **truncation protection**: while a backup is retained, the log
  manager refuses to reclaim its redo window, so restore+replay always
  has the records it needs;
* **restore**: replace the store with the image and run media-mode
  recovery (vSI test from the window start — see
  :meth:`repro.core.recovery.RecoveryManager.run`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.identifiers import ObjectId, StateId
from repro.core.recovery import RecoveryReport
from repro.kernel.system import RecoverableSystem
from repro.storage.backup import FuzzyBackup


class BackupManager:
    """Takes, retains and restores fuzzy backups of one system."""

    def __init__(self, system: RecoverableSystem) -> None:
        self.system = system
        self._retained: List[FuzzyBackup] = []
        self._tokens: Dict[int, int] = {}  # id(backup) -> protection token

    # ------------------------------------------------------------------
    # taking backups
    # ------------------------------------------------------------------
    def take_backup(
        self,
        interleave: Optional[Callable[[int, ObjectId], None]] = None,
    ) -> FuzzyBackup:
        """Copy every stable object into a new backup.

        ``interleave(step, obj)`` runs *between* object copies, so tests
        and demos can execute operations concurrently with the copy —
        that concurrency is what makes the backup fuzzy.
        """
        system = self.system
        start = self._redo_window_start()
        backup = FuzzyBackup(start_lsi=start)
        token = system.log.add_protection(start)
        try:
            for step, obj in enumerate(list(system.store.object_ids())):
                backup.copy_object(system.store, obj)
                if interleave is not None:
                    interleave(step, obj)
            backup.finish()
        except BaseException:
            system.log.remove_protection(token)
            raise
        self._retained.append(backup)
        self._tokens[id(backup)] = token
        return backup

    def _redo_window_start(self) -> StateId:
        """Where replay onto a backup started now must begin.

        Dirty (uninstalled) effects are in neither the store nor the
        image, so the window opens at the dirty table's minimum rSI; a
        fully-clean system only needs the records from here on.
        """
        system = self.system
        next_lsi = system.log.stable_end_lsi() + 1
        dirty_start = system.cache.dirty_table.min_rsi()
        if dirty_start is None:
            return next_lsi
        return min(dirty_start, next_lsi)

    # ------------------------------------------------------------------
    # retention
    # ------------------------------------------------------------------
    def retained(self) -> List[FuzzyBackup]:
        """Backups currently retained (oldest first)."""
        return list(self._retained)

    def discard(self, backup: FuzzyBackup) -> None:
        """Drop a backup and release its truncation protection."""
        if backup in self._retained:
            self._retained.remove(backup)
        token = self._tokens.pop(id(backup), None)
        if token is not None:
            self.system.log.remove_protection(token)

    def discard_older_than_latest(self) -> int:
        """Keep only the newest backup; returns how many were dropped."""
        dropped = 0
        while len(self._retained) > 1:
            self.discard(self._retained[0])
            dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # media recovery
    # ------------------------------------------------------------------
    def restore_latest(self) -> RecoveryReport:
        """Media recovery: restore the newest backup and replay.

        The system is crashed (volatile state gone, simulating the
        media failure taking the machine down) and a restore is marked
        pending, so recovery takes its one media path: it restores the
        whole image and replays the retained log suffix from the
        backup's window start in media mode.
        """
        if not self._retained:
            raise ValueError("no backup retained")
        backup = self._retained[-1]
        self.system.crash()
        # Before the first write: a crash inside the restore leaves part
        # of the image, which only another restore may be redone over.
        self.system.store.media_redo_pending = backup.start_lsi
        return self.system.recover(quarantine_backup=backup)
