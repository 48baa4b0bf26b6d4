#!/usr/bin/env python3
"""A recoverable file system with logical copy/sort and fuzzy backups.

Demonstrates the paper's file-system examples: whole files are
recoverable objects, and derivations (copy, sort, concat) are logical
operations whose log records name only the source and target files.
Finishes with a media-recovery pass: the stable store is destroyed and
rebuilt from a fuzzy backup plus the retained log suffix.

Run:  python examples/filesystem_recovery.py
"""

from repro import FuzzyBackup, RecoverableSystem, verify_recovered
from repro.analysis import format_bytes
from repro.domains import RecoverableFileSystem


def build_dataset(fs: RecoverableFileSystem) -> None:
    fs.write_file("raw", bytes(range(256)) * 64)  # 16 KiB of input
    fs.copy("raw", "raw.bak")
    fs.sort("raw", "raw.sorted")
    fs.concat(["raw.sorted", "raw.bak"], "combined")
    # Temp files come and go; recovery will never re-create them.
    fs.write_file("scratch", b"intermediate " * 100)
    fs.sort("scratch", "scratch.sorted")
    fs.delete("scratch")
    fs.delete("scratch.sorted")


def main() -> None:
    system = RecoverableSystem()
    fs = RecoverableFileSystem(system)

    build_dataset(fs)
    print(f"dataset built: log = {format_bytes(system.stats.log_bytes)}, "
          f"data values logged = "
          f"{format_bytes(system.stats.log_value_bytes)} "
          f"(derived files cost only identifiers)")

    # ----- crash recovery --------------------------------------------
    system.log.force()
    system.purge()  # install a little, not everything
    system.crash()
    report = system.recover()
    verify_recovered(system)
    print(f"crash recovery: {report.ops_redone} redone, "
          f"{report.skipped()} bypassed")
    fs = RecoverableFileSystem(system)
    assert fs.read_file("combined") is not None
    assert not fs.exists("scratch")

    # ----- media recovery --------------------------------------------
    # Take a fuzzy backup: objects are copied one at a time while the
    # system keeps running between copies.
    system.flush_all()
    backup = FuzzyBackup(start_lsi=system.log.stable_end_lsi() + 1)
    names = list(system.store.object_ids())
    half = len(names) // 2
    backup.copy_all(system.store, names[:half])
    fs.append("raw", b"POST-BACKUP-APPEND")  # concurrent with the copy
    system.flush_all()
    backup.copy_all(system.store, names[half:])
    backup.finish()
    print(f"fuzzy backup of {len(backup)} objects taken "
          f"(redo window starts at lSI {backup.start_lsi})")

    expected_raw = fs.read_file("raw")

    # Disk dies: mark a restore pending, and recovery restores the
    # backup image, then replays the log suffix.
    system.crash()
    system.store.media_redo_pending = backup.start_lsi
    report = system.recover(quarantine_backup=backup)
    verify_recovered(system)
    fs = RecoverableFileSystem(system)
    assert fs.read_file("raw") == expected_raw
    print(f"media recovery: {report.ops_redone} operations replayed "
          f"onto the backup image; state verified")
    print("OK")


if __name__ == "__main__":
    main()
