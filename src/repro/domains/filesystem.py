"""File-system recovery (Section 1 "File System Recovery").

Whole files are recoverable objects (``file:<name>``).  The paper's
point: an operation that copies file X to file Y, or sorts X into Y,
has the form of operation B in Figure 1 — with logical logging,
"in neither case do we log the values of input or output files.  Only
the transformations are logged and the source and target files id's."

``FsLoggingMode.PHYSICAL`` is the comparison baseline in which every
derived file's content is logged (what a physiological scheme must do,
since it may read only the updated object itself).

Data entering the system from outside (``write_file``) must always be
logged physically — there is no recoverable source to re-read it from.
Appends are physiological: only the appended bytes are logged.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Mapping, Optional

from repro.common.identifiers import ObjectId
from repro.core.functions import FunctionRegistry, sorted_bytes
from repro.core.operation import Operation, OpKind, delete_object
from repro.kernel.system import RecoverableSystem

FILE_PREFIX = "file:"


class FsLoggingMode(enum.Enum):
    """How derived files (copy/sort/concat) are logged."""

    LOGICAL = "logical"
    PHYSICAL = "physical"


def _fs_append(
    reads: Mapping[ObjectId, Any], obj: ObjectId, data: bytes
) -> Dict[ObjectId, Any]:
    """Physiological append: X <- X + logged-delta."""
    current = reads[obj] or b""
    return {obj: bytes(current) + bytes(data)}


def _fs_truncate(
    reads: Mapping[ObjectId, Any], obj: ObjectId, length: int
) -> Dict[ObjectId, Any]:
    """Physiological truncate: X <- X[:length] (only the length logged)."""
    current = reads[obj]
    if current is None:
        raise ValueError(f"truncate of absent file object {obj!r}")
    return {obj: bytes(current)[:length]}


def _fs_dir_add(
    reads: Mapping[ObjectId, Any], directory: ObjectId, name: str
) -> Dict[ObjectId, Any]:
    """Physiological directory insert: only the name is logged."""
    names = set(reads[directory] or ())
    names.add(name)
    return {directory: tuple(sorted(names))}


def _fs_dir_remove(
    reads: Mapping[ObjectId, Any], directory: ObjectId, name: str
) -> Dict[ObjectId, Any]:
    """Physiological directory remove (no-op when absent)."""
    names = set(reads[directory] or ())
    names.discard(name)
    return {directory: tuple(sorted(names))}


def register_filesystem_functions(registry: FunctionRegistry) -> None:
    """Register FS transforms (copy/sort/concat ship in the default
    registry).  Idempotent."""
    for name, fn in (
        ("fs_append", _fs_append),
        ("fs_truncate", _fs_truncate),
        ("fs_dir_add", _fs_dir_add),
        ("fs_dir_remove", _fs_dir_remove),
    ):
        if not registry.registered(name):
            registry.register(name, fn)


class RecoverableFileSystem:
    """A flat-namespace recoverable file system over one system."""

    def __init__(
        self,
        system: RecoverableSystem,
        mode: FsLoggingMode = FsLoggingMode.LOGICAL,
        track_directory: bool = False,
    ) -> None:
        self.system = system
        self.mode = mode
        #: With directory tracking on, a recoverable directory object
        #: records the live file names (physiological updates logging
        #: only the name), enabling ``list_files`` after recovery.
        self.track_directory = track_directory
        register_filesystem_functions(system.registry)

    # ------------------------------------------------------------------
    # naming
    # ------------------------------------------------------------------
    @staticmethod
    def object_id(name: str) -> ObjectId:
        """The recoverable object id backing file ``name``."""
        return FILE_PREFIX + name

    #: The recoverable object holding the directory listing.
    DIRECTORY_OBJECT: ObjectId = "fsdir:root"

    def _dir_update(self, fn: str, name: str) -> None:
        if not self.track_directory:
            return
        self.system.execute(
            Operation(
                f"{fn}({name})",
                OpKind.PHYSIOLOGICAL,
                reads={self.DIRECTORY_OBJECT},
                writes={self.DIRECTORY_OBJECT},
                fn=fn,
                params=(self.DIRECTORY_OBJECT, name),
            )
        )

    def list_files(self) -> List[str]:
        """Live file names per the recoverable directory object.

        Requires ``track_directory=True``; the listing survives crashes
        like any other recoverable object.
        """
        if not self.track_directory:
            raise ValueError("directory tracking is disabled")
        return list(self.system.read(self.DIRECTORY_OBJECT) or ())

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------
    def write_file(self, name: str, data: bytes) -> Operation:
        """Create or overwrite a file with external data (physical)."""
        obj = self.object_id(name)
        op = Operation(
            f"fswrite({name})",
            OpKind.PHYSICAL,
            reads=set(),
            writes={obj},
            payload={obj: bytes(data)},
        )
        self.system.execute(op)
        self._dir_update("fs_dir_add", name)
        return op

    def append(self, name: str, data: bytes) -> Operation:
        """Append external data to a file (physiological delta)."""
        obj = self.object_id(name)
        op = Operation(
            f"fsappend({name})",
            OpKind.PHYSIOLOGICAL,
            reads={obj},
            writes={obj},
            fn="fs_append",
            params=(obj, bytes(data)),
        )
        self.system.execute(op)
        return op

    def read_file(self, name: str) -> Optional[bytes]:
        """Current contents, or None if the file does not exist."""
        return self.system.read(self.object_id(name))

    def delete(self, name: str) -> Operation:
        """Delete a file (a blind tombstone write)."""
        op = delete_object(self.object_id(name))
        self.system.execute(op)
        self._dir_update("fs_dir_remove", name)
        return op

    def truncate(self, name: str, length: int) -> Operation:
        """Truncate a file to ``length`` bytes (only the length is
        logged — a physiological operation)."""
        obj = self.object_id(name)
        op = Operation(
            f"fstrunc({name},{length})",
            OpKind.PHYSIOLOGICAL,
            reads={obj},
            writes={obj},
            fn="fs_truncate",
            params=(obj, length),
        )
        self.system.execute(op)
        return op

    def rename(self, old: str, new: str) -> None:
        """Rename a file.

        File ids embed names, so a rename is a logical copy to the new
        id (operation-B shape: contents never logged) followed by a
        tombstone for the old id, plus directory maintenance.
        """
        if not self.exists(old):
            raise FileNotFoundError(old)
        self._derive("copy", old, new)
        op = delete_object(self.object_id(old))
        self.system.execute(op)
        if self.track_directory:
            self._dir_update("fs_dir_add", new)
            self._dir_update("fs_dir_remove", old)

    def exists(self, name: str) -> bool:
        """True when the file currently has contents."""
        return self.read_file(name) is not None

    # ------------------------------------------------------------------
    # derived files: the Figure 1 operation-B shapes
    # ------------------------------------------------------------------
    def copy(self, src: str, dst: str) -> Operation:
        """Copy ``src`` to ``dst`` — logical unless mode is PHYSICAL."""
        return self._derive("copy", src, dst)

    def sort(self, src: str, dst: str) -> Operation:
        """Sort ``src``'s bytes into ``dst``."""
        return self._derive("sorted_copy", src, dst)

    def concat(self, sources: List[str], dst: str) -> Operation:
        """Concatenate ``sources`` into ``dst``: a multi-input logical
        transform (reads several recoverable objects, writes one)."""
        dst_obj = self.object_id(dst)
        src_objs = [self.object_id(s) for s in sources]
        if self.mode is FsLoggingMode.LOGICAL:
            op = Operation(
                f"fsconcat({','.join(sources)}->{dst})",
                OpKind.LOGICAL,
                reads=set(src_objs),
                writes={dst_obj},
                fn="concat",
                params=(dst_obj, *src_objs),
            )
        else:
            parts = [self.read_file(s) or b"" for s in sources]
            op = Operation(
                f"fsconcat_P({dst})",
                OpKind.PHYSICAL,
                reads=set(),
                writes={dst_obj},
                payload={dst_obj: b"".join(parts)},
            )
        self.system.execute(op)
        self._dir_update("fs_dir_add", dst)
        return op

    def _derive(self, fn: str, src: str, dst: str) -> Operation:
        src_obj, dst_obj = self.object_id(src), self.object_id(dst)
        if self.mode is FsLoggingMode.LOGICAL:
            op = Operation(
                f"fs{fn}({src}->{dst})",
                OpKind.LOGICAL,
                reads={src_obj},
                writes={dst_obj},
                fn=fn,
                params=(src_obj, dst_obj),
            )
        else:
            data = self.read_file(src)
            if data is None:
                raise FileNotFoundError(src)
            result = (
                sorted_bytes(data) if fn == "sorted_copy" else bytes(data)
            )
            op = Operation(
                f"fs{fn}_P({dst})",
                OpKind.PHYSICAL,
                reads=set(),
                writes={dst_obj},
                payload={dst_obj: result},
            )
        self.system.execute(op)
        self._dir_update("fs_dir_add", dst)
        return op
