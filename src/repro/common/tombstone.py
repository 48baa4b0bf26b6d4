"""The delete sentinel.

It lives in :mod:`repro.common` (and is re-exported by
:mod:`repro.core.operation`, where the operation model uses it) because
the value codec — below ``core`` in the import order — has a tag for it
and must hand back this very object: the sentinel is compared with
``is``.
"""

from __future__ import annotations


class _Tombstone:
    """Sentinel value marking a deleted object."""

    __slots__ = ()

    #: Byte size charged by the log size model (a delete marker).
    stable_size = 1

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "TOMBSTONE"


#: Value written by delete operations; the cache and store treat an
#: object whose current value is TOMBSTONE as terminated (Section 5:
#: "When X's lifetime is terminated, as in a delete, rSI becomes the
#: lSI of the delete and the object can be removed from the object
#: table").
TOMBSTONE = _Tombstone()
