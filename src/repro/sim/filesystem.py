"""Namespace and file striping (Lustre layout semantics).

Files are striped round-robin over a subset of OSTs with a fixed stripe
size; each (file, OST) pair is one *object*. The default layout matches
Lustre's defaults on the testbed era (stripe_count=1, stripe_size=1 MiB);
shared-file workloads such as ``ior-hard`` create files striped over all
OSTs, exactly as IO500 configures them.
"""

from __future__ import annotations

import itertools
import posixpath
from dataclasses import dataclass, field

from repro.common.units import MIB

__all__ = ["StripeLayout", "FSFile", "FileSystem"]


@dataclass(frozen=True, slots=True)
class StripeLayout:
    """Striping of one file: stripe size plus the per-stripe object ids.

    ``osts[i]`` is the OST index storing stripe ``i``; ``objects[i]`` is
    the object id of that stripe on its OST.
    """

    stripe_size: int
    osts: tuple[int, ...]
    objects: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.stripe_size <= 0:
            raise ValueError("stripe_size must be positive")
        if len(self.osts) != len(self.objects) or not self.osts:
            raise ValueError("need one object per stripe target")

    @property
    def stripe_count(self) -> int:
        return len(self.osts)

    def map_extent(self, offset: int, size: int) -> list[tuple[int, int, int, int]]:
        """Split a file extent into per-object pieces.

        Returns ``(ost_index, object_id, object_offset, nbytes)`` tuples in
        file-offset order.
        """
        if offset < 0 or size <= 0:
            raise ValueError(f"bad extent: offset={offset} size={size}")
        pieces: list[tuple[int, int, int, int]] = []
        pos = offset
        end = offset + size
        ss = self.stripe_size
        n = self.stripe_count
        while pos < end:
            stripe_no = pos // ss
            within = pos - stripe_no * ss
            nbytes = min(ss - within, end - pos)
            idx = stripe_no % n
            obj_offset = (stripe_no // n) * ss + within
            pieces.append((self.osts[idx], self.objects[idx], obj_offset, nbytes))
            pos += nbytes
        return pieces


@dataclass(slots=True)
class FSFile:
    """A file in the namespace: path, layout, current size and parent
    directory.

    Slotted, because looping create-only noise keeps tens of thousands
    of files alive; ``parent`` is one string shared by every file of a
    directory (:meth:`FileSystem.create` interns it).
    """

    path: str
    layout: StripeLayout
    size: int = 0
    parent: str = field(kw_only=True)


class FileSystem:
    """The global namespace shared by every client.

    Object ids are globally unique and allocated deterministically in
    creation order; the stripe rotor advances round-robin over OSTs so
    file-per-process workloads spread evenly, as Lustre's QOS allocator
    does on a balanced system.
    """

    def __init__(self, n_osts: int, default_stripe_size: int = 1 * MIB) -> None:
        if n_osts < 1:
            raise ValueError("need at least one OST")
        self.n_osts = n_osts
        self.default_stripe_size = default_stripe_size
        self._files: dict[str, FSFile] = {}
        #: One shared string per parent directory, for FSFile.parent.
        self._dirs: dict[str, str] = {}
        self._object_ids = itertools.count(1)
        self._rotor = 0

    def __contains__(self, path: str) -> bool:
        return path in self._files

    def __len__(self) -> int:
        return len(self._files)

    def create(
        self,
        path: str,
        stripe_count: int = 1,
        stripe_size: int | None = None,
    ) -> FSFile:
        """Create a file, assigning stripe targets round-robin."""
        if path in self._files:
            raise FileExistsError(path)
        count = min(max(1, stripe_count), self.n_osts)
        if stripe_count == -1:  # Lustre convention: stripe over all OSTs
            count = self.n_osts
        osts = tuple((self._rotor + i) % self.n_osts for i in range(count))
        self._rotor = (self._rotor + count) % self.n_osts
        objects = tuple(next(self._object_ids) for _ in range(count))
        parent = posixpath.dirname(path) or "/"
        f = FSFile(path,
                   StripeLayout(stripe_size or self.default_stripe_size,
                                osts, objects),
                   parent=self._dirs.setdefault(parent, parent))
        self._files[path] = f
        return f

    def parent_of(self, path: str) -> str:
        """Parent directory of ``path``: a file's own, else parsed from
        the string (a lookup of a missing or directory path is still a
        real MDS round trip; ENOENT costs the same trip as success)."""
        f = self._files.get(path)
        if f is not None:
            return f.parent
        return posixpath.dirname(path) or "/"

    def lookup(self, path: str) -> FSFile:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundError(path) from None

    def unlink(self, path: str) -> None:
        try:
            del self._files[path]
        except KeyError:
            raise FileNotFoundError(path) from None

    def ensure(self, path: str, size: int, stripe_count: int = 1,
               stripe_size: int | None = None) -> FSFile:
        """Create-or-get a pre-existing file of ``size`` bytes.

        Used by read workloads whose input files logically predate the
        measured run (e.g. ``ior-easy-read`` reading back previously
        written files).
        """
        if path in self._files:
            f = self._files[path]
            f.size = max(f.size, size)
            return f
        f = self.create(path, stripe_count=stripe_count, stripe_size=stripe_size)
        f.size = size
        return f
