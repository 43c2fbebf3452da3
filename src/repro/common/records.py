"""Operation types, server identities and DXT-style I/O records.

:class:`IORecord` is the common currency between the simulator's client
instrumentation, the Darshan-DXT-like client monitor, and the labelling
pipeline. One record corresponds to one application-level I/O call
(read/write/open/close/stat/create/unlink), not to an individual RPC —
matching what Darshan DXT logs at POSIX level in the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class OpType(enum.Enum):
    """Application-level I/O operation categories.

    The paper's client-side monitor groups these into three families:
    *read*, *write* and *metadata* (open/close/stat/create/unlink).
    """

    READ = "read"
    WRITE = "write"
    OPEN = "open"
    CLOSE = "close"
    STAT = "stat"
    CREATE = "create"
    UNLINK = "unlink"
    MKDIR = "mkdir"

    # Members are singletons compared by identity, so hash them by
    # identity too, at C speed: Enum.__hash__ is a Python-level call on
    # every dict or set lookup in the request path. It hashed the member
    # name, whose hash is salted per process, so sets of members had no
    # stable order to lose.
    __hash__ = object.__hash__

    @property
    def is_data(self) -> bool:
        return self in (OpType.READ, OpType.WRITE)

    @property
    def is_metadata(self) -> bool:
        return not self.is_data

    @property
    def family(self) -> str:
        """``"read"``, ``"write"`` or ``"meta"`` — the paper's 3 groups."""
        if self is OpType.READ:
            return "read"
        if self is OpType.WRITE:
            return "write"
        return "meta"


class ServerKind(enum.Enum):
    """Lustre server roles: object storage target vs metadata target."""

    OST = "ost"
    MDT = "mdt"


@dataclass(frozen=True)
class ServerId:
    """Stable identity of one PFS server target (an OST or the MDT).

    The learning core builds one per-server feature vector per
    :class:`ServerId`; ordering is total (by kind then index) so feature
    layouts are stable.
    """

    kind: ServerKind
    index: int

    def __lt__(self, other: "ServerId") -> bool:
        if not isinstance(other, ServerId):
            return NotImplemented
        return (self.kind.value, self.index) < (other.kind.value, other.index)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind.value}{self.index}"


@dataclass
class IORecord:
    """One completed application-level I/O operation (DXT-style).

    Attributes
    ----------
    job:
        Name of the workload instance that issued the op (the paper's
        per-application separation: target vs interference workloads).
    rank:
        MPI-style rank within the job.
    op_id:
        Sequence number of this op within ``(job, rank)``. Deterministic
        across repeated runs of the same seeded workload, which is what
        makes baseline/interference matching exact.
    op:
        Operation category.
    path:
        File path the op addressed.
    offset, size:
        Byte extent for data ops; ``0`` for metadata ops.
    start, end:
        Simulated wall-clock interval of the call.
    servers:
        The PFS servers this op touched (stripe targets for data ops, the
        MDT for metadata ops). Used to attribute client-side load to
        per-server vectors.
    """

    job: str
    rank: int
    op_id: int
    op: OpType
    path: str
    offset: int
    size: int
    start: float
    end: float
    servers: tuple[ServerId, ...] = field(default_factory=tuple)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def key(self) -> tuple[str, int, int]:
        """Matching key for baseline/interference pairing."""
        return (self.job, self.rank, self.op_id)

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"op {self.key} ends before it starts: [{self.start}, {self.end}]"
            )
        if self.size < 0 or self.offset < 0:
            raise ValueError(f"op {self.key} has negative extent")

    def __reduce__(self):
        # Records cross process pipes by the thousand.  As its ten
        # fields a record pickles smaller and faster than as the default
        # state dict keyed by field name, and loading it runs __init__,
        # so __post_init__ checks every record a child sends.
        return (type(self), (self.job, self.rank, self.op_id, self.op,
                             self.path, self.offset, self.size, self.start,
                             self.end, self.servers))
