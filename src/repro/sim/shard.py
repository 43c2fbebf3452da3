"""Sharded simulation: one run partitioned by server domain.

A single monitored execution is compute-bound on one core however large
the configured cluster is.  This module partitions one simulation into
*domains* that advance on independent :class:`~repro.sim.engine.
Environment` instances and synchronise through a deterministic
conservative time-window protocol:

* the **root domain** keeps everything that is latency-coupled to the
  clients with no lookahead: the compute nodes and their RPC credit
  windows, every workload rank process, the MDS/MDT, the namespace and
  the trace collector;
* one **server domain per OSS** owns that OSS's OSTs (disks, caches,
  QoS) plus its NIC link and a replica of each client NIC link, and
  serves the data RPCs the root posts to it.

Lookahead and windows
---------------------
Every cross-domain interaction is a data RPC, and every data RPC pays
the fixed client ``rpc_latency`` before it reaches the server — so a
message *posted* at time ``g`` takes *effect* at ``g + latency``.  That
latency is the protocol's lookahead ``λ``: with ``B`` the global minimum
over every domain's next event time and every posted-but-undelivered
message's effect time, no new effect can materialise before ``B + λ``,
and all domains may safely advance through the window ``[B, B + λ)``
without further coordination.  Each window the coordinator

1. takes the columnar outbox batches whose effect falls inside the
   window and hands them to their server domains,
2. runs every server domain through the window, collecting completions,
3. merges completions across domains (sorted by ``(time, domain)``) and
   schedules them into the root environment at their exact times,
4. runs the root domain through the same window.

Server domains run *before* the root, which is safe because any message
the root posts during the window takes effect at ``≥ B + λ`` — past the
window end — while worker completions are delivered to the root at
their exact service-completion times inside the window.

Adaptive lookahead and barrier elision
--------------------------------------
A barrier per ``λ``-window is pure overhead whenever no cross-domain
effect can land inside the window.  The :class:`WindowPolicy`
``adaptive`` mode (the default) widens the window to the *proven-safe
horizon* whenever the coordinator can prove the span
``[B, H)`` free of cross-domain effects:

* the router outbox is empty (no posted-but-undelivered message — and
  because effect times are monotone in post order, a pending message
  always bounds the frontier to within ``λ`` of its effect, so widening
  is only ever possible with an empty outbox), and
* every domain environment's :meth:`~repro.sim.engine.Environment.peek`
  horizon clears the span (``group.next_time ≥ H``) — no domain event,
  hence no completion and no server sample, can occur before ``H``.

``H = min(group.next_time, B + cap)`` with ``cap`` defaulting to the
monitor ``sample_interval`` (domains tick their monitors every
``sample_interval``, so wider spans cannot be proven anyway).  The root
then runs the span *alone* — zero worker round-trips — under a
first-post guard: the moment a root event posts a message, the safe
horizon shrinks to that message's effect time ``t + λ`` (later posts
have later effects, columns stay monotone) and the quiet run stops
there; the next ordinary window delivers it.

Root-quiet spans alone barely help, because domain *service* events —
not root events — pace >90 % of a data-heavy run's windows.  The
complementary **guarded domain-ahead round** elides those: whenever the
root's own horizon clears the span (its first queued event is at
``env.peek()``, and a root reaction to a delivered completion can only
post with effect ≥ ``tc + λ``), the group advances its domains through
many λ-sub-windows in a *single* coordinator round
(:func:`run_hosts_guarded`): the outbox is drained below the round's
``stop ≤ env.peek() + λ`` up front, and the lockstep halts at the end of
the first sub-window producing a completion — within ``λ`` of it — so
every possible root reaction still takes effect at or after the reached
end.  Sub-window pacing follows only the **active** domains (in-service
messages or fresh injections; derived from router state, never from the
process partition), which keeps the reached end — and the root's run
chunking — partition-invariant; inactive domains hosted elsewhere may
lag and catch up later, since with nothing in service they can neither
complete nor post.  Across processes a guarded round is only issued when
every active domain shares one worker (the guard must bind globally);
otherwise the coordinator falls back to fixed windows.

Both mechanisms fire exactly the events the fixed protocol would fire,
at the same simulated times with the domains' chunking irrelevant to
their state — so records, samples, vectors, labels and the span trace
stay **byte-identical between policies** (and across shard counts),
which ``tests/sim/test_shard_adaptive.py`` pins.  The floor is
structural: every completion is a potential root wake-up whose reaction
lands ``λ`` later, so a conservative protocol must synchronise once per
completion cluster; adaptive mode approaches that floor (DESIGN.md §12
quantifies it on the committed benchmark).

Determinism and the ``--shards N ≡ --shards 1`` contract
--------------------------------------------------------
The coordinator's decisions (window boundaries, delivery order, merge
order) are functions of simulation state only — never of how domains
are mapped onto processes.  ``shards=N`` therefore produces bit-identical
traces, server samples, window vectors and labels to ``shards=1``;
``tests/sim/test_shard_equivalence.py`` enforces it, and the run-cache
key marks *sharded* execution without recording N (see
:func:`repro.parallel.cachekey.run_key_material`).

Sharded execution is a distinct execution model from the legacy
single-environment path (each server domain sees replica client links,
so client-NIC fair sharing is domain-local), hence the separate cache
namespace: legacy and sharded runs never share cache entries.

Relation to the paper: this is purely an executor change — the
simulated physics (striping, credit windows, fair-share fabric, disk
service, dirty throttling) is byte-for-byte the models the paper's
interference analysis needs, just evaluated on more cores.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.common.records import ServerId
from repro.common.rng import derive_seed
from repro.monitor.aggregator import MonitoredRun
from repro.monitor.server_monitor import ServerMonitor
from repro.obs import profile as _profile
from repro.obs import trace as _trace
from repro.obs.log import get_logger
from repro.obs.metrics import REGISTRY
from repro.sim.batch import _DataOpDriver
from repro.sim.client import ClientSession
from repro.sim.cluster import Cluster, ClusterConfig
from repro.sim.engine import Event, SimulationError
from repro.workloads.base import Workload, launch, launch_interference

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import ExperimentConfig, InterferenceSpec

__all__ = [
    "CrossShardBatch",
    "ShardRouter",
    "ShardSession",
    "ShardedRootCluster",
    "DomainHost",
    "LocalDomainGroup",
    "WindowPolicy",
    "run_hosts_guarded",
    "execute_run_sharded",
]

logger = get_logger("sim.shard")

_INF = float("inf")

#: Constant activity set for the ``n_domains == 1`` bypass.
_SINGLE_DOMAIN = frozenset((0,))


@dataclass(frozen=True)
class WindowPolicy:
    """How the coordinator sizes conservative sync windows.

    ``fixed`` reproduces the original protocol: one barrier per
    ``λ``-window, ``λ = rpc_latency``, unconditionally.  ``adaptive``
    (the default) elides barriers over provably quiet spans — see the
    module docstring for the safety argument.  Either policy produces
    byte-identical simulation output; the policy is an executor knob
    like the shard count, so it never enters run metadata or cache keys.

    ``cap`` bounds how far one widened span may reach past its frontier,
    in simulated seconds.  ``None`` defaults to the run's
    ``sample_interval`` at entry (the largest provable span — domain
    monitors tick that often); an explicit cap must satisfy
    ``0 < cap < sample_interval``, mirroring the ``0 < λ <
    sample_interval`` validation on the lookahead itself.

    ``audit``, when given a list, records one dict per widened span
    (frontier, planned and actual end, post-guard state) — the hook the
    property tests use to check every span against the λ-safety
    invariant.  It is excluded from equality/pickling concerns by being
    compare-exempt; executors pass policies across process boundaries
    with ``audit=None``.
    """

    mode: str = "adaptive"
    cap: float | None = None
    audit: list | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in ("fixed", "adaptive"):
            raise ValueError(
                f"window policy mode must be 'fixed' or 'adaptive', "
                f"got {self.mode!r}"
            )
        if self.cap is not None:
            if self.mode != "adaptive":
                raise ValueError(
                    "window policy 'fixed' takes no cap (the window is "
                    "always exactly one lookahead)"
                )
            if self.cap <= 0:
                raise ValueError(
                    f"adaptive window cap must be positive, got {self.cap}"
                )

    @property
    def adaptive(self) -> bool:
        return self.mode == "adaptive"

    @classmethod
    def parse(cls, spec: str) -> "WindowPolicy":
        """Parse a CLI spec: ``fixed``, ``adaptive`` or
        ``adaptive:cap=SECONDS``."""
        text = spec.strip()
        mode, _, rest = text.partition(":")
        mode = mode.strip()
        if mode not in ("fixed", "adaptive"):
            raise ValueError(
                f"unknown window policy {mode!r} (expected 'fixed', "
                f"'adaptive' or 'adaptive:cap=SECONDS')"
            )
        if not rest:
            return cls(mode=mode)
        key, eq, value = rest.partition("=")
        if key.strip() != "cap" or not eq:
            raise ValueError(
                f"bad window policy option {rest!r} (the only option is "
                f"'cap=SECONDS')"
            )
        try:
            cap = float(value)
        except ValueError:
            raise ValueError(
                f"window policy cap must be a number of simulated "
                f"seconds, got {value!r}"
            ) from None
        return cls(mode=mode, cap=cap)

    @classmethod
    def resolve(cls, policy: "WindowPolicy | str | None") -> "WindowPolicy":
        """Normalise an executor-level policy argument: ``None`` means
        the default (adaptive, uncapped), a string is parsed."""
        if policy is None:
            return cls()
        if isinstance(policy, str):
            return cls.parse(policy)
        return policy


class CrossShardBatch:
    """One window's cross-shard messages for one domain, as columns.

    Parallel plain-int/float lists (the same layout rationale as
    :class:`~repro.sim.batch.BatchRequest`): cheap to append on the hot
    root path, cheap to pickle across the worker pipe, walked by index
    on the domain side.  Rows are appended in root event order, so the
    ``effect`` column is monotone non-decreasing — splitting a window's
    prefix is a single scan.
    """

    __slots__ = ("kind", "ost", "oid", "ooff", "nb", "node", "job",
                 "token", "effect")

    def __init__(self) -> None:
        self.kind: list[int] = []      # 1 = write, 0 = read
        self.ost: list[int] = []
        self.oid: list[int] = []
        self.ooff: list[int] = []
        self.nb: list[int] = []
        self.node: list[int] = []
        self.job: list[int] = []       # interned job-name id
        self.token: list[int] = []     # completion-routing token
        self.effect: list[float] = []  # absolute effect time (post + λ)

    def __len__(self) -> int:
        return len(self.token)

    def append(self, kind: int, ost: int, oid: int, ooff: int, nb: int,
               node: int, job: int, token: int, effect: float) -> None:
        self.kind.append(kind)
        self.ost.append(ost)
        self.oid.append(oid)
        self.ooff.append(ooff)
        self.nb.append(nb)
        self.node.append(node)
        self.job.append(job)
        self.token.append(token)
        self.effect.append(effect)

    def split(self, end: float, inclusive: bool
              ) -> tuple["CrossShardBatch | None", "CrossShardBatch"]:
        """Split off the prefix taking effect before ``end`` (``<= end``
        when ``inclusive``); returns ``(taken, kept)``."""
        eff = self.effect
        n = len(eff)
        cut = 0
        if inclusive:
            while cut < n and eff[cut] <= end:
                cut += 1
        else:
            while cut < n and eff[cut] < end:
                cut += 1
        if cut == 0:
            return None, self
        if cut == n:
            return self, CrossShardBatch()
        head = CrossShardBatch()
        tail = CrossShardBatch()
        for name in self.__slots__:
            col = getattr(self, name)
            setattr(head, name, col[:cut])
            setattr(tail, name, col[cut:])
        return head, tail


class ShardRouter:
    """Root-side cross-shard mailbox: outbound batches, completion tokens.

    Sessions *post* data RPCs here at window-grant time; each post buys a
    token whose completion the coordinator later schedules back into the
    root environment at the exact service-completion time.  Job names are
    interned to small ids once and shipped incrementally, so the columnar
    batches never carry strings.
    """

    def __init__(self, cluster: "ShardedRootCluster") -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.latency = cluster.config.client.rpc_latency
        self.osts_per_oss = cluster.config.osts_per_oss
        self.outbox = [CrossShardBatch()
                       for _ in range(cluster.config.n_domains)]
        #: token -> 0-arg callable run at the completion time
        self._waiters: dict[int, Callable[[], None]] = {}
        self._next_token = 0
        self._job_ids: dict[str, int] = {}
        self._new_jobs: list[tuple[int, str]] = []
        self.messages_posted = 0
        #: undelivered outbox rows across every domain — the adaptive
        #: policy's O(1) outbox-empty proof and the quiet-window fast
        #: path's skip test (``pending == 0`` ⇒ ``min_effect() == inf``
        #: and ``take_outbox`` would be a no-op).
        self.pending = 0

    def _job_id(self, job: str) -> int:
        jid = self._job_ids.get(job)
        if jid is None:
            jid = self._job_ids[job] = len(self._job_ids)
            self._new_jobs.append((jid, job))
        return jid

    def post(self, is_write: bool, ost_index: int, object_id: int,
             obj_offset: int, nbytes: int, node_index: int, job: str,
             waiter: Callable[[], None]) -> int:
        """Queue one data RPC taking effect at ``now + latency``."""
        token = self._next_token
        self._next_token += 1
        self._waiters[token] = waiter
        self.outbox[ost_index // self.osts_per_oss].append(
            1 if is_write else 0, ost_index, object_id, obj_offset, nbytes,
            node_index, self._job_id(job), token, self.env.now + self.latency,
        )
        self.messages_posted += 1
        self.pending += 1
        return token

    def post_many(self, is_write: bool, req, idxs, node_index: int,
                  job: str, piece_done: Callable[[int], None]) -> None:
        """Queue a granted group of one op's pieces in piece order.

        The columnar counterpart of the unsharded driver's shared
        ``rpc_latency`` timeout: every piece in the group stamps the one
        ``now + latency`` effect time, and rows land in their domains'
        outboxes in piece order with consecutive tokens — exactly the
        rows ``post`` would append one at a time, minus the per-piece
        closure and attribute traffic.
        """
        effect = self.env.now + self.latency
        jid = self._job_id(job)
        kind = 1 if is_write else 0
        ost = req._ost
        oid = req._oid
        ooff = req._ooff
        nb = req._nb
        per = self.osts_per_oss
        outbox = self.outbox
        waiters = self._waiters
        token = self._next_token
        for i in idxs:
            waiters[token] = functools.partial(piece_done, i)
            outbox[ost[i] // per].append(
                kind, ost[i], oid[i], ooff[i], nb[i], node_index, jid,
                token, effect,
            )
            token += 1
        n = token - self._next_token
        self._next_token = token
        self.messages_posted += n
        self.pending += n

    def take_outbox(self, end: float, inclusive: bool
                    ) -> tuple[dict[int, CrossShardBatch],
                               list[tuple[int, str]]]:
        """Detach every domain's messages taking effect inside the window,
        plus the job-name ids interned since the last take."""
        taken: dict[int, CrossShardBatch] = {}
        for domain, batch in enumerate(self.outbox):
            if not batch.token:
                continue
            head, tail = batch.split(end, inclusive)
            if head is not None:
                taken[domain] = head
                self.outbox[domain] = tail
                self.pending -= len(head)
        new_jobs, self._new_jobs = self._new_jobs, []
        return taken, new_jobs

    def min_effect(self) -> float:
        """Earliest undelivered message effect time (columns are monotone,
        so each batch's head is its minimum)."""
        if not self.pending:
            return _INF
        m = _INF
        for batch in self.outbox:
            if batch.effect and batch.effect[0] < m:
                m = batch.effect[0]
        return m

    def outbox_domains(self) -> list[int]:
        """Domains with undelivered messages (the guarded round's
        activity set alongside the coordinator's in-service counts)."""
        return [d for d, batch in enumerate(self.outbox) if batch.token]

    def deliver(self, token: int, when: float) -> None:
        """Schedule one completion into the root environment at ``when``.

        An armed event carrying the waiter is pushed directly onto the
        heap at its absolute completion time (``Event.succeed`` would
        fire it at the *current* root time instead).
        """
        waiter = self._waiters.pop(token)
        env = self.env
        ev = Event(env)
        ev._ok = True
        ev.callbacks.append(lambda _ev, fn=waiter: fn())
        env._schedule(ev, when - env.now)


class _ShardDataOpDriver(_DataOpDriver):
    """Data-op driver that posts granted pieces to the router.

    Inherits :meth:`_DataOpDriver.begin`'s grant discipline verbatim and
    overrides only the grant hooks: the begin-time group posts as one
    columnar :meth:`ShardRouter.post_many` sharing a single ``grant + λ``
    effect stamp, queued pieces post solo when their FIFO grant fires.
    The post replaces the local ``rpc_latency`` timer — the router
    stamps the identical effect time the unsharded driver's shared
    timeout would fire at, so credit-release instants match across
    executors.
    """

    __slots__ = ()

    def _granted_one(self, i: int) -> None:
        req = self.req
        session = self.session
        session.node.cluster.router.post(
            self.is_write, req._ost[i], req._oid[i], req._ooff[i],
            req._nb[i], session.node.index, session.job,
            lambda i=i: self._piece_done(i),
        )

    def _granted_group(self, group: tuple[int, ...]) -> None:
        session = self.session
        session.node.cluster.router.post_many(
            self.is_write, self.req, group, session.node.index,
            session.job, self._piece_done,
        )


class ShardSession(ClientSession):
    """Client session for the root domain of a sharded run."""

    driver_class = _ShardDataOpDriver
    span_attrs = {"sharded": True}


class ShardedRootCluster(Cluster):
    """The root domain: clients, MDS and namespace live; data RPCs are
    posted to the :class:`ShardRouter` instead of local OSTs.

    Built as a full :class:`Cluster` — the dormant root-side OST objects
    schedule no events until touched (caches flush lazily, disks idle),
    and keeping them preserves ``servers`` ordering and ``ServerId``
    bookkeeping without a parallel topology type.
    """

    def __init__(self, config: ClusterConfig | None = None) -> None:
        super().__init__(config)
        self.router = ShardRouter(self)

    def session(self, job: str, rank: int, node_index: int) -> ClientSession:
        node = self.nodes[node_index % len(self.nodes)]
        return ShardSession(node, job, rank, self.collector)


class _DomainView:
    """Duck-typed :class:`ServerMonitor` target: a subset of one
    cluster's servers on that cluster's environment."""

    def __init__(self, cluster: Cluster, servers: list[ServerId]) -> None:
        self.env = cluster.env
        self.servers = servers
        self._cluster = cluster

    def server_counters(self, server: ServerId) -> dict[str, float]:
        return self._cluster.server_counters(server)


class DomainHost:
    """One OSS server domain on its own environment.

    Holds a full cluster replica (bit-identical construction whatever
    process hosts it) of which only this OSS's OSTs, its NIC link and
    the replica client links are exercised; a :class:`ServerMonitor`
    over just those OSTs samples on the same tick schedule as the root.
    Messages are injected at their effect times and walked through the
    same network-transfer + :meth:`OST.serve` chain as the unsharded path.

    When tracing is on the host owns a **per-domain tracer** (installed
    as the module-global tracer while the domain simulates, here and in
    :meth:`run_window`), so the domain's spans never interleave with the
    coordinator's.  The merged trace is then shard-count invariant: root
    spans in root recording order, followed by each domain's spans in
    domain-index order, labelled ``domain{d}`` — the same stream whether
    the domain lived in-process or on a shard worker.
    """

    def __init__(self, config: ClusterConfig, domain_index: int,
                 sample_interval: float, tracer: _trace.Tracer | None = None,
                 spill_path: str | None = None) -> None:
        self.domain_index = domain_index
        self.tracer = tracer
        self.spill_path = spill_path
        self.spilled = 0
        saved = _trace.TRACER
        _trace.TRACER = tracer  # even None: never record into the root's
        try:
            self.cluster = Cluster(config)
            self.env = self.cluster.env
            self.ost_indices = list(config.domain_ost_indices(domain_index))
            servers = [self.cluster.osts[i].server_id
                       for i in self.ost_indices]
            self.monitor = ServerMonitor(_DomainView(self.cluster, servers),
                                         sample_interval=sample_interval)
            self.monitor.start()
        finally:
            _trace.TRACER = saved
        self._jobs: list[str] = []
        self.completions: list[tuple[int, float]] = []

    def add_jobs(self, new_jobs: list[tuple[int, str]]) -> None:
        for jid, name in new_jobs:
            if jid != len(self._jobs):
                raise SimulationError(
                    f"shard domain {self.domain_index}: job-id stream out "
                    f"of order ({jid} after {len(self._jobs)})"
                )
            self._jobs.append(name)

    def inject(self, batch: CrossShardBatch) -> None:
        """Schedule each message's arrival at its effect time.  Same-time
        arrivals keep batch order via the environment's sequence
        tie-break, so delivery order is shard-count invariant."""
        env = self.env
        now = env.now
        for k in range(len(batch.token)):
            ev = Event(env)
            ev._ok = True
            ev.callbacks.append(functools.partial(
                self._arrive, batch.kind[k], batch.ost[k], batch.oid[k],
                batch.ooff[k], batch.nb[k], batch.node[k], batch.job[k],
                batch.token[k],
            ))
            env._schedule(ev, batch.effect[k] - now)

    def _arrive(self, kind: int, oi: int, oid: int, ooff: int, nb: int,
                node: int, jid: int, token: int, _ev: Event) -> None:
        cluster = self.cluster
        ost = cluster.osts[oi]
        job = self._jobs[jid]
        links = cluster.route(cluster.client_links[node], ost.oss_link)
        if kind:  # write: payload crosses the fabric, then OST service
            cluster.net.transfer_batch([(
                nb, links,
                lambda: ost.serve(oid, ooff, nb, job, True,
                                  lambda: self._complete(token)),
            )])
        else:  # read: OST service first, then the payload crosses back
            ost.serve(
                oid, ooff, nb, job, False,
                lambda: cluster.net.transfer_batch(
                    [(nb, links, lambda: self._complete(token))]
                ),
            )

    def _complete(self, token: int) -> None:
        self.completions.append((token, self.env.now))

    def drain_completions(self) -> list[tuple[int, float]]:
        out, self.completions = self.completions, []
        return out

    def run_window(self, end: float, inclusive: bool) -> None:
        saved = _trace.TRACER
        _trace.TRACER = self.tracer
        try:
            self.env.run_to(end, self.tracer, inclusive=inclusive)
        finally:
            _trace.TRACER = saved

    def maybe_spill(self) -> None:
        """Spill finished spans once the buffer passes the threshold.

        Same threshold in every hosting mode, so the spill pattern (and
        with it the deterministic open-parent fallback in the merge) is
        shard-count invariant.
        """
        from repro.obs import distributed as _dist

        if (self.tracer is not None and self.spill_path is not None
                and len(self.tracer.spans) >= _dist.SPILL_THRESHOLD):
            self.spilled += _dist.spill_spans(self.tracer, self.spill_path)

    def ship_spans(self) -> dict[str, Any] | None:
        """This domain's span shipment (plus spool pointer when spilled)."""
        from repro.obs import distributed as _dist

        shipment = _dist.ship(self.tracer)
        if shipment is not None and self.spilled:
            shipment["spill_path"] = self.spill_path
            shipment["spilled"] = self.spilled
        return shipment


def run_hosts_guarded(
    hosts: "list[DomainHost]", stop: float, lookahead: float,
    active: set[int],
) -> tuple[list[tuple[int, list[tuple[int, float]]]], float, int]:
    """Advance ``hosts`` in λ-lockstep sub-windows without coordinator
    round-trips, under the **first-completion guard**.

    The caller guarantees the root is frozen for the whole span and that
    every undelivered message with effect < ``stop`` was injected before
    the call, so the only cross-domain information that can appear inside
    the span is a completion.  A completion at ``tc`` may wake the root,
    whose reaction posts take effect at ``tc + λ`` at the earliest —
    therefore the lockstep stops at the end of the first sub-window that
    produced any completion (its end is ≤ ``tc + λ`` by construction) or
    at ``stop``, whichever comes first.

    Only ``active`` domains (in-service messages or fresh injections) can
    complete, so sub-window pacing follows *their* horizons; that keeps
    the reached end — and with it the root's run chunking — identical for
    every domain→process partition, since the coordinator derives
    ``active`` without reference to the partition.  Inactive hosts still
    advance when they hold events inside a sub-window, but an inactive
    host on another worker may equally lag and catch up later: with
    nothing in service it can neither complete nor post, so its events
    touch no shared state.

    Returns ``(results, reached, subwindows)`` with every active host
    advanced to exactly ``reached`` (exclusive); sub-windows beyond the
    first are barriers the fixed policy would have paid.
    """
    guards = [h for h in hosts if h.domain_index in active]
    results: list[tuple[int, list[tuple[int, float]]]] = []
    subwindows = 0
    while True:
        frontier = min((h.env.peek() for h in guards), default=_INF)
        if frontier >= stop:
            return results, stop, subwindows
        end = frontier + lookahead
        if end > stop:
            end = stop
        got = False
        for host in hosts:
            if host.env.quiet_until(end, False):
                continue
            host.run_window(end, False)
            host.maybe_spill()
            comps = host.drain_completions()
            if comps:
                results.append((host.domain_index, comps))
                got = True
        subwindows += 1
        if got or end == stop:
            return results, end, subwindows


class LocalDomainGroup:
    """All server domains hosted in-process (``shards=1``, and the
    fallback inside daemonic pool workers where nested process spawning
    is forbidden).  Shares the coordinator's registry; spans go through
    the same per-domain tracers, spill spools and domain-order merge as
    the process-backed group, so the trace stream is identical either
    way."""

    def __init__(self, config: ClusterConfig, domains: list[int],
                 sample_interval: float) -> None:
        parent_tracer = _trace.get()
        self._tempdir = None
        if parent_tracer is not None:
            import tempfile

            self._tempdir = tempfile.TemporaryDirectory(
                prefix="repro-shard-")
        self.hosts = [
            DomainHost(config, d, sample_interval,
                       tracer=(None if parent_tracer is None else
                               _trace.Tracer(trace_id=parent_tracer.trace_id)),
                       spill_path=(None if self._tempdir is None else
                                   f"{self._tempdir.name}/domain{d}.spans.jsonl"))
            for d in domains
        ]
        self.next_time = min((h.env.peek() for h in self.hosts),
                             default=_INF)

    def run_window(self, end: float, inclusive: bool,
                   outbox: dict[int, CrossShardBatch],
                   new_jobs: list[tuple[int, str]]
                   ) -> list[tuple[int, list[tuple[int, float]]]]:
        results = []
        nt = _INF
        for host in self.hosts:
            if new_jobs:
                host.add_jobs(new_jobs)
            batch = outbox.get(host.domain_index)
            if batch is None and host.env.quiet_until(end, inclusive):
                # Nothing arriving and nothing scheduled inside the
                # window: the host can neither complete a message nor
                # move its own horizon, so the (empty) run is skipped.
                t = host.env.peek()
                if t < nt:
                    nt = t
                continue
            if batch is not None:
                host.inject(batch)
            host.run_window(end, inclusive)
            host.maybe_spill()
            results.append((host.domain_index, host.drain_completions()))
            t = host.env.peek()
            if t < nt:
                nt = t
        self.next_time = nt
        return results

    def guarded_feasible(self, active: set[int]) -> bool:
        """In-process hosts always share one guard (the lockstep loop)."""
        return True

    def run_guarded(self, stop: float, lookahead: float,
                    outbox: dict[int, CrossShardBatch],
                    new_jobs: list[tuple[int, str]], active: set[int]
                    ) -> tuple[list[tuple[int, list[tuple[int, float]]]],
                               float, int]:
        for host in self.hosts:
            if new_jobs:
                host.add_jobs(new_jobs)
            batch = outbox.get(host.domain_index)
            if batch is not None:
                host.inject(batch)
        results, reached, subwindows = run_hosts_guarded(
            self.hosts, stop, lookahead, active)
        self.next_time = min((h.env.peek() for h in self.hosts),
                             default=_INF)
        return results, reached, subwindows

    def finish(self) -> dict[str, Any]:
        from repro.obs import distributed as _dist

        samples: list[tuple[float, ServerId, dict[str, float]]] = []
        events = 0
        for host in self.hosts:
            samples.extend(host.monitor.samples)
            events += host.env._seq
        parent_tracer = _trace.get()
        if parent_tracer is not None:
            for host in sorted(self.hosts, key=lambda h: h.domain_index):
                _dist.merge_spilled(parent_tracer, host.ship_spans(),
                                    worker=f"domain{host.domain_index}")
        return {"samples": samples, "events": events}

    def close(self) -> None:
        if self._tempdir is not None:
            self._tempdir.cleanup()


def _make_group(config: ClusterConfig, domains: list[int],
                sample_interval: float, shards: int):
    """Map server domains onto processes: ``shards`` is the total number
    of concurrently simulating processes, the calling process (root
    domain) included."""
    n_workers = min(max(0, shards - 1), len(domains))
    if n_workers > 0:
        import multiprocessing

        if multiprocessing.current_process().daemon:
            # Pool workers may not spawn children; in-process sharding is
            # bit-identical, just without the extra parallelism.
            logger.info(
                "sharded run inside a daemonic worker: hosting all %d "
                "server domains in-process", len(domains)
            )
        else:
            from repro.parallel.shardpool import ProcessDomainGroup

            return ProcessDomainGroup(config, domains, sample_interval,
                                      n_workers)
    return LocalDomainGroup(config, domains, sample_interval)


def execute_run_sharded(
    target: Workload,
    interference: "list[InterferenceSpec]",
    config: "ExperimentConfig",
    seed_salt: str = "",
    abort_at: float | None = None,
    shards: int = 1,
    window_policy: "WindowPolicy | str | None" = None,
) -> MonitoredRun:
    """Sharded counterpart of :func:`repro.experiments.runner.execute_run`.

    Produces a :class:`MonitoredRun` whose records, samples and derived
    vectors are bit-identical for every ``shards`` value *and* every
    ``window_policy``; both only choose how the executor schedules the
    same simulation (processes hosting domains, barriers per sim-second).
    """
    wall_start = time.perf_counter()
    if abort_at is not None and abort_at <= 0:
        raise ValueError(f"abort_at must be positive, got {abort_at}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    policy = WindowPolicy.resolve(window_policy)
    cfg = config.cluster
    lookahead = cfg.client.rpc_latency
    if lookahead <= 0:
        raise ValueError(
            "sharded execution needs rpc_latency > 0: the per-RPC latency "
            "is the conservative protocol's lookahead"
        )
    if lookahead >= config.sample_interval:
        raise ValueError(
            "sharded execution needs rpc_latency < sample_interval "
            f"({lookahead} >= {config.sample_interval})"
        )
    if policy.cap is not None and policy.cap >= config.sample_interval:
        raise ValueError(
            "adaptive window cap must be < sample_interval "
            f"({policy.cap} >= {config.sample_interval}): domain monitors "
            "tick every sample_interval, so wider spans are never provable"
        )
    logger.info(
        "execute_run_sharded: target=%s noise=%s seed=%d shards=%d "
        "domains=%d policy=%s", target.name,
        [spec.task for spec in interference] or "none", config.seed,
        shards, cfg.n_domains, policy.mode,
    )

    windows_counter = REGISTRY.counter("shard.windows")
    messages_counter = REGISTRY.counter("shard.messages")
    completions_counter = REGISTRY.counter("shard.completions")
    widened_counter = REGISTRY.counter("shard.windows_widened")
    elided_counter = REGISTRY.counter("shard.windows_elided")
    window_hist = REGISTRY.histogram("shard.window_wall_seconds")
    sim_hist = REGISTRY.histogram("shard.window_sim_seconds")

    cluster = ShardedRootCluster(cfg)
    router = cluster.router
    env = cluster.env
    monitor = ServerMonitor(
        _DomainView(cluster, [cluster.mds.server_id]),
        sample_interval=config.sample_interval,
    )
    monitor.start()
    group = _make_group(cfg, list(range(cfg.n_domains)),
                        config.sample_interval, shards)
    try:
        with _profile.phase("shard-run", target=target.name, shards=shards):
            noise_nodes = list(config.noise_nodes) or list(config.target_nodes)
            for spec_idx, spec in enumerate(interference):
                for copy in range(spec.instances):
                    workload = spec.build(copy)
                    workload.name = f"{workload.name}-{spec_idx}"
                    seed = derive_seed(config.seed, "noise", seed_salt,
                                       spec_idx, copy)
                    launch_interference(cluster, workload, noise_nodes, seed,
                                        record=False)

            t_done: list[float] = []
            adaptive = policy.adaptive
            cap = (policy.cap if policy.cap is not None
                   else config.sample_interval)
            single_domain = cfg.n_domains == 1
            # Messages injected into each domain but not yet completed
            # (the guarded round's activity set: only these domains can
            # produce a completion, everything else may safely lag).
            in_service = [0] * cfg.n_domains
            busy = 0

            def _take(end: float, inclusive: bool):
                nonlocal busy
                outbox, new_jobs = router.take_outbox(end, inclusive)
                for domain, batch in outbox.items():
                    k = len(batch.token)
                    in_service[domain] += k
                    busy += k
                return outbox, new_jobs

            def _deliver(results) -> int:
                nonlocal busy
                if single_domain:
                    # One domain's completions are already time-ordered
                    # (appended as its clock advances, heap ties resolved
                    # by its own sequence numbers): skip the merge sort.
                    merged = [(when, 0, token)
                              for _domain, comps in results
                              for token, when in comps]
                else:
                    merged = [
                        (when, domain, token)
                        for domain, comps in results
                        for token, when in comps
                    ]
                    merged.sort(key=lambda row: (row[0], row[1]))
                for when, domain, token in merged:
                    router.deliver(token, when)
                    in_service[domain] -= 1
                busy -= len(merged)
                return len(merged)

            def _window(end: float, inclusive: bool) -> None:
                t0 = time.perf_counter()
                begin = env.now
                if router.pending:
                    outbox, new_jobs = _take(end, inclusive)
                else:
                    # Nothing posted since the last take: the outbox scan
                    # and the (always-empty) new-jobs drain are no-ops.
                    outbox, new_jobs = {}, []
                results = group.run_window(end, inclusive, outbox, new_jobs)
                delivered = _deliver(results)
                env.run_to(end, _trace.TRACER, inclusive)
                windows_counter.inc()
                if outbox:
                    messages_counter.inc(
                        sum(len(b) for b in outbox.values()))
                completions_counter.inc(delivered)
                window_hist.observe(time.perf_counter() - t0)
                sim_hist.observe(end - begin)

            def _frontier() -> float:
                return min(env.peek(), group.next_time, router.min_effect())

            def _run_root_quiet(stop: float) -> float:
                """Run the root alone through ``[now, stop)`` under the
                first-post guard: a message posted at ``t`` shrinks the
                safe horizon to its effect ``t + λ`` (later posts have
                later effects, so one shrink suffices).  Returns the
                actual end reached."""
                queue = env._queue
                step = env._step
                tracer = _trace.TRACER
                posted = router.messages_posted
                while queue and queue[0][0] < stop:
                    step(queue, tracer)
                    if router.messages_posted != posted:
                        posted = router.messages_posted
                        eff = router.min_effect()
                        if eff < stop:
                            stop = eff
                return stop

            def _try_widen(frontier: float, bound: float | None) -> bool:
                """Attempt a widened root-only span from ``frontier``.

                Safe ⟺ the outbox is empty (no undelivered effect; and
                because effects are monotone in post order, a pending
                message always pins the frontier within ``λ`` of its
                effect) and every domain's horizon clears the span.  Only
                spans strictly wider than one fixed window are worth the
                attempt; a span never crosses ``bound`` (the run deadline
                or a pump boundary).
                """
                if not adaptive or router.pending:
                    return False
                horizon = min(group.next_time, frontier + cap)
                if bound is not None and horizon > bound:
                    horizon = bound
                if horizon <= frontier + lookahead:
                    return False
                actual = _run_root_quiet(horizon)
                widened_counter.inc()
                span = actual - frontier
                elided_counter.inc(max(0, math.ceil(span / lookahead) - 1))
                sim_hist.observe(span)
                if policy.audit is not None:
                    policy.audit.append({
                        "kind": "root",
                        "begin": frontier,
                        "planned": horizon,
                        "end": actual,
                        "min_effect": router.min_effect(),
                        "domain_next": group.next_time,
                        "root_next": env.peek(),
                    })
                return True

            def _try_guarded(frontier: float, bound: float | None) -> bool:
                """Attempt a guarded domain-ahead round from ``frontier``.

                When domain activity (not the root) paces the run, the
                group may advance many λ-sub-windows in one coordinator
                round: with the outbox drained below ``stop`` and the
                root frozen, new root posts can only take effect at
                ``env.peek() + λ`` or later, and the round's internal
                first-completion guard stops the lockstep within ``λ``
                of any completion — so every cross-domain effect still
                lands at or after the reached end.  The round then
                delivers and runs the root once, exactly as a fixed
                window would.
                """
                if not adaptive or (busy == 0 and not router.pending):
                    return False
                stop = min(env.peek() + lookahead, frontier + cap)
                if bound is not None and stop > bound:
                    stop = bound
                if stop <= frontier + lookahead:
                    return False
                if single_domain:
                    # One domain group: the activity set is constant and
                    # a single guard is trivially global — skip the set
                    # construction and the feasibility probe outright.
                    active = _SINGLE_DOMAIN
                else:
                    active = {d for d in range(cfg.n_domains)
                              if in_service[d]}
                    active.update(router.outbox_domains())
                    if not group.guarded_feasible(active):
                        return False
                t0 = time.perf_counter()
                if router.pending:
                    outbox, new_jobs = _take(stop, False)
                else:
                    outbox, new_jobs = {}, []
                results, reached, sub = group.run_guarded(
                    stop, lookahead, outbox, new_jobs, active)
                delivered = _deliver(results)
                if sub == 0 and delivered == 0 and not outbox:
                    # Every active horizon already cleared ``stop`` and
                    # nothing moved: an inactive host's event is pacing
                    # the frontier.  Fall through to a fixed window so
                    # it fires and the frontier advances.
                    return False
                env.run_to(reached, _trace.TRACER, False)
                windows_counter.inc()
                widened_counter.inc()
                elided_counter.inc(max(0, sub - 1))
                if outbox:
                    messages_counter.inc(
                        sum(len(b) for b in outbox.values()))
                completions_counter.inc(delivered)
                window_hist.observe(time.perf_counter() - t0)
                sim_hist.observe(reached - frontier)
                if policy.audit is not None:
                    policy.audit.append({
                        "kind": "guarded",
                        "begin": frontier,
                        "planned": stop,
                        "end": reached,
                        "subwindows": sub,
                        "completions": delivered,
                        "min_effect": router.min_effect(),
                        "domain_next": group.next_time,
                        "root_next": env.peek(),
                    })
                return True

            def _pump_to(boundary: float) -> None:
                """Advance every domain until nothing is pending before
                ``boundary`` (events at exactly ``boundary`` stay)."""
                while True:
                    frontier = _frontier()
                    if frontier >= boundary:
                        return
                    if frontier == _INF:
                        raise SimulationError(
                            "sharded run drained before reaching "
                            f"t={boundary}"
                        )
                    if _try_widen(frontier, boundary):
                        continue
                    if _try_guarded(frontier, boundary):
                        continue
                    _window(min(frontier + lookahead, boundary),
                            inclusive=False)

            if interference and config.warmup > 0:
                _pump_to(config.warmup)
                _window(config.warmup, inclusive=True)
                env.now = max(env.now, config.warmup)

            target_seed = derive_seed(config.seed, "target", target.name)
            handle = launch(cluster, target, list(config.target_nodes),
                            target_seed)
            handle.done.callbacks.append(lambda _ev: t_done.append(env.now))

            deadline = (abort_at + config.sample_interval
                        if abort_at is not None else None)
            while True:
                if deadline is None and t_done:
                    deadline = t_done[0] + config.sample_interval
                frontier = _frontier()
                if frontier == _INF:
                    raise SimulationError(
                        "event loop drained before the target completed"
                    )
                if _try_widen(frontier, deadline):
                    continue
                if _try_guarded(frontier, deadline):
                    continue
                end = frontier + lookahead
                if deadline is not None and end >= deadline:
                    _pump_to(deadline)
                    _window(deadline, inclusive=True)
                    break
                _window(end, inclusive=False)

            aborted = abort_at is not None and (
                not t_done or t_done[0] > abort_at
            )
            if aborted:
                logger.warning("run %s aborted at t=%.3fs (fault injection)",
                               target.name, abort_at)
            duration = deadline
            env.now = max(env.now, duration)

            finish = group.finish()
            order = {sid: i for i, sid in enumerate(cluster.servers)}
            rows = [row for row in finish["samples"] + monitor.samples
                    if row[0] <= duration]
            rows.sort(key=lambda row: (row[0], order[row[1]]))
            REGISTRY.gauge("shard.events_scheduled").set(
                env._seq + finish["events"])
    finally:
        group.close()

    run = MonitoredRun(
        job=target.name,
        records=cluster.collector.records,
        server_samples=rows,
        servers=cluster.servers,
        duration=duration,
        metadata={
            "interference": [spec.task for spec in interference],
            "instances": sum(spec.instances for spec in interference),
            "warmup": config.warmup if interference else 0.0,
            "seed": config.seed,
            "target_nodes": list(config.target_nodes),
            "window_size": config.window_size,
            "sample_interval": config.sample_interval,
            "sharded": True,
            **({"aborted": True, "abort_at": abort_at} if aborted else {}),
        },
    )
    logger.info(
        "execute_run_sharded done: %s finished at t=%.3fs sim (%d records, "
        "%d samples, %d messages, %.2fs wall)",
        target.name, run.duration, len(run.records),
        len(run.server_samples), router.messages_posted,
        time.perf_counter() - wall_start,
    )
    return run
