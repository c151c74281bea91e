"""In-network aggregation: a SwitchML-style switch with bounded pool slots.

The top rung of the aggregation ladder (SwitchML, Sapio et al.): a
programmable switch on the executors' fabric aggregates *dense* payloads
at line rate.  Every executor streams its full vector up in fixed-size
chunks; the switch adds corresponding chunks in its register pool and
multicasts completed results down.  Two properties shape the cost model:

* **Line rate, one alpha per round.**  All ``k`` uplinks stream
  concurrently, so a phase costs one endpoint's transfer — not ``k - 1``
  separate messages.  The per-message latency is paid once per *slot
  round* rather than once per peer, which is where the switch beats both
  the flat shuffle (``(k-1) alpha``) and the hierarchical scheme
  (``(n-1) alpha``) when the model is latency-dominated.
* **Bounded slot pool.**  The switch holds ``pool_slots`` in-flight
  chunks of ``chunk_values`` values.  A vector needing more chunks than
  slots streams in multiple rounds, *stalling* at each pool drain — an
  extra alpha per round (:func:`switch_stream_seconds`).  Slot exhaustion
  stretches simulated seconds only; it never touches the numerics (the
  invariant ``tests/test_topology_collectives.py`` pins).

**Sparse fallback.**  A switch adds fixed-position registers: it cannot
aggregate index/value payloads.  When the sparse wire format is enabled
and strictly cheaper for the phase (the SparCML break-even: sparse wire
volume ``< `` dense volume, ties stay dense — and therefore stay on the
switch), the collective deterministically *falls back to host
aggregation* and prices exactly as the flat sparse path; ``mode='on'``
always falls back (the user forced a wire format the switch cannot
carry).  :func:`switch_wire` is that rule.  The fallback decision
changes pricing only — the arrays are bit-identical either way, because
every topology runs the same flat combine kernels.

Determinism: chunk/round arithmetic is integer; no set iteration
anywhere (rule DET002 applies to this module).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.network import NetworkModel
from ..engine.plan import Lane, PhasePlan, PhaseRequest, compression_ratio
from .sparse import CommStats, SupportMask, TreeWire

__all__ = ["SwitchWire", "switch_stream_seconds", "switch_rounds",
           "switch_wire"]


def switch_rounds(values: float, chunk_values: int, pool_slots: int) -> int:
    """Slot rounds needed to stream ``values`` through the switch pool.

    ``ceil(ceil(values / chunk) / slots)``: the vector is cut into
    chunks, and at most ``pool_slots`` chunks are in flight per round.
    Zero values need zero rounds.
    """
    if chunk_values < 1:
        raise ValueError("chunk_values must be at least 1")
    if pool_slots < 1:
        raise ValueError("pool_slots must be at least 1")
    if values < 0:
        raise ValueError("cannot stream a negative number of values")
    if values == 0:
        return 0
    chunks = -(-int(values) // chunk_values)
    return -(-chunks // pool_slots)


def switch_stream_seconds(net: NetworkModel, values: float,
                          chunk_values: int, pool_slots: int) -> float:
    """Cost of one endpoint streaming ``values`` through the switch.

    Line-rate bandwidth plus one latency per slot round: the first alpha
    covers the stream setup, and every pool drain beyond it stalls the
    stream for one more alpha.  With a pool large enough for the whole
    vector this is exactly ``transfer_seconds(values)``.
    """
    rounds = switch_rounds(values, chunk_values, pool_slots)
    if rounds == 0:
        return 0.0
    return (rounds * net.alpha
            + values * net.bytes_per_value / net.bandwidth)


@dataclass(frozen=True)
class SwitchWire:
    """Wire accounting of one in-network collective phase.

    ``values_per_link`` is what each of the ``num_senders`` endpoints
    streams on its own link (up in Reduce-Scatter / the tree fan-in,
    down in AllGather) — always dense: the switch carries raw vectors.
    When ``fallback`` is set the switch was bypassed for this phase; the
    engine prices the wrapped host-aggregation stats instead and the
    slot pool never enters the picture.
    """

    phase: str
    model_size: int
    num_senders: int
    pool_slots: int
    chunk_values: int
    values_per_link: float
    #: Tree fan-in only: task-wave messages per executor.
    messages_per_executor: int = 1
    #: Host-aggregation pricing when the sparse break-even bypassed the
    #: switch (a :class:`CommStats` for RS/AG, a :class:`TreeWire` for
    #: the tree fan-in); ``None`` means the switch carried the phase.
    fallback: "CommStats | TreeWire | None" = None

    def __post_init__(self) -> None:
        if self.phase not in ("reduce_scatter", "all_gather",
                              "tree_aggregate"):
            raise ValueError(f"unknown switch phase {self.phase!r}")
        if self.num_senders < 1:
            raise ValueError("need at least one sender")
        if self.values_per_link < 0:
            raise ValueError("values_per_link must be non-negative")
        # Validate the pool geometry eagerly.
        switch_rounds(self.values_per_link, self.chunk_values,
                      self.pool_slots)
        if (self.fallback is not None
                and self.fallback.num_senders != self.num_senders):
            raise ValueError(
                f"fallback wire prices {self.fallback.num_senders} "
                f"senders, the switch wire {self.num_senders}")

    # ------------------------------------------------------------------
    @property
    def wire_values(self) -> float:
        if self.fallback is not None:
            return self.fallback.wire_values
        total = self.num_senders * self.values_per_link
        if self.phase == "tree_aggregate":
            total += float(self.model_size)  # switch -> driver result
        return total

    @property
    def dense_values(self) -> float:
        if self.fallback is not None:
            return self.fallback.dense_values
        return self.wire_values  # the switch carries raw vectors

    compression = property(compression_ratio)

    # ------------------------------------------------------------------
    def phase_plan(self, request: PhaseRequest) -> PhasePlan:
        """Plan this wire's phase for :class:`~repro.engine.BspEngine`.

        Every link streams through the switch concurrently at line
        rate; the switch folds chunks in its slot pool, so combine
        compute is absorbed and slot exhaustion only adds one latency
        per extra round.  A crashed executor redoes its local work and
        re-streams.  The tree fan-in then ships the one aggregated
        vector to the driver.  A wire whose sparse fallback fired
        prices as the host-aggregation wire it wraps.
        """
        if self.fallback is not None:
            return self.fallback.phase_plan(request)
        cluster, m = request.cluster, request.model_size
        net = cluster.network
        stream = switch_stream_seconds(net, self.values_per_link,
                                       self.chunk_values, self.pool_slots)
        up = request.phase != "all_gather"
        lane: Lane = ((stream, "send" if up else "recv",
                       self.values_per_link),)
        lanes = [lane] * self.num_senders
        if request.phase == "tree_aggregate":
            driver_ingress = net.transfer_seconds(m)
            return request.fan_in_plan(
                lanes, request.start + stream, [True] * len(lanes),
                driver_ingress + cluster.compute.dense_op_seconds(
                    m, cluster.driver),
                self.dense_values, self.wire_values,
                stream + driver_ingress)
        return PhasePlan(
            lanes=tuple(lanes),
            retry_lanes=tuple(request.redo_lane(i) + lane
                              for i in range(len(lanes))),
            comm=(self.dense_values, self.wire_values, stream,
                  request.dense_round_seconds()))


def switch_wire(phase: str, support: SupportMask, num_senders: int,
                host: "CommStats | TreeWire | None", pool_slots: int,
                chunk_values: int, mpe: int = 1) -> SwitchWire:
    """The switch's dense wire for ``phase``, and the deterministic sparse
    bypass rule (the tested contract).

    Every link streams ``mpe`` dense vectors of ``support.size`` values
    (one outside the tree fan-in).  ``host`` prices the same phase as
    flat host aggregation, sized from the same ``support``.  Under the
    *support's* ``mode``: ``'on'`` always leaves the switch (it cannot
    carry the forced format); otherwise the phase falls back iff
    ``host`` is *strictly* cheaper — the SparCML break-even, so
    ``2 * nnz == m`` ties stay in-network, as does everything under
    ``'off'`` (no host sizing: ``host`` is ``None``).  A dense vector
    (an ``'off'`` support) therefore never falls back, whatever the
    session's ``--sparse-comm``.
    """
    bypass = host is not None and (
        support.mode == "on" or host.wire_values < host.dense_values)
    return SwitchWire(
        phase=phase, model_size=support.size, num_senders=num_senders,
        pool_slots=pool_slots, chunk_values=chunk_values,
        values_per_link=float(support.size) * mpe,
        messages_per_executor=mpe, fallback=host if bypass else None)
