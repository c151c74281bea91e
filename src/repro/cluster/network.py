"""Alpha-beta network cost model for the simulated cluster.

Transfers are priced with the classic alpha-beta model from the collective
communication literature (Thakur et al., the paper's reference [16]):

    seconds(b bytes) = alpha + b / bandwidth

``alpha`` is the per-message latency (network round-trip + serialization
setup) and ``bandwidth`` is the point-to-point link bandwidth in bytes per
second.

Two details matter for reproducing the paper's bottleneck analysis:

* **Ingress serialization.**  A node receiving messages from many peers
  receives them one after another — the driver's downlink is a single
  shared link.  :meth:`NetworkModel.fan_in_seconds` prices an m-way fan-in
  as the *sum* of the transfers (plus one latency per message).  This is
  bottleneck B2: with k executors pushing gradients of size m, the driver
  pays k transfers back to back.
* **Concurrent pairwise exchange.**  In a shuffle (and therefore in
  Reduce-Scatter / AllGather), *every* node sends and receives
  simultaneously on its own links, so a balanced round costs what the
  busiest node pays, not the sum over nodes
  (:meth:`repro.engine.ShuffleModel.round_seconds`) — this is why
  removing the driver from the data path shortens latency even though
  total traffic is unchanged (Section IV-B2's ``2 k m`` invariant).

:class:`TieredNetworkModel` adds the second rung of the aggregation
ladder (Snap ML's hierarchical scheme): executors co-located on one
machine talk over a shared-memory/NVLink-class *intra-node* tier that is
far faster than the cross-node fabric, so a two-tier collective can
combine locally first and put only one message per machine on the slow
tier.  The intra tier is priced by :meth:`intra_transfer_seconds`
(the base :class:`NetworkModel` degenerates it to the single cross-node
tier, so flat clusters are unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NetworkModel", "TieredNetworkModel", "GIGABIT", "TEN_GIGABIT"]

GIGABIT = 1.0e9 / 8.0  # bytes/second on a 1 Gbps link
TEN_GIGABIT = 1.0e10 / 8.0  # bytes/second on a 10 Gbps link


@dataclass(frozen=True)
class NetworkModel:
    """Prices point-to-point and collective transfers in simulated seconds.

    Parameters
    ----------
    bandwidth:
        Point-to-point bandwidth in bytes/second.
    alpha:
        Per-message latency in seconds.
    bytes_per_value:
        Wire size of one model/gradient coordinate.  Spark ships doubles
        (8 bytes); serialization overhead can be folded in here.
    """

    bandwidth: float = GIGABIT
    alpha: float = 1.0e-3
    bytes_per_value: float = 8.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.bytes_per_value <= 0:
            raise ValueError("bytes_per_value must be positive")

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def transfer_seconds(self, values: float) -> float:
        """Cost of one point-to-point message of ``values`` coordinates."""
        if values < 0:
            raise ValueError("cannot transfer a negative number of values")
        if values == 0:
            return 0.0
        return self.alpha + values * self.bytes_per_value / self.bandwidth

    # ------------------------------------------------------------------
    # aggregate patterns
    # ------------------------------------------------------------------
    def fan_in_seconds(self, senders: int, values_each: float) -> float:
        """Cost of ``senders`` nodes each pushing a message to ONE receiver.

        The receiver's downlink serializes the transfers, so the cost is the
        sum of the individual messages.  This is the driver-side pattern of
        MLlib's SendGradient (and of the root of ``treeAggregate``).
        """
        if senders < 0:
            raise ValueError("senders must be non-negative")
        return senders * self.transfer_seconds(values_each)

    def fan_in_varied_seconds(self, values_by_message: tuple[float, ...] | list[float]) -> float:
        """Cost of a fan-in whose messages differ in size.

        Same serialized-downlink pattern as :meth:`fan_in_seconds`, but
        each message is priced individually — the shape sparse payloads
        produce, where every sender ships its own support.  Equal-sized
        messages give ``fan_in_seconds(len(values), size)`` up to float
        rounding: a running sum of n equal terms need not be bit-equal
        to n times the term.

        An *empty* message list is rejected: a fan-in with no senders is
        a caller bug (a singleton aggregation group or a one-executor
        shuffle has no ingress and must not price one), and silently
        returning 0.0 used to mask exactly that confusion.
        """
        if len(values_by_message) == 0:
            raise ValueError(
                "fan_in_varied_seconds needs at least one message; a "
                "fan-in with no senders is not a fan-in — handle the "
                "zero-sender case at the call site")
        total = 0.0
        for values in values_by_message:
            total += self.transfer_seconds(values)
        return total

    # ------------------------------------------------------------------
    # intra-node tier (degenerate in the flat model)
    # ------------------------------------------------------------------
    def intra_transfer_seconds(self, values: float) -> float:
        """Cost of one message between executors on the *same* machine.

        The flat model has no second tier: intra-node transfers cost the
        same as cross-node ones, so a hierarchical collective run on a
        flat cluster prices identically to the flat collective.
        :class:`TieredNetworkModel` overrides this with the fast tier.
        """
        return self.transfer_seconds(values)


@dataclass(frozen=True)
class TieredNetworkModel(NetworkModel):
    """Two-tier network: fast intra-node links under the cross-node fabric.

    Models the placement-aware topology of Snap ML's hierarchical scheme
    (and of any rack with multi-executor machines): executors sharing a
    machine exchange data over shared memory / a local bus at
    ``intra_bandwidth`` with per-message latency ``intra_alpha``, while
    messages between machines pay the inherited cross-node ``bandwidth``
    and ``alpha``.

    The intra tier must be at least as fast as the cross tier
    (``intra_bandwidth >= bandwidth``) — a "shared-memory" tier slower
    than the network would silently invert every two-tier cost comparison.
    """

    #: Intra-node link bandwidth in bytes/second (default ~100 Gbps, a
    #: conservative shared-memory/NVLink-class figure).
    intra_bandwidth: float = 1.25e10
    #: Intra-node per-message latency in seconds.
    intra_alpha: float = 5.0e-6

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.intra_bandwidth <= 0:
            raise ValueError("intra_bandwidth must be positive")
        if self.intra_bandwidth < self.bandwidth:
            raise ValueError(
                f"intra-node bandwidth ({self.intra_bandwidth:g} B/s) must "
                f"be at least the cross-node bandwidth "
                f"({self.bandwidth:g} B/s): a shared-memory tier slower "
                "than the network fabric is not a tier")
        if self.intra_alpha < 0:
            raise ValueError("intra_alpha must be non-negative")

    def intra_transfer_seconds(self, values: float) -> float:
        """Cost of one same-machine message over the fast tier."""
        if values < 0:
            raise ValueError("cannot transfer a negative number of values")
        if values == 0:
            return 0.0
        return (self.intra_alpha
                + values * self.bytes_per_value / self.intra_bandwidth)
