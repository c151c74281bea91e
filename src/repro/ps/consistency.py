"""Consistency controllers: BSP, SSP and ASP.

Parameter servers decouple workers from each other; a *consistency
controller* decides when a worker's pull must block on its peers
(Section III-B).  We model worker progress with a per-worker clock (number
of completed communication steps) and expose the admission rule:

* **BSP**  — a worker may start step ``t`` only when every worker finished
  step ``t - 1`` (maximum staleness 0);
* **SSP**  — a worker may run ahead of the slowest peer by at most
  ``staleness`` steps (Ho et al., the paper's reference [13]);
* **ASP**  — never blocks.

In the simulated timeline, blocking means the worker's next step starts at
the time the admission rule is first satisfied; :meth:`Controller.release_time`
computes that instant from the peers' finish times.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Controller", "BSP", "SSP", "ASP"]


class Controller:
    """Interface: when may worker ``r`` start step ``t``?"""

    name: str = "abstract"

    def max_lead(self) -> int | None:
        """How many steps a worker may lead the slowest peer; None = no bound."""
        raise NotImplementedError

    def release_time(self, t: int, own_ready: float,
                     peer_finish_times: list[list[float]]) -> float:
        """Earliest simulated time worker may start step ``t`` (0-based).

        ``own_ready`` is when the worker itself finished its previous step;
        ``peer_finish_times[r][s]`` is when peer ``r`` finished step ``s``
        (lists may be shorter than ``t`` for lagging peers).
        """
        lead = self.max_lead()
        if lead is None:
            return own_ready
        # The worker may start step t once every peer has finished step
        # t - lead - 1 (i.e. no peer is more than `lead` steps behind).
        required = t - lead - 1
        if required < 0:
            return own_ready
        release = own_ready
        for finishes in peer_finish_times:
            if len(finishes) <= required:
                raise ValueError(
                    "peer has not reached the required step; advance peers "
                    "in simulated-time order")
            release = max(release, finishes[required])
        return release


@dataclass(frozen=True)
class BSP(Controller):
    """Bulk Synchronous Parallel: staleness 0."""

    name = "bsp"

    def max_lead(self) -> int:
        return 0


@dataclass(frozen=True)
class SSP(Controller):
    """Stale Synchronous Parallel with bounded staleness."""

    staleness: int = 2
    name = "ssp"

    def __post_init__(self) -> None:
        if self.staleness < 0:
            raise ValueError("staleness must be non-negative")

    def max_lead(self) -> int:
        return self.staleness


@dataclass(frozen=True)
class ASP(Controller):
    """Asynchronous Parallel: workers never block."""

    name = "asp"

    def max_lead(self) -> None:
        return None
