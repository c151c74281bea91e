"""CoCoA-family dual coordinate-ascent local solvers.

The primal problem every trainer minimizes is (paper Equation 1 with L2)

    P(w) = (1/n) sum_i l(x_i . w, y_i) + (lambda/2) ||w||^2 .

Its Fenchel dual assigns one variable ``alpha_i`` per training row:

    D(alpha) = -(1/n) sum_i l*(-alpha_i, y_i) - (lambda/2) ||w(alpha)||^2,
    w(alpha) = (1 / (lambda n)) X^T alpha,

where ``l*`` is the convex conjugate of the loss in its margin argument.
Weak duality makes ``P(w) - D(alpha)`` a *certificate*: it upper-bounds
the primal suboptimality ``P(w) - P(w*)`` for any iterate ``w`` and any
feasible ``alpha``, no tuning or reference run required.

Duenner et al. (1612.01437) show that on Spark the lever that matters is
how much progress the local solver makes *between* communication
barriers, not how models are shipped.  The CoCoA family exploits the
dual's block structure: worker ``k`` owns the dual variables of its
partition's rows and runs ``H`` epochs of SDCA (stochastic dual
coordinate ascent) against a local copy of the shared iterate, then
ships only the induced model *delta*

    delta_w_k = (1 / (lambda n)) X_k^T delta_alpha_k .

The outer aggregation is controlled by ``gamma``:

* **CoCoA** (Jaggi et al.): ``gamma = 1/K`` — deltas are *averaged*;
  safe with the unscaled local subproblem (``sigma' = 1``).
* **CoCoA+** (Ma et al.): ``gamma = 1`` — deltas are *added*; the local
  subproblem's quadratic term is scaled by ``sigma' = gamma * K`` so
  that adding K independent block updates cannot overshoot.

Both workers and the driver apply the *same* ``gamma`` (worker ``k``
commits ``alpha_k + gamma * delta_alpha_k``), so the primal-dual mapping
``w ~ w(alpha)`` is preserved in exact arithmetic for any gamma.

The per-coordinate subproblem (drop constants, delta in the direction of
``alpha_i``) is

    minimize_d  l*(-(alpha_i + d), y_i) + margin_i * d + (q_i / 2) d^2,
    q_i = sigma' ||x_i||^2 / (lambda n),

solved in closed form for hinge / squared hinge / squared loss and by a
safeguarded 1-D Newton iteration for logistic loss.  Every update is a
plain float expression, so the solver is deterministic and — like the
primal epoch solvers — bit-identical across execution backends.

The hot inner loop lives in :func:`repro.glm.kernels.dual_epoch`
(raw-CSR row gather, cached row norms, in-place shared-vector update);
the retained pre-optimization body is
:func:`repro.glm.reference.dual_epoch_reference`, its bit-exact oracle
(``tests/test_glm_dual.py`` compares the two epoch by epoch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .objective import Objective

__all__ = ["DualLoss", "HingeDual", "SquaredHingeDual", "SquaredDual",
           "LogisticDual", "DUAL_LOSSES", "get_dual_loss",
           "DualSolverSpec", "make_dual_spec", "require_dual_capable",
           "dual_local_solve", "certified_gap", "DUAL_SOLVERS"]

#: Solver-family names accepted by ``TrainerConfig.local_solver`` beyond
#: the primal default ``mgd``.
DUAL_SOLVERS = ("cocoa", "cocoa+")

#: Newton iteration cap for the logistic 1-D subproblem.  The iteration
#: is safeguarded (bisection fallback keeps the iterate inside the open
#: domain), converges quadratically, and breaks early once the step
#: stalls — the cap is a determinism-preserving backstop, not a tuning
#: knob.
_LOGISTIC_NEWTON_STEPS = 32

#: Open-interval clamp for the logistic dual variable ``b = alpha * y``:
#: the entropy conjugate's derivative is infinite at 0 and 1, so the
#: optimizer never sits exactly on a boundary.
_LOGISTIC_EPS = 1e-12


class DualLoss:
    """Conjugate ``l*`` and SDCA coordinate update for one loss.

    ``conjugate`` evaluates ``l*(-alpha_i, y_i)`` elementwise (the term
    the dual objective sums); ``delta`` solves the one-dimensional
    subproblem described in the module docstring and returns the change
    to ``alpha_i``.  ``q`` is the coordinate's curvature
    ``sigma' ||x_i||^2 / (lambda n)`` and ``margin`` is ``x_i . u`` at
    the solver's current local iterate.
    """

    name: str = "abstract"

    def conjugate(self, alpha: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def delta(self, margin: float, alpha: float, y: float,
              q: float) -> float:
        raise NotImplementedError


class HingeDual(DualLoss):
    """Hinge: ``l*(-alpha) = -alpha y`` on the box ``alpha y in [0, 1]``.

    The classic SDCA-SVM update: unconstrained optimum
    ``(1 - y margin) / q`` along ``y``, clipped to the box.
    """

    name = "hinge"

    def conjugate(self, alpha: np.ndarray, y: np.ndarray) -> np.ndarray:
        return -alpha * y

    def delta(self, margin: float, alpha: float, y: float,
              q: float) -> float:
        b = alpha * y
        if q > 0.0:
            step = (1.0 - y * margin) / q
        else:
            # Empty row: the dual term grows linearly in b, so push to
            # the upper box corner.
            step = 1.0 - b
        step = min(max(step, -b), 1.0 - b)
        return step * y


class SquaredHingeDual(DualLoss):
    """Squared hinge: ``l*(-alpha) = b^2/2 - b`` for ``b = alpha y >= 0``."""

    name = "squared_hinge"

    def conjugate(self, alpha: np.ndarray, y: np.ndarray) -> np.ndarray:
        b = alpha * y
        return 0.5 * b * b - b

    def delta(self, margin: float, alpha: float, y: float,
              q: float) -> float:
        b = alpha * y
        step = (1.0 - y * margin - b) / (1.0 + q)
        step = max(step, -b)
        return step * y


class SquaredDual(DualLoss):
    """Squared: ``l*(-alpha) = alpha^2/2 - alpha y``, unconstrained."""

    name = "squared"

    def conjugate(self, alpha: np.ndarray, y: np.ndarray) -> np.ndarray:
        return 0.5 * alpha * alpha - alpha * y

    def delta(self, margin: float, alpha: float, y: float,
              q: float) -> float:
        return (y - margin - alpha) / (1.0 + q)


class LogisticDual(DualLoss):
    """Logistic: negative-entropy conjugate on ``b = alpha y in (0, 1)``.

    ``l*(-alpha) = b log b + (1-b) log(1-b)``.  The coordinate
    subproblem has no closed form; :meth:`delta` runs a safeguarded
    Newton iteration on the strictly increasing derivative

        g(b') = log(b' / (1 - b')) + y margin + q (b' - b)

    bracketing the unique root in ``(0, 1)`` and falling back to
    bisection whenever a Newton step leaves the bracket.  The iteration
    is a fixed sequence of float operations — deterministic, so dual
    runs stay bit-identical across backends.
    """

    name = "logistic"

    def conjugate(self, alpha: np.ndarray, y: np.ndarray) -> np.ndarray:
        b = np.clip(alpha * y, 0.0, 1.0)
        out = np.zeros_like(b)
        inner = (b > 0.0) & (b < 1.0)
        bi = b[inner]
        out[inner] = bi * np.log(bi) + (1.0 - bi) * np.log1p(-bi)
        return out

    def delta(self, margin: float, alpha: float, y: float,
              q: float) -> float:
        b = alpha * y
        lo, hi = _LOGISTIC_EPS, 1.0 - _LOGISTIC_EPS
        c = y * margin - q * b
        # g(lo) < 0 < g(hi) always (the log term dominates near the
        # boundaries), so the root is bracketed from the start.
        t = min(max(b, lo), hi)
        for _ in range(_LOGISTIC_NEWTON_STEPS):
            g = np.log(t / (1.0 - t)) + c + q * t
            if g > 0.0:
                hi = t
            else:
                lo = t
            curvature = 1.0 / t + 1.0 / (1.0 - t) + q
            t_new = t - g / curvature
            if not lo < t_new < hi:
                t_new = 0.5 * (lo + hi)
            if abs(t_new - t) <= 1e-16:
                t = t_new
                break
            t = t_new
        return (t - b) * y


DUAL_LOSSES: dict[str, type[DualLoss]] = {
    HingeDual.name: HingeDual,
    SquaredHingeDual.name: SquaredHingeDual,
    SquaredDual.name: SquaredDual,
    LogisticDual.name: LogisticDual,
}


def get_dual_loss(name: str) -> DualLoss:
    """Instantiate the dual (conjugate + update rule) of a loss by name."""
    try:
        return DUAL_LOSSES[name]()
    except KeyError:
        raise KeyError(
            f"loss {name!r} has no implemented conjugate; dual solvers "
            f"support {sorted(DUAL_LOSSES)}") from None


def require_dual_capable(objective: Objective) -> None:
    """Raise ``ValueError`` unless ``objective`` admits the dual solver.

    The CoCoA derivation needs a strongly convex regularizer (L2 with
    ``lambda > 0``) and a loss with an implemented conjugate.
    """
    reg = objective.regularizer
    if reg.name != "l2" or reg.strength <= 0.0:
        raise ValueError(
            "dual local solvers (cocoa/cocoa+) require l2 regularization "
            f"with positive strength; objective is {objective.describe()}")
    if objective.loss.name not in DUAL_LOSSES:
        raise ValueError(
            f"loss {objective.loss.name!r} has no implemented conjugate; "
            f"dual solvers support {sorted(DUAL_LOSSES)}")


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DualSolverSpec:
    """Per-run constants of the CoCoA outer loop.

    ``n_total`` is the *global* row count (the ``n`` in the dual's
    ``1/(lambda n)`` scaling — every worker must use the same one),
    ``epochs`` is the local-iteration budget ``H`` (SDCA passes over the
    worker's dual block per superstep), ``gamma`` the aggregation weight
    applied identically to the shipped deltas and the retained dual
    variables, and ``sigma_prime`` the local subproblem scaling
    (``gamma * K``; 1 for CoCoA averaging, K for CoCoA+ adding).
    """

    n_total: int
    epochs: int
    gamma: float
    sigma_prime: float

    def __post_init__(self) -> None:
        if self.n_total < 1:
            raise ValueError("n_total must be at least 1")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.sigma_prime <= 0.0:
            raise ValueError("sigma_prime must be positive")


def make_dual_spec(solver: str, gamma: float | None, local_iters: int,
                   n_total: int, num_workers: int) -> DualSolverSpec:
    """Resolve config knobs into a :class:`DualSolverSpec`.

    ``gamma=None`` picks the family default — ``1/K`` (averaging) for
    ``cocoa``, ``1`` (adding) for ``cocoa+``.  An explicit gamma
    overrides it; ``sigma' = gamma * K`` keeps the local subproblems
    safe for any choice in ``(0, 1]``.
    """
    if solver not in DUAL_SOLVERS:
        raise ValueError(
            f"unknown dual solver {solver!r}; expected one of "
            f"{list(DUAL_SOLVERS)}")
    if num_workers < 1:
        raise ValueError("need at least one worker")
    if gamma is None:
        gamma = 1.0 / num_workers if solver == "cocoa" else 1.0
    return DualSolverSpec(n_total=n_total, epochs=local_iters, gamma=gamma,
                          sigma_prime=gamma * num_workers)


# ----------------------------------------------------------------------
def dual_local_solve(objective: Objective, w: np.ndarray,
                     X: sp.csr_matrix, y: np.ndarray, alpha: np.ndarray,
                     spec: DualSolverSpec, rng: np.random.Generator):
    """Run ``spec.epochs`` SDCA passes over one worker's dual block.

    Starting from the shared iterate ``w`` and the worker's dual
    variables ``alpha`` (one per local row), performs ``H`` permuted
    epochs of coordinate ascent against a private local copy of ``w``,
    then materializes

    * ``delta_w``  — ``gamma / (lambda n) * X^T delta_alpha``, the
      gamma-scaled model delta to be *summed* across workers, and
    * ``new_alpha`` — ``alpha + gamma * delta_alpha``, the worker's
      committed dual block (same gamma, so the primal-dual mapping is
      preserved).

    Returns ``(delta_w, new_alpha, stats)`` with
    :class:`~repro.glm.local_solvers.LocalStats` sized like the primal
    solvers' (nnz touched twice per visit, one dense pass for the local
    iterate copy and one for the delta materialization).

    Inputs are never mutated — ``w`` may be a read-only shared-memory or
    sanitizer-frozen view.  Epoch permutations are drawn from ``rng``
    here, so the kernel takes each epoch's row ``order`` as an argument.
    """
    from .kernels import dual_epoch, dual_row_norms
    from .local_solvers import LocalStats

    require_dual_capable(objective)
    n = X.shape[0]
    if alpha.shape != (n,):
        raise ValueError(
            f"dual block has shape {alpha.shape}, expected ({n},) to "
            "match the partition's rows")
    lambda_n = objective.regularizer.strength * spec.n_total
    scale = spec.sigma_prime / lambda_n
    dloss = get_dual_loss(objective.loss.name)

    u = np.array(w, dtype=np.float64, copy=True)
    acur = np.array(alpha, dtype=np.float64, copy=True)
    dalpha = np.zeros(n)
    stats = LocalStats(dense_ops=w.shape[0])
    norms = dual_row_norms(X.indptr, X.data, n)
    for _ in range(spec.epochs):
        order = rng.permutation(n)
        nnz, updates = dual_epoch(X.indptr, X.indices, X.data, y, u, acur,
                                  dalpha, order, scale, norms, dloss.delta)
        stats.nnz_processed += nnz
        stats.n_updates += updates
    # One sparse pass + one dense write materialize the shipped delta.
    delta_w = np.asarray(X.T @ dalpha).ravel() / lambda_n
    stats.nnz_processed += 2 * int(X.nnz)
    stats.dense_ops += w.shape[0]
    new_alpha = alpha + spec.gamma * dalpha
    return spec.gamma * delta_w, new_alpha, stats


# ----------------------------------------------------------------------
def certified_gap(objective: Objective, w: np.ndarray, partitions,
                  alphas, dataset) -> tuple[float, float, float]:
    """Duality-gap certificate assembled from per-worker dual blocks.

    Returns ``(gap, primal, dual)`` where ``primal = P(w)`` is evaluated
    on the full dataset (the same value the training history records),
    ``dual = D(alpha)`` is computed from the concatenated blocks via the
    mapping ``w(alpha)`` accumulated in partition order, and
    ``gap = primal - dual >= 0`` by weak duality — a certified upper
    bound on ``P(w) - P(w*)`` regardless of float drift between ``w``
    and ``w(alpha)``.  Monitoring only: costs no simulated time and runs
    in the parent, so it is backend-invariant.
    """
    require_dual_capable(objective)
    if len(partitions) != len(alphas):
        raise ValueError(
            f"{len(alphas)} dual blocks for {len(partitions)} partitions")
    lam = objective.regularizer.strength
    n_total = sum(part.X.shape[0] for part in partitions)
    accum = np.zeros(w.shape[0])
    conjugate_total = 0.0
    for part, alpha in zip(partitions, alphas):
        accum += np.asarray(part.X.T @ alpha).ravel()
        conjugate_total += objective.conjugate_sum(alpha, part.y)
    w_alpha = accum / (lam * n_total)
    dual = objective.dual_value(conjugate_total, n_total, w_alpha)
    primal = objective.value(w, dataset.X, dataset.y)
    return primal - dual, primal, dual
