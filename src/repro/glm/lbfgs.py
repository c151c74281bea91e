"""L-BFGS: the second-order optimizer behind ``spark.ml`` (paper §VII).

The paper's conclusion raises an open question: Spark's second-generation
``spark.ml`` library trains GLMs with L-BFGS [27] instead of MGD — can the
same communication techniques (AllReduce instead of the driver round-trip)
speed it up too?  The ``repro.core.spark_ml`` trainers explore exactly
that; this module supplies the optimizer.

Two entry points:

* :class:`LbfgsState` — the incremental interface distributed trainers
  drive: ``direction(grad)`` runs the two-loop recursion over the stored
  curvature pairs, ``push(s, y)`` records a new pair.  The trainer owns
  the outer loop so it can charge simulated time to each distributed
  function/gradient evaluation.
* :func:`minimize` — a standalone batch driver with the strong-Wolfe
  line search, used by the unit tests against analytic problems.

Only smooth objectives should be optimized (logistic or squared loss, or
hinge + L2 where the subgradient is well-behaved away from kinks);
``spark.ml``'s linear SVM uses smoothed variants for the same reason.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["LbfgsState", "WolfeResult", "wolfe_line_search", "minimize",
           "MinimizeResult"]

#: Curvature pairs with s.y below this are discarded (preserves positive
#: definiteness of the implicit Hessian approximation).
CURVATURE_EPS = 1.0e-10


class LbfgsState:
    """Limited-memory BFGS curvature history + two-loop recursion."""

    def __init__(self, memory: int = 10) -> None:
        if memory < 1:
            raise ValueError("memory must be at least 1")
        self.memory = memory
        self._s: deque[np.ndarray] = deque(maxlen=memory)
        self._y: deque[np.ndarray] = deque(maxlen=memory)
        self._rho: deque[float] = deque(maxlen=memory)

    def __len__(self) -> int:
        return len(self._s)

    def push(self, s: np.ndarray, y: np.ndarray) -> bool:
        """Record a step/gradient-difference pair.

        Returns False (and stores nothing) when the curvature ``s . y`` is
        too small to keep the approximation positive definite.
        """
        sy = float(np.dot(s, y))
        if sy <= CURVATURE_EPS:
            return False
        self._s.append(np.array(s, copy=True))
        self._y.append(np.array(y, copy=True))
        self._rho.append(1.0 / sy)
        return True

    def direction(self, grad: np.ndarray) -> np.ndarray:
        """Two-loop recursion: the descent direction ``-H_k grad``."""
        q = np.array(grad, copy=True)
        if not self._s:
            return -q
        alphas = []
        for s, y, rho in zip(reversed(self._s), reversed(self._y),
                             reversed(self._rho)):
            alpha = rho * np.dot(s, q)
            q -= alpha * y
            alphas.append(alpha)
        # Initial Hessian scaling (Nocedal & Wright eq. 7.20).
        s_last, y_last = self._s[-1], self._y[-1]
        gamma = float(np.dot(s_last, y_last) / np.dot(y_last, y_last))
        q *= gamma
        for (s, y, rho), alpha in zip(zip(self._s, self._y, self._rho),
                                      reversed(alphas)):
            beta = rho * np.dot(y, q)
            q += (alpha - beta) * s
        return -q


@dataclass(frozen=True)
class WolfeResult:
    """Outcome of a strong-Wolfe line search.

    When ``success`` is True, ``fval`` and ``grad`` are the objective and
    gradient at the accepted point ``w + step * direction`` — callers can
    reuse them and skip one full evaluation.
    """

    step: float
    fval: float
    grad: np.ndarray | None
    evaluations: int
    success: bool


def wolfe_line_search(fg: Callable[[np.ndarray],
                                   tuple[float, np.ndarray]],
                      w: np.ndarray, direction: np.ndarray, fval: float,
                      grad: np.ndarray, max_evals: int = 20) -> WolfeResult:
    """Strong Wolfe line search (Nocedal & Wright, Algorithms 3.5/3.6).

    Unlike Armijo backtracking, the curvature condition guarantees
    ``s . y > 0`` for the accepted step, which keeps the L-BFGS Hessian
    approximation positive definite — this is what spark.ml's optimizer
    (breeze ``StrongWolfeLineSearch``) uses, with its sufficient-decrease
    ``c1 = 1e-4`` and curvature ``c2 = 0.9``; steps grow up to ``1e3``.
    Each trial evaluates both the objective and the gradient;
    distributed callers charge a full pass per trial.
    """
    c1, c2, max_step = 1.0e-4, 0.9, 1.0e3
    dphi0 = float(np.dot(grad, direction))
    if dphi0 >= 0:
        return WolfeResult(step=0.0, fval=fval, grad=None, evaluations=0,
                           success=False)
    evals = 0

    def phi(alpha: float) -> tuple[float, np.ndarray, float]:
        nonlocal evals
        evals += 1
        value, gradient = fg(w + alpha * direction)
        return value, gradient, float(np.dot(gradient, direction))

    def zoom(lo: float, phi_lo: float, hi: float) -> WolfeResult:
        """Bisection zoom between a low (good) and high bound."""
        while evals < max_evals:
            alpha = 0.5 * (lo + hi)
            value, gradient, slope = phi(alpha)
            if value > fval + c1 * alpha * dphi0 or value >= phi_lo:
                hi = alpha
            else:
                if abs(slope) <= -c2 * dphi0:
                    return WolfeResult(step=alpha, fval=value,
                                       grad=gradient, evaluations=evals,
                                       success=True)
                if slope * (hi - lo) >= 0:
                    hi = lo
                lo, phi_lo = alpha, value
        return WolfeResult(step=0.0, fval=fval, grad=None,
                           evaluations=evals, success=False)

    alpha_prev, phi_prev = 0.0, fval
    alpha = 1.0
    first = True
    while evals < max_evals:
        value, gradient, slope = phi(alpha)
        if value > fval + c1 * alpha * dphi0 or (
                not first and value >= phi_prev):
            return zoom(alpha_prev, phi_prev, alpha)
        if abs(slope) <= -c2 * dphi0:
            return WolfeResult(step=alpha, fval=value, grad=gradient,
                               evaluations=evals, success=True)
        if slope >= 0:
            return zoom(alpha, value, alpha_prev)
        alpha_prev, phi_prev = alpha, value
        alpha = min(2.0 * alpha, max_step)
        first = False
        if alpha >= max_step:
            return WolfeResult(step=0.0, fval=fval, grad=None,
                               evaluations=evals, success=False)
    return WolfeResult(step=0.0, fval=fval, grad=None, evaluations=evals,
                       success=False)


@dataclass(frozen=True)
class MinimizeResult:
    """Result of the standalone :func:`minimize` driver."""

    w: np.ndarray
    fval: float
    iterations: int
    converged: bool
    function_evals: int
    gradient_evals: int


def minimize(fg: Callable[[np.ndarray], tuple[float, np.ndarray]],
             w0: np.ndarray, max_iters: int = 100,
             gtol: float = 1.0e-6) -> MinimizeResult:
    """Minimize a smooth function given ``fg(w) -> (f, grad)``."""
    state = LbfgsState()
    w = np.array(w0, dtype=np.float64, copy=True)
    fval, grad = fg(w)
    f_evals = g_evals = 1

    for iteration in range(1, max_iters + 1):
        if float(np.linalg.norm(grad, ord=np.inf)) <= gtol:
            return MinimizeResult(w=w, fval=fval, iterations=iteration - 1,
                                  converged=True, function_evals=f_evals,
                                  gradient_evals=g_evals)
        direction = state.direction(grad)
        search = wolfe_line_search(fg, w, direction, fval, grad)
        f_evals += search.evaluations
        g_evals += search.evaluations
        if not search.success:
            # Restart from steepest descent once; give up if that fails.
            state = LbfgsState()
            direction = -grad
            search = wolfe_line_search(fg, w, direction, fval, grad)
            f_evals += search.evaluations
            g_evals += search.evaluations
            if not search.success:
                break
        new_w = w + search.step * direction
        new_fval, new_grad = search.fval, search.grad
        assert new_grad is not None
        state.push(new_w - w, new_grad - grad)
        w, fval, grad = new_w, new_fval, new_grad

    converged = float(np.linalg.norm(grad, ord=np.inf)) <= gtol
    return MinimizeResult(w=w, fval=fval, iterations=max_iters,
                          converged=converged, function_evals=f_evals,
                          gradient_evals=g_evals)
