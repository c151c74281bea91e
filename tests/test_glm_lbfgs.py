"""Unit tests for repro.glm.lbfgs against analytic problems."""

import numpy as np
import pytest

from repro.glm.lbfgs import LbfgsState, minimize


def quadratic(A, b):
    """f(w) = 0.5 w'Aw - b'w with gradient Aw - b."""
    def fg(w):
        return 0.5 * float(w @ A @ w) - float(b @ w), A @ w - b
    return fg


def rosenbrock(w):
    x, y = w
    f = (1 - x) ** 2 + 100 * (y - x * x) ** 2
    g = np.array([
        -2 * (1 - x) - 400 * x * (y - x * x),
        200 * (y - x * x),
    ])
    return f, g


class TestLbfgsState:
    def test_empty_state_gives_steepest_descent(self):
        state = LbfgsState()
        grad = np.array([1.0, -2.0])
        assert np.allclose(state.direction(grad), -grad)

    def test_push_rejects_negative_curvature(self):
        state = LbfgsState()
        assert not state.push(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        assert len(state) == 0

    def test_push_accepts_positive_curvature(self):
        state = LbfgsState()
        assert state.push(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
        assert len(state) == 1

    def test_memory_bounded(self):
        state = LbfgsState(memory=3)
        for i in range(10):
            state.push(np.array([1.0 + i, 0.0]), np.array([1.0, 0.1 * i]))
        assert len(state) == 3

    def test_direction_is_descent(self):
        """The two-loop direction must satisfy d . grad < 0."""
        rng = np.random.default_rng(0)
        state = LbfgsState(memory=5)
        A = np.diag([1.0, 10.0, 100.0])
        w = rng.normal(size=3)
        for _ in range(5):
            grad = A @ w
            d = state.direction(grad)
            assert float(d @ grad) < 0
            step = 0.1
            new_w = w + step * d
            state.push(new_w - w, A @ new_w - grad)
            w = new_w

    def test_quadratic_direction_approaches_newton(self):
        """After enough updates on a quadratic, the direction is close to
        the Newton step (that is the whole point of BFGS)."""
        A = np.diag([1.0, 50.0])
        b = np.array([1.0, 1.0])
        fg = quadratic(A, b)
        result = minimize(fg, np.zeros(2), max_iters=50)
        assert result.converged
        assert np.allclose(result.w, np.linalg.solve(A, b), atol=1e-4)

    def test_invalid_memory(self):
        with pytest.raises(ValueError):
            LbfgsState(memory=0)


class TestMinimize:
    def test_well_conditioned_quadratic(self):
        A = np.eye(5)
        b = np.arange(1.0, 6.0)
        result = minimize(quadratic(A, b), np.zeros(5))
        assert result.converged
        assert np.allclose(result.w, b, atol=1e-5)

    def test_ill_conditioned_quadratic(self):
        A = np.diag(np.logspace(0, 4, 6))
        b = np.ones(6)
        result = minimize(quadratic(A, b), np.zeros(6), max_iters=200)
        assert result.converged
        assert np.allclose(result.w, np.linalg.solve(A, b), atol=1e-3)

    def test_rosenbrock(self):
        result = minimize(rosenbrock, np.array([-1.2, 1.0]), max_iters=200,
                          gtol=1e-5)
        assert result.converged
        assert np.allclose(result.w, [1.0, 1.0], atol=1e-3)

    def test_converges_much_faster_than_gd_on_ill_conditioned(self):
        """The motivation for spark.ml: second-order info helps."""
        A = np.diag([1.0, 1000.0])
        b = np.ones(2)
        fg = quadratic(A, b)
        result = minimize(fg, np.zeros(2), max_iters=100, gtol=1e-8)
        assert result.converged
        assert result.iterations < 30  # GD would need thousands

    def test_counts_evaluations(self):
        result = minimize(rosenbrock, np.array([0.0, 0.0]), max_iters=50)
        assert result.function_evals >= result.gradient_evals
        assert result.gradient_evals >= 1
