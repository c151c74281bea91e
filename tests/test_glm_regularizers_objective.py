"""Unit tests for repro.glm.regularizers and repro.glm.objective."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data import SyntheticSpec, generate
from repro.glm import L2Regularizer, NoRegularizer, Objective, get_regularizer


class TestRegularizers:
    def test_none_is_zero(self):
        reg = NoRegularizer()
        w = np.array([1.0, -2.0])
        assert reg.value(w) == 0.0
        assert np.array_equal(reg.gradient(w), np.zeros(2))
        assert not reg.is_dense

    def test_l2_value_and_gradient(self):
        reg = L2Regularizer(0.5)
        w = np.array([2.0, -2.0])
        assert reg.value(w) == pytest.approx(0.25 * 8.0)
        assert np.allclose(reg.gradient(w), 0.5 * w)
        assert reg.is_dense

    def test_l2_finite_difference(self):
        reg = L2Regularizer(0.3)
        w = np.array([1.0, -0.5, 2.0])
        eps = 1e-6
        for i in range(3):
            up, down = w.copy(), w.copy()
            up[i] += eps
            down[i] -= eps
            numeric = (reg.value(up) - reg.value(down)) / (2 * eps)
            assert reg.gradient(w)[i] == pytest.approx(numeric, abs=1e-5)

    def test_strength_zero_maps_to_none(self):
        assert isinstance(get_regularizer("l2", 0.0), NoRegularizer)

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            L2Regularizer(-0.1)
        with pytest.raises(ValueError):
            L2Regularizer(0.0)

    def test_unknown_name_rejected(self):
        for name in ("elastic", "l1"):
            with pytest.raises(KeyError):
                get_regularizer(name, 0.1)


class TestObjective:
    @pytest.fixture
    def data(self):
        ds = generate(SyntheticSpec(n_rows=150, n_features=25, seed=8))
        return ds.X, ds.y

    def test_value_adds_regularization(self, data):
        X, y = data
        w = np.random.default_rng(0).normal(size=25)
        plain = Objective("hinge")
        reg = Objective("hinge", "l2", 0.1)
        expected_gap = 0.05 * float(w @ w)
        assert reg.value(w, X, y) - plain.value(w, X, y) == (
            pytest.approx(expected_gap))

    def test_batch_gradient_finite_difference(self, data):
        X, y = data
        obj = Objective("logistic", "l2", 0.05)
        rng = np.random.default_rng(1)
        w = rng.normal(size=25) * 0.1
        grad = obj.batch_loss_gradient(w, X, y) + obj.regularizer.gradient(w)
        eps = 1e-6
        for i in rng.choice(25, size=6, replace=False):
            up, down = w.copy(), w.copy()
            up[i] += eps
            down[i] -= eps
            numeric = (obj.value(up, X, y) - obj.value(down, X, y)) / (2 * eps)
            assert grad[i] == pytest.approx(numeric, abs=1e-4)

    def test_loss_gradient_excludes_regularizer(self, data):
        X, y = data
        w = np.ones(25)
        assert np.array_equal(
            Objective("hinge", "l2", 0.1).batch_loss_gradient(w, X, y),
            Objective("hinge").batch_loss_gradient(w, X, y))

    def test_empty_batch_gradient_is_zero(self):
        obj = Objective("hinge")
        X = sp.csr_matrix((0, 10))
        y = np.zeros(0)
        grad = obj.batch_loss_gradient(np.ones(10), X, y)
        assert np.array_equal(grad, np.zeros(10))

    def test_gradient_is_mean_over_batch(self, data):
        """Doubling the batch by duplication must not change the gradient."""
        X, y = data
        obj = Objective("hinge")
        w = np.random.default_rng(2).normal(size=25) * 0.1
        X2 = sp.vstack([X, X]).tocsr()
        y2 = np.concatenate([y, y])
        assert np.allclose(obj.batch_loss_gradient(w, X, y),
                           obj.batch_loss_gradient(w, X2, y2))

    def test_describe(self):
        assert Objective("hinge", "l2", 0.1).describe() == "hinge+l2(0.1)"
        assert Objective("hinge").is_regularized is False
        assert Objective("hinge", "l2", 0.1).is_regularized is True

    def test_accepts_instances(self):
        from repro.glm import HingeLoss
        obj = Objective(HingeLoss(), L2Regularizer(0.2))
        assert obj.regularizer.strength == 0.2
