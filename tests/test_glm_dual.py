"""Dual local solvers: conjugates, coordinate updates, certificates.

The CoCoA family is only trustworthy if three layers each hold exactly:

* the **conjugates** really are the losses' Fenchel conjugates
  (Fenchel-Young must hold for every feasible dual value);
* the **coordinate update** really solves its one-dimensional
  subproblem (no cheaper direction exists inside the feasible box);
* the **certificate** really certifies: the duality gap is non-negative
  for *any* iterate and feasible dual vector, and the per-superstep
  report is monotone in the quantities weak duality makes monotone.

On top of that, the fast CSR epoch kernel must be a pure speed change:
bit-for-bit the retained reference body on every input (same rule as the
primal kernels in ``tests/test_perf_kernels.py`` — no tolerances).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import cluster1
from repro.core import MLlibStarTrainer, TrainerConfig
from repro.core.worker import run_dual_on_partition
from repro.data import Partition, SyntheticSpec, generate
from repro.glm import (DUAL_LOSSES, Objective, certified_gap,
                       dual_epoch, dual_local_solve, dual_row_norms,
                       get_dual_loss, get_loss, make_dual_spec, reference,
                       require_dual_capable)

DUAL_CAPABLE = sorted(DUAL_LOSSES)


def make_problem(n_rows: int, n_features: int, density: float, seed: int,
                 loss: str):
    X = sp.random(n_rows, n_features, density=density, format="csr",
                  random_state=np.random.RandomState(seed))
    X.sum_duplicates()
    X.sort_indices()
    rng = np.random.default_rng(seed)
    if loss == "squared":
        y = rng.normal(size=n_rows)
    else:
        y = np.where(rng.random(n_rows) < 0.5, -1.0, 1.0)
    w0 = rng.standard_normal(n_features) * 0.1
    return X, y, w0


def feasible_alpha(loss: str, y: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
    """A random dual vector inside the loss's feasible box."""
    n = y.shape[0]
    if loss == "hinge":
        return rng.uniform(0.0, 1.0, size=n) * y
    if loss == "logistic":
        return rng.uniform(1e-6, 1.0 - 1e-6, size=n) * y
    return rng.normal(size=n)  # squared: unconstrained


problem_params = st.tuples(
    st.integers(min_value=1, max_value=60),       # rows
    st.integers(min_value=4, max_value=120),      # features
    st.floats(min_value=0.05, max_value=0.6),     # density
    st.integers(min_value=0, max_value=10_000),   # seed
)


# ----------------------------------------------------------------------
class TestConjugates:
    @given(loss=st.sampled_from(DUAL_CAPABLE),
           margin=st.floats(min_value=-5.0, max_value=5.0),
           frac=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=200, deadline=None)
    def test_fenchel_young_inequality(self, loss, margin, frac, seed):
        # l(m, y) + l*(-a, y) >= -m * a for every feasible a: violating
        # this would mean the "conjugate" is not a conjugate and the
        # "certificate" could go negative on a converged run.
        rng = np.random.default_rng(seed)
        L, D = get_loss(loss), get_dual_loss(loss)
        y = float(rng.normal()) if loss == "squared" else \
            (1.0 if seed % 2 else -1.0)
        if loss in ("hinge", "logistic"):
            a = frac * y
        else:
            a = (2.0 * frac - 1.0) * 4.0
        lhs = (L.value(np.array([margin]), np.array([y]))
               + D.conjugate(np.array([a]), np.array([y]))[0])
        assert lhs >= -margin * a - 1e-9

    def test_unknown_loss_rejected(self):
        with pytest.raises(KeyError, match="no implemented conjugate"):
            get_dual_loss("huber")

    def test_registry_names_match_primal_losses(self):
        for name in DUAL_CAPABLE:
            assert get_loss(name).name == name
            assert get_dual_loss(name).name == name


# ----------------------------------------------------------------------
class TestCoordinateUpdate:
    @given(loss=st.sampled_from(DUAL_CAPABLE),
           margin=st.floats(min_value=-4.0, max_value=4.0),
           frac=st.floats(min_value=0.0, max_value=1.0),
           q=st.floats(min_value=0.0, max_value=10.0),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=200, deadline=None)
    def test_delta_minimizes_the_coordinate_subproblem(self, loss, margin,
                                                       frac, q, seed):
        # The SDCA step must solve
        #   min_d  l*(-(a + d)) + margin * d + q/2 * d^2
        # over the feasible box: no probe point inside the box may be
        # cheaper (up to float tolerance).
        rng = np.random.default_rng(seed)
        D = get_dual_loss(loss)
        y = float(rng.normal()) if loss == "squared" else \
            (1.0 if seed % 2 else -1.0)
        if loss in ("hinge", "logistic"):
            a = (frac * 0.98 + 0.01) * y
        else:
            a = (2.0 * frac - 1.0) * 3.0
        if loss == "hinge" and q == 0.0:
            q = 1e-3  # boundary solution exercised separately below
        d = D.delta(margin, a, y, q)

        def phi(dd: float) -> float:
            val = D.conjugate(np.array([a + dd]), np.array([y]))[0]
            return float(val) + margin * dd + 0.5 * q * dd * dd

        # The step itself must stay feasible.
        b_new = (a + d) * y
        if loss == "hinge":
            assert -1e-9 <= b_new <= 1.0 + 1e-9
        elif loss == "logistic":
            assert 0.0 < b_new < 1.0
        base = phi(d)
        span = max(1.0, abs(d))
        for eps in (1e-4 * span, 1e-2 * span, 0.3 * span):
            for probe in (d + eps, d - eps):
                bp = (a + probe) * y
                if loss == "hinge" and not 0.0 <= bp <= 1.0:
                    continue
                if loss == "logistic" and not 0.0 < bp < 1.0:
                    continue
                assert base <= phi(probe) + 1e-7 * max(1.0, abs(base))

    def test_hinge_empty_row_pushes_to_the_box_corner(self):
        # q == 0 (an all-zero row): the subproblem is linear in b, so
        # the update must land exactly on b = 1.
        D = get_dual_loss("hinge")
        for y in (1.0, -1.0):
            d = D.delta(0.0, 0.2 * y, y, 0.0)
            assert (0.2 * y + d) * y == pytest.approx(1.0)

    def test_squared_update_is_exact_in_one_step(self):
        # For squared loss the subproblem is quadratic: after one update
        # the derivative a + margin - y + q*d_total must vanish.
        D = get_dual_loss("squared")
        margin, a, y, q = 0.7, -0.3, 1.2, 2.5
        d = D.delta(margin, a, y, q)
        assert (a + d) - y + margin + q * d == pytest.approx(0.0, abs=1e-12)

    def test_logistic_newton_solves_the_stationarity_condition(self):
        D = get_dual_loss("logistic")
        for seed in range(20):
            rng = np.random.default_rng(seed)
            y = 1.0 if seed % 2 else -1.0
            a = float(rng.uniform(0.05, 0.95)) * y
            margin = float(rng.normal()) * 2.0
            q = float(rng.uniform(0.0, 5.0))
            d = D.delta(margin, a, y, q)
            b = a * y
            t = b + d * y
            g = np.log(t / (1.0 - t)) + y * margin + q * (t - b)
            assert abs(g) < 1e-6


# ----------------------------------------------------------------------
class TestSolverSpec:
    def test_family_defaults(self):
        cocoa = make_dual_spec("cocoa", None, 2, 100, 4)
        assert cocoa.gamma == pytest.approx(0.25)
        assert cocoa.sigma_prime == pytest.approx(1.0)
        plus = make_dual_spec("cocoa+", None, 2, 100, 4)
        assert plus.gamma == 1.0
        assert plus.sigma_prime == pytest.approx(4.0)

    def test_explicit_gamma_scales_sigma(self):
        spec = make_dual_spec("cocoa+", 0.5, 1, 10, 8)
        assert spec.gamma == 0.5
        assert spec.sigma_prime == pytest.approx(4.0)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError, match="unknown dual solver"):
            make_dual_spec("sdca", None, 1, 10, 2)
        with pytest.raises(ValueError, match="at least 1"):
            make_dual_spec("cocoa", None, 0, 10, 2)
        with pytest.raises(ValueError, match="gamma"):
            make_dual_spec("cocoa", -0.5, 1, 10, 2)
        with pytest.raises(ValueError, match="worker"):
            make_dual_spec("cocoa", None, 1, 10, 0)

    def test_require_dual_capable(self):
        require_dual_capable(Objective("hinge", "l2", 0.1))
        with pytest.raises(ValueError, match="l2"):
            require_dual_capable(Objective("hinge"))


# ----------------------------------------------------------------------
class TestDualLocalSolveBitIdentity:
    @given(params=problem_params,
           loss=st.sampled_from(DUAL_CAPABLE),
           epochs=st.integers(min_value=1, max_value=3),
           solver=st.sampled_from(["cocoa", "cocoa+"]),
           workers=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_fast_equals_reference(self, params, loss, epochs, solver,
                                   workers):
        n, m, density, seed = params
        X, y, w0 = make_problem(n, m, density, seed, loss)
        rng = np.random.default_rng(seed + 7)
        alpha0 = feasible_alpha(loss, y, rng) * 0.5
        spec = make_dual_spec(solver, None, epochs, 4 * n, workers)
        # dual_local_solve's epoch set-up, with lambda = 0.1.
        scale = spec.sigma_prime / (0.1 * spec.n_total)
        delta = get_dual_loss(loss).delta
        norms = dual_row_norms(X.indptr, X.data, n)
        fast = [np.array(w0, copy=True), alpha0.copy(), np.zeros(n)]
        ref = [np.array(w0, copy=True), alpha0.copy(), np.zeros(n)]
        order_rng = np.random.default_rng(seed + 1)
        for _ in range(spec.epochs):
            order = order_rng.permutation(n)
            counts_f = dual_epoch(X.indptr, X.indices, X.data, y, *fast,
                                  order, scale, norms, delta)
            counts_r = reference.dual_epoch_reference(X, y, *ref, order,
                                                      scale, delta)
            assert counts_f == counts_r
            for got, want in zip(fast, ref):
                assert np.array_equal(got, want)

    def test_inputs_are_not_mutated(self):
        # The backend contract: w may be a read-only shared view and the
        # dual block is parent-owned state.
        X, y, w0 = make_problem(30, 10, 0.4, 0, "hinge")
        objective = Objective("hinge", "l2", 0.1)
        w0.setflags(write=False)
        alpha0 = np.zeros(30)
        alpha0.setflags(write=False)
        spec = make_dual_spec("cocoa+", None, 2, 30, 2)
        dual_local_solve(objective, w0, X, y, alpha0, spec,
                         np.random.default_rng(0))
        assert np.array_equal(alpha0, np.zeros(30))

    def test_block_shape_mismatch_raises(self):
        X, y, w0 = make_problem(30, 10, 0.4, 0, "hinge")
        objective = Objective("hinge", "l2", 0.1)
        spec = make_dual_spec("cocoa", None, 1, 30, 2)
        with pytest.raises(ValueError, match="dual block"):
            dual_local_solve(objective, w0, X, y, np.zeros(29), spec,
                             np.random.default_rng(0))


# ----------------------------------------------------------------------
class TestCertificates:
    @given(params=problem_params,
           loss=st.sampled_from(DUAL_CAPABLE),
           alpha_seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=80, deadline=None)
    def test_gap_is_nonnegative_for_any_feasible_pair(self, params, loss,
                                                      alpha_seed):
        # Weak duality: P(w) - D(alpha) >= 0 for ANY w and feasible
        # alpha, not just solver iterates — this is what makes the gap a
        # certificate rather than an estimate.
        n, m, density, seed = params
        X, y, w0 = make_problem(n, m, density, seed, loss)
        objective = Objective(loss, "l2", 0.1)
        alpha = feasible_alpha(loss, y, np.random.default_rng(alpha_seed))
        part = Partition(index=0, X=X, y=y)
        gap, _, _ = certified_gap(objective, w0, [part], [alpha], part)
        assert gap >= -1e-9

    @pytest.mark.parametrize("loss", DUAL_CAPABLE)
    def test_gap_vanishes_at_the_optimum(self, loss):
        # Drive a single-block solver hard; the certificate must go to
        # ~0, pinning the primal-dual scaling (a factor-of-lambda bug
        # would leave a permanent gap).
        X, y, w0 = make_problem(80, 12, 0.4, 5, loss)
        objective = Objective(loss, "l2", 0.1)
        spec = make_dual_spec("cocoa+", None, 20, 80, 1)
        rng = np.random.default_rng(3)
        w = np.zeros(12)
        alpha = np.zeros(80)
        for _ in range(10):
            dw, alpha, _ = dual_local_solve(objective, w, X, y, alpha,
                                            spec, rng)
            w = w + dw
        part = Partition(index=0, X=X, y=y)
        gap, _, _ = certified_gap(objective, w, [part], [alpha], part)
        assert 0.0 <= gap + 1e-12 and gap < 1e-6

    def test_certified_gap_validates_block_count(self):
        X, y, _ = make_problem(20, 8, 0.4, 0, "hinge")
        part = Partition(index=0, X=X, y=y)
        ds = generate(SyntheticSpec(n_rows=20, n_features=8,
                                    nnz_per_row=3.0, noise=0.1, seed=0))
        with pytest.raises(ValueError, match="dual blocks"):
            certified_gap(Objective("hinge", "l2", 0.1), np.zeros(8),
                          [part], [np.zeros(20), np.zeros(20)], ds)


# ----------------------------------------------------------------------
class TestTrainingCertificate:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           solver=st.sampled_from(["cocoa", "cocoa+"]),
           loss=st.sampled_from(DUAL_CAPABLE),
           local_iters=st.integers(min_value=1, max_value=3),
           executors=st.sampled_from([2, 4]))
    @settings(max_examples=15, deadline=None)
    def test_gap_report_on_convex_workloads(self, seed, solver, loss,
                                            local_iters, executors):
        # Per-superstep properties of the convergence report on convex
        # (L2-regularized) workloads:
        #  1. every recorded gap is non-negative (weak duality);
        #  2. the dual objective never decreases (local SDCA ascends and
        #     both gamma regimes — averaging via Jensen, adding via the
        #     sigma' = gamma*K safeguard — preserve ascent);
        #  3. the *certified suboptimality bound* min-primal-so-far
        #     minus current-dual is non-increasing at every superstep
        #     and non-negative.  (The raw gap P(w_t) - D(alpha_t) can
        #     wobble because the primal iterate oscillates; the
        #     certificate built from the monotone pieces cannot.)
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(40, 160))
        feats = int(rng.integers(8, 40))
        dataset = generate(SyntheticSpec(
            n_rows=rows, n_features=feats,
            nnz_per_row=float(min(feats, 6)), noise=0.05, seed=seed))
        objective = Objective(loss, "l2", float(rng.choice([0.05, 0.2])))
        config = TrainerConfig(max_steps=6, seed=seed, local_solver=solver,
                               local_iters=local_iters)
        trainer = MLlibStarTrainer(objective, cluster1(executors=executors),
                                   config)
        result = trainer.fit(dataset)
        records = result.duality_gaps
        assert [g.step for g in records] == list(range(7))
        assert all(g.gap >= -1e-9 for g in records)
        assert all(g.gap == pytest.approx(g.primal - g.dual, abs=1e-12)
                   for g in records)
        duals = [g.dual for g in records]
        assert all(d2 >= d1 - 1e-12 for d1, d2 in zip(duals, duals[1:]))
        best_primal = np.minimum.accumulate([g.primal for g in records])
        bound = best_primal - np.array(duals)
        assert np.all(bound >= -1e-9)
        assert np.all(np.diff(bound) <= 1e-12)
        # The report converges: the final certificate improves on the
        # step-0 one (alpha = 0 is a deliberately weak certificate).
        assert bound[-1] < bound[0]

    def test_primal_runs_report_no_gaps(self):
        dataset = generate(SyntheticSpec(n_rows=60, n_features=12,
                                         nnz_per_row=4.0, noise=0.05,
                                         seed=1))
        config = TrainerConfig(max_steps=2, seed=1)
        result = MLlibStarTrainer(Objective("hinge", "l2", 0.1),
                                  cluster1(executors=2), config).fit(dataset)
        assert result.duality_gaps == ()


# ----------------------------------------------------------------------
class TestWorkerGuards:
    def test_empty_partition_raises_with_its_index(self):
        part = Partition(index=3, X=sp.csr_matrix((0, 6)), y=np.zeros(0))
        spec = make_dual_spec("cocoa+", None, 1, 10, 2)
        with pytest.raises(ValueError, match="partition 3 is empty"):
            run_dual_on_partition(part, np.zeros(6),
                                  Objective("hinge", "l2", 0.1), spec,
                                  np.zeros(0), np.random.default_rng(0))
