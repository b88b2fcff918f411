from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg
from scipy.optimize import minimize

import entmem.estimators as estimators
import entmem.pipeline as pipeline
from conftest import (
    maximally_mixed,
    purity,
    random_density_matrix,
    random_pure_ket,
    tensor_product,
    trace_distance,
)
from entmem.calibrate import calibrate
from entmem.detection import CountRecord, born_probabilities, heralded_alpha
from entmem.errors import ConfigurationError, EstimationError, ValidationError
from entmem.estimators import (
    EstimateWithError,
    TomographySettingSet,
    alpha_counts,
    alpha_from_counts,
    cauchy_schwarz_R,
    chsh_counts,
    chsh_E,
    chsh_e_matrix,
    chsh_S,
    chsh_S_analytic,
    chsh_S_literal,
    chsh_settings,
    fringe_settings,
    is_nonclassical_R,
    mc_error,
    tomo_counts,
    tomo_linear,
    tomo_mle,
    visibility_analytic,
    visibility_fit,
    _clamped_physical,
    _lower_cholesky_factor,
    _params_from_t,
)
from entmem.qstate import KETS, bell_psi_plus, fidelity, ket_linear, physical
from entmem.rng import derive_rng
from entmem.scenario import MeasurementPlan, load_bundled_scenario

SETTINGS = TomographySettingSet.standard()
CHSH_ANGLES = MeasurementPlan().chsh_angles


def _neg_log_likelihood(t, counts, exposures, hessian: bool = False) -> tuple:
    """The NLL at one point t with its gradient, and its Hessian when asked: a 1-row batch."""
    f, terms = estimators._nll_value(t[None], counts, exposures)
    g, h = estimators._nll_derivatives(terms, counts, exposures)
    return (f[0], g[0], h[0]) if hessian else (f[0], g[0])


def exact_records(rho: np.ndarray, n_per_group: float = 1e6) -> list[CountRecord]:
    """Records whose frequencies are the exact Born probabilities."""
    out = []
    for label, p in zip(SETTINGS.settings[0], born_probabilities(rho, SETTINGS.settings)[0]):
        out.append(
            CountRecord(
                setting_label=label,
                singles_1=int(4 * n_per_group),
                singles_2=int(4 * n_per_group),
                coincidences=int(round(p * n_per_group)),
                triples=0,
                acquisition_s=1.0,
                seed=0,
            )
        )
    return out


def poisson_records(rho, n_per_group, rng) -> list[CountRecord]:
    out = []
    for label, p in zip(SETTINGS.settings[0], born_probabilities(rho, SETTINGS.settings)[0]):
        c = int(rng.poisson(p * n_per_group))
        out.append(
            CountRecord(label, int(10 * n_per_group), int(10 * n_per_group), c, 0, 1.0, 0)
        )
    return out


class TestTomographySettingSet:
    def test_sixteen_settings_spanning(self):
        labels, arm1, arm2 = SETTINGS.settings
        assert len(labels) == 16 and arm1.shape == arm2.shape == (16, 2)
        assert set(labels) == {a + b for a in "HVDR" for b in "HVDR"}

    def test_tomo_settings_projectors_span_the_operator_space(self):
        assert SETTINGS is estimators.TOMO_SETTINGS
        assert np.linalg.matrix_rank(estimators._TOMO_DESIGN, tol=1e-9) == 16


def test_kets_and_designs_are_read_only():
    designs = [SETTINGS.settings, chsh_settings(CHSH_ANGLES), fringe_settings("A", [0.0] * 8)]
    for k in [*KETS.values(), ket_linear(0.3), *(arm for _, *arms in designs for arm in arms)]:
        with pytest.raises(ValueError, match="read-only"):
            k[0] = 0.0


class TestTomoLinear:
    def test_recovers_basis_state(self):
        rho = tensor_product(KETS["H"], KETS["V"])
        est = tomo_linear(*tomo_counts(exact_records(rho)))
        assert np.max(np.abs(est - rho)) < 1e-10

    def test_recovers_bell_state(self):
        rho = bell_psi_plus()
        est = tomo_linear(*tomo_counts(exact_records(rho)))
        assert np.max(np.abs(est - rho)) < 1e-10

    def test_recovers_maximally_mixed(self):
        rho = maximally_mixed()
        est = tomo_linear(*tomo_counts(exact_records(rho)))
        assert np.max(np.abs(est - rho)) < 1e-10

    def test_hermitian_unit_trace(self, rng):
        rho = random_density_matrix(rng)
        est = tomo_linear(*tomo_counts(exact_records(rho, 1e9)))
        assert np.max(np.abs(est - est.conj().T)) < 1e-12
        assert np.trace(est).real == pytest.approx(1.0, abs=1e-9)

    def test_stack_rows_equal_one_row_estimates_bit_for_bit(self, rng):
        counts, acq = tomo_counts(exact_records(random_density_matrix(rng), 1e4))
        rows = rng.poisson(counts, size=(50, 16)).astype(float)
        rows[7, estimators._NORMALIZATION_IDX] = 0.0  # no normalization coincidences
        stack = tomo_linear(rows, acq)
        assert stack.shape == (50, 4, 4) and np.isnan(stack[7]).all()
        for k in set(range(50)) - {7}:
            assert np.array_equal(stack[k], tomo_linear(rows[k], acq))

    def test_zero_group_total_rejected(self):
        recs = exact_records(bell_psi_plus())
        recs = [
            CountRecord(r.setting_label, r.singles_1, r.singles_2, 0, 0, r.acquisition_s, 0)
            for r in recs
        ]
        with pytest.raises(EstimationError):
            tomo_linear(*tomo_counts(recs))

    def test_missing_setting_rejected(self):
        with pytest.raises(ConfigurationError):
            tomo_linear(*tomo_counts(exact_records(bell_psi_plus())[:15]))

    def test_count_arrays_of_wrong_length_rejected(self):
        counts, acq = tomo_counts(exact_records(bell_psi_plus()))
        with pytest.raises(ValidationError):
            tomo_linear(counts[:15], acq[:15])
        with pytest.raises(ValidationError):
            tomo_mle(counts, acq[:1])


class TestTomoMle:
    def test_gradient_matches_finite_differences(self, rng):
        rho = random_density_matrix(rng)
        records = exact_records(rho, 1e4)
        counts = np.array([r.coincidences for r in records], dtype=float)
        exposures = np.full(16, 1e4)
        t0 = rng.normal(size=16)
        f0, g0 = _neg_log_likelihood(t0, counts, exposures)
        eps = 1e-6
        for k in range(16):
            tp = t0.copy()
            tp[k] += eps
            fp, _ = _neg_log_likelihood(tp, counts, exposures)
            tm = t0.copy()
            tm[k] -= eps
            fm, _ = _neg_log_likelihood(tm, counts, exposures)
            numeric = (fp - fm) / (2 * eps)
            assert numeric == pytest.approx(g0[k], rel=1e-4, abs=1e-4)

    def test_matches_projector_reference(self, rng):
        """The quadratic-form NLL and gradient equal a direct evaluation on rho(t)."""
        projectors = estimators._TOMO_PROJECTORS
        for _ in range(20):
            t = rng.normal(size=16)
            counts = rng.poisson(500.0, size=16).astype(float)
            exposures = rng.uniform(1e3, 5e3, size=16)
            m = np.zeros((4, 4), dtype=complex)
            m[np.diag_indices(4)] = t[:4]
            for k, (r, c) in enumerate([(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]):
                m[r, c] = t[4 + 2 * k] + 1j * t[5 + 2 * k]
            assert np.array_equal(estimators._t_from_params(t), m)
            assert np.array_equal(_params_from_t(m), t)
            s = np.trace(m.conj().T @ m).real
            rho = m.conj().T @ m / s
            probs = np.real(np.einsum("kij,ji->k", projectors, rho))
            nll = -np.sum(counts * np.log(exposures * probs) - exposures * probs)
            weights = np.einsum("k,kij->ij", counts / probs - exposures, projectors)
            w_conj = (m @ weights - np.trace(weights @ rho).real * m) / s  # dLL/dT*
            grad = -2.0 * estimators._params_from_t(w_conj)
            f, g = _neg_log_likelihood(t, counts, exposures)
            assert f == pytest.approx(nll, rel=1e-13)
            assert np.max(np.abs(g - grad)) < 1e-12 * np.max(np.abs(grad))

    def test_hessian_matches_finite_differences(self, rng):
        rho = random_density_matrix(rng)
        records = poisson_records(rho, 1e4, rng)
        counts = np.array([r.coincidences for r in records], dtype=float)
        exposures = np.full(16, 1e4)
        t0 = rng.normal(size=16)
        _, _, h0 = _neg_log_likelihood(t0, counts, exposures, hessian=True)
        assert np.max(np.abs(h0 - h0.T)) < 1e-12 * np.max(np.abs(h0))
        eps = 1e-6
        for k in range(16):
            step = np.zeros(16)
            step[k] = eps
            _, gp = _neg_log_likelihood(t0 + step, counts, exposures)
            _, gm = _neg_log_likelihood(t0 - step, counts, exposures)
            numeric = (gp - gm) / (2 * eps)
            assert numeric == pytest.approx(h0[k], rel=1e-4, abs=1e-4)

    def test_cholesky_factor_roundtrip(self, rng):
        rho = random_density_matrix(rng)
        t = _lower_cholesky_factor(rho)
        assert np.allclose(t, np.tril(t))
        assert np.max(np.abs(t.conj().T @ t - rho)) < 1e-10

    def test_noiseless_bell_reconstruction(self):
        est = tomo_mle(*tomo_counts(exact_records(bell_psi_plus(), 1e6)))
        assert fidelity(est, bell_psi_plus()) > 0.9999

    def test_maximally_mixed_purity(self):
        est = tomo_mle(*tomo_counts(exact_records(maximally_mixed(), 1e6)))
        assert purity(est) < 0.26

    def test_reconstruction_consistency_random_states(self, rng):
        for _ in range(10):
            rho = random_density_matrix(rng)
            est = tomo_mle(*tomo_counts(exact_records(rho, 1e9)))
            assert trace_distance(est, rho) < 1e-6

    def test_likelihood_beats_clamped_linear_inversion(self, rng):
        rho = random_density_matrix(rng)
        data = tomo_counts(poisson_records(rho, 3e3, rng))
        lin = tomo_linear(*data)
        est = tomo_mle(*data)  # seeded from the clamped linear inversion
        ll_mle = tomo_log_likelihood(est, *data)
        ll_lin = tomo_log_likelihood(_clamped_physical(lin), *data)
        assert ll_mle >= ll_lin - 1e-6

    def test_output_physical_on_noisy_counts(self, rng):
        for _ in range(5):
            rho = random_density_matrix(rng, rank=2)
            est = tomo_mle(*tomo_counts(poisson_records(rho, 500, rng)))
            vals = np.linalg.eigvalsh(est)
            assert vals.min() >= -1e-12
            assert np.trace(est).real == pytest.approx(1.0, abs=1e-10)


@pytest.fixture(scope="module")
def calibrated():
    scenario, _ = calibrate(load_bundled_scenario())
    return scenario


@pytest.fixture(scope="module")
def post_tomography_records(calibrated):
    """The tomography records `entmem simulate` writes for the post-storage stage."""
    fast = replace(calibrated, plan=replace(calibrated.plan, error_bars=False))
    return pipeline.run_experiment(fast, "post_storage").records["tomography"]


def _rho_from_params(t: np.ndarray) -> np.ndarray:
    m = estimators._t_from_params(t)
    rho = m.conj().T @ m
    return rho / np.trace(rho).real


def lbfgs_reference(counts, acq, init=None) -> np.ndarray:
    """A reference MLE: scipy's L-BFGS-B on the same NLL from tomo_mle's start point."""
    _, exposures, counts = estimators._tomo_data(counts, acq)
    if init is None:
        init = tomo_linear(counts, acq)
    res = minimize(
        _neg_log_likelihood,
        _params_from_t(_lower_cholesky_factor(_clamped_physical(init))),
        args=(counts, exposures),
        jac=True,
        method="L-BFGS-B",
        options={"maxfun": 100_000, "ftol": 1e-15, "gtol": 1e-12, "maxiter": 50_000},
    )
    return _rho_from_params(res.x)


def newton_from(init: np.ndarray, counts, acq) -> np.ndarray:
    """tomo_mle's Newton fit, started from init instead of the linear inversion."""
    _, exposures, counts = estimators._tomo_data(counts, acq)
    t0 = _params_from_t(_lower_cholesky_factor(_clamped_physical(init)))
    fitted, errors = estimators._newton_fits(t0[None], counts[None], exposures[None])
    assert errors[0] is None
    return _rho_from_params(fitted[0])


def tomo_log_likelihood(rho: np.ndarray, counts, acquisition_s) -> float:
    """Poisson log-likelihood of a state given the 16 counts."""
    _, exposures, counts = estimators._tomo_data(counts, acquisition_s)
    probs = np.real(estimators._TOMO_DESIGN @ np.ravel(rho))
    return float(estimators._log_likelihood(probs, counts, exposures)[0])


def optimality_gap(rho: np.ndarray, counts, acq) -> float:
    """lambda_max(G) - Tr(G rho) over the total count, with G = sum_k w_k P_k.

    w_k = n_k / p_k - N_k is dLL/dp_k.  The log-likelihood is concave in
    rho, and this is its largest directional derivative from rho towards
    another state, so it is zero exactly at the MLE, whatever solver
    found it.
    """
    _, exposures, counts = estimators._tomo_data(counts, acq)
    projectors = estimators._TOMO_PROJECTORS
    probs = np.real(np.einsum("kij,ji->k", projectors, rho))
    weights = np.divide(counts, probs, out=np.zeros(16), where=counts > 0) - exposures
    g = np.einsum("k,kij->ij", weights, projectors)
    return float((np.linalg.eigvalsh(g)[-1] - np.real(np.trace(g @ rho))) / counts.sum())


# Converged fits measure up to about 2e-7; an L-BFGS-B answer that stopped
# early on the 393.16 ns counts below measured 2.3e-6.
GAP_BOUND = 1e-6

# Expected post-storage tomography counts of the bundled scenario at four
# storage times (ns) where the MLE is rank-deficient (the last three take
# 190-410 Newton steps) or is the linear estimate itself (340.38 ns, where
# the first line search stalls).
SWEEP_COUNTS = {
    340.38: [2, 15, 8, 8, 15, 2, 8, 8, 8, 8, 15, 8, 8, 8, 8, 15],
    367.74: [1, 8, 4, 4, 8, 1, 4, 4, 4, 5, 8, 4, 4, 5, 4, 8],
    378.50: [1, 6, 3, 3, 6, 1, 3, 3, 3, 4, 6, 3, 3, 4, 3, 6],
    393.16: [1, 4, 2, 2, 4, 1, 2, 2, 2, 3, 4, 2, 2, 3, 2, 4],
}


class TestNewtonSolver:
    def test_likelihood_at_least_lbfgs_on_bundled_resamples(self, post_tomography_records):
        rng = np.random.default_rng(4)
        resamples = [
            [replace(r, coincidences=int(rng.poisson(r.coincidences))) for r in post_tomography_records]
            for _ in range(50)
        ]
        for data in (tomo_counts(recs) for recs in resamples):
            ll_newton = tomo_log_likelihood(tomo_mle(*data), *data)
            ll_lbfgs = tomo_log_likelihood(lbfgs_reference(*data), *data)
            assert -ll_newton <= -ll_lbfgs + 1e-9 * abs(ll_lbfgs)

    @pytest.mark.parametrize("t_ns", sorted(SWEEP_COUNTS))
    def test_sweep_fits_reach_the_optimum(self, t_ns):
        counts, acq = np.array(SWEEP_COUNTS[t_ns], dtype=float), np.ones(16)
        est = tomo_mle(counts, acq)
        assert optimality_gap(est, counts, acq) < GAP_BOUND
        ll_lbfgs = tomo_log_likelihood(lbfgs_reference(counts, acq), counts, acq)
        assert -tomo_log_likelihood(est, counts, acq) <= -ll_lbfgs + 1e-9 * abs(ll_lbfgs)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        rank=st.integers(1, 4),
        log_scale=st.floats(np.log10(5.0), 9.0),
        exact=st.booleans(),
    )
    def test_fit_is_the_optimum_or_an_estimation_error(self, seed, rank, log_scale, exact):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, rank=rank)
        n = 10**log_scale
        records = exact_records(rho, n) if exact else poisson_records(rho, n, rng)
        counts, acq = tomo_counts(records)
        try:
            est = tomo_mle(counts, acq)
        except EstimationError:
            return
        assert np.linalg.eigvalsh(est).min() >= -1e-12
        assert optimality_gap(est, counts, acq) < GAP_BOUND
        ll_lbfgs = tomo_log_likelihood(lbfgs_reference(counts, acq), counts, acq)
        assert -tomo_log_likelihood(est, counts, acq) <= -ll_lbfgs + 1e-9 * abs(ll_lbfgs)

    def test_unfinished_fit_raises_and_fails_its_resample(
        self, post_tomography_records, monkeypatch
    ):
        counts, acq = tomo_counts(post_tomography_records)
        monkeypatch.setattr(estimators, "_NEWTON_MAX_STEPS", 1)
        with pytest.raises(EstimationError, match="did not converge in 1 Newton steps"):
            tomo_mle(counts, acq)
        failed = []

        def resampled_purity(rows):
            values = np.full(len(rows), np.nan)
            for k, row in enumerate(rows):
                try:
                    values[k] = purity(tomo_mle(row, acq))
                except EstimationError:
                    failed.append(row)
            return values

        with pytest.raises(EstimationError, match="Poisson resamples") as exc:
            mc_error(resampled_purity, counts, n_resamples=200, seed=1)
        assert len(failed) > 20
        assert f"failed on {len(failed)}/200" in str(exc.value)

    def test_bundled_fidelity_bootstrap_has_no_failed_resamples(self, calibrated, monkeypatch):
        failures = []
        tomo_mle_ = pipeline.tomo_mle
        mc_error_ = pipeline.mc_error
        inside_mc = []

        def counted_tomo_mle(*args, **kwargs):
            try:
                return tomo_mle_(*args, **kwargs)
            except Exception as exc:
                if inside_mc:
                    failures.append(exc)
                raise

        def flagged_mc_error(*args, **kwargs):
            inside_mc.append(True)
            try:
                return mc_error_(*args, **kwargs)
            finally:
                inside_mc.pop()

        monkeypatch.setattr(pipeline, "tomo_mle", counted_tomo_mle)
        monkeypatch.setattr(pipeline, "mc_error", flagged_mc_error)
        for stage in ("pre_storage", "post_storage"):
            result = pipeline.run_experiment(calibrated, stage)
            assert result.fidelity.sigma > 0
        assert failures == []

    def test_failed_reference_fits_fail_only_their_resamples(self, calibrated, monkeypatch):
        """A post-storage bootstrap in which capped fits fail, some of them reference fits:
        each resample with a failed fit is one NaN row, and the rest give the sigma."""
        failed, bootstraps = set(), []
        tomo_mle_, mc_error_ = pipeline.tomo_mle, pipeline.mc_error

        def counted_tomo_mle(counts, acq, fits):
            try:
                return tomo_mle_(counts, acq, fits)
            except EstimationError:
                failed.add((np.asarray(counts).tobytes(), acq[0]))
                raise

        def recorded_mc_error(estimator, *args):
            def recorded(rows):
                bootstraps.append((rows, estimator(rows)))
                return bootstraps[-1][1]

            return mc_error_(recorded, *args)

        monkeypatch.setattr(estimators, "_NEWTON_MAX_STEPS", 16)
        monkeypatch.setattr(pipeline, "tomo_mle", counted_tomo_mle)
        monkeypatch.setattr(pipeline, "mc_error", recorded_mc_error)
        result = pipeline.run_experiment(calibrated, "post_storage")
        rows, values = bootstraps[0]  # the fidelity bootstrap: 16 reference counts, then 16
        acq = calibrated.plan.acquisition_s
        ref_failed = [(r[:16].tobytes(), acq.tomo_pre) in failed for r in rows]
        stage_failed = [(r[16:].tobytes(), acq.tomo_post) in failed for r in rows]
        assert any(ref_failed) and any(stage_failed)
        assert np.array_equal(np.isnan(values), np.logical_or(ref_failed, stage_failed))
        assert result.fidelity.sigma == np.std(values[~np.isnan(values)]) > 0

    @staticmethod
    def _stack(rng, lowest_eigenvalues):
        """Hessians q diag(linspace(low, 5)) q^T with their gradients and reference steps.

        The reference of a definite row is -h^-1 g; an indefinite row's is the
        step of its Hessian shifted by twice its lowest eigenvalue.
        """
        hs, gs, steps = [], [], []
        for low in lowest_eigenvalues:
            q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
            vals = np.linspace(low, 5.0, 16)
            g = rng.normal(size=16)
            shifted = vals if low > 0 else vals + (1e-12 * 5.0 - 2 * low)
            hs.append((q * vals) @ q.T)
            gs.append(g)
            steps.append(-q @ ((q.T @ g) / shifted))
        return np.array(hs), np.array(gs), np.array(steps)

    def test_cholesky_step_equals_eigh_step(self, rng):
        h, g, expected = self._stack(rng, rng.uniform(0.1, 2.0, size=20))
        step, definite = estimators._newton_step(h, g)
        assert definite.all()
        for row, reference in zip(step, expected):
            assert np.max(np.abs(row - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_indefinite_hessian_takes_shifted_eigh_step(self, rng):
        """A stack mixing definite and indefinite rows: each row takes its own step."""
        lowest = [0.5, -2.0, 1.0, -0.3, 0.1, -4.0]
        h, g, expected = self._stack(rng, lowest)
        step, definite = estimators._newton_step(h, g)
        assert list(definite) == [low > 0 for low in lowest]
        for row, reference in zip(step, expected):
            assert np.max(np.abs(row - reference)) <= 1e-12 * np.max(np.abs(reference))
        assert np.all(np.einsum("bi,bi->b", g, step) < 0)

    @settings(max_examples=60, deadline=None)
    @given(
        lowest=st.lists(
            st.one_of(
                st.floats(-4.0, -0.01),
                st.floats(0.01, 2.0),
                # positive, but below the 1e-12 * 5 floor of the definiteness rule
                st.sampled_from([5e-14, 5e-13, 2e-12]),
            ),
            min_size=1,
            max_size=12,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_row_steps_as_if_alone(self, lowest, seed):
        """A row's step and definite flag do not depend on the other rows, bit for bit."""
        h, g, _ = self._stack(np.random.default_rng(seed), lowest)
        step, definite = estimators._newton_step(h.copy(), g)  # shifts failed rows in place
        for i in range(len(h)):
            alone_step, alone_definite = estimators._newton_step(h[i : i + 1].copy(), g[i : i + 1])
            assert step[i].tobytes() == alone_step[0].tobytes()
            assert definite[i] == alone_definite[0]

    def test_eigenvalues_only_for_rows_that_fail_cholesky(self, rng, monkeypatch):
        lowest = [0.5, -2.0, 5e-13, 1.0, -0.3]
        h, g, _ = self._stack(rng, lowest)
        failing = []
        for row in h:
            try:
                np.linalg.cholesky(row)
            except np.linalg.LinAlgError:
                failing.append(row)
        assert len(failing) == 2  # the two negative rows; 5e-13 factors
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def recorded(a):
            seen.extend(a)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        _, definite = estimators._newton_step(h.copy(), g)
        assert np.array_equal(np.array(seen), np.array(failing))
        assert list(definite) == [True, False, True, True, False]

    def test_cholesky_gufunc_nan_fills_a_failed_factor(self):
        """_newton_step reads a failure from numpy's private gufunc behind np.linalg.cholesky:
        a NaN-filled factor for that matrix alone, no error for the stack."""
        h = np.stack([np.diag([4.0, 1.0]), np.diag([1.0, -1.0]), [[2.0, 1.0], [1.0, 2.0]]])
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            _umath_linalg.cholesky_lo(h)
        with np.errstate(all="ignore"):
            factor = _umath_linalg.cholesky_lo(h)
        assert np.isnan(factor[1]).all()
        for i in (0, 2):
            assert factor[i].tobytes() == np.linalg.cholesky(h[i]).tobytes()

    def test_fit_from_indefinite_first_hessian_at_least_lbfgs(self, rng, monkeypatch):
        """Exact rank-1 data fitted from the maximally mixed state."""
        counts, acq = tomo_counts(exact_records(random_density_matrix(rng, rank=1), 1e6))
        definite = []
        newton_step = estimators._newton_step

        def recorded(h, g):
            step, ok = newton_step(h, g)
            definite.append(ok[0])
            return step, ok

        monkeypatch.setattr(estimators, "_newton_step", recorded)
        newton = newton_from(np.eye(4) / 4, counts, acq)
        assert not definite[0]
        ll_newton = tomo_log_likelihood(newton, counts, acq)
        ll_lbfgs = tomo_log_likelihood(lbfgs_reference(counts, acq, np.eye(4) / 4), counts, acq)
        assert -ll_newton <= -ll_lbfgs + 1e-9 * abs(ll_lbfgs)

    def test_single_fit_timing(self, post_tomography_records, benchmark):
        """One fit on the bundled post-storage records, timed by pytest-benchmark."""
        state = benchmark(tomo_mle, *tomo_counts(post_tomography_records))
        assert purity(state) > 0.5


class TestSharedFits:
    @pytest.fixture
    def fit_count(self, monkeypatch):
        """One entry per row fitted."""
        calls = []
        newton_fits = estimators._newton_fits

        def counted(t, *args):
            calls.extend([1] * len(t))
            return newton_fits(t, *args)

        monkeypatch.setattr(estimators, "_newton_fits", counted)
        return calls

    def test_without_a_store_every_call_fits(self, post_tomography_records, fit_count):
        data = tomo_counts(post_tomography_records)
        tomo_mle(*data)
        tomo_mle(*data)
        assert len(fit_count) == 2

    def test_a_store_fits_each_input_once(self, post_tomography_records, fit_count):
        counts, acq = tomo_counts(post_tomography_records)
        fits = {}
        first = tomo_mle(counts, acq, fits)
        assert tomo_mle(counts.astype(int), list(acq), fits) is first
        assert tomo_mle(counts, acq, fits) is first
        assert len(fit_count) == 1
        tomo_mle(counts + 1, acq, fits)
        tomo_mle(counts, 2 * acq, fits)
        assert len(fit_count) == 3
        assert not first.flags.writeable
        assert tomo_mle(counts, acq) is not first
        assert len(fit_count) == 4

    def test_a_fit_that_raises_raises_again(self, post_tomography_records, monkeypatch):
        data = tomo_counts(post_tomography_records)
        monkeypatch.setattr(estimators, "_NEWTON_MAX_STEPS", 1)
        fits = {}
        for _ in range(2):
            with pytest.raises(EstimationError, match="did not converge in 1 Newton steps"):
                tomo_mle(*data, fits)

    def test_fit_rows_fits_the_new_distinct_rows_as_one_batch(
        self, post_tomography_records, fit_count, monkeypatch
    ):
        counts, acq = tomo_counts(post_tomography_records)
        batches = []
        newton_fits = estimators._newton_fits

        def recorded(t, *args):
            batches.append(len(t))
            return newton_fits(t, *args)

        monkeypatch.setattr(estimators, "_newton_fits", recorded)
        fits = {}
        first = tomo_mle(counts, acq, fits)
        estimators.fit_rows([counts], acq, fits)  # the store holds it: nothing to fit
        assert batches == [1] and len(fit_count) == 1
        rows = np.array([counts, counts + 1, counts + 1, counts + 2]).astype(int)
        estimators.fit_rows(rows, acq, fits)
        assert batches == [1, 2] and len(fit_count) == 3
        assert tomo_mle(counts, acq, fits) is first
        for row in rows[1:]:
            assert tomo_mle(row, acq, fits) is tomo_mle(row.astype(float), list(acq), fits)
        assert len(fit_count) == 3

    def test_fit_rows_stores_each_rows_error(self, post_tomography_records, fit_count, monkeypatch):
        counts, acq = tomo_counts(post_tomography_records)
        unnormalized = counts.copy()
        unnormalized[estimators._NORMALIZATION_IDX] = 0
        monkeypatch.setattr(estimators, "_NEWTON_MAX_STEPS", 1)
        fits = {}
        estimators.fit_rows([counts, unnormalized], acq, fits)
        assert len(fit_count) == 1  # tomo_mle rejects the second row before fitting
        for _ in range(2):
            with pytest.raises(EstimationError, match="did not converge in 1 Newton steps"):
                tomo_mle(counts, acq, fits)
        with pytest.raises(EstimationError, match="normalization group"):
            tomo_mle(unnormalized, acq, fits)
        assert len(fit_count) == 1


def _batch_fits(rows, acq) -> list:
    """Each row's tomo_mle answer, or its EstimationError, after fit_rows fitted them as one batch."""
    fits, answers = {}, []
    estimators.fit_rows(rows, acq, fits)
    for row in rows:
        try:
            answers.append(tomo_mle(row, acq, fits))
        except EstimationError as exc:
            answers.append(exc)
    return answers


def _mixed_rows(rng, size: int) -> list:
    """Tomography counts of random states of mixed rank, from 5 to 1e6 counts per group."""
    return [
        tomo_counts(
            poisson_records(
                random_density_matrix(rng, rank=int(rng.integers(1, 5))),
                10 ** rng.uniform(np.log10(5.0), 6.0),
                rng,
            )
        )[0]
        for _ in range(size)
    ]


class TestBatchedNewton:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), size=st.integers(2, 10))
    def test_every_row_reaches_the_optimum_or_fails_alone(self, seed, size):
        """Rows of mixed rank and count level, from 5 to 1e6 counts per group."""
        rows, acq = _mixed_rows(np.random.default_rng(seed), size), np.ones(16)
        for counts, fit in zip(rows, _batch_fits(rows, acq)):
            if isinstance(fit, EstimationError):
                continue
            assert np.linalg.eigvalsh(fit).min() >= -1e-12
            assert optimality_gap(fit, counts, acq) < GAP_BOUND

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), size=st.integers(2, 10), data=st.data())
    def test_a_rows_fit_does_not_depend_on_its_batch(self, seed, size, data):
        """Each row's state, or its error message, is bit for bit the same whether its
        batch is fitted whole, split at a drawn index, or one row at a time."""
        rows, acq = _mixed_rows(np.random.default_rng(seed), size), np.ones(16)
        split = data.draw(st.integers(1, size - 1), label="split")

        def answers(batches):
            fits = [fit for batch in batches for fit in _batch_fits(batch, acq)]
            return [str(f) if isinstance(f, EstimationError) else f.tobytes() for f in fits]

        whole = answers([rows])
        assert answers([rows[:split], rows[split:]]) == whole
        assert answers([[row] for row in rows]) == whole

    def test_a_capped_row_leaves_the_other_rows_unchanged(self, post_tomography_records, monkeypatch):
        counts, acq = tomo_counts(post_tomography_records)
        rng = np.random.default_rng(11)
        rows = [rng.poisson(counts) for _ in range(6)]
        # 190-410 steps; the uniform acquisition times leave its exposures as they are
        rows.insert(2, np.array(SWEEP_COUNTS[393.16]))
        uncapped = _batch_fits(rows, acq)
        assert not any(isinstance(fit, EstimationError) for fit in uncapped)
        monkeypatch.setattr(estimators, "_NEWTON_MAX_STEPS", 60)
        capped = _batch_fits(rows, acq)
        assert "did not converge in 60 Newton steps" in str(capped.pop(2))
        del uncapped[2]
        assert all(np.array_equal(a, b) for a, b in zip(capped, uncapped))


class TestChshE:
    def test_perfect_correlation(self):
        assert chsh_E(500, 0, 0, 500) == 1.0

    def test_no_correlation(self):
        assert chsh_E(250, 250, 250, 250) == 0.0

    def test_zero_total_rejected(self):
        with pytest.raises(EstimationError):
            chsh_E(0, 0, 0, 0)

    @staticmethod
    def _born_e_matrix(rho, angles):
        """The E matrix of the Born probabilities at chsh_settings(angles)."""
        return chsh_e_matrix(born_probabilities(rho, chsh_settings(angles))[0])

    def test_analytic_bell_at_standard_angles(self):
        e = self._born_e_matrix(bell_psi_plus(), (0.0, np.pi / 8, 0.0, np.pi / 8))
        assert e[0, 0] == pytest.approx(-np.sqrt(2) / 2, abs=1e-12)

    def test_analytic_closed_form(self, rng):
        # E = -cos(2(t1 + t2)) on the ideal state
        for _ in range(20):
            t1, t2 = rng.uniform(0, np.pi, 2)
            e = self._born_e_matrix(bell_psi_plus(), (t1, t2, t1, t2))
            assert e[0, 0] == pytest.approx(-np.cos(2 * (t1 + t2)), abs=1e-12)

    def test_settings_follow_the_label_layout(self):
        labels, arm1, arm2 = chsh_settings(CHSH_ANGLES)
        assert list(labels) == list(estimators.CHSH_LABELS)
        t1, t2, t1p, t2p = CHSH_ANGLES
        # chsh:10:pm is theta1' on arm 1 and the port orthogonal to theta2 on arm 2
        pm = estimators.CHSH_LABELS.index("chsh:10:pm")
        assert np.array_equal(arm1[pm], ket_linear(t1p))
        assert np.array_equal(arm2[pm], ket_linear(t2 + np.pi / 2))

    @staticmethod
    def _chsh_records(acquisition_s=1.0):
        """One record per CHSH label, in CHSH_LABELS order, with coincidences 10, 11, ..., 25."""
        return [
            CountRecord(label, 100, 100, 10 + k, 0, acquisition_s, 0)
            for k, label in enumerate(estimators.CHSH_LABELS)
        ]

    def test_counts_are_in_label_order_whatever_the_record_order(self, rng):
        records = self._chsh_records()
        shuffled = [records[k] for k in rng.permutation(16)]
        counts = chsh_counts(shuffled)
        assert counts.dtype == float
        assert np.array_equal(counts, np.arange(10.0, 26.0))

    def test_a_missing_label_is_named(self):
        records = self._chsh_records()
        del records[5]
        with pytest.raises(ValidationError, match=estimators.CHSH_LABELS[5]):
            chsh_counts(records)

    def test_unequal_acquisition_times_are_rejected(self):
        records = self._chsh_records()
        records[3] = replace(records[3], acquisition_s=100.0)
        with pytest.raises(ValidationError, match=r"one acquisition_s, got \[1.0, 100.0\]"):
            chsh_counts(records)


class TestAlphaCounts:
    RECORDS = [
        CountRecord("alpha:post:b", 900, 300, 30, 2, 10.0, 7),
        CountRecord("alpha:post:a", 900, 310, 40, 2, 10.0, 7),
    ]

    def test_each_count_is_read_from_its_port_in_any_order(self):
        want = {"n1": 900, "n12": 40, "n13": 30, "n123": 2}
        assert alpha_counts(self.RECORDS) == alpha_counts(self.RECORDS[::-1]) == want

    @pytest.mark.parametrize("records", [RECORDS[:1], RECORDS * 2, [RECORDS[0]] * 2])
    def test_anything_but_one_record_per_port_is_rejected(self, records):
        with pytest.raises(ValidationError, match="one record per port"):
            alpha_counts(records)


class TestChshS:
    def test_bell_reaches_tsirelson(self):
        s_bell = chsh_S_analytic(bell_psi_plus(), CHSH_ANGLES)
        assert s_bell == pytest.approx(2 * np.sqrt(2), abs=1e-9)

    def test_maximally_mixed_zero(self):
        assert chsh_S_analytic(maximally_mixed(), CHSH_ANGLES) == pytest.approx(0.0, abs=1e-12)

    def test_never_exceeds_four(self, rng):
        for _ in range(200):
            e = rng.uniform(-1, 1, size=(2, 2))
            assert chsh_S(e) <= 4.0 + 1e-12

    def test_arm_exchange_invariance(self, rng):
        for _ in range(100):
            e = rng.uniform(-1, 1, size=(2, 2))
            assert chsh_S(e) == pytest.approx(chsh_S(e.T), abs=1e-12)

    def test_separable_states_respect_classical_bound(self, rng):
        for _ in range(50):
            # random mixture of product states
            rho = np.zeros((4, 4), dtype=complex)
            weights = rng.dirichlet(np.ones(4))
            for w in weights:
                a = random_pure_ket(rng)[:2]
                b = random_pure_ket(rng)[:2]
                a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
                v = np.kron(a, b)
                rho += w * np.outer(v, v.conj())
            state = physical(rho / np.trace(rho).real)
            assert chsh_S_analytic(state, CHSH_ANGLES) <= 2.0 + 1e-9

    def test_literal_formula_reported(self):
        e = np.array([[-0.7, 0.7], [0.7, 0.7]])
        assert chsh_S_literal(e) == pytest.approx(abs(-0.7 - 0.7 + 0.7 + 0.7))
        assert chsh_S(e) == pytest.approx(2.8)

    def test_werner_scaling(self):
        w = 0.85
        rho = physical(w * bell_psi_plus() + (1 - w) * np.eye(4) / 4)
        s_werner = chsh_S_analytic(rho, CHSH_ANGLES)
        assert s_werner == pytest.approx(w * 2 * np.sqrt(2), abs=1e-10)


class TestVisibilityFit:
    def _fringe(self, thetas, b, v, phi0):
        return b * (1.0 + v * np.cos(4 * thetas - phi0))

    def test_noiseless_full_visibility(self):
        thetas = np.linspace(0, np.pi / 2, 16)
        counts = self._fringe(thetas, 500.0, 1.0, 0.3)
        res = visibility_fit(list(zip(thetas, counts)), n_resamples=100)
        assert res.estimate.value == pytest.approx(1.0, abs=1e-6)
        assert res.nonclassical

    def test_planted_parameters_recovered(self):
        thetas = np.linspace(0, np.pi / 2, 16)
        counts = self._fringe(thetas, 433.0, 0.62, -0.8)
        res = visibility_fit(list(zip(thetas, counts)), n_resamples=100)
        assert res.estimate.value == pytest.approx(0.62, abs=1e-9)
        assert res.baseline == pytest.approx(433.0, rel=1e-9)
        assert res.phase == pytest.approx(-0.8, abs=1e-9)

    def test_too_few_points_rejected(self):
        thetas = np.linspace(0, np.pi / 2, 6)
        with pytest.raises(ValidationError):
            visibility_fit(list(zip(thetas, self._fringe(thetas, 100, 0.5, 0))))

    def test_span_must_cover_period(self):
        thetas = np.linspace(0, np.pi / 8, 10)
        with pytest.raises(ValidationError):
            visibility_fit(list(zip(thetas, self._fringe(thetas, 100, 0.5, 0))))

    def test_sweep_that_cannot_resolve_the_fringe_rejected(self):
        """Seven angles at 0 and one at pi/2 span a period, but the design has rank 1."""
        thetas = [0.0] * 7 + [np.pi / 2]
        with pytest.raises(ValidationError, match="rank 1 < 3"):
            visibility_fit([(t, 100.0) for t in thetas])
        with pytest.raises(ValidationError, match="rank 1 < 3"):
            visibility_analytic(bell_psi_plus(), "A", thetas)

    def test_all_zero_counts_rejected(self):
        thetas = np.linspace(0, np.pi / 2, 12)
        with pytest.raises(EstimationError):
            visibility_fit([(float(t), 0.0) for t in thetas])

    def test_fringe_settings_analyze_twice_the_hwp_angle(self):
        thetas = np.linspace(0, np.pi / 2, 16)
        labels, _, arm2 = fringe_settings("A", thetas)
        assert list(labels) == [f"vis:A:{k}" for k in range(16)]
        for theta, k in zip(thetas, arm2):
            assert np.array_equal(k, ket_linear(2 * theta))

    @pytest.mark.parametrize("w", [1.0, 0.85, 0.3])
    def test_analytic_visibility_of_werner_state(self, w):
        thetas = MeasurementPlan().visibility_thetas
        rho = physical(w * bell_psi_plus() + (1 - w) * np.eye(4) / 4)
        assert visibility_analytic(rho, "A", thetas) == pytest.approx(w, abs=1e-12)

    def test_analytic_visibility_is_the_fit_of_born_counts(self, rng):
        thetas = MeasurementPlan().visibility_thetas
        for _ in range(5):
            rho = random_density_matrix(rng)
            counts = 1e6 * born_probabilities(rho, fringe_settings("D", thetas))[0]
            fit = visibility_fit(list(zip(thetas, counts)), n_resamples=100)
            assert visibility_analytic(rho, "D", thetas) == pytest.approx(
                fit.estimate.value, rel=1e-12
            )

    @staticmethod
    def _lstsq_bootstrap(thetas, counts, n_resamples, seed):
        """Reference: (sigma, failed resamples) of one lstsq fit per resample."""
        design = np.column_stack([np.ones_like(thetas), np.cos(4 * thetas), np.sin(4 * thetas)])
        vs = []
        for k in range(n_resamples):
            resampled = derive_rng(seed, "visibility", k).poisson(counts).astype(float)
            (a0, a1, a2), *_ = np.linalg.lstsq(design, resampled, rcond=None)
            if a0 > 0:
                vs.append(min(np.hypot(a1, a2) / a0, 1.0))
        return float(np.std(vs)), n_resamples - len(vs)

    def test_bootstrap_matches_per_resample_lstsq(self):
        thetas = np.linspace(0, np.pi / 2, 16)
        counts = np.random.default_rng(8).poisson(self._fringe(thetas, 300.0, 0.8, 0.1))
        counts = counts.astype(float)
        res = visibility_fit(list(zip(thetas, counts)), 200, seed=11)
        sigma, failed = self._lstsq_bootstrap(thetas, counts, 200, 11)
        assert failed == 0
        assert res.estimate.sigma == pytest.approx(sigma, rel=1e-12)

    def test_non_positive_baseline_resamples_count_as_failed(self):
        thetas = np.linspace(0, np.pi / 2, 16)
        # Three counts in all: about e^-3 = 5% of the resamples are all zero (a0 = 0).
        sparse = np.zeros(16)
        sparse[[2, 9, 13]] = 1.0
        res = visibility_fit(list(zip(thetas, sparse)), n_resamples=200, seed=4)
        sigma, failed = self._lstsq_bootstrap(thetas, sparse, 200, 4)
        assert 0 < failed < 20
        assert res.estimate.sigma == pytest.approx(sigma, rel=1e-12)
        # One count: about e^-1 = 37% all zero, past the 10% guard.
        with pytest.raises(EstimationError, match="10%"):
            visibility_fit(list(zip(thetas, np.eye(16)[0])), n_resamples=200, seed=4)

    def test_bootstrap_timing(self, benchmark):
        """One 200-resample fringe bootstrap, timed by pytest-benchmark."""
        thetas = np.linspace(0, np.pi / 2, 16)
        points = list(zip(thetas, self._fringe(thetas, 300.0, 0.8, 0.1)))
        res = benchmark(visibility_fit, points, n_resamples=200)
        assert res.estimate.sigma > 0

    def test_coverage_of_planted_visibility(self):
        # 3-sigma coverage of the Monte-Carlo error bar, 95% over 500 trials
        rng = np.random.default_rng(5)
        thetas = np.linspace(0, np.pi / 2, 16)
        truth = self._fringe(thetas, 800.0, 0.82, 0.4)
        hits = 0
        b_errs, phi_errs = [], []
        for trial in range(500):
            noisy = rng.poisson(truth).astype(float)
            res = visibility_fit(list(zip(thetas, noisy)), n_resamples=100, seed=trial)
            if abs(res.estimate.value - 0.82) <= 3 * res.estimate.sigma:
                hits += 1
            b_errs.append(abs(res.baseline - 800.0) / 800.0)
            phi_errs.append(abs(res.phase - 0.4))
        assert hits >= 0.95 * 500
        assert np.mean(b_errs) < 0.02
        assert np.mean(phi_errs) < 0.05


class TestCauchySchwarz:
    def test_published_pre_storage_value(self):
        assert cauchy_schwarz_R(150.0, 1.2, 1.38) == pytest.approx(13587, abs=1.0)

    def test_published_post_storage_value(self):
        assert round(cauchy_schwarz_R(14.0, 1.2, 2.0)) == 82

    def test_coherent_boundary(self):
        r = cauchy_schwarz_R(1.0, 1.0, 1.0)
        assert r == 1.0
        assert not is_nonclassical_R(r)

    def test_nonpositive_autocorrelation_rejected(self):
        with pytest.raises(EstimationError):
            cauchy_schwarz_R(10.0, 0.0, 1.0)


class TestMcError:
    """mc_error calls its estimator once, on the (n_resamples, n) matrix of resamples."""

    def test_sqrt_n_oracle(self):
        est = mc_error(lambda rows: rows[:, 0], np.array([10000.0]), n_resamples=1000, seed=3)
        assert est.sigma == pytest.approx(100.0, rel=0.10)
        assert est.value == pytest.approx(10000.0, rel=0.01)

    def test_constant_estimator_zero_sigma(self):
        est = mc_error(lambda rows: np.full(len(rows), 7.5), np.array([100.0, 200.0]), 200, seed=1)
        assert est.sigma == 0.0
        assert est.value == 7.5

    def test_deterministic_per_seed(self):
        a = mc_error(lambda rows: rows.sum(axis=1), np.array([50.0, 60.0]), 200, seed=9)
        b = mc_error(lambda rows: rows.sum(axis=1), np.array([50.0, 60.0]), 200, seed=9)
        assert (a.value, a.sigma) == (b.value, b.sigma)

    def test_failure_fraction_guard(self):
        """A NaN row is a failed resample; more than 10% of them fail the estimate."""
        rows = np.array([derive_rng(2, "mc", k).poisson([1000.0]) for k in range(200)])
        even = int((rows[:, 0] % 2 == 0).sum())
        assert even > 20
        with pytest.raises(EstimationError, match=f"failed on {even}/200 Poisson resamples"):
            mc_error(lambda r: np.where(r[:, 0] % 2 == 0, np.nan, 1.0), np.array([1000.0]), 200, 2)

        def first_rows_fail(n):
            return lambda r: np.where(np.arange(len(r)) < n, np.nan, r[:, 0])

        est = mc_error(first_rows_fail(20), np.array([1000.0]), 200, seed=2)
        kept = rows[20:, 0].astype(float)
        assert (est.value, est.sigma) == (np.mean(kept), np.std(kept))
        with pytest.raises(EstimationError, match="failed on 21/200 Poisson resamples"):
            mc_error(first_rows_fail(21), np.array([1000.0]), 200, seed=2)

    def test_non_entmem_error_propagates(self):
        def broken(rows):
            raise RuntimeError("bug")

        with pytest.raises(RuntimeError, match="bug"):
            mc_error(broken, np.array([1000.0]), n_resamples=200, seed=2)

    def test_minimum_resamples_enforced(self):
        with pytest.raises(ValidationError):
            mc_error(lambda rows: np.zeros(len(rows)), np.array([1.0]), n_resamples=50)

    def test_estimator_gets_the_resample_matrix_once(self):
        counts = np.array([50.0, 60.0, 7.0])
        expected = np.array([derive_rng(9, "mc", k).poisson(counts) for k in range(200)])
        calls = []

        def estimator(rows):
            calls.append(rows.copy())
            return rows @ [1.0, 2.0, 3.0]

        est = mc_error(estimator, counts, 200, seed=9)
        assert len(calls) == 1 and np.array_equal(calls[0], expected)
        values = expected @ [1.0, 2.0, 3.0]
        assert (est.value, est.sigma) == (np.mean(values), np.std(values))
        with pytest.raises(ValidationError, match="for 200 resamples"):
            mc_error(lambda rows: 1.0, counts, 200, seed=9)


def _one_row(estimator, row):
    """estimator on one row: its value, or NaN where it raises EstimationError."""
    try:
        return estimator(row)
    except EstimationError:
        return np.nan


# References: each figure of one input as the per-resample loop computed it,
# with Python-int count arithmetic and one eigh and svd per matrix.


def _fidelity_loop(a, b) -> float:
    def sqrt(m):
        vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
        vals = np.where(vals > max(vals.max(), 0.0) * 1e-13, vals, 0.0)
        return (vecs * np.sqrt(vals)) @ vecs.conj().T

    if np.isnan(a).any() or np.isnan(b).any():
        return np.nan
    f = float(np.sum(np.linalg.svd(sqrt(a) @ sqrt(b), compute_uv=False)) ** 2)
    return min(max(f, 0.0), 1.0)


def _chsh_s_loop(counts) -> float:
    e = np.empty((2, 2))
    for i, j in np.ndindex(2, 2):
        pp, pm, mp, mm = (int(c) for c in counts[8 * i + 4 * j : 8 * i + 4 * j + 4])
        if pp + pm + mp + mm == 0:
            return np.nan
        e[i, j] = min(max((pp + mm - pm - mp) / (pp + pm + mp + mm), -1.0), 1.0)
    return float(max(abs(e.sum() - 2 * e[i, j]) for i, j in np.ndindex(2, 2)))


def _alpha_loop(counts, floor=0) -> float:
    n1, n12, n13, n123 = (int(c) for c in counts)
    n1, n12, n13 = max(n1, floor), max(n12, floor), max(n13, floor)
    return np.nan if n12 <= 0 or n13 <= 0 else n1 * n123 / (n12 * n13)


class TestStackedEstimators:
    """A stack of rows gives each row's one-row value and the per-resample loop's value
    bit for bit, NaN where the one-row form raises."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), size=st.integers(1, 12), one_sigma=st.booleans())
    def test_fidelity(self, seed, size, one_sigma):
        rng = np.random.default_rng(seed)

        def states(n):
            return np.array([random_density_matrix(rng, int(rng.integers(1, 5))) for _ in range(n)])

        rho, sigma = states(size), states(1 if one_sigma else size)
        rho[rng.random(size) < 0.3] = np.nan  # failed fits
        sigma[rng.random(len(sigma)) < 0.2] = np.nan
        sigma = sigma[0] if one_sigma else sigma
        pairs = list(zip(rho, np.broadcast_to(sigma, rho.shape)))
        stacked = fidelity(rho, sigma)
        assert np.array_equal(stacked, [_fidelity_loop(a, b) for a, b in pairs], equal_nan=True)
        assert np.array_equal(stacked, [fidelity(a, b) for a, b in pairs], equal_nan=True)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), size=st.integers(1, 12))
    def test_chsh(self, seed, size):
        rng = np.random.default_rng(seed)
        rows = rng.poisson(rng.uniform(0.0, 40.0, size=(size, 1)), size=(size, 16))
        rows[rng.random(size) < 0.3, 4:8] = 0  # no coincidences at an angle pair

        def s_of(counts):
            return chsh_S(chsh_e_matrix(counts))

        stacked = s_of(rows)
        assert np.array_equal(stacked, [_chsh_s_loop(r) for r in rows], equal_nan=True)
        assert np.array_equal(stacked, [_one_row(s_of, r) for r in rows], equal_nan=True)
        e = np.array([_one_row(lambda r: chsh_E(*r), r) for r in rows[:, :4]])
        assert np.array_equal(chsh_E(*rows[:, :4].T), e, equal_nan=True)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), size=st.integers(1, 12))
    def test_alpha(self, seed, size):
        rng = np.random.default_rng(seed)
        rows = rng.poisson([4e5, 200.0, 200.0, 2.0], size=(size, 4))
        rows[rng.random(size) < 0.3, rng.integers(1, 3)] = 0  # no two-fold coincidences
        stacked = heralded_alpha(*rows.T)
        assert np.array_equal(stacked, [_alpha_loop(r) for r in rows], equal_nan=True)
        one_row = [_one_row(lambda r: heralded_alpha(*r), r) for r in rows]
        assert np.array_equal(stacked, one_row, equal_nan=True)
        floored = alpha_from_counts(rows)  # never undefined
        assert np.array_equal(floored, [_alpha_loop(r, floor=1) for r in rows])
        assert np.array_equal(floored, [alpha_from_counts(r) for r in rows])


class TestEstimateWithError:
    def test_sigma_requires_enough_resamples(self):
        with pytest.raises(ValidationError):
            EstimateWithError(1.0, 0.1, 50)
        EstimateWithError(1.0, 0.0, 0)  # zero sigma always fine
        EstimateWithError(1.0, 0.1, 100)
