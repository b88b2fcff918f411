from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entmem.estimators as estimators
import entmem.pipeline as pipeline
from conftest import random_density_matrix, random_pure_ket
from entmem.calibrate import calibrate
from entmem.detection import CountRecord, projection_probability
from entmem.errors import ConfigurationError, EstimationError, ValidationError
from entmem.estimators import (
    CHSH_ANGLES,
    EstimateWithError,
    TomographySettingSet,
    cauchy_schwarz_R,
    chsh_E,
    chsh_E_analytic,
    chsh_S,
    chsh_S_analytic,
    chsh_S_literal,
    is_nonclassical_R,
    mc_error,
    tomo_counts,
    tomo_linear,
    tomo_log_likelihood,
    tomo_mle,
    visibility_fit,
    _neg_log_likelihood,
    _clamped_physical,
    _lower_cholesky_factor,
    _params_from_t,
)
from entmem.qstate import (
    TwoQubitState,
    bell_psi_plus,
    fidelity,
    ket_h,
    ket_v,
    tensor_product,
    trace_distance,
)
from entmem.rng import derive_rng
from entmem.scenario import load_bundled_scenario

SETTINGS = TomographySettingSet.standard()


def exact_records(rho: TwoQubitState, n_per_group: float = 1e6) -> list[CountRecord]:
    """Records whose frequencies are the exact Born probabilities."""
    out = []
    for s in SETTINGS.settings:
        p = projection_probability(rho, s)
        out.append(
            CountRecord(
                setting_label=s.label,
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
    for s in SETTINGS.settings:
        p = projection_probability(rho, s)
        c = int(rng.poisson(p * n_per_group))
        out.append(
            CountRecord(s.label, int(10 * n_per_group), int(10 * n_per_group), c, 0, 1.0, 0)
        )
    return out


class TestTomographySettingSet:
    def test_sixteen_settings_spanning(self):
        assert len(SETTINGS.settings) == 16
        labels = {s.label for s in SETTINGS.settings}
        assert labels == {a + b for a in "HVDR" for b in "HVDR"}

    def test_duplicate_settings_rejected(self):
        dup = tuple(list(SETTINGS.settings[:15]) + [SETTINGS.settings[0]])
        with pytest.raises(ConfigurationError):
            TomographySettingSet(dup)


class TestTomoLinear:
    def test_recovers_basis_state(self):
        rho = tensor_product(ket_h(), ket_v())
        est = tomo_linear(*tomo_counts(exact_records(rho)))
        assert np.max(np.abs(est - rho.rho)) < 1e-10

    def test_recovers_bell_state(self):
        rho = bell_psi_plus()
        est = tomo_linear(*tomo_counts(exact_records(rho)))
        assert np.max(np.abs(est - rho.rho)) < 1e-10

    def test_recovers_maximally_mixed(self):
        rho = TwoQubitState.maximally_mixed()
        est = tomo_linear(*tomo_counts(exact_records(rho)))
        assert np.max(np.abs(est - rho.rho)) < 1e-10

    def test_hermitian_unit_trace(self, rng):
        rho = random_density_matrix(rng)
        est = tomo_linear(*tomo_counts(exact_records(rho, 1e9)))
        assert np.max(np.abs(est - est.conj().T)) < 1e-12
        assert np.trace(est).real == pytest.approx(1.0, abs=1e-9)

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
        t = _lower_cholesky_factor(rho.rho)
        assert np.allclose(t, np.tril(t))
        assert np.max(np.abs(t.conj().T @ t - rho.rho)) < 1e-10

    def test_noiseless_bell_reconstruction(self):
        est = tomo_mle(*tomo_counts(exact_records(bell_psi_plus(), 1e6)))
        assert fidelity(est, bell_psi_plus()) > 0.9999

    def test_maximally_mixed_purity(self):
        est = tomo_mle(*tomo_counts(exact_records(TwoQubitState.maximally_mixed(), 1e6)))
        assert est.purity() < 0.26

    def test_reconstruction_consistency_random_states(self, rng):
        for _ in range(10):
            rho = random_density_matrix(rng)
            est = tomo_mle(*tomo_counts(exact_records(rho, 1e9)))
            assert trace_distance(est.rho, rho.rho) < 1e-6

    def test_likelihood_beats_clamped_linear_inversion(self, rng):
        rho = random_density_matrix(rng)
        data = tomo_counts(poisson_records(rho, 3e3, rng))
        lin = tomo_linear(*data)
        est = tomo_mle(*data, init=lin)
        ll_mle = tomo_log_likelihood(est.rho, *data)
        ll_lin = tomo_log_likelihood(_clamped_physical(lin), *data)
        assert ll_mle >= ll_lin - 1e-6

    def test_output_physical_on_noisy_counts(self, rng):
        for _ in range(5):
            rho = random_density_matrix(rng, rank=2)
            est = tomo_mle(*tomo_counts(poisson_records(rho, 500, rng)))
            vals = np.linalg.eigvalsh(est.rho)
            assert vals.min() >= -1e-12
            assert np.trace(est.rho).real == pytest.approx(1.0, abs=1e-10)


@pytest.fixture(scope="module")
def calibrated():
    scenario, _ = calibrate(load_bundled_scenario())
    return scenario


@pytest.fixture(scope="module")
def post_tomography_records(calibrated):
    """The tomography records `entmem simulate` writes for the post-storage stage."""
    fast = replace(calibrated, plan=replace(calibrated.plan, error_bars=False))
    return pipeline.run_experiment(fast, "post_storage").records["tomography"]


def lbfgs_results(monkeypatch, newton: bool = True):
    """Record every L-BFGS-B result; without newton, every fit takes that fallback."""
    results = []

    def counted(*args, **kwargs):
        results.append(minimize(*args, **kwargs))
        return results[-1]

    minimize = estimators.minimize
    monkeypatch.setattr(estimators, "minimize", counted)
    if not newton:
        monkeypatch.setattr(estimators, "_newton_fit", lambda *args, **kwargs: None)
    return results


class TestNewtonSolver:
    def test_likelihood_at_least_lbfgs_on_bundled_resamples(
        self, post_tomography_records, monkeypatch
    ):
        rng = np.random.default_rng(4)
        resamples = [
            [replace(r, coincidences=int(rng.poisson(r.coincidences))) for r in post_tomography_records]
            for _ in range(50)
        ]
        fallback_runs = lbfgs_results(monkeypatch)
        resamples = [tomo_counts(recs) for recs in resamples]
        newton = [tomo_log_likelihood(tomo_mle(*data).rho, *data) for data in resamples]
        assert fallback_runs == []
        lbfgs_results(monkeypatch, newton=False)
        for data, ll_newton in zip(resamples, newton):
            ll_lbfgs = tomo_log_likelihood(tomo_mle(*data).rho, *data)
            assert -ll_newton <= -ll_lbfgs + 1e-9 * abs(ll_lbfgs)

    def test_non_converged_newton_falls_back_to_lbfgs(
        self, post_tomography_records, monkeypatch
    ):
        newton = tomo_mle(*tomo_counts(post_tomography_records))
        results = lbfgs_results(monkeypatch, newton=False)
        fallback = tomo_mle(*tomo_counts(post_tomography_records))
        assert len(results) >= 1
        best = min(results, key=lambda res: res.fun)
        m = estimators._t_from_params(best.x)
        expected = m.conj().T @ m
        assert np.max(np.abs(fallback.rho - expected / np.trace(expected).real)) < 1e-12
        assert trace_distance(fallback.rho, newton.rho) < 1e-5

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

    def test_cholesky_step_equals_eigh_step(self, rng):
        for _ in range(20):
            a = rng.normal(size=(16, 16))
            h = a @ a.T + 0.1 * np.eye(16)
            g = rng.normal(size=16)
            vals, vecs = np.linalg.eigh(h)
            eigh_step = -vecs @ ((vecs.T @ g) / vals)
            step, definite = estimators._newton_step(h, g)
            assert definite
            assert np.max(np.abs(step - eigh_step)) <= 1e-12 * np.max(np.abs(eigh_step))

    def test_indefinite_hessian_takes_shifted_eigh_step(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
        vals = np.linspace(-2.0, 5.0, 16)
        g = rng.normal(size=16)
        step, definite = estimators._newton_step((q * vals) @ q.T, g)
        assert not definite
        shifted = vals + (1e-12 * 5.0 - 2 * vals.min())
        expected = -q @ ((q.T @ g) / shifted)
        assert np.max(np.abs(step - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert g @ step < 0

    def test_fit_from_indefinite_first_hessian_at_least_lbfgs(self, rng, monkeypatch):
        """Exact rank-1 data fitted from the maximally mixed state."""
        counts, acq = tomo_counts(exact_records(random_density_matrix(rng, rank=1), 1e6))
        definite = []
        newton_step = estimators._newton_step

        def recorded(h, g):
            step, ok = newton_step(h, g)
            definite.append(ok)
            return step, ok

        monkeypatch.setattr(estimators, "_newton_step", recorded)
        fallback_runs = lbfgs_results(monkeypatch)
        newton = tomo_mle(counts, acq, init=np.eye(4) / 4)
        assert not definite[0] and fallback_runs == []
        lbfgs_results(monkeypatch, newton=False)
        lbfgs = tomo_mle(counts, acq, init=np.eye(4) / 4)
        ll_newton = tomo_log_likelihood(newton.rho, counts, acq)
        ll_lbfgs = tomo_log_likelihood(lbfgs.rho, counts, acq)
        assert -ll_newton <= -ll_lbfgs + 1e-9 * abs(ll_lbfgs)

    def test_single_fit_timing(self, post_tomography_records, benchmark):
        """One fit on the bundled post-storage records, timed by pytest-benchmark."""
        state = benchmark(tomo_mle, *tomo_counts(post_tomography_records))
        assert state.purity() > 0.5


class TestChshE:
    def test_perfect_correlation(self):
        assert chsh_E(500, 0, 0, 500) == 1.0

    def test_no_correlation(self):
        assert chsh_E(250, 250, 250, 250) == 0.0

    def test_zero_total_rejected(self):
        with pytest.raises(EstimationError):
            chsh_E(0, 0, 0, 0)

    def test_analytic_bell_at_standard_angles(self):
        e = chsh_E_analytic(bell_psi_plus(), 0.0, np.pi / 8)
        assert e == pytest.approx(-np.sqrt(2) / 2, abs=1e-12)

    def test_analytic_closed_form(self, rng):
        # E = -cos(2(t1 + t2)) on the ideal state
        for _ in range(20):
            t1, t2 = rng.uniform(0, np.pi, 2)
            e = chsh_E_analytic(bell_psi_plus(), t1, t2)
            assert e == pytest.approx(-np.cos(2 * (t1 + t2)), abs=1e-12)


class TestChshS:
    def test_bell_reaches_tsirelson(self):
        assert chsh_S_analytic(bell_psi_plus()) == pytest.approx(2 * np.sqrt(2), abs=1e-9)

    def test_maximally_mixed_zero(self):
        assert chsh_S_analytic(TwoQubitState.maximally_mixed()) == pytest.approx(0.0, abs=1e-12)

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
            state = TwoQubitState(rho / np.trace(rho).real)
            assert chsh_S_analytic(state) <= 2.0 + 1e-9

    def test_literal_formula_reported(self):
        e = np.array([[-0.7, 0.7], [0.7, 0.7]])
        assert chsh_S_literal(e) == pytest.approx(abs(-0.7 - 0.7 + 0.7 + 0.7))
        assert chsh_S(e) == pytest.approx(2.8)

    def test_werner_scaling(self):
        w = 0.85
        rho = TwoQubitState(w * bell_psi_plus().rho + (1 - w) * np.eye(4) / 4)
        assert chsh_S_analytic(rho) == pytest.approx(w * 2 * np.sqrt(2), abs=1e-10)


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

    def test_all_zero_counts_rejected(self):
        thetas = np.linspace(0, np.pi / 2, 12)
        with pytest.raises(EstimationError):
            visibility_fit([(float(t), 0.0) for t in thetas])

    def test_poisson_weighted_fit_option(self):
        rng = np.random.default_rng(12)
        thetas = np.linspace(0, np.pi / 2, 16)
        counts = rng.poisson(self._fringe(thetas, 900.0, 0.75, 0.2)).astype(float)
        plain = visibility_fit(list(zip(thetas, counts)), n_resamples=100)
        weighted = visibility_fit(
            list(zip(thetas, counts)), poisson_weights=True, n_resamples=100
        )
        assert plain.estimate.value == pytest.approx(0.75, abs=0.05)
        assert weighted.estimate.value == pytest.approx(0.75, abs=0.05)
        assert weighted.estimate.value != plain.estimate.value

    @staticmethod
    def _lstsq_bootstrap(thetas, counts, weights, n_resamples, seed):
        """Reference: (sigma, failed resamples) of one lstsq fit per resample."""
        w = np.sqrt(weights)
        design = np.column_stack([np.ones_like(thetas), np.cos(4 * thetas), np.sin(4 * thetas)])
        vs = []
        for k in range(n_resamples):
            resampled = derive_rng(seed, "visibility", k).poisson(counts).astype(float)
            (a0, a1, a2), *_ = np.linalg.lstsq(design * w[:, None], resampled * w, rcond=None)
            if a0 > 0:
                vs.append(min(np.hypot(a1, a2) / a0, 1.0))
        return float(np.std(vs)), n_resamples - len(vs)

    @pytest.mark.parametrize("poisson_weights", [False, True])
    def test_bootstrap_matches_per_resample_lstsq(self, poisson_weights):
        thetas = np.linspace(0, np.pi / 2, 16)
        counts = np.random.default_rng(8).poisson(self._fringe(thetas, 300.0, 0.8, 0.1))
        counts = counts.astype(float)
        weights = 1.0 / np.clip(counts, 1.0, None) if poisson_weights else np.ones(16)
        res = visibility_fit(list(zip(thetas, counts)), poisson_weights, 200, seed=11)
        sigma, failed = self._lstsq_bootstrap(thetas, counts, weights, 200, 11)
        assert failed == 0
        assert res.estimate.sigma == pytest.approx(sigma, rel=1e-12)

    def test_non_positive_baseline_resamples_count_as_failed(self):
        thetas = np.linspace(0, np.pi / 2, 16)
        # Three counts in all: about e^-3 = 5% of the resamples are all zero (a0 = 0).
        sparse = np.zeros(16)
        sparse[[2, 9, 13]] = 1.0
        res = visibility_fit(list(zip(thetas, sparse)), n_resamples=200, seed=4)
        sigma, failed = self._lstsq_bootstrap(thetas, sparse, np.ones(16), 200, 4)
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
    def test_sqrt_n_oracle(self):
        est = mc_error(lambda c: float(c[0]), np.array([10000.0]), n_resamples=1000, seed=3)
        assert est.sigma == pytest.approx(100.0, rel=0.10)
        assert est.value == pytest.approx(10000.0, rel=0.01)

    def test_constant_estimator_zero_sigma(self):
        est = mc_error(lambda c: 7.5, np.array([100.0, 200.0]), n_resamples=200, seed=1)
        assert est.sigma == 0.0
        assert est.value == 7.5

    def test_deterministic_per_seed(self):
        a = mc_error(lambda c: float(c.sum()), np.array([50.0, 60.0]), 200, seed=9)
        b = mc_error(lambda c: float(c.sum()), np.array([50.0, 60.0]), 200, seed=9)
        assert (a.value, a.sigma) == (b.value, b.sigma)

    def test_failure_fraction_guard(self):
        def flaky(counts):
            if counts[0] % 2 == 0:
                raise EstimationError("boom")
            return 1.0

        with pytest.raises(EstimationError):
            mc_error(flaky, np.array([1000.0]), n_resamples=200, seed=2)

    def test_non_entmem_error_propagates(self):
        def broken(counts):
            raise RuntimeError("bug")

        with pytest.raises(RuntimeError, match="bug"):
            mc_error(broken, np.array([1000.0]), n_resamples=200, seed=2)

    def test_minimum_resamples_enforced(self):
        with pytest.raises(ValidationError):
            mc_error(lambda c: 0.0, np.array([1.0]), n_resamples=50)


class TestEstimateWithError:
    def test_sigma_requires_enough_resamples(self):
        with pytest.raises(ValidationError):
            EstimateWithError(1.0, 0.1, 50)
        EstimateWithError(1.0, 0.0, 0)  # zero sigma always fine
        EstimateWithError(1.0, 0.1, 100)
