import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from entmem.calibrate import DEFAULT_TARGETS, analytic_visibility, calibrate
from entmem.detection import records_from_csv
from entmem.errors import CalibrationError, EstimationError, ValidationError
from entmem.estimators import EstimateWithError
from entmem.experiment import balanced_state, memory_efficiency, stage_state
from entmem.pipeline import report_emit, run_experiment, stage_report
from entmem.qstate import bell_psi_plus, fidelity
from entmem.scenario import classicalize, load_bundled_scenario, scenario_to_dict


@pytest.fixture(scope="module")
def calibrated():
    scenario, _ = calibrate(load_bundled_scenario())
    return scenario


@pytest.fixture(scope="module")
def fast(calibrated):
    return replace(calibrated, plan=replace(calibrated.plan, error_bars=False))


class TestCalibrate:
    def test_default_targets_all_within_residual(self, calibrated):
        _, report = calibrate(load_bundled_scenario())
        for name, entry in report.items():
            if name == "checks":
                continue
            assert entry["residual"] < 0.01, f"{name} residual {entry['residual']}"
            assert not entry["flagged"]

    def test_eit_window_hits_20mhz(self, calibrated):
        from entmem.memory import transparency_window_fwhm

        fwhm = transparency_window_fwhm(calibrated.eit)
        assert abs(fwhm - 20.0) < 0.2

    def test_storage_efficiency_hits_6pct(self, calibrated):
        assert memory_efficiency(calibrated, 100.0) == pytest.approx(0.06, abs=6e-4)

    def test_degenerate_eta_target_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate(load_bundled_scenario(), {"eta_100ns": 1.5})

    def test_unreachable_eta_target_names_parameter(self):
        with pytest.raises(CalibrationError) as err:
            calibrate(load_bundled_scenario(), {"eta_100ns": 0.5})
        assert err.value.parameter == "tau_mem"

    def test_unknown_target_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate(load_bundled_scenario(), {"bogus": 1.0})

    def test_fidelity_target_variant(self):
        scenario, report = calibrate(
            load_bundled_scenario(), {"F_pre": 0.881}
        )
        rho, _ = balanced_state(scenario)
        assert fidelity(rho, bell_psi_plus()) == pytest.approx(0.881, abs=1e-6)

    def test_visibility_target_sets_analytic_visibility(self, calibrated):
        rho, _ = balanced_state(calibrated)
        assert analytic_visibility(rho, "A") == pytest.approx(0.883, abs=1e-6)

    def test_checks_reported(self, calibrated):
        _, report = calibrate(load_bundled_scenario())
        checks = report["checks"]
        assert 0.02 <= checks["alpha_pre"] <= 0.06
        assert 2.37 <= checks["S_pre_analytic"] <= 2.61

    def test_alpha_pre_as_sole_pair_target(self):
        scenario, report = calibrate(
            load_bundled_scenario(),
            {"alpha_pre": 0.04},
        )
        assert report["alpha_pre"]["residual"] < 0.01
        from entmem.detection import heralded_alpha
        from entmem.experiment import model_alpha

        assert heralded_alpha(*model_alpha(scenario, "pre_storage")) == pytest.approx(
            0.04, rel=0.01
        )

    def test_alpha_pre_alongside_g2_pre_is_check_only(self):
        _, report = calibrate(
            load_bundled_scenario(),
            {"g2_pre": 130.0, "alpha_pre": 0.04},
        )
        assert report["alpha_pre"].get("check_only")
        assert report["alpha_pre"]["flagged"]  # model links it to g2_pre


class TestStageStates:
    def test_pre_storage_bypasses_memory(self, calibrated):
        rho_pre, eta = stage_state(calibrated, "pre_storage")
        assert eta == 1.0

    def test_post_storage_eta_matches_memory(self, calibrated):
        _, eta = stage_state(calibrated, "post_storage")
        assert eta == pytest.approx(memory_efficiency(calibrated), abs=1e-12)

    def test_post_storage_less_entangled(self, calibrated):
        pre, _ = stage_state(calibrated, "pre_storage")
        post, _ = stage_state(calibrated, "post_storage")
        bell = bell_psi_plus()
        assert fidelity(post, bell) < fidelity(pre, bell)


class TestRunExperiment:
    def test_stage_validation(self, fast):
        with pytest.raises(ValidationError):
            run_experiment(fast, "mid_storage")

    def test_pre_storage_estimates_in_paper_bands(self, fast):
        res = run_experiment(fast, "pre_storage")
        assert 0.829 <= res.fidelity.value <= 0.933
        assert 2.37 - 0.05 <= res.chsh_S.value <= 2.61 + 0.05
        assert 0.829 - 0.03 <= res.visibility.estimate.value <= 0.937 + 0.03
        assert res.visibility.nonclassical
        assert res.cauchy_schwarz["nonclassical"]

    def test_post_storage_estimates_in_paper_bands(self, fast):
        res = run_experiment(fast, "post_storage")
        assert 0.80 <= res.fidelity.value <= 0.976
        assert res.fidelity_reference == "pre_storage_mle"
        assert 9.8 <= res.g2_peak <= 18.2
        assert res.eta == pytest.approx(0.06, abs=1e-3)

    def test_determinism_bit_exact(self, fast):
        a = run_experiment(fast, "pre_storage")
        b = run_experiment(fast, "pre_storage")
        assert a.fidelity.value == b.fidelity.value
        assert a.chsh_S.value == b.chsh_S.value
        assert np.array_equal(a.g2_hist.counts, b.g2_hist.counts)
        ra = [r for recs in a.records.values() for r in recs]
        rb = [r for recs in b.records.values() for r in recs]
        assert ra == rb

    def test_different_seeds_differ(self, fast):
        a = run_experiment(fast, "pre_storage")
        b = run_experiment(replace(fast, master_seed=fast.master_seed + 1), "pre_storage")
        assert a.fidelity.value != b.fidelity.value

    def test_post_stage_reuses_pre_stage_reconstruction(self, fast):
        # the F2 reference inside the post run must be the same matrix the
        # standalone pre run reconstructs (same derived seeds)
        pre = run_experiment(fast, "pre_storage")
        post = run_experiment(fast, "post_storage")
        f_cross = fidelity(post.rho_mle, pre.rho_mle)
        assert post.fidelity.value == pytest.approx(f_cross, abs=1e-12)

    def test_expected_sampling_mode(self, fast):
        res = run_experiment(fast, "pre_storage", sampling="expected")
        # expected counts carry no Poisson noise: estimates sit at the model
        assert res.chsh_S.value == pytest.approx(2.497, abs=0.02)
        assert res.visibility.estimate.value == pytest.approx(0.883, abs=0.01)

    def test_depolarization_monotonicity_harness(self, fast):
        # increasing p_depol strictly decreases reported F_post and S_post
        fvals, svals = [], []
        for pd in (0.02, 0.06, 0.10, 0.14, 0.18):
            scn = replace(fast, mem_noise=replace(fast.mem_noise, p_depol=pd))
            res = run_experiment(scn, "post_storage", sampling="expected")
            fvals.append(res.fidelity.value)
            svals.append(res.chsh_S.value)
        assert all(a > b for a, b in zip(fvals, fvals[1:])), fvals
        assert all(a > b for a, b in zip(svals, svals[1:])), svals

    def test_error_bars_populated_when_enabled(self, calibrated):
        scn = replace(
            calibrated,
            plan=replace(calibrated.plan, n_resamples=100, error_bars=True),
        )
        res = run_experiment(scn, "pre_storage")
        assert res.fidelity.sigma > 0
        assert res.chsh_S.sigma > 0
        assert res.visibility.estimate.sigma > 0
        # fidelity sigma within a factor 2 of the published 0.026
        assert 0.026 / 2 < res.fidelity.sigma < 0.026 * 2
        assert 0.01 < res.chsh_S.sigma < 0.25


class TestClassicalGates:
    def test_no_fabricated_nonclassicality(self, fast):
        classical = classicalize(fast)
        pre = run_experiment(classical, "pre_storage")
        assert pre.chsh_S.value <= 2.0 + 1e-9
        assert pre.visibility.estimate.value <= 1 / np.sqrt(2) + 0.05
        assert pre.cauchy_schwarz["R"] <= 1.0 + 0.05
        assert not pre.cauchy_schwarz["nonclassical"]


class TestReports:
    def test_stage_report_round_trips(self, fast):
        res = run_experiment(fast, "pre_storage")
        report = stage_report(fast, res)
        text = json.dumps(report, sort_keys=True)
        assert json.loads(text) == json.loads(json.dumps(json.loads(text), sort_keys=True))

    def test_report_emit_writes_contract_files(self, fast, tmp_path):
        results = {
            "pre_storage": run_experiment(fast, "pre_storage"),
            "post_storage": run_experiment(fast, "post_storage"),
        }
        files = report_emit(fast, results, tmp_path)
        names = {f.name for f in files}
        assert "report_pre.json" in names
        assert "report_post.json" in names
        assert "counts_pre_tomography.csv" in names
        assert "rho_pre_mle_real.csv" in names
        assert "rho_post_mle_imag.csv" in names
        assert "eit_spectrum.csv" in names
        assert "efficiency_vs_time.csv" in names
        assert "g2_histogram_pre.csv" in names

    def test_non_finite_sigma_refused_before_any_report(self, fast, tmp_path):
        res = run_experiment(fast, "pre_storage")
        res = replace(res, fidelity=EstimateWithError(res.fidelity.value, float("nan"), 200))
        with pytest.raises(EstimationError, match="non-finite"):
            report_emit(fast, {"pre_storage": res}, tmp_path)
        assert not list(tmp_path.rglob("report_*.json"))

    def test_counts_csv_round_trip_through_contract(self, fast, tmp_path):
        results = {"pre_storage": run_experiment(fast, "pre_storage")}
        report_emit(fast, results, tmp_path)
        records = records_from_csv((tmp_path / "counts_pre_tomography.csv").read_text())
        assert len(records) == 16
        assert records == results["pre_storage"].records["tomography"]

    def test_emitted_report_byte_identical_across_runs(self, fast, tmp_path):
        for sub in ("a", "b"):
            results = {"pre_storage": run_experiment(fast, "pre_storage")}
            report_emit(fast, results, tmp_path / sub)
        a = (tmp_path / "a" / "report_pre.json").read_bytes()
        b = (tmp_path / "b" / "report_pre.json").read_bytes()
        assert a == b

    def test_empty_results_rejected(self, fast, tmp_path):
        with pytest.raises(ValidationError):
            report_emit(fast, {}, tmp_path)

    def test_ideal_bell_rho_fig3_layout(self):
        # the real part of the ideal state has its four 0.5 entries on the
        # central HV/VH block
        rho = bell_psi_plus().rho
        real = np.real(rho)
        assert real[1, 1] == real[1, 2] == real[2, 1] == real[2, 2] == pytest.approx(0.5)
        assert np.max(np.abs(np.imag(rho))) < 1e-12


class TestNoiselessScenario:
    def test_ideal_limit_reaches_textbook_values(self, calibrated):
        ideal = replace(
            calibrated,
            source=replace(calibrated.source, p_white=0.0, eta_f=np.pi / 4),
            mem_noise=replace(calibrated.mem_noise, p_depol=0.0, background_flux=0.0),
            detector1=replace(calibrated.detector1, dark_rate=0.0),
            detector2=replace(calibrated.detector2, dark_rate=0.0),
            plan=replace(
                calibrated.plan,
                error_bars=False,
                acquisition_s={
                    **calibrated.plan.acquisition_s,
                    # basis-group totals around 1e6 coincidences
                    "tomo_pre": 60000.0,
                    "chsh_pre": 20000.0,
                    "vis_pre": 20000.0,
                },
            ),
        )
        res = run_experiment(ideal, "pre_storage")
        # MLE against a pure target carries a ~1e-3 positivity-boundary
        # bias at this N; "within sampling error" means that scale
        assert res.fidelity.value > 0.995
        assert res.chsh_S.value == pytest.approx(2 * np.sqrt(2), abs=0.02)
        assert res.visibility.estimate.value == pytest.approx(1.0, abs=0.01)
