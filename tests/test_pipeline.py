import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import entmem.detection as detection
import entmem.estimators as estimators
import entmem.experiment as experiment
import entmem.pipeline as pipeline
from conftest import classicalize, float_bits
from entmem.calibrate import DEFAULT_TARGETS, calibrate
from entmem.detection import CountRecord, Detectors, records_from_csv, sample_counts
from entmem.errors import CalibrationError, EstimationError, ValidationError
from entmem.estimators import (
    TOMO_SETTINGS,
    EstimateWithError,
    alpha_counts,
    chsh_S_analytic,
    visibility_analytic,
)
from entmem.experiment import (
    STAGES,
    after_storage,
    alpha_probs,
    balanced_state,
    memory_efficiency,
    model_alpha,
    model_rates,
    model_slot_g2,
    slot_probs,
    stage_state,
)
from entmem.pipeline import report_emit, run_experiment, stage_report
from entmem.qstate import bell_psi_plus, fidelity
from entmem.scenario import MeasurementPlan, load_bundled_scenario, scenario_to_dict


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
        with pytest.raises(CalibrationError, match="tau_mem"):
            calibrate(load_bundled_scenario(), {"eta_100ns": 0.5})

    def test_unknown_target_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate(load_bundled_scenario(), {"bogus": 1.0})

    def test_fidelity_target_variant(self):
        scenario, report = calibrate(
            load_bundled_scenario(), {"F_pre": 0.881}
        )
        rho = balanced_state(scenario)
        assert fidelity(rho, bell_psi_plus()) == pytest.approx(0.881, abs=1e-6)

    def test_visibility_target_sets_analytic_visibility(self, calibrated):
        rho = balanced_state(calibrated)
        thetas = calibrated.plan.visibility_thetas
        assert visibility_analytic(rho, "A", thetas) == pytest.approx(0.883, abs=1e-6)

    def test_checks_reported(self, calibrated):
        _, report = calibrate(load_bundled_scenario())
        checks = report["checks"]
        assert 0.02 <= checks["alpha_pre"] <= 0.06
        assert 2.37 <= checks["S_pre_analytic"] <= 2.61

    def test_checks_use_the_plan_chsh_angles(self):
        angles = (0.0, np.pi / 4, np.pi / 8, 3 * np.pi / 8)
        bundled = load_bundled_scenario()
        scenario, report = calibrate(replace(bundled, plan=replace(bundled.plan, chsh_angles=angles)))
        pre, post = (stage_state(scenario, stage).rho for stage in ("pre_storage", "post_storage"))
        checks = report["checks"]
        assert checks["S_pre_analytic"] == chsh_S_analytic(pre, angles)
        assert checks["S_post_analytic"] == chsh_S_analytic(post, angles)
        default = chsh_S_analytic(pre, MeasurementPlan().chsh_angles)
        assert abs(checks["S_pre_analytic"] - default) > 0.3
        # the expected-count estimate at the same angles agrees
        measured = run_experiment(scenario, "pre_storage", sampling="expected").chsh_S.value
        assert checks["S_pre_analytic"] == pytest.approx(measured, abs=0.01)

    def test_alpha_pre_as_sole_pair_target(self):
        scenario, report = calibrate(
            load_bundled_scenario(),
            {"alpha_pre": 0.04},
        )
        assert report["alpha_pre"]["residual"] < 0.01
        alpha = model_alpha(stage_state(scenario, "pre_storage"))
        assert alpha == pytest.approx(0.04, rel=0.01)

    def test_alpha_pre_alongside_g2_pre_is_check_only(self):
        _, report = calibrate(
            load_bundled_scenario(),
            {"g2_pre": 130.0, "alpha_pre": 0.04},
        )
        assert report["alpha_pre"].get("check_only")
        assert report["alpha_pre"]["flagged"]  # model links it to g2_pre


class TestStageStates:
    def test_pre_storage_bypasses_memory(self, calibrated):
        assert stage_state(calibrated, "pre_storage").eta == 1.0

    def test_post_storage_eta_matches_memory(self, calibrated):
        eta = stage_state(calibrated, "post_storage").eta
        assert eta == pytest.approx(memory_efficiency(calibrated), abs=1e-12)

    def test_post_storage_less_entangled(self, calibrated):
        pre = stage_state(calibrated, "pre_storage").rho
        post = stage_state(calibrated, "post_storage").rho
        bell = bell_psi_plus()
        assert fidelity(post, bell) < fidelity(pre, bell)

    def test_unknown_stage_is_validation_error(self, calibrated):
        with pytest.raises(ValidationError, match="mid_storage"):
            stage_state(calibrated, "mid_storage")

    @pytest.mark.parametrize("stage", ["pre_storage", "post_storage"])
    def test_correlation_models_never_build_the_state(self, calibrated, stage, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the state was built")

        monkeypatch.setattr("entmem.experiment.balanced_state", refuse)
        view = stage_state(calibrated, stage)
        assert model_slot_g2(view) > 1.0
        assert 0.0 < model_alpha(view) < 1.0


class TestRunExperiment:
    def test_stage_validation(self, fast):
        with pytest.raises(ValidationError):
            run_experiment(fast, "mid_storage")

    def test_post_storage_computes_the_spectral_overlap_once(self, fast, monkeypatch):
        import entmem.memory

        original, calls = entmem.memory.spectral_overlap, []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(entmem.memory, "spectral_overlap", counted)
        run_experiment(fast, "post_storage", sampling="expected")
        assert len(calls) == 1

    @pytest.mark.parametrize("stage, calls", [("pre_storage", 1), ("post_storage", 2)])
    def test_detection_budget_is_built_once_per_stage_state(self, fast, monkeypatch, stage, calls):
        # post_storage also builds the pre_storage Stage of its fidelity reference
        from entmem.detection import LossBudget

        original, counted = LossBudget.arm1_transmission, []

        def counting(losses):
            counted.append(losses)
            return original(losses)

        monkeypatch.setattr(LossBudget, "arm1_transmission", counting)
        run_experiment(fast, stage)
        assert len(counted) == calls

    def test_stages_sharing_a_fit_store_fit_each_input_once(self, calibrated, monkeypatch):
        # the post stage's reference point fit and its 200 reference resamples are the pre
        # stage's; a post stage with a fresh store fits them again, to the same fidelity
        rows = []
        newton_fits = estimators._newton_fits

        def counted(t, *args):
            rows.append(len(t))
            return newton_fits(t, *args)

        monkeypatch.setattr(estimators, "_newton_fits", counted)
        fits = {}
        shared = [run_experiment(calibrated, stage, fits=fits) for stage in STAGES]
        assert sum(rows) == 402
        alone = run_experiment(calibrated, "post_storage", fits={})
        assert sum(rows) == 402 + 402
        assert shared[1].fidelity.sigma > 0
        assert alone.fidelity == shared[1].fidelity

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
        assert stage_report(fast, res)["fidelity"]["reference"] == "pre_storage_mle"
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

    def test_post_stage_reuses_pre_stage_reconstruction(self, fast, monkeypatch):
        self._check_post_stage_reference(fast, monkeypatch, "poisson", None)

    @pytest.mark.parametrize(
        "sampling, seed", [("poisson", 0), ("expected", None), ("expected", 0)]
    )
    def test_post_stage_reference_is_exact_in_each_sampling_and_seed(
        self, fast, monkeypatch, sampling, seed
    ):
        self._check_post_stage_reference(fast, monkeypatch, sampling, seed)

    @staticmethod
    def _check_post_stage_reference(fast, monkeypatch, sampling, seed):
        # the post run's F2 reference is the standalone pre run's tomography records (same
        # derived seeds), so its F is the fidelity of the two runs' MLEs, bit for bit
        scenario = fast if seed is None else replace(fast, master_seed=seed)
        estimate_stage, references = pipeline.estimate_stage, []

        def spy(view, records, g2_hist, reference, *args):
            references.append(reference)
            return estimate_stage(view, records, g2_hist, reference, *args)

        monkeypatch.setattr(pipeline, "estimate_stage", spy)
        pre = run_experiment(scenario, "pre_storage", sampling)
        post = run_experiment(scenario, "post_storage", sampling)
        assert references == [None, pre.records["tomography"]]
        assert post.fidelity.value == fidelity(post.rho_mle.rho, pre.rho_mle.rho)

    def test_the_estimate_half_calls_no_model_or_draw_function(self, calibrated, monkeypatch):
        drawn = {stage: pipeline.draw_stage(calibrated, stage) for stage in STAGES}
        reference = drawn["pre_storage"][1]["tomography"]
        expected = {stage: run_experiment(calibrated, stage) for stage in STAGES}

        def forbidden(*args, **kwargs):
            raise AssertionError("the estimate half called the model or drew counts")

        names = (
            "model_rates", "click_probs", "slot_probs", "alpha_probs", "born_probabilities",
            "model_slot_g2", "model_alpha", "stage_state", "after_storage", "memory_efficiency",
            "draw_counts", "sample_counts", "expected_counts", "simulate_alpha", "simulate_g2",
            "_simulate_records", "g2_histogram",
        )
        for module in (pipeline, estimators, experiment, detection):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        for stage, (view, records, g2_hist) in drawn.items():
            ref = reference if stage == "post_storage" else None
            result = pipeline.estimate_stage(view, records, g2_hist, ref, error_bars=True)
            want = expected[stage]
            assert result.fidelity == want.fidelity and result.fidelity.n_resamples == 200
            assert (result.chsh_S, result.alpha) == (want.chsh_S, want.alpha)
            assert result.visibility == want.visibility
            assert result.cauchy_schwarz == want.cauchy_schwarz

    def test_expected_sampling_mode(self, fast):
        res = run_experiment(fast, "pre_storage", sampling="expected")
        # expected counts carry no Poisson noise: estimates sit at the model
        assert res.chsh_S.value == pytest.approx(2.497, abs=0.02)
        assert res.visibility.estimate.value == pytest.approx(0.883, abs=0.01)

    def test_expected_records_carry_seed_zero(self, fast):
        # no count of an expected-count run is drawn, the alpha counts included
        res = run_experiment(fast, "pre_storage", sampling="expected")
        assert {r.seed for records in res.records.values() for r in records} == {0}
        drawn = run_experiment(fast, "pre_storage")
        assert {r.seed for r in drawn.records["alpha"]} == {fast.master_seed}

    def test_alpha_counts_are_the_draw_at_pre_alpha(self, fast):
        view = stage_state(fast, "pre_storage")
        acq = fast.plan.acquisition_s.alpha_pre
        p1, p_port, p12, p123 = alpha_probs(view)
        n_slots = fast.timing.pulse_rate * acq
        means = [p * n_slots for p in (p1, p_port, p_port, p12, p12, p123)]
        ((n1, n2a, n2b, n12, n13, n123),) = sample_counts([means], fast.master_seed, ["pre:alpha"])
        n12, n13 = min(n12, n1, n2a), min(n13, n1, n2b)
        records = pipeline.simulate_alpha(view, "poisson")
        n123 = min(n123, n12, n13)
        assert alpha_counts(records) == {"n1": n1, "n12": n12, "n13": n13, "n123": n123}
        assert (records[1].singles_2, records[1].seed) == (n2b, fast.master_seed)

    def test_tomography_record_is_the_draw_at_pre_tomo_label(self, fast):
        view = stage_state(fast, "pre_storage")
        hh = tuple(a[:1] for a in TOMO_SETTINGS.settings)
        assert hh[0] == ("HH",)
        acq = fast.plan.acquisition_s.tomo_pre
        rates = model_rates(view, hh)
        means = [r[0] * acq for r in (rates.r1, rates.r2, rates.r12)]
        ((s1, s2, c),) = sample_counts([means], fast.master_seed, ["pre:tomo:HH"])
        record = pipeline._simulate_records(view, "poisson", "tomo", hh, "tomo:")[0]
        assert record == CountRecord("HH", s1, s2, min(c, s1, s2), 0, acq, fast.master_seed)

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

    @pytest.mark.parametrize("stage", ["pre_storage", "post_storage"])
    def test_uncorrelated_source_has_no_excess_coincidences(self, fast, stage, monkeypatch):
        view = stage_state(classicalize(fast), stage)
        assert model_slot_g2(view) == 1.0
        streams = []
        monkeypatch.setattr(
            pipeline, "g2_histogram", lambda n_slots, slot_ns, probs, *args: streams.append(probs)
        )
        pipeline.simulate_g2(view)
        singles1, singles2, pair = streams[0]
        assert pair == 0.0
        assert singles1 > 0 and singles2 > 0


    @pytest.mark.parametrize("stage", ["pre_storage", "post_storage"])
    def test_uncorrelated_source_has_chance_alpha(self, fast, stage):
        """alpha = 1: the herald and the two ports coincide only by chance.

        The bundled alpha acquisition expects about 0.1 chance triples of the
        classical twin, so the measurement runs 1000 times longer.
        """
        classical = classicalize(fast)
        assert model_alpha(stage_state(classical, stage)) == pytest.approx(1.0, rel=1e-12)
        acq = fast.plan.acquisition_s
        acq = replace(acq, alpha_pre=1000 * acq.alpha_pre, alpha_post=1000 * acq.alpha_post)
        classical = replace(classical, plan=replace(classical.plan, acquisition_s=acq))
        res = run_experiment(classical, stage)
        assert alpha_counts(res.records["alpha"])["n123"] > 50
        assert res.alpha.value == pytest.approx(1.0, abs=0.3)
        assert not stage_report(classical, res)["alpha"]["single_photon_like"]

    @pytest.mark.parametrize("stage", ["pre_storage", "post_storage"])
    def test_unresolved_alpha_is_not_single_photon_like(self, fast, stage):
        """Zero triples where alpha = 0.5 predicts fewer than 3 read alpha 0, unflagged.

        The classical twin at the bundled alpha acquisition expects about 0.1
        chance triples.
        """
        classical = classicalize(fast)
        res = run_experiment(classical, stage)
        counts = alpha_counts(res.records["alpha"])
        assert 0.5 * counts["n12"] * counts["n13"] / counts["n1"] < 3
        assert res.alpha.value < 0.5
        assert not stage_report(classical, res)["alpha"]["single_photon_like"]


class TestReports:
    def test_stage_report_round_trips(self, fast):
        res = run_experiment(fast, "pre_storage")
        report = stage_report(fast, res)
        text = json.dumps(report, sort_keys=True)
        assert json.loads(text) == json.loads(json.dumps(json.loads(text), sort_keys=True))

    def test_stage_report_holds_only_json_types(self, calibrated):
        """report_json writes the report as stage_report builds it: no numpy value in it."""

        def check(node):
            assert type(node) in (dict, list, str, int, float, bool, type(None)), repr(node)
            if type(node) is dict:
                assert all(type(key) is str for key in node)
                node = list(node.values())
            if type(node) is list:
                for child in node:
                    check(child)

        calibration = calibrate(load_bundled_scenario())[1]
        for scenario in (calibrated, classicalize(calibrated)):
            for sampling in ("poisson", "expected"):
                for stage in STAGES:
                    result = run_experiment(scenario, stage, sampling)
                    check(stage_report(scenario, result, calibration))

    def test_fringe_plot_counts_are_written_exactly(self, fast, tmp_path):
        # one fringe record of 1234567 coincidences at the plan's first angle, 0.5
        thetas = (0.5, *fast.plan.visibility_thetas[1:], 2.0)
        fast = replace(fast, plan=replace(fast.plan, visibility_thetas=thetas))
        res = run_experiment(fast, "pre_storage")
        res.records["visibility_A"] = [CountRecord("vis:A:0", *[1234567] * 3, 0, 60.0, 0)]
        report_emit(fast, {"pre_storage": res}, tmp_path)
        text = (tmp_path / "plots" / "fringe_pre_A.csv").read_text()
        assert text == "theta_rad,coincidences\n0.5,1234567\n"

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
        rho = bell_psi_plus()
        real = np.real(rho)
        assert real[1, 1] == real[1, 2] == real[2, 1] == real[2, 2] == pytest.approx(0.5)
        assert np.max(np.abs(np.imag(rho))) < 1e-12


class TestEfficiencyCurve:
    """plots/efficiency_vs_time.csv: eta and the post-storage Stage's model g2."""

    @staticmethod
    def emitted_rows(scenario, stages, out_dir) -> list[list[str]]:
        results = {stage: run_experiment(scenario, stage, sampling="expected") for stage in stages}
        report_emit(scenario, results, out_dir)
        text = (Path(out_dir) / "plots" / "efficiency_vs_time.csv").read_text()
        return [row.split(",") for row in text.splitlines()[1:]]

    def test_g2_at_the_storage_time_is_the_calibrated_post_storage_model(self):
        scenario, report = calibrate(load_bundled_scenario())
        times = np.array([scenario.timing.storage_time_ns])
        pre = stage_state(scenario, "pre_storage")
        (g2,) = model_slot_g2(after_storage(pre, memory_efficiency(scenario, times), times))
        assert g2 == model_slot_g2(stage_state(scenario, "post_storage"))
        assert g2 == report["g2_post"]["achieved"]

    def test_g2_column_never_increases_with_storage_time(self, fast, tmp_path):
        rows = self.emitted_rows(fast, STAGES, tmp_path)
        g2 = [float(row[2]) for row in rows]
        assert len(g2) == 121
        assert all(a >= b for a, b in zip(g2, g2[1:]))
        at_zero = after_storage(stage_state(fast, "pre_storage"), memory_efficiency(fast, 0.0), 0.0)
        assert g2[0] == pytest.approx(model_slot_g2(at_zero), rel=1e-9)
        assert g2[-1] >= 1.0

    def test_the_curve_computes_the_spectral_overlap_once(self, fast, tmp_path, monkeypatch):
        import entmem.memory

        results = {stage: run_experiment(fast, stage, sampling="expected") for stage in STAGES}
        original, calls = entmem.memory.spectral_overlap, []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(entmem.memory, "spectral_overlap", counted)
        report_emit(fast, results, tmp_path)
        assert len(calls) == 1  # the eta column's; the g2 column reads the same etas

    def test_g2_column_is_one_for_an_uncorrelated_source(self, fast, tmp_path):
        rows = self.emitted_rows(classicalize(fast), STAGES, tmp_path)
        assert {row[2] for row in rows} == {"1"}

    def test_pre_storage_run_leaves_the_g2_column_blank(self, fast, tmp_path):
        rows = self.emitted_rows(fast, ["pre_storage"], tmp_path)
        assert len(rows) == 121
        assert {row[2] for row in rows} == {""}
        assert all(float(row[1]) > 0 for row in rows)


class TestStorageTimeAxis:
    """One Stage after storage at several times against one Stage per time."""

    @pytest.mark.parametrize("classical", [False, True])
    def test_eleven_times_give_the_bits_of_eleven_one_time_stages(self, calibrated, classical):
        scenario = classicalize(calibrated) if classical else calibrated
        own = scenario.timing.storage_time_ns
        times = np.sort(np.append(np.linspace(0.0, 3.0 * scenario.decay.tau_mem, 10), own))
        pre = stage_state(scenario, "pre_storage")
        sweep = after_storage(pre, memory_efficiency(scenario, times), times)
        alone = [after_storage(pre, memory_efficiency(scenario, t), t) for t in times.tolist()]
        assert alone[times.tolist().index(own)] == stage_state(scenario, "post_storage")
        for name in ("eta", "e2", "delay_ns"):
            assert float_bits(getattr(sweep, name)) == float_bits([getattr(s, name) for s in alone])
        for model in (slot_probs, alpha_probs):
            one_time = [model(s) for s in alone]
            assert all(type(p) is float for probs in one_time for p in probs)
            for k, values in enumerate(model(sweep)):
                values = np.broadcast_to(values, times.shape)
                assert float_bits(values) == float_bits([probs[k] for probs in one_time])
        for model in (model_slot_g2, model_alpha):
            one_time = [model(s) for s in alone]
            assert all(type(value) is float for value in one_time)
            assert float_bits(model(sweep)) == float_bits(one_time)


class TestNoiselessScenario:
    def test_ideal_limit_reaches_textbook_values(self, calibrated):
        ideal = replace(
            calibrated,
            source=replace(calibrated.source, p_white=0.0, eta_f=np.pi / 4),
            mem_noise=replace(calibrated.mem_noise, p_depol=0.0, background_flux=0.0),
            detectors=Detectors(
                replace(calibrated.detectors.d1, dark_rate=0.0),
                replace(calibrated.detectors.d2, dark_rate=0.0),
            ),
            plan=replace(
                calibrated.plan,
                error_bars=False,
                acquisition_s=replace(
                    calibrated.plan.acquisition_s,
                    # basis-group totals around 1e6 coincidences
                    tomo_pre=60000.0,
                    chsh_pre=20000.0,
                    vis_pre=20000.0,
                ),
            ),
        )
        res = run_experiment(ideal, "pre_storage")
        # MLE against a pure target carries a ~1e-3 positivity-boundary
        # bias at this N; "within sampling error" means that scale
        assert res.fidelity.value > 0.995
        assert res.chsh_S.value == pytest.approx(2 * np.sqrt(2), abs=0.02)
        assert res.visibility.estimate.value == pytest.approx(1.0, abs=0.01)
