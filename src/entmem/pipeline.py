"""Scenario-driven orchestration: simulate, estimate, report.

run_experiment() walks the full chain for one stage (pre_storage bypasses
the memory, post_storage applies it at the configured storage time),
samples every count record with seeds derived from the master seed, runs
all estimators, and assembles a JSON-able report.  Everything is
bit-reproducible from (scenario, master_seed); reports carry no
timestamps for that reason.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .detection import (
    CountRecord,
    G2StreamParams,
    MeasurementSetting,
    arm_marginals,
    coincidence_probs,
    expected_counts,
    expected_rates,
    g2_histogram,
    heralded_alpha,
    is_single_photon_like,
    projection_probability,
    records_to_csv,
    sample_counts,
)
from .errors import ValidationError
from .estimators import (
    EstimateWithError,
    TomographySettingSet,
    VisibilityResult,
    cauchy_schwarz_R,
    chsh_E,
    chsh_S,
    chsh_S_literal,
    is_nonclassical_R,
    mc_error,
    tomo_linear,
    tomo_mle,
    visibility_fit,
)
from .experiment import (
    memory_efficiency,
    model_slot_g2,
    model_alpha,
    slot_probabilities,
    stage_state,
)
from .memory import EITParams, eit_transmission, g2_vs_storage_time, transparency_window_fwhm
from .qstate import BASIS_STRING, KET_BY_LABEL, TwoQubitState, bell_psi_plus, fidelity
from .qstate import ket_linear, matrix_json
from .rng import derive_rng, derive_seed_sequence
from .scenario import Scenario, scenario_to_dict

REPORT_SCHEMA_VERSION = 1
STAGES = ("pre_storage", "post_storage")

PORT_LABELS = ("pp", "pm", "mp", "mm")


@dataclass
class StageResult:
    """Everything one stage produces: records, estimates, plot data."""

    stage: str
    eta: float
    records: dict = field(default_factory=dict)
    rho_linear: np.ndarray | None = None
    rho_mle: TwoQubitState | None = None
    fidelity: EstimateWithError | None = None
    fidelity_reference: str = ""
    chsh_S: EstimateWithError | None = None
    chsh_S_literal: float = 0.0
    chsh_E: np.ndarray | None = None
    visibility: VisibilityResult | None = None
    visibility_sweeps: dict = field(default_factory=dict)
    alpha: EstimateWithError | None = None
    alpha_counts: dict = field(default_factory=dict)
    g2_peak: float = 0.0
    g2_peak_tau_ns: float = 0.0
    g2_hist: object = None
    cauchy_schwarz: dict = field(default_factory=dict)


def _suffix(stage: str) -> str:
    return "pre" if stage == "pre_storage" else "post"


def _sample(scenario, rates, acq, label, sampling):
    if sampling == "expected":
        return expected_counts(rates, acq, setting_label=label)
    return sample_counts(rates, acq, seed=scenario.master_seed, setting_label=label)


def _background_rate_2(scenario: Scenario, stage: str) -> float:
    """Per-second uncorrelated arm-2 rate during retrieval (post only)."""
    if stage != "post_storage":
        return 0.0
    return scenario.mem_noise.background_flux * scenario.timing.pulse_rate


def _coincidence_record(
    scenario: Scenario,
    stage: str,
    rho: TwoQubitState,
    eta: float,
    setting: MeasurementSetting,
    acq: float,
    label: str,
    sampling: str,
) -> CountRecord:
    prob = projection_probability(rho, setting)
    m1, m2 = arm_marginals(rho, setting)
    rates = expected_rates(
        scenario.source.pair_prob,
        prob,
        scenario.losses,
        (scenario.detector1, scenario.detector2),
        scenario.timing,
        memory_eta=eta,
        prob1=m1,
        prob2=m2,
        background_rate_2=_background_rate_2(scenario, stage),
    )
    return _sample(scenario, rates, acq, label, sampling)


# ---------------------------------------------------------------------------
# Measurement simulations.
# ---------------------------------------------------------------------------


def simulate_tomography(
    scenario: Scenario, stage: str, rho: TwoQubitState, eta: float, sampling: str
) -> list[CountRecord]:
    acq = scenario.plan.acquisition_s[f"tomo_{_suffix(stage)}"]
    out = []
    for setting in TomographySettingSet.standard().settings:
        label = setting.label
        rec = _coincidence_record(
            scenario, stage, rho, eta, setting,
            acq, f"{_suffix(stage)}:tomo:{label}", sampling,
        )
        out.append(replace(rec, setting_label=label))
    return out


def simulate_chsh(
    scenario: Scenario, stage: str, rho: TwoQubitState, eta: float, sampling: str
) -> tuple[list[CountRecord], np.ndarray]:
    """16 port-combination records and the 2x2 E matrix."""
    t1, t2, t1p, t2p = scenario.plan.chsh_angles
    acq = scenario.plan.acquisition_s[f"chsh_{_suffix(stage)}"]
    records = []
    e = np.zeros((2, 2))
    for i, a1 in enumerate((t1, t1p)):
        for j, a2 in enumerate((t2, t2p)):
            counts = []
            for port, (da, db) in zip(
                PORT_LABELS, [(0.0, 0.0), (0.0, np.pi / 2), (np.pi / 2, 0.0), (np.pi / 2, np.pi / 2)]
            ):
                setting = MeasurementSetting(
                    arm1_projector=ket_linear(a1 + da),
                    arm2_projector=ket_linear(a2 + db),
                    label=f"chsh:{i}{j}:{port}",
                )
                rec = _coincidence_record(
                    scenario, stage, rho, eta, setting,
                    acq, f"{_suffix(stage)}:{setting.label}", sampling,
                )
                records.append(replace(rec, setting_label=setting.label))
                counts.append(rec.coincidences)
            e[i, j] = chsh_E(*counts)
    return records, e


def simulate_visibility(
    scenario: Scenario,
    stage: str,
    rho: TwoQubitState,
    eta: float,
    sampling: str,
    arm1_label: str,
) -> tuple[list[CountRecord], list[tuple[float, float]]]:
    """Fringe sweep: arm-1 fixed analysis state, arm-2 HWP angle swept.

    The HWP at angle theta analyzes polarization 2*theta, giving the
    pi/2-periodic fringe the visibility model fits.
    """

    acq = scenario.plan.acquisition_s[f"vis_{_suffix(stage)}"]
    arm1 = KET_BY_LABEL[arm1_label]()
    records, points = [], []
    for k, theta in enumerate(scenario.plan.visibility_thetas):
        setting = MeasurementSetting(
            arm1_projector=arm1,
            arm2_projector=ket_linear(2.0 * theta),
            label=f"vis:{arm1_label}:{k}",
        )
        rec = _coincidence_record(
            scenario, stage, rho, eta, setting,
            acq, f"{_suffix(stage)}:{setting.label}", sampling,
        )
        records.append(replace(rec, setting_label=setting.label))
        points.append((float(theta), float(rec.coincidences)))
    return records, points


def simulate_alpha(
    scenario: Scenario, stage: str, sampling: str
) -> tuple[list[CountRecord], dict]:
    """Heralded-autocorrelation counts: herald, two ports, triples."""
    p1, p12, p13, p123 = model_alpha(scenario, stage)
    probs = slot_probabilities(scenario, stage)
    pair = scenario.source.pair_prob * probs["pair_scale"]
    # per-port singles: one arm of the beamsplitter on its own
    _, p_port, _ = coincidence_probs(
        pair, probs["e1"], probs["e2"] / 2.0, 0.0, probs["noise2_port"]
    )
    acq = scenario.plan.acquisition_s[f"alpha_{_suffix(stage)}"]
    n_slots = scenario.timing.pulse_rate * acq
    means = np.array([p1, p_port, p_port, p12, p13, p123]) * n_slots
    if sampling == "expected":
        n1, n2a, n2b, n12, n13, n123 = (int(round(m)) for m in means)
    else:
        rng = derive_rng(scenario.master_seed, "counts", f"{_suffix(stage)}:alpha")
        n1, n2a, n2b, n12, n13, n123 = (int(rng.poisson(m)) for m in means)
    n12 = min(n12, n1, n2a)
    n13 = min(n13, n1, n2b)
    n123 = min(n123, n12, n13)
    records = [
        CountRecord(f"alpha:{_suffix(stage)}:a", n1, n2a, n12, n123, acq, scenario.master_seed),
        CountRecord(f"alpha:{_suffix(stage)}:b", n1, n2b, n13, n123, acq, scenario.master_seed),
    ]
    return records, {"n1": n1, "n12": n12, "n13": n13, "n123": n123}


def simulate_g2(scenario: Scenario, stage: str):
    """Time-resolved cross-correlation for the stage."""
    p = slot_probabilities(scenario, stage)
    pair = scenario.source.pair_prob
    s1, s2, s12 = coincidence_probs(pair, p["e1"], p["e2"], p["dark1_slot"], p["noise2_slot"])
    excess = max(s12 - s1 * s2, 0.0) if scenario.correlations.pair_correlated else 0.0
    delay = scenario.timing.fiber_delay_ns + (
        scenario.timing.storage_time_ns if stage == "post_storage" else 0.0
    )
    slot = scenario.timing.cycle_period_ns
    n_slots = int(scenario.timing.pulse_rate * scenario.plan.acquisition_s["g2"])
    params = G2StreamParams(
        n_slots=n_slots,
        slot_ns=slot,
        pair_prob_detected=excess,
        singles1_prob=s1,
        singles2_prob=s2,
        delay_ns=delay,
        profile_fwhm_ns=scenario.source.s2_temporal_fwhm,
    )
    edges = np.arange(delay - slot / 2, delay + slot / 2 + 2.0, 2.0)
    seed = int(
        derive_seed_sequence(scenario.master_seed, f"{_suffix(stage)}:g2").generate_state(1)[0]
    )
    return g2_histogram(params, edges, seed)


# ---------------------------------------------------------------------------
# Full stage run.
# ---------------------------------------------------------------------------


def _tomo_estimator_factory(templates: list[CountRecord]):
    def rebuild(counts: np.ndarray) -> list[CountRecord]:
        out = []
        for rec, n in zip(templates, counts):
            n = int(n)
            out.append(
                replace(
                    rec,
                    singles_1=max(rec.singles_1, n),
                    singles_2=max(rec.singles_2, n),
                    coincidences=n,
                    triples=0,
                )
            )
        return out

    return rebuild


def run_experiment(
    scenario: Scenario,
    stage: str,
    sampling: str = "poisson",
) -> StageResult:
    """Simulate one stage end to end and estimate every figure of merit."""

    if stage not in STAGES:
        raise ValidationError(f"stage must be one of {STAGES}, got {stage!r}")
    if sampling not in ("poisson", "expected"):
        raise ValidationError(f"unknown sampling mode {sampling!r}")

    rho, eta = stage_state(scenario, stage)
    result = StageResult(stage=stage, eta=eta)
    error_bars = scenario.plan.error_bars and sampling == "poisson"
    n_res = scenario.plan.n_resamples

    # --- tomography and fidelity
    tomo_records = simulate_tomography(scenario, stage, rho, eta, sampling)
    result.records["tomography"] = tomo_records
    result.rho_linear = tomo_linear(tomo_records)
    result.rho_mle = tomo_mle(tomo_records, init=result.rho_linear, seed=scenario.master_seed)

    if stage == "pre_storage":
        reference = bell_psi_plus()
        result.fidelity_reference = "ideal"
        pre_records = None
    else:
        pre_rho, _ = stage_state(scenario, "pre_storage")
        pre_records = simulate_tomography(scenario, "pre_storage", pre_rho, 1.0, sampling)
        reference = tomo_mle(pre_records, seed=scenario.master_seed)
        result.fidelity_reference = "pre_storage_mle"

    f_point = fidelity(result.rho_mle, reference)
    if error_bars:
        if pre_records is None:
            templates = list(tomo_records)
            rebuild = _tomo_estimator_factory(templates)

            def f_estimator(counts):
                rho_hat = tomo_mle(rebuild(counts), seed=scenario.master_seed)
                return fidelity(rho_hat, reference)

            counts_vec = np.array([r.coincidences for r in templates], dtype=float)
        else:
            templates = list(pre_records) + list(tomo_records)
            rebuild_pre = _tomo_estimator_factory(pre_records)
            rebuild_post = _tomo_estimator_factory(tomo_records)

            def f_estimator(counts):
                pre_hat = tomo_mle(rebuild_pre(counts[:16]), seed=scenario.master_seed)
                post_hat = tomo_mle(rebuild_post(counts[16:]), seed=scenario.master_seed)
                return fidelity(post_hat, pre_hat)

            counts_vec = np.array([r.coincidences for r in templates], dtype=float)
        est = mc_error(f_estimator, counts_vec, n_resamples=n_res, seed=scenario.master_seed)
        result.fidelity = EstimateWithError(f_point, est.sigma, n_res)
    else:
        result.fidelity = EstimateWithError(f_point, 0.0, 0)

    # --- CHSH
    chsh_records, e_matrix = simulate_chsh(scenario, stage, rho, eta, sampling)
    result.records["chsh"] = chsh_records
    result.chsh_E = e_matrix
    s_point = chsh_S(e_matrix)
    result.chsh_S_literal = chsh_S_literal(e_matrix)
    if error_bars:
        chsh_counts = np.array([r.coincidences for r in chsh_records], dtype=float)

        def s_estimator(counts):
            e = np.zeros((2, 2))
            for idx in range(4):
                i, j = divmod(idx, 2)
                e[i, j] = chsh_E(*counts[4 * idx : 4 * idx + 4])
            return chsh_S(e)

        est = mc_error(s_estimator, chsh_counts, n_resamples=n_res, seed=scenario.master_seed)
        result.chsh_S = EstimateWithError(s_point, est.sigma, n_res)
    else:
        result.chsh_S = EstimateWithError(s_point, 0.0, 0)

    # --- visibility (reported arm plus the H reference curve for plots)
    for arm1_label in dict.fromkeys([scenario.plan.visibility_arm1, "H"]):
        vis_records, points = simulate_visibility(
            scenario, stage, rho, eta, sampling, arm1_label
        )
        result.records[f"visibility_{arm1_label}"] = vis_records
        result.visibility_sweeps[arm1_label] = points
        if arm1_label == scenario.plan.visibility_arm1:
            result.visibility = visibility_fit(
                points,
                n_resamples=n_res,
                seed=scenario.master_seed,
            )
            if not error_bars:
                result.visibility = VisibilityResult(
                    estimate=EstimateWithError(result.visibility.estimate.value, 0.0, 0),
                    baseline=result.visibility.baseline,
                    phase=result.visibility.phase,
                    nonclassical=result.visibility.nonclassical,
                )

    # --- heralded autocorrelation
    alpha_records, alpha_counts = simulate_alpha(scenario, stage, sampling)
    result.records["alpha"] = alpha_records
    result.alpha_counts = alpha_counts
    a_point = heralded_alpha(
        max(alpha_counts["n1"], 1),
        max(alpha_counts["n12"], 1),
        max(alpha_counts["n13"], 1),
        alpha_counts["n123"],
    )
    if error_bars:
        a_vec = np.array(
            [alpha_counts["n1"], alpha_counts["n12"], alpha_counts["n13"], alpha_counts["n123"]],
            dtype=float,
        )

        def a_estimator(counts):
            return heralded_alpha(
                max(counts[0], 1), max(counts[1], 1), max(counts[2], 1), counts[3]
            )

        est = mc_error(a_estimator, a_vec, n_resamples=n_res, seed=scenario.master_seed)
        result.alpha = EstimateWithError(a_point, est.sigma, n_res)
    else:
        result.alpha = EstimateWithError(a_point, 0.0, 0)

    # --- cross-correlation histogram and Cauchy-Schwarz
    hist = simulate_g2(scenario, stage)
    result.g2_hist = hist
    result.g2_peak = float(hist.peak_g2)
    result.g2_peak_tau_ns = float(hist.peak_tau_ns)
    g22 = (
        scenario.correlations.g2_autocorr_s2_pre
        if stage == "pre_storage"
        else scenario.correlations.g2_autocorr_s2_post
    )
    g11 = scenario.correlations.g2_autocorr_s1
    r_value = cauchy_schwarz_R(hist.peak_g2, g11, g22)
    # Poisson error of the slot-aggregated peak, for a significance-aware
    # nonclassicality claim: a classical scenario must not be flagged just
    # because the peak fluctuated above 1.
    window = np.abs(hist.tau_ns - hist.peak_tau_ns) <= scenario.timing.cycle_period_ns / 2
    window_counts = float(hist.counts[window].sum())
    sigma_peak = (
        hist.peak_g2 / np.sqrt(window_counts) if window_counts > 0 else float("inf")
    )
    sigma_r = 2.0 * hist.peak_g2 * sigma_peak / (g11 * g22)
    result.cauchy_schwarz = {
        "g12": float(hist.peak_g2),
        "g11": float(g11),
        "g22": float(g22),
        "R": float(r_value),
        "sigma": float(sigma_r),
        "nonclassical": bool(is_nonclassical_R(r_value - 3.0 * sigma_r)),
    }
    return result


# ---------------------------------------------------------------------------
# Report assembly and emission.
# ---------------------------------------------------------------------------


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays so json can serialize."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _estimate_json(est: EstimateWithError) -> dict:
    return {"value": est.value, "sigma": est.sigma, "n_resamples": est.n_resamples}


def stage_report(
    scenario: Scenario, result: StageResult, calibration_report: dict | None = None
) -> dict:
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "stage": result.stage,
        "master_seed": scenario.master_seed,
        "scenario": scenario_to_dict(scenario),
        "memory": {
            "eta": result.eta,
            "window_fwhm_mhz": (
                transparency_window_fwhm(scenario.eit)
                if scenario.eit.rabi_coupling > 0
                else None
            ),
        },
        "tomography": {
            "rho_linear": matrix_json(result.rho_linear),
            "rho_mle": result.rho_mle.to_json_dict(),
        },
        "fidelity": {
            "reference": result.fidelity_reference,
            **_estimate_json(result.fidelity),
        },
        "chsh": {
            "angles": list(scenario.plan.chsh_angles),
            "E": [[float(x) for x in row] for row in result.chsh_E],
            "S_literal": result.chsh_S_literal,
            **_estimate_json(result.chsh_S),
        },
        "visibility": {
            "arm1": scenario.plan.visibility_arm1,
            "baseline": result.visibility.baseline,
            "phase": result.visibility.phase,
            "nonclassical": result.visibility.nonclassical,
            **_estimate_json(result.visibility.estimate),
        },
        "alpha": {
            "counts": result.alpha_counts,
            "single_photon_like": is_single_photon_like(result.alpha.value),
            **_estimate_json(result.alpha),
        },
        "g2": {
            "peak": result.g2_peak,
            "peak_tau_ns": result.g2_peak_tau_ns,
            "model_slot_g2": model_slot_g2(scenario, result.stage),
        },
        "cauchy_schwarz": result.cauchy_schwarz,
    }
    if calibration_report is not None:
        report["calibration"] = calibration_report
    return _jsonable(report)


def eit_spectrum_csv(eit: EITParams) -> str:
    """The EIT transmission spectrum as CSV (detuning_mhz, transmission)."""
    grid, trans = eit_transmission(eit)
    return (
        "detuning_mhz,transmission\n"
        + "\n".join(f"{d:.6g},{t:.10g}" for d, t in zip(grid, trans))
        + "\n"
    )


def _write_matrix_csv(m: np.ndarray, path: Path, part: str) -> None:
    data = np.real(m) if part == "real" else np.imag(m)
    labels = BASIS_STRING.split(",")
    lines = ["row," + BASIS_STRING]
    for lbl, row in zip(labels, data):
        lines.append(lbl + "," + ",".join(f"{x:.12g}" for x in row))
    path.write_text("\n".join(lines) + "\n")


def report_emit(
    scenario: Scenario,
    results: dict[str, StageResult],
    out_dir: str | Path,
    calibration_report: dict | None = None,
) -> list[Path]:
    """Write report JSON, density matrices, count CSVs and plot data.

    Returns the list of files written.  Raises on empty input; I/O errors
    surface verbatim.
    """

    if not results:
        raise ValidationError("nothing to report: no stage results")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    plots = out / "plots"
    plots.mkdir(exist_ok=True)
    written: list[Path] = []

    def _write(path: Path, text: str):
        path.write_text(text)
        written.append(path)

    _write(plots / "eit_spectrum.csv", eit_spectrum_csv(scenario.eit))

    # storage-efficiency and g2 decay curves
    times = np.linspace(0.0, 3.0 * scenario.decay.tau_mem, 121)
    etas = [memory_efficiency(scenario, float(t)) for t in times]
    g2_pre_model = model_slot_g2(scenario, "pre_storage")
    curve_rows = ["t_ns,eta,g2"]
    if g2_pre_model > 1.0:
        eta_now = memory_efficiency(scenario)
        g2_post_model = model_slot_g2(scenario, "post_storage")
        if g2_post_model > 1.0 and eta_now > 0 and eta_now < 1:
            b = ((g2_pre_model - 1.0) * eta_now / (g2_post_model - 1.0) - eta_now) / (
                1.0 - eta_now
            )
            b = max(b, 1e-9)
            curve = g2_vs_storage_time(
                g2_pre_model, lambda t: memory_efficiency(scenario, float(t)), b
            )
            for t, e in zip(times, etas):
                curve_rows.append(f"{t:.6g},{e:.10g},{curve(float(t)):.10g}")
    if len(curve_rows) == 1:
        for t, e in zip(times, etas):
            curve_rows.append(f"{t:.6g},{e:.10g},")
    _write(plots / "efficiency_vs_time.csv", "\n".join(curve_rows) + "\n")

    for stage, result in results.items():
        sfx = _suffix(stage)
        report = stage_report(scenario, result, calibration_report)
        _write(out / f"report_{sfx}.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
        for group, records in result.records.items():
            _write(out / f"counts_{sfx}_{group}.csv", records_to_csv(records))
        for name, matrix in (
            ("mle", result.rho_mle.rho),
            ("linear", result.rho_linear),
        ):
            for part in ("real", "imag"):
                path = out / f"rho_{sfx}_{name}_{part}.csv"
                _write_matrix_csv(matrix, path, part)
                written.append(path)
        hist = result.g2_hist
        _write(
            plots / f"g2_histogram_{sfx}.csv",
            "tau_ns,counts,g2,zero_floor\n"
            + "\n".join(
                f"{t:.6g},{int(c)},{g:.10g},{int(z)}"
                for t, c, g, z in zip(hist.tau_ns, hist.counts, hist.g2, hist.zero_floor)
            )
            + "\n",
        )
        for arm1_label, points in result.visibility_sweeps.items():
            _write(
                plots / f"fringe_{sfx}_{arm1_label}.csv",
                "theta_rad,coincidences\n"
                + "\n".join(f"{t:.10g},{c:.6g}" for t, c in points)
                + "\n",
            )
    return written
