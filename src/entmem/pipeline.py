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
from .errors import EstimationError, ValidationError
from .estimators import (
    TOMO_SETTINGS,
    EstimateWithError,
    VisibilityResult,
    cauchy_schwarz_R,
    chsh_E,
    chsh_S,
    chsh_S_literal,
    is_nonclassical_R,
    mc_error,
    tomo_counts,
    tomo_linear,
    tomo_mle,
    visibility_fit,
)
from .experiment import (
    memory_efficiency_curve,
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
# Analyzer offsets (arm 1, arm 2) of each port: the angle or its orthogonal.
PORT_OFFSETS = ((0.0, 0.0), (0.0, np.pi / 2), (np.pi / 2, 0.0), (np.pi / 2, np.pi / 2))
# CHSH record labels: angle choice i on arm 1, j on arm 2, then the port.
CHSH_LABELS = tuple(f"chsh:{i}{j}:{port}" for i in "01" for j in "01" for port in PORT_LABELS)


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


# ---------------------------------------------------------------------------
# Measurement simulations.
# ---------------------------------------------------------------------------


def _simulate_records(
    scenario: Scenario,
    stage: str,
    rho: TwoQubitState,
    eta: float,
    sampling: str,
    kind: str,
    settings,
    seed_prefix: str = "",
) -> list[CountRecord]:
    """One count record per setting, acquired for the plan's "{kind}_{stage}" time.

    The counts of a setting are drawn from the seed label
    "{pre|post}:{seed_prefix}{setting.label}"; the record carries the
    setting label itself.
    """

    sfx = _suffix(stage)
    acq = scenario.plan.acquisition_s[f"{kind}_{sfx}"]
    # uncorrelated arm-2 rate of the retrieval noise, after storage only
    background_2 = 0.0
    if stage == "post_storage":
        background_2 = scenario.mem_noise.background_flux * scenario.timing.pulse_rate
    records = []
    for setting in settings:
        m1, m2 = arm_marginals(rho, setting)
        rates = expected_rates(
            scenario.source.pair_prob,
            projection_probability(rho, setting),
            scenario.losses,
            (scenario.detector1, scenario.detector2),
            scenario.timing,
            memory_eta=eta,
            prob1=m1,
            prob2=m2,
            background_rate_2=background_2,
        )
        label = f"{sfx}:{seed_prefix}{setting.label}"
        if sampling == "expected":
            rec = expected_counts(rates, acq, setting_label=label)
        else:
            rec = sample_counts(rates, acq, seed=scenario.master_seed, setting_label=label)
        records.append(replace(rec, setting_label=setting.label))
    return records


def simulate_tomography(
    scenario: Scenario, stage: str, rho: TwoQubitState, eta: float, sampling: str
) -> list[CountRecord]:
    return _simulate_records(
        scenario, stage, rho, eta, sampling, "tomo", TOMO_SETTINGS.settings, "tomo:"
    )


def simulate_chsh(
    scenario: Scenario, stage: str, rho: TwoQubitState, eta: float, sampling: str
) -> list[CountRecord]:
    """16 records: the four analyzer ports at each of the four angle pairs."""
    t1, t2, t1p, t2p = scenario.plan.chsh_angles
    analyzers = [(a1 + da, a2 + db) for a1 in (t1, t1p) for a2 in (t2, t2p) for da, db in PORT_OFFSETS]
    settings = [
        MeasurementSetting(ket_linear(x1), ket_linear(x2), label)
        for (x1, x2), label in zip(analyzers, CHSH_LABELS)
    ]
    return _simulate_records(scenario, stage, rho, eta, sampling, "chsh", settings)


def chsh_e_matrix(counts) -> np.ndarray:
    """The 2x2 E matrix from the 16 CHSH coincidence counts in CHSH_LABELS order."""
    return np.array(
        [[chsh_E(*counts[8 * i + 4 * j : 8 * i + 4 * j + 4]) for j in range(2)] for i in range(2)]
    )


def simulate_visibility(
    scenario: Scenario,
    stage: str,
    rho: TwoQubitState,
    eta: float,
    sampling: str,
    arm1_label: str,
) -> list[CountRecord]:
    """Fringe sweep: arm-1 fixed analysis state, arm-2 HWP angle swept.

    The HWP at angle theta analyzes polarization 2*theta, giving the
    pi/2-periodic fringe the visibility model fits.
    """

    arm1 = KET_BY_LABEL[arm1_label]()
    settings = [
        MeasurementSetting(arm1, ket_linear(2.0 * theta), f"vis:{arm1_label}:{k}")
        for k, theta in enumerate(scenario.plan.visibility_thetas)
    ]
    return _simulate_records(scenario, stage, rho, eta, sampling, "vis", settings)


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
    seed = scenario.master_seed

    def with_sigma(point, estimator, counts) -> EstimateWithError:
        """The point estimate, with the bootstrap sigma of estimator(counts) if enabled."""
        if not error_bars:
            return EstimateWithError(point, 0.0, 0)
        return EstimateWithError(point, mc_error(estimator, counts, n_res, seed).sigma, n_res)

    # --- tomography and fidelity: to the ideal state before storage, to the
    # re-simulated pre-storage MLE after it
    tomo_records = simulate_tomography(scenario, stage, rho, eta, sampling)
    result.records["tomography"] = tomo_records
    counts, acq = tomo_counts(tomo_records)
    result.rho_linear = tomo_linear(counts, acq)
    result.rho_mle = tomo_mle(counts, acq, init=result.rho_linear, seed=seed)
    ref_counts = ref_acq = np.empty(0)
    result.fidelity_reference = "ideal"
    if stage == "post_storage":
        pre_rho, _ = stage_state(scenario, "pre_storage")
        ref_records = simulate_tomography(scenario, "pre_storage", pre_rho, 1.0, sampling)
        ref_counts, ref_acq = tomo_counts(ref_records)
        result.fidelity_reference = "pre_storage_mle"
    n_ref = len(ref_counts)

    def reference(ref):
        return tomo_mle(ref, ref_acq, seed=seed) if n_ref else bell_psi_plus()

    def f_estimator(resampled):
        ref = reference(resampled[:n_ref])
        return fidelity(tomo_mle(resampled[n_ref:], acq, seed=seed), ref)

    result.fidelity = with_sigma(
        fidelity(result.rho_mle, reference(ref_counts)),
        f_estimator,
        np.concatenate([ref_counts, counts]),
    )

    # --- CHSH
    chsh_records = simulate_chsh(scenario, stage, rho, eta, sampling)
    chsh_counts = [r.coincidences for r in chsh_records]
    result.records["chsh"] = chsh_records
    result.chsh_E = chsh_e_matrix(chsh_counts)
    result.chsh_S_literal = chsh_S_literal(result.chsh_E)
    result.chsh_S = with_sigma(
        chsh_S(result.chsh_E), lambda counts: chsh_S(chsh_e_matrix(counts)), chsh_counts
    )

    # --- visibility (reported arm plus the H reference curve for plots)
    thetas = scenario.plan.visibility_thetas
    for arm1_label in dict.fromkeys([scenario.plan.visibility_arm1, "H"]):
        vis_records = simulate_visibility(scenario, stage, rho, eta, sampling, arm1_label)
        points = [(float(t), float(r.coincidences)) for t, r in zip(thetas, vis_records)]
        result.records[f"visibility_{arm1_label}"] = vis_records
        result.visibility_sweeps[arm1_label] = points
        if arm1_label == scenario.plan.visibility_arm1:
            vis = visibility_fit(points, n_resamples=n_res, seed=seed)
            if not error_bars:
                vis = replace(vis, estimate=EstimateWithError(vis.estimate.value, 0.0, 0))
            result.visibility = vis

    # --- heralded autocorrelation
    alpha_records, alpha_counts = simulate_alpha(scenario, stage, sampling)
    result.records["alpha"] = alpha_records
    result.alpha_counts = alpha_counts

    def a_estimator(counts):
        return heralded_alpha(max(counts[0], 1), max(counts[1], 1), max(counts[2], 1), counts[3])

    a_counts = [alpha_counts[k] for k in ("n1", "n12", "n13", "n123")]
    result.alpha = with_sigma(a_estimator(a_counts), a_estimator, a_counts)

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


def seed_ensemble(scenario: Scenario, runs: int) -> dict[str, list[float]]:
    """Per-seed figures of both stages over runs seeds, without error bars.

    Run k uses master_seed + k.  Keys are F, S, V, g2 and alpha, each with
    a _pre and a _post suffix.
    """

    scenario = replace(scenario, plan=replace(scenario.plan, error_bars=False))
    figures = {}
    for k in range(runs):
        scn = replace(scenario, master_seed=scenario.master_seed + k)
        for stage in STAGES:
            r = run_experiment(scn, stage)
            for name, value in (
                ("F", r.fidelity.value),
                ("S", r.chsh_S.value),
                ("V", r.visibility.estimate.value),
                ("g2", r.g2_peak),
                ("alpha", r.alpha.value),
            ):
                figures.setdefault(f"{name}_{_suffix(stage)}", []).append(value)
    return figures


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


def report_json(data: dict) -> str:
    """Indented, key-sorted strict JSON; a NaN or infinity is an EstimationError."""
    try:
        return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise EstimationError(f"refusing to write a non-finite figure: {exc}") from exc


def report_emit(
    scenario: Scenario,
    results: dict[str, StageResult],
    out_dir: str | Path,
    calibration_report: dict | None = None,
) -> list[Path]:
    """Write report JSON, density matrices, count CSVs and plot data.

    Returns the list of files written.  Raises on empty input, and on a
    non-finite figure before any file is written; I/O errors surface
    verbatim.
    """

    if not results:
        raise ValidationError("nothing to report: no stage results")
    reports = {
        stage: report_json(stage_report(scenario, result, calibration_report))
        for stage, result in results.items()
    }
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
    eta_of = memory_efficiency_curve(scenario)
    etas = [eta_of(float(t)) for t in times]
    g2_pre_model = model_slot_g2(scenario, "pre_storage")
    curve_rows = ["t_ns,eta,g2"]
    if g2_pre_model > 1.0:
        eta_now = eta_of(scenario.timing.storage_time_ns)
        g2_post_model = model_slot_g2(scenario, "post_storage")
        if g2_post_model > 1.0 and eta_now > 0 and eta_now < 1:
            b = ((g2_pre_model - 1.0) * eta_now / (g2_post_model - 1.0) - eta_now) / (
                1.0 - eta_now
            )
            b = max(b, 1e-9)
            curve = g2_vs_storage_time(g2_pre_model, dict(zip(times, etas)).__getitem__, b)
            for t, e in zip(times, etas):
                curve_rows.append(f"{t:.6g},{e:.10g},{curve(t):.10g}")
    if len(curve_rows) == 1:
        for t, e in zip(times, etas):
            curve_rows.append(f"{t:.6g},{e:.10g},")
    _write(plots / "efficiency_vs_time.csv", "\n".join(curve_rows) + "\n")

    for stage, result in results.items():
        sfx = _suffix(stage)
        _write(out / f"report_{sfx}.json", reports[stage])
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
