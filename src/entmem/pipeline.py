"""Scenario-driven orchestration: simulate, estimate, report.

run_experiment() runs one stage (pre_storage bypasses the memory,
post_storage applies it at the configured storage time) in two halves:
draw_stage() samples every count record with seeds derived from the master
seed, then estimate_stage() makes every figure from those records alone.
Everything is bit-reproducible from (scenario, master_seed); reports carry
no timestamps for that reason.
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .detection import (
    G2_PAIRS_MAX,
    POISSON_MEAN_MAX,
    CountRecord,
    G2Histogram,
    count_means,
    draw_counts,
    g2_histogram,
    records_to_csv,
    single_photon_like,
)
from .errors import EstimationError, ValidationError
from .estimators import (
    TOMO_SETTINGS,
    EstimateWithError,
    VisibilityResult,
    alpha_counts,
    alpha_from_counts,
    cauchy_schwarz_R,
    chsh_counts,
    chsh_e_matrix,
    chsh_S,
    chsh_S_literal,
    chsh_settings,
    fit_rows,
    fringe_settings,
    is_nonclassical_R,
    mc_error,
    tomo_counts,
    tomo_estimate,
    tomo_mle,
    visibility_fit,
)
from .experiment import (
    STAGES,
    Stage,
    after_storage,
    alpha_probs,
    memory_efficiency,
    model_rates,
    model_slot_g2,
    slot_probs,
    stage_state,
)
from .memory import EITParams, eit_transmission, transparency_window_fwhm
from .qstate import BASIS_LABELS, BASIS_STRING, bell_psi_plus, fidelity, matrix_json
from .rng import derive_seed_sequence
from .scenario import Scenario, scenario_to_dict

REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class MleState:
    """A stage's point MLE, one read-only (4, 4) array rho, read as result.rho_mle.rho by the
    benchmark workloads; the holder goes once they read the array itself (ROADMAP item 1)."""

    rho: np.ndarray


@dataclass
class StageResult:
    """Everything one stage produces: its records and the estimates made from them."""

    view: Stage
    records: dict = field(default_factory=dict)
    rho_linear: np.ndarray | None = None
    rho_mle: MleState | None = None
    fidelity: EstimateWithError | None = None
    chsh_S: EstimateWithError | None = None
    chsh_E: np.ndarray | None = None
    visibility: VisibilityResult | None = None
    alpha: EstimateWithError | None = None
    g2_hist: G2Histogram | None = None
    cauchy_schwarz: dict = field(default_factory=dict)

    @property
    def stage(self) -> str:
        return self.view.name

    @property
    def eta(self) -> float:
        return self.view.eta

    @property
    def g2_peak(self) -> float:
        return float(self.g2_hist.peak_g2)


# ---------------------------------------------------------------------------
# Measurement simulations.
# ---------------------------------------------------------------------------


def _simulate_records(
    stage: Stage, sampling: str, kind: str, settings, seed_prefix: str = ""
) -> list[CountRecord]:
    """One count record per setting of the design, acquired for the plan's "{kind}_{suffix}" time.

    The counts of a setting are drawn from the seed label
    "{suffix}:{seed_prefix}{label}"; the record carries the setting label
    itself.
    """

    acq = getattr(stage.scenario.plan.acquisition_s, f"{kind}_{stage.suffix}")
    rates = model_rates(stage, settings)
    labels = settings[0]
    keys = [f"{stage.suffix}:{seed_prefix}{label}" for label in labels]
    rows = [count_means(r, acq, acq, key) for key, *r in zip(keys, rates.r1, rates.r2, rates.r12)]
    counts, seed = draw_counts(rows, sampling, stage.scenario.master_seed, keys)
    return [
        CountRecord(label, s1, s2, min(c, s1, s2), 0, acq, seed)
        for label, (s1, s2, c) in zip(labels, counts)
    ]


def simulate_alpha(stage: Stage, sampling: str) -> list[CountRecord]:
    """Heralded-autocorrelation records, one per port: herald, port, coincidences, triples."""
    scenario, sfx = stage.scenario, stage.suffix
    p1, p_port, p12, p123 = alpha_probs(stage)
    acq = getattr(scenario.plan.acquisition_s, f"alpha_{sfx}")
    n_slots = scenario.timing.pulse_rate * acq
    means = count_means((p1, p_port, p_port, p12, p12, p123), n_slots, acq, f"alpha:{sfx}")
    (counts,), seed = draw_counts([means], sampling, scenario.master_seed, [f"{sfx}:alpha"])
    n1, n2a, n2b, n12, n13, n123 = counts
    n12, n13 = min(n12, n1, n2a), min(n13, n1, n2b)
    n123 = min(n123, n12, n13)
    return [
        CountRecord(f"alpha:{sfx}:a", n1, n2a, n12, n123, acq, seed),
        CountRecord(f"alpha:{sfx}:b", n1, n2b, n13, n123, acq, seed),
    ]


def simulate_g2(stage: Stage) -> G2Histogram:
    """Time-resolved cross-correlation for the stage."""
    scenario = stage.scenario
    s1, s2, s12 = slot_probs(stage)
    slot, acq = scenario.timing.cycle_period_ns, scenario.plan.acquisition_s.g2
    slots = scenario.timing.pulse_rate * acq  # a float: it may be past any int64
    pair_prob = max(s12 - s1 * s2, 0.0)
    # Checked before any draw; the accidentals of one slot bound those of every bin.
    pairs, accidentals = slots * pair_prob, slots * s1 * s2
    if not (slots >= 1 and pairs <= G2_PAIRS_MAX and accidentals <= POISSON_MEAN_MAX):
        raise ValidationError(
            f"settings.acquisition_s.g2: at acquisition_s={acq:g} the histogram spans {slots:.3g}"
            f" pump periods (at least 1) and expects {pairs:.3g} pairs (at most {G2_PAIRS_MAX:.3g})"
            f" and {accidentals:.3g} accidentals per slot (at most {POISSON_MEAN_MAX:.3g})"
        )
    seed = int(
        derive_seed_sequence(scenario.master_seed, f"{stage.suffix}:g2").generate_state(1)[0]
    )
    fwhm = scenario.source.s2_temporal_fwhm
    return g2_histogram(int(slots), slot, (s1, s2, pair_prob), stage.delay_ns, fwhm, seed)


# ---------------------------------------------------------------------------
# A stage run: every draw, then every estimate.
# ---------------------------------------------------------------------------


def draw_stage(scenario: Scenario, stage: str, sampling: str = "poisson"):
    """Every draw of one stage: its view, its records in StageResult.records order, its g2."""
    if sampling not in ("poisson", "expected"):
        raise ValidationError(f"unknown sampling mode {sampling!r}")
    view = stage_state(scenario, stage)
    if view.eta == 0:
        raise EstimationError(
            "the memory retrieves nothing: retrieval efficiency 0 at storage time "
            f"{scenario.timing.storage_time_ns:g} ns (timing.storage_time_ns) with "
            f"decay.tau_mem {scenario.decay.tau_mem:g} ns"
        )
    plan = scenario.plan
    records = {
        "tomography": _simulate_records(view, sampling, "tomo", TOMO_SETTINGS.settings, "tomo:"),
        "chsh": _simulate_records(view, sampling, "chsh", chsh_settings(plan.chsh_angles)),
    }
    for arm1 in dict.fromkeys([plan.visibility_arm1, "H"]):  # the reported arm, then H for plots
        design = fringe_settings(arm1, plan.visibility_thetas)
        records[f"visibility_{arm1}"] = _simulate_records(view, sampling, "vis", design)
    records["alpha"] = simulate_alpha(view, sampling)
    return view, records, simulate_g2(view)


def estimate_stage(view, records, g2_hist, reference=None, error_bars=False, fits=None):
    """Every figure of one stage, estimated from its records and g2 histogram (the post stage's
    fidelity against the reference records, see tomo_estimate).  Of the model it reads
    view.g22 alone; its only draws are the bootstraps, when error_bars is set."""

    scenario, plan = view.scenario, view.scenario.plan
    n_res, seed = plan.n_resamples, scenario.master_seed
    fits = {} if fits is None else fits
    result = StageResult(view, records, g2_hist=g2_hist)

    def with_sigma(point, estimator, counts) -> EstimateWithError:
        """The point estimate, with the bootstrap sigma of estimator(counts) if enabled."""
        sigma = mc_error(estimator, counts, n_res, seed).sigma if error_bars else 0.0
        return EstimateWithError(point, sigma, n_res if error_bars else 0)

    # --- tomography and fidelity
    result.rho_linear, rho_mle, point = tomo_estimate(records["tomography"], reference, fits)
    result.rho_mle = MleState(rho_mle)
    counts, acq = tomo_counts(records["tomography"])
    ref_counts, ref_acq = (np.empty(0),) * 2 if reference is None else tomo_counts(reference)
    n_ref = len(ref_counts)

    def fitted(rows, row_acq):
        """The rows' fits as one fit_rows batch, each read through tomo_mle; NaN where it failed.

        The read-back, one tomo_mle call per row, makes 600 of a simulate's 603 tomo_mle calls
        only because bench/test_bench.py pins that count (ROADMAP item 2 drops it)."""
        fit_rows(rows, row_acq, fits)
        rho = np.full((len(rows), 4, 4), np.nan, dtype=np.complex128)
        for k, row in enumerate(rows):
            with suppress(EstimationError):
                rho[k] = tomo_mle(row, row_acq, fits)
        return rho

    def f_estimator(resampled):
        ref = fitted(resampled[:, :n_ref], ref_acq) if n_ref else bell_psi_plus()
        return fidelity(fitted(resampled[:, n_ref:], acq), ref)

    result.fidelity = with_sigma(point, f_estimator, np.concatenate([ref_counts, counts]))

    # --- CHSH
    coincidences = chsh_counts(records["chsh"])
    result.chsh_E = chsh_e_matrix(coincidences)
    result.chsh_S = with_sigma(
        chsh_S(result.chsh_E), lambda counts: chsh_S(chsh_e_matrix(counts)), coincidences
    )

    # --- visibility of the reported arm, its records at the plan's angles
    fringe = records[f"visibility_{plan.visibility_arm1}"]
    points = [(float(t), float(r.coincidences)) for t, r in zip(plan.visibility_thetas, fringe)]
    vis = visibility_fit(points, n_resamples=n_res, seed=seed)
    if not error_bars:
        vis = replace(vis, estimate=EstimateWithError(vis.estimate.value, 0.0, 0))
    result.visibility = vis

    # --- heralded autocorrelation
    a_counts = list(alpha_counts(records["alpha"]).values())
    result.alpha = with_sigma(alpha_from_counts(a_counts), alpha_from_counts, a_counts)

    # --- Cauchy-Schwarz from the cross-correlation histogram
    g22 = view.g22
    g11 = scenario.correlations.g2_autocorr_s1
    r_value = cauchy_schwarz_R(g2_hist.peak_g2, g11, g22)
    # Poisson error of the slot-aggregated peak, for a significance-aware
    # nonclassicality claim: a classical scenario must not be flagged just
    # because the peak fluctuated above 1.  The peak bin lies in its own slot
    # window, so peak_counts >= 1.
    sigma_peak = g2_hist.peak_g2 / np.sqrt(g2_hist.peak_counts)
    sigma_r = 2.0 * g2_hist.peak_g2 * sigma_peak / (g11 * g22)
    result.cauchy_schwarz = {
        "g12": float(g2_hist.peak_g2),
        "g11": float(g11),
        "g22": float(g22),
        "R": float(r_value),
        "sigma": float(sigma_r),
        "nonclassical": bool(is_nonclassical_R(r_value - 3.0 * sigma_r)),
    }
    return result


def run_experiment(
    scenario: Scenario,
    stage: str,
    sampling: str = "poisson",
    fits: dict | None = None,
) -> StageResult:
    """Draw one stage, then estimate its figures; the post stage's fidelity reference is the
    pre-storage tomography, drawn again.  Callers may share the fit store fits (see tomo_mle)."""
    view, records, g2_hist = draw_stage(scenario, stage, sampling)
    reference = None
    if stage == "post_storage":
        pre = stage_state(scenario, "pre_storage")
        reference = _simulate_records(pre, sampling, "tomo", TOMO_SETTINGS.settings, "tomo:")
    error_bars = scenario.plan.error_bars and sampling == "poisson"
    return estimate_stage(view, records, g2_hist, reference, error_bars, fits)


def seed_ensemble(scenario: Scenario, runs: int) -> dict[str, list[float]]:
    """Per-seed figures of both stages over runs seeds, without error bars.

    Run k uses master_seed + k; its two stages share their fits.  Keys are
    F, S, V, g2 and alpha, each with a _pre and a _post suffix.
    """

    if runs < 1:
        raise ValidationError(f"seed_ensemble needs at least 1 run, got {runs}")
    scenario = replace(scenario, plan=replace(scenario.plan, error_bars=False))
    figures = {}
    for k in range(runs):
        scn = replace(scenario, master_seed=scenario.master_seed + k)
        fits = {}
        results = [run_experiment(scn, stage, fits=fits) for stage in STAGES]
        for r in results:
            for name, value in (
                ("F", r.fidelity.value),
                ("S", r.chsh_S.value),
                ("V", r.visibility.estimate.value),
                ("g2", r.g2_peak),
                ("alpha", r.alpha.value),
            ):
                figures.setdefault(f"{name}_{r.view.suffix}", []).append(value)
    return figures


# ---------------------------------------------------------------------------
# Report assembly and emission.
# ---------------------------------------------------------------------------


def _estimate_json(est: EstimateWithError) -> dict:
    return {"value": est.value, "sigma": est.sigma, "n_resamples": est.n_resamples}


def stage_report(
    scenario: Scenario, result: StageResult, calibration_report: dict | None = None
) -> dict:
    window = transparency_window_fwhm(scenario.eit)
    counts = alpha_counts(result.records["alpha"])
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "stage": result.stage,
        "master_seed": scenario.master_seed,
        "scenario": scenario_to_dict(scenario),
        "memory": {
            "eta": result.eta,
            "window_fwhm_mhz": window if window > 0 else None,
        },
        "tomography": {
            "rho_linear": matrix_json(result.rho_linear),
            "rho_mle": matrix_json(result.rho_mle.rho),
        },
        "fidelity": {
            "reference": "pre_storage_mle" if result.stage == "post_storage" else "ideal",
            **_estimate_json(result.fidelity),
        },
        "chsh": {
            "angles": list(scenario.plan.chsh_angles),
            "E": [[float(x) for x in row] for row in result.chsh_E],
            "S_literal": chsh_S_literal(result.chsh_E),
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
            "counts": counts,
            "single_photon_like": single_photon_like(result.alpha.value, counts),
            **_estimate_json(result.alpha),
        },
        "g2": {
            "peak": result.g2_peak,
            "peak_tau_ns": result.g2_hist.peak_tau_ns,
            "model_slot_g2": model_slot_g2(result.view),
        },
        "cauchy_schwarz": result.cauchy_schwarz,
    }
    if calibration_report is not None:
        report["calibration"] = calibration_report
    return report


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then one line per row."""
    return "\n".join([header, *rows]) + "\n"


def eit_spectrum_csv(eit: EITParams) -> str:
    """The EIT transmission spectrum as CSV (detuning_mhz, transmission)."""
    grid, trans = eit_transmission(eit)
    return _csv("detuning_mhz,transmission", (f"{d:.6g},{t:.10g}" for d, t in zip(grid, trans)))


def _matrix_csv(m: np.ndarray) -> str:
    rows = (lbl + "," + ",".join(f"{x:.12g}" for x in row) for lbl, row in zip(BASIS_LABELS, m))
    return _csv("row," + BASIS_STRING, rows)


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
    # storage-efficiency and g2 decay curves; the g2 column reads the
    # post-storage inputs, so it stays blank unless that stage was simulated
    times = np.linspace(0.0, 3.0 * scenario.decay.tau_mem, 121)
    etas = memory_efficiency(scenario, times)
    g2s = [""] * len(times)
    if "post_storage" in results:
        # one Stage over all the times; 3 tau_mem may pass the fiber delay, which g2 does not read
        post = after_storage(stage_state(scenario, "pre_storage"), etas, times)
        g2s = [f"{g:.10g}" for g in model_slot_g2(post)]
    curve_rows = [f"{t:.6g},{eta:.10g},{g2}" for t, eta, g2 in zip(times, etas, g2s)]
    thetas = scenario.plan.visibility_thetas
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    plots = out / "plots"
    plots.mkdir(exist_ok=True)
    written: list[Path] = []

    def _write(path: Path, text: str):
        path.write_text(text)
        written.append(path)

    _write(plots / "eit_spectrum.csv", eit_spectrum_csv(scenario.eit))
    _write(plots / "efficiency_vs_time.csv", _csv("t_ns,eta,g2", curve_rows))

    for stage, result in results.items():
        sfx = result.view.suffix
        _write(out / f"report_{sfx}.json", reports[stage])
        for group, records in result.records.items():
            _write(out / f"counts_{sfx}_{group}.csv", records_to_csv(records))
            if group.startswith("visibility_"):  # a fringe: its records at the plan's angles
                rows = (f"{t:.10g},{r.coincidences}" for t, r in zip(thetas, records))
                name = f"fringe_{sfx}_{group.removeprefix('visibility_')}.csv"
                _write(plots / name, _csv("theta_rad,coincidences", rows))
        for name, matrix in (
            ("mle", result.rho_mle.rho),
            ("linear", result.rho_linear),
        ):
            for part, values in (("real", matrix.real), ("imag", matrix.imag)):
                _write(out / f"rho_{sfx}_{name}_{part}.csv", _matrix_csv(values))
        hist = result.g2_hist
        bins = zip(hist.tau_ns, hist.counts, hist.g2, hist.zero_floor)
        rows = (f"{t:.6g},{int(c)},{g:.10g},{int(z)}" for t, c, g, z in bins)
        _write(plots / f"g2_histogram_{sfx}.csv", _csv("tau_ns,counts,g2,zero_floor", rows))
    return written
