"""Fit the scenario's free parameters to the published anchor values.

Single forward pass in a fixed order; each parameter has one target and a
1-D fit, because the couplings are weak in this direction (the EIT window
sets the overlap, the overlap sets the decay calibration, the pair
statistics set both correlation floors):

    rabi_coupling    <- EIT transparency window FWHM
    tau_mem          <- storage efficiency at 100 ns (closed form)
    p_white          <- pre-storage visibility (or fidelity)
    p_depol          <- post-storage visibility (or storage fidelity)
    pair_prob        <- pre-storage slot-normalized g2 (or heralded alpha)
    background_flux  <- post-storage heralded autocorrelation
    g2_channel_background <- post-storage slot-normalized g2

Every fit but tau_mem is one bracketed Brent root search on the target's
model value (MODELS).  Every fit records target, achieved value and
residual; residuals above 1% are flagged rather than silently accepted.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.optimize import brentq

from .detection import heralded_alpha
from .errors import CalibrationError, ValidationError
from .estimators import chsh_S_analytic
from .experiment import (
    arm_efficiencies,
    balanced_state,
    memory_efficiency,
    model_alpha,
    model_slot_g2,
    overlap_ceiling,
    stage_state,
)
from .memory import transparency_window_fwhm
from .qstate import KET_BY_LABEL, TwoQubitState, bell_psi_plus, fidelity
from .scenario import Scenario

DEFAULT_TARGETS = {
    "eit_window": 20.0,
    "eta_100ns": 0.06,
    "V_pre": 0.883,
    "V_post": 0.812,
    "g2_pre": 130.0,
    "alpha_post": 0.30,
    "g2_post": 14.0,
}


def analytic_visibility(rho: TwoQubitState, arm1_label: str) -> float:
    """Exact fringe contrast for an arm-1 analysis state and swept arm-2 HWP.

    The half-wave plate at angle theta rotates the analyzed polarization to
    2*theta, so the fringe C(theta) is sinusoidal in 4*theta; contrast is
    evaluated on the closed-form coefficients.
    """

    v1 = KET_BY_LABEL[arm1_label]().vector
    r1 = np.outer(v1, v1.conj())
    thetas = np.linspace(0.0, np.pi / 2, 9)[:-1]
    probs = []
    for th in thetas:
        a = np.array([np.cos(2 * th), np.sin(2 * th)], dtype=np.complex128)
        proj = np.kron(r1, np.outer(a, a.conj()))
        probs.append(float(np.real(np.trace(rho.rho @ proj))))
    probs = np.asarray(probs)
    design = np.column_stack([np.ones_like(thetas), np.cos(4 * thetas), np.sin(4 * thetas)])
    a0, a1, a2 = np.linalg.lstsq(design, probs, rcond=None)[0]
    if a0 <= 0:
        return 0.0
    return float(min(np.hypot(a1, a2) / a0, 1.0))


def _window_fwhm(s: Scenario) -> float:
    """Transparency window FWHM, reading 0 without a peak and inf past the grid."""
    try:
        return transparency_window_fwhm(s.eit)
    except CalibrationError as err:
        if err.parameter == "rabi_coupling":
            return 0.0
        if err.parameter == "probe_detuning_grid":
            return math.inf
        raise


# Model value of each calibration target on a scenario.
MODELS = {
    "eit_window": _window_fwhm,
    "eta_100ns": lambda s: memory_efficiency(s, 100.0),
    "V_pre": lambda s: analytic_visibility(balanced_state(s)[0], s.plan.visibility_arm1),
    "F_pre": lambda s: fidelity(balanced_state(s)[0], bell_psi_plus()),
    "V_post": lambda s: analytic_visibility(
        stage_state(s, "post_storage")[0], s.plan.visibility_arm1
    ),
    "F_post": lambda s: fidelity(stage_state(s, "post_storage")[0], balanced_state(s)[0]),
    "g2_pre": lambda s: model_slot_g2(s, "pre_storage"),
    "alpha_pre": lambda s: heralded_alpha(*model_alpha(s, "pre_storage")),
    "alpha_post": lambda s: heralded_alpha(*model_alpha(s, "post_storage")),
    "g2_post": lambda s: model_slot_g2(s, "post_storage"),
}


def _setter(section: str, name: str):
    return lambda s, x: replace(s, **{section: replace(getattr(s, section), **{name: float(x)})})


# Fits in calibration order: (targets, section, parameter, bracket, xtol).
# When both targets of a fit are given, the first is fitted and the second
# only checked.  tau_mem has a closed form and no bracket.
FITS = (
    (("eit_window",), "eit", "rabi_coupling", (0.5, 200.0), 1e-6),
    (("eta_100ns",), "decay", "tau_mem", None, None),
    (("V_pre", "F_pre"), "source", "p_white", (0.0, 1.0), 1e-14),
    (("V_post", "F_post"), "mem_noise", "p_depol", (0.0, 1.0), 1e-14),
    (("g2_pre", "alpha_pre"), "source", "pair_prob", (1e-5, 0.45), 1e-14),
    (("alpha_post",), "mem_noise", "background_flux", (0.0, 0.2), 1e-16),
    (("g2_post",), "correlations", "g2_channel_background", (0.0, 0.5), 1e-16),
)


def _root(model, target, bracket, xtol, name, parameter) -> float:
    """Brent root of model(x) = target on the bracket."""
    lo, hi = bracket
    at_lo, at_hi = model(lo), model(hi)
    if not (at_lo - target) * (at_hi - target) <= 0:
        raise CalibrationError(
            f"{name} target {target} unreachable: {parameter} = {lo:.6g} gives {at_lo:.6g} "
            f"and {parameter} = {hi:.6g} gives {at_hi:.6g}",
            parameter=parameter,
        )
    return float(brentq(lambda x: model(x) - target, lo, hi, xtol=xtol))


def _tau_for_eta(s: Scenario, target: float) -> float:
    """Closed-form tau_mem putting the 100 ns storage efficiency on target."""
    if not 0.0 < target < 1.0:
        raise CalibrationError(
            f"storage-efficiency target {target} out of physical range",
            parameter="eta_100ns",
        )
    ceiling = overlap_ceiling(s)
    if target >= ceiling:
        raise CalibrationError(
            f"eta target {target} above the spectral-overlap ceiling {ceiling:.4f}",
            parameter="tau_mem",
        )
    ratio = math.log(ceiling / target)
    return 100.0 / math.sqrt(ratio) if s.decay.model == "gaussian" else 100.0 / ratio


def _record(report, name, target, achieved):
    resid = abs(achieved - target) / abs(target) if target else abs(achieved)
    report[name] = {
        "target": target,
        "achieved": achieved,
        "residual": resid,
        "flagged": bool(resid > 0.01),
    }


def calibrate(scenario: Scenario, targets: dict | None = None) -> tuple[Scenario, dict]:
    """Resolve free parameters against the targets; returns (scenario, report)."""
    targets = dict(DEFAULT_TARGETS if targets is None else targets)
    unknown = set(targets) - set(MODELS)
    if unknown:
        raise CalibrationError(f"unknown calibration targets {sorted(unknown)}")
    bad = sorted(
        name
        for name, value in targets.items()
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value)
    )
    if bad:
        raise ValidationError(f"calibration targets {bad} must be finite numbers")
    if targets.get("eit_window", 1.0) <= 0:
        # the model reads a window without a peak as 0 wide
        raise CalibrationError("window target must be positive", parameter="eit_window")
    report: dict = {}
    s = scenario
    for names, section, parameter, bracket, xtol in FITS:
        given = [name for name in names if name in targets]
        if not given:
            continue
        name, target = given[0], targets[given[0]]
        model, set_x = MODELS[name], _setter(section, parameter)
        if bracket is None:
            x = _tau_for_eta(s, target)
        else:
            if name == "g2_pre":
                # the curve is dark-limited at tiny pair_prob; search the
                # pair-statistics-limited (decreasing) branch only
                grid = np.logspace(-5, np.log10(bracket[1]), 80)
                values = [model(set_x(s, pp)) for pp in grid]
                bracket = (grid[int(np.argmax(values))], bracket[1])
            x = _root(lambda v: model(set_x(s, v)), target, bracket, xtol, name, parameter)
        s = set_x(s, x)
        _record(report, name, target, model(s))
        report[name]["parameter"] = {parameter: x}
        for other in given[1:]:
            _record(report, other, targets[other], MODELS[other](s))
            report[other].update(parameter={}, check_only=True)
    report["checks"] = _consistency_checks(s)
    return s, report


def _consistency_checks(s: Scenario) -> dict:
    """Derived observables not directly fitted, for the calibration report."""
    rho_pre, _ = balanced_state(s)
    rho_post, _ = stage_state(s, "post_storage")
    alpha_pre = heralded_alpha(*model_alpha(s, "pre_storage"))
    e1, e2 = arm_efficiencies(s)
    checks = {
        "alpha_pre": alpha_pre,
        "F_pre_to_ideal": fidelity(rho_pre, bell_psi_plus()),
        "F_post_to_pre": fidelity(rho_post, rho_pre),
        "S_pre_analytic": chsh_S_analytic(rho_pre),
        "S_post_analytic": chsh_S_analytic(rho_post),
        "g2_pre_model": model_slot_g2(s, "pre_storage"),
        "g2_post_model": model_slot_g2(s, "post_storage"),
        "eta_at_storage_time": memory_efficiency(s),
        "spectral_overlap_ceiling": overlap_ceiling(s),
        "arm_efficiencies": [e1, e2],
    }
    return checks
