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
model value (MODELS), with a pure-Python port of scipy's brentq, so the
package needs numpy only.  Every fit records target, achieved value and
residual; residuals above 1% are flagged rather than silently accepted.
The model V and the reported analytic S are the reports' own estimators
on the noise-free Born probabilities of the plan's fringe and CHSH
settings (estimators.visibility_analytic, chsh_S_analytic).
"""

from __future__ import annotations

import math
import sys
from dataclasses import replace

import numpy as np

from .errors import CalibrationError, ValidationError
from .estimators import chsh_S_analytic, visibility_analytic
from .experiment import (
    after_storage,
    balanced_state,
    memory_overlap,
    model_alpha,
    model_slot_g2,
    stage_state,
)
from .memory import MemoryDecayParams, efficiency, transparency_window_fwhm, window_acceptance
from .qstate import bell_psi_plus, fidelity
from .scenario import Scenario, check_value

DEFAULT_TARGETS = {
    "eit_window": 20.0,
    "eta_100ns": 0.06,
    "V_pre": 0.883,
    "V_post": 0.812,
    "g2_pre": 130.0,
    "alpha_post": 0.30,
    "g2_post": 14.0,
}


def _visibility(s: Scenario, rho: np.ndarray) -> float:
    """Noise-free visibility of the plan's fringe sweep on rho."""
    return visibility_analytic(rho, s.plan.visibility_arm1, s.plan.visibility_thetas)


def _post(s: Scenario, overlap: float):
    """The post-storage Stage of s, given the memory_overlap of s."""
    t = s.timing.storage_time_ns
    return after_storage(stage_state(s, "pre_storage"), efficiency(overlap, s.decay, t), t)


# Model value of each calibration target on a scenario s; only the memory models read
# overlap, the memory_overlap of s.
MODELS = {
    "eit_window": lambda s, overlap: transparency_window_fwhm(s.eit),
    "eta_100ns": lambda s, overlap: efficiency(overlap, s.decay, 100.0),
    "V_pre": lambda s, overlap: _visibility(s, balanced_state(s)),
    "F_pre": lambda s, overlap: fidelity(balanced_state(s), bell_psi_plus()),
    "V_post": lambda s, overlap: _visibility(s, _post(s, overlap).rho),
    "F_post": lambda s, overlap: fidelity(_post(s, overlap).rho, balanced_state(s)),
    "g2_pre": lambda s, overlap: model_slot_g2(stage_state(s, "pre_storage")),
    "alpha_pre": lambda s, overlap: model_alpha(stage_state(s, "pre_storage")),
    "alpha_post": lambda s, overlap: model_alpha(_post(s, overlap)),
    "g2_post": lambda s, overlap: model_slot_g2(_post(s, overlap)),
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


# scipy's brentq defaults: relative tolerance 4 eps, 100 iterations
_RTOL = 4 * sys.float_info.epsilon
_MAXITER = 100


def _brent(f, xpre, xcur, fpre, fcur, xtol):
    """Root of f between xpre and xcur, whose values fpre and fcur are 0 or
    of opposite signs; None when _MAXITER iterations do not converge.

    Brent's method (Algorithms for Minimization without Derivatives, 1973)
    step for step as scipy's brentq.c, so the roots are the same floats.
    f must not return NaN.
    """
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    return None


def _root(model, target, bracket, xtol, name, parameter) -> float:
    """Brent root of model(x) = target on the bracket."""
    lo, hi = bracket
    at_lo, at_hi = model(lo), model(hi)
    f_lo, f_hi = at_lo - target, at_hi - target
    if not (f_lo <= 0 <= f_hi or f_hi <= 0 <= f_lo):
        raise CalibrationError(
            f"{name} target {target} unreachable: {parameter} = {lo:.6g} gives {at_lo:.6g} "
            f"and {parameter} = {hi:.6g} gives {at_hi:.6g}"
        )

    def f(x):
        value = model(x) - target
        if math.isnan(value):
            raise CalibrationError(f"{name} model is NaN at {parameter} = {x!r}")
        return value

    x = _brent(f, lo, hi, f_lo, f_hi, xtol)
    if x is None:
        raise CalibrationError(
            f"{name} target {target}: the root search for {parameter} in [{lo:.6g}, {hi:.6g}] "
            f"did not converge in {_MAXITER} iterations"
        )
    return float(x)


_TAU_MEM_RANGE = dict(MemoryDecayParams.ranges)["tau_mem"]


def _tau_for_eta(s: Scenario, target: float, overlap: float) -> float:
    """Closed-form tau_mem putting the 100 ns storage efficiency on target."""
    if not 0.0 < target < 1.0:
        raise CalibrationError(f"eta_100ns target {target} outside (0, 1): no tau_mem reaches it")
    ceiling = efficiency(overlap, s.decay, 0.0)  # spectral overlap times eta_peak
    if target >= ceiling:
        raise CalibrationError(
            f"eta_100ns target {target} not below the spectral-overlap ceiling {ceiling:.4f}: "
            "no tau_mem reaches it"
        )
    ratio = math.log(ceiling / target)
    tau = 100.0 / math.sqrt(ratio) if s.decay.model == "gaussian" else 100.0 / ratio
    if tau not in _TAU_MEM_RANGE:
        raise CalibrationError(
            f"eta_100ns target {target} needs decay.tau_mem = {tau:.6g} ns, "
            f"outside {_TAU_MEM_RANGE}"
        )
    return tau


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
    for name, value in targets.items():
        check_value(value, float, f"calibration target {name}")
    if targets.get("eit_window", 1.0) <= 0:
        # the model reads a window without a peak as 0 wide
        raise CalibrationError(f"eit_window target {targets['eit_window']} must be positive")
    report: dict = {}
    s, overlap = scenario, None
    for names, section, parameter, bracket, xtol in FITS:
        given = [name for name in names if name in targets]
        if not given:
            continue
        name, target = given[0], targets[given[0]]
        model, set_x = MODELS[name], _setter(section, parameter)
        if overlap is None and (name == "eta_100ns" or name.endswith("_post")):
            # only the window fit, which comes first, changes it: one overlap per calibration
            overlap = memory_overlap(s)
        if bracket is None:
            x = _tau_for_eta(s, target, overlap)
        else:
            if name == "g2_pre":
                # the curve is dark-limited at tiny pair_prob; search the
                # pair-statistics-limited (decreasing) branch only
                grid = np.logspace(-5, np.log10(bracket[1]), 80)
                values = [model(set_x(s, pp), overlap) for pp in grid]
                bracket = (grid[int(np.argmax(values))], bracket[1])
            x = _root(lambda v: model(set_x(s, v), overlap), target, bracket, xtol, name, parameter)
        s = set_x(s, x)
        if name == "eit_window":  # a window too narrow for the probe grid has no overlap
            try:
                window_acceptance(s.eit)
            except ValidationError as exc:
                raise CalibrationError(f"{name} target {target} fits {parameter} = {x:.6g}: {exc}")
        _record(report, name, target, model(s, overlap))
        report[name]["parameter"] = {parameter: x}
        for other in given[1:]:
            _record(report, other, targets[other], MODELS[other](s, overlap))
            report[other].update(parameter={}, check_only=True)
    report["checks"] = _consistency_checks(s, memory_overlap(s) if overlap is None else overlap)
    return s, report


def _consistency_checks(s: Scenario, overlap: float) -> dict:
    """Derived observables not directly fitted, for the calibration report."""
    pre, post = stage_state(s, "pre_storage"), _post(s, overlap)
    return {
        "alpha_pre": model_alpha(pre),
        "F_pre_to_ideal": fidelity(pre.rho, bell_psi_plus()),
        "F_post_to_pre": fidelity(post.rho, pre.rho),
        "S_pre_analytic": chsh_S_analytic(pre.rho, s.plan.chsh_angles),
        "S_post_analytic": chsh_S_analytic(post.rho, s.plan.chsh_angles),
        "g2_pre_model": model_slot_g2(pre),
        "g2_post_model": model_slot_g2(post),
        "eta_at_storage_time": post.eta,
        "spectral_overlap_ceiling": efficiency(overlap, s.decay, 0.0),
        "arm_efficiencies": [pre.e1, pre.e2],
    }
