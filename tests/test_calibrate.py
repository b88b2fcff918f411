"""The calibration root search: the pure-Python Brent port against scipy's brentq."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

import entmem.calibrate as calibrate_module
import entmem.memory
from entmem.calibrate import DEFAULT_TARGETS, calibrate
from entmem.errors import CalibrationError
from entmem.scenario import load_bundled_scenario


def perturbed_targets(n: int = 40, seed: int = 0) -> list[dict]:
    """The default targets with V_pre, V_post, g2_pre, alpha_post and g2_post each scaled by U(0.9, 1.1)."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(n):
        targets = dict(DEFAULT_TARGETS)
        for name in ("V_pre", "V_post", "g2_pre", "alpha_post", "g2_post"):
            targets[name] *= rng.uniform(0.9, 1.1)
        sets.append(targets)
    return sets


def test_brent_port_returns_the_roots_of_scipy_brentq(monkeypatch):
    port, searches = calibrate_module._brent, []

    def both(f, xpre, xcur, fpre, fcur, xtol):
        ours = port(f, xpre, xcur, fpre, fcur, xtol)
        ref, info = brentq(f, xpre, xcur, xtol=xtol, full_output=True, disp=False)
        searches.append((ours, ref, info.converged))
        return ours

    monkeypatch.setattr(calibrate_module, "_brent", both)
    unreachable = 0
    for targets in [DEFAULT_TARGETS, *perturbed_targets()]:
        try:
            calibrate(load_bundled_scenario(), targets)
        except CalibrationError as err:
            # the bracket check comes before either root search
            assert str(err).startswith("V_post target") and "unreachable" in str(err)
            unreachable += 1
    # 4 sets stop at V_post, the 4th of the 6 bracketed fits
    assert (unreachable, len(searches)) == (4, 6 * 41 - 4 * 4)
    for ours, ref, converged in searches:
        assert converged and ours is not None
        assert ours.hex() == ref.hex()


def test_the_search_reuses_the_bracket_end_values():
    points = []

    def model(x):
        points.append(x)
        return x**3

    root = calibrate_module._root(model, 0.2, (0.0, 1.0), 1e-14, "V_pre", "p_white")
    assert root == pytest.approx(0.2 ** (1 / 3), rel=1e-13)
    assert points.count(0.0) == points.count(1.0) == 1


def test_root_search_that_does_not_converge_is_a_calibration_error():
    def step(x):
        return -1.0 if x <= 0 else 1.0

    # a step at 0 and a tolerance far below 2**-100: every step bisects
    ref, info = brentq(step, -1.0, 1.0, xtol=1e-300, full_output=True, disp=False)
    assert not info.converged
    assert calibrate_module._brent(step, -1.0, 1.0, -1.0, 1.0, 1e-300) is None
    with pytest.raises(CalibrationError, match="p_white in .* did not converge in 100 iterations"):
        calibrate_module._root(step, 0.0, (-1.0, 1.0), 1e-300, "V_pre", "p_white")


def test_model_nan_inside_the_bracket_is_a_calibration_error():
    def model(x):
        return {0.0: -1.0, 1.0: 1.0}.get(x, math.nan)

    with pytest.raises(CalibrationError, match="NaN at p_depol"):
        calibrate_module._root(model, 0.0, (0.0, 1.0), 1e-14, "V_post", "p_depol")


def test_a_root_at_a_bracket_end_is_returned_without_a_search():
    def model(x):
        raise AssertionError("evaluated inside the bracket")

    assert calibrate_module._brent(model, 0.0, 1.0, 0.0, 1.0, 1e-14) == 0.0
    assert calibrate_module._brent(model, 0.0, 1.0, -1.0, -0.0, 1e-14) == 1.0


def test_a_calibration_computes_few_spectral_overlaps(monkeypatch):
    """One spectral overlap serves every fit after the window fit, and the checks."""
    overlap, calls = entmem.memory.spectral_overlap, []

    def counted(*args):
        calls.append(args)
        return overlap(*args)

    monkeypatch.setattr(entmem.memory, "spectral_overlap", counted)
    calibrate(load_bundled_scenario())
    assert len(calls) == 1
