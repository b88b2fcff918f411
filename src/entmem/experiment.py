"""Assembly of the physical chain described by a scenario.

Source state -> balancing attenuator -> (optionally) storage channel.
A Stage holds what differs between the stages: the state at the
analyzers and the per-arm detection budgets every counting simulation
shares.  All functions are pure; nothing here samples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from . import memory
from .detection import ExpectedRates, born_probabilities, click_probs, heralded_alpha
from .errors import EstimationError, ValidationError
from .interferometer import apply_attenuator
from .memory import apply_memory, efficiency
from .scenario import Scenario
from .source import two_photon_state

STAGES = ("pre_storage", "post_storage")


def balanced_state(scenario: Scenario) -> np.ndarray:
    """Source state after the balancing attenuator."""
    return apply_attenuator(two_photon_state(scenario.source), scenario.resolved_attenuator())[0]


def memory_overlap(scenario: Scenario) -> float:
    """Spectral overlap of the Signal-2 line with the memory's window."""
    return memory.spectral_overlap(scenario.source.s2_spectral_fwhm, scenario.eit)


def memory_efficiency(scenario: Scenario, t_storage: float | Sequence[float] | None = None):
    """Retrieval efficiency at the configured storage time, or at the given time or times (ns)."""
    t = scenario.timing.storage_time_ns if t_storage is None else t_storage
    return efficiency(memory_overlap(scenario), scenario.decay, t)


@dataclass(frozen=True)
class Stage:
    """What the analyzers see at one stage, built only by stage_state and after_storage.

    Probabilities are per slot (one pump cycle) or per coincidence gate.
    The state is built on first use: the correlation models never need it.
    After storage at (T,) times, eta, e2 and delay_ns are (T,) arrays.
    """

    scenario: Scenario
    name: str
    suffix: str
    eta: float | np.ndarray
    e1: float
    e2: float | np.ndarray
    dark1_slot: float
    dark1_gate: float
    # uncorrelated arm-2 clicks: dark counts, plus retrieval noise after storage
    noise2_slot: float
    noise2_port: float
    background_rate_2: float
    noise_bunching: float
    g22: float
    delay_ns: float | np.ndarray

    @cached_property
    def rho(self) -> np.ndarray:
        rho = balanced_state(self.scenario)
        if self.name == "pre_storage":
            return rho
        return apply_memory(rho, self.scenario.mem_noise)


def stage_state(scenario: Scenario, stage: str) -> Stage:
    """The Stage for "pre_storage" or "post_storage".

    pre_storage bypasses the memory entirely: eta = 1, no depolarization,
    no retrieval noise and no storage delay.  post_storage is pre_storage
    plus the memory at the configured storage time.
    """

    if stage not in STAGES:
        raise ValidationError(f"stage must be one of {STAGES}, got {stage!r}")
    corr, timing, det = scenario.correlations, scenario.timing, scenario.detectors
    slot = timing.cycle_period_ns
    gate = min(det.d1.gate_width, det.d2.gate_width)
    pre = Stage(
        scenario=scenario,
        name="pre_storage",
        suffix="pre",
        eta=1.0,
        # total photon detection probabilities, memory excluded
        e1=scenario.losses.arm1_transmission() * det.d1.efficiency,
        e2=scenario.losses.arm2_transmission() * det.d2.efficiency,
        dark1_slot=det.d1.dark_rate * slot * 1e-9,
        dark1_gate=det.d1.dark_rate * gate * 1e-9,
        noise2_slot=det.d2.dark_rate * slot * 1e-9,
        noise2_port=det.d2.dark_rate * gate * 1e-9,
        background_rate_2=0.0,
        noise_bunching=1.0,
        g22=corr.g2_autocorr_s2_pre,
        delay_ns=timing.fiber_delay_ns,
    )
    d1, d2 = "detectors.d1.dark_rate", "detectors.d2.dark_rate"
    _check_clicks(
        (pre.dark1_slot, d1), (pre.dark1_gate, d1), (pre.noise2_slot, d2), (pre.noise2_port, d2)
    )
    if stage == "pre_storage":
        return pre
    return after_storage(pre, memory_efficiency(scenario), timing.storage_time_ns)


def after_storage(pre: Stage, eta, t_storage) -> Stage:
    """The pre-storage Stage plus the memory, retrieving with eta after t_storage ns;
    floats, or (T,) arrays for one Stage over T storage times."""
    corr, timing = pre.scenario.correlations, pre.scenario.timing
    flux = pre.scenario.mem_noise.background_flux
    if corr.g2_autocorr_s2_post < 1.0:  # retrieval noise is never antibunched
        raise ValidationError(
            f"correlations.g2_autocorr_s2_post must be >= 1, got {corr.g2_autocorr_s2_post:g}"
        )
    post = replace(
        pre,
        name="post_storage",
        suffix="post",
        eta=eta,
        e2=pre.e2 * eta,
        noise2_slot=pre.noise2_slot + corr.g2_channel_background,
        noise2_port=pre.noise2_port + flux / 2.0,
        background_rate_2=flux * timing.pulse_rate,
        noise_bunching=corr.g2_autocorr_s2_post,
        g22=corr.g2_autocorr_s2_post,
        delay_ns=timing.fiber_delay_ns + t_storage,
    )
    _check_clicks(
        (post.noise2_slot, "correlations.g2_channel_background"),
        (post.noise2_port, "mem_noise.background_flux"),
    )
    return post


def _check_clicks(*checks: tuple[float, str]) -> None:
    """Reject a click probability above 1, naming the scenario field behind it."""
    for p, field in checks:
        if p > 1.0:
            raise ValidationError(f"{field} gives a click probability of {p:.4g} > 1")


# -- the count models of a stage; calibration fits the two correlation ones --
# Each gives floats at one storage time, and arrays over several with each time's own bits.


def slot_probs(stage: Stage) -> tuple[float, float, float]:
    """Per-slot (P1, P2, P12) of the g2 measurement channel."""
    scenario = stage.scenario
    pair = (scenario.source.pair_prob, stage.e1, stage.e2, stage.dark1_slot, stage.noise2_slot)
    return click_probs(*pair, pair_correlated=scenario.correlations.pair_correlated)[:3]


def alpha_probs(stage: Stage) -> tuple[float, float, float, float]:
    """Per-slot (P1, P_port, P12, P123) of the heralded-autocorrelation setup.

    A beamsplitter sends arm 2 to two identical detectors, each seeing half
    the arm-2 efficiency.
    """
    scenario = stage.scenario
    return click_probs(
        scenario.source.pair_prob,
        stage.e1,
        stage.e2 / 2.0,
        stage.dark1_gate,
        stage.noise2_port,
        stage.noise_bunching,
        scenario.correlations.pair_correlated,
    )


def model_slot_g2(stage: Stage) -> float:
    """Slot-normalized cross-correlation P12/(P1*P2) of the g2 measurement channel."""
    p1, p2, p12 = slot_probs(stage)
    if (np.minimum(p1, p2) <= 0).any():
        raise EstimationError("cross-correlation undefined without singles")
    return p12 / (p1 * p2)


def model_alpha(stage: Stage) -> float:
    """Heralded autocorrelation P1*P123/P12^2 of the stage (the ports are symmetric)."""
    p1, _, p12, p123 = alpha_probs(stage)
    return heralded_alpha(p1, p12, p12, p123)


def model_rates(stage: Stage, settings) -> ExpectedRates:
    """Singles and coincidence rates (per second) of a design's S settings, (S,) arrays.

    The singles add the dark counts and, after storage, the retrieval
    noise to the detected photons; dead time scales each arm.  The
    accidental term pairs the unpaired singles within the coincidence
    gate, so it vanishes in the lossless limit where every single already
    belongs to a coincidence.
    """

    scenario = stage.scenario
    d1, d2 = scenario.detectors.d1, scenario.detectors.d2
    pairs = scenario.timing.pulse_rate * scenario.source.pair_prob
    gate_s = min(d1.gate_width, d2.gate_width) * 1e-9
    prob, m1, m2 = born_probabilities(stage.rho, settings)
    r1_raw = pairs * m1 * stage.e1 + d1.dark_rate
    r2_raw = pairs * m2 * stage.e2 + d2.dark_rate + stage.background_rate_2
    f1 = 1.0 / (1.0 + r1_raw * d1.dead_time * 1e-9)
    f2 = 1.0 / (1.0 + r2_raw * d2.dead_time * 1e-9)
    r1, r2 = r1_raw * f1, r2_raw * f2
    r12_true = pairs * prob * stage.e1 * stage.e2 * f1 * f2
    r12_acc = np.maximum(r1 - r12_true, 0.0) * np.maximum(r2 - r12_true, 0.0) * gate_s
    return ExpectedRates(r1, r2, r12_true + r12_acc, r12_true, r12_acc)
