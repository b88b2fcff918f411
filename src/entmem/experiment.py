"""Assembly of the physical chain described by a scenario.

Source state -> balancing attenuator -> (optionally) storage channel,
plus the derived per-arm detection budgets every counting simulation
shares.  All functions are pure; nothing here samples.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .detection import slot_g2, triple_coincidence_probs
from .interferometer import apply_attenuator
from .memory import apply_memory, efficiency_curve, spectral_overlap
from .qstate import TwoQubitState
from .scenario import Scenario
from .source import Spectrum, two_photon_state, wavepacket_spectrum


def arm_efficiencies(scenario: Scenario) -> tuple[float, float]:
    """Total photon detection probabilities (arm 1, arm 2), memory excluded."""
    e1 = scenario.losses.arm1_transmission() * scenario.detector1.efficiency
    e2 = scenario.losses.arm2_transmission() * scenario.detector2.efficiency
    return e1, e2


def signal_spectrum(scenario: Scenario) -> Spectrum:
    fwhm = scenario.source.s2_spectral_fwhm
    _, hi, n = scenario.eit.probe_grid_mhz
    half = max(4.0 * fwhm, 2.5 * abs(hi))
    grid = np.linspace(-half, half, max(1601, n))
    return wavepacket_spectrum(fwhm, grid)


def balanced_state(scenario: Scenario) -> tuple[TwoQubitState, float]:
    """Source state after the balancing attenuator, with success probability."""
    return apply_attenuator(two_photon_state(scenario.source), scenario.resolved_attenuator())


def memory_efficiency(scenario: Scenario, t_storage: float | None = None) -> float:
    """Retrieval efficiency at the configured (or given) storage time."""
    t = scenario.timing.storage_time_ns if t_storage is None else t_storage
    return memory_efficiency_curve(scenario)(t)


def memory_efficiency_curve(scenario: Scenario) -> Callable[[float], float]:
    """Retrieval efficiency as a function of storage time."""
    return efficiency_curve(signal_spectrum(scenario), scenario.eit, scenario.decay)


def overlap_ceiling(scenario: Scenario) -> float:
    """Upper bound on eta: spectral overlap times the peak efficiency."""
    return scenario.decay.eta_peak * spectral_overlap(signal_spectrum(scenario), scenario.eit)


def stage_state(scenario: Scenario, stage: str) -> tuple[TwoQubitState, float]:
    """(state, memory_eta) at the analyzers for the given stage.

    pre_storage bypasses the memory entirely (eta = 1, no depolarization).
    """

    rho, _ = balanced_state(scenario)
    if stage == "pre_storage":
        return rho, 1.0
    if stage != "post_storage":
        raise ValueError(f"unknown stage {stage!r}")
    return apply_memory(rho, memory_efficiency(scenario), scenario.mem_noise)


# -- closed-form correlation observables used for calibration --------------


def slot_probabilities(scenario: Scenario, stage: str) -> dict:
    """Per-slot probabilities feeding the correlation channels."""
    e1, e2 = arm_efficiencies(scenario)
    slot = scenario.timing.cycle_period_ns
    gate = min(scenario.detector1.gate_width, scenario.detector2.gate_width)
    eta = 1.0 if stage == "pre_storage" else memory_efficiency(scenario)
    pair_scale = 1.0 if scenario.correlations.pair_correlated else 0.0
    # Uncorrelated arm-2 clicks: dark counts, plus retrieval noise after storage.
    noise2_slot = scenario.detector2.dark_rate * slot * 1e-9
    noise2_port = scenario.detector2.dark_rate * gate * 1e-9
    if stage == "post_storage":
        noise2_slot += scenario.correlations.g2_channel_background
        noise2_port += scenario.mem_noise.background_flux / 2.0
    return {
        "e1": e1,
        "e2": e2 * eta,
        "eta": eta,
        "slot_ns": slot,
        "gate_ns": gate,
        "dark1_slot": scenario.detector1.dark_rate * slot * 1e-9,
        "dark1_gate": scenario.detector1.dark_rate * gate * 1e-9,
        "noise2_slot": noise2_slot,
        "noise2_port": noise2_port,
        "pair_scale": pair_scale,
    }


def model_slot_g2(scenario: Scenario, stage: str) -> float:
    """Slot-normalized cross-correlation of the g2 measurement channel."""
    p = slot_probabilities(scenario, stage)
    if not scenario.correlations.pair_correlated:
        return 1.0
    return slot_g2(
        scenario.source.pair_prob, p["e1"], p["e2"], p["dark1_slot"], p["noise2_slot"]
    )


def model_alpha(scenario: Scenario, stage: str) -> tuple[float, float, float, float]:
    """Per-slot (P1, P12, P13, P123) of the heralded-autocorrelation setup."""
    p = slot_probabilities(scenario, stage)
    bunching = 1.0
    if stage == "post_storage":
        bunching = scenario.correlations.g2_autocorr_s2_post
    pair = scenario.source.pair_prob * p["pair_scale"]
    return triple_coincidence_probs(
        pair, p["e1"], p["e2"], p["dark1_gate"], p["noise2_port"], noise_bunching=bunching
    )
