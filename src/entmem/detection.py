"""From quantum states to count records.

Projection probabilities feed a loss-budget rate model; counts are then
Poisson-sampled with derived seeds so every record is reproducible from
(scenario, seed).  The cross-correlation g2 values produced here follow
the per-pulse-slot normalization (coincidences within one pulse slot over
the singles product), which is the convention under which the published
anchor values for g2, the heralded autocorrelation and the Cauchy-Schwarz
ratio are mutually consistent.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EstimationError, ValidationError
from .qstate import PolarizationKet, TwoQubitState
from .rng import derive_rng
from .source import gaussian_fwhm_sigma


@dataclass(frozen=True)
class MeasurementSetting:
    """Analyzer configuration: one projection ket per arm."""

    arm1_projector: PolarizationKet
    arm2_projector: PolarizationKet
    label: str = ""


@dataclass(frozen=True)
class DetectorParams:
    """Single-photon detector model; times in ns, rates in counts/s."""

    efficiency: float
    dark_rate: float = 0.0
    dead_time: float = 0.0
    gate_width: float = 8.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValidationError("detector efficiency outside [0, 1]")
        if self.dark_rate < 0 or self.dead_time < 0:
            raise ValidationError("dark_rate and dead_time must be >= 0")
        if self.gate_width <= 0:
            raise ValidationError("gate_width must be > 0")


@dataclass(frozen=True)
class LossBudget:
    """Per-path transmissions, all in [0, 1]; detector efficiency excluded."""

    s2_path: float = 0.75
    s1_fiber_coupling: float = 0.82
    s1_detector_coupling: float = 0.80
    s1_filters: float = 0.9405
    s2_filters: float = 0.40

    def __post_init__(self):
        for name in (
            "s2_path",
            "s1_fiber_coupling",
            "s1_detector_coupling",
            "s1_filters",
            "s2_filters",
        ):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name}={v} outside [0, 1]")

    def arm1_transmission(self) -> float:
        return self.s1_fiber_coupling * self.s1_detector_coupling * self.s1_filters

    def arm2_transmission(self) -> float:
        return self.s2_path * self.s2_filters


@dataclass(frozen=True)
class TimingConfig:
    """Pulse train timing; rates in Hz, durations in ns unless suffixed."""

    rep_rate: float = 100.0
    duty_window_ms: float = 1.3
    cycles_per_duty: int = 2600
    cycle_period_ns: float = 500.0
    pump1_fwhm_ns: float = 20.0
    fiber_delay_ns: float = 1000.0
    storage_time_ns: float = 100.0

    def __post_init__(self):
        if self.rep_rate <= 0 or self.cycles_per_duty <= 0 or self.cycle_period_ns <= 0:
            raise ValidationError("timing rates and periods must be positive")
        if self.cycles_per_duty * self.cycle_period_ns > self.duty_window_ms * 1e6:
            raise ValidationError("cycles do not fit into the duty window")
        if self.storage_time_ns >= self.fiber_delay_ns:
            raise ValidationError(
                "storage_time must stay below the fiber delay, else the photon "
                "arrives before retrieval"
            )

    @property
    def pulse_rate(self) -> float:
        """Pump pulses per wall-clock second."""
        return self.rep_rate * self.cycles_per_duty


@dataclass(frozen=True)
class CountRecord:
    """Counts for one setting, plus the acquisition metadata."""

    setting_label: str
    singles_1: int
    singles_2: int
    coincidences: int
    triples: int
    acquisition_s: float
    seed: int

    def __post_init__(self):
        for name in ("singles_1", "singles_2", "coincidences", "triples"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if self.coincidences > min(self.singles_1, self.singles_2):
            raise ValidationError("coincidences exceed singles")
        if self.triples > self.coincidences:
            raise ValidationError("triples exceed coincidences")
        if not 0 < self.acquisition_s < math.inf:
            raise ValidationError("acquisition_s must be finite and > 0")


CSV_HEADER = "setting_label,singles_1,singles_2,coincidences,triples,acquisition_s,seed"
# The largest mean numpy's Poisson sampler accepts.
POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))


def records_to_csv(records: list[CountRecord]) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in records:
        buf.write(
            f"{r.setting_label},{r.singles_1},{r.singles_2},{r.coincidences},"
            f"{r.triples},{r.acquisition_s!r},{r.seed}\n"
        )
    return buf.getvalue()


def records_from_csv(text: str) -> list[CountRecord]:
    try:
        rows = [[f.strip() for f in row] for row in csv.reader(io.StringIO(text, newline=""))]
    except csv.Error as exc:
        raise ValidationError(f"unreadable count CSV: {exc}") from exc
    rows = [row for row in rows if any(row)]
    if not rows or rows[0] != CSV_HEADER.split(","):
        raise ValidationError(f"count CSV must start with header {CSV_HEADER!r}")
    out = []
    for row in rows[1:]:
        if len(row) != 7:
            raise ValidationError(f"malformed count CSV row: {row}")
        label, *ints, acq, seed = row
        try:
            values = [*map(int, ints), float(acq), int(seed)]
        except ValueError as exc:
            raise ValidationError(f"non-numeric field in count CSV row {row}") from exc
        out.append(CountRecord(label, *values))
    labels = [r.setting_label for r in out]
    if len(set(labels)) != len(labels):
        raise ValidationError("count CSV repeats a setting_label")
    return out


def projection_probability(rho: TwoQubitState, setting: MeasurementSetting) -> float:
    """Born-rule probability of the joint projection."""
    v = np.kron(setting.arm1_projector.vector, setting.arm2_projector.vector)
    p = float(np.real(np.vdot(v, rho.rho @ v)))
    return min(max(p, 0.0), 1.0)


def arm_marginals(rho: TwoQubitState, setting: MeasurementSetting) -> tuple[float, float]:
    """Probabilities of each arm passing its analyzer irrespective of the other."""
    v1 = setting.arm1_projector.vector
    v2 = setting.arm2_projector.vector
    m1 = float(np.real(np.vdot(v1, rho.reduced_signal1() @ v1)))
    m2 = float(np.real(np.vdot(v2, rho.reduced_signal2() @ v2)))
    return min(max(m1, 0.0), 1.0), min(max(m2, 0.0), 1.0)


@dataclass(frozen=True)
class ExpectedRates:
    """Per-second expected count rates for one setting."""

    r1: float
    r2: float
    r12: float
    r12_true: float
    r12_accidental: float
    r123: float = 0.0


def expected_rates(
    p_pair: float,
    prob: float,
    losses: LossBudget,
    detectors: tuple[DetectorParams, DetectorParams],
    timing: TimingConfig,
    memory_eta: float = 1.0,
    prob1: float | None = None,
    prob2: float | None = None,
    background_rate_2: float = 0.0,
) -> ExpectedRates:
    """Singles and coincidence rates for one analyzer setting.

    prob is the joint projection probability; prob1/prob2 are the per-arm
    marginals and default to max(prob, 1/2), which is exact for any source
    whose single-arm states are unpolarized.  background_rate_2 is an
    uncorrelated arm-2 count rate (retrieval noise) entering the singles
    and the accidental term.  The accidental term pairs the unpaired
    singles within the coincidence gate, so it vanishes in the lossless
    limit where every single already belongs to a coincidence.
    """

    if not 0.0 <= p_pair <= 1.0:
        raise ValidationError("p_pair outside [0, 1]")
    if not 0.0 <= prob <= 1.0:
        raise ValidationError("prob outside [0, 1]")
    if not 0.0 <= memory_eta <= 1.0:
        raise ValidationError("memory_eta outside [0, 1]")
    if background_rate_2 < 0:
        raise ValidationError("background_rate_2 must be >= 0")
    d1, d2 = detectors
    m1 = prob1 if prob1 is not None else max(prob, 0.5)
    m2 = prob2 if prob2 is not None else max(prob, 0.5)
    if m1 + 1e-12 < prob or m2 + 1e-12 < prob:
        raise ValidationError("arm marginals cannot be below the joint probability")

    e1 = losses.arm1_transmission() * d1.efficiency
    e2 = losses.arm2_transmission() * d2.efficiency * memory_eta
    pulse_rate = timing.pulse_rate

    r1_raw = pulse_rate * p_pair * m1 * e1 + d1.dark_rate
    r2_raw = pulse_rate * p_pair * m2 * e2 + d2.dark_rate + background_rate_2
    f1 = 1.0 / (1.0 + r1_raw * d1.dead_time * 1e-9)
    f2 = 1.0 / (1.0 + r2_raw * d2.dead_time * 1e-9)
    r1 = r1_raw * f1
    r2 = r2_raw * f2

    r12_true = pulse_rate * p_pair * prob * e1 * e2 * f1 * f2
    gate_s = min(d1.gate_width, d2.gate_width) * 1e-9
    r12_acc = max(r1 - r12_true, 0.0) * max(r2 - r12_true, 0.0) * gate_s
    return ExpectedRates(
        r1=r1,
        r2=r2,
        r12=r12_true + r12_acc,
        r12_true=r12_true,
        r12_accidental=r12_acc,
    )


def sample_counts(
    rates: ExpectedRates,
    acquisition_s: float,
    seed: int,
    setting_label: str = "",
) -> CountRecord:
    """Poisson-sample a CountRecord; bit-reproducible for a fixed seed."""
    if acquisition_s <= 0:
        raise ValidationError("acquisition_s must be > 0")
    means = [r * acquisition_s for r in (rates.r1, rates.r2, rates.r12, rates.r123)]
    if not all(0 <= m <= POISSON_MEAN_MAX for m in means):
        raise ValidationError(
            f"expected counts of setting {setting_label!r} at acquisition_s="
            f"{acquisition_s:g} are not finite or exceed {POISSON_MEAN_MAX:.3g}"
        )
    rng = derive_rng(seed, "counts", setting_label)
    s1, s2, c, t = (int(rng.poisson(m)) for m in means)
    c = min(c, s1, s2)
    t = min(t, c)
    return CountRecord(
        setting_label=setting_label,
        singles_1=s1,
        singles_2=s2,
        coincidences=c,
        triples=t,
        acquisition_s=acquisition_s,
        seed=seed,
    )


def expected_counts(
    rates: ExpectedRates, acquisition_s: float, setting_label: str = ""
) -> CountRecord:
    """Noise-free record carrying the rounded expected counts.

    Used by the deterministic evaluation mode of the pipeline (model
    monotonicity checks); the rounding keeps the CountRecord contract.
    """

    if acquisition_s <= 0:
        raise ValidationError("acquisition_s must be > 0")
    s1 = int(round(rates.r1 * acquisition_s))
    s2 = int(round(rates.r2 * acquisition_s))
    c = min(int(round(rates.r12 * acquisition_s)), s1, s2)
    t = min(int(round(rates.r123 * acquisition_s)), c)
    return CountRecord(setting_label, s1, s2, c, t, acquisition_s, seed=0)


# ---------------------------------------------------------------------------
# Pair-statistics model shared by the correlation measurements.
#
# Per pump pulse: one photon pair with probability p, two pairs with
# probability p^2 (the single multi-pair mechanism driving the heralded
# autocorrelation), otherwise nothing.  Detection outcomes are independent
# Bernoulli trials given the pair number.
# ---------------------------------------------------------------------------


def _pair_number_distribution(pair_prob: float) -> list[tuple[int, float]]:
    if not 0.0 <= pair_prob < 0.5:
        raise ValidationError("pair_prob outside [0, 0.5)")
    q2 = pair_prob**2
    return [(0, 1.0 - pair_prob - q2), (1, pair_prob), (2, q2)]


def coincidence_probs(
    pair_prob: float,
    eff1: float,
    eff2: float,
    dark1: float = 0.0,
    noise2: float = 0.0,
) -> tuple[float, float, float]:
    """Per-slot probabilities (P1, P2, P12) for the two-detector correlation.

    eff1/eff2 are the total detection probabilities per emitted photon on
    each arm; dark1 and noise2 are uncorrelated per-slot click probabilities.
    """

    p1 = p2 = p12 = 0.0
    for n, qn in _pair_number_distribution(pair_prob):
        c1 = 1.0 - (1.0 - eff1) ** n * (1.0 - dark1)
        c2 = 1.0 - (1.0 - eff2) ** n * (1.0 - noise2)
        p1 += qn * c1
        p2 += qn * c2
        p12 += qn * c1 * c2
    return p1, p2, p12


def slot_g2(
    pair_prob: float,
    eff1: float,
    eff2: float,
    dark1: float = 0.0,
    noise2: float = 0.0,
) -> float:
    """Slot-normalized cross-correlation P12/(P1*P2)."""
    p1, p2, p12 = coincidence_probs(pair_prob, eff1, eff2, dark1, noise2)
    if p1 <= 0 or p2 <= 0:
        raise EstimationError("cross-correlation undefined without singles")
    return p12 / (p1 * p2)


def triple_coincidence_probs(
    pair_prob: float,
    eff1: float,
    eff2: float,
    dark1: float = 0.0,
    noise2_port: float = 0.0,
    noise_bunching: float = 1.0,
) -> tuple[float, float, float, float]:
    """Per-slot probabilities (P1, P12, P13, P123) with a beamsplit arm 2.

    Each arm-2 photon reaches port a or b with probability eff2/2;
    noise2_port is the uncorrelated click probability per port within the
    coincidence gate.  noise_bunching is the second-order autocorrelation
    of the noise field (1 for Poissonian darks, 2 for the thermal light a
    retrieval process scatters into the signal mode); it enhances the
    noise-noise pair term only.  Ports are symmetric, so P13 = P12.
    """

    if noise_bunching < 1.0:
        raise ValidationError("noise_bunching must be >= 1")
    p1 = p12 = p123 = 0.0
    nn_excess = (noise_bunching - 1.0) * noise2_port**2
    for n, qn in _pair_number_distribution(pair_prob):
        c1 = 1.0 - (1.0 - eff1) ** n * (1.0 - dark1)
        no_a = (1.0 - eff2 / 2.0) ** n * (1.0 - noise2_port)
        no_ab = (1.0 - eff2) ** n * (1.0 - noise2_port) ** 2
        ca = 1.0 - no_a
        cab = 1.0 - 2.0 * no_a + no_ab + nn_excess
        p1 += qn * c1
        p12 += qn * c1 * ca
        p123 += qn * c1 * min(cab, ca)
    return p1, p12, p12, p123


def heralded_alpha(p1: float, p12: float, p13: float, p123: float) -> float:
    """Heralded autocorrelation P1*P123/(P12*P13); < 0.5 is single-photon-like."""
    if p12 <= 0 or p13 <= 0:
        raise EstimationError("heralded alpha undefined: zero two-fold coincidences")
    alpha = p1 * p123 / (p12 * p13)
    if alpha < 0:
        raise EstimationError("heralded alpha came out negative")
    return float(alpha)


def is_single_photon_like(alpha: float) -> bool:
    return alpha < 0.5


# ---------------------------------------------------------------------------
# Time-resolved cross-correlation histogram.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class G2StreamParams:
    """Event model for the time-tagged cross-correlation measurement.

    Probabilities are per pulse slot: pair_prob_detected is the excess
    (correlated) coincidence probability, singles*_prob the total click
    probabilities entering the accidental floor.
    """

    n_slots: int
    slot_ns: float
    pair_prob_detected: float
    singles1_prob: float
    singles2_prob: float
    delay_ns: float
    profile_fwhm_ns: float

    def __post_init__(self):
        if self.n_slots <= 0 or self.slot_ns <= 0:
            raise ValidationError("n_slots and slot_ns must be positive")
        for name in ("pair_prob_detected", "singles1_prob", "singles2_prob"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if self.profile_fwhm_ns <= 0:
            raise ValidationError("profile_fwhm_ns must be > 0")


@dataclass(frozen=True)
class G2Histogram:
    """Binned cross-correlation estimate.

    g2 holds the per-bin density-normalized values (flat accidental level
    -> 1); zero_floor marks bins whose accidental expectation was zero and
    whose value therefore defaulted to 1.  peak_g2 is the slot-normalized
    cross-correlation aggregated over one pulse slot around the peak, the
    quantity the published anchors refer to.
    """

    tau_ns: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    g2: np.ndarray = field(repr=False)
    zero_floor: np.ndarray = field(repr=False)
    peak_tau_ns: float = 0.0
    peak_g2: float = 1.0


def g2_histogram(params: G2StreamParams, tau_grid: np.ndarray, seed: int) -> G2Histogram:
    """Simulate the time-resolved cross-correlation on the given tau bins.

    tau_grid gives the bin edges (ns) and must cover the wavepacket around
    the configured delay.  True pairs arrive at a Gaussian relative delay;
    accidentals are uniform in tau.
    """

    edges = np.asarray(tau_grid, dtype=float)
    if edges.ndim != 1 or edges.size < 3 or np.any(np.diff(edges) <= 0):
        raise ValidationError("tau grid must be an increasing array of bin edges")
    sigma = gaussian_fwhm_sigma(params.profile_fwhm_ns)
    if params.delay_ns - 2 * sigma < edges[0] or params.delay_ns + 2 * sigma > edges[-1]:
        raise ValidationError("tau grid does not cover the wavepacket support")

    rng = derive_rng(seed, "g2hist")
    widths = np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])

    n_true = rng.poisson(params.n_slots * params.pair_prob_detected)
    taus = rng.normal(params.delay_ns, sigma, size=n_true)
    true_counts, _ = np.histogram(taus, bins=edges)

    acc_density = (
        params.singles1_prob * params.singles2_prob * params.n_slots / params.slot_ns
    )
    acc_expect = acc_density * widths
    acc_counts = rng.poisson(acc_expect)
    counts = true_counts + acc_counts

    total = int(counts.sum())
    if total == 0:
        raise EstimationError(
            f"empty event stream: 0 coincidences in {params.n_slots} slots "
            f"(pair_prob_detected={params.pair_prob_detected:g})"
        )

    zero_floor = acc_expect <= 0
    g2 = np.ones_like(acc_expect)
    np.divide(counts, acc_expect, out=g2, where=~zero_floor)
    g2 = np.where(zero_floor & (counts > 0), np.inf, g2)

    peak_idx = int(np.argmax(counts))
    peak_tau = float(centers[peak_idx])
    singles_product = params.singles1_prob * params.singles2_prob * params.n_slots
    if singles_product > 0:
        window = np.abs(centers - peak_tau) <= params.slot_ns / 2
        peak_g2 = float(counts[window].sum() / singles_product)
    else:
        peak_g2 = float("inf")
    return G2Histogram(
        tau_ns=centers,
        counts=counts,
        g2=g2,
        zero_floor=zero_floor,
        peak_tau_ns=peak_tau,
        peak_g2=peak_g2,
    )
