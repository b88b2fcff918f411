"""From quantum states to count records.

Born-rule probabilities of analyzer settings, the detector, loss and timing
parameters, and the count records themselves: draw_counts turns the
mean counts of acquisitions into counts, Poisson-sampled with derived
seeds or rounded, so every record is reproducible from (scenario, seed).
The pair statistics (click_probs) are per pulse slot: a slot-normalized
g2 is the coincidences within one pulse slot over the singles product,
the convention under which the published anchor values for g2, the
heralded autocorrelation and the Cauchy-Schwarz ratio are mutually
consistent.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .errors import EstimationError, Range, Section, ValidationError, nan_or_raise
from .qstate import reduced_signal1, reduced_signal2
from .rng import derive_rng, poisson_rows
from .source import gaussian_fwhm_sigma


# A second: far past any photon counter's recovery (tens of ns to a few us); below it a
# count rate times the dead time is a finite float.
DEAD_TIME_MAX_NS = 1e9
# A second: 200,000 km of fiber, far past any delay line; below it the g2 histogram's
# bins around the delay are exact float steps.
FIBER_DELAY_MAX_NS = 1e9


@dataclass(frozen=True)
class DetectorParams(Section):
    """Single-photon detector model; times in ns, rates in counts/s."""

    efficiency: Annotated[float, Range(0, 1)]
    dark_rate: Annotated[float, Range(0, math.inf, "[)")] = 0.0
    dead_time: Annotated[float, Range(0, DEAD_TIME_MAX_NS)] = 0.0
    gate_width: Annotated[float, Range(0, math.inf, "()")] = 8.0


@dataclass(frozen=True)
class Detectors:
    """The herald's detector d1 (arm 1) and the arm-2 detector d2."""

    d1: DetectorParams
    d2: DetectorParams


@dataclass(frozen=True)
class LossBudget(Section):
    """Per-path transmissions, all in [0, 1]; detector efficiency excluded."""

    s2_path: Annotated[float, Range(0, 1)] = 0.75
    s1_fiber_coupling: Annotated[float, Range(0, 1)] = 0.82
    s1_detector_coupling: Annotated[float, Range(0, 1)] = 0.80
    s1_filters: Annotated[float, Range(0, 1)] = 0.9405
    s2_filters: Annotated[float, Range(0, 1)] = 0.40

    def arm1_transmission(self) -> float:
        return self.s1_fiber_coupling * self.s1_detector_coupling * self.s1_filters

    def arm2_transmission(self) -> float:
        return self.s2_path * self.s2_filters


@dataclass(frozen=True)
class TimingConfig(Section):
    """Pulse train timing; rates in Hz, durations in ns unless suffixed."""

    rep_rate: Annotated[float, Range(0, math.inf, "()")] = 100.0
    duty_window_ms: Annotated[float, Range(0, math.inf, "()")] = 1.3
    cycles_per_duty: Annotated[int, Range(1, math.inf, "[)")] = 2600
    cycle_period_ns: Annotated[float, Range(0, math.inf, "()")] = 500.0
    fiber_delay_ns: Annotated[float, Range(0, FIBER_DELAY_MAX_NS, "(]")] = 1000.0
    storage_time_ns: Annotated[float, Range(0, math.inf, "[)")] = 100.0

    def __post_init__(self):
        super().__post_init__()
        if self.cycles_per_duty * self.cycle_period_ns > self.duty_window_ms * 1e6:
            raise ValidationError("cycles do not fit into the duty window")
        # The duty windows of one second fit in that second; far past it (rep_rate 1e308)
        # the pulse rate times the count models' probabilities is not a finite float.
        if self.rep_rate * self.duty_window_ms > 1000.0:
            raise ValidationError(
                f"timing.rep_rate * timing.duty_window_ms is {self.rep_rate:g} Hz * "
                f"{self.duty_window_ms:g} ms: the duty windows must fit in one second"
            )
        if self.storage_time_ns >= self.fiber_delay_ns:
            raise ValidationError(
                "storage_time must stay below the fiber delay, else the photon "
                "arrives before retrieval"
            )

    @property
    def pulse_rate(self) -> float:
        """Pump pulses per wall-clock second."""
        return self.rep_rate * self.cycles_per_duty


# The largest count a record holds: counts become numpy int64 arrays.
COUNT_MAX = int(np.iinfo(np.int64).max)


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
            if not 0 <= getattr(self, name) <= COUNT_MAX:
                raise ValidationError(f"{name} must be >= 0 and fit in an int64")
        if self.coincidences > min(self.singles_1, self.singles_2):
            raise ValidationError("coincidences exceed singles")
        if self.triples > self.coincidences:
            raise ValidationError("triples exceed coincidences")
        if not 0 < self.acquisition_s < math.inf:
            raise ValidationError("acquisition_s must be finite and > 0")


CSV_HEADER = "setting_label,singles_1,singles_2,coincidences,triples,acquisition_s,seed"
# The largest mean numpy's Poisson sampler accepts.
POISSON_MEAN_MAX = float(COUNT_MAX - 10 * np.sqrt(COUNT_MAX))
# The most pairs a g2 histogram simulates: it draws one float64 delay per
# pair, so this caps that array at 80 MB, 1e3 times the ~1e4 pairs of the
# bundled scenario.
G2_PAIRS_MAX = 1e7
# The width of a g2 histogram bin (ns).
G2_BIN_NS = 2.0
# The most bins of a g2 histogram, 400 times the 250 of the bundled 500 ns slot; below it
# the histogram's arrays and CSV stay a few MB (a 1e9 ns slot has 5e8 bins, 4 GB per array).
G2_BINS_MAX = 1e5


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


def joint_kets(k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """The (S, 4) product kets of (S, 2) arm-1 and arm-2 kets, in the (HH, HV, VH, VV) order."""
    return (k1[:, :, None] * k2[:, None, :]).reshape(-1, 4)


def born_probabilities(rho: np.ndarray, settings) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Born-rule probabilities of the settings (labels, arm1, arm2) on a state or a (..., 4, 4)
    stack, one (..., S) array each, clamped into [0, 1]: the joint projection on rho and each
    arm's analyzer on that arm's reduced state, every one Re<k|M|k> of a row k of
    joint_kets(arm1, arm2), arm1 or arm2, all rows and states in one stacked evaluation."""
    _, k1, k2 = settings
    k12 = joint_kets(k1, k2)
    return tuple(
        np.clip(np.real(np.vecdot(k, (m[..., None, :, :] @ k[..., None])[..., 0])), 0.0, 1.0)
        for m, k in ((rho, k12), (reduced_signal1(rho), k1), (reduced_signal2(rho), k2))
    )


@dataclass(frozen=True)
class ExpectedRates:
    """Per-second expected count rates of S settings, one (S,) array each."""

    r1: np.ndarray
    r2: np.ndarray
    r12: np.ndarray
    r12_true: np.ndarray
    r12_accidental: np.ndarray


def count_means(rates, per: float, acquisition_s: float, label: str) -> list[float]:
    """The mean counts rate * per of one acquisition, checked before any draw or rounding."""
    if acquisition_s <= 0:
        raise ValidationError("acquisition_s must be > 0")
    # as Python floats an overflowing product is inf, which the check rejects, not a warning
    means = [float(r) * per for r in rates]
    if not all(0 <= m <= POISSON_MEAN_MAX for m in means):
        raise ValidationError(
            f"expected counts of setting {label!r} at acquisition_s="
            f"{acquisition_s:g} are not finite or exceed {POISSON_MEAN_MAX:.3g}"
        )
    return means


def sample_counts(rows, seed: int, labels: list[str]) -> list[list[int]]:
    """Poisson draws of each row of means, row k from the seed path ("counts", labels[k])."""
    return poisson_rows(seed, "counts", keys=labels, lam=rows).tolist()


def expected_counts(rows) -> list[list[int]]:
    """The rounded means of each row: noise-free counts for the deterministic mode."""
    return [[int(round(m)) for m in row] for row in rows]


def draw_counts(rows, sampling: str, seed: int, labels: list[str]) -> tuple[list[list[int]], int]:
    """The counts of acquisitions, one row of means per label, and the seed their records carry.

    "expected" rounds the means and gives seed 0, as nothing was drawn;
    "poisson" draws them with sample_counts and gives the master seed.
    """
    if sampling == "expected":
        return expected_counts(rows), 0
    return sample_counts(rows, seed, labels), seed


# ---------------------------------------------------------------------------
# Pair-statistics model shared by the correlation measurements.
# ---------------------------------------------------------------------------


def click_probs(pair_prob, eff1, eff2, dark1, noise2, noise_bunching=1.0, pair_correlated=True):
    """Per-slot click probabilities (P1, P2, P12, P123) of the pair source.

    Per pump pulse the source emits one pair with probability pair_prob,
    two pairs with probability pair_prob^2 (the multi-pair term behind the
    heralded autocorrelation), otherwise nothing; given the pair number,
    clicks are independent.  The herald detects each arm-1 photon with
    probability eff1, an arm-2 detector each arm-2 photon with eff2; dark1
    and noise2 are their uncorrelated click probabilities.  P123 is the
    herald with two such arm-2 detectors, one per beamsplitter port
    (2*eff2 <= 1); noise_bunching, the g2 of the arm-2 noise (1 for
    Poissonian darks, 2 for thermal retrieval noise), enhances its
    noise-noise term.  Rounding errors are clamped into [0, 1].  An
    uncorrelated source (pair_correlated False) gives P12 = P1*P2 and
    P123 = P1*P2^2.  Floats give floats; eff1, eff2, dark1 and noise2 may be
    arrays, whose elements get the bits of their own calls on floats.
    """

    if not 0.0 <= pair_prob < 0.5:
        raise ValidationError("pair_prob outside [0, 0.5)")
    if noise_bunching < 1.0:
        raise ValidationError("noise_bunching must be >= 1")
    # numpy's ** 2 squares an array; float_power takes libm's pow, as ** does on floats
    stacked = np.ndarray in {type(eff1), type(eff2), type(dark1), type(noise2)}
    pw, lo, hi = (np.float_power, np.minimum, np.maximum) if stacked else (pow, min, max)
    q2 = pair_prob**2
    nn_excess = (noise_bunching - 1.0) * pw(noise2, 2)
    p1 = p2 = p12 = p123 = 0.0
    for n, qn in ((0, 1.0 - pair_prob - q2), (1, pair_prob), (2, q2)):
        c1 = 1.0 - pw(1.0 - eff1, n) * (1.0 - dark1)
        no2 = pw(1.0 - eff2, n) * (1.0 - noise2)
        c2 = 1.0 - no2
        # both ports click: 1 - P(none at a) - P(none at b) + P(none at either)
        c23 = 1.0 - 2.0 * no2 + pw(1.0 - 2.0 * eff2, n) * pw(1.0 - noise2, 2) + nn_excess
        p1 += qn * c1
        p2 += qn * c2
        p12 += qn * c1 * c2
        p123 += qn * c1 * lo(hi(c23, 0.0), c2)
    p1, p2, p12, p123 = (lo(p, 1.0) for p in (p1, p2, p12, p123))
    if not pair_correlated:
        p12, p123 = p1 * p2, p1 * pw(p2, 2)
    return p1, p2, p12, p123


def heralded_alpha(p1, p12, p13, p123):
    """Heralded autocorrelation P1*P123/(P12*P13); < 0.5 is single-photon-like.
    Arrays give NaN where P12 or P13 is zero or alpha negative; scalars raise then."""
    p1, p12, p13, p123 = (np.asarray(p, dtype=float) for p in (p1, p12, p13, p123))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero two-fold is NaN below
        alpha = p1 * p123 / (p12 * p13)
    undefined = (p12 <= 0) | (p13 <= 0) | ~(alpha >= 0)
    message = "heralded alpha undefined: zero two-fold coincidences or negative"
    return nan_or_raise(alpha, undefined, alpha.ndim == 0, message)


# The fewest triples that alpha = 0.5 must predict for alpha < 0.5 to count:
# at a Poisson mean of 3, zero triples still happen 5% of the time.
ALPHA_MIN_PREDICTED_TRIPLES = 3.0


def single_photon_like(alpha: float, counts: dict) -> bool:
    """alpha < 0.5 on counts that resolve it: alpha = 0.5 predicts 0.5*n12*n13/n1 triples."""
    predicted = 0.5 * counts["n12"] * counts["n13"] / max(counts["n1"], 1)  # n1 = 0: n12 = 0
    return alpha < 0.5 and predicted >= ALPHA_MIN_PREDICTED_TRIPLES


# ---------------------------------------------------------------------------
# Time-resolved cross-correlation histogram.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class G2Histogram:
    """Binned cross-correlation estimate.

    g2 holds the per-bin density-normalized values (flat accidental level
    -> 1); zero_floor marks bins whose accidental expectation was zero and
    whose value therefore defaulted to 1.  peak_g2 is the slot-normalized
    cross-correlation aggregated over one pulse slot around the peak, the
    quantity the published anchors refer to; peak_counts is the number of
    coincidences in that slot.
    """

    tau_ns: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    g2: np.ndarray = field(repr=False)
    zero_floor: np.ndarray = field(repr=False)
    peak_tau_ns: float = 0.0
    peak_g2: float = 1.0
    peak_counts: int = 0


def g2_histogram(
    n_slots: int,
    slot_ns: float,
    probs: tuple[float, float, float],
    delay_ns: float,
    fwhm_ns: float,
    seed: int,
) -> G2Histogram:
    """Simulate the time-resolved cross-correlation over n_slots pulse slots of slot_ns.

    probs holds the per-slot click probabilities of the two singles, which set
    the accidental floor, and of the excess (correlated) pairs.  The bins are
    G2_BIN_NS wide and span one slot around delay_ns; the scenario holds the
    wavepacket's +-2 sigma inside that slot.  True pairs arrive at a Gaussian
    relative delay of FWHM fwhm_ns; accidentals are uniform in tau.
    """

    singles1, singles2, pair = probs
    edges = np.arange(delay_ns - slot_ns / 2, delay_ns + slot_ns / 2 + G2_BIN_NS, G2_BIN_NS)
    rng = derive_rng(seed, "g2hist")
    widths = np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])

    n_true = rng.poisson(n_slots * pair)
    taus = rng.normal(delay_ns, gaussian_fwhm_sigma(fwhm_ns), size=n_true)
    true_counts, _ = np.histogram(taus, bins=edges)

    acc_expect = singles1 * singles2 * n_slots / slot_ns * widths
    acc_counts = rng.poisson(acc_expect)
    counts = true_counts + acc_counts

    if counts.sum() == 0:
        raise EstimationError(
            f"empty event stream: 0 coincidences in {n_slots} slots "
            f"(excess pair probability {pair:g})"
        )

    zero_floor = acc_expect <= 0
    g2 = np.ones_like(acc_expect)
    np.divide(counts, acc_expect, out=g2, where=~zero_floor)
    g2 = np.where(zero_floor & (counts > 0), np.inf, g2)

    peak_idx = int(np.argmax(counts))
    peak_tau = float(centers[peak_idx])
    peak_counts = int(counts[np.abs(centers - peak_tau) <= slot_ns / 2].sum())
    singles_product = singles1 * singles2 * n_slots
    peak_g2 = float(peak_counts / singles_product) if singles_product > 0 else float("inf")
    return G2Histogram(
        tau_ns=centers,
        counts=counts,
        g2=g2,
        zero_floor=zero_floor,
        peak_tau_ns=peak_tau,
        peak_g2=peak_g2,
        peak_counts=peak_counts,
    )
