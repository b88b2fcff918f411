"""Figure-of-merit estimators operating on count records.

Tomography follows the standard two-stage recipe: exact linear inversion
of the 16 projection frequencies, then a Poisson maximum-likelihood fit
over the Cholesky-parameterized physical states seeded from the clamped
linear estimate.  CHSH, visibility and the Cauchy-Schwarz ratio are
closed-form count ratios; every estimator gets its error bar from Poisson
Monte-Carlo resampling of the observed counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .detection import CountRecord, MeasurementSetting
from .errors import ConfigurationError, EntmemError, EstimationError, ValidationError
from .qstate import KET_BY_LABEL, TwoQubitState
from .rng import derive_rng

TOMO_BASIS_LETTERS = ("H", "V", "D", "R")
NORMALIZATION_GROUP = ("HH", "HV", "VH", "VV")


@dataclass(frozen=True)
class TomographySettingSet:
    """The 16 product-projection settings used for state reconstruction."""

    settings: tuple[MeasurementSetting, ...]

    def __post_init__(self):
        if len(self.settings) != 16:
            raise ConfigurationError(
                f"tomography needs exactly 16 settings, got {len(self.settings)}"
            )
        labels = [s.label for s in self.settings]
        if len(set(labels)) != 16:
            raise ConfigurationError("tomography settings must have unique labels")
        design = _design_matrix(self.settings)
        if np.linalg.matrix_rank(design, tol=1e-9) != 16:
            raise ConfigurationError(
                "tomography settings do not span the operator space "
                "(duplicate or degenerate projectors)"
            )

    @classmethod
    def standard(cls) -> "TomographySettingSet":
        """All pairs from {H, V, D=(H+V)/sqrt2, R=(H-iV)/sqrt2} on each arm."""
        return TOMO_SETTINGS


@dataclass(frozen=True)
class EstimateWithError:
    """Point estimate with a Monte-Carlo standard deviation."""

    value: float
    sigma: float
    n_resamples: int

    def __post_init__(self):
        if self.sigma < 0:
            raise ValidationError("sigma must be >= 0")
        if self.sigma > 0 and self.n_resamples < 100:
            raise ValidationError("a nonzero sigma requires >= 100 resamples")


def _projector_matrix(setting: MeasurementSetting) -> np.ndarray:
    v = np.kron(setting.arm1_projector.vector, setting.arm2_projector.vector)
    return np.outer(v, v.conj())


def _design_matrix(settings) -> np.ndarray:
    # Row i maps vec(rho) -> Tr(rho P_i).
    return np.array([_projector_matrix(s).T.flatten() for s in settings])


# The one tomography design (James et al., PRA 64, 052312, 2001), built and
# validated once.
TOMO_SETTINGS = TomographySettingSet(
    tuple(
        MeasurementSetting(KET_BY_LABEL[a](), KET_BY_LABEL[b](), label=a + b)
        for a in TOMO_BASIS_LETTERS
        for b in TOMO_BASIS_LETTERS
    )
)
_TOMO_LABELS = tuple(s.label for s in TOMO_SETTINGS.settings)
_TOMO_PROJECTORS = np.stack([_projector_matrix(s) for s in TOMO_SETTINGS.settings])
_TOMO_DESIGN = _design_matrix(TOMO_SETTINGS.settings)
_NORMALIZATION_IDX = [_TOMO_LABELS.index(label) for label in NORMALIZATION_GROUP]


def _tomo_data(records: list[CountRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frequencies, exposures and counts of the records, in TOMO_SETTINGS order.

    Coincidence rates are normalized by the total rate of the complete
    (H/V x H/V) quadruple, which measures every pair regardless of basis;
    working with rates keeps unequal acquisition times consistent.
    """

    by_label = {r.setting_label: r for r in records}
    if len(by_label) != len(records):
        raise ConfigurationError("duplicate setting labels in tomography records")
    missing = [label for label in _TOMO_LABELS if label not in by_label]
    if missing:
        raise ConfigurationError(f"missing tomography records for settings {missing}")
    ordered = [by_label[label] for label in _TOMO_LABELS]
    rates = np.array([r.coincidences / r.acquisition_s for r in ordered])
    total_rate = rates[_NORMALIZATION_IDX].sum()
    if total_rate <= 0:
        raise EstimationError("normalization group has zero coincidences")
    exposures = np.array([total_rate * r.acquisition_s for r in ordered])
    counts = np.array([float(r.coincidences) for r in ordered])
    return rates / total_rate, exposures, counts


def tomo_linear(records: list[CountRecord]) -> np.ndarray:
    """Linear-inversion estimate; Hermitian, unit trace, possibly non-PSD."""
    freqs, _, _ = _tomo_data(records)
    rho = np.linalg.solve(_TOMO_DESIGN, freqs.astype(np.complex128)).reshape(4, 4)
    return (rho + rho.conj().T) / 2


# ---------------------------------------------------------------------------
# Maximum-likelihood reconstruction.
#
# rho(t) = T+T / Tr(T+T) with T lower triangular: t[0:4] are the real
# diagonal entries, the remaining 12 are re/im pairs of the strictly lower
# entries in row-major order.
# ---------------------------------------------------------------------------

_LOWER_INDICES = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]
_MLE_PROB_FLOOR = 1e-12


def _t_from_params(t: np.ndarray) -> np.ndarray:
    m = np.zeros((4, 4), dtype=np.complex128)
    m[np.diag_indices(4)] = t[:4]
    for k, (r, c) in enumerate(_LOWER_INDICES):
        m[r, c] = t[4 + 2 * k] + 1j * t[5 + 2 * k]
    return m


def _params_from_t(m: np.ndarray) -> np.ndarray:
    t = np.zeros(16)
    t[:4] = np.real(np.diag(m))
    for k, (r, c) in enumerate(_LOWER_INDICES):
        t[4 + 2 * k] = m[r, c].real
        t[5 + 2 * k] = m[r, c].imag
    return t


def _rho_from_params(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    m = _t_from_params(t)
    gram = m.conj().T @ m
    s = float(np.real(np.trace(gram)))
    if s <= 0:
        raise EstimationError("degenerate Cholesky point with zero trace")
    return gram / s, m, s


def _lower_cholesky_factor(rho: np.ndarray) -> np.ndarray:
    """Lower-triangular T with T+T = rho, via the flipped Cholesky trick."""
    flip = np.fliplr(np.eye(4))
    lower = np.linalg.cholesky(flip @ rho @ flip)
    return (flip @ lower @ flip).conj().T


def _clamped_physical(rho: np.ndarray, ridge: float = 1e-8) -> np.ndarray:
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    vals = np.clip(vals, 0.0, None) + ridge
    out = (vecs * vals) @ vecs.conj().T
    return out / np.trace(out).real


def _neg_log_likelihood_and_grad(
    t: np.ndarray,
    projectors: np.ndarray,
    counts: np.ndarray,
    exposures: np.ndarray,
) -> tuple[float, np.ndarray]:
    rho, m, s = _rho_from_params(t)
    probs = np.real(np.einsum("kij,ji->k", projectors, rho))
    probs = np.clip(probs, _MLE_PROB_FLOOR, None)
    ll = float(np.sum(counts * np.log(exposures * probs) - exposures * probs))

    weights = counts / probs - exposures
    mmat = np.einsum("k,kij->ij", weights.astype(np.complex128), projectors)
    mean_shift = float(np.real(np.einsum("ij,ji->", mmat, rho)))
    w_conj = (m @ mmat - mean_shift * m) / s  # dLL/dT*
    grad = np.zeros(16)
    grad[:4] = 2.0 * np.real(np.diag(w_conj))
    for k, (r, c) in enumerate(_LOWER_INDICES):
        grad[4 + 2 * k] = 2.0 * w_conj[r, c].real
        grad[5 + 2 * k] = 2.0 * w_conj[r, c].imag
    return -ll, -grad


def tomo_mle(
    records: list[CountRecord], init: np.ndarray | None = None, seed: int = 0
) -> TwoQubitState:
    """Maximum-likelihood physical state from 16 tomography records.

    The Poisson log-likelihood sum_i [n_i ln(N_i p_i) - N_i p_i] is
    maximized over the Cholesky parameterization, seeded from the clamped
    linear inversion (or the given init); up to three random restarts are
    attempted before giving up.
    """

    _, exposures, counts = _tomo_data(records)
    if init is None:
        init = tomo_linear(records)
    t0 = _params_from_t(_lower_cholesky_factor(_clamped_physical(init)))

    rng = derive_rng(seed, "tomo_mle")
    best = None
    converged = False
    starts = [t0] + [rng.normal(scale=0.5, size=16) for _ in range(3)]
    for start in starts:
        res = minimize(
            _neg_log_likelihood_and_grad,
            start,
            args=(_TOMO_PROJECTORS, counts, exposures),
            jac=True,
            method="L-BFGS-B",
            options={"maxfun": 100_000, "ftol": 1e-15, "gtol": 1e-12, "maxiter": 50_000},
        )
        if best is None or res.fun < best.fun:
            best = res
        # L-BFGS-B can report precision loss at an already-converged point;
        # a vanishing gradient counts as convergence.
        if res.success or np.max(np.abs(res.jac)) < 1e-6:
            converged = True
            break
    rho, _, _ = _rho_from_params(best.x)
    rho = rho / np.trace(rho).real
    if not converged or not np.isfinite(best.fun):
        err = EstimationError("maximum-likelihood tomography did not converge")
        err.best_iterate = rho
        raise err
    return TwoQubitState(rho)


def tomo_log_likelihood(rho: np.ndarray, records: list[CountRecord]) -> float:
    """Poisson log-likelihood of a state given the records (for diagnostics)."""
    _, exposures, counts = _tomo_data(records)
    probs = np.einsum("kij,ji->k", _TOMO_PROJECTORS, rho)
    probs = np.clip(np.real(probs), _MLE_PROB_FLOOR, None)
    return float(np.sum(counts * np.log(exposures * probs) - exposures * probs))


# ---------------------------------------------------------------------------
# CHSH.
# ---------------------------------------------------------------------------


def chsh_E(
    c_pp: float, c_pm: float, c_mp: float, c_mm: float
) -> float:
    """Correlation from the four analyzer-port coincidence counts.

    The +/- ports of each arm are the analyzer angle and its orthogonal
    complement.
    """

    total = c_pp + c_pm + c_mp + c_mm
    if total <= 0:
        raise EstimationError("correlation undefined: zero total coincidences")
    e = (c_pp + c_mm - c_pm - c_mp) / total
    return float(min(max(e, -1.0), 1.0))


def analyzer_observable(theta: float) -> np.ndarray:
    """Single-arm dichotomic observable |theta><theta| - |theta+pi/2><...|."""
    c, s = np.cos(theta), np.sin(theta)
    plus = np.array([c, s], dtype=np.complex128)
    minus = np.array([-s, c], dtype=np.complex128)
    return np.outer(plus, plus.conj()) - np.outer(minus, minus.conj())


def chsh_E_analytic(rho: TwoQubitState, theta1: float, theta2: float) -> float:
    """Exact correlation E(theta1, theta2) from the state."""
    obs = np.kron(analyzer_observable(theta1), analyzer_observable(theta2))
    val = float(np.real(np.trace(rho.rho @ obs)))
    return min(max(val, -1.0), 1.0)


def chsh_S(e_matrix: np.ndarray) -> float:
    """CHSH parameter, maximized over the canonical sign placements.

    e_matrix[i, j] = E at (theta_i, theta_j') for the two angle choices per
    arm.  Of the four sums with exactly one minus sign, the largest in
    magnitude is returned; this reduces to the textbook formula when the
    subtracted term is the smallest contributor, and reaches 2*sqrt(2) on a
    maximally entangled state with the standard angle set.
    """

    e = np.asarray(e_matrix, dtype=float)
    if e.shape != (2, 2):
        raise ValidationError("E matrix must be 2x2")
    if np.any(np.abs(e) > 1 + 1e-9):
        raise ValidationError("correlations must lie in [-1, 1]")
    total = e.sum()
    candidates = [abs(total - 2 * e[i, j]) for i in range(2) for j in range(2)]
    return float(max(candidates))


def chsh_S_literal(e_matrix: np.ndarray) -> float:
    """|E11 - E12 + E21 + E22|, reported alongside for transparency."""
    e = np.asarray(e_matrix, dtype=float)
    if e.shape != (2, 2):
        raise ValidationError("E matrix must be 2x2")
    return float(abs(e[0, 0] - e[0, 1] + e[1, 0] + e[1, 1]))


CHSH_ANGLES = (0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8)


def chsh_S_analytic(
    rho: TwoQubitState, angles: tuple[float, float, float, float] = CHSH_ANGLES
) -> float:
    t1, t2, t1p, t2p = angles
    e = np.array(
        [
            [chsh_E_analytic(rho, t1, t2), chsh_E_analytic(rho, t1, t2p)],
            [chsh_E_analytic(rho, t1p, t2), chsh_E_analytic(rho, t1p, t2p)],
        ]
    )
    return chsh_S(e)


# ---------------------------------------------------------------------------
# Interference visibility.
# ---------------------------------------------------------------------------

VISIBILITY_CLASSICAL_BOUND = float(1.0 / np.sqrt(2.0))


@dataclass(frozen=True)
class VisibilityResult:
    estimate: EstimateWithError
    baseline: float
    phase: float
    nonclassical: bool


def _fit_fringe(thetas: np.ndarray, counts: np.ndarray, weights: np.ndarray) -> tuple:
    # C(theta) = a0 + a1 cos(4 theta) + a2 sin(4 theta), linear least squares.
    design = np.column_stack(
        [np.ones_like(thetas), np.cos(4 * thetas), np.sin(4 * thetas)]
    )
    w = np.sqrt(weights)
    coef, *_ = np.linalg.lstsq(design * w[:, None], counts * w, rcond=None)
    a0, a1, a2 = coef
    if a0 <= 0:
        raise EstimationError("fringe fit degenerate: non-positive baseline")
    v = float(np.hypot(a1, a2) / a0)
    phi0 = float(np.arctan2(a2, a1))
    return min(v, 1.0), a0, phi0


def visibility_fit(
    points: list[tuple[float, float]],
    poisson_weights: bool = False,
    n_resamples: int = 200,
    seed: int = 0,
) -> VisibilityResult:
    """Fit C(theta) = B [1 + V cos(4 theta - phi0)] to a fringe sweep.

    theta is the half-wave-plate angle, so the fringe period is pi/2.
    Returns the visibility in [0, 1] with a Poisson Monte-Carlo sigma and
    flags values above 1/sqrt(2) as nonclassical.
    """

    if len(points) < 8:
        raise ValidationError("visibility fit needs at least 8 sweep points")
    thetas = np.array([p[0] for p in points], dtype=float)
    counts = np.array([p[1] for p in points], dtype=float)
    if np.any(counts < 0):
        raise ValidationError("fringe counts must be >= 0")
    if thetas.max() - thetas.min() < np.pi / 2 - 1e-9:
        raise ValidationError("fringe sweep must span at least one period (pi/2)")
    if counts.sum() <= 0:
        raise EstimationError("fringe fit degenerate: all counts zero")

    weights = 1.0 / np.clip(counts, 1.0, None) if poisson_weights else np.ones_like(counts)
    v, a0, phi0 = _fit_fringe(thetas, counts, weights)

    if n_resamples < 100:
        raise ValidationError("n_resamples must be >= 100")
    vs = np.empty(n_resamples)
    for k in range(n_resamples):
        rng = derive_rng(seed, "visibility", k)
        resampled = rng.poisson(counts).astype(float)
        try:
            vs[k] = _fit_fringe(thetas, resampled, weights)[0]
        except EstimationError:
            vs[k] = np.nan
    ok = np.isfinite(vs)
    if ok.sum() < 0.9 * n_resamples:
        raise EstimationError("fringe fit failed on more than 10% of resamples")
    est = EstimateWithError(value=v, sigma=float(np.std(vs[ok])), n_resamples=n_resamples)
    return VisibilityResult(
        estimate=est,
        baseline=float(a0),
        phase=phi0,
        nonclassical=v > VISIBILITY_CLASSICAL_BOUND,
    )


# ---------------------------------------------------------------------------
# Cauchy-Schwarz ratio and Monte-Carlo error propagation.
# ---------------------------------------------------------------------------


def cauchy_schwarz_R(g12: float, g11: float, g22: float) -> float:
    """R = g12^2 / (g11 g22); R > 1 certifies nonclassical correlations."""
    if g11 <= 0 or g22 <= 0:
        raise EstimationError("autocorrelations must be positive")
    return float(g12**2 / (g11 * g22))


def is_nonclassical_R(r: float) -> bool:
    return r > 1.0


def mc_error(
    estimator,
    counts: np.ndarray,
    n_resamples: int = 200,
    seed: int = 0,
) -> EstimateWithError:
    """Poisson parametric bootstrap around the observed counts.

    Every count is resampled as Poisson with mean equal to its observed
    value, the estimator re-run, and the sample mean/stddev returned.
    Per-trial derived seeds make the result independent of execution order.
    A resample whose estimator raises an EntmemError counts as failed; any
    other exception is a bug and propagates.
    """

    if n_resamples < 100:
        raise ValidationError("n_resamples must be >= 100")
    counts = np.asarray(counts, dtype=float)
    if np.any(counts < 0):
        raise ValidationError("counts must be >= 0")
    values = np.empty(n_resamples)
    failures = 0
    for k in range(n_resamples):
        rng = derive_rng(seed, "mc", k)
        resampled = rng.poisson(counts)
        try:
            values[k] = float(estimator(resampled))
        except EntmemError:
            values[k] = np.nan
            failures += 1
    if failures > 0.1 * n_resamples:
        raise EstimationError(
            f"estimator failed on {failures}/{n_resamples} Poisson resamples"
        )
    ok = np.isfinite(values)
    return EstimateWithError(
        value=float(np.mean(values[ok])),
        sigma=float(np.std(values[ok])),
        n_resamples=n_resamples,
    )
