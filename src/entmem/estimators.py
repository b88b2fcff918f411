"""Figure-of-merit estimators operating on count records.

Tomography follows the standard two-stage recipe: exact linear inversion
of the 16 projection frequencies, then a Poisson maximum-likelihood fit
over the Cholesky-parameterized physical states seeded from the clamped
linear estimate.  The fit is a damped Newton method on a likelihood whose
gradient and Hessian come from a quadratic-form tensor built at import;
scipy's L-BFGS-B, with random restarts, is the fallback for the rare fit
Newton does not finish.  CHSH, visibility and the Cauchy-Schwarz ratio
are closed-form count ratios; every estimator gets its error bar from
Poisson Monte-Carlo resampling of the observed counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dposv
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


def tomo_counts(records: list[CountRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Coincidences and acquisition times of 16 tomography records, in TOMO_SETTINGS order."""
    by_label = {r.setting_label: r for r in records}
    if len(by_label) != len(records):
        raise ConfigurationError("duplicate setting labels in tomography records")
    missing = [label for label in _TOMO_LABELS if label not in by_label]
    if missing:
        raise ConfigurationError(f"missing tomography records for settings {missing}")
    ordered = [by_label[label] for label in _TOMO_LABELS]
    counts = np.array([float(r.coincidences) for r in ordered])
    return counts, np.array([r.acquisition_s for r in ordered])


def _tomo_data(counts, acquisition_s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frequencies, exposures and counts of the 16 counts in TOMO_SETTINGS order.

    Coincidence rates are normalized by the total rate of the complete
    (H/V x H/V) quadruple, which measures every pair regardless of basis;
    working with rates keeps unequal acquisition times consistent.
    """

    counts = np.asarray(counts, dtype=float)
    acquisition_s = np.asarray(acquisition_s, dtype=float)
    if counts.shape != (16,) or acquisition_s.shape != (16,):
        raise ValidationError("tomography needs 16 counts and 16 acquisition times")
    rates = counts / acquisition_s
    total_rate = rates[_NORMALIZATION_IDX].sum()
    if total_rate <= 0:
        raise EstimationError("normalization group has zero coincidences")
    return rates / total_rate, total_rate * acquisition_s, counts


def tomo_linear(counts, acquisition_s) -> np.ndarray:
    """Linear-inversion estimate; Hermitian, unit trace, possibly non-PSD."""
    freqs, _, _ = _tomo_data(counts, acquisition_s)
    rho = np.linalg.solve(_TOMO_DESIGN, freqs.astype(np.complex128)).reshape(4, 4)
    return (rho + rho.conj().T) / 2


# ---------------------------------------------------------------------------
# Maximum-likelihood reconstruction.
#
# rho(t) = T+T / Tr(T+T) with T = sum_a t_a E_a lower triangular: t[0:4] are
# the real diagonal entries, the remaining 12 are re/im pairs of the strictly
# lower entries in row-major order.  The E_a are orthonormal, so
# Tr(T+T) = t.t and every probability is a ratio of quadratic forms,
# p_k = t Q_k t / t.t with Q[k, a, b] = Re Tr(P_k E_a+ E_b).
# ---------------------------------------------------------------------------

_MLE_PROB_FLOOR = 1e-12

_LOWER_ROWS, _LOWER_COLS = np.tril_indices(4, -1)  # strictly lower, row-major
_CHOL_BASIS = np.zeros((16, 4, 4), dtype=np.complex128)  # E_a
_CHOL_BASIS[range(4), range(4), range(4)] = 1.0
_CHOL_BASIS[range(4, 16, 2), _LOWER_ROWS, _LOWER_COLS] = 1.0
_CHOL_BASIS[range(5, 16, 2), _LOWER_ROWS, _LOWER_COLS] = 1j
_TOMO_Q = np.real(
    np.einsum("kij,alj,bli->kab", _TOMO_PROJECTORS, _CHOL_BASIS.conj(), _CHOL_BASIS)
)


def _t_from_params(t: np.ndarray) -> np.ndarray:
    return np.tensordot(t, _CHOL_BASIS, axes=1)


def _params_from_t(m: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("aij,ij->a", _CHOL_BASIS.conj(), m))


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


def _log_likelihood(probs: np.ndarray, counts: np.ndarray, exposures: np.ndarray):
    probs = np.maximum(probs, _MLE_PROB_FLOOR)
    return float(np.sum(counts * np.log(exposures * probs) - exposures * probs)), probs


def _neg_log_likelihood(
    t: np.ndarray, counts: np.ndarray, exposures: np.ndarray, hessian: bool = False
) -> tuple:
    """Poisson NLL at t with its gradient, and its Hessian when asked."""
    s = float(t @ t)
    if s <= 0:
        raise EstimationError("degenerate Cholesky point with zero trace")
    scale = 2.0 / s
    g_mat = (_TOMO_Q.reshape(256, 16) @ t).reshape(16, 16)  # row k is Q_k t
    ll, probs = _log_likelihood(g_mat @ t / s, counts, exposures)
    weights = counts / probs - exposures  # dLL/dp
    wp = float(weights @ probs)
    grad = scale * (weights @ g_mat - wp * t)
    if not hessian:
        return -ll, -grad
    jac = scale * (g_mat - probs[:, None] * t)  # dp/dt
    hess = scale * (weights @ _TOMO_Q.reshape(16, 256)).reshape(16, 16)
    hess.flat[::17] -= scale * wp
    cross = scale * grad[:, None] * t
    hess -= cross + cross.T
    hess -= jac.T @ (jac * (counts / probs**2)[:, None])
    return -ll, -grad, -hess


def _newton_step(h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, bool]:
    """The Newton step -h^-1 g, and whether h is positive definite.

    The step is one Cholesky solve.  When that fails, h is shifted by twice
    its lowest eigenvalue (an eigh decomposition) and counts as indefinite.
    """
    _, x, info = dposv(h, g)
    if info == 0:
        return -x, True
    vals, vecs = np.linalg.eigh(h)
    floor = 1e-12 * np.abs(vals).max()
    definite = vals.min() >= floor
    if not definite:
        vals = vals + (floor - 2 * vals.min())
    return -vecs @ ((vecs.T @ g) / vals), definite


def _newton_fit(t: np.ndarray, counts: np.ndarray, exposures: np.ndarray) -> np.ndarray | None:
    """Damped Newton minimizer of the NLL from t, or None if it does not converge.

    The NLL is invariant under t -> c t: t stays at unit length and t t^T
    fills the Hessian's null direction.  Steps backtrack until the NLL
    decreases.  Converged at a Newton decrement <= 1e-15 |NLL| with a
    positive definite Hessian, or, once no decrease is found, at
    max|grad| < 1e-6.
    """
    try:
        t = t / np.linalg.norm(t)
        f, g, h = _neg_log_likelihood(t, counts, exposures, hessian=True)
        for _ in range(100):
            step, definite = _newton_step(h + np.outer(t, t), g)
            if definite and -0.5 * (g @ step) <= 1e-15 * abs(f):
                return t
            for _ in range(40):
                f_new, g_new, h_new = _neg_log_likelihood(t + step, counts, exposures, True)
                if f_new < f:
                    break
                step = step / 2
            else:
                return t if np.max(np.abs(g)) < 1e-6 else None
            # Back to unit length; the derivatives scale as 1/|t| and 1/|t|^2.
            norm = np.linalg.norm(t + step)
            t, f, g, h = (t + step) / norm, f_new, g_new * norm, h_new * norm**2
            if not np.all(np.isfinite(h)):
                return None
    except (EstimationError, np.linalg.LinAlgError):
        return None
    return None


def tomo_mle(
    counts, acquisition_s, init: np.ndarray | None = None, seed: int = 0
) -> TwoQubitState:
    """Maximum-likelihood physical state from the 16 tomography counts.

    counts and acquisition_s are in TOMO_SETTINGS order (see tomo_counts).
    The Poisson log-likelihood sum_i [n_i ln(N_i p_i) - N_i p_i] is
    maximized over the Cholesky parameterization by damped Newton steps with
    the analytic Hessian, seeded from the clamped linear inversion (or the
    given init).  Only if Newton does not converge, L-BFGS-B runs from the
    same seed point and up to three random restarts before giving up.
    """

    _, exposures, counts = _tomo_data(counts, acquisition_s)
    if init is None:
        init = tomo_linear(counts, acquisition_s)
    t0 = _params_from_t(_lower_cholesky_factor(_clamped_physical(init)))

    t_hat = _newton_fit(t0, counts, exposures)
    converged = t_hat is not None
    if not converged:
        rng = derive_rng(seed, "tomo_mle")
        best = None
        starts = [t0] + [rng.normal(scale=0.5, size=16) for _ in range(3)]
        for start in starts:
            res = minimize(
                _neg_log_likelihood,
                start,
                args=(counts, exposures),
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
        t_hat, converged = best.x, converged and np.isfinite(best.fun)
    m = _t_from_params(t_hat)
    rho = m.conj().T @ m
    rho = (rho + rho.conj().T) / (2 * np.trace(rho).real)
    if not converged:
        err = EstimationError("maximum-likelihood tomography did not converge")
        err.best_iterate = rho
        raise err
    return TwoQubitState(rho)


def tomo_log_likelihood(rho: np.ndarray, counts, acquisition_s) -> float:
    """Poisson log-likelihood of a state given the 16 counts (for diagnostics)."""
    _, exposures, counts = _tomo_data(counts, acquisition_s)
    return _log_likelihood(np.real(_TOMO_DESIGN @ np.ravel(rho)), counts, exposures)[0]


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


def visibility_fit(
    points: list[tuple[float, float]],
    poisson_weights: bool = False,
    n_resamples: int = 200,
    seed: int = 0,
) -> VisibilityResult:
    """Fit C(theta) = B [1 + V cos(4 theta - phi0)] to a fringe sweep.

    theta is the half-wave-plate angle, so the fringe period is pi/2.
    Returns the visibility in [0, 1] with a Poisson Monte-Carlo sigma and
    flags values above 1/sqrt(2) as nonclassical.  The fit is linear least
    squares in a0 + a1 cos(4 theta) + a2 sin(4 theta); one pseudo-inverse of
    the fixed design fits every resample, and a0 <= 0 fails a resample.
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
    if n_resamples < 100:
        raise ValidationError("n_resamples must be >= 100")

    weights = 1.0 / np.clip(counts, 1.0, None) if poisson_weights else np.ones_like(counts)
    w = np.sqrt(weights)
    design = np.column_stack([w, np.cos(4 * thetas) * w, np.sin(4 * thetas) * w])
    (a0, a1, a2), *_ = np.linalg.lstsq(design, counts * w, rcond=None)
    if a0 <= 0:
        raise EstimationError("fringe fit degenerate: non-positive baseline")
    v = min(float(np.hypot(a1, a2) / a0), 1.0)

    resampled = np.array(
        [derive_rng(seed, "visibility", k).poisson(counts) for k in range(n_resamples)]
    )
    b0, b1, b2 = np.linalg.pinv(design) @ (resampled * w).T
    ok = b0 > 0
    if ok.sum() < 0.9 * n_resamples:
        raise EstimationError("fringe fit failed on more than 10% of resamples")
    vs = np.minimum(np.hypot(b1[ok], b2[ok]) / b0[ok], 1.0)
    est = EstimateWithError(value=v, sigma=float(np.std(vs)), n_resamples=n_resamples)
    return VisibilityResult(
        estimate=est,
        baseline=float(a0),
        phase=float(np.arctan2(a2, a1)),
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
