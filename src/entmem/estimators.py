"""Figure-of-merit estimators operating on count records.

Tomography follows the standard two-stage recipe: exact linear inversion of the 16
projection frequencies, then a Poisson maximum-likelihood fit over the Cholesky-parameterized
physical states seeded from the clamped linear estimate.  One damped Newton method runs a
batch of such fits on a likelihood whose gradient and Hessian come from a quadratic-form
tensor built at import; every product is per row, so a row's fit is the same, bit for bit,
in any batch, and a dict of fits (a fit store) passed to fit_rows and tomo_mle serves each
input once.  Each row's Hessian is definite when its own Cholesky factorization succeeds, and
only a row that fails it gets eigenvalues (and, if indefinite, a shift).  A fit stops at a
Newton decrement <= 1e-15 |NLL| with a definite Hessian, or, when no step lowers the NLL, at
<= 1e-13 |NLL|; one that does neither within 1,000 steps, or reaches a non-finite Hessian, is
an EstimationError.  CHSH, visibility and the Cauchy-Schwarz ratio are closed-form count
ratios; every estimator gets its error bar from Poisson Monte-Carlo resampling of the counts.

Each measurement design is defined here, once, next to its estimator:
TOMO_SETTINGS, chsh_settings and fringe_settings, each a triple (labels,
arm1, arm2) of read-only ket arrays.  The pipeline simulates
counts at these settings, and the analytic figures (chsh_S_analytic,
visibility_analytic) are the same estimators applied to the Born
probabilities of the same settings: the infinite-count limit of the
measured figures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .detection import CountRecord, born_probabilities, heralded_alpha, joint_kets
from .errors import ConfigurationError, EstimationError, ValidationError, nan_or_raise
from .qstate import KETS, bell_psi_plus, fidelity, ket_linear, physical
from .rng import poisson_rows

TOMO_BASIS_LETTERS = ("H", "V", "D", "R")
NORMALIZATION_GROUP = ("HH", "HV", "VH", "VV")


def _design(labels, arm1, arm2) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """An analyzer design (labels, arm1, arm2): one label and one ket per arm for each
    setting, the kets as read-only (S, 2) arrays."""
    arms = [np.array(kets, dtype=np.complex128).reshape(-1, 2) for kets in (arm1, arm2)]
    for k in arms:
        k.setflags(write=False)
    return tuple(labels), *arms


@dataclass(frozen=True)
class TomographySettingSet:
    """The 16 product-projection settings used for state reconstruction, as a design."""

    settings: tuple[tuple[str, ...], np.ndarray, np.ndarray]

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


# The one tomography design (James et al., PRA 64, 052312, 2001); a test checks
# that its 16 projectors span the operator space.
_TOMO_LABELS = tuple(a + b for a in TOMO_BASIS_LETTERS for b in TOMO_BASIS_LETTERS)
TOMO_SETTINGS = TomographySettingSet(
    _design(_TOMO_LABELS, [KETS[a] for a, _ in _TOMO_LABELS], [KETS[b] for _, b in _TOMO_LABELS])
)
_TOMO_KETS = joint_kets(*TOMO_SETTINGS.settings[1:])
_TOMO_PROJECTORS = _TOMO_KETS[:, :, None] * _TOMO_KETS[:, None, :].conj()  # the |k><k|
_TOMO_DESIGN = _TOMO_PROJECTORS.mT.reshape(16, 16)  # row i maps vec(rho) -> Tr(rho P_i)
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


def chsh_counts(records: list[CountRecord]) -> np.ndarray:
    """Coincidences of the 16 CHSH records, in CHSH_LABELS order, acquired for one time."""
    by_label = {r.setting_label: r for r in records}
    missing = [label for label in CHSH_LABELS if label not in by_label]
    if missing:
        raise ValidationError(f"missing CHSH records {missing}")
    ordered = [by_label[label] for label in CHSH_LABELS]
    times = sorted({r.acquisition_s for r in ordered})
    if len(times) > 1:  # E is a ratio of raw counts: it compares rates at one time only
        raise ValidationError(f"the 16 CHSH records must share one acquisition_s, got {times}")
    return np.array([float(r.coincidences) for r in ordered])


def alpha_counts(records: list[CountRecord]) -> dict[str, int]:
    """n1, n12, n13 and n123 of the two heralded-alpha records, labelled ...:a and ...:b by port."""
    by_port = {r.setting_label.rpartition(":")[2]: r for r in records}
    if len(records) != 2 or set(by_port) != {"a", "b"}:
        labels = [r.setting_label for r in records]
        raise ValidationError(f"alpha needs one record per port, ...:a and ...:b, got {labels}")
    a, b = by_port["a"], by_port["b"]
    return {"n1": a.singles_1, "n12": a.coincidences, "n13": b.coincidences, "n123": a.triples}


def _tomo_data(counts, acquisition_s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frequencies, exposures and counts of 16 counts (or each (B, 16) row), TOMO_SETTINGS order.

    Coincidence rates are normalized by the total rate of the complete
    (H/V x H/V) quadruple, which measures every pair regardless of basis;
    working with rates keeps unequal acquisition times consistent.  A
    quadruple without coincidences is an EstimationError for one row and
    NaN frequencies for a row of a stack.
    """

    counts = np.asarray(counts, dtype=float)
    acquisition_s = np.asarray(acquisition_s, dtype=float)
    if counts.ndim not in (1, 2) or counts.shape[-1] != 16 or acquisition_s.shape != (16,):
        raise ValidationError("tomography needs 16 counts and 16 acquisition times")
    with np.errstate(all="ignore"):  # checked below
        rates = counts / acquisition_s
        total_rate = rates[..., _NORMALIZATION_IDX].sum(axis=-1, keepdims=True)
        freqs, exposures = rates / total_rate, total_rate * acquisition_s
    if not (np.isfinite(rates).all() and np.isfinite(exposures).all()):
        raise ValidationError("acquisition_s: the coincidence rates it gives are not finite")
    message = "normalization group has zero coincidences"
    return nan_or_raise(freqs, total_rate <= 0, counts.ndim == 1, message), exposures, counts


def tomo_linear(counts, acquisition_s) -> np.ndarray:
    """Linear-inversion estimate of 16 counts, or the (B, 4, 4) stack of (B, 16) rows, NaN
    where no normalization coincidences; Hermitian, unit trace, possibly non-PSD.  A stack
    is one solve with B right-hand sides."""
    freqs, _, _ = _tomo_data(counts, acquisition_s)
    rho = np.linalg.solve(_TOMO_DESIGN, freqs.T.astype(np.complex128)).T
    rho = rho.reshape(*freqs.shape[:-1], 4, 4)
    return (rho + rho.conj().mT) / 2


# ---------------------------------------------------------------------------
# Maximum-likelihood reconstruction.
#
# rho(t) = T+T / Tr(T+T) with T = sum_a t_a E_a lower triangular: t[0:4] are
# the real diagonal entries, the remaining 12 are re/im pairs of the strictly
# lower entries in row-major order.  The E_a are orthonormal, so
# Tr(T+T) = t.t and every probability is a ratio of quadratic forms,
# p_k = t Q_k t / t.t with Q[k, a, b] = Re Tr(P_k E_a+ E_b).  The likelihood
# and the solver work on batches: t, counts and exposures are (B, 16) rows.
# ---------------------------------------------------------------------------

_MLE_PROB_FLOOR = 1e-12

_LOWER_ROWS, _LOWER_COLS = np.tril_indices(4, -1)  # strictly lower, row-major
_CHOL_BASIS = np.zeros((16, 4, 4), dtype=np.complex128)  # E_a
_CHOL_BASIS[range(4), range(4), range(4)] = 1.0
_CHOL_BASIS[range(4, 16, 2), _LOWER_ROWS, _LOWER_COLS] = 1.0
_CHOL_BASIS[range(5, 16, 2), _LOWER_ROWS, _LOWER_COLS] = 1j
_TOMO_Q = np.real(np.einsum("kij,alj,bli->kab", _TOMO_PROJECTORS, _CHOL_BASIS.conj(), _CHOL_BASIS))
_Q_BY_PROB = _TOMO_Q.reshape(16, 256).copy()  # w[:, None] @ _Q_BY_PROB: sum_k w_k Q_k
_Q_BY_PARAM = _Q_BY_PROB.reshape(256, 16).T.copy()  # t[:, None] @ _Q_BY_PARAM: the rows Q_k t


def _t_from_params(t: np.ndarray) -> np.ndarray:
    return (t @ _CHOL_BASIS.reshape(16, 16)).reshape(*t.shape[:-1], 4, 4)


def _params_from_t(m: np.ndarray) -> np.ndarray:
    return np.real(m.reshape(*m.shape[:-2], 16) @ _CHOL_BASIS.reshape(16, 16).conj().T)


def _lower_cholesky_factor(rho: np.ndarray) -> np.ndarray:
    """Lower-triangular T with T+T = rho, via the flipped Cholesky trick."""
    lower = np.linalg.cholesky(rho[..., ::-1, ::-1])
    return lower[..., ::-1, ::-1].conj().mT


def _clamped_physical(rho: np.ndarray, ridge: float = 1e-8) -> np.ndarray:
    """The Hermitian rho with negative eigenvalues clipped to 0, ridged and renormalized."""
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None) + ridge
    out = (vecs * vals[..., None, :]) @ vecs.conj().mT
    return out / np.trace(out, axis1=-2, axis2=-1).real[..., None, None]


def _log_likelihood(probs: np.ndarray, counts: np.ndarray, exposures: np.ndarray):
    probs = np.maximum(probs, _MLE_PROB_FLOOR)
    return (counts * np.log(exposures * probs) - exposures * probs).sum(axis=-1), probs


def _nll_value(t: np.ndarray, counts: np.ndarray, exposures: np.ndarray) -> tuple:
    """Poisson NLL of each row of t, and the terms (t, Q_k t, p, t.t) its derivatives reuse."""
    s = np.vecdot(t, t)
    g_mat = (t[:, None, :] @ _Q_BY_PARAM).reshape(-1, 16, 16)  # row k of g_mat[b] is Q_k t[b]
    ll, probs = _log_likelihood((g_mat @ t[:, :, None])[:, :, 0] / s[:, None], counts, exposures)
    return -ll, (t, g_mat, probs, s)


def _nll_derivatives(terms: tuple, counts: np.ndarray, exposures: np.ndarray) -> tuple:
    """The NLL gradients and Hessians from _nll_value's terms; its Q_k t become scratch."""
    t, g_mat, probs, s = terms
    scale = 2.0 / s[:, None]
    ratio = counts / probs
    weights = ratio - exposures  # dLL/dp
    wp = np.vecdot(weights, probs)[:, None]
    grad = scale * ((weights[:, None, :] @ g_mat)[:, 0] - wp * t)
    # NLL Hessian / scale = scale J^T diag(n/p^2) J + grad t^T + t grad^T - sum_k w_k Q_k + (w.p) I
    jac = np.subtract(g_mat, probs[:, :, None] * t[:, None, :], out=g_mat)  # dp/dt = scale J
    buf = jac * (scale * ratio / probs)[:, :, None]  # the one other (B, 16, 16) buffer
    hess = jac.mT @ buf
    np.matmul(weights[:, None, :], _Q_BY_PROB, out=buf.reshape(-1, 1, 256))[:, 0, ::17] -= wp
    hess -= buf
    np.multiply(grad[:, :, None], t[:, None, :], out=buf)
    hess += buf
    hess += buf.mT
    hess *= scale[:, :, None]
    return -grad, hess


def _newton_step(h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Newton steps -h^-1 g of stacks h (B, 16, 16) and g (B, 16), and which h are definite.

    Each h's own Cholesky factorization tests it; only one that fails gets eigenvalues,
    counts as indefinite when the lowest is below 1e-12 of the largest magnitude, and is then
    shifted in place by twice that eigenvalue.  One stacked solve gives the steps.
    """
    with np.errstate(all="ignore"):  # np.linalg.cholesky's gufunc: a failed factor is NaN
        failed = np.isnan(_umath_linalg.cholesky_lo(h)[:, 0, 0]).nonzero()[0]
    vals = np.linalg.eigvalsh(h[failed])
    floor = 1e-12 * np.abs(vals).max(axis=1)
    definite = np.ones(len(h), dtype=bool)
    definite[failed] = vals[:, 0] >= floor
    shift = np.where(definite[failed], 0.0, floor - 2 * vals[:, 0])
    h[failed[:, None], range(16), range(16)] += shift[:, None]
    return -np.linalg.solve(h, g[:, :, None])[:, :, 0], definite


# A rank-deficient MLE from a few counts per cell crawls along a near-flat
# valley of Cholesky factors of nearly the same singular state: up to 410
# steps on the expected-count storage sweep.
_NEWTON_MAX_STEPS = 1000
# A line search that finds no decrease ends the fit at a Newton decrement of
# at most this fraction of |NLL|; stalls at optima measured 1.3e-17 to 3.7e-15.
_STALL_DECREMENT = 1e-13
_MLE = "maximum-likelihood tomography "  # every fit failure message starts so


def _newton_fits(t: np.ndarray, counts: np.ndarray, exposures: np.ndarray) -> tuple:
    """Damped Newton minimizers of the NLL from the rows of t, and each row's failure or None.

    The NLL is invariant under t -> c t: t stays at unit length and t t^T fills the
    Hessian's null direction.  Steps backtrack until the NLL decreases; a trial point
    gets only its NLL.  Each row keeps the module docstring's stop rules on its own.
    """
    fitted, errors, rows = t.copy(), np.full(len(t), None, dtype=object), np.arange(len(t))
    f, terms = _nll_value(t, counts, exposures)
    for _ in range(_NEWTON_MAX_STEPS):
        g, h = _nll_derivatives(terms, counts, exposures)
        # Back to unit length; the derivatives scale as 1/|t| and 1/|t|^2.
        norm = np.sqrt(terms[3])[:, None]
        t, g, h = terms[0] / norm, g * norm, h * (norm * norm)[:, :, None]
        failed = ~np.isfinite(h).all(axis=(1, 2))
        if failed.any():  # a zero step; the row leaves below
            h[failed], g[failed] = np.eye(16), 0.0
            errors[rows[failed]] = _MLE + "reached a non-finite Hessian"
        h += t[:, :, None] * t[:, None, :]
        step, definite = _newton_step(h, g)
        del h  # no Hessian stays alive while the next one is built
        decrement = -0.5 * np.vecdot(g, step)
        done = failed | definite & (decrement <= 1e-15 * np.abs(f))
        f_new, terms = _nll_value(t + step, counts, exposures)
        back = (~(f_new < f) & ~done).nonzero()[0]
        if back.size:  # backtrack only the rows whose full step failed: 40 trials in all
            sub = [a[back] for a in (t, step, counts, exposures, f)]
            for _ in range(39):
                sub[1] /= 2
                f_try, tried = _nll_value(sub[0] + sub[1], sub[2], sub[3])
                ok = f_try < sub[4]
                if ok.any():
                    for term, value in zip((f_new, *terms), (f_try, *tried)):
                        term[back[ok]] = value[ok]
                    back, sub = back[~ok], [a[~ok] for a in sub]
                    if not back.size:
                        break
            for i, ratio in zip(back, decrement[back] / np.abs(f[back])):  # no decrease: a stop
                if not ratio <= _STALL_DECREMENT:
                    errors[rows[i]] = _MLE + f"stalled at a Newton decrement of {ratio:.3g} |NLL|"
            done[back] = True
        if done.any():
            fitted[rows[done]] = t[done]
            if done.all():
                break
            rows, f_new, counts, exposures, *terms = (
                a[~done] for a in (rows, f_new, counts, exposures, *terms)
            )
        f = f_new
    else:
        errors[rows] = _MLE + f"did not converge in {_NEWTON_MAX_STEPS} Newton steps"
    return fitted, errors


def fit_rows(count_rows, acquisition_s, fits: dict) -> None:
    """Fit as one batch the distinct rows (16 counts each, acquired for acquisition_s) that
    the fit store fits lacks; it then holds each one's state or EstimationError.  Rows that
    tomo_mle rejects before a fit are left to it."""
    freqs, exposures, counts = _tomo_data(count_rows, acquisition_s)
    acq = np.asarray(acquisition_s, dtype=float).tobytes()
    batch = {(row.tobytes(), acq): k for k, row in enumerate(counts) if not np.isnan(freqs[k, 0])}
    batch = {key: k for key, k in batch.items() if key not in fits}
    if not batch:
        return
    exposures, counts = (a[list(batch.values())] for a in (exposures, counts))
    linear = tomo_linear(counts, acquisition_s)
    try:
        t0 = _params_from_t(_lower_cholesky_factor(_clamped_physical(linear)))
        t, errors = _newton_fits(t0, counts, exposures)
    except np.linalg.LinAlgError as exc:  # no finite input reaches it
        raise EstimationError(_MLE + f"failed: {exc}") from exc
    m = _t_from_params(t)
    rho = m.conj().mT @ m
    rho = (rho + rho.conj().mT) / (2 * np.trace(rho, axis1=1, axis2=2).real[:, None, None])
    states = iter(physical(rho[[error is None for error in errors]]))
    for key, error in zip(batch, errors):
        fits[key] = EstimationError(error) if error else next(states)


def tomo_mle(counts, acquisition_s, fits: dict | None = None) -> np.ndarray:
    """Maximum-likelihood physical state from the 16 tomography counts.

    counts and acquisition_s are in TOMO_SETTINGS order (see tomo_counts).
    The Poisson log-likelihood sum_i [n_i ln(N_i p_i) - N_i p_i] is
    maximized over the Cholesky parameterization by damped Newton steps with
    the analytic Hessian (fit_rows on one row).  A fit Newton cannot finish
    raises EstimationError.  An input the fit store fits holds returns its
    stored state (a read-only array) or raises its error, without checking
    the input again; a new one is fitted and stored there.
    """

    fits = {} if fits is None else fits
    key = tuple(np.asarray(a, dtype=float).tobytes() for a in (counts, acquisition_s))
    if key not in fits:
        fit_rows([_tomo_data(counts, acquisition_s)[2]], acquisition_s, fits)
    fit = fits[key]
    if isinstance(fit, EstimationError):
        raise fit.with_traceback(None)
    return fit


def tomo_estimate(records, reference=None, fits: dict | None = None):
    """The linear and MLE states of tomography records, and the MLE's fidelity to the MLE of
    the reference records, or to the ideal Bell state when reference is None."""
    counts, acq = tomo_counts(records)
    rho_linear, rho_mle = tomo_linear(counts, acq), tomo_mle(counts, acq, fits)
    ref = bell_psi_plus() if reference is None else tomo_mle(*tomo_counts(reference), fits)
    return rho_linear, rho_mle, fidelity(rho_mle, ref)


# ---------------------------------------------------------------------------
# CHSH.
# ---------------------------------------------------------------------------


PORT_LABELS = ("pp", "pm", "mp", "mm")
# Analyzer offsets (arm 1, arm 2) of each port: the angle or its orthogonal.
PORT_OFFSETS = ((0.0, 0.0), (0.0, np.pi / 2), (np.pi / 2, 0.0), (np.pi / 2, np.pi / 2))
# CHSH record labels: angle choice i on arm 1, j on arm 2, then the port.
CHSH_LABELS = tuple(f"chsh:{i}{j}:{port}" for i in "01" for j in "01" for port in PORT_LABELS)


def chsh_settings(angles: tuple[float, float, float, float]):
    """The design of the 16 CHSH settings, in CHSH_LABELS order, at the analyzer angles
    (theta1, theta2, theta1', theta2'): the four ports at each angle pair."""
    t1, t2, t1p, t2p = angles
    analyzers = [(a1 + da, a2 + db) for a1 in (t1, t1p) for a2 in (t2, t2p) for da, db in PORT_OFFSETS]
    x1, x2 = zip(*analyzers)
    return _design(CHSH_LABELS, [ket_linear(x) for x in x1], [ket_linear(x) for x in x2])


_ZERO_TOTAL = "correlation undefined: zero total coincidences"


def chsh_E(c_pp, c_pm, c_mp, c_mm):
    """Correlation from the four analyzer-port coincidence counts.

    The +/- ports of each arm are the analyzer angle and its orthogonal
    complement.  Arrays give one E per element, NaN where the total is
    zero; for scalars that is an EstimationError.
    """

    c_pp, c_pm, c_mp, c_mm = (np.asarray(c, dtype=float) for c in (c_pp, c_pm, c_mp, c_mm))
    total = c_pp + c_pm + c_mp + c_mm
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero total is NaN below
        e = np.clip((c_pp + c_mm - c_pm - c_mp) / total, -1.0, 1.0)
    return nan_or_raise(e, total <= 0, e.ndim == 0, _ZERO_TOTAL)


def chsh_e_matrix(counts) -> np.ndarray:
    """The 2x2 E matrix from the 16 CHSH coincidence counts in CHSH_LABELS order,
    or the (B, 2, 2) matrices of a (B, 16) stack, NaN where a total is zero."""
    counts = np.asarray(counts, dtype=float)
    ports = counts.reshape(*counts.shape[:-1], 2, 2, 4)  # [i, j, port]
    e = chsh_E(*np.moveaxis(ports, -1, 0))
    return nan_or_raise(e, np.isnan(e), counts.ndim == 1, _ZERO_TOTAL)


def chsh_S(e_matrix: np.ndarray):
    """CHSH parameter, maximized over the canonical sign placements.

    e_matrix[i, j] = E at (theta_i, theta_j') for the two angle choices per
    arm.  Of the four sums with exactly one minus sign, the largest in
    magnitude is returned; this reduces to the textbook formula when the
    subtracted term is the smallest contributor, and reaches 2*sqrt(2) on a
    maximally entangled state with the standard angle set.  A (B, 2, 2)
    stack gives B values, NaN for a NaN matrix.
    """

    e = np.asarray(e_matrix, dtype=float)
    if e.shape[-2:] != (2, 2):
        raise ValidationError("E matrix must be 2x2")
    if np.any(np.abs(e) > 1 + 1e-9):
        raise ValidationError("correlations must lie in [-1, 1]")
    s = np.abs(e.sum(axis=(-2, -1), keepdims=True) - 2 * e).max(axis=(-2, -1))
    return float(s) if s.ndim == 0 else s


def chsh_S_literal(e_matrix: np.ndarray) -> float:
    """|E11 - E12 + E21 + E22|, reported alongside for transparency."""
    e = np.asarray(e_matrix, dtype=float)
    if e.shape != (2, 2):
        raise ValidationError("E matrix must be 2x2")
    return float(abs(e[0, 0] - e[0, 1] + e[1, 0] + e[1, 1]))


def chsh_S_analytic(rho: np.ndarray, angles: tuple[float, float, float, float]) -> float:
    """Exact S of the state: chsh_S of the Born probabilities of chsh_settings(angles)."""
    return chsh_S(chsh_e_matrix(born_probabilities(rho, chsh_settings(angles))[0]))


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


def fringe_settings(arm1_label: str, thetas):
    """The design of a fringe sweep: arm-1 fixed analysis state, arm-2 HWP at each angle theta.

    The HWP at angle theta analyzes polarization 2*theta, giving the
    pi/2-periodic fringe that visibility_fit fits.
    """
    return _design(
        [f"vis:{arm1_label}:{k}" for k in range(len(thetas))],
        [KETS[arm1_label]] * len(thetas),
        [ket_linear(2.0 * theta) for theta in thetas],
    )


def _fringe_fit(points: list[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The design, counts and least-squares coefficients (a0, a1, a2) of a sweep.

    C(theta) = B [1 + V cos(4 theta - phi0)] is a0 + a1 cos(4 theta) +
    a2 sin(4 theta); a0 <= 0 fails the fit.  Sweep angles whose design has
    rank below 3 cannot resolve the fringe and are a ValidationError.
    """
    if len(points) < 8:
        raise ValidationError("visibility fit needs at least 8 sweep points")
    thetas = np.array([p[0] for p in points], dtype=float)
    counts = np.array([p[1] for p in points], dtype=float)
    if np.any(counts < 0):
        raise ValidationError("fringe counts must be >= 0")
    if thetas.max() - thetas.min() < np.pi / 2 - 1e-9:
        raise ValidationError("fringe sweep must span at least one period (pi/2)")
    design = np.column_stack([np.ones_like(thetas), np.cos(4 * thetas), np.sin(4 * thetas)])
    coefficients, _, rank, _ = np.linalg.lstsq(design, counts, rcond=None)
    if rank < 3:
        raise ValidationError(f"fringe sweep angles give a design of rank {rank} < 3: no fit")
    if counts.sum() <= 0:
        raise EstimationError("fringe fit degenerate: all counts zero")
    if coefficients[0] <= 0:
        raise EstimationError("fringe fit degenerate: non-positive baseline")
    return design, counts, coefficients


def _contrast(a0, a1, a2):
    """Fringe visibility sqrt(a1^2 + a2^2) / a0, capped at 1."""
    return np.minimum(np.hypot(a1, a2) / a0, 1.0)


def visibility_fit(
    points: list[tuple[float, float]], n_resamples: int = 200, seed: int = 0
) -> VisibilityResult:
    """Fit C(theta) = B [1 + V cos(4 theta - phi0)] to a fringe sweep.

    theta is the half-wave-plate angle (fringe_settings), so the fringe
    period is pi/2.  Returns the visibility in [0, 1] with a Poisson
    Monte-Carlo sigma and flags values above 1/sqrt(2) as nonclassical.
    The fit is linear least squares (_fringe_fit); the sigma is mc_error's
    bootstrap at the "visibility" seed site, where one pseudo-inverse of the
    fixed design fits every resample and a0 <= 0 fails a resample.
    """

    design, counts, (a0, a1, a2) = _fringe_fit(points)
    v = float(_contrast(a0, a1, a2))
    pinv = np.linalg.pinv(design)

    def contrasts(rows):
        b = pinv @ rows.T
        values = np.full(len(rows), np.nan)
        ok = b[0] > 0
        values[ok] = _contrast(*b[:, ok])
        return values

    sigma = _bootstrap(contrasts, counts, n_resamples, seed, "visibility").sigma
    return VisibilityResult(
        estimate=EstimateWithError(value=v, sigma=sigma, n_resamples=n_resamples),
        baseline=float(a0),
        phase=float(np.arctan2(a2, a1)),
        nonclassical=v > VISIBILITY_CLASSICAL_BOUND,
    )


def visibility_analytic(rho: np.ndarray, arm1_label: str, thetas) -> float:
    """Exact visibility of the state: the fringe fit to the Born
    probabilities of fringe_settings(arm1_label, thetas)."""
    probs = born_probabilities(rho, fringe_settings(arm1_label, thetas))[0]
    _, _, coefficients = _fringe_fit(list(zip(thetas, probs)))
    return float(_contrast(*coefficients))


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


def alpha_from_counts(counts):
    """Heralded alpha of (n1, n12, n13, n123), or of each (B, 4) row, n1, n12, n13 floored at 1."""
    counts = np.asarray(counts, dtype=float)
    return heralded_alpha(*np.maximum(counts[..., :3], 1).T, counts[..., 3])


def _bootstrap(estimator, counts, n_resamples: int, seed: int, site: str) -> EstimateWithError:
    """mc_error's bootstrap, drawing its resamples at the seed path (seed, site, k)."""
    if n_resamples < 100:
        raise ValidationError("n_resamples must be >= 100")
    counts = np.asarray(counts, dtype=float)
    if np.any(counts < 0):
        raise ValidationError("counts must be >= 0")
    resampled = poisson_rows(seed, site, keys=range(n_resamples), lam=counts)
    values = np.asarray(estimator(resampled), dtype=float)
    if values.shape != (n_resamples,):
        raise ValidationError(f"estimator gave shape {values.shape} for {n_resamples} resamples")
    ok = np.isfinite(values)
    failures = n_resamples - int(ok.sum())
    if failures > 0.1 * n_resamples:
        raise EstimationError(
            f"estimator failed on {failures}/{n_resamples} Poisson resamples, more than 10%"
        )
    return EstimateWithError(float(np.mean(values[ok])), float(np.std(values[ok])), n_resamples)


def mc_error(
    estimator, counts: np.ndarray, n_resamples: int = 200, seed: int = 0
) -> EstimateWithError:
    """Poisson parametric bootstrap around the observed counts.

    Every count is resampled as Poisson with mean equal to its observed value,
    from per-trial derived seeds, so the result does not depend on execution
    order.  The estimator gets the (n_resamples, len(counts)) matrix once and
    returns one value per row, NaN where it fails; more than 10% failed rows
    fail the estimate, and an exception it raises propagates.  Returns the
    mean/stddev of the other rows.
    """
    return _bootstrap(estimator, counts, n_resamples, seed, "mc")


def __getattr__(name: str):
    """scipy's minimize, imported on first access and then kept as a module global.

    Nothing in entmem calls it; bench/tracer.py wraps estimators.minimize and
    bench/test_bench.py reads it.  Importing it lazily keeps scipy out of the
    runtime.
    """
    if name == "minimize":
        from scipy.optimize import minimize

        globals()["minimize"] = minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
