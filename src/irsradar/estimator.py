"""Best linear unbiased estimation of the path reflectivities.

For y = A alpha + n with zero-mean noise of covariance R, the BLUE is
alpha_hat = (A^H R^-1 A)^-1 A^H R^-1 y with covariance (A^H R^-1 A)^-1,
independent of the distribution of n beyond its second moment.

Everything runs on numpy's LAPACK and BLAS.  The estimate needs the model
only through its Gram G = A^H R^-1 A and matched filter b = A^H R^-1 y.
Every BLUE here factors a stack of Hermitian matrices with one stacked
Cholesky, M = L L^H, and forms each L^-1 by one stacked forward
substitution (_factor_inverse); no covariance is formed.  blue_gram, the
library's BLUE, factors each Gram itself and reads the estimate L^-H
(L^-1 b) and the covariance trace Tr(G^-1) = ||L^-1||_F^2 off it.  The
sweep's models share more: a link mode's model is A = S Diag(d), S the
steering columns of its group of paths and d the mode's coefficients, so
G = D^H Q D with Q = S^H R^-1 S the same for every mode on the group.
The BLUE is equivariant under that diagonal reparametrization, so
_path_factor factors each Q = L L^H once, and _blue_scaled reads every
mode's error alpha_hat - alpha = (Q^-1 v) / d and trace Tr(G^-1) = sum_i
(Q^-1)_ii / |d_i|^2 off that one factor; the noise's matched filter v ~
CN(0, Q) is drawn as L z, so Q^-1 v = L^-H z is one triangular product,
with no v formed.  Both hold the one condition screen (_screen): cond(G)
<= Tr(G) Tr(G^-1), so a Gram whose product lies well inside
CONDITION_LIMIT is cleared without an eigenvalue call, and only the
others, among them any Gram without a Cholesky factor, are formed and get
their condition number from eigvalsh.  A refused Gram comes back as a
cause code and its condition number, not as an exception: _refusal builds
the SingularModelError only where one model's refusal is raised.  The
library's one N-space entry is _model_gram, which checks a single N x K
model against the noise and forms R^-1 A and G, with a full R applied as
its stored inverse L^-H L^-1; blue_estimate, estimator_mse and
bounds.fisher_information each pass its Gram to blue_gram as a stack of
one, and blue_estimate also returns the covariance L^-H L^-1.  Each
stacked step is elementwise or runs one LAPACK or BLAS call per item, so
an item's values do not depend on the stack it is in.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import SingularModelError, UndefinedMetricError

# Gram matrices beyond this are treated as numerically singular.
CONDITION_LIMIT = 1e12

TRACE_BOUND_MARGIN = 0.5
"""A Gram is cleared without eigvalsh when Tr(G) Tr(G^-1) <= CONDITION_LIMIT * this.

For Hermitian positive definite G, lambda_max <= Tr(G) and 1 / lambda_min
<= Tr(G^-1), so cond(G) <= Tr(G) Tr(G^-1).  Tr(G^-1) is read off a
computed Cholesky factor, which is exact for a nearby matrix (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, Thm
10.3).  blue_gram factors G itself, exactly for G + dG with |dG| <=
gamma_{K+1} |L| |L^H|, so ||dG||_2 <= ||dG||_F <= gamma_{K+1} ||L||_F^2 =
gamma_{K+1} Tr(G + dG), gamma_{K+1} = (K + 1) u / (1 - (K + 1) u).  The
sweep factors Q = L L^H, with G = D^H Q D, exactly for Q + dQ with |dQ|
<= gamma_{K+1} |L| |L^H|, so it reads Tr(G^-1) of G + dG with dG = D^H dQ
D, and ||dG||_F <= gamma_{K+1} || |D^H L| |L^H D| ||_F <= gamma_{K+1}
||D^H L||_F^2 = gamma_{K+1} Tr(G + dG): the same bound.  Then
lambda_min(G) >= 1 / Tr((G + dG)^-1) - ||dG||_2, and a cleared Gram has
cond(G) <= 5e11 / (1 - 5e11 gamma_{K+1} (1 + gamma_{K+1})); the rounding
of the inverse, the sums and the product adds a relative error of order
K u sqrt(cond(G)), about 1e-8 here, for either factor, since a
triangular inverse's componentwise error, a small multiple of u |L^-1|
|L| |L^-1| (Higham, ch. 8), scales column by column with D as the
inverse does.  For K <= 100 that is below about 5.03e11, so eigvalsh,
whose eigenvalues are within a small multiple of u ||G||_2 of the exact
ones, could not have read the Gram above 1e12: clearing it excludes
nothing the eigenvalue screen would have.
"""


# The supported range of a noise power, sigma2 or each eigenvalue of a
# covariance, and of a scene's nonzero gamma.  Far outside it a scene's
# normalization or the noise solve under- or overflows, and every trial
# would fail or come out non-finite.
POWER_RANGE = (1e-30, 1e30)


def _sigma2_error() -> ValueError:
    """The ValueError of a sigma2 outside POWER_RANGE, which NoiseModel and sweeps raise."""
    lo, hi = POWER_RANGE
    return ValueError(f"sigma2 must lie in [{lo:g}, {hi:g}]")


@dataclass(frozen=True)
class NoiseModel:
    """Noise second-order description: a covariance, or sigma2 I with a fast path.

    sigma2, or every eigenvalue of the covariance, lies in POWER_RANGE.
    White noise needs a positive integer n; an n given with a covariance
    is its dimension.
    """

    covariance: np.ndarray = None  # N x N Hermitian positive definite
    sigma2: float = None  # the power of white noise, given with n and no covariance
    n: int = None

    def __post_init__(self):
        lo, hi = POWER_RANGE
        if self.is_scaled_identity:
            if self.sigma2 is not None and np.asarray(self.sigma2).dtype.kind not in "iuf":
                raise ValueError(f"sigma2 must be a real number, got {self.sigma2!r}")
            if self.sigma2 is None or not lo <= self.sigma2 <= hi:  # nan too
                raise _sigma2_error()
            object.__setattr__(self, "sigma2", float(self.sigma2))
            try:
                n = operator.index(self.n)  # ints, numpy's too, but no float
            except TypeError:
                raise ValueError(f"n must be an integer, got {self.n!r}") from None
            if n < 1:
                raise ValueError(f"n must be positive, got {n}")
            object.__setattr__(self, "n", n)
            object.__setattr__(self, "_inv", None)
            return
        if self.sigma2 is not None:
            raise ValueError("give a covariance or sigma2, not both")
        R = np.asarray(self.covariance, dtype=complex)
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise ValueError("covariance must be square")
        if self.n is not None and self.n != R.shape[0]:
            raise ValueError(f"covariance is {R.shape[0]} x {R.shape[0]}, but n is {self.n}")
        if not np.isfinite(R).all():
            raise ValueError("covariance entries must be finite")
        if np.max(np.abs(R - R.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(R))):
            raise ValueError("covariance must be Hermitian")
        lam = np.linalg.eigvalsh(R)
        if not (lo <= lam[0] and lam[-1] <= hi):
            raise ValueError(f"covariance eigenvalues must lie in [{lo:g}, {hi:g}]")
        object.__setattr__(self, "covariance", R)
        object.__setattr__(self, "n", R.shape[0])
        try:
            # positive definiteness is certified by the factorization
            chol = np.linalg.cholesky(R)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance is not positive definite") from exc
        chol_inv = np.linalg.inv(chol)
        object.__setattr__(self, "_inv", chol_inv.conj().T @ chol_inv)

    @property
    def is_scaled_identity(self) -> bool:
        """Whether the noise is white, sigma2 I: no covariance is given."""
        return self.covariance is None

    @classmethod
    def scaled_identity(cls, sigma2: float, n: int) -> "NoiseModel":
        return cls(sigma2=sigma2, n=n)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """R^-1 b; b may be a (..., N, K) stack, each item multiplied alone."""
        if self.is_scaled_identity:
            return b / self.sigma2
        return self._inv @ b


def _columns(A) -> np.ndarray:
    cols = A.columns if hasattr(A, "columns") else np.asarray(A, dtype=complex)
    if cols.ndim != 2:
        raise ValueError("A must be a matrix")
    return cols


def _hermitian(m: np.ndarray) -> np.ndarray:
    """The Hermitian part of each matrix in a (..., K, K) stack."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _gram_stack(cols: np.ndarray, noise: NoiseModel):
    """R^-1 A and the Hermitian part of A^H R^-1 A.

    cols is one N x K model or a (..., N, K) stack.  Stacked matmul runs
    the same BLAS call on every item, so each item's values equal its
    unstacked ones bit for bit.
    """
    ria = noise.solve(cols)
    return ria, _hermitian(cols.conj().swapaxes(-1, -2) @ ria)


def _condition_numbers(gram: np.ndarray) -> np.ndarray:
    """The 2-norm condition number of each Hermitian matrix in a stack.

    The number np.linalg.cond computes, max|lambda| / min|lambda| for a
    Hermitian matrix, taken from its eigenvalues rather than an SVD; it is
    inf where the smallest eigenvalue is zero.  Stacked eigvalsh runs one
    LAPACK call per item.
    """
    lam = np.abs(np.linalg.eigvalsh(gram))
    top, bottom = lam.max(axis=-1), lam.min(axis=-1)
    return np.divide(top, bottom, out=np.full_like(top, np.inf), where=bottom > 0)


def _cholesky_factors(m: np.ndarray):
    """Cholesky factors L, m = L L^H, of a Hermitian stack, and which items have one.

    One stacked np.linalg.cholesky; only when it fails is each item
    factored alone, and an item that is not positive definite to working
    precision keeps a nan factor and is False in the mask.  Both run one
    LAPACK call per item, so an item's factor does not depend on the stack.
    """
    try:
        return np.linalg.cholesky(m), np.ones(len(m), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    factors = np.full_like(m, np.nan)
    factored = np.zeros(len(m), dtype=bool)
    for t in range(len(m)):
        try:
            factors[t] = np.linalg.cholesky(m[t])
            factored[t] = True
        except np.linalg.LinAlgError:
            pass
    return factors, factored


def _factor_inverse(m: np.ndarray):
    """L^-1 of each Hermitian matrix m = L L^H of a stack, and which items have a factor.

    L is _cholesky_factors'.  L^-1 comes from one stacked forward
    substitution, row by row: row j of L^-1 is 1 / L_jj on the diagonal
    and -(L[j, :j] L^-1[:j, :j]) / L_jj before it.  Row j reads only the
    part of L's row j before the diagonal and the rows of L^-1 above it,
    so the reciprocal diagonal is taken once and each row overwrites its
    row of the factor in place, with one stacked matmul and one multiply
    by -1 / L_jj (numpy divides a complex value by a real one as a product
    with the real's reciprocal, so the product has the quotient's bits).
    Each step is elementwise or one stacked matmul, one BLAS call per
    item, so an item's inverse does not depend on the stack; its K steps
    make about K^3 / 6 complex multiply-adds per item, where
    np.linalg.inv would run an LU solve against I.  An item without a
    factor has a nan L^-1, and a near-singular item's may overflow to inf
    or nan, which the trace bound then leaves to the eigenvalue screen
    (_screen).
    """
    inv, factored = _cholesky_factors(m)  # becomes L^-1, row by row
    size = m.shape[-1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = 1.0 / inv.diagonal(axis1=-2, axis2=-1).real
        diag = np.arange(size)
        inv[:, diag, diag] = scale
        np.negative(scale, out=scale)
        for j in range(1, size):
            np.multiply(inv[:, j:j + 1, :j] @ inv[:, :j, :j], scale[:, j, None, None],
                        out=inv[:, j:j + 1, :j])
    return inv, factored


# why blue_gram refuses an item: its cause code
CLEARED, ILL_CONDITIONED, NOT_POSITIVE_DEFINITE = 0, 1, 2


def _screen(bound: np.ndarray, factored: np.ndarray, grams):
    """Each item's cause code and screened condition number, from its trace bound.

    bound (T,) holds Tr(G) Tr(G^-1) read off each item's factor, nan for
    an item without one.  An item within CONDITION_LIMIT *
    TRACE_BOUND_MARGIN is cleared without eigvalsh; grams(rows) forms the
    Grams of the others, whose condition numbers eigvalsh reads
    (_condition_numbers).  One above CONDITION_LIMIT is ILL_CONDITIONED,
    and one that passes but has no factor NOT_POSITIVE_DEFINITE, so every
    refusal is the one the eigenvalue screen alone would give.  cond (T,)
    is nan for the items the bound cleared.
    """
    cause = np.where(factored, CLEARED, NOT_POSITIVE_DEFINITE).astype(np.int8)
    cond = np.full(len(bound), np.nan)
    screen = np.flatnonzero(~(bound <= CONDITION_LIMIT * TRACE_BOUND_MARGIN))  # nan too
    if screen.size:
        cond[screen] = _condition_numbers(grams(screen))
        failed = screen[~(cond[screen] <= CONDITION_LIMIT)]  # nan and inf fail too
        cause[failed] = ILL_CONDITIONED
    return cause, cond


def _refusal(cause: int, cond: float) -> SingularModelError:
    """The SingularModelError that blue_gram's cause code and condition number stand for."""
    if cause == NOT_POSITIVE_DEFINITE:
        return SingularModelError("Gram matrix is not positive definite")
    return SingularModelError(
        f"Gram matrix condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}"
    )


def _model_gram(A, noise: NoiseModel):
    """R^-1 A and A^H R^-1 A of one N x K model, checked for shape and finite entries."""
    cols = _columns(A)
    if cols.shape[0] != noise.n:
        raise ValueError(f"A has {cols.shape[0]} rows but noise is {noise.n}-dimensional")
    if not np.isfinite(cols).all():
        raise ValueError("A has non-finite entries")
    return _gram_stack(cols, noise)


def blue_gram(gram: np.ndarray, b: np.ndarray):
    """The BLUE of every model in a stack, from its Gram and matched filter.

    Every Gram is factored, G = L L^H, and its factor inverted
    (_factor_inverse); Tr(G^-1) = ||L^-1||_F^2 and Tr(G) then screen each
    item (_screen), which forms no Gram for the items the trace bound
    clears.

    Parameters
    ----------
    gram : (T, K, K) complex array
        Hermitian Grams A^H R^-1 A, one per model.
    b : (T, K) complex array
        Matched-filter outputs A^H R^-1 y, one per model.

    Returns
    -------
    (alpha_hat, mse, cause, cond, chol_inv)
        Estimates G^-1 b (T, K) and covariance traces Tr(G^-1) (T,).
        cause (T,) int8 is CLEARED, or why item t is refused,
        ILL_CONDITIONED or NOT_POSITIVE_DEFINITE, in which case its
        estimate, trace and L^-1 are nan; _refusal builds the
        SingularModelError a refused item raises.  cond (T,) holds the
        eigvalsh condition number of each screened item, nan for the
        items the trace bound cleared.  chol_inv (T, K, K) holds L^-1.
        Item t's values do not depend on the other items: every step is
        elementwise or runs one LAPACK or BLAS call per item.
    """
    T, K = b.shape
    chol_inv, factored = _factor_inverse(gram)
    with np.errstate(over="ignore"):
        # with G = L L^H: G^-1 = L^-H L^-1 and Tr(G^-1) = ||L^-1||_F^2
        mse = _squared_norms(chol_inv.reshape(T, K * K))
        bound = np.trace(gram, axis1=-2, axis2=-1).real * mse
    cause, cond = _screen(bound, factored, gram.__getitem__)
    refused = cause != CLEARED
    chol_inv[refused] = np.nan
    mse[refused] = np.nan
    alpha_hat = (chol_inv.conj().swapaxes(-1, -2) @ (chol_inv @ b[..., None]))[..., 0]
    alpha_hat[refused] = np.nan  # whatever a BLAS makes of a nan L^-1 times a zero b
    return alpha_hat, mse, cause, cond, chol_inv


def _scaled_gram(q: np.ndarray, d: np.ndarray) -> np.ndarray:
    """D^H Q D with D = Diag(d), for each item of a (T, K, K) and (T, K) stack."""
    return _hermitian(d.conj()[:, :, None] * q * d[:, None, :])


def _path_factor(q: np.ndarray, z: np.ndarray):
    """What every model on one group of paths shares: (diag(Q^-1), Q^-1 v, factored).

    q (T, K, K) is the group's steering Gram Q = S_g^H R^-1 S_g and z
    (T, K) the group's CN(0, I) normals.  With Q = L L^H (_factor_inverse), the
    noise's matched filter v = S^H R^-1 w ~ CN(0, Q) is drawn as v = L z,
    so Q^-1 v = L^-H z, and diag(Q^-1) holds the squared column norms of
    L^-1; both are nan where Q has no factor.  Each is elementwise or one
    BLAS call per item, so an item's values do not depend on the stack.
    """
    chol_inv, factored = _factor_inverse(q)
    with np.errstate(over="ignore", invalid="ignore"):
        err = (chol_inv.conj().swapaxes(-1, -2) @ z[..., None])[..., 0]
        w = (chol_inv.real**2 + chol_inv.imag**2).sum(axis=-2)
    return w, err, factored


def _blue_scaled(q: np.ndarray, factor, d: np.ndarray):
    """The BLUE of each model A = S Diag(d) on a group of paths, from its _path_factor.

    The model's Gram is G = D^H Q D and its matched filter D^H (Q D alpha
    + v), so alpha_hat - alpha = D^-1 Q^-1 v and Tr(G^-1) = sum_i
    (Q^-1)_ii / |d_i|^2: the BLUE is equivariant under the diagonal
    reparametrization (Kay, Fundamentals of Statistical Signal Processing:
    Estimation Theory, 1993, ch. 6), and one factor of Q serves every d.
    The trace bound Tr(G) Tr(G^-1) = (sum_i |d_i|^2 Q_ii) Tr(G^-1) screens
    each item (_screen), and only the items it does not clear get G formed
    (_scaled_gram), among them every item whose Q has no factor.  Such an
    item is refused as NOT_POSITIVE_DEFINITE where eigvalsh does not find
    G ill-conditioned, as blue_gram refuses a G without a factor: whether
    Cholesky completes depends on a matrix through its diagonally scaled
    form, which D leaves as it is up to phases.

    Returns (err, trace, cause, cond): the estimation errors alpha_hat -
    alpha (T, K) and Tr(G^-1) (T,), nan where the item is refused, and
    _screen's cause codes and condition numbers, as blue_gram gives them
    for G.  Every step is elementwise or one call per item.
    """
    w, err, factored = factor
    power = d.real**2 + d.imag**2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        err = err / d
        trace = (w / power).sum(axis=-1)
        bound = (power * q.diagonal(axis1=-2, axis2=-1).real).sum(axis=-1) * trace
    cause, cond = _screen(bound, factored, lambda rows: _scaled_gram(q[rows], d[rows]))
    refused = cause != CLEARED
    err[refused] = np.nan
    trace[refused] = np.nan
    return err, trace, cause, cond


def _blue_one(gram: np.ndarray, b: np.ndarray):
    """blue_gram on one Gram and matched filter: (alpha_hat, mse, L^-1), raising its refusal."""
    alpha_hat, mse, cause, cond, chol_inv = blue_gram(gram[None], b[None])
    if cause[0] != CLEARED:
        raise _refusal(cause[0], cond[0])
    return alpha_hat[0], float(mse[0]), chol_inv


@dataclass(frozen=True)
class EstimationReport:
    """BLUE output with its exact covariance and scalar error summaries."""

    alpha_hat: np.ndarray  # complex, length K
    covariance: np.ndarray  # K x K Hermitian
    mse: float  # trace of covariance


def blue_estimate(A, noise: NoiseModel, y) -> EstimationReport:
    """Estimate alpha from one observation.

    Parameters
    ----------
    A : SensingMatrix or (N, K) array
        Model matrix; plain arrays are accepted so the estimator is
        usable outside the radar pipeline.
    noise : NoiseModel
    y : (N,) array
        Observed slow-time vector.

    Raises
    ------
    ValueError
        If A or y has the wrong shape or a non-finite entry.
    SingularModelError
        If cond(A^H R^-1 A) exceeds CONDITION_LIMIT; no silent
        regularization is applied.
    """
    ria, gram = _model_gram(A, noise)
    y = np.asarray(y, dtype=complex)
    if y.shape != (ria.shape[0],):
        raise ValueError("y length does not match A")
    if not np.isfinite(y).all():
        raise ValueError("y has non-finite entries")
    alpha_hat, mse, chol_inv = _blue_one(gram, ria.conj().T @ y)
    cov = _hermitian(chol_inv.conj().swapaxes(-1, -2) @ chol_inv)[0]
    return EstimationReport(alpha_hat=alpha_hat, covariance=cov, mse=mse)


def estimator_mse(A, noise: NoiseModel) -> float:
    """Tr((A^H R^-1 A)^-1), the observation-independent error floor."""
    gram = _model_gram(A, noise)[1]
    return _blue_one(gram, np.zeros(len(gram), dtype=complex))[1]


def _squared_norms(z: np.ndarray) -> np.ndarray:
    """||row||^2 of each row of a complex stack: two BLAS dots per row."""
    re, im = z.real, z.imag
    return np.vecdot(re, re) + np.vecdot(im, im)


def _row_norms(z: np.ndarray) -> np.ndarray:
    # np.linalg.norm of each row: the same two BLAS dots on its real and
    # imaginary parts, then the square root
    return np.sqrt(_squared_norms(z))


def _error_nmse(truth: np.ndarray, err: np.ndarray) -> np.ndarray:
    """norm(err[t]) / norm(truth[t]) of each row, the NMSE of an estimate that errs by err."""
    denom = _row_norms(truth)
    if np.any(denom == 0):
        raise UndefinedMetricError("NMSE undefined for a zero true vector")
    return _row_norms(err) / denom
