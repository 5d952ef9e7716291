"""Best linear unbiased estimation of the path reflectivities.

For y = A alpha + n with zero-mean noise of covariance R, the BLUE is
alpha_hat = (A^H R^-1 A)^-1 A^H R^-1 y with covariance (A^H R^-1 A)^-1,
independent of the distribution of n beyond its second moment.

Everything runs on numpy's LAPACK and BLAS.  The estimate needs the model
only through its Gram G = A^H R^-1 A and matched filter b = A^H R^-1 y,
and blue_gram, the one BLUE kernel, works on those K-space quantities
alone: it factors every Gram with one stacked Cholesky, G = L L^H,
inverts the factors together, and reads the estimate L^-H (L^-1 b) and
the covariance trace Tr(G^-1) = ||L^-1||_F^2 off them without forming any
covariance.  It also holds the only condition screen: cond(G) <= Tr(G)
Tr(G^-1), so a Gram whose product lies well inside CONDITION_LIMIT is
cleared without an eigenvalue call, and only the others, among them any
Gram without a Cholesky factor, get their condition number from
eigvalsh.  A refused Gram comes back as a cause code and its condition
number, not as an exception: _refusal builds the SingularModelError only
where one model's refusal is raised.  The sweep engine builds G and b
itself from a steering Gram it shares between link modes.  The
library's one N-space entry is _model_gram, which checks a single N x K
model against the noise and forms R^-1 A and G, with a full R applied as
its stored inverse L^-H L^-1; blue_estimate, estimator_mse and
bounds.fisher_information each pass its Gram to blue_gram as a stack of
one, and blue_estimate also returns the covariance L^-H L^-1.  Each
stacked call runs one LAPACK or BLAS call per item, so an item's values
do not depend on the stack it is in.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularModelError, UndefinedMetricError

# Gram matrices beyond this are treated as numerically singular.
CONDITION_LIMIT = 1e12

TRACE_BOUND_MARGIN = 0.5
"""A Gram is cleared without eigvalsh when Tr(G) Tr(G^-1) <= CONDITION_LIMIT * this.

For Hermitian positive definite G, lambda_max <= Tr(G) and 1 / lambda_min
<= Tr(G^-1), so cond(G) <= Tr(G) Tr(G^-1).  blue_gram reads Tr(G^-1) off
the computed factor, which is exact for G + dG with |dG| <= gamma_{K+1}
|L| |L^H| (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
ed., 2002, Thm 10.3), so ||dG||_2 <= ||dG||_F <= gamma_{K+1} ||L||_F^2 =
gamma_{K+1} Tr(G + dG), gamma_{K+1} = (K + 1) u / (1 - (K + 1) u).  Then
lambda_min(G) >= 1 / Tr((G + dG)^-1) - ||dG||_2, and a cleared Gram has
cond(G) <= 5e11 / (1 - 5e11 gamma_{K+1} (1 + gamma_{K+1})); the rounding
of the inverse, the trace and the product adds a relative error of order
K u sqrt(cond(G)), about 1e-8 here.  For K <= 100 that is below about
5.03e11, so eigvalsh, whose eigenvalues are within a small multiple of
u ||G||_2 of the exact ones, could not have read the Gram above 1e12:
clearing it excludes nothing the eigenvalue screen would have.
"""


@dataclass(frozen=True)
class NoiseModel:
    """Noise second-order description; scaled identity gets a fast path."""

    covariance: np.ndarray = None  # N x N Hermitian positive definite
    is_scaled_identity: bool = False
    sigma2: float = None  # valid when is_scaled_identity
    n: int = None

    def __post_init__(self):
        if self.is_scaled_identity:
            if self.sigma2 is None or self.sigma2 <= 0 or self.n is None:
                raise ValueError("scaled identity needs sigma2 > 0 and n")
            object.__setattr__(self, "_whiten", None)
            object.__setattr__(self, "_inv", None)
            return
        R = np.asarray(self.covariance, dtype=complex)
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise ValueError("covariance must be square")
        if np.max(np.abs(R - R.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(R))):
            raise ValueError("covariance must be Hermitian")
        object.__setattr__(self, "covariance", R)
        object.__setattr__(self, "n", R.shape[0])
        try:
            # positive definiteness is certified by the factorization
            chol = np.linalg.cholesky(R)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance is not positive definite") from exc
        chol_inv = np.linalg.inv(chol)
        object.__setattr__(self, "_whiten", chol_inv)  # L^-1 with R = L L^H: L^-1 S is white
        object.__setattr__(self, "_inv", chol_inv.conj().T @ chol_inv)

    @classmethod
    def scaled_identity(cls, sigma2: float, n: int) -> "NoiseModel":
        return cls(is_scaled_identity=True, sigma2=float(sigma2), n=int(n))

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


# why blue_gram refuses an item: its cause code
CLEARED, ILL_CONDITIONED, NOT_POSITIVE_DEFINITE = 0, 1, 2


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

    Every Gram is factored, G = L L^H (_cholesky_factors), and its factor
    inverted in one stacked call each; Tr(G^-1) = ||L^-1||_F^2 then clears
    each item whose Tr(G) Tr(G^-1) is within CONDITION_LIMIT *
    TRACE_BOUND_MARGIN.  The other items, among them every item without a
    factor, whose nan factor fails that bound, are screened by their
    eigvalsh condition number, and an item that passes that screen but has
    no factor is refused as not positive definite.  So every refusal is
    the one the eigenvalue screen alone would give.

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
        Item t's values do not depend on the other items: every step runs
        one LAPACK or BLAS call per item.
    """
    T, K = b.shape
    factors, factored = _cholesky_factors(gram)
    cause = np.where(factored, CLEARED, NOT_POSITIVE_DEFINITE).astype(np.int8)
    cond = np.full(T, np.nan)
    # a near-singular item's ||L^-1||_F^2 may overflow to inf, which the
    # bound below then leaves to the eigenvalue screen
    with np.errstate(over="ignore"):
        # with G = L L^H: G^-1 = L^-H L^-1 and Tr(G^-1) = ||L^-1||_F^2
        chol_inv = np.linalg.inv(factors)
        mse = _squared_norms(chol_inv.reshape(T, K * K))
        bound = np.trace(gram, axis1=-2, axis2=-1).real * mse
    screen = np.flatnonzero(~(bound <= CONDITION_LIMIT * TRACE_BOUND_MARGIN))  # nan too
    if screen.size:
        cond[screen] = _condition_numbers(gram[screen])
        failed = screen[~(cond[screen] <= CONDITION_LIMIT)]  # nan and inf fail too
        cause[failed] = ILL_CONDITIONED
    refused = cause != CLEARED
    chol_inv[refused] = np.nan
    mse[refused] = np.nan
    alpha_hat = (chol_inv.conj().swapaxes(-1, -2) @ (chol_inv @ b[..., None]))[..., 0]
    alpha_hat[refused] = np.nan  # whatever a BLAS makes of a nan L^-1 times a zero b
    return alpha_hat, mse, cause, cond, chol_inv


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


def nmse_rows(truth: np.ndarray, est: np.ndarray) -> np.ndarray:
    """NMSE of each row of a (T, K) estimate stack against its truth row.

    Row t's value is norm(truth[t] - est[t]) / norm(truth[t]), the norms
    not squared, in the bits np.linalg.norm gives on that row alone.
    """
    denom = _row_norms(truth)
    if np.any(denom == 0):
        raise UndefinedMetricError("NMSE undefined for a zero true vector")
    return _row_norms(truth - est) / denom
