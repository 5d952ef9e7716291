"""Best linear unbiased estimation of the path reflectivities.

For y = A alpha + n with zero-mean noise of covariance R, the BLUE is
alpha_hat = (A^H R^-1 A)^-1 A^H R^-1 y with covariance (A^H R^-1 A)^-1,
independent of the distribution of n beyond its second moment.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, get_lapack_funcs

from .errors import SingularModelError, UndefinedMetricError

# Gram matrices beyond this are treated as numerically singular.
CONDITION_LIMIT = 1e12

# the routines scipy's cho_factor/cho_solve run on complex input, called
# without their per-call validation
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), dtype=np.complex128)


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
            object.__setattr__(self, "_chol", None)
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
            chol = cho_factor(R, lower=True)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance is not positive definite") from exc
        object.__setattr__(self, "_chol", chol)

    @classmethod
    def scaled_identity(cls, sigma2: float, n: int) -> "NoiseModel":
        return cls(is_scaled_identity=True, sigma2=float(sigma2), n=int(n))

    @classmethod
    def identity(cls, n: int) -> "NoiseModel":
        return cls.scaled_identity(1.0, n)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """R^-1 b without forming R^-1; b may be a (..., N, K) stack."""
        if self.is_scaled_identity:
            return b / self.sigma2
        if b.ndim <= 2:
            return cho_solve(self._chol, b)
        *lead, n, k = b.shape
        # Fortran-ordered items, as cho_solve returns them, so products
        # with an item take the same BLAS path as with cho_solve's result
        out = np.empty((*lead, k, n), dtype=np.result_type(b, complex)).swapaxes(-1, -2)
        for i in np.ndindex(*lead):
            out[i] = cho_solve(self._chol, b[i])
        return out


def _columns(A) -> np.ndarray:
    cols = A.columns if hasattr(A, "columns") else np.asarray(A, dtype=complex)
    if cols.ndim != 2:
        raise ValueError("A must be a matrix")
    return cols


def _gram_stack(cols: np.ndarray, noise: NoiseModel):
    """R^-1 A, the Hermitian part of A^H R^-1 A and its condition number.

    cols is one N x K model or a (..., N, K) stack.  Stacked matmul and
    eigvalsh run the same BLAS/LAPACK call on every item, so each item's
    values equal its unstacked ones bit for bit.  The condition number is
    the 2-norm one np.linalg.cond computes, max|lambda| / min|lambda| for
    a Hermitian matrix, taken from its eigenvalues rather than an SVD; it
    is inf where the smallest eigenvalue is zero.
    """
    ria = noise.solve(cols)
    gram = cols.conj().swapaxes(-1, -2) @ ria
    gram = 0.5 * (gram + gram.conj().swapaxes(-1, -2))
    lam = np.abs(np.linalg.eigvalsh(gram))
    top, bottom = lam.max(axis=-1), lam.min(axis=-1)
    cond = np.divide(top, bottom, out=np.full_like(top, np.inf), where=bottom > 0)
    return ria, gram, cond


def _factor(gram: np.ndarray, cond):
    """Cholesky factor of one Gram matrix, or the SingularModelError it earns."""
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        return None, SingularModelError(
            f"Gram matrix condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}"
        )
    factor, info = _POTRF(gram, lower=1, clean=0)
    if info > 0:
        return None, SingularModelError("Gram matrix is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of potrf")
    return factor, None


def _solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    x, info = _POTRS(factor, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


def _whitened_gram(A, noise: NoiseModel):
    """Return (A, R^-1 A, A^H R^-1 A, its Cholesky factor), checking conditioning."""
    cols = _columns(A)
    if cols.shape[0] != noise.n:
        raise ValueError(f"A has {cols.shape[0]} rows but noise is {noise.n}-dimensional")
    ria, gram, cond = _gram_stack(cols, noise)
    factor, err = _factor(gram, cond)
    if err is not None:
        raise err
    return cols, ria, gram, factor


def blue_stack(cols: np.ndarray, noise: NoiseModel, y: np.ndarray):
    """The BLUE of every model in a stack, one Gram factorization each.

    Parameters
    ----------
    cols : (T, N, K) complex array
        T model matrices.
    noise : NoiseModel
        Shared by every model.
    y : (T, N) complex array
        One observation per model.

    Returns
    -------
    (alpha_hat, cov, mse, errors)
        Estimates (T, K), covariances (T, K, K) and their traces (T,);
        errors[t] is None, or the SingularModelError item t raises, in
        which case its estimate, covariance and trace are nan.  Item t's
        values do not depend on the other items.
    """
    ria, gram, cond = _gram_stack(cols, noise)
    T, _, K = cols.shape
    # [A^H R^-1 y | I] per item: potrs solves each column on its own, so
    # one call gives the estimate and the covariance
    rhs = np.empty((T, K, K + 1), dtype=complex)
    rhs[..., :1] = ria.conj().swapaxes(-1, -2) @ y[..., None]
    rhs[..., 1:] = np.eye(K)
    sol = np.full((T, K, K + 1), np.nan, dtype=complex)
    errors = []
    for t in range(T):
        factor, err = _factor(gram[t], cond[t])
        errors.append(err)
        if err is None:
            sol[t] = _solve(factor, rhs[t])
    alpha_hat, cov = sol[..., 0], sol[..., 1:]
    cov = 0.5 * (cov + cov.conj().swapaxes(-1, -2))
    return alpha_hat, cov, np.trace(cov, axis1=-2, axis2=-1).real, errors


@dataclass(frozen=True)
class EstimationReport:
    """BLUE output with its exact covariance and scalar error summaries."""

    alpha_hat: np.ndarray  # complex, length K
    covariance: np.ndarray  # K x K Hermitian
    mse: float  # trace of covariance
    nmse: float  # against the true alpha when supplied, else nan


def _single(A, noise: NoiseModel, y):
    """blue_stack on one model: (alpha_hat, cov, mse), raising if singular."""
    cols = _columns(A)
    if cols.shape[0] != noise.n:
        raise ValueError(f"A has {cols.shape[0]} rows but noise is {noise.n}-dimensional")
    if y.shape != (cols.shape[0],):
        raise ValueError("y length does not match A")
    alpha_hat, cov, mse, errors = blue_stack(cols[None], noise, y[None])
    if errors[0] is not None:
        raise errors[0]
    return alpha_hat[0], cov[0], float(mse[0])


def blue_estimate(A, noise: NoiseModel, y, alpha_true=None) -> EstimationReport:
    """Estimate alpha from one observation.

    Parameters
    ----------
    A : SensingMatrix or (N, K) array
        Model matrix; plain arrays are accepted so the estimator is
        usable outside the radar pipeline.
    noise : NoiseModel
    y : (N,) array
        Observed slow-time vector.
    alpha_true : optional
        When given, the report's nmse field is filled in.

    Raises
    ------
    SingularModelError
        If cond(A^H R^-1 A) exceeds CONDITION_LIMIT; no silent
        regularization is applied.
    """
    alpha_hat, cov, mse = _single(A, noise, np.asarray(y, dtype=complex))
    err = float("nan") if alpha_true is None else nmse(alpha_true, alpha_hat)
    return EstimationReport(alpha_hat=alpha_hat, covariance=cov, mse=mse, nmse=err)


def estimator_mse(A, noise: NoiseModel) -> float:
    """Tr((A^H R^-1 A)^-1), the observation-independent error floor."""
    n = _columns(A).shape[0]
    return _single(A, noise, np.zeros(n, dtype=complex))[2]


def _row_norms(z: np.ndarray) -> np.ndarray:
    # np.linalg.norm of each row: the same two BLAS dots on its real and
    # imaginary parts, then the square root
    re, im = z.real, z.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def nmse_rows(truth: np.ndarray, est: np.ndarray) -> np.ndarray:
    """nmse of each row of a (T, K) estimate stack against its truth row.

    Each row's value is the bits np.linalg.norm gives on that row alone.
    """
    denom = _row_norms(truth)
    if np.any(denom == 0):
        raise UndefinedMetricError("NMSE undefined for a zero true vector")
    return _row_norms(truth - est) / denom


def nmse(alpha_true, alpha_hat) -> float:
    """norm(alpha - alpha_hat) / norm(alpha); the norms are not squared."""
    t = np.atleast_1d(np.asarray(alpha_true, dtype=complex))
    h = np.atleast_1d(np.asarray(alpha_hat, dtype=complex))
    if t.shape != h.shape:
        raise ValueError("shape mismatch between truth and estimate")
    return float(nmse_rows(t[None], h[None])[0])
