"""Fisher information and the estimation lower bound.

The unknown is treated as the real composite vector [Re alpha; Im
alpha].  Because the noise covariance does not depend on alpha, the
covariance-derivative term of the information formula vanishes
identically and only the mean-derivative term is assembled; it reduces
to four blocks built from G = A^H R^-1 A.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnboundedCrbError
from .estimator import NoiseModel, _blue_one, _model_gram


@dataclass(frozen=True)
class CrbReport:
    """Information matrix, its inverse, and the trace scalarization."""

    fim: np.ndarray  # 2K x 2K real symmetric
    crb: np.ndarray  # 2K x 2K real symmetric
    trace: float  # Tr(crb), the A-optimality score


def fisher_information(A, noise: NoiseModel) -> np.ndarray:
    """Assemble the 2K x 2K information matrix for [Re alpha; Im alpha].

    Blocks: top-left = bottom-right = 2 Re G, top-right = -2 Im G,
    bottom-left = 2 Im G, with G = A^H R^-1 A.
    """
    gram = _model_gram(A, noise)[1]
    _blue_one(gram, np.zeros(len(gram), dtype=complex))  # the BLUE's condition screen
    re = 2.0 * gram.real
    im = 2.0 * gram.imag
    top = np.hstack((re, -im))
    bottom = np.hstack((im, re))
    J = np.vstack((top, bottom))
    return 0.5 * (J + J.T)


def crb(A, noise: NoiseModel) -> CrbReport:
    """Invert the information matrix and scalarize by its trace."""
    J = fisher_information(A, noise)
    try:
        chol_inv = np.linalg.inv(np.linalg.cholesky(J))
    except np.linalg.LinAlgError as exc:
        raise UnboundedCrbError("information matrix is singular") from exc
    C = chol_inv.T @ chol_inv  # J = L L^T, so J^-1 = L^-T L^-1
    C = 0.5 * (C + C.T)
    return CrbReport(fim=J, crb=C, trace=float(np.trace(C)))
