"""Fisher information and the estimation lower bound.

The unknown is treated as the real composite vector [Re alpha; Im
alpha].  Because the noise covariance does not depend on alpha, the
covariance-derivative term of the information formula vanishes
identically and only the mean-derivative term is assembled; it reduces
to four blocks built from G = A^H R^-1 A, the real form of 2G.  The real
form carries products and inverses of complex matrices over to their
real forms, so J^-1 is the real form of G^-1 / 2, read off the factor G =
L L^H that the BLUE's condition screen forms: G^-1 = L^-H L^-1.  G is
Hermitian to the last bit, so J and J^-1 are exactly symmetric.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import NoiseModel, _blue_one, _hermitian, _model_gram


@dataclass(frozen=True)
class CrbReport:
    """Information matrix, its inverse, and the trace scalarization."""

    fim: np.ndarray  # 2K x 2K real symmetric
    crb: np.ndarray  # 2K x 2K real symmetric
    trace: float  # Tr(crb), the A-optimality score


def _real_form(m: np.ndarray) -> np.ndarray:
    """[[Re m, -Im m], [Im m, Re m]], the real 2K x 2K form of a complex K x K matrix."""
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


def _screened_gram(A, noise: NoiseModel):
    """G = A^H R^-1 A and L^-1 of G = L L^H, once the BLUE's condition screen clears G."""
    gram = _model_gram(A, noise)[1]
    return gram, _blue_one(gram, np.zeros(len(gram), dtype=complex))[2][0]


def fisher_information(A, noise: NoiseModel) -> np.ndarray:
    """Assemble the 2K x 2K information matrix for [Re alpha; Im alpha].

    Blocks: top-left = bottom-right = 2 Re G, top-right = -2 Im G,
    bottom-left = 2 Im G, with G = A^H R^-1 A.
    """
    return _real_form(2.0 * _screened_gram(A, noise)[0])


def crb(A, noise: NoiseModel) -> CrbReport:
    """Invert the information matrix, off the BLUE's factor, and scalarize by its trace."""
    gram, chol_inv = _screened_gram(A, noise)
    C = _real_form(0.5 * _hermitian(chol_inv.conj().T @ chol_inv))
    return CrbReport(fim=_real_form(2.0 * gram), crb=C, trace=float(np.trace(C)))
