"""Slow-time signal primitives: waveform, Doppler steering, sensing matrix.

One sample per pulse at a fixed range bin.  The pulse interval is
normalized to 1, so a Doppler shift nu (radians per pulse) advances the
echo phase by n*nu at pulse n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePathError, UnderdeterminedModelError

UNIT_MODULUS_TOL = 1e-12


@dataclass(frozen=True)
class Waveform:
    """Unimodular slow-time code x, one phase-only sample per pulse."""

    samples: np.ndarray  # complex, length N, |x_n| = 1

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 1 or s.size < 1:
            raise ValueError("waveform must be a nonempty 1-D vector")
        if np.max(np.abs(np.abs(s) - 1.0)) > UNIT_MODULUS_TOL:
            raise ValueError("waveform entries must have unit modulus")
        object.__setattr__(self, "samples", s)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class SensingMatrix:
    """N x K matrix whose column k is nlos_csi[k] * (x ⊙ p(nu_k))."""

    columns: np.ndarray  # complex, N x K


def make_random_waveform(N: int, seed) -> Waveform:
    """Draw a length-N unimodular code with i.i.d. uniform phases.

    Parameters
    ----------
    N : int
        Number of pulses, at least 1.
    seed : int or numpy seed-like
        Anything numpy's default_rng accepts; fixed seed gives a
        bit-identical code.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, N)
    return Waveform(samples=random_code(phases))


def random_code(phases) -> np.ndarray:
    """Unimodular codes exp(j phases), elementwise; i.i.d. uniform phases make a random code."""
    return np.exp(1j * np.asarray(phases, dtype=float))


def build_sensing_matrix(x: Waveform, dopplers, nlos_csi) -> SensingMatrix:
    """Assemble A columnwise: a_k = nlos_csi[k] * (x ⊙ p(nu_k)).

    Parameters
    ----------
    x : Waveform
        Unimodular code of length N.
    dopplers : array_like
        K per-path Doppler shifts, radians per pulse.
    nlos_csi : array_like
        K complex path coefficients; none may be exactly zero.

    Returns
    -------
    SensingMatrix
        Equals Diag(x) P(nu) Diag(nlos_csi) where P stacks the steering
        vectors; both constructions are exercised in the tests.
    """
    nus = np.atleast_1d(np.asarray(dopplers, dtype=float))
    csi = np.atleast_1d(np.asarray(nlos_csi, dtype=complex))
    if nus.shape != csi.shape or nus.ndim != 1:
        raise ValueError("dopplers and nlos_csi must be 1-D of equal length")
    if not np.all(np.isfinite(nus)):
        raise ValueError("dopplers must be finite")
    K, N = nus.size, len(x)
    if K < 1:
        raise ValueError("need at least one path")
    if K > N:
        raise UnderdeterminedModelError(
            f"K={K} paths exceed N={N} pulses; the Gram matrix would be singular"
        )
    cols = sensing_columns(steering_columns(x.samples, nus), csi)
    return SensingMatrix(columns=cols)


def steering_columns(x, dopplers) -> np.ndarray:
    """x ⊙ p(nu_k) for each path k, for a stack of codes.

    x is (..., N) complex and dopplers (..., K) radians per pulse, x's
    stack broadcasting to dopplers'; the result is (..., N, K), the phase
    table multiplied by x in place.  The phases come from B = ceil(sqrt(N))
    fine and coarse steps, exp(j (aB + b) nu) = exp(j aB nu) * exp(j b nu),
    which takes about 2 sqrt(N) complex exponentials per column instead of
    N.  Its error is of the order of the direct formula's own rounding of
    n * nu, a few N * eps, and it gives exactly 1 at n = 0 and at nu = 0.
    Every entry is computed by the same elementwise operations whatever
    the stack shape, so a stacked model's columns equal the unstacked ones
    bit for bit.
    """
    n = x.shape[-1]
    step = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    coarse = np.exp(1j * ((step * np.arange(-(-n // step)))[:, None] * dopplers[..., None, :]))
    fine = np.exp(1j * (np.arange(step)[:, None] * dopplers[..., None, :]))
    table = coarse[..., :, None, :] * fine[..., None, :, :]
    shape = table.shape[:-3] + (-1, table.shape[-1])
    steer = table.reshape(shape)[..., :n, :]
    return np.multiply(x[..., :, None], steer, out=steer)


def check_coefficients(nlos_csi) -> None:
    """The rules every path coefficient of a model obeys.

    Raises
    ------
    ValueError
        If any path coefficient is not finite.
    DegeneratePathError
        If any path coefficient is exactly zero.
    """
    if not np.all(np.isfinite(nlos_csi)):
        raise ValueError("nlos_csi entries must be finite")
    if np.any(nlos_csi == 0):
        raise DegeneratePathError("zero path coefficient: column carries no signal")


def sensing_columns(steering, nlos_csi) -> np.ndarray:
    """Columns a_k = nlos_csi[k] * (x ⊙ p(nu_k)) from steering_columns' output.

    steering is (..., N, K) and nlos_csi (..., K) complex; each column is
    scaled elementwise, so stacked and unstacked models agree bit for bit.
    The coefficients must pass check_coefficients.
    """
    check_coefficients(nlos_csi)
    return steering * nlos_csi[..., None, :]
