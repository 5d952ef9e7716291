"""Slow-time signal primitives: waveform, Doppler steering, sensing matrix.

One sample per pulse at a fixed range bin.  The pulse interval is
normalized to 1, so a Doppler shift nu (radians per pulse) advances the
echo phase by n*nu at pulse n.
"""
from __future__ import annotations

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
class DopplerSteering:
    """Phase ramp across pulses for one Doppler shift: vector[n] = e^{j n nu}."""

    nu: float  # radians per pulse
    vector: np.ndarray  # complex, length N

    def __len__(self) -> int:
        return self.vector.size


@dataclass(frozen=True)
class SensingMatrix:
    """N x K matrix whose column k is nlos_csi[k] * (x ⊙ p(nu_k))."""

    columns: np.ndarray  # complex, N x K
    per_path_doppler: np.ndarray  # real, length K, radians per pulse
    nlos_csi: np.ndarray  # complex, length K

    @property
    def n(self) -> int:
        return self.columns.shape[0]

    @property
    def k(self) -> int:
        return self.columns.shape[1]

    def gram(self) -> np.ndarray:
        """A^H A, Hermitian K x K."""
        return self.columns.conj().T @ self.columns


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
    return Waveform(samples=random_code(N, [np.random.default_rng(seed)])[0])


def random_code(N: int, rngs) -> np.ndarray:
    """Length-N unimodular codes with i.i.d. uniform phases, one row per generator."""
    phases = np.array([rng.uniform(0.0, 2.0 * np.pi, N) for rng in rngs]).reshape(-1, N)
    return np.exp(1j * phases)


def doppler_steering(nu: float, N: int) -> DopplerSteering:
    """Steering vector [1, e^{j nu}, ..., e^{j (N-1) nu}]."""
    if N < 1:
        raise ValueError("N must be at least 1")
    if not np.isfinite(nu):
        raise ValueError("nu must be finite")
    vec = np.exp(1j * float(nu) * np.arange(N))
    return DopplerSteering(nu=float(nu), vector=vec)


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
    K, N = nus.size, len(x)
    if K < 1:
        raise ValueError("need at least one path")
    if K > N:
        raise UnderdeterminedModelError(
            f"K={K} paths exceed N={N} pulses; the Gram matrix would be singular"
        )
    cols = sensing_columns(x.samples, nus, csi)
    return SensingMatrix(columns=cols, per_path_doppler=nus, nlos_csi=csi)


def sensing_columns(x, dopplers, nlos_csi) -> np.ndarray:
    """Columns a_k = nlos_csi[k] * (x ⊙ p(nu_k)) for a stack of models.

    x is (..., N) complex, dopplers (..., K) radians per pulse and
    nlos_csi (..., K) complex; the result is (..., N, K).  Every entry is
    computed by the same elementwise operations whatever the stack
    shape, so a stacked model's columns equal the unstacked ones bit for
    bit.

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
    n = np.arange(x.shape[-1])[:, None]
    P = np.exp(1j * (n * dopplers[..., None, :]))
    return x[..., :, None] * P * nlos_csi[..., None, :]
