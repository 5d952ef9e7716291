"""Complex Gaussian and CSI draws from a numpy Generator, for the tests.

The engine draws from Philox counters (harness); these helpers give tests
their own reproducible complex data, the CSI layout the replayed panels
of test_golden were drawn in, and the noise matched filter the engine
draws on each group of paths.
"""
import numpy as np

from irsradar.channel import _complex_gaussian, split_crandn


def crandn(rng, *shape):
    """Circularly symmetric complex Gaussian, zero mean, unit variance."""
    return _complex_gaussian(rng.standard_normal(shape), rng.standard_normal(shape))


def csi_draw_size(M: int, K: int) -> int:
    """Standard normals one CSI draw consumes."""
    return 2 * (2 + 2 * K * M + K)


def split_csi(z, M: int, K: int):
    """Stacked CSI from rows of csi_draw_size standard normals.

    Returns (h_los, g, h, alpha, alpha_los) with shapes (T, 1),
    (T, K, M), (T, K, M), (T, K) and (T, 1), in the order a row's draws
    are consumed: h_los, the K x M block of g, the K x M block of h,
    alpha, alpha_los.  All entries are circularly symmetric complex
    Gaussians with unit variance.
    """
    h_los, g, h, alpha, alpha_los = split_crandn(z, 1, K * M, K * M, K, 1)
    return h_los, g.reshape(-1, K, M), h.reshape(-1, K, M), alpha, alpha_los


def noise_matched_filter(q, z):
    """v = L z on one group of paths for each trial, with Q_g = L L^H.

    q (T, K, K) is the group's steering Gram Q_g and z (T, K) its normals;
    each trial's Q_g is factored alone, and a trial whose Q_g has no
    Cholesky factor gets nan.
    """
    v = np.full(z.shape, np.nan, complex)
    for t in range(len(q)):
        try:
            v[t] = np.linalg.cholesky(q[t]) @ z[t]
        except np.linalg.LinAlgError:
            pass
    return v
