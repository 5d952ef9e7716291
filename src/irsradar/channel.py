"""CSI generation, IRS phase application, and scene normalization.

Each of the K reflecting panels has M elements.  The panel's phase
vector theta (and fixed per-element gains beta, all 1 by default) form
the diagonal reflection matrix Theta = Diag(beta * e^{j theta}).  The
effective path coefficient seen by the radar is a function of the
triple (g, h, Theta); two forms are supported, see nlos_coefficient.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateDrawError

NLOS_FORMS = ("magnitude_squared", "complex")

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def wrap_phase(theta) -> np.ndarray:
    """Phases reduced to [0, 2pi), the form a panel stores.

    Not idempotent at the edge: a tiny negative input wraps to exactly
    2pi, which a second wrap sends to 0.  Callers that mirror a panel's
    phases therefore wrap exactly as often as the panel path does.
    """
    return np.mod(theta, 2.0 * np.pi)


def _complex_gaussian(re, im):
    z = re + 1j * im
    return z[()] * _INV_SQRT2


def crandn(rng, *shape):
    """Circularly symmetric complex Gaussian, zero mean, unit variance."""
    return _complex_gaussian(rng.standard_normal(shape), rng.standard_normal(shape))


def split_crandn(z, *sizes):
    """Complex Gaussians from rows of standard normal draws, one part per size.

    z is (T, 2 * sum(sizes)); row t holds one generator's draws in the
    order successive crandn calls of these sizes consume them: each
    part's real draws, then its imaginary ones.  Returns one (T, size)
    array per part, equal bit for bit to those crandn calls, since one
    standard_normal call yields the same values as a run of shorter ones.
    """
    parts, at = [], 0
    for size in sizes:
        parts.append(_complex_gaussian(z[:, at:at + size], z[:, at + size:at + 2 * size]))
        at += 2 * size
    return parts


@dataclass(frozen=True)
class IrsPanel:
    """One reflecting panel: incident CSI g, departing CSI h, element phases."""

    g: np.ndarray  # complex, length M, radar -> panel
    h: np.ndarray  # complex, length M, panel -> target
    theta: np.ndarray = None  # real, length M, radians in [0, 2pi)
    beta: np.ndarray = None  # real, length M, gains in [0, 1], default all 1

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.g, dtype=complex))
        h = np.atleast_1d(np.asarray(self.h, dtype=complex))
        theta = (
            np.zeros(g.size) if self.theta is None
            else np.atleast_1d(np.asarray(self.theta, dtype=float))
        )
        beta = (
            np.ones(g.size) if self.beta is None
            else np.atleast_1d(np.asarray(self.beta, dtype=float))
        )
        if not (g.size == h.size == theta.size == beta.size >= 1):
            raise ValueError("g, h, theta, beta must share a common length M >= 1")
        fields = {"g": g, "h": h, "theta": theta, "beta": beta}
        # one check over all four; certification builds thousands of panels
        if not np.isfinite(np.concatenate(list(fields.values()))).all():
            bad = next(name for name, val in fields.items() if not np.isfinite(val).all())
            raise ValueError(f"panel {bad} entries must be finite")
        if np.any(beta < 0) or np.any(beta > 1):
            raise ValueError("beta entries must lie in [0, 1]")
        fields["theta"] = wrap_phase(theta)
        for name, val in fields.items():
            object.__setattr__(self, name, val)

    @property
    def m(self) -> int:
        return self.g.size

    def phase_matrix(self) -> np.ndarray:
        """Theta = Diag(beta * e^{j theta})."""
        return np.diag(self.beta * np.exp(1j * self.theta))

    def c_vector(self) -> np.ndarray:
        """c = Diag(g)^H h, the per-element combining coefficients."""
        return np.conj(self.g) * self.h

    def with_theta(self, theta) -> "IrsPanel":
        return replace(self, theta=np.asarray(theta, dtype=float))


@dataclass(frozen=True)
class ChannelRealization:
    """One normalized scene: direct path, panels, reflectivities, composed CSI."""

    h_los: complex  # direct-path gain after scaling
    panels: tuple  # K IrsPanel with phases already applied
    alpha: np.ndarray  # complex, length K, per-path reflectivities
    alpha_los: complex  # direct-path reflectivity
    nlos_csi: np.ndarray  # complex, length K, composed and scaled
    gamma: float  # requested direct-to-reflected power ratio

    @property
    def k(self) -> int:
        return len(self.panels)


def draw_csi(M: int, K: int, seed):
    """Draw raw (unnormalized) CSI and reflectivities.

    All entries are i.i.d. circularly symmetric complex Gaussian with
    unit variance.  Draw order is fixed: h_los, the K x M block of g,
    the K x M block of h, alpha, alpha_los.

    Returns
    -------
    (h_los, panels, alpha, alpha_los)
        panels is a tuple of K IrsPanel with theta = 0, beta = 1.
    """
    if M < 1 or K < 1:
        raise ValueError("M and K must be at least 1")
    z = np.random.default_rng(seed).standard_normal((1, csi_draw_size(M, K)))
    h_los, g, h, alpha, alpha_los = split_csi(z, M, K)
    panels = tuple(IrsPanel(g=g[0, k], h=h[0, k]) for k in range(K))
    return complex(h_los[0, 0]), panels, alpha[0], complex(alpha_los[0, 0])


def csi_draw_size(M: int, K: int) -> int:
    """Standard normals one CSI draw consumes."""
    return 2 * (2 + 2 * K * M + K)


def split_csi(z, M: int, K: int):
    """Stacked CSI from rows of csi_draw_size standard normals.

    Returns (h_los, g, h, alpha, alpha_los) with shapes (T, 1),
    (T, K, M), (T, K, M), (T, K) and (T, 1), in draw_csi's order.
    """
    h_los, g, h, alpha, alpha_los = split_crandn(z, 1, K * M, K * M, K, 1)
    return h_los, g.reshape(-1, K, M), h.reshape(-1, K, M), alpha, alpha_los


def compose_paths(g, h, theta, beta, form: str = "magnitude_squared") -> np.ndarray:
    """Per-path coefficients of panels given as (..., K, M) arrays, one per row.

    Row k is h_k^H Theta_k g_k = c_k^H (beta_k * e^{j theta_k}) with
    c_k = Diag(g_k)^H h_k, taken as is ("complex") or as its squared
    magnitude ("magnitude_squared").  The inputs broadcast against each
    other and the result has their shape without the last axis.  theta
    must already be wrapped as a panel stores it (see wrap_phase).  All
    rows go through one np.vecdot, which runs the same BLAS dot on each
    row as np.vdot on that row alone, so a row's value does not depend on
    the rows stacked with it.  The squared magnitude is Python's abs of
    each value, which rounds differently from np.abs on complex.
    """
    if form not in NLOS_FORMS:
        raise ValueError(f"unknown nlos form: {form!r}")
    z = np.vecdot(np.conj(g) * h, beta * np.exp(1j * theta))
    if form == "magnitude_squared":
        z = np.array([abs(v) ** 2 for v in z.ravel().tolist()], dtype=complex).reshape(z.shape)
    return z


def _compose_panel(panel: IrsPanel, form: str) -> complex:
    rows = (panel.g[None], panel.h[None], panel.theta[None], panel.beta[None])
    return complex(compose_paths(*rows, form=form)[0])


def inner_product_form(panel: IrsPanel) -> complex:
    """h^H Theta g evaluated through the combining vector c.

    Uses h^H Theta g = c^H (beta * e^{j theta}) with c = Diag(g)^H h; the
    tests check this against the direct matrix product.
    """
    return _compose_panel(panel, "complex")


def compose_nlos_coefficient(panel: IrsPanel) -> complex:
    """|h^H Theta g|^2 as a complex scalar with zero imaginary part."""
    return _compose_panel(panel, "magnitude_squared")


def nlos_coefficient(panel: IrsPanel, form: str = "magnitude_squared") -> complex:
    """Per-path coefficient under the selected composition form.

    "magnitude_squared" is the real nonnegative power form; "complex"
    keeps the phase of the cascaded channel.  Estimation quality under
    the two differs materially: squaring doubles the dynamic range of
    weak draws, so random-phase panels produce near-dead paths far more
    often.  The harness defaults to "complex" for that reason.
    """
    return _compose_panel(panel, form)


def normalize_scenario(h_los, panels, alpha, alpha_los, gamma,
                       nlos_form: str = "magnitude_squared") -> ChannelRealization:
    """Scale the scene so the two link powers hit their targets.

    The composed reflected CSI is scaled by a positive real factor so
    |alpha^T nlos_csi|^2 = 1, and the direct gain by a positive real
    factor so |alpha_los * h_los|^2 = gamma.  Phases are never touched.

    Raises
    ------
    DegenerateDrawError
        If either inner product is exactly zero before scaling (the
        caller is expected to redraw; see the harness resample loop).
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
    raw = np.array([nlos_coefficient(p, nlos_form) for p in panels], dtype=complex)
    proj = complex(alpha @ raw)
    if proj == 0:
        raise DegenerateDrawError("alpha^T nlos_csi is exactly zero")
    if alpha_los * h_los == 0:
        raise DegenerateDrawError("alpha_los * h_los is exactly zero")
    nlos_csi = raw / abs(proj)
    h_los_scaled = complex(h_los * np.sqrt(gamma) / abs(alpha_los * h_los))
    return ChannelRealization(
        h_los=h_los_scaled,
        panels=tuple(panels),
        alpha=alpha,
        alpha_los=complex(alpha_los),
        nlos_csi=nlos_csi,
        gamma=float(gamma),
    )


def read_csi_file(path, K: int, M: int):
    """Load fixed panel CSI for replay.

    The file holds one "re,im" pair per line, K panels concatenated,
    each panel listing its M-entry g then its M-entry h: K*2*M lines
    total (blank lines and '#' comments skipped).
    """
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 're,im', got {text!r}")
            try:
                value = complex(float(parts[0]), float(parts[1]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric entry {text!r}") from None
            if not cmath.isfinite(value):
                raise ValueError(f"{path}:{lineno}: non-finite entry {text!r}")
            values.append(value)
    expected = K * 2 * M
    if len(values) != expected:
        raise ValueError(
            f"{path}: expected {expected} entries (K={K}, M={M}), found {len(values)}"
        )
    flat = np.asarray(values, dtype=complex).reshape(K, 2, M)
    return tuple(IrsPanel(g=flat[k, 0], h=flat[k, 1]) for k in range(K))
