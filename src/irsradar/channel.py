"""CSI generation and IRS phase application.

Each of the K reflecting panels has M elements.  The panel's phase
vector theta (and fixed per-element gains beta, all 1 by default) form
the diagonal reflection matrix Theta = Diag(beta * e^{j theta}).  The
effective path coefficient seen by the radar is a function of the
triple (g, h, Theta); two forms are supported, see compose_paths.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, is_dataclass
from dataclasses import fields as dataclass_fields

import numpy as np

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


def split_crandn(z, *sizes):
    """Complex Gaussians from rows of standard normal draws, one part per size.

    z is (T, 2 * sum(sizes)); row t holds one generator's draws, part by
    part: a part's `size` real draws, then its `size` imaginary ones.
    Returns one (T, size) array per part of (re + j im) / sqrt(2).  One
    standard_normal call yields the same values as a run of shorter ones,
    so each part equals the same draw made part by part, bit for bit.
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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _same_value(self, other)

    @property
    def m(self) -> int:
        return self.g.size

    def c_vector(self) -> np.ndarray:
        """c = Diag(g)^H h, the per-element combining coefficients."""
        return np.conj(self.g) * self.h


def _same_value(a, b) -> bool:
    """Field-by-field equality that compares arrays, and panels' arrays, by value."""
    if is_dataclass(a) and type(a) is type(b):
        return all(
            _same_value(getattr(a, f.name), getattr(b, f.name)) for f in dataclass_fields(a)
        )
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(map(_same_value, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return bool(a == b)


def stack_panels(panels):
    """The (K, M) stacks of a sequence of equal-size panels' g, h and beta."""
    return tuple(np.stack([getattr(p, f) for p in panels]) for f in ("g", "h", "beta"))


def compose_paths(g, h, theta, beta, form: str = "magnitude_squared") -> np.ndarray:
    """Per-path coefficients of panels given as (..., K, M) arrays, one per row.

    Row k is h_k^H Theta_k g_k = c_k^H (beta_k * e^{j theta_k}) with
    c_k = Diag(g_k)^H h_k, taken as is ("complex") or as its squared
    magnitude ("magnitude_squared").  Estimation quality under the two
    differs materially: squaring doubles the dynamic range of weak draws,
    so random-phase panels produce near-dead paths far more often, which
    is why Scenario defaults to "complex".  The inputs broadcast against
    each other and the result has their shape without the last axis; one
    panel's 1-D g, h, theta and beta give its coefficient as a 0-d array.
    theta must already be wrapped as a panel stores it (see wrap_phase).
    All rows go through one np.vecdot, which runs the same BLAS dot on
    each row as np.vdot on that row alone, so a row's value does not
    depend on the rows stacked with it.
    """
    if form not in NLOS_FORMS:
        raise ValueError(f"unknown nlos form: {form!r}")
    z = np.vecdot(np.conj(g) * h, beta * np.exp(1j * theta))
    if form == "magnitude_squared":
        z = (z.real * z.real + z.imag * z.imag).astype(complex)
    return z


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
