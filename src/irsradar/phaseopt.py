"""Phase-shift selection for the reflecting panels.

The per-panel objective |h^H Theta g| = |sum_m beta_m conj(c_m)
e^{j theta_m}| with c = Diag(g)^H h is maximized by aligning every term:
theta_m = arg(c_m), attaining sum_m beta_m |c_m|.  Panels decouple, so
each is solved independently.  certify_optimum checks the closed form
against the maximum over a finite phase grid, exhaustively.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import IrsPanel
from .errors import CapabilityError

# Above this many grid nodes the direct enumeration is replaced by the
# piecewise reduction (still exact on the same grid, see _grid_max_pieces).
DIRECT_ENUMERATION_LIMIT = 2_000_000

CERTIFY_MAX_ELEMENTS = 4


def optimal_phases(g, h) -> np.ndarray:
    """Componentwise phase alignment, wrapped to [0, 2pi).

    Zero entries of c = conj(g) * h get theta = 0: any phase is optimal
    there and a fixed choice keeps runs reproducible.
    """
    c = np.conj(np.atleast_1d(np.asarray(g, dtype=complex))) * np.atleast_1d(
        np.asarray(h, dtype=complex)
    )
    return np.mod(np.angle(c), 2.0 * np.pi)


@dataclass(frozen=True)
class CertificationRecord:
    """Grid-search audit of the closed-form optimum for one panel."""

    grid_max: float  # max |h^H Theta g| over the phase grid
    closed_form: float  # attained value at theta = arg(c)
    gap: float  # closed_form - grid_max, nonnegative
    bound: float  # worst-case quantization loss closed_form*(1-cos(pi/G))
    grid_points: int
    method: str  # "direct" or "pieces"

    @property
    def within_bound(self) -> bool:
        return -1e-12 <= self.gap <= self.bound + 1e-12


def _grid_max_direct(z: np.ndarray, G: int) -> float:
    """Enumerate all G^M sums; memory-safe only for small G^M."""
    phasors = np.exp(2j * np.pi * np.arange(G) / G)
    acc = z[0] * phasors
    for zm in z[1:]:
        acc = (acc[:, None] + zm * phasors[None, :]).reshape(-1)
    return float(np.max(np.abs(acc)))


def _grid_max_pieces(z: np.ndarray, G: int) -> float:
    """Exact product-grid maximum without enumeration.

    For a target direction phi, the best grid node for term m is the
    one nearest phi - arg(z_m), so the joint maximizer is a function of
    phi alone.  Shifting every node by one grid step rotates the sum
    without changing its modulus, so phi only needs to sweep one grid
    period; within it, each term's choice flips at a single breakpoint.
    Evaluating the sum on every sub-interval between breakpoints (and
    both roundings at the edges) therefore covers every candidate the
    full enumeration could produce.
    """
    step = 2.0 * np.pi / G
    live = z[z != 0]
    if live.size == 0:
        return 0.0
    args = np.angle(live)
    breaks = np.sort(np.mod(args + step / 2.0, step))
    edges = np.concatenate(([0.0], breaks, [step]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    # include the breakpoints themselves to catch boundary ties
    candidates = np.concatenate((mids, breaks))
    best = 0.0
    for phi in candidates:
        nodes = np.round((phi - args) / step) * step
        val = abs(np.sum(live * np.exp(1j * nodes)))
        best = max(best, val)
    return float(best)


def certify_optimum(panel: IrsPanel, grid_points_per_phase: int,
                    method: str = "auto") -> CertificationRecord:
    """Audit the closed-form phase optimum against one panel's grid.

    Parameters
    ----------
    panel : IrsPanel
        Its beta weights are honored; theta is ignored.
    grid_points_per_phase : int
        Grid density G per element; the searched set is the full G^M
        product grid.
    method : {"auto", "direct", "pieces"}
        "direct" enumerates G^M sums, "pieces" uses the exact interval
        reduction; "auto" picks by cost.  Both return the same value on
        the same grid (cross-checked in the tests).
    """
    if panel.m > CERTIFY_MAX_ELEMENTS:
        raise CapabilityError(
            f"exhaustive certification limited to M <= {CERTIFY_MAX_ELEMENTS}, got {panel.m}"
        )
    G = int(grid_points_per_phase)
    if G < 2:
        raise ValueError("need at least 2 grid points per phase")
    z = panel.beta * np.conj(panel.c_vector())
    closed = float(np.sum(np.abs(z)))
    if method == "auto":
        method = "direct" if G ** panel.m <= DIRECT_ENUMERATION_LIMIT else "pieces"
    if method == "direct":
        gmax = _grid_max_direct(z, G)
    elif method == "pieces":
        gmax = _grid_max_pieces(z, G)
    else:
        raise ValueError(f"unknown method: {method!r}")
    return CertificationRecord(
        grid_max=gmax,
        closed_form=closed,
        gap=closed - gmax,
        bound=closed * (1.0 - np.cos(np.pi / G)),
        grid_points=G,
        method=method,
    )
