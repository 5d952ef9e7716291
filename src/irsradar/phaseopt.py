"""Phase-shift selection for the reflecting panels.

The per-panel objective |h^H Theta g| = |sum_m beta_m conj(c_m)
e^{j theta_m}| with c = Diag(g)^H h is maximized by aligning every term:
theta_m = arg(c_m), attaining sum_m beta_m |c_m|.  Panels decouple, so
each is solved independently.

certify_panels checks the closed form against the maximum over the full
G^M phase grid, for a stack of panels at once, in chunks of about
CERTIFY_CHUNK_BYTES per stacked array.  It returns one CertifiedPanels:
the grid maxima, closed forms, gaps and bounds as (P,) arrays.  One
kernel, _grid_max_pieces, finds every grid maximum without enumerating
the grid: it evaluates the sums at the few candidate directions of the
exact interval reduction (Zhang et al., IEEE JSTSP 2022), the same
reduction at any M.  The modulus is np.hypot of the parts, which rounds
as Python's abs of one complex value does.  The kernel evaluates one of
the G rotations of the optimal node, all of which have the same exact
modulus, so it can differ from a full enumeration (which keeps whichever
rotation rounded highest) in the last bits; the tests hold it to such
an enumeration within a few eps of the closed form.

certify_panels builds the node phasor table exp(1j (k step)) once per
call and passes it to every chunk, each entry the same float expression
the kernel would otherwise evaluate per node.

within_bound is the one home of the quantization-bound rule; the
per-panel CertificationRecord and the CLI both apply it.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .channel import IrsPanel
from .errors import CapabilityError

CERTIFY_MAX_ELEMENTS = 4

# A chunk holds as many panels as fit about this many bytes of its largest
# stacked complex array (at least one), which bounds the memory of a stack;
# the grid's node table must fit it too.
CERTIFY_CHUNK_BYTES = 256 * 1024


def optimal_phases(g, h) -> np.ndarray:
    """Componentwise phase alignment, wrapped to [0, 2pi).

    Zero entries of c = conj(g) * h get theta = 0: any phase is optimal
    there and a fixed choice keeps runs reproducible.
    """
    c = np.conj(np.atleast_1d(np.asarray(g, dtype=complex))) * np.atleast_1d(
        np.asarray(h, dtype=complex)
    )
    return np.mod(np.angle(c), 2.0 * np.pi)


def within_bound(gap, closed_form, bound):
    """Whether each gap lies in [0, bound], widened by 1e-12 closed_form at both ends.

    Elementwise on arrays, a bool on floats; a NaN gap is never within.
    """
    # rounding scales with the panel's magnitude, so the slack does too
    slack = 1e-12 * closed_form
    return (-slack <= gap) & (gap <= bound + slack)


@dataclass(frozen=True)
class CertificationRecord:
    """Grid-search audit of the closed-form optimum for one panel."""

    grid_max: float  # max |h^H Theta g| over the phase grid
    closed_form: float  # attained value at theta = arg(c)
    gap: float  # closed_form - grid_max, nonnegative
    bound: float  # worst-case quantization loss closed_form*(1-cos(pi/G))
    grid_points: int

    @property
    def within_bound(self) -> bool:
        return within_bound(self.gap, self.closed_form, self.bound)


@dataclass(frozen=True)
class CertifiedPanels:
    """Grid-search audit of a stack of P panels, one (P,) array per quantity."""

    grid_max: np.ndarray  # max |h^H Theta g| over the phase grid
    closed_form: np.ndarray  # attained value at theta = arg(c)
    gap: np.ndarray  # closed_form - grid_max
    bound: np.ndarray  # closed_form * (1 - cos(pi/G))


def _turns(G: int) -> np.ndarray:
    """exp(1j (k step)) for k = -(G//2)-2 .. G//2+2, at index k + G//2 + 2.

    The pieces kernel's finite node indices lie in [-G/2, G/2 + 1] up to
    rounding (see _grid_max_pieces), inside this range.
    """
    step = 2.0 * np.pi / G
    return np.exp(1j * (np.arange(-(G // 2) - 2, G // 2 + 3) * step))


def _grid_max_pieces(z: np.ndarray, G: int, turns: np.ndarray) -> np.ndarray:
    """Exact product-grid maximum of each row of a (P, M) stack, without enumeration.

    For a target direction phi, the best grid node for term m is the
    one nearest phi - arg(z_m), so the joint maximizer is a function of
    phi alone.  Shifting every node by one grid step rotates the sum
    without changing its modulus, so phi only needs to sweep one grid
    period; within it, each nonzero term's choice flips at a single
    breakpoint.  Evaluating the sum on every sub-interval between
    breakpoints (and both roundings at the edges) therefore covers every
    candidate the full enumeration could produce.

    Zero terms are moved behind the nonzero ones, so np.sum adds a row's
    nonzero terms in the order it adds them alone, and the trailing zeros
    change no bit.  A zero term repeats the first nonzero term's
    breakpoint, which adds that breakpoint (already a candidate) as a
    midpoint and no other candidate.  A row of zeros has maximum 0.

    A candidate lies in [0, step] and an angle in [-pi, pi], so a finite
    node index k = round((candidate - angle) / step) lies in
    [-G/2, G/2 + 1] up to rounding; its phasor exp(1j (k step)) is read
    from turns, the _turns(G) table.  A NaN term leaves k NaN; it reads
    entry k = 0, and its row's sums are NaN whichever phasor it reads.
    """
    step = 2.0 * np.pi / G
    live = z != 0
    order = np.argsort(~live, axis=1, kind="stable")
    z = np.take_along_axis(z, order, axis=1)
    live = np.take_along_axis(live, order, axis=1)
    args = np.angle(z)
    breaks = np.mod(args + step / 2.0, step)
    breaks = np.sort(np.where(live, breaks, breaks[:, :1]), axis=1)
    P = len(z)
    edges = np.concatenate((np.zeros((P, 1)), breaks, np.full((P, 1), step)), axis=1)
    mids = 0.5 * (edges[:, :-1] + edges[:, 1:])
    # include the breakpoints themselves to catch boundary ties
    candidates = np.concatenate((mids, breaks), axis=1)
    k = np.round((candidates[:, :, None] - args[:, None, :]) / step)
    phasors = turns[np.where(np.isfinite(k), k, 0).astype(np.intp) + (G // 2 + 2)]
    sums = np.sum(z[:, None, :] * phasors, axis=2)
    return np.hypot(sums.real, sums.imag).max(axis=1)


def _panels_per_chunk(M: int) -> int:
    """Panels whose largest stacked complex array fits CERTIFY_CHUNK_BYTES (at least one)."""
    per_panel = (2 * M + 1) * M  # candidate directions x terms
    return max(1, CERTIFY_CHUNK_BYTES // (16 * per_panel))


def certify_panels(g, h, beta, grid_points_per_phase: int) -> CertifiedPanels:
    """Audit the closed-form phase optimum of a stack of panels on their grid.

    Parameters
    ----------
    g, h : (P, M) complex arrays
        Each row is one panel's incident and departing CSI.
    beta : (P, M) real array
        Per-element gains.  No phases are passed: the grid ranges over them.
    grid_points_per_phase : int
        Grid density G per element, an integer of at least 2; the
        searched set is the full G^M product grid, reduced exactly (see
        _grid_max_pieces).  Its node table of G + 5 complex phasors, at
        most, must fit CERTIFY_CHUNK_BYTES, so G is at most 16379.

    Returns the stacked audit; row p equals certifying panel p alone.
    """
    z = beta * np.conj(np.conj(g) * h)
    P, M = z.shape
    if M > CERTIFY_MAX_ELEMENTS:
        raise CapabilityError(
            f"exhaustive certification limited to M <= {CERTIFY_MAX_ELEMENTS}, got {M}"
        )
    try:
        G = operator.index(grid_points_per_phase)  # ints, numpy's too, but no float
    except TypeError:
        raise ValueError(
            f"grid_points_per_phase must be an integer, got {grid_points_per_phase!r}") from None
    if G < 2:
        raise ValueError("need at least 2 grid points per phase")
    table = 16 * (2 * (G // 2) + 5)  # the bytes of _turns(G), checked before it is built
    if table > CERTIFY_CHUNK_BYTES:
        raise CapabilityError(
            f"grid density {G} needs a {table}-byte node table, over CERTIFY_CHUNK_BYTES "
            f"({CERTIFY_CHUNK_BYTES})"
        )
    turns = _turns(G)
    step = _panels_per_chunk(M)
    grid_max = np.empty(P)
    for lo in range(0, P, step):
        grid_max[lo:lo + step] = _grid_max_pieces(z[lo:lo + step], G, turns)
    closed = np.sum(np.abs(z), axis=1)
    bound = closed * (1.0 - np.cos(np.pi / G))
    return CertifiedPanels(grid_max, closed, closed - grid_max, bound)


def certify_optimum(panel: IrsPanel, grid_points_per_phase: int) -> CertificationRecord:
    """Audit the closed-form phase optimum against one panel's grid.

    A stack of one for certify_panels: the panel's beta weights are
    honored and its theta is ignored.
    """
    cert = certify_panels(panel.g[None], panel.h[None], panel.beta[None], grid_points_per_phase)
    return CertificationRecord(
        grid_max=float(cert.grid_max[0]), closed_form=float(cert.closed_form[0]),
        gap=float(cert.gap[0]), bound=float(cert.bound[0]),
        grid_points=int(grid_points_per_phase),
    )
