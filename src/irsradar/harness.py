"""Seeded Monte-Carlo orchestration across the three link scenarios.

Draw discipline
---------------
Every random word comes from numpy's counter-based Philox (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011) keyed by
(master_seed, axis_index): trial t's B 4-word blocks of a stream sit at
the counters (t * B + j, stream id, 0, 0), j = 1..B, B fixed by the
stream's word count; each trial's scene is drawn once, so the third word
is always 0.  A given trial at a given axis point
therefore reproduces the identical Doppler set, CSI and (under
noise_cov) code in every link mode, and the identical noise in every
mode on a group of paths, so mode comparisons are paired; and any trial
can be regenerated in isolation, which keeps sweeps bit-reproducible
under any degree of parallelism.  A uniform is a word's top 53 bits
times 2^-53; a complex Gaussian takes two words, for its modulus
sqrt(-ln(1 - u)) and its angle 2 pi u.

What is drawn is what the BLUE sees, not the pulses.  A mode estimates
one group of paths, the direct link or the k reflected ones, and depends
on the data only through that group's steering Gram Q_g = S_g^H R^-1 S_g
and v_g = S_g^H R^-1 w, with v_g ~ CN(0, Q_g) exactly for any R (Kay,
Fundamentals of Statistical Signal Processing: Estimation Theory, 1993,
ch. 6).  So the noise stream gives k + 1 complex normals z, the first
the direct link's and the rest the reflected paths', and v_g = L_g z_g
with Q_g = L_g L_g^H, not N noise samples; no record combines the two
groups, so they read disjoint normals.  A random panel enters only
through c = conj(g) h, so the channel stream gives each element's c from
three words (_path_products) rather than g and h from four.  Its phase is
uniform and independent of |c| and of every other draw, so turning it by
a uniform phase leaves the joint law of the modes' records as it is:
nlos_random weights a random panel's c by 1, and only a replayed panel,
whose c is fixed, reads the phase stream.  With white noise Q does not
depend on the code, so the code stream is read only under noise_cov, and
freeze_waveform changes no bit of a white-noise run.

Doppler convention
------------------
Doppler values are drawn in cycles per pulse on doppler_range (default
[-0.5, 0.5), the full unambiguous band) and converted to radians per
pulse for the steering vectors.  The reflected paths are uniform on the
circle given that all pairwise circular separations reach
doppler_min_gap cycles (default 1/(4N), half the Rayleigh resolution),
drawn exactly from uniform spacings (Pyke, "Spacings", JRSS-B 1965), not
by rejection; see _dopplers.  Unresolvable paths make the Gram matrix
arbitrarily ill-conditioned, so without the separation floor the
per-axis means are dominated by rare near-singular draws and do not
stabilize at realistic trial counts.  doppler_range is at most one cycle
wide: the steering vectors see nu only modulo one cycle, so on a wider
range the separation floor would not separate the paths.

Recorded metrics
----------------
A trial's draw composes each reflected mode's coefficients once; each
trial-mode then normalizes its scene to coefficients d, and all three
fields come from one factor of its group of paths' steering Gram Q,
shared by every mode on the group (see below).  The same factor screens
the mode's conditioning: its Gram G = D^H Q D is formed, for eigvalsh,
only where the bound Tr(G) Tr(G^-1) the factor gives is not cleared
(estimator.TRACE_BOUND_MARGIN).
nmse       ||alpha_hat - alpha|| / ||alpha|| against the trial's true
           reflectivities, on the normalized scene (direct power gamma,
           reflected power 1), with alpha_hat - alpha = (Q^-1 v) / d =
           (L^-H z) / d formed directly rather than as a difference.
crb_trace  Tr((A^H R^-1 A)^-1), the BLUE covariance trace on the
           normalized scene, read off the shared factor Q = L L^H as
           sum_i (Q^-1)_ii / |d_i|^2, (Q^-1)_ii the squared norm of column
           i of L^-1, without forming a covariance.  For the linear
           Gaussian model this equals Tr(C_CRB), the bound the NMSE
           curves are held against.
mse        crb_trace / norm**2, where norm is the scene's normalization
           factor (|alpha^T c_raw| for reflected modes, |alpha_los h_los|
           / sqrt(gamma) for the direct link), since A_norm = A_raw / norm.
           This is the estimator MSE trace on the channel as drawn, the
           quantity the phase design minimizes; on it the optimal policy
           beats any other policy realization-by-realization.  The
           normalization factor is a function of the policy's own channel,
           so crb_trace mixes the design objective with the scene scaling
           and does not order deterministically.

Block evaluation
----------------
A sweep lays its (point, trial) pairs out as rows, point-major, and
evaluates them in blocks of _block_trials rows, which may span axis
points; with workers, each block is one pool task.  The counter ranges of
consecutive trials at one point are contiguous, so each stream of a block,
or of one of its panel sub-blocks (below), is one random_raw call per point
it touches, all from the block's one Philox, which each call sets to its
point's key and counter; the runs are cut once for the block's streams
and once for each panel sub-block's, on the third counter word 0, and
all arithmetic on the words runs once over the block or the sub-block
that read them.  Every mode then runs on every drawn row, and a row some
mode refused is set nan in all of them.  A block's points differ only in
the swept gamma or sigma2, which no draw reads, so a sweep passes its
template and the modes' names to every block, builds no other Scenario,
checks the swept values as one array (_check_powers), and each row takes
its own value only where it enters: sigma2 in Q and gamma in the direct
link's normalization, both elementwise, so a row gets the bits its point
alone would.  The reflected modes' coefficients are composed with no
angle, wrap or exponential of a phase per trial: nlos_random is sum_m
conj(c_m) for random panels and weights a replayed panel's c by beta
times the phasors of its phase words, nlos_optimal is sum_m beta_m |c_m|,
the value composing at the aligning phases reaches, and nlos_fixed's
weights are formed once per Scenario.

Estimation then runs in K-space.  Every link mode of a trial shares the
Dopplers and, under noise_cov, the code, and every mode on a group of
paths its noise; only the path coefficients differ, so a mode's model is
A = S_g Diag(d), where S = Diag(x) P(nu) holds the steering columns of
the 1 + k paths, S_g its group's, and d the mode's normalized
coefficients.  Once per block, with the noise model that all its modes
and points share, each group's Q_g = S_g^H R^-1 S_g is formed
(_path_models): with white noise Q_g = P_g^H P_g / sigma2 is the
closed-form Dirichlet kernel of the group's own Dopplers
(_dirichlet_gram), so no N-vector of a trial and no pair across the
groups exists; under noise_cov S is whitened by R's factor, stored once
per Scenario, and each group takes its block of the whitened product.
With D = Diag(d) a mode has Gram D^H Q_g D = A^H R^-1 A and matched
filter D^H (Q_g D alpha + v_g) = A^H R^-1 y, so neither A nor y is
formed.  Its BLUE errs by alpha_hat - alpha = D^-1 Q_g^-1 v_g and has
covariance trace sum_i (Q_g^-1)_ii / |d_i|^2, so the modes on a group
differ only by the diagonal D (Kay 1993, ch. 6): each block factors each
Q_g = L L^H once (estimator._path_factor), forming L^-1, Q_g^-1 v_g =
L^-H z_g and diag(Q_g^-1), and each mode's records are elementwise work
on its d (estimator._blue_scaled).  These two are a block's only
Cholesky factorizations.  No mode Gram, matched filter or K x K inverse
per mode is formed, except D^H Q_g D for the rows the trace bound does
not clear.  A group's Q_g is singular when two of its paths coincide, or
when k paths exceed N pulses; only the modes on it then exclude the
trial, through the condition screen.

A block is sized by its Gram stage (_block_trials): it holds as many rows
as the stage's largest arrays fit in BLOCK_BYTES, with white noise Q_g
and its factor, which becomes L^-1 in place, and under noise_cov the
N x (k + 1) steering columns.  Only the draw's panel stage grows with
k M: the channel stream's 3 k M product words (for replayed panels the
k M phase words instead), _path_products and _compose_modes.  It runs in
near-equal sub-blocks of at most _panel_rows rows, as many as a row's
channel words fit in BLOCK_BYTES, each reading its own runs from the
block's one Philox, and the degeneracy rule and everything after it run
once over the whole block.  So one Philox, one condition screen, one
_path_models and one set of estimates serve more rows than the panels'
words alone would fit: 284 rows in sub-blocks of 142 at the default
N = 50, k = 5, M = 10, and 9 rows in sub-blocks of 4 and 5 at
N = 256, k = 32, M = 64.  The transforms that turn words into values
reuse their index and turn arrays, and under noise_cov the steering
columns are dropped once whitened, so a block's traced peak stays within
a small multiple of BLOCK_BYTES at any N, k and M (about 2.3x at
N = 256, k = 32, M = 64, and at most about 3.2x at the shapes measured).

A trial's records do not depend on the block or sub-block it lands in,
so they are the same bits whatever the block size or worker count, and
run_trial is a block of one row.  The stacked steps are only those that
apply the same kernel to every item: elementwise ufuncs, stacked matmul and
np.vecdot (one BLAS call per item, the same dot np.vdot, a 1-D @ and
np.linalg.norm make on one item), reductions along an item's own axes,
and numpy's stacked eigvalsh and cholesky (one LAPACK call per item).
That covers each panel row's coefficient, each trial's alpha^T c zero
check and normalization norm, the closed-form Gram, the whitened
steering Gram, the Cholesky factorization, its forward-substituted
inverse, the error L^-H z and the NMSE norms.  Every mean
NMSE stays within 4 standard errors of the moments in
tests/data/moments_fixture.npz, and every record within 1e-9 of
tests/data/records_fixture.npz.  A trial whose scene is degenerate,
where some estimate would divide by exactly zero (_draw_block), or whose
Gram the BLUE refuses in any mode, is excluded from every mode; no
degenerate scene is redrawn.  Exclusions travel as arrays: the
draw's drawn positions and the condition screen's cause codes and
condition numbers, which a sweep counts per point
(SweepResult.excluded_by_cause); the GenerationError or
SingularModelError is built only where run_trial raises it.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.random import Philox

from .channel import (
    NLOS_FORMS,
    _same_value,
    aligned_paths,
    combine_paths,
    stack_panels,
    wrap_phase,
)
from .errors import GenerationError
from .estimator import (
    CLEARED,
    ILL_CONDITIONED,
    NOT_POSITIVE_DEFINITE,
    POWER_RANGE,
    NoiseModel,
    _blue_scaled,
    _error_nmse,
    _hermitian,
    _path_factor,
    _refusal,
    _sigma2_error,
)
from .model import random_code, steering_columns

LINK_MODES = ("los_only", "nlos_random", "nlos_optimal", "nlos_fixed")

# stable stream ids; appending is fine, reordering breaks reproducibility
_STREAMS = {"waveform": 0, "doppler": 1, "channel": 2, "noise": 3, "phase": 4}

# the cause code of a row whose scene is degenerate (_draw_block), beside
# the condition screen's (estimator._screen, which blue_gram and the sweep
# share); SweepResult.excluded_by_cause counts the causes in this order
UNDRAWN = 3
EXCLUSION_CAUSES = (UNDRAWN, ILL_CONDITIONED, NOT_POSITIVE_DEFINITE)

# master seeds lie in [0, SEED_BOUND): a stream's key holds the seed as one
# unsigned 64-bit word
SEED_BOUND = 2**64

# A block holds as many rows as fit this many bytes of its Gram stage's
# largest arrays, and its draw's panel stage runs in sub-blocks of as many
# rows as fit this many bytes of channel words, at least one each; see
# _block_trials and _panel_rows.  A block's traced peak is about 2.3x this
# at N = 256, k = 32, M = 64.
BLOCK_BYTES = 320 * 1024

MODE_LABELS = {
    "los_only": "los",
    "nlos_random": "nlos_random",
    "nlos_optimal": "nlos_optimal",
    "nlos_fixed": "nlos_fixed",
}


def _check_powers(gamma, sigma2, modes):
    """Raise the ValueError of the first point whose gamma or sigma2 no mode may take.

    gamma and sigma2 are one value or one per point, and every point runs
    each of the link modes.  sigma2 must lie in POWER_RANGE, with
    NoiseModel's message (estimator._sigma2_error), gamma too unless it is
    0, which los_only cannot take.  The message is the one the first bad
    point's first failing rule gives, as if each point's Scenario were
    built in turn.  A value that is not a real number is refused by name
    first: numpy would order a complex one lexicographically.
    """
    for name, value in (("gamma", gamma), ("sigma2", sigma2)):
        if np.asarray(value).dtype.kind not in "iuf":
            raise ValueError(f"{name} must be a real number, got {value!r}")
    lo, hi = POWER_RANGE
    gamma, sigma2 = np.broadcast_arrays(np.atleast_1d(gamma), sigma2)
    bad_sigma2 = ~((lo <= sigma2) & (sigma2 <= hi))  # nan too
    bad_gamma = ~((gamma == 0) | ((lo <= gamma) & (gamma <= hi)))
    blocked = (gamma == 0) & ("los_only" in modes)
    bad = np.flatnonzero(bad_sigma2 | bad_gamma | blocked)
    if bad.size == 0:
        return
    first = bad[0]
    if bad_sigma2[first]:
        raise _sigma2_error()
    if bad_gamma[first]:
        raise ValueError(f"gamma must be 0 or lie in [{lo:g}, {hi:g}]")
    raise ValueError("gamma must be positive for link_mode='los_only'")


def _check_panel_powers(power, what: str):
    """Raise the ValueError that names each replayed panel whose power leaves POWER_RANGE."""
    lo, hi = POWER_RANGE
    bad = np.flatnonzero(~((lo <= power) & (power <= hi)))  # nan too
    if bad.size:
        raise ValueError(f"fixed_panels {bad.tolist()} have {what} of "
                         f"{', '.join(f'{p:.3g}' for p in power[bad])}, outside [{lo:g}, {hi:g}]")


@dataclass(frozen=True)
class Scenario:
    """Everything needed to regenerate one experiment deterministically."""

    n: int = 50
    k: int = 5
    m: int = 10
    gamma: float = 1e-2
    sigma2: float = 1e-2
    trials: int = 1000
    master_seed: int = 0
    link_mode: str = "nlos_optimal"
    nlos_form: str = "complex"
    doppler_range: tuple = (-0.5, 0.5)  # cycles per pulse, at most one cycle wide
    doppler_min_gap: float = None  # cycles; None means 1/(4n)
    # one code for every trial; the code is drawn only under noise_cov, since
    # with white noise no record depends on it, so there this changes no bit
    freeze_waveform: bool = False
    fixed_theta: tuple = None  # k phase vectors of length m; required for link_mode="nlos_fixed"
    fixed_panels: tuple = None  # CSI replay; overrides the panel draw
    noise_cov: np.ndarray = None  # full N x N covariance; overrides sigma2

    def __post_init__(self):
        for key in ("n", "k", "m", "trials", "master_seed"):
            value = getattr(self, key)
            try:
                value = operator.index(value)  # ints, numpy's too, but no float
            except TypeError:
                raise ValueError(f"{key} must be an integer, got {value!r}") from None
            if value < 1 and key != "master_seed":
                raise ValueError(f"{key} must be positive")
        if self.k > self.n:
            raise ValueError("k must not exceed n")
        _check_powers(self.gamma, self.sigma2, (self.link_mode,))
        for key in ("gamma", "sigma2"):  # a float32 would round the engine's arithmetic
            object.__setattr__(self, key, float(getattr(self, key)))
        if not 0 <= self.master_seed < SEED_BOUND:
            raise ValueError("master_seed must lie in [0, 2**64)")
        if self.link_mode not in LINK_MODES:
            raise ValueError(f"unknown link mode: {self.link_mode!r}")
        if self.nlos_form not in NLOS_FORMS:
            raise ValueError(f"nlos_form must be one of {NLOS_FORMS}, got {self.nlos_form!r}")
        lo, hi = self.doppler_range
        if not np.all(np.isfinite((lo, hi))):
            raise ValueError("doppler_range bounds must be finite")
        if not lo < hi:
            raise ValueError("doppler_range must be a nonempty interval")
        # the steering vectors see nu only modulo one cycle, so on a wider
        # range the separation floor would not separate the paths
        with np.errstate(over="ignore"):
            if not hi - lo <= 1.0:
                raise ValueError(f"doppler_range must span at most one cycle, got {hi - lo:g}")
        gap = self.min_gap_cycles
        if not np.isfinite(gap):
            raise ValueError("doppler_min_gap must be finite")
        # two or more paths need room for the draw's rounding margin too
        floor = gap if self.k == 1 else _spacing_floor(lo, hi, gap)
        if gap < 0 or self.k * floor >= (hi - lo):
            raise ValueError("doppler_min_gap leaves no room for k paths")
        theta = None  # fixed_theta, wrapped as a panel stores its phases
        if self.fixed_theta is not None:
            thetas = [np.atleast_1d(np.asarray(t)) for t in self.fixed_theta]
            sizes = sorted({t.size for t in thetas})
            if len(thetas) != self.k or sizes != [self.m]:
                raise ValueError(
                    f"fixed_theta has {len(thetas)} theta vectors of length "
                    f"{'/'.join(map(str, sizes))}; the scenario needs k={self.k} of m={self.m}"
                )
            if any(t.dtype.kind not in "iuf" for t in thetas):
                raise ValueError("fixed_theta entries must be real numbers")
            if not np.all(np.isfinite(thetas)):
                raise ValueError("fixed_theta has non-finite entries")
            theta = wrap_phase(np.stack(thetas))
        if self.link_mode == "nlos_fixed" and self.fixed_theta is None:
            raise ValueError("nlos_fixed requires fixed_theta")
        panel_paths = None
        if self.fixed_panels is not None:
            panels = tuple(self.fixed_panels)
            if len(panels) != self.k or any(p.m != self.m for p in panels):
                raise ValueError("fixed panels must match k and m")
            object.__setattr__(self, "fixed_panels", panels)
            g, h, beta = stack_panels(panels)
            # the path power at the aligning phases; a product past the
            # float range is far outside POWER_RANGE either way
            with np.errstate(over="ignore"):
                aligned = np.sum(beta * np.abs(g) * np.abs(h), axis=1) ** 2
            _check_panel_powers(aligned, "aligned path power (sum_m beta_m |g_m h_m|)^2")
            panel_paths = (np.conj(g) * h, beta)
        # the replayed panels' products c = conj(g) h with their gains
        # beta, and the fixed phases' element weights beta e^{j theta},
        # each a K x M stack formed once; not fields, so kept out of eq
        # and repr like _noise below
        object.__setattr__(self, "_panel_paths", panel_paths)
        weights = None
        if theta is not None:
            weights = np.exp(1j * theta)
            if panel_paths is not None:
                weights *= panel_paths[1]
                # every trial of nlos_fixed composes these very paths, the
                # aligned power's bound keeps them finite, and one of power
                # 0 would be degenerate in every trial
                fixed = np.abs(np.vecdot(panel_paths[0], weights)) ** 2
                _check_panel_powers(
                    fixed, "fixed path power |sum_m beta_m conj(c_m) e^(j theta_m)|^2")
        object.__setattr__(self, "_fixed_weights", weights)
        if self.noise_cov is None:
            noise = NoiseModel.scaled_identity(self.sigma2, self.n)
        else:
            try:  # the noise rules are NoiseModel's
                noise = NoiseModel(covariance=self.noise_cov, n=self.n)
            except ValueError as exc:
                raise ValueError(f"noise_cov: {exc}") from None
            object.__setattr__(self, "noise_cov", noise.covariance)
        object.__setattr__(self, "_noise", noise)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _same_value(self, other)

    @property
    def min_gap_cycles(self) -> float:
        if self.doppler_min_gap is None:
            return 1.0 / (4.0 * self.n)
        return float(self.doppler_min_gap)


@dataclass(frozen=True)
class TrialRecord:
    nmse: float
    mse: float
    crb_trace: float


def _runs(keys, axis, trials):
    """The rows' runs of consecutive trials at one point: (lo, hi, key, first trial) each.

    keys maps each axis index to its Philox key (master_seed, axis index).
    Rows lo..hi - 1 read trials trial, trial + 1, ... at one point, so a
    run is one random_raw call per stream (_stream_words).
    """
    cuts = np.flatnonzero((np.diff(trials) != 1) | (np.diff(axis) != 0)) + 1
    edges = [0, *cuts.tolist(), len(trials)]
    return [(lo, hi, keys[int(axis[lo])], int(trials[lo]))
            for lo, hi in zip(edges, edges[1:]) if hi > lo]


def _stream_words(source, runs, stream: str, count: int):
    """The first `count` words of a stream for each row of the runs, (rows, count).

    source is a Philox and a dict of its state, on which each run sets its
    point's key and its counter (_runs), so one generator serves every
    point.  numpy's Philox advances the counter before each block, so
    setting it to (t * B, ...) starts trial t's range.
    """
    bitgen, state = source
    width = -(-count // 4)  # B
    out = np.empty((runs[-1][1] if runs else 0, 4 * width), np.uint64)
    for lo, hi, key, trial in runs:
        state["state"]["key"] = key
        state["state"]["counter"] = np.array([trial * width, _STREAMS[stream], 0, 0], np.uint64)
        bitgen.state = state
        out[lo:hi] = bitgen.random_raw(4 * width * (hi - lo)).reshape(hi - lo, -1)
    return out[:, :count]


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1) from raw words: the top 53 bits times 2^-53."""
    return (words >> np.uint64(11)) * 2.0**-53


@cache
def _turn_tables():
    """exp(2 pi j i / 2^10) and exp(2 pi j i / 2^20) for i < 2^10, built on first use.

    The coarse and fine turns an angle's top 20 bits select in _unit_phasors.
    """
    i = np.arange(1024)
    return np.exp(2j * np.pi * i / 2**10), np.exp(2j * np.pi * i / 2**20)


def _unit_phasors(words: np.ndarray) -> np.ndarray:
    """exp(2 pi j u) of each word's uniform u, from tables instead of cos and sin.

    u's 53 bits split as 10 + 10 + 33.  The first two pick a coarse and a
    fine turn; the last 33 are an angle d below 2 pi 2^-20, and the turn
    by d is 1 - d^2/2 + j d, whose truncation error d^3/6 is under 4e-17.
    The result is within a few eps of np.exp(2j * np.pi * u), at a third
    to a half of its cost, and elementwise, so stacking does not change it.
    Each field is cut from the words into one reused index array, and the
    turn by d is built in the fine turn's array, so the chain holds two
    complex arrays and one index array besides the words.  np.take gathers
    the same values as indexing, in less time on a uint64 index.
    """
    coarse, fine = _turn_tables()
    i = words >> np.uint64(54)  # u's top 10 bits
    out = np.take(coarse, i)
    np.right_shift(words, np.uint64(44), out=i)
    i &= np.uint64(1023)  # its next 10
    turn = np.take(fine, i)
    out *= turn
    np.right_shift(words, np.uint64(11), out=i)
    i &= np.uint64(2**33 - 1)  # its last 33
    np.multiply(i, 2.0 * np.pi * 2.0**-53, out=turn.imag)  # d
    del i
    np.multiply(turn.imag, turn.imag, out=turn.real)
    turn.real *= 0.5
    np.subtract(1.0, turn.real, out=turn.real)
    out *= turn
    return out


def _complex_normals(words: np.ndarray) -> np.ndarray:
    """CN(0, 1) values from consecutive word pairs, (..., 2C) -> (..., C).

    The pair's first word gives the modulus sqrt(-ln(1 - u)), whose square
    is Exp(1), and its second the angle, as _unit_phasors' exp(2 pi j u).
    The angles come first and the modulus is formed in place, so at most
    one float array joins the phasors.
    """
    phasors = _unit_phasors(words[..., 1::2])
    radius = _uniforms(words[..., 0::2])
    for step in (np.negative, np.log1p, np.negative, np.sqrt):
        step(radius, out=radius)
    return np.multiply(radius, phasors, out=phasors)


def _path_products(words: np.ndarray) -> np.ndarray:
    """conj(g) h of independent g, h ~ CN(0, 1) from word triples, (..., 3C) -> (..., C).

    |g|^2 and |h|^2 are independent Exp(1) variables E1 and E2, and the
    angles of g and h independent uniforms, independent of the moduli, so
    conj(g) h has modulus sqrt(E1 E2) and a uniform angle independent of
    it.  The triple's first two words give ln(1 - u) = -E as in
    _complex_normals and its third the angle, so a product takes three
    words and one phasor instead of the four words and two phasors of g
    and h.
    """
    phasors = _unit_phasors(words[..., 2::3])
    radius = _uniforms(words[..., 0::3])
    other = _uniforms(words[..., 1::3])
    for r in (radius, other):
        np.negative(r, out=r)
        np.log1p(r, out=r)
    radius *= other
    np.sqrt(radius, out=radius)
    return np.multiply(radius, phasors, out=phasors)


def _spacing_floor(lo: float, hi: float, gap: float) -> float:
    """The gap plus a margin for the rounding of the draw and of a separation check."""
    return gap + 32.0 * np.finfo(float).eps * (abs(lo) + abs(hi) + (hi - lo))


def _dopplers(u: np.ndarray, lo: float, hi: float, k: int, gap: float) -> np.ndarray:
    """(T, 1 + k) Dopplers in cycles on [lo, hi) from (T, 2k + 1) uniforms.

    u[:, 0] places the direct path uniformly.  The k reflected paths are
    uniform on the circle given that every circular separation is at
    least the gap, drawn exactly (no rejection): the k - 1 sorted
    uniforms u[:, 1:k] cut [0, 1] into k Dirichlet(1, ..., 1) spacings,
    scaled to span - k * floor with floor added to each; u[:, k] rotates
    the set around the circle and the ranks of u[:, k + 1:] permute the
    labels.  floor is _spacing_floor's, so the separations hold after
    rounding too.
    """
    span = hi - lo
    floor = _spacing_floor(lo, hi, gap)
    cuts = np.zeros((len(u), k))
    cuts[:, 1:] = np.sort(u[:, 1:k], axis=1)
    # path i sits i spacings after the first: i * floor plus the scaled cut
    offsets = np.arange(k) * floor + (span - k * floor) * cuts
    at = span * u[:, k:k + 1] + offsets
    at = np.where(at < span, at, at - span)
    labels = np.argsort(u[:, k + 1:], axis=1)
    nu = np.concatenate([lo + span * u[:, :1], lo + np.take_along_axis(at, labels, axis=1)],
                        axis=1)
    return np.where(nu < hi, nu, lo)  # a value that rounds up to hi is lo on the circle


def _draw_block(scenario: Scenario, axis_index, trials) -> dict:
    """Everything random in a block of rows; identical for every link mode.

    Row r is trial trials[r] at axis point axis_index[r], or at axis_index
    itself when it is an int.  A row reads its trial's counter ranges at its
    point (see the module docstring), the code trial 0's of its own point
    when frozen.  The block builds one Philox, and each run of rows at one
    point with consecutive trials sets its point's key with the counter
    (_runs, _stream_words); the runs are cut once for the block's streams.
    The panel stage, the channel words (and for replayed panels only the
    phase words) and what is composed from them, runs in near-equal
    sub-blocks of at most _panel_rows rows, each cutting its own runs, and
    writes into whole-block arrays; all that follows runs once over the
    block.  Each row's scene is drawn once.  A
    row is degenerate, and not drawn, where some estimate would divide by
    exactly zero: alpha_los * h_los, an entry of a reflected mode's
    coefficients, or its alpha^T c.  The rule reads every mode, so all
    link modes keep or drop identical rows and pairing is preserved.  Only
    when some row is degenerate are the arrays gathered to the drawn rows.
    Every other field comes from `scenario`, so the rows' points may
    differ only in what no draw reads.

    Returns a dict over the drawn rows, in order: "drawn" their
    positions in `trials`; "u" the (T, k + 1) Dopplers in cycles, the
    direct path's first; "h_los" and "alpha_los" (T,); "alpha" (T, k);
    "csi" mapping nlos_random, nlos_optimal and, with fixed_theta,
    nlos_fixed to the (T, k) raw composed coefficients, a replayed panel's
    fixed compositions repeated in every row; "z" (T, k + 1)
    CN(0, 1) values, the direct path's first, from which each group of
    paths draws its noise (estimator._path_factor); and, under noise_cov
    only, "x" the (T, N) codes.
    """
    trials = np.asarray(trials, dtype=np.int64)
    axis = np.asarray(axis_index, dtype=np.int64)
    if np.any(axis < 0) or np.any(trials < 0):
        raise ValueError("indices must be nonnegative")
    axis = np.broadcast_to(axis, trials.shape)
    n, k, m = scenario.n, scenario.k, scenario.m
    # np.unique would import numpy.ma, about 10 ms, into every CLI run
    keys = {i: np.array([scenario.master_seed, i], np.uint64) for i in sorted(set(axis.tolist()))}
    bitgen = Philox(key=np.zeros(2, np.uint64))  # each run sets its own key and counter
    source = bitgen, bitgen.state
    runs = _runs(keys, axis, trials)

    def words(stream, count):
        return _stream_words(source, runs, stream, count)

    lo, hi = scenario.doppler_range
    u = _dopplers(_uniforms(words("doppler", 2 * k + 1)), lo, hi, k, scenario.min_gap_cycles)
    z = _complex_normals(words("noise", 2 * (k + 1)))

    # the panel stage, in near-equal sub-blocks of at most _panel_rows rows:
    # the channel stream, h_los, alpha and alpha_los as word pairs, then the
    # k x M products conj(g) h of random panels as word triples, or a
    # replayed panel's phase words, composed into each mode's coefficients
    pairs = 2 * (k + 2)
    normals, csi = np.empty((len(trials), k + 2), complex), {}
    parts = max(1, -(-len(trials) // _panel_rows(scenario)))
    edges = [len(trials) * i // parts for i in range(parts + 1)]
    for start, stop in zip(edges, edges[1:]):
        sub = _runs(keys, axis[start:stop], trials[start:stop])
        if scenario.fixed_panels is not None:
            w = _stream_words(source, sub, "channel", pairs)
            c, beta = scenario._panel_paths
            phase_words = _stream_words(source, sub, "phase", k * m)
        else:
            w = _stream_words(source, sub, "channel", pairs + 3 * k * m)
            c, beta = _path_products(w[:, pairs:]).reshape(-1, k, m), None
            phase_words = None
        normals[start:stop] = _complex_normals(w[:, :pairs])
        del w
        composed = _compose_modes(scenario, c, beta, phase_words)
        del c
        for mode, coef in composed.items():
            if mode not in csi:
                csi[mode] = np.empty((len(trials), k), coef.dtype)
            # a replayed panel's fixed compositions are one row for every trial
            csi[mode][start:stop] = coef
    h_los, alpha, alpha_los = np.split(normals, [1, k + 1], axis=1)
    h_los, alpha_los = h_los[:, 0], alpha_los[:, 0]
    # a row is degenerate where some estimate would divide by exactly zero
    ok = h_los * alpha_los != 0
    for coef in csi.values():
        ok &= np.all(coef != 0, axis=1) & (_project(alpha, coef) != 0)
    drawn = np.flatnonzero(ok)
    block = {"u": u, "z": z, "h_los": h_los, "alpha": alpha, "alpha_los": alpha_los, **csi}
    if drawn.size < ok.size:
        block = {name: value[drawn] for name, value in block.items()}
    block = {"drawn": drawn, "csi": {mode: block.pop(mode) for mode in csi}, **block}
    if scenario.noise_cov is not None:
        if scenario.freeze_waveform:  # trial 0's code of each row's point
            points = np.array(list(keys))  # sorted, for searchsorted
            code = _uniforms(_stream_words(source, _runs(keys, points, np.zeros_like(points)),
                                           "waveform", n))
            code = code[np.searchsorted(points, axis)]
        else:
            code = _uniforms(words("waveform", n))
        block["x"] = random_code(2.0 * np.pi * code[drawn])
    return block


def _compose_modes(scenario: Scenario, c: np.ndarray, beta, phase_words) -> dict:
    """The raw path coefficients of each reflected mode, from c = conj(g) * h.

    c is (T, k, M) for random panels, with beta and phase_words None, or
    (k, M) for replayed panels, with their (k, M) gains beta and (T, k M)
    phase words.  A random panel's c_m has a uniform phase independent of
    |c_m| and of every other draw, so conj(c_m) e^{j theta_m} with theta_m
    uniform has the law of conj(c_m), jointly with |c_m|: nlos_random
    weights a random panel's elements by 1 (channel.combine_paths), and a
    replayed panel's by beta times the phasors of its phase words
    (_unit_phasors).  nlos_optimal takes the aligned sum over beta |c|
    (channel.aligned_paths), and nlos_fixed the weights the Scenario
    formed once from fixed_theta.
    """
    form = scenario.nlos_form
    weights = None
    if phase_words is not None:
        weights = _unit_phasors(phase_words).reshape(-1, scenario.k, scenario.m)
        weights *= beta
    composed = {"nlos_random": combine_paths(c, weights, form),
                "nlos_optimal": aligned_paths(c, beta, form)}
    if scenario._fixed_weights is not None:
        composed["nlos_fixed"] = combine_paths(c, scenario._fixed_weights, form)
    return composed


def _project(alpha: np.ndarray, c: np.ndarray) -> np.ndarray:
    """alpha^T c of each trial row, one BLAS dot per row as alpha[t] @ c[t]."""
    return (alpha[:, None, :] @ c[:, :, None])[:, 0, 0]


def _dirichlet_gram(u: np.ndarray, n: int) -> np.ndarray:
    """P^H P of each trial's steering columns p(nu) = exp(2 pi j nu (0..n-1)), in closed form.

    Entry (k, l) is sum_i exp(2 pi j i d) = e^{j pi (n - 1) d} sin(n pi d) /
    sin(pi d), the Dirichlet kernel at d = nu_l - nu_k cycles, which is
    1-periodic; d is reduced to [-1/2, 1/2] first, so sin(pi d) is small
    only for nearly coincident paths, where the ratio stays accurate, and
    it is exactly 0 only at d = 0, where the entry is n.  Each off-diagonal
    pair is formed once, the lower entry as the upper one's conjugate, so
    the result is exactly Hermitian.  u is (T, K) in cycles, any number K
    of paths; the result is (T, K, K), elementwise per trial and per pair,
    so neither stacking nor leaving out paths changes an entry.
    """
    size = u.shape[-1]
    gram = np.empty((len(u), size, size), complex)
    flat = gram.reshape(len(u), -1)
    flat[:, ::size + 1] = n
    if size == 1:  # one path has no pairs
        return gram
    rows, cols, upper, lower = _pair_indices(size)
    d = u[:, cols] - u[:, rows]  # nu_l - nu_k for k < l
    d -= np.rint(d)
    d *= np.pi
    den = np.sin(d)
    ratio = np.sin(n * d)
    np.divide(ratio, den, out=ratio, where=den != 0)
    ratio[den == 0] = n
    d *= n - 1
    entry = np.exp(1j * d)
    entry *= ratio
    flat[:, upper] = entry
    flat[:, lower] = entry.conj()
    return gram


@cache
def _pair_indices(size: int):
    """A size x size matrix's pairs k < l: k, l and the flat (k, l) and (l, k) positions.

    Built once per path count; read-only, as every caller shares them.
    """
    rows, cols = np.triu_indices(size, 1)
    indices = rows, cols, rows * size + cols, cols * size + rows
    for a in indices:
        a.flags.writeable = False
    return indices


# the two groups of paths a link mode estimates, as columns of the draw's
# u and z: the direct link's and the reflected modes'
_PATH_GROUPS = {"direct": slice(0, 1), "reflected": slice(1, None)}


def _mode_group(link_mode: str) -> str:
    """The group of paths a link mode estimates."""
    return "direct" if link_mode == "los_only" else "reflected"


def _path_models(block, noise: NoiseModel, sigma2=None, modes=LINK_MODES):
    """Each group of paths' steering Gram Q_g and its factor, over all of the block's trials.

    Returns {group: (Q_g, _path_factor(Q_g, z_g))} for the groups the link
    modes estimate (_mode_group), Q_g = S_g^H R^-1 S_g (T, K_g, K_g) with
    S = Diag(x) P(nu) the steering columns, the direct path first, and z_g
    the group's share of the block's normals.  No record combines the two
    groups, and a mode's Gram and noise follow from its group's Q_g and
    factor alone (see _estimate_mode), so every mode on a group shares
    them, and a block of one mode forms only its group.  With white noise
    |x_n| = 1 gives Q_g = P_g^H P_g / sigma2, the closed-form Dirichlet
    kernel of the group's own Dopplers (_dirichlet_gram), with no code, no
    N-vector and no pair across the groups; the direct link's is n / sigma2.
    Under noise_cov S is whitened by R = L L^H's factor, W = L^-1 S, and
    each Q_g is a diagonal block of W^H W.  sigma2, one per drawn row,
    replaces a white noise model's power, for a block that spans the points
    of a noise sweep; the elementwise division gives the bits the scalar
    one does.
    """
    needed = {_mode_group(mode) for mode in modes}
    groups = [group for group in _PATH_GROUPS if group in needed]
    if noise.is_scaled_identity:
        power = noise.sigma2 if sigma2 is None else sigma2[:, None, None]
        grams = {group: _dirichlet_gram(block["u"][:, _PATH_GROUPS[group]], noise.n) / power
                 for group in groups}
    else:
        steer = steering_columns(block["x"], 2.0 * np.pi * block["u"])  # cycles -> radians
        white = noise._whiten @ steer
        del steer
        q = _hermitian(white.conj().swapaxes(-1, -2) @ white)
        grams = {group: q[:, _PATH_GROUPS[group], _PATH_GROUPS[group]] for group in groups}
    return {group: (q, _path_factor(q, block["z"][:, _PATH_GROUPS[group]]))
            for group, q in grams.items()}


def _estimate_mode(mode: str, block, models, gamma):
    """Estimate a link mode on every trial of the block.

    models is _path_models' output for the block, holding at least the
    mode's group.  Each trial's scene is normalized to path coefficients d
    on the mode's group of paths, and the BLUE of A = S Diag(d) is read
    off the group's Q_g = L L^H and the factor every mode on the group
    shares (estimator._path_factor, _blue_scaled): nmse = ||(L^-H z) / d||
    / ||alpha||, crb_trace = sum_i (Q^-1)_ii / |d_i|^2 and mse = crb_trace /
    norm**2, and only a trial whose trace bound is not cleared has its Gram
    D^H Q D formed.  Returns (records, cause, cond): records is (3, T),
    holding nmse, mse and crb_trace, nan where the BLUE refuses the trial,
    and cause and cond are the screen's cause codes and condition numbers,
    from which estimator._refusal builds a refused trial's error.  gamma,
    one value or one per trial, enters the direct link's normalization; an
    elementwise root gives every trial the bits its scalar's does.
    """
    if mode == "los_only":
        h_los, truth = block["h_los"], block["alpha_los"]
        root = np.sqrt(gamma)
        gain = np.abs(truth * h_los)
        coef, norms, truth = (h_los * root / gain)[:, None], gain / root, truth[:, None]
    else:
        raw, truth = block["csi"][mode], block["alpha"]
        norms = np.abs(_project(truth, raw))
        coef = raw / norms[:, None]
    q, factor = models[_mode_group(mode)]
    err, trace, cause, cond = _blue_scaled(q, factor, coef)
    records = np.stack([_error_nmse(truth, err), trace / norms**2, trace])
    return records, cause, cond


def run_trial(scenario: Scenario, trial_index: int, axis_index: int = 0) -> TrialRecord:
    """Generate one trial and estimate it under the scenario's link mode.

    This is a block of one row (_evaluate_block): a trial's records do not
    depend on its block, so they are the bits a sweep records for it.
    Raises GenerationError where the trial's scene is degenerate
    (_draw_block) and the refusal's SingularModelError where the BLUE
    refuses it.
    """
    records, cause, cond = _evaluate_block(scenario, (scenario.link_mode,), axis_index,
                                           [trial_index], np.array([scenario.gamma]),
                                           np.array([scenario.sigma2]))
    if cause[0] == UNDRAWN:
        raise GenerationError("scene is degenerate")
    if cause[0] != CLEARED:
        raise _refusal(cause[0], cond[0])
    nmse, mse, crb_trace = records[0, :, 0].tolist()
    return TrialRecord(nmse=nmse, mse=mse, crb_trace=crb_trace)


def _evaluate_block(template: Scenario, modes, axis, trials, gamma, sigma2):
    """Records of the link modes on a block of rows, (modes, 3, rows), and each row's refusal.

    Row r is trial trials[r] of axis point axis[r], or of axis itself when
    it is an int.  Every field of `template` but link_mode applies; the
    rows' points differ only in gamma and sigma2, given one per row, so one
    draw and one _path_models serve them all, with each row's own sigma2
    and gamma: each group of paths' Q_g is formed and factored once for
    every mode on it.  Every mode runs on every drawn row.  A row is
    excluded, nan in every mode, when its scene is degenerate, so not drawn
    (_draw_block), or the BLUE refuses it in any mode, where run_trial
    would raise a NumericalError; no exception is built for it.  Returns
    (records, cause, cond): cause (int8) is UNDRAWN, or the screen's code
    of the first mode that refused the row, and CLEARED for a row kept;
    cond is that mode's screened condition number, nan for a row kept or
    undrawn.
    """
    trials = np.asarray(trials)
    out = np.full((len(modes), 3, trials.size), np.nan)
    cause = np.full(trials.size, UNDRAWN, np.int8)
    cond = np.full(trials.size, np.nan)
    block = _draw_block(template, axis, trials)
    drawn = block["drawn"]
    if drawn.size == 0:
        return out, cause, cond
    if drawn.size < trials.size:
        gamma, sigma2 = gamma[drawn], sigma2[drawn]
    models = _path_models(block, template._noise, sigma2, modes)
    refusal, screened = np.full(drawn.size, CLEARED, np.int8), np.full(drawn.size, np.nan)
    for mi, mode in enumerate(modes):
        out[mi][:, drawn], mode_cause, mode_cond = _estimate_mode(mode, block, models, gamma)
        first = (refusal == CLEARED) & (mode_cause != CLEARED)  # the rows this mode refuses first
        refusal[first], screened[first] = mode_cause[first], mode_cond[first]
    cause[drawn], cond[drawn] = refusal, screened
    out[:, :, cause != CLEARED] = np.nan  # a row some mode refused is kept in none
    return out, cause, cond


SWEEP_MODES = ("los_only", "nlos_random", "nlos_optimal")


@dataclass(frozen=True)
class SweepResult:
    """Aggregates for one axis sweep, one entry per (axis point, mode)."""

    axis_name: str
    axis_values: np.ndarray
    modes: tuple  # CSV-facing mode labels, e.g. "los"
    mean_nmse: dict  # label -> array over axis
    stderr_nmse: dict
    mean_crb_trace: dict
    trials_used: int  # requested per point
    included: np.ndarray  # per point, after exclusions
    excluded: np.ndarray  # per point
    # (points, 3): excluded rows by EXCLUSION_CAUSES, the scene not drawn,
    # ILL_CONDITIONED and NOT_POSITIVE_DEFINITE, each row counted under the
    # first mode that refused it
    excluded_by_cause: np.ndarray
    records: dict  # label -> field -> (points, trials) array, nan where excluded


def _block_trials(scenario: Scenario) -> int:
    """Rows per block: as many as fit BLOCK_BYTES of the block's Gram stage.

    A row is one (point, trial) of a sweep.  With white noise its Gram
    stage's two largest arrays are its reflected group's Q_g and the
    factor that becomes L^-1 in place (estimator._factor_inverse), 2 x 16
    (k + 1)^2 bytes; under noise_cov its largest is its N x (k + 1)
    steering columns, 16 N (k + 1) bytes, which _path_models drops once
    whitened.  Their whitened copy is not counted: the traced peak stays
    within about 3x BLOCK_BYTES without it, and blocks of half the rows
    made noise_cov sweeps 1.15 to 1.4 times slower.  The draw's larger
    per-row arrays, which grow with k M, run in sub-blocks of _panel_rows
    rows, so a block amortizes its one Philox, condition screen,
    _path_models and set of estimates over more rows than its panels'
    words would fit.  That gives 284 rows at the default N = 50, k = 5,
    M = 10 and nine at N = 256, k = 32, M = 64 (68 and two under
    noise_cov).  A block may span axis points: its size depends on no
    swept value, and a row's records do not depend on its block.
    """
    n, k = scenario.n, scenario.k
    if scenario.noise_cov is not None:
        return max(1, BLOCK_BYTES // (16 * n * (k + 1)))
    return max(1, BLOCK_BYTES // (2 * 16 * (k + 1) ** 2))


def _panel_rows(scenario: Scenario) -> int:
    """Rows per panel sub-block of _draw_block: as many as fit BLOCK_BYTES of a row's channel words.

    A row's channel stream holds 3 k M words (24 k M bytes) for its conj(g)
    h products, the largest array of the draw; _path_products and
    _compose_modes grow with k M too, as do the k M phase words that
    replayed panels read in place of the products.  That gives 273 rows
    at the default shape, six at N = 256, k = 32, M = 64, and one once
    k M exceeds 6826.
    """
    return max(1, BLOCK_BYTES // (24 * scenario.k * scenario.m))


def _sweep(template: Scenario, axis_name: str, axis_values, modes,
           workers: int = 1) -> SweepResult:
    """Run the named link modes over the axis; every swept value is validated up front.

    The template holds every field but the swept one and link_mode, and
    must admit each of the modes: nlos_fixed needs its fixed_theta.
    """
    values = np.asarray(list(axis_values))
    if values.dtype.kind not in "iuf":
        raise ValueError(f"{axis_name} values must be real numbers")
    values = values.astype(float)
    if values.size == 0:
        raise ValueError("axis must contain at least one value")
    if template.trials < 2:
        raise ValueError("a sweep needs trials >= 2 to estimate the spread of each point")
    # the points differ only in the swept value, checked here as an array
    # with the rule Scenario applies, so the first bad point raises what its
    # Scenario would
    P, T = values.size, template.trials
    powers = {"gamma": np.full(P, template.gamma), "sigma2": np.full(P, template.sigma2),
              axis_name: values}
    _check_powers(powers["gamma"], powers["sigma2"], modes)
    labels = tuple(MODE_LABELS[m] for m in modes)
    fields = ("nmse", "mse", "crb_trace")

    # rows are (point, trial) pairs, point-major, and a block is a run of
    # _block_trials rows, which may span points; one task per block
    step = _block_trials(template)
    tasks = []
    for lo in range(0, P * T, step):
        axis, trials = np.divmod(np.arange(lo, min(lo + step, P * T)), T)
        tasks.append((template, modes, axis, trials, powers["gamma"][axis],
                      powers["sigma2"][axis]))
    if workers > 1:
        # imported here: the pool's modules (multiprocessing, socket, ...) cost
        # every single-process run its start-up time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_evaluate_block, *zip(*tasks)))
    else:
        chunks = [_evaluate_block(*task) for task in tasks]

    # the blocks, in order, tile the rows
    table, causes, _ = (np.concatenate(parts, axis=-1) for parts in zip(*chunks))
    records = {lab: {f: table[mi, fi].reshape(P, T) for fi, f in enumerate(fields)}
               for mi, lab in enumerate(labels)}
    causes = causes.reshape(P, T)

    mean_nmse, stderr_nmse, mean_crb = {}, {}, {}
    for lab in labels:
        nm = records[lab]["nmse"]
        ok = ~np.isnan(nm)
        counts = ok.sum(axis=1)
        if np.any(counts < 2):
            raise GenerationError("an axis point lost almost all trials to exclusions")
        mean_nmse[lab] = np.nanmean(nm, axis=1)
        stderr_nmse[lab] = np.nanstd(nm, axis=1, ddof=1) / np.sqrt(counts)
        mean_crb[lab] = np.nanmean(records[lab]["crb_trace"], axis=1)
    excluded = T - (~np.isnan(records[labels[0]]["nmse"])).sum(axis=1)
    by_cause = np.stack([(causes == c).sum(axis=1) for c in EXCLUSION_CAUSES], axis=1)

    return SweepResult(
        axis_name=axis_name,
        axis_values=values,
        modes=labels,
        mean_nmse=mean_nmse,
        stderr_nmse=stderr_nmse,
        mean_crb_trace=mean_crb,
        trials_used=T,
        included=T - excluded,
        excluded=excluded,
        excluded_by_cause=by_cause,
        records=records,
    )


def sweep_gamma(template: Scenario, gamma_values, workers: int = 1) -> SweepResult:
    """NMSE and bound versus the direct-to-reflected power ratio."""
    return _sweep(template, "gamma", gamma_values, SWEEP_MODES, workers)


def sweep_noise(template: Scenario, sigma2_values, workers: int = 1) -> SweepResult:
    """NMSE and bound versus the noise power at the template's gamma."""
    if template.noise_cov is not None:
        raise ValueError("sweep_noise varies sigma2, which a template with noise_cov ignores")
    return _sweep(template, "sigma2", sigma2_values, SWEEP_MODES, workers)
