"""Seeded Monte-Carlo orchestration across the three link scenarios.

Draw discipline
---------------
Every random word comes from numpy's counter-based Philox (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011) keyed by
(master_seed, axis_index): trial t's B 4-word blocks of a stream sit at
the counters (t * B + j, stream id, scene attempt, 0), j = 1..B, B fixed
by the stream's word count.  A given trial at a given axis point
therefore reproduces the identical waveform, Doppler set, CSI, and
noise in every link mode, so mode comparisons are paired; and any trial
can be regenerated in isolation, which keeps sweeps bit-reproducible
under any degree of parallelism.  A uniform is a word's top 53 bits
times 2^-53; a complex Gaussian takes two words, for its modulus
sqrt(-ln(1 - u)) and its angle 2 pi u.

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
stabilize at realistic trial counts.

Recorded metrics
----------------
A trial's draw composes each reflected mode's coefficients once; each
trial-mode then normalizes its scene and runs one BLUE, and all three
fields come from that one Gram factorization.  The same factor screens
the Gram's conditioning: eigvalsh runs only for a Gram whose bound
Tr(G) Tr(G^-1) the factor does not clear (estimator.TRACE_BOUND_MARGIN).
nmse       against the trial's true reflectivities, on the normalized
           scene (direct power gamma, reflected power 1).
crb_trace  Tr((A^H R^-1 A)^-1), the BLUE covariance trace on the
           normalized scene, read off the Gram's Cholesky factor as
           ||L^-1||_F^2 without forming the covariance.  For the linear
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
A sweep evaluates each axis point's trials in blocks.  Consecutive
trials' counter ranges are contiguous, so each stream of a block is one
random_raw call; the scene redraw runs over the trials still pending,
and all arithmetic on the words runs once over the block.

Estimation then runs in K-space.  Every link mode of a trial shares the
code x, the Dopplers and the noise w; only the path coefficients differ,
so a mode's model is A = S Diag(d), where S = Diag(x) P(nu) holds the
steering columns of all 1 + k paths and d the mode's normalized
coefficients.  Once per block, with the point's noise model, which all
its modes share, the steering Gram Q = S^H R^-1 S and v = S^H R^-1 w are
formed; this is the only work on N-vectors after the draw.  Each mode
then takes its paths' part of Q and v (entry [0, 0] for the direct link,
block [1:, 1:] for the reflected ones) and with D = Diag(d) has Gram
D^H Q D = A^H R^-1 A and matched filter D^H (Q D alpha + v) = A^H R^-1 y,
so neither A nor y is formed, and one stacked BLUE on those K x K
quantities gives its records.

A block holds as many trials as its largest complex stack fits in
BLOCK_BYTES (_block_trials): a trial counts 16 max(N (k + 1), k M) bytes,
its N x (k + 1) steering columns or its k x M panel draws, whichever is
larger.  No stage holds more than two steering-sized arrays of a trial
(S and R^-1 S, each conjugated in place once spent) or about eight
panel-sized ones (the channel words and the steps that turn them into
normals, which write into arrays they read), so a block's memory stays
within a small multiple of BLOCK_BYTES at any N, k and M.

A trial's records do not depend on the block it lands in, so they are
the same bits as evaluating it alone with run_trial, whatever the block
size or worker count.  The stacked steps are only those that apply the
same kernel to every item: elementwise ufuncs, stacked matmul and
np.vecdot (one BLAS call per item, the same dot np.vdot, a 1-D @ and
np.linalg.norm make on one item), and numpy's stacked eigvalsh,
cholesky and inv (one LAPACK call per item).  That covers each panel
row's coefficient, each trial's alpha^T c zero check and normalization
norm, the colouring of the noise with a full noise_cov, the steering
table, the steering Gram, the Cholesky factorization and the NMSE norms.
Replacing per-trial PCG64 streams by the Philox ranges above redrew
every record: each mean NMSE stays within 4 standard errors of the
moments in tests/data/moments_fixture.npz, recorded before it, and
tests/data/records_fixture.npz holds the new records, which later
engines keep within 1e-9.  A trial whose draw or any mode's estimate
raises a NumericalError is excluded from every mode, as before.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

import numpy as np
from numpy.random import Philox

from .channel import NLOS_FORMS, _same_value, compose_paths, stack_panels, wrap_phase
from .errors import GenerationError
from .estimator import NoiseModel, _hermitian, blue_gram, nmse_rows
from .model import check_coefficients, random_code, steering_columns
from .phaseopt import optimal_phases

LINK_MODES = ("los_only", "nlos_random", "nlos_optimal", "nlos_fixed")

# stable stream ids; appending is fine, reordering breaks reproducibility
_STREAMS = {"waveform": 0, "doppler": 1, "channel": 2, "noise": 3, "phase": 4}

RESAMPLE_BUDGET = 100

# master seeds lie in [0, SEED_BOUND): a stream's key holds the seed as one
# unsigned 64-bit word
SEED_BOUND = 2**64

# The supported range of sigma2 and of a nonzero gamma.  Far outside it a
# scene's normalization or the noise solve under- or overflows, and every
# trial would fail or come out non-finite.
POWER_RANGE = (1e-30, 1e30)

# A block holds as many trials as fit this many bytes of its largest
# stacked complex array, and at least one; see _block_trials.  A block's
# traced peak is about 2x this at large N and 8x at large M.
BLOCK_BYTES = 512 * 1024

MODE_LABELS = {
    "los_only": "los",
    "nlos_random": "nlos_random",
    "nlos_optimal": "nlos_optimal",
    "nlos_fixed": "nlos_fixed",
}


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
    doppler_range: tuple = (-0.5, 0.5)  # cycles per pulse
    doppler_min_gap: float = None  # cycles; None means 1/(4n)
    freeze_waveform: bool = False
    fixed_theta: tuple = None  # k phase vectors of length m; required for link_mode="nlos_fixed"
    fixed_panels: tuple = None  # CSI replay; overrides the panel draw
    noise_cov: np.ndarray = None  # full N x N covariance; overrides sigma2

    def __post_init__(self):
        if min(self.n, self.k, self.m, self.trials) < 1:
            raise ValueError("n, k, m, trials must be positive")
        if self.k > self.n:
            raise ValueError("k must not exceed n")
        lo, hi = POWER_RANGE
        if not lo <= self.sigma2 <= hi:
            raise ValueError(f"sigma2 must lie in [{lo:g}, {hi:g}]")
        if not (self.gamma == 0 or lo <= self.gamma <= hi):
            raise ValueError(f"gamma must be 0 or lie in [{lo:g}, {hi:g}]")
        if self.link_mode == "los_only" and self.gamma == 0:
            raise ValueError("gamma must be positive for link_mode='los_only'")
        if not 0 <= self.master_seed < SEED_BOUND:
            raise ValueError("master_seed must lie in [0, 2**64)")
        if self.link_mode not in LINK_MODES:
            raise ValueError(f"unknown link mode: {self.link_mode!r}")
        if self.nlos_form not in NLOS_FORMS:
            raise ValueError(f"unknown nlos form: {self.nlos_form!r}")
        lo, hi = self.doppler_range
        if not np.all(np.isfinite((lo, hi))):
            raise ValueError("doppler_range bounds must be finite")
        if not lo < hi:
            raise ValueError("doppler_range must be a nonempty interval")
        gap = self.min_gap_cycles
        if not np.isfinite(gap):
            raise ValueError("doppler_min_gap must be finite")
        # two or more paths need room for the draw's rounding margin too
        floor = gap if self.k == 1 else _spacing_floor(lo, hi, gap)
        if gap < 0 or self.k * floor >= (hi - lo):
            raise ValueError("doppler_min_gap leaves no room for k paths")
        # the draw's phase and panel arrays, each a K x M stack; not fields,
        # so kept out of eq and repr like _noise below
        theta = None
        if self.fixed_theta is not None:
            thetas = [np.atleast_1d(np.asarray(t, dtype=float)) for t in self.fixed_theta]
            sizes = sorted({t.size for t in thetas})
            if len(thetas) != self.k or sizes != [self.m]:
                raise ValueError(
                    f"fixed_theta has {len(thetas)} theta vectors of length "
                    f"{'/'.join(map(str, sizes))}; the scenario needs k={self.k} of m={self.m}"
                )
            if not np.all(np.isfinite(thetas)):
                raise ValueError("fixed_theta has non-finite entries")
            theta = wrap_phase(np.stack(thetas))
        object.__setattr__(self, "_theta", theta)
        if self.link_mode == "nlos_fixed" and self.fixed_theta is None:
            raise ValueError("nlos_fixed requires fixed_theta")
        panel_csi = None
        if self.fixed_panels is not None:
            panels = tuple(self.fixed_panels)
            if len(panels) != self.k or any(p.m != self.m for p in panels):
                raise ValueError("fixed panels must match k and m")
            object.__setattr__(self, "fixed_panels", panels)
            panel_csi = stack_panels(panels)
            g, h, beta = panel_csi
            # the path power at the aligning phases; a product past the
            # float range is far outside POWER_RANGE either way
            with np.errstate(over="ignore"):
                aligned = np.sum(beta * np.abs(g) * np.abs(h), axis=1) ** 2
            lo, hi = POWER_RANGE
            bad = np.flatnonzero(~((lo <= aligned) & (aligned <= hi)))
            if bad.size:
                raise ValueError(
                    f"fixed_panels {bad.tolist()} have aligned path power "
                    f"(sum_m beta_m |g_m h_m|)^2 of {', '.join(f'{p:.3g}' for p in aligned[bad])}, "
                    f"outside [{lo:g}, {hi:g}]"
                )
        object.__setattr__(self, "_panel_csi", panel_csi)
        if self.noise_cov is None:
            noise = NoiseModel.scaled_identity(self.sigma2, self.n)
        else:
            R = np.asarray(self.noise_cov, dtype=complex)
            if R.shape != (self.n, self.n):
                raise ValueError("noise_cov must be n x n")
            if not np.all(np.isfinite(R)):
                raise ValueError("noise_cov entries must be finite")
            lam = np.linalg.eigvalsh(R)
            lo, hi = POWER_RANGE
            if not (lo <= lam[0] and lam[-1] <= hi):
                raise ValueError(f"noise_cov eigenvalues must lie in [{lo:g}, {hi:g}]")
            object.__setattr__(self, "noise_cov", R)
            noise = NoiseModel(covariance=R)
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


def _stream_words(bitgen, state, stream: str, trials, count: int, attempt: int = 0):
    """The first `count` words of a stream for each trial, (len(trials), count).

    state is bitgen's fresh state; numpy's Philox advances the counter
    before each block, so setting it to (t * B, ...) starts trial t's
    range, and each run of consecutive trials is one random_raw call.
    """
    width = -(-count // 4)  # B
    t = np.asarray(trials, dtype=np.uint64)
    out = np.empty((t.size, 4 * width), np.uint64)
    edges = [0, *(np.flatnonzero(np.diff(t) != 1) + 1).tolist(), t.size]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > lo:
            counter = [int(t[lo]) * width, _STREAMS[stream], attempt, 0]
            state["state"]["counter"] = np.array(counter, np.uint64)
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
    The index and turn arrays are reused, and each array is freed once
    spent, so the chain holds one complex array besides its result.
    """
    coarse, fine = _turn_tables()
    v = words >> np.uint64(11)
    i = v >> np.uint64(43)
    out = coarse[i]
    np.right_shift(v, np.uint64(33), out=i)
    i &= np.uint64(1023)
    turn = fine[i]
    del i
    out *= turn
    v &= np.uint64(2**33 - 1)
    d = v * (2.0 * np.pi * 2.0**-53)
    del v
    half = d * d
    half *= 0.5
    turn.real = np.subtract(1.0, half, out=half)
    turn.imag = d
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


def _draw_block(scenario: Scenario, axis_index: int, trials) -> dict:
    """Everything random in a block of trials; identical for every link mode.

    Trial t reads its counter ranges (see the module docstring), the
    waveform trial 0's when frozen.  A scene is redrawn, on the next
    attempt's counters of the channel and phase streams, while
    alpha_los * h_los or alpha^T c of any reflected mode is exactly zero,
    so all link modes accept or reject identical draws and pairing is
    preserved.  Phases are wrapped as often as the panel path wraps them:
    once on fixed_theta and on the random phases, and once more on
    optimal_phases' already wrapped output.

    Returns a dict over the drawn trials, in order: "drawn" their
    positions in `trials`, "x" the (T, N) codes, "u" the (T, k + 1)
    Dopplers in cycles (the direct path's first), "h_los" and
    "alpha_los" (T,), "alpha" (T, k), "csi" mapping nlos_random,
    nlos_optimal and, with fixed_theta, nlos_fixed to the (T, k) raw
    composed coefficients, and "w" the (T, N) noise.  "failed" maps the other positions to the GenerationError that
    excluded them.
    """
    trials = list(trials)
    if axis_index < 0 or min(trials, default=0) < 0:
        raise ValueError("indices must be nonnegative")
    n, k, m = scenario.n, scenario.k, scenario.m
    bitgen = Philox(key=np.array([scenario.master_seed, axis_index], np.uint64))
    state = bitgen.state

    def words(stream, count, rows=trials, attempt=0):
        return _stream_words(bitgen, state, stream, rows, count, attempt)

    lo, hi = scenario.doppler_range
    u = _dopplers(_uniforms(words("doppler", 2 * k + 1)), lo, hi, k, scenario.min_gap_cycles)

    fixed = scenario.fixed_panels is not None
    sizes = (1, k, 1) if fixed else (1, k * m, k * m, k, 1)
    h_los = np.zeros(len(trials), complex)
    alpha_los = np.zeros(len(trials), complex)
    alpha = np.zeros((len(trials), k), complex)
    csi = {}
    todo = np.arange(len(trials))
    for attempt in range(RESAMPLE_BUDGET):
        if todo.size == 0:
            break
        rows = [trials[j] for j in todo]
        z = _complex_normals(words("channel", 2 * sum(sizes), rows, attempt))
        parts = np.split(z, np.cumsum(sizes)[:-1], axis=1)
        if fixed:
            hl, al, al_los = parts
            g, h, beta = scenario._panel_csi
        else:
            hl, g, h, al, al_los = parts
            g, h, beta = g.reshape(-1, k, m), h.reshape(-1, k, m), np.ones((k, m))
        hl, al_los = hl[:, 0], al_los[:, 0]
        random_theta = 2.0 * np.pi * _uniforms(words("phase", k * m, rows, attempt))
        thetas = {"nlos_random": wrap_phase(random_theta.reshape(-1, k, m)),
                  "nlos_optimal": wrap_phase(optimal_phases(g, h))}
        if scenario._theta is not None:
            thetas["nlos_fixed"] = scenario._theta
        composed = {
            mode: np.broadcast_to(compose_paths(g, h, theta, beta, scenario.nlos_form),
                                  (todo.size, k))
            for mode, theta in thetas.items()
        }
        ok = hl * al_los != 0
        for c in composed.values():
            ok &= _project(al, c) != 0
        done = todo[ok]
        h_los[done], alpha_los[done], alpha[done] = hl[ok], al_los[ok], al[ok]
        for mode, c in composed.items():
            csi.setdefault(mode, np.zeros((len(trials), k), complex))[done] = c[ok]
        todo = todo[~ok]
    failed = {j: GenerationError("scene still degenerate after resample budget")
              for j in todo.tolist()}

    kept = np.ones(len(trials), dtype=bool)
    kept[todo] = False
    drawn = np.flatnonzero(kept)
    w = _complex_normals(words("noise", 2 * n))[drawn]
    if scenario.noise_cov is None:
        w = np.sqrt(scenario.sigma2) * w
    else:  # L w per trial, R = L L^H; one matrix-vector product each
        w = (scenario._noise._chol @ w[..., None])[..., 0]
    code = _uniforms(words("waveform", n, [0] if scenario.freeze_waveform else trials))
    x = random_code(2.0 * np.pi * np.broadcast_to(code, (len(trials), n))[drawn])
    return {
        "drawn": drawn,
        "x": x,
        "u": u[drawn],
        "h_los": h_los[drawn],
        "csi": {mode: c[drawn] for mode, c in csi.items()},
        "alpha": alpha[drawn],
        "alpha_los": alpha_los[drawn],
        "w": w,
        "failed": failed,
    }


def _project(alpha: np.ndarray, c: np.ndarray) -> np.ndarray:
    """alpha^T c of each trial row, one BLAS dot per row as alpha[t] @ c[t]."""
    return (alpha[:, None, :] @ c[:, :, None])[:, 0, 0]


def _steering_gram(block, noise: NoiseModel):
    """Q = S^H R^-1 S and v = S^H R^-1 w of each trial in the block.

    S = Diag(x) P(nu) holds the steering columns of all k + 1 paths, the
    direct one first, so Q is (T, k + 1, k + 1) Hermitian and v (T, k + 1).
    Every link mode's model is A = S Diag(c) on its paths, so its Gram
    A^H R^-1 A and matched filter A^H R^-1 (A alpha + w) follow from Q and
    v alone; see _estimate_mode.
    """
    steer = steering_columns(block["x"], 2.0 * np.pi * block["u"])  # cycles -> radians
    ris = noise.solve(steer)
    # S and R^-1 S are conjugated in place once spent as they are, and
    # dropped before the Hermitian part is taken, so the block holds two
    # (T, N, k + 1) arrays at most
    q = np.conjugate(steer, out=steer).swapaxes(-1, -2) @ ris
    v = (np.conjugate(ris, out=ris).swapaxes(-1, -2) @ block["w"][..., None])[..., 0]
    del steer, ris
    return _hermitian(q), v


def _estimate_mode(scenario: Scenario, block, q, v, rows):
    """Estimate the scenario's link mode on the block's trials at `rows`.

    q and v are _steering_gram's output for the whole block.  Each trial's
    scene is normalized to path coefficients d, and with D = Diag(d) on
    the mode's paths (entry [0, 0] of q for the direct link, block
    [1:, 1:] for the reflected ones) its Gram is D^H Q D and its matched
    filter D^H (Q D alpha + v).  One stacked BLUE on those gives every
    metric.  Returns (records, errors): records is (3, len(rows)) holding
    nmse, mse and crb_trace (nan where singular), errors[i] is None or the
    SingularModelError of rows[i].
    """
    if scenario.link_mode == "los_only":
        h_los, truth = block["h_los"][rows], block["alpha_los"][rows]
        check_coefficients(h_los)
        root = np.sqrt(scenario.gamma)
        gain = np.abs(truth * h_los)
        coef, norms, truth = (h_los * root / gain)[:, None], gain / root, truth[:, None]
        paths = slice(0, 1)
    else:
        raw, truth = block["csi"][scenario.link_mode][rows], block["alpha"][rows]
        check_coefficients(raw)
        norms = np.abs(_project(truth, raw))
        coef = raw / norms[:, None]
        paths = slice(1, None)
    q, v = q[rows][:, paths, paths], v[rows][:, paths]
    coef_h = coef.conj()
    gram = _hermitian(coef_h[:, :, None] * q * coef[:, None, :])
    b = coef_h * ((q @ (coef * truth)[..., None])[..., 0] + v)
    alpha_hat, mse, errors, _ = blue_gram(gram, b)
    records = np.full((3, len(rows)), np.nan)
    ok = np.array([e is None for e in errors], dtype=bool)
    records[0, ok] = nmse_rows(truth[ok], alpha_hat[ok])
    records[1] = mse / norms**2
    records[2] = mse
    return records, errors


def run_trial(scenario: Scenario, trial_index: int, axis_index: int = 0) -> TrialRecord:
    """Generate one trial and estimate it under the scenario's link mode."""
    block = _draw_block(scenario, axis_index, [trial_index])
    if block["failed"]:
        raise block["failed"][0]
    q, v = _steering_gram(block, scenario._noise)
    records, errors = _estimate_mode(scenario, block, q, v, np.arange(1))
    if errors[0] is not None:
        raise errors[0]
    nmse, mse, crb_trace = records[:, 0].tolist()
    return TrialRecord(nmse=nmse, mse=mse, crb_trace=crb_trace)


def _evaluate_block(scenarios, axis_index: int, trials: range) -> np.ndarray:
    """Records of every scenario on a block of trials, (modes, 3, trials).

    Every scenario is one axis point's, so they share its noise model, and
    one steering Gram serves all of their modes.  A trial is excluded, nan
    in every mode, when its draw or any mode's estimate raises a
    NumericalError.  Modes run in order and each only on the trials the
    earlier ones kept, so a ValueError surfaces exactly where evaluating
    the trials one at a time would raise it.
    """
    out = np.full((len(scenarios), 3, len(trials)), np.nan)
    block = _draw_block(scenarios[0], axis_index, trials)
    drawn = block["drawn"]
    if drawn.size == 0:
        return out
    q, v = _steering_gram(block, scenarios[0]._noise)
    kept = np.arange(drawn.size)
    records = np.full((len(scenarios), 3, drawn.size), np.nan)
    for mi, scenario in enumerate(scenarios):
        recs, errors = _estimate_mode(scenario, block, q, v, kept)
        records[mi][:, kept] = recs
        kept = kept[[e is None for e in errors]]
        if kept.size == 0:
            return out
    out[:, :, drawn[kept]] = records[:, :, kept]
    return out


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
    records: dict  # label -> field -> (points, trials) array, nan where excluded


def _block_trials(scenario: Scenario) -> int:
    """Trials per block: as many as fit BLOCK_BYTES of the block's largest complex array.

    A trial's largest arrays are its N x (k + 1) steering columns and its
    k x M panel draws, so it counts 16 max(N (k + 1), k M) bytes: 109
    trials at the default N = 50, k = 5, M = 10, three at N = 256, k = 32,
    M = 64, and one once k M exceeds 16384.
    """
    n, k, m = scenario.n, scenario.k, scenario.m
    return max(1, BLOCK_BYTES // (16 * max(n * (k + 1), k * m)))


def _point_trials(args):
    """Records of one axis point's trials [trial_lo, trial_hi), block by block."""
    scenarios, axis_index, trial_lo, trial_hi = args
    step = _block_trials(scenarios[0])
    return np.concatenate([
        _evaluate_block(scenarios, axis_index, range(lo, min(lo + step, trial_hi)))
        for lo in range(trial_lo, trial_hi, step)
    ], axis=2)


def _sweep(template: Scenario, axis_name: str, axis_values, modes,
           workers: int = 1) -> SweepResult:
    """Run the link modes over the axis; every Scenario is validated up front."""
    values = np.asarray(list(axis_values), dtype=float)
    if values.size == 0:
        raise ValueError("axis must contain at least one value")
    if template.trials < 2:
        raise ValueError("a sweep needs trials >= 2 to estimate the spread of each point")
    points = [
        [replace(template, link_mode=mode, **{axis_name: float(v)}) for mode in modes]
        for v in values
    ]
    labels = tuple(MODE_LABELS[m] for m in modes)
    P, T = values.size, template.trials
    fields = ("nmse", "mse", "crb_trace")
    records = {lab: {f: np.full((P, T), np.nan) for f in fields} for lab in labels}

    tasks = [
        (scenarios, i, lo, min(lo + 250, T))
        for i, scenarios in enumerate(points)
        for lo in range(0, T, 250)
    ]
    if workers > 1:
        # imported here: the pool's modules (multiprocessing, socket, ...) cost
        # every single-process run its start-up time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_point_trials, tasks))
    else:
        chunks = [_point_trials(t) for t in tasks]

    for (_, i, lo, hi), chunk in zip(tasks, chunks):
        for lab, recs in zip(labels, chunk):
            for f, vals in zip(fields, recs):
                records[lab][f][i, lo:hi] = vals

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
