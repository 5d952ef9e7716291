"""Seeded Monte-Carlo orchestration across the three link scenarios.

Draw discipline
---------------
Every random quantity comes from a named stream seeded by the tuple
(master_seed, axis_index, trial_index, stream_id).  A given trial at a
given axis point therefore reproduces the identical waveform, Doppler
set, CSI, and noise in every link mode, so mode comparisons are paired;
and any trial can be regenerated in isolation, which keeps sweeps
bit-reproducible under any degree of parallelism.  A stream is the PCG64
generator numpy's SeedSequence of that tuple seeds; the seed words of a
whole block of streams are hashed at once by a port of SeedSequence's
uint32 hash, which gives the same words as SeedSequence itself.

Doppler convention
------------------
Doppler values are drawn in cycles per pulse on doppler_range (default
[-0.5, 0.5), the full unambiguous band) and converted to radians per
pulse for the steering vectors.  The reflected paths are redrawn until
all pairwise circular separations reach doppler_min_gap cycles (default
1/(4N), half the Rayleigh resolution).  Unresolvable paths make the
Gram matrix arbitrarily ill-conditioned, so without the separation
floor the per-axis means are dominated by rare near-singular draws and
do not stabilize at realistic trial counts.

Recorded metrics
----------------
A trial's draw composes each reflected mode's coefficients once; each
trial-mode then normalizes its scene and runs one BLUE, and all three
fields come from that one Gram factorization.
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
A sweep evaluates each axis point's trials in blocks.  The block is drawn
as stacked arrays: each of a trial's streams makes one generator call per
attempt (the values equal those of the shorter calls a lone trial would
make in turn), redraw loops run over the trials still pending, and the
arithmetic on the draws (complex Gaussian assembly, the code's exp, phase
wrapping and alignment, the Doppler separation check, noise scaling) runs
once over the block.

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
quantities gives its records.  A block holds as many trials as fit in
BLOCK_BYTES of N x K complex per stacked array, so its memory stays
bounded at large N and K.

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
Only each trial's scalar normalization on Python complex h_los and
alpha_los stays per item.  Two changes moved the last bits of the
records on purpose, each by under 1e-12 relative and no CLI output byte:
numpy's stacked Cholesky in place of per-item LAPACK calls, then K-space
estimation with the steering phase table.  tests/data/records_fixture.npz
holds the records from before the first, and the records stay within
1e-9 of them.  A trial whose draw or any mode's estimate raises a
NumericalError is excluded from every mode, as before.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import PCG64
from numpy.random.bit_generator import ISeedSequence

from .channel import (
    NLOS_FORMS,
    _same_value,
    compose_paths,
    csi_draw_size,
    split_crandn,
    split_csi,
    stack_panels,
    wrap_phase,
)
from .errors import GenerationError
from .estimator import NoiseModel, _hermitian, blue_gram, nmse_rows
from .model import check_coefficients, random_code, steering_columns
from .phaseopt import optimal_phases

LINK_MODES = ("los_only", "nlos_random", "nlos_optimal", "nlos_fixed")

# stable stream ids; appending is fine, reordering breaks reproducibility
_STREAMS = {"waveform": 0, "doppler": 1, "channel": 2, "noise": 3, "phase": 4}

RESAMPLE_BUDGET = 100

# The supported range of sigma2 and of a nonzero gamma.  Far outside it a
# scene's normalization or the noise solve under- or overflows, and every
# trial would fail or come out non-finite.
POWER_RANGE = (1e-30, 1e30)

# A block holds as many trials as fit about this many bytes of N x K
# complex per stacked array (at least one), which bounds its memory.
BLOCK_BYTES = 256 * 1024

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
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
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
        if gap < 0 or self.k * gap >= (hi - lo):
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
            dead = np.flatnonzero(~np.any(beta * np.conj(g) * h, axis=1))
            if dead.size:
                raise ValueError(
                    f"fixed_panels {dead.tolist()} have beta * conj(g) * h all zero, so their "
                    "path coefficient is zero for every phase"
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


# numpy's SeedSequence hash (bit_generator.pyx), ported to uint32 arrays
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _uint32_words(value: int):
    """A nonnegative int as SeedSequence splits it: 32-bit words, low first."""
    if value < 0:
        raise ValueError("seed key entries must be nonnegative")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_entropy(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's mix_entropy then generate_state(4, uint64) on each row.

    entropy is (n, L) uint32, one key's assembled words per row; every
    step is the reference's uint32 arithmetic applied to a column.
    """
    u32 = np.uint32
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * u32(hash_const)
        return value ^ (value >> u32(16))

    def mix(x, y):
        result = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return result ^ (result >> u32(16))

    n, length = entropy.shape
    pool = [hashmix(entropy[:, i] if i < length else np.zeros(n, u32))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    hash_const = _INIT_B
    state = np.empty((n, 8), u32)
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ u32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * u32(hash_const)
        state[:, i] = value ^ (value >> u32(16))
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _seed_states(keys) -> np.ndarray:
    """SeedSequence(key).generate_state(4, np.uint64) for each key, (len(keys), 4).

    Keys are tuples of nonnegative ints; those with the same number of
    entropy words are hashed together in one pass.
    """
    words, rows = {}, []
    for key in keys:
        row = []
        for v in key:
            if v not in words:
                words[v] = _uint32_words(v)
            row += words[v]
        rows.append(row)
    states = np.empty((len(rows), 4), np.uint64)
    by_length = {}
    for i, row in enumerate(rows):
        by_length.setdefault(len(row), []).append(i)
    for idx in by_length.values():
        states[idx] = _hash_entropy(np.array([rows[i] for i in idx], dtype=np.uint32))
    return states


class _HashedSeed(ISeedSequence):
    """Seed words hashed in advance; PCG64 asks for generate_state(4, uint64)."""

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _draw_block(scenario: Scenario, axis_index: int, trials) -> dict:
    """Everything random in a block of trials; identical for every link mode.

    Trial t draws from the streams keyed (master_seed, axis_index, t,
    stream id), the waveform from trial 0's when frozen.  Each stream
    makes one generator call per attempt, and all arithmetic on the
    draws runs once over the stacked trials.  Dopplers are redrawn while
    two reflected paths sit closer than the gap on the circle; a scene is
    redrawn while alpha_los * h_los or alpha^T c of any reflected mode is
    exactly zero, so all link modes accept or reject identical draws and
    pairing is preserved.  Phases are wrapped as often as the panel path
    wraps them: once on fixed_theta and on the random phases, and once
    more on optimal_phases' already wrapped output.

    Returns a dict over the drawn trials, in order: "drawn" their
    positions in `trials`, "x" the (T, N) codes, "u" the (T, k + 1)
    Dopplers in cycles (the direct path's first), "h_los" and
    "alpha_los" lists of complex, "alpha" (T, k),
    "csi" mapping nlos_random, nlos_optimal and, with fixed_theta,
    nlos_fixed to the (T, k) raw composed coefficients, and "w" the (T, N)
    noise.  "failed" maps the other positions to the GenerationError that
    excluded them.
    """
    trials = list(trials)
    if axis_index < 0 or min(trials, default=0) < 0:
        raise ValueError("indices must be nonnegative")
    n, k, m = scenario.n, scenario.k, scenario.m
    frozen = _STREAMS["waveform"] if scenario.freeze_waveform else None
    keys = [
        (scenario.master_seed, axis_index, 0 if sid == frozen else t, sid)
        for t in trials for sid in _STREAMS.values()
    ]
    states = _seed_states(keys).reshape(len(trials), len(_STREAMS), 4)
    rngs = {
        name: [np.random.Generator(PCG64(_HashedSeed(s))) for s in states[:, col]]
        for col, name in enumerate(_STREAMS)
    }
    failed = {}

    lo, hi = scenario.doppler_range
    span, gap = hi - lo, scenario.min_gap_cycles
    u = np.array([rng.uniform(lo, hi, 1 + k) for rng in rngs["doppler"]]).reshape(-1, 1 + k)
    # a single path, or no gap, is always separated
    todo = np.arange(len(trials)) if k > 1 and gap > 0 else np.arange(0)
    for attempt in range(RESAMPLE_BUDGET):
        if attempt:
            u[todo, 1:] = [rngs["doppler"][j].uniform(lo, hi, k) for j in todo]
        srt = np.sort(u[todo, 1:], axis=1)
        wrap = srt[:, 0] + span - srt[:, -1]  # the interval is a circle for phases
        todo = todo[np.minimum(np.diff(srt, axis=1).min(axis=1, initial=np.inf), wrap) < gap]
        if todo.size == 0:
            break
    for j in todo.tolist():
        failed[j] = GenerationError("no sufficiently separated Doppler set within budget")

    h_los = np.zeros(len(trials), complex)
    alpha_los = np.zeros(len(trials), complex)
    alpha = np.zeros((len(trials), k), complex)
    csi = {}
    todo = np.array([j for j in range(len(trials)) if j not in failed], dtype=int)
    for _ in range(RESAMPLE_BUDGET):
        if todo.size == 0:
            break
        if scenario.fixed_panels is not None:
            z = np.array([rngs["channel"][j].standard_normal(2 * k + 4) for j in todo])
            hl, al, al_los = split_crandn(z, 1, k, 1)
            g, h, beta = scenario._panel_csi
        else:
            z = np.array([rngs["channel"][j].standard_normal(csi_draw_size(m, k)) for j in todo])
            hl, g, h, al, al_los = split_csi(z, m, k)
            beta = np.ones((k, m))
        hl, al_los = hl[:, 0], al_los[:, 0]
        random_theta = np.array([rngs["phase"][j].uniform(0.0, 2.0 * np.pi, (k, m)) for j in todo])
        thetas = {"nlos_random": wrap_phase(random_theta),
                  "nlos_optimal": wrap_phase(optimal_phases(g, h))}
        if scenario._theta is not None:
            thetas["nlos_fixed"] = scenario._theta
        composed = {
            mode: np.broadcast_to(compose_paths(g, h, theta, beta, scenario.nlos_form),
                                  (todo.size, k))
            for mode, theta in thetas.items()
        }
        # the direct product in Python complex per trial, alpha^T c per mode
        ok = np.array([a * b != 0 for a, b in zip(hl.tolist(), al_los.tolist())], dtype=bool)
        for c in composed.values():
            ok &= _project(al, c) != 0
        done = todo[ok]
        h_los[done], alpha_los[done], alpha[done] = hl[ok], al_los[ok], al[ok]
        for mode, c in composed.items():
            csi.setdefault(mode, np.zeros((len(trials), k), complex))[done] = c[ok]
        todo = todo[~ok]
    for j in todo.tolist():
        failed[j] = GenerationError("scene still degenerate after resample budget")

    drawn = np.array([j for j in range(len(trials)) if j not in failed], dtype=int)
    z = np.array([rngs["noise"][j].standard_normal(2 * n) for j in drawn]).reshape(-1, 2 * n)
    (w,) = split_crandn(z, n)
    if scenario.noise_cov is None:
        w = np.sqrt(scenario.sigma2) * w
    else:  # L w per trial, R = L L^H; one matrix-vector product each
        w = (scenario._noise._chol @ w[..., None])[..., 0]
    x = random_code(n, [rngs["waveform"][j] for j in drawn])
    return {
        "drawn": drawn,
        "x": x,
        "u": u[drawn],
        "h_los": h_los[drawn].tolist(),
        "csi": {mode: c[drawn] for mode, c in csi.items()},
        "alpha": alpha[drawn],
        "alpha_los": alpha_los[drawn].tolist(),
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
    q = _hermitian(steer.conj().swapaxes(-1, -2) @ ris)
    v = (ris.conj().swapaxes(-1, -2) @ block["w"][..., None])[..., 0]
    return q, v


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
        root = np.sqrt(scenario.gamma)
        coef, norms, truth = [], [], []
        for i in rows:
            h_los, alpha_los = block["h_los"][i], block["alpha_los"][i]
            gain = abs(alpha_los * h_los)
            coef.append([complex(h_los * root / gain)])
            norms.append(gain / root)
            truth.append([alpha_los])
        coef, truth = np.array(coef), np.array(truth)
        paths = slice(0, 1)
    else:
        raw, truth = block["csi"][scenario.link_mode][rows], block["alpha"][rows]
        norms = [abs(v) for v in _project(truth, raw).tolist()]
        coef = raw / np.array(norms)[:, None]
        paths = slice(1, None)
    check_coefficients(coef)
    q, v = q[rows][:, paths, paths], v[rows][:, paths]
    coef_h = coef.conj()
    gram = _hermitian(coef_h[:, :, None] * q * coef[:, None, :])
    b = coef_h * ((q @ (coef * truth)[..., None])[..., 0] + v)
    alpha_hat, mse, errors, _ = blue_gram(gram, b)
    records = np.full((3, len(rows)), np.nan)
    ok = np.array([e is None for e in errors], dtype=bool)
    records[0, ok] = nmse_rows(truth[ok], alpha_hat[ok])
    # the per-trial scaling stays scalar arithmetic, as in a single trial
    records[1] = [m / norm**2 for m, norm in zip(mse.tolist(), norms)]
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


def _point_trials(args):
    """Records of one axis point's trials [trial_lo, trial_hi), block by block."""
    scenarios, axis_index, trial_lo, trial_hi = args
    s = scenarios[0]
    step = max(1, BLOCK_BYTES // (16 * s.n * s.k))
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
