"""Seeded Monte-Carlo orchestration across the three link scenarios.

Draw discipline
---------------
Every random quantity comes from a named stream seeded by the tuple
(master_seed, axis_index, trial_index, stream_id).  A given trial at a
given axis point therefore reproduces the identical waveform, Doppler
set, CSI, and noise in every link mode, so mode comparisons are paired;
and any trial can be regenerated in isolation, which keeps sweeps
bit-reproducible under any degree of parallelism.

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
           normalized scene.  For the linear Gaussian model this equals
           Tr(C_CRB), the bound the NMSE curves are held against.
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
A sweep evaluates each axis point's trials in blocks.  Every trial is
still drawn on its own, from its own streams, with the same generator
calls in the same order and the same redraw loops; the draws are arrays,
not panel or waveform objects.  The block's draws are then stacked, and
each link mode normalizes the block and runs one stacked pass: sensing
columns, Gram, condition check and BLUE for all of its trials at once.
A block holds as many trials as fit in BLOCK_BYTES of N x K complex per
stacked array, so its memory stays bounded at large N and K.

A trial's records do not depend on the block it lands in, so they are
the same bits as evaluating it alone with run_trial, whatever the block
size or worker count.  The stacked steps are only those that apply the
same kernel to every item: elementwise ufuncs, stacked matmul (one BLAS
call per item) and np.linalg.cond (one LAPACK call per item).  The
Cholesky factorizations and solves run one trial at a time, and each
trial's normalization stays scalar arithmetic, because their vectorized
forms round differently.  A trial whose draw or any mode's estimate
raises a NumericalError is excluded from every mode, as before.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channel import NLOS_FORMS, compose_paths, crandn, draw_csi_arrays, wrap_phase
from .errors import GenerationError, NumericalError
from .estimator import NoiseModel, blue_stack, nmse_rows
from .model import random_code, sensing_columns
from .phaseopt import PhasePolicy, optimal_phases

LINK_MODES = ("los_only", "nlos_random", "nlos_optimal", "nlos_fixed")

# stable stream ids; appending is fine, reordering breaks reproducibility
_STREAMS = {"waveform": 0, "doppler": 1, "channel": 2, "noise": 3, "phase": 4}

RESAMPLE_BUDGET = 100

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
    phase_policy: PhasePolicy = None  # fixed phases; required for link_mode="nlos_fixed"
    fixed_panels: tuple = None  # CSI replay; overrides the panel draw
    noise_cov: np.ndarray = None  # full N x N covariance; overrides sigma2

    def __post_init__(self):
        if min(self.n, self.k, self.m, self.trials) < 1:
            raise ValueError("n, k, m, trials must be positive")
        if self.k > self.n:
            raise ValueError("k must not exceed n")
        if not 0 < self.sigma2 < np.inf:
            raise ValueError("sigma2 must be positive and finite")
        if not 0 <= self.gamma < np.inf:
            raise ValueError("gamma must be nonnegative and finite")
        if self.link_mode == "los_only" and self.gamma == 0:
            raise ValueError("gamma must be positive for link_mode='los_only'")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.link_mode not in LINK_MODES:
            raise ValueError(f"unknown link mode: {self.link_mode!r}")
        if self.nlos_form not in NLOS_FORMS:
            raise ValueError(f"unknown nlos form: {self.nlos_form!r}")
        lo, hi = self.doppler_range
        if not lo < hi:
            raise ValueError("doppler_range must be a nonempty interval")
        gap = self.min_gap_cycles
        if gap < 0 or self.k * gap >= (hi - lo):
            raise ValueError("doppler_min_gap leaves no room for k paths")
        # the draw's phase and panel arrays, each a K x M stack; not fields,
        # so kept out of eq and repr like _noise below
        fixed_theta = None
        if self.phase_policy is not None:
            if self.phase_policy.kind != "fixed":
                raise ValueError("phase_policy must be fixed; only nlos_fixed reads it")
            thetas = self.phase_policy.fixed_theta
            sizes = sorted({t.size for t in thetas})
            if len(thetas) != self.k or sizes != [self.m]:
                raise ValueError(
                    f"fixed phase_policy has {len(thetas)} theta vectors of length "
                    f"{'/'.join(map(str, sizes))}; the scenario needs k={self.k} of m={self.m}"
                )
            fixed_theta = wrap_phase(np.stack(thetas))
        object.__setattr__(self, "_fixed_theta", fixed_theta)
        if self.link_mode == "nlos_fixed" and self.phase_policy is None:
            raise ValueError("nlos_fixed requires a fixed phase policy")
        panel_csi = None
        if self.fixed_panels is not None:
            panels = tuple(self.fixed_panels)
            if len(panels) != self.k or any(p.m != self.m for p in panels):
                raise ValueError("fixed panels must match k and m")
            object.__setattr__(self, "fixed_panels", panels)
            panel_csi = tuple(np.stack([getattr(p, f) for p in panels]) for f in ("g", "h", "beta"))
        object.__setattr__(self, "_panel_csi", panel_csi)
        noise_chol = None
        if self.noise_cov is None:
            noise = NoiseModel.scaled_identity(self.sigma2, self.n)
        else:
            R = np.asarray(self.noise_cov, dtype=complex)
            if R.shape != (self.n, self.n):
                raise ValueError("noise_cov must be n x n")
            object.__setattr__(self, "noise_cov", R)
            noise = NoiseModel(covariance=R)
            noise_chol = np.linalg.cholesky(R)  # colours the noise draw
        object.__setattr__(self, "_noise", noise)
        object.__setattr__(self, "_noise_chol", noise_chol)

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


def _stream(scenario: Scenario, axis_index: int, trial_index: int, name: str):
    key = (scenario.master_seed, axis_index, trial_index, _STREAMS[name])
    return np.random.default_rng(np.random.SeedSequence(key))


def _draw_dopplers(scenario: Scenario, rng) -> np.ndarray:
    """LoS Doppler followed by k separated reflected-path Dopplers, cycles."""
    lo, hi = scenario.doppler_range
    span = hi - lo
    gap = scenario.min_gap_cycles
    u_los = rng.uniform(lo, hi)
    for _ in range(RESAMPLE_BUDGET):
        u = rng.uniform(lo, hi, scenario.k)
        if scenario.k == 1 or gap == 0:
            return np.concatenate(([u_los], u))
        srt = np.sort(u)
        seps = np.diff(srt)
        wrap = srt[0] + span - srt[-1]  # the interval is a circle for phases
        if min(seps.min(initial=np.inf), wrap) >= gap:
            return np.concatenate(([u_los], u))
    raise GenerationError("no sufficiently separated Doppler set within budget")


def _draw_scene(scenario: Scenario, axis_index: int, trial_index: int):
    """Draw the shared raw scene and compose each reflected mode's coefficients.

    Returns (h_los, csi, alpha, alpha_los), where csi maps nlos_random,
    nlos_optimal and, when the scenario has a phase policy, nlos_fixed to
    that mode's raw composed coefficients.  A draw is redone while any of
    them projects to exactly zero on alpha, so all link modes accept or
    reject identical draws and pairing is preserved.  Phases are wrapped
    as often as the panel path wraps them: once on a policy's phases, and
    once more on optimal_phases' already wrapped output.
    """
    rng_c = _stream(scenario, axis_index, trial_index, "channel")
    rng_p = _stream(scenario, axis_index, trial_index, "phase")
    k, m = scenario.k, scenario.m
    for _ in range(RESAMPLE_BUDGET):
        if scenario.fixed_panels is not None:
            h_los = complex(crandn(rng_c))
            g, h, beta = scenario._panel_csi
            alpha = crandn(rng_c, k)
            alpha_los = complex(crandn(rng_c))
        else:
            h_los, g, h, alpha, alpha_los = draw_csi_arrays(m, k, rng_c)
            beta = np.ones((k, m))
        thetas = {"nlos_random": wrap_phase(rng_p.uniform(0.0, 2.0 * np.pi, (k, m)))}
        if alpha_los * h_los == 0:
            continue
        thetas["nlos_optimal"] = wrap_phase(optimal_phases(g, h))
        if scenario._fixed_theta is not None:
            thetas["nlos_fixed"] = scenario._fixed_theta
        csi = {
            mode: compose_paths(g, h, theta, beta, scenario.nlos_form)
            for mode, theta in thetas.items()
        }
        if all(alpha @ c != 0 for c in csi.values()):
            return h_los, csi, alpha, alpha_los
    raise GenerationError("scene still degenerate after resample budget")


def _draw_trial_inputs(scenario: Scenario, trial_index: int, axis_index: int):
    """Everything random in one trial; identical for every link mode.

    Returns (x, nus, scene, w): the length-N code, the k + 1 Dopplers in
    radians per pulse (the direct path's first), _draw_scene's tuple and
    the length-N noise.
    """
    if trial_index < 0 or axis_index < 0:
        raise ValueError("indices must be nonnegative")
    wf_trial = 0 if scenario.freeze_waveform else trial_index
    x = random_code(scenario.n, _stream(scenario, axis_index, wf_trial, "waveform"))
    u = _draw_dopplers(scenario, _stream(scenario, axis_index, trial_index, "doppler"))
    nus = 2.0 * np.pi * u  # cycles -> radians per pulse
    scene = _draw_scene(scenario, axis_index, trial_index)
    noise_rng = _stream(scenario, axis_index, trial_index, "noise")
    if scenario.noise_cov is None:
        w = np.sqrt(scenario.sigma2) * crandn(noise_rng, scenario.n)
    else:
        w = scenario._noise_chol @ crandn(noise_rng, scenario.n)
    return x, nus, scene, w


def _stack_draws(draws):
    """Stack per-trial draws into one block: arrays gain a leading trial axis."""
    x, nus, scenes, w = zip(*draws)
    h_los, csi, alpha, alpha_los = zip(*scenes)
    return {
        "x": np.stack(x),
        "nus": np.stack(nus),
        "h_los": h_los,
        "csi": {mode: np.stack([c[mode] for c in csi]) for mode in csi[0]},
        "alpha": np.stack(alpha),
        "alpha_los": alpha_los,
        "w": np.stack(w),
    }


def _estimate_mode(scenario: Scenario, block, rows):
    """Estimate the scenario's link mode on the block's trials at `rows`.

    Each trial's scene is normalized, then one stacked pass builds the
    sensing matrices and runs the BLUE, and every metric is read off it.
    Returns (records, errors): records is (3, len(rows)) holding nmse, mse
    and crb_trace (nan where singular), errors[i] is None or the
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
        dopplers = block["nus"][rows, :1]
    else:
        raw, truth = block["csi"][scenario.link_mode][rows], block["alpha"][rows]
        norms = [abs(complex(a @ r)) for a, r in zip(truth, raw)]
        coef = np.array([r / norm for r, norm in zip(raw, norms)])
        dopplers = block["nus"][rows, 1:]
    cols = sensing_columns(block["x"][rows], dopplers, coef)
    y = (cols @ truth[..., None])[..., 0] + block["w"][rows]
    alpha_hat, _, mse, errors = blue_stack(cols, scenario._noise, y)
    records = np.full((3, len(rows)), np.nan)
    ok = np.array([e is None for e in errors], dtype=bool)
    records[0, ok] = nmse_rows(truth[ok], alpha_hat[ok])
    # the per-trial scaling stays scalar arithmetic, as in a single trial
    records[1] = [m / norm**2 for m, norm in zip(mse.tolist(), norms)]
    records[2] = mse
    return records, errors


def run_trial(scenario: Scenario, trial_index: int, axis_index: int = 0) -> TrialRecord:
    """Generate one trial and estimate it under the scenario's link mode."""
    block = _stack_draws([_draw_trial_inputs(scenario, trial_index, axis_index)])
    records, errors = _estimate_mode(scenario, block, np.arange(1))
    if errors[0] is not None:
        raise errors[0]
    nmse, mse, crb_trace = records[:, 0].tolist()
    return TrialRecord(nmse=nmse, mse=mse, crb_trace=crb_trace)


def _evaluate_block(scenarios, axis_index: int, trials: range) -> np.ndarray:
    """Records of every scenario on a block of trials, (modes, 3, trials).

    A trial is excluded, nan in every mode, when its draw or any mode's
    estimate raises a NumericalError.  Modes run in order and each only on
    the trials the earlier ones kept, so a ValueError surfaces exactly
    where evaluating the trials one at a time would raise it.
    """
    out = np.full((len(scenarios), 3, len(trials)), np.nan)
    draws, drawn = [], []
    for j, t in enumerate(trials):
        try:
            draws.append(_draw_trial_inputs(scenarios[0], t, axis_index))
        except NumericalError:
            continue
        drawn.append(j)
    if not draws:
        return out
    block = _stack_draws(draws)
    kept = np.arange(len(draws))
    records = np.full((len(scenarios), 3, len(draws)), np.nan)
    for mi, scenario in enumerate(scenarios):
        recs, errors = _estimate_mode(scenario, block, kept)
        records[mi][:, kept] = recs
        kept = kept[[e is None for e in errors]]
        if kept.size == 0:
            return out
    out[:, :, np.asarray(drawn)[kept]] = records[:, :, kept]
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
