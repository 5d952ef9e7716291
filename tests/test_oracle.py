"""A differential oracle: the K-space sweep engine against the N-space library.

The engine never forms a model A or an observation y: a mode's BLUE is
read off its group of paths' steering Gram, formed in closed form, and
the mode's coefficients enter as a diagonal (harness, estimator).  Here
each trial's A = P(nu) Diag(d) is rebuilt from the block's own Dopplers
and normalized coefficients with the direct exponential, and the
library's estimator_mse on it must give run_trial's crb_trace, and
crb_trace / norm^2 its mse, and a sweep of the scenario's own gamma must
record run_trial's bits for every row it keeps, over hypothesis-drawn
small scenarios
(differential testing as in McKeeman, "Differential testing for
software", Digital Tech. J. 1998; property tests as in MacIver et al.,
"Hypothesis: a new approach to property-based testing", JOSS 2019).
"""
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from irsradar.channel import NLOS_FORMS, IrsPanel
from irsradar.errors import GenerationError, SingularModelError
from irsradar.estimator import CONDITION_LIMIT, NoiseModel, estimator_mse
from irsradar.harness import LINK_MODES, MODE_LABELS, Scenario, _draw_block, _sweep, run_trial

from csi_draws import crandn

RTOL = 1e-10

# A trial that only one side refuses must have cond(G) within this factor
# of CONDITION_LIMIT.  The engine forms G = D^H Q_g D from the closed-form
# Dirichlet Gram and the library forms A^H R^-1 A from the exponentials;
# each is within a few eps ||G|| of the exact Gram, which moves cond(G) by
# about cond(G) eps relative, under 1e-3 at the limit.  So the sides can
# disagree only on a Gram whose condition number sits at the limit itself,
# and a factor of 2 covers that many times over.
REFUSAL_BAND = 2.0


@st.composite
def scenarios(draw):
    """Small scenarios of either form, with or without replayed panels and fixed phases.

    gamma and sigma2 are log-uniform on 1e-6..1e6; the Doppler gap is the
    default 1/(4n), so every path group's Q_g is well conditioned.
    """
    n = draw(st.integers(1, 39))
    k = draw(st.integers(1, min(n, 6)))
    m = draw(st.integers(1, 5))
    power = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
    fields = dict(n=n, k=k, m=m, trials=draw(st.integers(2, 3)), gamma=draw(power),
                  sigma2=draw(power), master_seed=draw(st.integers(0, 2**64 - 1)),
                  nlos_form=draw(st.sampled_from(NLOS_FORMS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        fields["fixed_panels"] = tuple(
            IrsPanel(g=crandn(rng, m), h=crandn(rng, m), beta=rng.uniform(0.2, 1.0, m))
            for _ in range(k))
    if draw(st.booleans()):
        fields["fixed_theta"] = rng.uniform(-7.0, 7.0, (k, m))
    return Scenario(**fields)


def _rebuilt_model(s, block, mode, row):
    """A = P(nu) Diag(d) of a drawn row under the mode, and its normalization factor."""
    if mode == "los_only":
        norm = abs(block["alpha_los"][row] * block["h_los"][row]) / np.sqrt(s.gamma)
        coef, u = block["h_los"][row:row + 1] / norm, block["u"][row, :1]
    else:
        raw = block["csi"][mode][row]
        norm = abs(block["alpha"][row] @ raw)
        coef, u = raw / norm, block["u"][row, 1:]
    steer = np.exp(2j * np.pi * np.arange(s.n)[:, None] * u[None, :])
    return steer * coef, norm


def _refused(call):
    try:
        return call()
    except SingularModelError:
        return None


@settings(derandomize=True, deadline=None, max_examples=200)
@given(s=scenarios())
def test_run_trial_matches_estimator_mse_on_rebuilt_models(s):
    block = _draw_block(s, 0, range(s.trials))
    drawn = block["drawn"].tolist()
    noise = NoiseModel.scaled_identity(s.sigma2, s.n)
    modes = [mode for mode in LINK_MODES if mode != "nlos_fixed" or s.fixed_theta is not None]
    swept = _sweep(s, "gamma", [s.gamma], modes).records
    for mode in modes:
        point = replace(s, link_mode=mode)
        for t in range(s.trials):
            try:
                got = _refused(lambda: run_trial(point, t))
            except GenerationError:  # a degenerate scene is not drawn
                assert t not in drawn
                continue
            # a row the sweep kept holds run_trial's bits, and a row it
            # refused is nan
            row = [swept[MODE_LABELS[mode]][field][0, t] for field in ("nmse", "mse", "crb_trace")]
            if got is None:
                assert np.isnan(row).all()
            elif not np.isnan(row).all():
                assert [got.nmse, got.mse, got.crb_trace] == row, mode
            A, norm = _rebuilt_model(s, block, mode, drawn.index(t))
            crb = _refused(lambda: estimator_mse(A, noise))
            if (got is None) != (crb is None):
                cond = np.linalg.cond(A) ** 2  # cond(A^H A / sigma2), from A's singular values
                assert CONDITION_LIMIT / REFUSAL_BAND <= cond <= CONDITION_LIMIT * REFUSAL_BAND
                continue
            if got is None:
                continue
            np.testing.assert_allclose(got.crb_trace, crb, rtol=RTOL, err_msg=mode)
            np.testing.assert_allclose(got.mse, crb / norm**2, rtol=RTOL, err_msg=mode)
