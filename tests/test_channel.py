"""Channel composition and normalization tests."""
import warnings
from dataclasses import replace

import numpy as np
import pytest

from irsradar import harness
from irsradar.channel import (
    NLOS_FORMS,
    IrsPanel,
    compose_paths,
    read_csi_file,
    split_crandn,
)
from irsradar.errors import GenerationError
from irsradar.harness import (
    Scenario,
    _draw_block,
    _estimate_mode,
    _path_models,
    _sweep,
    run_trial,
)

from csi_draws import crandn, csi_draw_size, noise_matched_filter, split_csi


def random_panel(rng, M, random_theta=True):
    theta = rng.uniform(0, 2 * np.pi, M) if random_theta else None
    return IrsPanel(g=crandn(rng, M), h=crandn(rng, M), theta=theta)


def compose(panel, form="magnitude_squared"):
    return complex(compose_paths(panel.g, panel.h, panel.theta, panel.beta, form))


def direct_product(panel):
    """h^H Theta g with Theta = Diag(beta * e^{j theta}), by matrix product."""
    return np.conj(panel.h) @ np.diag(panel.beta * np.exp(1j * panel.theta)) @ panel.g


def draw(M, K, seed, rows=1):
    z = np.random.default_rng(seed).standard_normal((rows, csi_draw_size(M, K)))
    return split_csi(z, M, K)


def test_draw_shapes_and_determinism():
    h_los, g, h, alpha, alpha_los = draw(M=10, K=5, seed=42, rows=3)
    assert h_los.shape == alpha_los.shape == (3, 1)
    assert g.shape == h.shape == (3, 5, 10)
    assert alpha.shape == (3, 5)
    again = draw(M=10, K=5, seed=42, rows=3)
    for a, b in zip(again, (h_los, g, h, alpha, alpha_los)):
        np.testing.assert_array_equal(a, b)


def test_draw_unit_power():
    # sample mean power of CSI entries over 1e5 draws
    _, g, _, _, _ = draw(M=100, K=500, seed=7)
    assert abs(np.mean(np.abs(g) ** 2) - 1.0) < 3.0 / np.sqrt(g.size)


def test_compose_simple_cases():
    assert compose(IrsPanel(g=[1], h=[1], theta=[0])) == 1
    assert abs(compose(IrsPanel(g=[1, 1], h=[1, 1], theta=[0, 0])) - 4) < 1e-12
    assert abs(compose(IrsPanel(g=[1, 1], h=[1, -1], theta=[0, 0]))) < 1e-12


def test_inner_product_single_element():
    # c = conj(g) h = j, so h^H Theta g = conj(c) = -j
    val = compose(IrsPanel(g=[1], h=[1j], theta=[0]), "complex")
    assert abs(val - (-1j)) < 1e-15


def test_inner_product_matches_direct_matrix_product():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = replace(random_panel(rng, 8), beta=rng.uniform(0, 1, 8))
        assert abs(compose(p, "complex") - direct_product(p)) < 1e-13


def test_compose_is_squared_inner_product():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = replace(random_panel(rng, 6), beta=rng.uniform(0, 1, 6))
        assert abs(compose(p) - abs(direct_product(p)) ** 2) < 1e-12


def test_global_phase_invariance():
    rng = np.random.default_rng(5)
    p = random_panel(rng, 7)
    q = IrsPanel(g=np.exp(0.9j) * p.g, h=p.h, theta=p.theta)
    assert abs(compose(p) - compose(q)) < 1e-12


def test_aligned_phases_reach_array_gain():
    rng = np.random.default_rng(6)
    for _ in range(10):
        p = random_panel(rng, 9, random_theta=False)
        c = p.c_vector()
        gain = compose(replace(p, theta=np.angle(c))).real
        assert abs(gain - np.sum(np.abs(c)) ** 2) < 1e-10
        for _ in range(50):
            other = replace(p, theta=rng.uniform(0, 2 * np.pi, 9))
            assert compose(other).real <= gain + 1e-10


def test_nlos_form_dispatch():
    rng = np.random.default_rng(8)
    p = random_panel(rng, 5)
    assert compose(p, "magnitude_squared") == abs(compose(p, "complex")) ** 2
    with pytest.raises(ValueError, match="bogus"):
        compose(p, "bogus")


@pytest.mark.parametrize("form", ["magnitude_squared", "complex"])
@pytest.mark.parametrize("gamma", [1e-2, 1.0, 37.5])
def test_normalization_hits_targets(form, gamma):
    # the engine's normalized scene, rebuilt from its draws as
    # A = P(nu) Diag(c) with |alpha^T c| = 1 for the reflected modes and
    # |alpha_los c|^2 = gamma for the direct link (a white-noise model does
    # not depend on the unimodular code), must give the records' bound
    # Tr((A^H A / sigma2)^-1), mse = bound / norm^2, and the nmse of the
    # BLUE on the matched filter A^H A alpha / sigma2 + Diag(c)^H v, where
    # v = L z is the noise's matched filter on the mode's group of paths,
    # drawn from the group's normals z with Q_g = L L^H
    n, sigma2 = 20, 1e-2
    for mode in ("los_only", "nlos_random", "nlos_optimal"):
        s = Scenario(n=n, k=3, m=4, gamma=gamma, sigma2=sigma2, link_mode=mode, nlos_form=form)
        block = _draw_block(s, 0, range(12))
        rows = np.arange(block["drawn"].size)
        models = _path_models(block, s._noise)
        records, cause, _ = _estimate_mode(mode, block, models, gamma)
        assert rows.size == 12 and not cause.any()
        group = "direct" if mode == "los_only" else "reflected"
        paths = harness._PATH_GROUPS[group]
        v = noise_matched_filter(models[group][0], block["z"][:, paths])
        for t in rows:
            if mode == "los_only":
                raw, alpha = np.array([block["h_los"][t]]), np.array([block["alpha_los"][t]])
                norm = abs(alpha[0] * raw[0]) / np.sqrt(gamma)
            else:
                raw, alpha = block["csi"][mode][t], block["alpha"][t]
                norm = abs(alpha @ raw)
            c = raw / norm
            target = gamma if mode == "los_only" else 1.0
            assert abs(abs(alpha @ c) ** 2 - target) < 1e-10 * target
            P = np.exp(1j * np.outer(np.arange(n), 2.0 * np.pi * block["u"][t, paths]))
            A = P @ np.diag(c)
            gram = A.conj().T @ A / sigma2
            bound = np.trace(np.linalg.inv(gram)).real
            assert records[2, t] == pytest.approx(bound, rel=1e-10)
            assert records[1, t] == pytest.approx(bound / norm**2, rel=1e-10)
            est = np.linalg.solve(gram, gram @ alpha + c.conj() * v[t])
            nmse = np.linalg.norm(est - alpha) / np.linalg.norm(alpha)
            assert records[0, t] == pytest.approx(nmse, rel=1e-8)


def test_degenerate_draw_raises(monkeypatch):
    # every composed path coefficient is zero, so the scene is degenerate
    real = harness._compose_modes
    monkeypatch.setattr(harness, "_compose_modes",
                        lambda *args: {mode: 0 * c for mode, c in real(*args).items()})
    panels = tuple(random_panel(np.random.default_rng(k), 4) for k in range(3))
    s = Scenario(n=20, k=3, m=4, fixed_panels=panels, nlos_form="magnitude_squared")
    with pytest.raises(GenerationError, match="^scene is degenerate$"):
        run_trial(s, 0)


def test_blocked_los_limit():
    # gamma scales only the direct link: the reflected records of a blocked
    # direct path equal those at any other gamma, on the same draws
    tpl = Scenario(n=20, k=3, m=4, trials=6, master_seed=2)
    modes = ("nlos_random", "nlos_optimal")
    blocked, open_los = (_sweep(tpl, "gamma", [g], modes).records for g in (0.0, 37.5))
    for lab in modes:
        for field in ("nmse", "mse", "crb_trace"):
            np.testing.assert_array_equal(blocked[lab][field], open_los[lab][field])


def test_csi_file_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    K, M = 3, 4
    panels = [random_panel(rng, M) for _ in range(K)]
    path = tmp_path / "csi.txt"
    lines = ["# replay file"]
    for p in panels:
        lines += [f"{v.real},{v.imag}" for v in p.g]
        lines += [f"{v.real},{v.imag}" for v in p.h]
    path.write_text("\n".join(lines) + "\n")
    loaded = read_csi_file(path, K=K, M=M)
    for orig, back in zip(panels, loaded):
        np.testing.assert_allclose(back.g, orig.g, atol=1e-15)
        np.testing.assert_allclose(back.h, orig.h, atol=1e-15)


def test_csi_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="bad.txt:2"):
        read_csi_file(bad, K=1, M=1)
    short = tmp_path / "short.txt"
    short.write_text("1.0,2.0\n")
    with pytest.raises(ValueError, match="expected 4 entries"):
        read_csi_file(short, K=1, M=2)


def test_csi_file_rejects_nonfinite_entries(tmp_path):
    path = tmp_path / "nonfinite.csi"
    for bad in ("nan,0", "0,inf", "-inf,1.5"):
        path.write_text("# panel 0\n1,0\n" + bad + "\n0,1\n1,1\n")
        with pytest.raises(ValueError, match=f"{path.name}:3: non-finite entry"):
            read_csi_file(path, K=1, M=2)


def test_one_draw_call_matches_crandn_sequence():
    # split_csi splits one standard_normal call; the reference is the run of
    # crandn calls in draw order, each part's real draws before its imaginary
    K, M = 3, 4
    for seed in range(6):
        h_los, g, h, alpha, alpha_los = draw(M, K, seed)
        rng = np.random.default_rng(seed)
        assert h_los[0, 0] == crandn(rng)
        np.testing.assert_array_equal(g[0], crandn(rng, K, M))
        np.testing.assert_array_equal(h[0], crandn(rng, K, M))
        np.testing.assert_array_equal(alpha[0], crandn(rng, K))
        assert alpha_los[0, 0] == crandn(rng)
    rngs = [np.random.default_rng(s) for s in range(4)]
    parts = split_crandn(np.array([r.standard_normal(2 * (2 + 5)) for r in rngs]), 2, 5)
    for t in range(4):
        rng = np.random.default_rng(t)
        np.testing.assert_array_equal(parts[0][t], crandn(rng, 2))
        np.testing.assert_array_equal(parts[1][t], crandn(rng, 5))


def test_compose_paths_stack_matches_each_item():
    rng = np.random.default_rng(22)
    T, K, M = 6, 4, 5
    g, h = crandn(rng, T, K, M), crandn(rng, T, K, M)
    theta = rng.uniform(0, 2 * np.pi, (T, K, M))
    for form in NLOS_FORMS:
        stacked = compose_paths(g, h, theta, np.ones((K, M)), form)
        assert stacked.shape == (T, K)
        for t in range(T):
            np.testing.assert_array_equal(
                stacked[t], compose_paths(g[t], h[t], theta[t], np.ones((K, M)), form)
            )
        # panels shared by every item broadcast against the stacked phases
        shared = compose_paths(g[0], h[0], theta, np.ones((K, M)), form)
        for t in range(T):
            np.testing.assert_array_equal(
                shared[t], compose_paths(g[0], h[0], theta[t], np.ones((K, M)), form)
            )


def test_compose_paths_rows_match_single_panels():
    # a row's coefficient must not depend on the rows stacked with it
    rng = np.random.default_rng(21)
    for K, M in ((5, 10), (32, 64)):
        g, h = crandn(rng, K, M), crandn(rng, K, M)
        theta = rng.uniform(0, 2 * np.pi, (K, M))
        beta = rng.uniform(0, 1, (K, M))
        for form in NLOS_FORMS:
            single = [compose_paths(g[k], h[k], theta[k], beta[k], form) for k in range(K)]
            np.testing.assert_array_equal(compose_paths(g, h, theta, beta, form), single)


@pytest.mark.parametrize("field", ["g", "h", "theta", "beta"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_panel_rejects_nonfinite_entries(field, bad):
    kw = dict(g=np.ones(4), h=np.ones(4), theta=np.zeros(4), beta=np.ones(4))
    kw[field] = np.array([1.0, bad, 1.0, 1.0])
    with pytest.raises(ValueError, match=f"panel {field} entries must be finite"):
        IrsPanel(**kw)


@pytest.mark.parametrize("field", ["theta", "beta"])
@pytest.mark.parametrize("bad", [[0.5 + 0.1j, 1.0], np.array([0.5 + 0j, 1.0]), ["0.5", "1"]],
                         ids=["complex", "complex_array", "strings"])
def test_panel_rejects_non_real_phases_and_gains(field, bad):
    # a complex beta or theta warned and lost its imaginary part, or raised
    # a bare TypeError, and strings were parsed silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^panel {field} entries must be real numbers$"):
            IrsPanel(g=np.ones(2), h=np.ones(2), **{field: bad})
    assert IrsPanel(g=np.ones(2), h=np.ones(2), **{field: [1, 0]}) == \
        IrsPanel(g=np.ones(2), h=np.ones(2), **{field: [1.0, 0.0]})


def test_panels_compare_by_value():
    rng = np.random.default_rng(23)
    panel = random_panel(rng, 4)
    copy = IrsPanel(g=panel.g.copy(), h=panel.h.copy(), theta=panel.theta.copy())
    assert (panel == copy) is True
    # a scenario replaying the panels follows the panels' equality
    s = Scenario(n=20, k=2, m=4, fixed_panels=(panel, copy))
    assert (s == replace(s, fixed_panels=(copy, panel))) is True
    for field in ("g", "h", "theta", "beta"):
        other = replace(panel, **{field: 0.5 * getattr(panel, field)})
        assert (panel == other) is False
        assert (panel != other) is True
        assert (s == replace(s, fixed_panels=(panel, other))) is False
    assert panel != "a panel"


@pytest.mark.parametrize("K, M", [(5, 10), (32, 64)])
def test_compose_paths_match_per_row_vdot(K, M):
    # the per-row formula np.vecdot replaced, on stacked and on shared panels
    rng = np.random.default_rng(K)
    T = 7
    g, h = crandn(rng, T, K, M), crandn(rng, T, K, M)
    theta = rng.uniform(0, 2 * np.pi, (T, K, M))
    beta = rng.uniform(0, 1, (K, M))
    for gs, hs in ((g, h), (g[0], h[0])):  # a fixed panel set broadcasts over the trials
        c = np.broadcast_to(np.conj(gs) * hs, (T, K, M))
        for form in NLOS_FORMS:
            got = compose_paths(gs, hs, theta, beta, form)
            assert got.shape == (T, K)
            for t in range(T):
                for k in range(K):
                    ref = complex(np.vdot(c[t, k], beta[k] * np.exp(1j * theta[t, k])))
                    if form == "magnitude_squared":
                        ref = complex(ref.real * ref.real + ref.imag * ref.imag)
                    assert got[t, k] == ref
