"""Channel composition and normalization tests."""
import numpy as np
import pytest

from irsradar.channel import (
    NLOS_FORMS,
    IrsPanel,
    compose_nlos_coefficient,
    compose_paths,
    crandn,
    draw_csi,
    inner_product_form,
    nlos_coefficient,
    normalize_scenario,
    read_csi_file,
    split_crandn,
)
from irsradar.errors import DegenerateDrawError


def random_panel(rng, M, random_theta=True):
    theta = rng.uniform(0, 2 * np.pi, M) if random_theta else None
    return IrsPanel(g=crandn(rng, M), h=crandn(rng, M), theta=theta)


def test_draw_shapes_and_determinism():
    h_los, panels, alpha, alpha_los = draw_csi(M=10, K=5, seed=42)
    assert len(panels) == 5 and all(p.m == 10 for p in panels)
    assert alpha.shape == (5,)
    again = draw_csi(M=10, K=5, seed=42)
    assert again[0] == h_los
    assert np.array_equal(again[2], alpha)
    np.testing.assert_array_equal(again[1][3].g, panels[3].g)


def test_draw_unit_power():
    # sample mean power of CSI entries over 1e5 draws
    _, panels, _, _ = draw_csi(M=100, K=500, seed=7)
    g = np.concatenate([p.g for p in panels])
    assert abs(np.mean(np.abs(g) ** 2) - 1.0) < 3.0 / np.sqrt(g.size)


def test_compose_simple_cases():
    assert compose_nlos_coefficient(IrsPanel(g=[1], h=[1], theta=[0])) == 1
    assert abs(compose_nlos_coefficient(IrsPanel(g=[1, 1], h=[1, 1], theta=[0, 0])) - 4) < 1e-12
    assert abs(compose_nlos_coefficient(IrsPanel(g=[1, 1], h=[1, -1], theta=[0, 0]))) < 1e-12


def test_inner_product_single_element():
    # c = conj(g) h = j, so h^H Theta g = conj(c) = -j
    val = inner_product_form(IrsPanel(g=[1], h=[1j], theta=[0]))
    assert abs(val - (-1j)) < 1e-15


def test_inner_product_matches_direct_matrix_product():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = random_panel(rng, 8)
        direct = np.conj(p.h) @ p.phase_matrix() @ p.g
        assert abs(inner_product_form(p) - direct) < 1e-13


def test_compose_is_squared_inner_product():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = random_panel(rng, 6)
        assert abs(compose_nlos_coefficient(p) - abs(inner_product_form(p)) ** 2) < 1e-12


def test_global_phase_invariance():
    rng = np.random.default_rng(5)
    p = random_panel(rng, 7)
    q = IrsPanel(g=np.exp(0.9j) * p.g, h=p.h, theta=p.theta)
    assert abs(compose_nlos_coefficient(p) - compose_nlos_coefficient(q)) < 1e-12


def test_aligned_phases_reach_array_gain():
    rng = np.random.default_rng(6)
    for _ in range(10):
        p = random_panel(rng, 9, random_theta=False)
        c = p.c_vector()
        aligned = p.with_theta(np.angle(c))
        gain = compose_nlos_coefficient(aligned).real
        assert abs(gain - np.sum(np.abs(c)) ** 2) < 1e-10
        for _ in range(50):
            other = p.with_theta(rng.uniform(0, 2 * np.pi, 9))
            assert compose_nlos_coefficient(other).real <= gain + 1e-10


def test_nlos_form_dispatch():
    rng = np.random.default_rng(8)
    p = random_panel(rng, 5)
    assert nlos_coefficient(p, "magnitude_squared") == compose_nlos_coefficient(p)
    assert nlos_coefficient(p, "complex") == inner_product_form(p)
    with pytest.raises(ValueError):
        nlos_coefficient(p, "bogus")


@pytest.mark.parametrize("form", ["magnitude_squared", "complex"])
@pytest.mark.parametrize("gamma", [1e-2, 1.0, 37.5])
def test_normalization_hits_targets(form, gamma):
    h_los, panels, alpha, alpha_los = draw_csi(M=10, K=5, seed=9)
    scene = normalize_scenario(h_los, panels, alpha, alpha_los, gamma, form)
    assert abs(abs(scene.alpha_los * scene.h_los) ** 2 - gamma) < 1e-10
    assert abs(abs(scene.alpha @ scene.nlos_csi) ** 2 - 1.0) < 1e-10
    # recompute the ratio from its definition on the normalized scene
    ratio = abs(scene.alpha_los * scene.h_los) ** 2 / abs(scene.alpha @ scene.nlos_csi) ** 2
    assert abs(ratio - gamma) < 1e-9


def test_normalization_scales_are_positive_real():
    h_los, panels, alpha, alpha_los = draw_csi(M=6, K=3, seed=10)
    scene = normalize_scenario(h_los, panels, alpha, alpha_los, 0.5, "complex")
    raw = np.array([inner_product_form(p) for p in panels])
    scales = scene.nlos_csi / raw
    np.testing.assert_allclose(scales.imag, 0, atol=1e-12)
    assert np.all(scales.real > 0)
    np.testing.assert_allclose(scales.real, scales.real[0], rtol=1e-12)
    assert abs(np.angle(scene.h_los) - np.angle(h_los)) < 1e-12


def test_blocked_los_limit():
    h_los, panels, alpha, alpha_los = draw_csi(M=4, K=2, seed=11)
    scene = normalize_scenario(h_los, panels, alpha, alpha_los, 0.0)
    assert scene.h_los == 0


def test_degenerate_draw_raises():
    h_los, panels, alpha, alpha_los = draw_csi(M=3, K=2, seed=12)
    with pytest.raises(DegenerateDrawError):
        normalize_scenario(0.0, panels, alpha, alpha_los, 1.0)
    dead = [IrsPanel(g=np.zeros(3), h=p.h) for p in panels]
    with pytest.raises(DegenerateDrawError):
        normalize_scenario(h_los, dead, alpha, alpha_los, 1.0)


def test_csi_file_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    K, M = 3, 4
    _, panels, _, _ = draw_csi(M=M, K=K, seed=14)
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
    # draw_csi splits one standard_normal call; the reference is the run of
    # crandn calls in draw order, each part's real draws before its imaginary
    K, M = 3, 4
    for seed in range(6):
        h_los, panels, alpha, alpha_los = draw_csi(M, K, seed)
        rng = np.random.default_rng(seed)
        assert h_los == complex(crandn(rng))
        np.testing.assert_array_equal([p.g for p in panels], crandn(rng, K, M))
        np.testing.assert_array_equal([p.h for p in panels], crandn(rng, K, M))
        np.testing.assert_array_equal(alpha, crandn(rng, K))
        assert alpha_los == complex(crandn(rng))
        assert type(h_los) is complex and type(alpha_los) is complex
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
            single = [
                nlos_coefficient(IrsPanel(g=g[k], h=h[k], theta=theta[k], beta=beta[k]), form)
                for k in range(K)
            ]
            np.testing.assert_array_equal(compose_paths(g, h, theta, beta, form), single)


@pytest.mark.parametrize("field", ["g", "h", "theta", "beta"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_panel_rejects_nonfinite_entries(field, bad):
    kw = dict(g=np.ones(4), h=np.ones(4), theta=np.zeros(4), beta=np.ones(4))
    kw[field] = np.array([1.0, bad, 1.0, 1.0])
    with pytest.raises(ValueError, match=f"panel {field} entries must be finite"):
        IrsPanel(**kw)


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
                        ref = complex(abs(ref) ** 2)
                    assert got[t, k] == ref
