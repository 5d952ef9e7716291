"""Phase optimization tests: closed form vs exhaustive grid search."""
import numpy as np
import pytest

from irsradar import phaseopt
from irsradar.channel import IrsPanel, compose_paths, wrap_phase
from irsradar.errors import CapabilityError
from irsradar.harness import Scenario, _draw_block
from irsradar.phaseopt import (
    DIRECT_ENUMERATION_LIMIT,
    certify_optimum,
    certify_panels,
    optimal_phases,
    within_bound,
)

from csi_draws import crandn


def random_panel(rng, M):
    return IrsPanel(g=crandn(rng, M), h=crandn(rng, M))


def attained(panel, theta):
    """|h^H Theta g|, checked against Diag(beta * e^{j theta}) by matrix product."""
    theta = wrap_phase(theta)
    val = complex(compose_paths(panel.g, panel.h, theta, panel.beta, "complex"))
    direct = np.conj(panel.h) @ np.diag(panel.beta * np.exp(1j * theta)) @ panel.g
    assert abs(val - direct) < 1e-12 * max(1.0, abs(direct))
    return abs(val)


def test_single_element_alignment():
    theta = optimal_phases([1], [1j])
    assert abs(theta[0] - np.pi / 2) < 1e-15
    assert abs(attained(IrsPanel(g=[1], h=[1j]), theta) - 1.0) < 1e-14


def test_matched_channels():
    rng = np.random.default_rng(0)
    g = crandn(rng, 6)
    theta = optimal_phases(g, g)
    # c = |g|^2 is real positive; rounding puts theta at 0 or just under 2pi
    dist = np.minimum(theta, 2 * np.pi - theta)
    np.testing.assert_allclose(dist, 0.0, atol=1e-14)
    val = attained(IrsPanel(g=g, h=g), theta)
    assert abs(val - np.sum(np.abs(g) ** 2)) < 1e-12


def test_phases_wrapped_and_zero_entries():
    theta = optimal_phases([1, 0, 1], [-1, 1, 1j])
    assert np.all((theta >= 0) & (theta < 2 * np.pi))
    assert theta[1] == 0.0


def test_attains_l1_norm():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = random_panel(rng, 10)
        c = p.c_vector()
        val = attained(p, optimal_phases(p.g, p.h))
        assert abs(val - np.sum(np.abs(c))) < 1e-12


def test_dominates_random_samples():
    rng = np.random.default_rng(2)
    p = random_panel(rng, 8)
    best = attained(p, optimal_phases(p.g, p.h))
    for _ in range(10000):
        assert attained(p, rng.uniform(0, 2 * np.pi, 8)) <= best + 1e-12


def test_apply_optimal_decouples():
    # a stack of panels gets each panel's own phases
    rng = np.random.default_rng(3)
    g, h = crandn(rng, 5, 6), crandn(rng, 5, 6)
    joint = optimal_phases(g, h)
    for k in range(5):
        np.testing.assert_array_equal(joint[k], optimal_phases(g[k], h[k]))


def test_apply_fixed_passthrough():
    # the nlos_fixed paths compose the given phases, wrapped as a panel stores them
    rng = np.random.default_rng(6)
    panels = tuple(random_panel(rng, 3) for _ in range(2))
    thetas = (np.array([0.1, -0.2, 7.3]), np.array([1.0, 2.0, 3.0]))
    s = Scenario(n=10, k=2, m=3, link_mode="nlos_fixed", fixed_theta=thetas, fixed_panels=panels)
    g, h = np.stack([p.g for p in panels]), np.stack([p.h for p in panels])
    expect = compose_paths(g, h, wrap_phase(np.stack(thetas)), np.ones((2, 3)), s.nlos_form)
    block = _draw_block(s, 0, range(2))
    for t in range(2):
        np.testing.assert_array_equal(block["csi"]["nlos_fixed"][t], expect)
    with pytest.raises(ValueError, match="fixed_theta"):
        Scenario(n=10, k=2, m=3, link_mode="nlos_fixed", fixed_theta=thetas[:1])


def test_certify_single_element_bound():
    rng = np.random.default_rng(7)
    p = random_panel(rng, 1)
    rec = certify_optimum(p, 360)
    assert rec.within_bound
    assert rec.bound <= rec.closed_form * (1 - np.cos(np.pi / 360)) + 1e-15


def test_certify_aligned_channel_exact():
    rec = certify_optimum(IrsPanel(g=[1.0], h=[2.0]), 360)
    assert abs(rec.gap) < 1e-12  # c real positive: theta = 0 is on the grid


@pytest.mark.parametrize("M", [1, 2])
def test_certify_direct_within_bound(M):
    rng = np.random.default_rng(8 + M)
    for _ in range(25):
        rec = certify_optimum(random_panel(rng, M), 720, method="direct")
        assert rec.within_bound


def test_pieces_equals_direct():
    # the reduction must reproduce the enumerated maximum exactly
    rng = np.random.default_rng(10)
    for M in (1, 2, 3):
        for G in (7, 36, 60):
            p = random_panel(rng, M)
            d = certify_optimum(p, G, method="direct")
            r = certify_optimum(p, G, method="pieces")
            assert abs(d.grid_max - r.grid_max) < 1e-12, (M, G)


def test_pieces_equals_direct_dense_grid():
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = random_panel(rng, 2)
        d = certify_optimum(p, 720, method="direct")
        r = certify_optimum(p, 720, method="pieces")
        assert abs(d.grid_max - r.grid_max) < 1e-12


def test_certify_beta_weighting():
    p = IrsPanel(g=[1.0, 1.0], h=[1.0, 1.0], beta=[1.0, 0.5])
    rec = certify_optimum(p, 360)
    assert abs(rec.closed_form - 1.5) < 1e-12
    assert rec.within_bound


def test_certify_auto_switches_method():
    rng = np.random.default_rng(12)
    small = certify_optimum(random_panel(rng, 2), 720)
    assert small.method == "direct"
    big = certify_optimum(random_panel(rng, 3), 720)
    assert big.method == "pieces"


def test_certify_rejects_large_m():
    rng = np.random.default_rng(13)
    with pytest.raises(CapabilityError):
        certify_optimum(random_panel(rng, 5), 16)


# The per-panel kernels the stacked ones replaced, kept as references.
def full_enumeration_max(z, G):
    """Every one of the G^M grid sums of one panel, enumerated."""
    phasors = np.exp(2j * np.pi * np.arange(G) / G)
    acc = z[0] * phasors
    for zm in z[1:]:
        acc = (acc[:, None] + zm * phasors[None, :]).reshape(-1)
    return float(np.max(np.abs(acc)))


def pieces_loop_max(z, G):
    """The interval reduction of one panel, one candidate direction at a time."""
    step = 2.0 * np.pi / G
    live = z[z != 0]
    if live.size == 0:
        return 0.0
    args = np.angle(live)
    breaks = np.sort(np.mod(args + step / 2.0, step))
    edges = np.concatenate(([0.0], breaks, [step]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    best = 0.0
    for phi in np.concatenate((mids, breaks)):
        nodes = np.round((phi - args) / step) * step
        best = max(best, abs(np.sum(live * np.exp(1j * nodes))))
    return float(best)


def awkward_panels(rng, M, count=6):
    """Random panels, then each kind of panel a windowed or reordered kernel can get wrong."""
    g, h, beta = crandn(rng, count, M), crandn(rng, count, M), rng.uniform(0.0, 1.0, (count, M))
    special = []
    for m in range(M):
        for field in ("g", "h", "beta"):  # one zero entry, in each position
            row = {"g": crandn(rng, M), "h": crandn(rng, M), "beta": np.ones(M)}
            row[field][m] = 0.0
            special.append(row)
        tiny = {"g": crandn(rng, M), "h": crandn(rng, M), "beta": np.ones(M)}
        tiny["g"][m] *= 1e-13  # one term 1e-13 the size of the others
        special.append(tiny)
    special.append({"g": np.zeros(M, complex), "h": crandn(rng, M), "beta": np.ones(M)})
    special.append({"g": crandn(rng, M), "h": crandn(rng, M), "beta": np.zeros(M)})
    if M > 2:  # all but the last term zero
        lone = {"g": crandn(rng, M), "h": crandn(rng, M), "beta": np.ones(M)}
        lone["beta"][:-1] = 0.0
        special.append(lone)
    # element phases on the grid, the case where the closed form is attained
    on_grid = np.exp(-2j * np.pi * rng.integers(0, 360, M) / 360)
    special.append({"g": 1e4 * on_grid, "h": np.full(M, 1e4 + 0j), "beta": np.ones(M)})
    return tuple(np.concatenate([a, np.stack([row[f] for row in special])])
                 for a, f in ((g, "g"), (h, "h"), (beta, "beta")))


KERNEL_CASES = [
    (method, M, G)
    for M in (1, 2, 3, 4)
    for G in (2, 3, 7, 36, 90, 720)
    for method in ("direct", "pieces")
    if method == "pieces" or G ** M <= DIRECT_ENUMERATION_LIMIT
]


@pytest.mark.parametrize("method,M,G", KERNEL_CASES)
def test_stacked_grid_max_is_bit_identical(method, M, G, monkeypatch):
    rng = np.random.default_rng(100 * M + G)
    g, h, beta = awkward_panels(rng, M)
    z = beta * np.conj(np.conj(g) * h)
    reference = full_enumeration_max if method == "direct" else pieces_loop_max
    expect = [reference(row, G) for row in z]
    alone = [
        certify_optimum(IrsPanel(g=g[p], h=h[p], beta=beta[p]), G, method).grid_max
        for p in range(len(z))
    ]
    assert alone == expect
    assert certify_panels(g, h, beta, G, method).grid_max.tolist() == expect
    # chunks of three panels, so boundaries fall inside the stack
    monkeypatch.setattr(phaseopt, "_panels_per_chunk", lambda method, M, G: 3)
    assert certify_panels(g, h, beta, G, method).grid_max.tolist() == expect


def test_stacked_records_match_single_panels():
    rng = np.random.default_rng(14)
    g, h, beta = awkward_panels(rng, 3)
    stacked = certify_panels(g, h, beta, 90)
    alone = [certify_optimum(IrsPanel(g=g[p], h=h[p], beta=beta[p]), 90) for p in range(len(g))]
    for field in ("grid_max", "closed_form", "gap", "bound"):
        assert getattr(stacked, field).tolist() == [getattr(rec, field) for rec in alone]
    assert {rec.method for rec in alone} == {stacked.method} == {"direct"}
    assert {rec.grid_points for rec in alone} == {90}
    assert within_bound(stacked.gap, stacked.closed_form, stacked.bound).tolist() == [
        rec.within_bound for rec in alone
    ]
    empty = certify_panels(g[:0], h[:0], beta[:0], 90)
    assert empty.grid_max.shape == empty.gap.shape == (0,)


def test_direct_equals_full_enumeration_at_benchmark_grid(monkeypatch):
    # G = 720, M = 2 is what `irsradar certify` runs by default
    G, M = 720, 2
    rng = np.random.default_rng(15)
    g, h, beta = crandn(rng, 40, M), crandn(rng, 40, M), np.ones((40, M))
    guarded = []
    for row in ({"last": 0.0}, {"last": 1e-13}, {"first": 0.0}):
        gp, hp = crandn(rng, M), crandn(rng, M)
        if "last" in row:
            gp[-1] *= row["last"]
        else:
            gp[0] *= row["first"]
        guarded.append((gp, hp))
    g = np.concatenate([g, [gp for gp, _ in guarded]])
    h = np.concatenate([h, [hp for _, hp in guarded]])
    beta = np.ones(g.shape)
    z = beta * np.conj(np.conj(g) * h)
    full = np.abs(phaseopt._enumerate(z, phaseopt._grid_phasors(G))).max(axis=1)
    assert full.tolist() == [full_enumeration_max(row, G) for row in z]

    rows_enumerated = []
    enumerate_ = phaseopt._enumerate

    def counting(zs, phasors):
        if zs.shape[1] == M:  # only the guard enumerates whole panels
            rows_enumerated.append(len(zs))
        return enumerate_(zs, phasors)

    monkeypatch.setattr(phaseopt, "_enumerate", counting)
    cert = certify_panels(g, h, beta, G)
    assert cert.method == "direct"
    assert cert.grid_max.tolist() == full.tolist()
    # the zero and tiny last terms take the guard; the random panels do not
    assert 2 <= len(rows_enumerated) <= len(guarded)
    assert within_bound(cert.gap, cert.closed_form, cert.bound).all()


def parent_grid_max_pieces(z, G):
    """The stacked interval reduction with a complex exponential per node, as it was first written."""
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
    candidates = np.concatenate((mids, breaks), axis=1)
    nodes = np.round((candidates[:, :, None] - args[:, None, :]) / step) * step
    sums = np.sum(z[:, None, :] * np.exp(1j * nodes), axis=2)
    return np.hypot(sums.real, sums.imag).max(axis=1)


@pytest.mark.parametrize("G", [2, 7, 90, 720])
@pytest.mark.parametrize("M", [2, 3, 4])
def test_pieces_turn_table_is_bit_identical(M, G):
    rng = np.random.default_rng(1000 * M + G)
    g, h, beta = awkward_panels(rng, M)
    z = beta * np.conj(np.conj(g) * h)
    # terms at the ends of the angle range, where the node index is largest
    z = np.concatenate([z, [np.full(M, -1.0 + 0j), np.full(M, -1.0 - 0j), np.full(M, 1e-300 + 0j)]])
    expect = parent_grid_max_pieces(z, G)
    assert phaseopt._grid_max_pieces(z, G, phaseopt._turns(G)).tolist() == expect.tolist()
    # the path without a table, taken when the table would outgrow the call
    assert phaseopt._grid_max_pieces(z, G, None).tolist() == expect.tolist()


@pytest.mark.parametrize("method", ["direct", "pieces"])
def test_nonfinite_terms_match_parent_kernels(method):
    # overflowing CSI reaches the kernels as inf and NaN terms
    big = 1e200 + 1e200j
    z = np.array([[big * big, 1.0 + 0j], [1.0 + 0j, np.inf + 0j], [np.nan + 0j, 1.0 + 0j]])
    with np.errstate(invalid="ignore", over="ignore"):
        if method == "direct":
            phasors = phaseopt._grid_phasors(36)
            got = phaseopt._grid_max_direct(z, 36, phasors)
            expect = [np.max(np.abs(phaseopt._enumerate(z[p:p + 1], phasors))) for p in range(len(z))]
        else:
            got = phaseopt._grid_max_pieces(z, 36, phaseopt._turns(36))
            expect = parent_grid_max_pieces(z, 36)
    np.testing.assert_array_equal(got, expect)
    if method == "pieces":
        with np.errstate(invalid="ignore", over="ignore"):
            np.testing.assert_array_equal(phaseopt._grid_max_pieces(z, 36, None), expect)


def test_each_table_is_built_once_per_call(monkeypatch):
    built = {"direct": 0, "pieces": 0}

    def counted(method, build):
        def wrapper(G):
            built[method] += 1
            return build(G)
        return wrapper

    monkeypatch.setattr(phaseopt, "_grid_phasors", counted("direct", phaseopt._grid_phasors))
    monkeypatch.setattr(phaseopt, "_turns", counted("pieces", phaseopt._turns))
    rng = np.random.default_rng(23)
    # 10 panels at G = 720, M = 2 span three direct chunks and one table
    g, h = crandn(rng, 10, 2), crandn(rng, 10, 2)
    certify_panels(g, h, np.ones((10, 2)), 720, method="direct")
    assert built == {"direct": 1, "pieces": 0}
    # at M = 3 a panel evaluates 7 x 3 = 21 node phasors, so the G + 5 = 725
    # entry table is built from 35 panels on, and the results do not move
    g, h = crandn(rng, 35, 3), crandn(rng, 35, 3)
    z = np.conj(np.conj(g) * h)
    for P, tables in ((34, 0), (35, 1)):
        built["pieces"] = 0
        cert = certify_panels(g[:P], h[:P], np.ones((P, 3)), 720, method="pieces")
        assert built["pieces"] == tables
        assert cert.grid_max.tolist() == parent_grid_max_pieces(z[:P], 720).tolist()
