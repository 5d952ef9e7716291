"""certify.csv's writer against the one %-format it replaced, byte for byte."""
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsradar import cli
from irsradar.cli import _digits8, _index_groups, _sci_words, _write_certify, main
from irsradar.phaseopt import CERTIFY_CHUNK_BYTES

HEADER = "panel,m,grid_points,grid_max,closed_form,gap,bound\n"


def oracle(m, grid_points, columns) -> bytes:
    """The rows as the CLI wrote them before: one %-format over every row."""
    P = len(columns[0])
    # "%d" prints the float panel index exactly
    row = f"%d,{m},{grid_points},%.9e,%.9e,%.9e,%.9e\n"
    table = np.column_stack((np.arange(P), *columns))
    return (HEADER + row * P % tuple(table.ravel().tolist())).encode()


def written(m, grid_points, columns) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "certify.csv")
        _write_certify(path, m, grid_points, columns)
        with open(path, "rb") as fh:
            return fh.read()


def as_columns(values):
    """Values row by row over the four value columns; a short last row is filled with 1.0."""
    v = np.asarray(values, dtype=float)
    v = np.concatenate([v, np.ones(-v.size % 4)])
    return tuple(np.ascontiguousarray(c) for c in v.reshape(-1, 4).T)


def assert_matches_percent_format(values, m=2, grid_points=720):
    columns = as_columns(values)
    assert written(m, grid_points, columns) == oracle(m, grid_points, columns)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=48))
def test_formatter_matches_percent_format(values):
    # st.floats() draws nan, +-inf, subnormals and +-0 among the rest
    assert_matches_percent_format(values)


def _near_ties():
    """10-digit mantissas followed by a 5, at exponents across the exact path's
    range and past it, with the doubles 1 to 3 ulp to either side."""
    rng = np.random.default_rng(23)
    mantissas = [10**9, 10**10 - 1, 1234567890, *rng.integers(10**9, 10**10, 12).tolist()]
    values = []
    for exp in (-310, -300, -291, -290, -150, -100, -99, -17, -1, 0, 1, 9, 99, 100, 289, 290, 300):
        for mant in mantissas:
            x = float(f"{mant // 10**9}.{mant % 10**9:09d}5e{exp}")
            values.append(x)
            for toward in (0.0, np.inf):
                y = x
                for _ in range(3):
                    y = np.nextafter(y, toward)
                    values.append(float(y))
    return values


def _edges():
    special = [9.9999999995, float(np.nextafter(1e10, 0)), 5e-324, 1.7976931348623157e308, -0.0,
               0.0, 1e-290, 1e290, 2.2250738585072014e-308, np.nan, np.inf, -np.inf]
    # powers of ten, where floor(log10 x) may miss by one, and their neighbours
    powers = [float(f"1e{k}") for k in range(-300, 301)]
    near = [float(np.nextafter(p, t)) for p in powers[::7] for t in (0.0, np.inf)]
    return special + powers + near


@pytest.mark.parametrize("values", [_near_ties(), _edges()], ids=["near_ties", "edges"])
def test_formatter_matches_percent_format_on_constructed_values(values):
    values = np.asarray(values)
    assert_matches_percent_format(np.concatenate([values, -values]))


def test_ordinary_values_take_the_exact_path():
    # the fallback is for nan, inf, zeros, extremes and near-ties; if it took
    # ordinary values the bytes would still match, at many times the cost
    rng = np.random.default_rng(7)
    v = rng.standard_normal((3000, 4)) * 10.0 ** rng.integers(-12, 12, (3000, 4))
    out = np.zeros((3000, 4, 3), dtype="<u8")
    left = _sci_words(v, cli._format_tables(), out, np.empty((3000, 4), dtype=np.uint64))
    assert left.size <= 3


def test_log10_misses_and_round_ups_take_the_exact_path():
    # an ulp below a power of ten, floor(log10 x) can come out one too high,
    # and the ten digits round up to 10^10; both settle in the exact path
    powers = 10.0 ** np.arange(-280, 281)
    v = np.concatenate([np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), powers])
    v = v[: v.size // 4 * 4].reshape(-1, 4)
    out = np.zeros(v.shape + (3,), dtype="<u8")
    left = _sci_words(v, cli._format_tables(), out, np.empty(v.shape, dtype=np.uint64))
    assert left.size == 0
    assert_matches_percent_format(v.ravel())


@pytest.mark.parametrize("words, index", [
    (1, [0, 9, 10, 99, 100, 12345678, 99999999]),
    (2, [0, 7, 10**8 - 1, 10**8, 10**8 + 1, 10**15 + 7, 10**16 - 1]),
    (3, [0, 5, 10**16, 10**19 - 1, 10**19, 2**64 - 1]),
])
def test_index_groups_print_right_aligned(words, index):
    index = np.array(index, dtype=np.uint64)
    groups = np.empty((index.size, words), dtype=np.uint64)
    masks = _index_groups(index, groups)
    text = (_digits8(groups) | masks).astype("<u8")
    got = [row.tobytes().replace(b"\0", b"") for row in text]
    assert got == [str(i).encode() for i in index.tolist()]
    # the padding leads: every row's digits end at its last byte
    assert all(row.tobytes().endswith(str(i).encode()) for row, i in zip(text, index.tolist()))


@pytest.mark.parametrize("m, trials", [(2, 150), (3, 3000)])
@pytest.mark.parametrize("seed", range(5))
def test_cli_certify_csv_matches_percent_format(m, trials, seed, tmp_path, monkeypatch, capsys):
    # at m = 3 the 3000 panels span four chunks of 780
    real, seen = cli.certify_panels, []

    def recording(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(cli, "certify_panels", recording)
    argv = ["certify", "--m", str(m), "--trials", str(trials), "--seed", str(seed), "--out", str(tmp_path)]
    assert main(argv) == 0
    columns = (seen[0].grid_max, seen[0].closed_form, seen[0].gap, seen[0].bound)
    assert (tmp_path / "certify.csv").read_bytes() == oracle(m, 720, columns)


def _writer_peak(panels, tmp_path):
    rng = np.random.default_rng(panels)
    columns = tuple(np.abs(rng.standard_normal(panels)) for _ in range(4))
    tracemalloc.start()
    try:
        _write_certify(str(tmp_path / f"certify_{panels}.csv"), 3, 720, columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_memory_is_bounded_by_a_chunk(tmp_path):
    small, large = _writer_peak(3000, tmp_path), _writer_peak(30000, tmp_path)
    assert large <= small + CERTIFY_CHUNK_BYTES
