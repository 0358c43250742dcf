"""Property tests on random anisotropic nested grids.

Every linear pairing is checked against the replicate-then-average reference
built with `on_common_grid`, and the baker and Renyi cell maps against the
index-array scatter and gather they replaced.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrowlab.entropy import gibbs_entropy
from arrowlab.grids import (Density, GridSet, Partition, coarse_values, interval_set,
                            l1_norm, on_common_grid)
from arrowlab.maps import MapSpec
from arrowlab.transfer import (correlation, fp_baker, fp_renyi, image_measure, image_set,
                               preimage_set, weak_pairing)

SETTINGS = settings(max_examples=60, deadline=None)
RTOL = 1e-12


@st.composite
def nested_grids(draw, count=2, dims=None, min_x_level=0):
    """(base, [shape, ...], rng): `count` grid shapes of one base and dimension."""
    base = draw(st.sampled_from([2, 3]))
    dims = draw(st.integers(1, 2)) if dims is None else dims
    top = 6 if base == 2 else 4
    shapes = []
    for _ in range(count):
        levels = [draw(st.integers(min_x_level if ax == 0 else 0, top)) for ax in range(dims)]
        shapes.append(tuple(base ** k for k in levels))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return base, shapes, rng


def random_density(base, shape, rng):
    return Density(base, rng.random(shape) + 0.05)


def random_set(base, shape, rng):
    return GridSet(base, rng.random(shape) < rng.random())


def random_partition(base, shape, rng):
    """A random labelling of the grid; some cells are then refined, so the
    partition mixes cell grids."""
    size = int(np.prod(shape))
    if size < 2:
        shape = (base,) + tuple(shape[1:])
        size = base
    k = int(rng.integers(2, min(5, size) + 1))
    labels = rng.integers(k, size=size)
    labels[rng.permutation(size)[:k]] = np.arange(k)
    labels = labels.reshape(shape)
    cells = []
    for i in range(k):
        c = GridSet(base, labels == i)
        if rng.random() < 0.5:
            c = c.refined(axis=int(rng.integers(len(shape))), extra_levels=int(rng.integers(1, 3)))
        cells.append(c)
    return Partition(tuple(cells))


def _baker_scatter(v, b):
    """The baker step by explicit cell indices: (i, j) -> (i - r*nx/b, j + r*ny)."""
    nx, ny = v.shape
    i = np.arange(nx)[:, None]
    j = np.arange(ny)[None, :]
    r = i // (nx // b)
    out = np.zeros((nx // b, ny * b), dtype=v.dtype)
    out[i - r * (nx // b), j + r * ny] = v
    return out


@SETTINGS
@given(nested_grids())
def test_coarse_values_matches_replicated_reference(case):
    base, (ds, ps), rng = case
    d = random_density(base, ds, rng)
    p = random_partition(base, ps, rng)
    ref = []
    for c in p.cells:
        dv, mm = on_common_grid(d.values, c.member)
        ref.append(dv[mm].mean())
    np.testing.assert_allclose(coarse_values(d, p), ref, rtol=RTOL, atol=0)


@SETTINGS
@given(nested_grids())
def test_measure_of_set_matches_replicated_reference(case):
    base, (ds, as_), rng = case
    d = random_density(base, ds, rng)
    a = random_set(base, as_, rng)
    dv, am = on_common_grid(d.values, a.member)
    np.testing.assert_allclose(weak_pairing(d, a), np.where(am, dv, 0.0).mean(),
                               rtol=RTOL, atol=0)


@SETTINGS
@given(nested_grids())
def test_weak_pairing_matches_replicated_reference(case):
    base, (ds, gs), rng = case
    d = random_density(base, ds, rng)
    g = rng.random(gs) + 0.05
    dv, gv = on_common_grid(d.values, g)
    np.testing.assert_allclose(weak_pairing(d, g), (dv * gv).mean(), rtol=RTOL, atol=0)


@SETTINGS
@given(nested_grids(), st.integers(0, 3))
def test_correlation_matches_replicated_reference(case, t):
    base, (as_, bs), rng = case
    spec = MapSpec("baker" if len(as_) == 2 else "renyi", base)
    a, b = random_set(base, as_, rng), random_set(base, bs, rng)
    pre = b
    for _ in range(t):
        pre = preimage_set(spec, pre)
    am, pm = on_common_grid(a.member, pre.member)
    ref = np.logical_and(am, pm).mean() - a.volume() * b.volume()
    assert abs(correlation(a, b, spec, t) - ref) <= RTOL


@SETTINGS
@given(nested_grids(count=1, dims=2, min_x_level=1))
def test_fp_baker_is_a_permutation(case):
    base, (shape,), rng = case
    d = random_density(base, shape, rng)
    out = fp_baker(d)
    assert np.array_equal(out.values, _baker_scatter(d.values, base))
    assert np.array_equal(np.sort(out.values, axis=None), np.sort(d.values, axis=None))
    for p in (0.5, 1, 2, 3):
        assert math.fsum((out.values ** p).ravel()) == math.fsum((d.values ** p).ravel())


@SETTINGS
@given(nested_grids(count=1, dims=2))
def test_fp_baker_on_exhausted_x_tiles_y(case):
    base, (shape,), rng = case
    d = random_density(base, (1, shape[1]), rng)
    out = fp_baker(d)
    assert np.array_equal(out.values, fp_baker(d.refined(axis=0)).values)
    assert np.array_equal(out.values, np.tile(d.values, (1, base)))


@SETTINGS
@given(nested_grids(dims=2), st.integers(0, 5))
def test_tiled_baker_image_matches_its_full_array(case, extra):
    # t runs past x-exhaustion by up to 5 steps, so the image is a period tiled b**extra times
    base, (ds, os_), rng = case
    d = random_density(base, ds, rng)
    out = d
    for _ in range(d.levels[0] + extra):
        out = fp_baker(out)
    assert np.array_equal(out.values, np.tile(out._period, (1, out._tiles)))
    full = Density(base, out.values, normalize=False)
    assert full.shape == out.shape and full.levels == out.levels
    p, a, g = random_partition(base, os_, rng), random_set(base, os_, rng), rng.random(os_)
    close = lambda f: np.testing.assert_allclose(f(out), f(full), rtol=1e-15, atol=0)
    close(lambda x: coarse_values(x, p))
    close(lambda x: weak_pairing(x, g))
    close(lambda x: weak_pairing(x, a))
    close(l1_norm)
    # H sums terms of both signs, so its error is relative to the integral of |rho ln rho|
    v = out.values
    assert abs(gibbs_entropy(out) - gibbs_entropy(full)) <= 1e-15 * np.abs(v * np.log(v)).mean()
    close(lambda x: x.marginal_x().values)
    for axis in (0, 1):
        assert np.array_equal(out.refined(axis).values, full.refined(axis).values)
    # kx >= 1 again: the step reads the full array, whose image is not periodic
    assert np.array_equal(fp_baker(out.refined(0)).values, fp_baker(full.refined(0)).values)


@SETTINGS
@given(nested_grids(count=1, dims=2), st.integers(0, 5))
def test_cell_mean_of_tiled_baker_image_reads_its_full_array(case, extra):
    base, (shape,), rng = case
    out = random_density(base, shape, rng)
    for _ in range(out.levels[0] + extra):
        out = fp_baker(out)
    for f in (np.abs, np.square, lambda v: np.abs(v - 1)):
        ref = f(out.values).mean()
        assert abs(out.cell_mean(f) - ref) <= 1e-15 * ref
    assert abs(out.cell_mean() - out.values.mean()) <= 1e-15 * out.values.mean()


@SETTINGS
@given(st.integers(2, 5), st.integers(0, 6), st.integers(0, 2 ** 32 - 1))
def test_baker_x_marginal_is_the_renyi_factor(base, t, seed):
    # the x-coarse-grained baker is the Renyi map (Antoniou & Tasaki 1992); the two sides
    # average the same cells in a different order, which moved values near 1 by up to 3 ulps
    d = random_density(base, (base ** 4, base ** 2), np.random.default_rng(seed))
    baker, renyi = d, d.marginal_x()
    for _ in range(t):
        baker, renyi = fp_baker(baker), fp_renyi(renyi)
    lhs = baker.marginal_x().values
    np.testing.assert_allclose(np.repeat(lhs, base ** 4 // lhs.size), renyi.values,
                               rtol=0, atol=4 * np.finfo(float).eps)


@SETTINGS
@given(nested_grids(count=1, min_x_level=1), st.integers(1, 4))
def test_transfer_operators_keep_mass_and_positivity(case, t):
    # a Markov operator: the mass stays 1 and every value stays within the
    # initial range, so a positive density stays positive
    base, (shape,), rng = case
    d = random_density(base, shape, rng)
    lo, hi = d.values.min(), d.values.max()
    step = fp_renyi if d.dims == 1 else fp_baker
    for _ in range(t):
        d = step(d)
        assert abs(d.cell_mean() - 1.0) <= 1e-14
        assert lo * (1 - 1e-15) <= d.values.min() and d.values.max() <= hi * (1 + 1e-15)


@SETTINGS
@given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 9), st.data())
def test_renyi_image_measure_of_an_interval(base, level, t, data):
    n = base ** level
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo, n))
    exact = float(min(Fraction(1), Fraction((hi - lo) * base ** t, n)))  # rounded once
    assert image_measure(MapSpec("renyi", base), interval_set(base, level, lo, hi), t) == exact


def _renyi_gather(v, b):
    """The Renyi step by explicit cell indices: (1/b) sum_r v[(j + r*n) // b]."""
    n = v.size
    j = np.arange(n)
    out = np.zeros(n)
    for r in range(b):
        out += v[(j + r * n) // b]
    return out / b


@SETTINGS
@given(st.integers(2, 7), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_fp_renyi_matches_index_gather(base, level, seed):
    # 7**8 cells are left out: the gather's index arrays alone would take 0.2 GB
    assume(base ** level <= 2 ** 21)
    d = random_density(base, (base ** level,), np.random.default_rng(seed))
    assert np.array_equal(fp_renyi(d).values, _renyi_gather(d.values, base))


@SETTINGS
@given(nested_grids(count=1), st.integers(1, 3))
def test_preimage_of_image_recovers_the_set(case, t):
    base, (shape,), rng = case
    a = random_set(base, shape, rng)
    if len(shape) == 2:
        spec = MapSpec("baker", base)
        img = a
        for _ in range(t):
            img = image_set(spec, img)
        back = img
        for _ in range(t):
            back = preimage_set(spec, back)
        got, want = on_common_grid(back.member, a.member)
        assert np.array_equal(got, want)
    else:
        spec = MapSpec("renyi", base)
    back = a
    for _ in range(t):
        back = preimage_set(spec, back)
    for _ in range(t):
        back = image_set(spec, back)
    got, want = on_common_grid(back.member, a.member)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", [(1, 2 ** 22), (2 ** 11, 2 ** 11)])
def test_coarse_values_does_not_copy_the_state(shape):
    d = Density(2, np.random.default_rng(0).random(shape) + 0.05, normalize=False)
    cells = []
    for i in range(2):
        for j in range(2):
            m = np.zeros((2, 2), dtype=bool)
            m[i, j] = True
            cells.append(GridSet(2, m))
    p = Partition(tuple(cells))
    tracemalloc.start()
    try:
        coarse_values(d, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < d.values.nbytes / 4
