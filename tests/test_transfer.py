from functools import partial

import numpy as np
import pytest

from arrowlab.grids import (Density, GridMismatchError, GridSet, interval_set, l1_norm,
                            uniform_density)
from arrowlab.maps import MapSpec, trajectory
from arrowlab.transfer import (cesaro_average, classify_series,
                               convergence_report, correlation,
                               counterimage_measure, fp_baker, fp_iterate,
                               fp_renyi, fp_step, image_measure, image_set,
                               preimage_set, weak_pairing)

RENYI = MapSpec("renyi", 2)
BAKER = MapSpec("baker", 2)


def smooth_density(level, c=0.8, base=2):
    n = base ** level
    x = (np.arange(n) + 0.5) / n
    return Density(base, 1 + c * (x - 0.5), normalize=False)


def test_fp_renyi_preserves_mass_and_positivity():
    rng = np.random.default_rng(0)
    d = Density(2, rng.random(64) + 0.1)
    out = fp_renyi(d)
    assert abs(l1_norm(out) - 1.0) < 1e-14
    assert np.all(out.values >= 0)


def test_fp_renyi_fixed_point_uniform():
    u = uniform_density(2, 5)
    assert np.array_equal(fp_renyi(u).values, u.values)


def test_fp_renyi_halves_linear_deviation():
    d = smooth_density(12)
    dev = []
    cur = d
    for _ in range(6):
        dev.append(np.abs(cur.values - 1).mean())
        cur = fp_renyi(cur)
    ratios = np.array(dev[1:]) / np.array(dev[:-1])
    assert np.allclose(ratios, 0.5, atol=1e-12)


def test_fp_renyi_base3():
    d = smooth_density(6, base=3)
    out = fp_renyi(d)
    dev0 = np.abs(d.values - 1).mean()
    dev1 = np.abs(out.values - 1).mean()
    # staircase discretization shifts the L1 norm at O(n^-2)
    assert abs(dev1 / dev0 - 1 / 3) < 1e-4


@pytest.mark.parametrize("base", [3, 4])
def test_map_base_must_match_grid_base(base):
    # base 4 on a base-2 grid reshapes without error, so only the check stops it
    renyi, baker = MapSpec("renyi", base), MapSpec("baker", base)
    d1, d2 = smooth_density(6), Density(2, np.ones((16, 16)))
    a = interval_set(2, 6, 3, 17)
    probe = np.ones(64)
    calls = [lambda: fp_step(renyi, d1), lambda: fp_step(baker, d2),
             lambda: fp_iterate(renyi, d1, 2), lambda: cesaro_average(renyi, d1, probe, 3),
             lambda: convergence_report(renyi, d1, [probe], 4),
             lambda: image_measure(renyi, a, 1), lambda: counterimage_measure(renyi, a, 1),
             lambda: correlation(a, a, renyi, 0), lambda: correlation(a, a, renyi, 1),
             lambda: image_set(renyi, a), lambda: preimage_set(renyi, a)]
    for call in calls:
        with pytest.raises(GridMismatchError, match="map base must match the grid base"):
            call()


def test_fp_baker_is_measure_preserving_permutation():
    rng = np.random.default_rng(1)
    d = Density(2, rng.random((16, 16)) + 0.1)
    out = fp_baker(d)
    assert out.values.shape == (8, 32)
    assert np.array_equal(np.sort(out.values.ravel()),
                          np.sort(d.values.ravel()))
    for p in (1, 2, 3):
        assert abs((np.abs(out.values) ** p).mean()
                   - (np.abs(d.values) ** p).mean()) < 1e-13


def test_fp_baker_refines_x_when_exhausted():
    d = Density(2, np.ones((1, 4)) + 0, normalize=False)
    out = fp_baker(d)  # refines x first
    assert abs(l1_norm(out) - 1.0) < 1e-14


def test_baker_factors_onto_renyi():
    rng = np.random.default_rng(2)
    d = Density(2, rng.random((32, 8)) + 0.1)
    lhs = fp_baker(d).marginal_x()
    rhs = fp_renyi(d.marginal_x())
    from arrowlab.grids import on_common_grid
    a, b = on_common_grid(lhs.values, rhs.values)
    assert np.allclose(a, b, atol=1e-13)


def test_fp_iterate_matches_steps():
    d = smooth_density(10)
    once = fp_renyi(fp_renyi(d))
    twice = fp_iterate(RENYI, d, 2)
    assert np.array_equal(once.values, twice.values)


@pytest.mark.parametrize("spec, d, a", [
    (RENYI, smooth_density(8), interval_set(2, 8, 3, 40)),
    (MapSpec("renyi", 3), smooth_density(5, base=3), interval_set(3, 5, 7, 30)),
    (BAKER, Density(2, np.arange(1.0, 65.0).reshape(8, 8)),
     GridSet(2, np.tile(np.arange(8)[:, None] < 3, (1, 8)))),
], ids=["renyi2", "renyi3", "baker2"])
def test_trajectory_items_are_the_iterates(spec, d, a):
    t = 7
    states = list(trajectory(partial(fp_step, spec), d, t))
    images = list(trajectory(partial(image_set, spec), a, t))
    assert len(states) == len(images) == t + 1
    img = a
    for k in range(t + 1):
        assert np.array_equal(states[k].values, fp_iterate(spec, d, k).values)
        assert np.array_equal(images[k].member, img.member)
        assert images[k].volume() == image_measure(spec, a, k)
        img = image_set(spec, img)


def test_preimage_measure_is_invariant():
    a = interval_set(2, 4, 3, 9)
    assert counterimage_measure(RENYI, a, 5) == a.volume()
    sq = GridSet(2, np.tile(np.arange(8)[:, None] < 3, (1, 8)))
    assert counterimage_measure(BAKER, sq, 4) == sq.volume()


def test_image_measure_doubles_until_full():
    a = interval_set(2, 5, 0, 2)  # measure 1/16
    for t in range(8):
        assert image_measure(RENYI, a, t) == min(1.0, 2 ** t / 16)


def test_baker_image_is_bijective():
    sq = GridSet(2, np.tile(np.arange(8)[:, None] < 3, (1, 8)))
    img = image_set(BAKER, sq)
    assert img.volume() == sq.volume()
    back = preimage_set(BAKER, img)
    from arrowlab.grids import on_common_grid
    a, b = on_common_grid(back.member, sq.member)
    assert np.array_equal(a, b)


def test_renyi_correlations_vanish_for_dyadic_sets():
    a = interval_set(2, 3, 1, 4)
    b = interval_set(2, 2, 0, 1)
    # doubling map decorrelates dyadic intervals after enough steps
    assert abs(correlation(a, b, RENYI, 5)) < 1e-15
    # and mu(A cap S^-t B) = mu(A) mu(B) exactly from then on
    assert abs(correlation(a, b, RENYI, 8)) < 1e-15


def test_weak_pairing_and_cesaro():
    d = smooth_density(10)
    g = np.where(np.arange(1024) < 512, 1.0, 0.0)
    direct = float((d.values * g).mean())
    assert abs(weak_pairing(d, g) - direct) < 1e-15
    avg = cesaro_average(RENYI, d, g, 20)
    assert abs(avg - 0.5) < 0.01  # tends to the uniform value


def test_classify_series_cases():
    geo = 0.5 ** np.arange(12)
    rep = classify_series(geo)
    assert rep["verdict"] and abs(rep["rate"] - 0.5) < 1e-9
    const = np.full(12, 0.7)
    rep = classify_series(const)
    assert not rep["verdict"] and rep["constant"]
    zero = np.zeros(12)
    assert classify_series(zero)["verdict"]
    finite = np.array([0.4, 0.2, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert classify_series(finite)["verdict"]


def test_convergence_report_renyi_all_modes():
    d = smooth_density(12)
    n = d.values.size
    probes = [np.where(np.arange(n) < n // 2, 1.0, 0.0)]
    rep = convergence_report(RENYI, d, probes, 10)
    assert rep["cesaro"]["verdict"]
    assert rep["weak"]["verdict"]
    assert rep["strong"]["verdict"]
    assert abs(rep["strong"]["rate"] - 0.5) < 1e-6


def test_convergence_report_baker_weak_but_not_strong():
    n = 16
    vals = np.tile((np.arange(n)[:, None] < n // 2) * 2.0, (1, n))
    d = Density(2, vals, normalize=False)
    probes = [np.tile(np.arange(n) < n // 2, (n, 1)).astype(float)]
    rep = convergence_report(BAKER, d, probes, 10)
    assert rep["weak"]["verdict"]
    assert not rep["strong"]["verdict"]
    assert rep["strong"]["constant"]


def test_fp_renyi_level_zero_raises():
    with pytest.raises(ValueError):
        fp_renyi(Density(2, np.ones(1), normalize=False))


@pytest.mark.parametrize("call, message", [
    (lambda: fp_renyi(Density(2, np.ones((2, 2)))), "fp_renyi needs a 1D density"),
    (lambda: fp_baker(smooth_density(2)), "fp_baker needs a 2D density"),
    (lambda: cesaro_average(RENYI, smooth_density(3), np.ones(8), 0), "T must be >= 1"),
    (lambda: convergence_report(RENYI, smooth_density(3), [np.ones(8)], 3), "t_max must be >= 4"),
], ids=["fp_renyi", "fp_baker", "cesaro_average", "convergence_report"])
def test_input_checks_name_the_bad_argument(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call", [
    lambda a, t: image_measure(RENYI, a, t),
    lambda a, t: counterimage_measure(RENYI, a, t),
    lambda a, t: correlation(a, a, RENYI, t),
    lambda a, t: fp_iterate(RENYI, smooth_density(3), t),
], ids=["image_measure", "counterimage_measure", "correlation", "fp_iterate"])
def test_negative_time_rejected(call):
    a = interval_set(2, 3, 0, 2)
    with pytest.raises(ValueError, match="t must be non-negative"):
        call(a, -3)
