from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowlab.maps import (MapSpec, baker_inverse_step, baker_step, orbit,
                           oscillator_flow, recurrence_stats, renyi_step,
                           reversibility_check, time_reverse, trajectory)


def test_renyi_step_exact():
    assert renyi_step(Fraction(1, 3), 2) == Fraction(2, 3)
    assert renyi_step(Fraction(2, 3), 2) == Fraction(1, 3)
    with pytest.raises(ValueError):
        renyi_step(1.5, 2)


def test_baker_inverts():
    p = (Fraction(3, 7), Fraction(2, 5))
    for _ in range(10):
        q = baker_step(p, 2)
        assert baker_inverse_step(q, 2) == p
        p = q
    with pytest.raises(ValueError, match="point must lie in the unit square"):
        baker_step((Fraction(1, 2), Fraction(1)), 2)


def test_factor_projection_commutes():
    # projecting then shifting equals baker-then-project
    p = (Fraction(3, 7), Fraction(2, 5))
    assert renyi_step(p[0], 2) == baker_step(p, 2)[0]


def test_time_reverse_involution():
    assert time_reverse(time_reverse((0.3, -0.7))) == (0.3, -0.7)


def test_orbit_periodicity():
    # 1/3 is period-2 under doubling
    pts = orbit(Fraction(1, 3), MapSpec("renyi", 2), 4)
    assert pts[0] == pts[2] == pts[4]


def test_orbit_rejects_negative_steps():
    with pytest.raises(ValueError, match="t must be non-negative"):
        orbit(Fraction(1, 3), MapSpec("renyi", 2), -1)


def test_trajectory_is_lazy_and_steps_exactly_t_times():
    calls = []

    def step(x):
        calls.append(x)
        return x + 1

    states = trajectory(step, 10, 3)
    assert calls == []
    assert next(states) == 10 and calls == []
    assert list(states) == [11, 12, 13] and calls == [10, 11, 12]
    assert list(trajectory(step, 5, 0)) == [5] and len(calls) == 3


@pytest.mark.parametrize("t", [-1, -7])
def test_trajectory_rejects_negative_t_at_the_call(t):
    calls = []
    with pytest.raises(ValueError, match="t must be non-negative"):
        trajectory(calls.append, 0, t)
    assert calls == []


def test_mapspec_validation():
    with pytest.raises(ValueError):
        MapSpec("circle", 2)
    with pytest.raises(ValueError):
        MapSpec("renyi", 1)


def test_oscillator_energy_and_reversibility():
    q, p = oscillator_flow((1.0, 0.0), omega=1.0, t=2 * np.pi, dt=1e-3)
    assert abs(q - 1.0) < 1e-3 and abs(p) < 1e-3
    for x0 in [(1.0, 0.0), (0.3, -0.8), (-1.2, 0.5)]:
        assert reversibility_check(x0, omega=1.3, t=5.0, dt=1e-3) < 1e-10


def test_recurrence_renyi_full_set_returns():
    cells = np.array([True, False])  # left half at level 1
    res = recurrence_stats(MapSpec("renyi", 2), cells, 1,
                           n_samples=300, max_t=10, seed=7)
    # Poincare recurrence: almost every point returns eventually
    assert res["return_fraction"][-1] > 0.95


@pytest.mark.parametrize("kind, cells, level", [
    ("renyi", [True, False, False, False], 1),  # a level-2 set read at level 1
    ("renyi", [True, False], 2),
    ("renyi", [[True, False], [False, False]], 1),
    ("baker", [True, False], 1),
    ("baker", [[True, False]], 1),
])
def test_recurrence_rejects_cells_off_the_level_grid(kind, cells, level):
    with pytest.raises(ValueError, match="do not match"):
        recurrence_stats(MapSpec(kind, 2), np.array(cells), level, n_samples=5, max_t=3)


def test_recurrence_rejects_no_samples():
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        recurrence_stats(MapSpec("renyi", 2), np.array([True, False]), 1, n_samples=0, max_t=3)
    with pytest.raises(ValueError, match="recurrence set is empty"):
        recurrence_stats(MapSpec("renyi", 2), np.array([False, False]), 1, n_samples=5, max_t=3)


def test_recurrence_rejects_a_negative_horizon():
    with pytest.raises(ValueError, match="max_t must be >= 0"):
        recurrence_stats(MapSpec("renyi", 2), np.array([True, False]), 1, n_samples=5, max_t=-1)


def test_recurrence_baker_left_half_one_step():
    # the left half-square maps onto the bottom half; only the left-bottom
    # quarter of it is back inside after one step
    cells = np.zeros((2, 2), dtype=bool)
    cells[0, :] = True
    res = recurrence_stats(MapSpec("baker", 2), cells, 1,
                           n_samples=2000, max_t=1, seed=11)
    assert abs(res["return_fraction"][1] - 0.5) < 0.05


def _recurrence_reference(spec, cells, level, n_samples, max_t, seed):
    """recurrence_stats as Fraction orbits of renyi_step / baker_step, drawing
    x (then y) = k / (2^61 - 1) in the same order; also the largest y
    denominator a baker orbit reached."""
    rng = np.random.default_rng(seed)
    denom = (1 << 61) - 1
    n_cells = spec.base ** level
    renyi = spec.kind == "renyi"

    def draw():
        return Fraction(int(rng.integers(0, denom)), denom)

    def in_set(pt):
        if renyi:
            return bool(cells[int(pt * n_cells)])
        return bool(cells[int(pt[0] * n_cells), int(pt[1] * n_cells)])

    returned = np.zeros(max_t + 1)
    total, y_denom = 0, 0
    while total < n_samples:
        pt = draw() if renyi else (draw(), draw())
        if not in_set(pt):
            continue
        total += 1
        for t in range(1, max_t + 1):
            pt = renyi_step(pt, spec.base) if renyi else baker_step(pt, spec.base)
            y_denom = y_denom if renyi else max(y_denom, pt[1].denominator)
            if in_set(pt):
                returned[t:] += 1
                break
    return total, returned / total, y_denom


def _random_cells(kind, base, level, fill, cell_seed):
    local = np.random.default_rng(cell_seed)
    shape = (base ** level,) * (1 if kind == "renyi" else 2)
    cells = local.random(shape) < fill
    cells.flat[local.integers(cells.size)] = True  # never empty
    return cells


def _check_recurrence(kind, base, level, fill, cell_seed, n_samples, max_t, seed):
    spec = MapSpec(kind, base)
    cells = _random_cells(kind, base, level, fill, cell_seed)
    res = recurrence_stats(spec, cells, level, n_samples=n_samples, max_t=max_t, seed=seed)
    total, fraction, y_denom = _recurrence_reference(spec, cells, level, n_samples, max_t, seed)
    assert res["n_samples"] == total == n_samples
    assert res["return_fraction"].tobytes() == fraction.tobytes()
    return y_denom


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["renyi", "baker"]), st.integers(2, 5), st.integers(1, 2),
       st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1), st.integers(1, 20),
       st.integers(0, 30), st.integers(0, 2 ** 31 - 1))
def test_recurrence_matches_fraction_orbits(kind, base, level, fill, cell_seed,
                                            n_samples, max_t, seed):
    _check_recurrence(kind, base, level, fill, cell_seed, n_samples, max_t, seed)


def _recurrence_scalar_draws(spec, cells, level, n_samples, max_t, seed):
    """recurrence_stats on integer numerators with one scalar draw per
    coordinate (x, then y for the baker), the loop the block draws replace."""
    rng = np.random.default_rng(seed)
    p = (1 << 61) - 1
    b, n_cells = spec.base, spec.base ** level
    renyi = spec.kind == "renyi"
    grid, n_y = (cells[:, None], 1) if renyi else (cells, n_cells)
    returned = np.zeros(max_t + 1)
    total = 0
    while total < n_samples:
        x = int(rng.integers(0, p))
        y, d = (0, 1) if renyi else (int(rng.integers(0, p)), p)
        if not grid[x * n_cells // p, y * n_y // d]:
            continue
        total += 1
        for t in range(1, max_t + 1):
            r, x = divmod(b * x, p)
            y, d = y + r * d, d * b
            if grid[x * n_cells // p, y * n_y // d]:
                returned[t:] += 1
                break
    return total, returned / total


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["renyi", "baker"]), st.integers(2, 5), st.integers(1, 2),
       st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1), st.integers(1, 400),
       st.integers(0, 30), st.integers(0, 2 ** 31 - 1))
def test_recurrence_block_draws_match_scalar_draws(kind, base, level, fill, cell_seed,
                                                   n_samples, max_t, seed):
    spec = MapSpec(kind, base)
    cells = _random_cells(kind, base, level, fill, cell_seed)
    res = recurrence_stats(spec, cells, level, n_samples=n_samples, max_t=max_t, seed=seed)
    total, fraction = _recurrence_scalar_draws(spec, cells, level, n_samples, max_t, seed)
    assert res["n_samples"] == total == n_samples
    assert res["return_fraction"].tobytes() == fraction.tobytes()


def test_recurrence_baker_denominator_past_64_bits():
    # one cell of 625: most orbits run all 30 steps, so D_y = P 5^t passes 2^64
    y_denom = _check_recurrence("baker", 5, 2, 0.0, 3, 10, 30, 1)
    assert y_denom > 2 ** 64


@pytest.mark.parametrize("t", [1e-4, 0.0014, -0.7, 0.3337, 2 * np.pi])
@pytest.mark.parametrize("omega, x0", [(1.0, (1.0, 0.0)), (1.3, (0.3, -0.8))])
def test_oscillator_flow_runs_for_time_t(t, omega, x0):
    # times that are not multiples of dt; the exact flow rotates (q, p/omega)
    q0, p0 = x0
    c, s = np.cos(omega * t), np.sin(omega * t)
    q, p = oscillator_flow(x0, omega, t, dt=1e-3)
    assert abs(q - (q0 * c + p0 / omega * s)) < 1e-6
    assert abs(p - (p0 * c - omega * q0 * s)) < 1e-6


def test_oscillator_flow_rejects_non_positive_dt():
    for dt in (0.0, -1e-3):
        with pytest.raises(ValueError, match="dt must be positive"):
            oscillator_flow((1.0, 0.0), 1.0, 1.0, dt)
