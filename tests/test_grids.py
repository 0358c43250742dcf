import numpy as np
import pytest

from arrowlab.grids import (Density, GridSet, GridMismatchError, Partition,
                            StochasticKernel, TrivialPartitionError,
                            apply_kernel_signed, apply_markov, coarse_grain,
                            coarse_values, density_from_csv, density_to_csv,
                            interval_set, l1_norm, on_common_grid,
                            square_partition, uniform_density, weak_pairing)


def test_density_basic():
    d = uniform_density(2, 3)
    assert d.values.shape == (8,)
    assert d.level == 3
    assert d.cell_volume == 1 / 8
    assert l1_norm(d) == 1.0


def test_density_normalizes():
    d = Density(2, np.array([1.0, 3.0, 1.0, 3.0]))
    assert abs(d.values.mean() - 1.0) < 1e-15


def test_density_rejects_negative_and_bad_size():
    with pytest.raises(ValueError):
        Density(2, np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        Density(2, np.ones(6))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("normalize", [True, False])
def test_density_rejects_non_finite(bad, normalize):
    with pytest.raises(ValueError, match="finite"):
        Density(2, np.array([bad, 1.0]), normalize=normalize)


def test_anisotropic_levels():
    d = Density(2, np.ones((8, 2)), normalize=False)
    assert d.levels == (3, 1)
    with pytest.raises(ValueError):
        d.level


def test_refined_preserves_integrals():
    rng = np.random.default_rng(0)
    d = Density(2, rng.random(8) + 0.1)
    r = d.refined(extra_levels=2)
    assert r.values.shape == (32,)
    assert abs(l1_norm(r) - l1_norm(d)) < 1e-15


def test_marginal_x():
    rng = np.random.default_rng(1)
    d = Density(2, rng.random((4, 8)) + 0.1)
    m = d.marginal_x()
    assert m.values.shape == (4,)
    assert abs(m.values.mean() - 1.0) < 1e-12


def test_interval_set_and_measure():
    a = interval_set(2, 3, 1, 4)
    assert a.volume() == 3 / 8
    d = uniform_density(2, 3)
    assert weak_pairing(d, a) == 3 / 8
    assert (~a.member).mean() == 5 / 8
    # a set pairs as its mask, and only with a density of its base
    d = Density(2, np.arange(1.0, 9.0))
    assert weak_pairing(d, a) == weak_pairing(d, a.member)
    assert abs(weak_pairing(d, a) - 9 / 36) < 1e-15
    with pytest.raises(GridMismatchError, match="base mismatch"):
        weak_pairing(d, interval_set(4, 1, 1, 3))


def test_on_common_grid():
    a = np.arange(4.0)
    b = np.arange(8.0)
    ra, rb = on_common_grid(a, b)
    assert ra.shape == rb.shape == (8,)
    assert np.all(ra[:2] == 0.0)
    with pytest.raises(GridMismatchError):
        on_common_grid(np.ones(4), np.ones((4, 4)))


def test_stochastic_kernel_validation():
    with pytest.raises(ValueError):
        StochasticKernel(np.ones((3, 3)))
    k = StochasticKernel(np.full((4, 4), 0.25))
    d = Density(2, np.array([2.0, 1.0, 0.5, 0.5]))
    out = apply_markov(k, d)
    assert abs(l1_norm(out) - 1.0) < 1e-12
    assert np.array_equal(out.values, apply_kernel_signed(k, d.values))
    for bad in (uniform_density(2, 3), Density(2, np.ones((2, 2)))):
        with pytest.raises(GridMismatchError, match="kernel size does not match grid"):
            apply_markov(k, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stochastic_kernel_rejects_non_finite(bad):
    m = np.full((2, 2), 0.5)
    m[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        StochasticKernel(m)


def test_kernel_contracts_signed_functions():
    rng = np.random.default_rng(2)
    m = rng.random((8, 8)) + 0.01
    m /= m.sum(axis=0)
    k = StochasticKernel(m)
    for _ in range(20):
        f = rng.standard_normal(8)
        assert np.abs(apply_kernel_signed(k, f)).mean() <= np.abs(f).mean() + 1e-12


def test_partition_validation():
    with pytest.raises(TrivialPartitionError):
        Partition((interval_set(2, 1, 0, 2),))
    with pytest.raises(ValueError):
        Partition((interval_set(2, 1, 0, 1), interval_set(2, 1, 0, 1)))
    p = square_partition(2, 1)
    assert np.allclose(p.weights, [0.5, 0.5])


@pytest.mark.parametrize("make", [lambda: Density(2, np.ones(4)),
                                  lambda: GridSet(2, np.ones(4, dtype=bool)),
                                  lambda: StochasticKernel(np.eye(2)),
                                  lambda: square_partition(2, 1)],
                         ids=["Density", "GridSet", "StochasticKernel", "Partition"])
def test_grid_types_compare_by_identity(make):
    # two objects built from equal arrays are distinct, and both hash
    a, b = make(), make()
    assert a == a and not a == b and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_coarse_grain_idempotent_and_mass_preserving():
    rng = np.random.default_rng(3)
    d = Density(2, rng.random(16) + 0.1)
    p = square_partition(2, 2)
    c = coarse_grain(d, p)
    assert abs(l1_norm(c) - 1.0) < 1e-12
    c2 = coarse_grain(c, p)
    assert np.allclose(c.values, c2.values, atol=1e-14)
    vals = coarse_values(d, p)
    assert vals.shape == (4,)
    assert abs(vals.mean() - 1.0) < 1e-12


def test_csv_roundtrip():
    rng = np.random.default_rng(4)
    d = Density(2, rng.random(8) + 0.1)
    back = density_from_csv(density_to_csv(d))
    assert np.array_equal(back.values, d.values)
    d2 = Density(2, rng.random((4, 4)) + 0.1)
    back2 = density_from_csv(density_to_csv(d2))
    assert np.array_equal(back2.values, d2.values)
    # an anisotropic grid has no single level to write: fail before writing
    with pytest.raises(ValueError, match="anisotropic"):
        density_to_csv(Density(2, rng.random((2, 8)) + 0.1))
