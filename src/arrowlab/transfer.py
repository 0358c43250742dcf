"""Frobenius-Perron operators for the Renyi and baker maps on grid densities,
exact set image/counterimage enumeration, and convergence-mode classification
(Cesaro / weak / strong).

All set operations are exact rearrangements of cell arrays (reshapes,
transposes, tiles); there is no floating-point set geometry anywhere in this
module.
"""

from __future__ import annotations

import numpy as np

from .grids import Density, GridSet, GridMismatchError, pairing, weak_pairing
from .grids import on_common_grid  # noqa: F401  (perfbench/tracing.py wraps it here)
from .maps import MapSpec


# ---------------------------------------------------------------------------
# density evolution
# ---------------------------------------------------------------------------

def fp_renyi(d: Density) -> Density:
    """One transfer-operator step for the beta-adic shift.

    (U rho)(x) = (1/b) sum_r rho((x+r)/b); exact on the grid.  The result is
    constant on level-(k-1) cells and is returned replicated at level k.
    """
    if d.dims != 1:
        raise ValueError("fp_renyi needs a 1D density")
    b = d.base
    k = d.levels[0]
    if k < 1:
        raise ValueError("level-0 grid cannot resolve preimages")
    # level-k cell j holds the mean of the cells j // b + r b^(k-1), r < b
    return Density(b, np.repeat(d.values.reshape(b, -1).mean(0), b), normalize=False)


def _baker_cells(v: np.ndarray, b: int) -> np.ndarray:
    """Cell array of the baker image: (nx, ny) -> (nx/b, b*ny).

    Strip r of the x-axis (rows r*nx/b .. (r+1)*nx/b - 1) is squeezed into
    the r-th block of the y-axis, a permutation of the cells.  Once x is
    exhausted (nx == 1) the image is rho(b*y mod 1): the row tiled b times.
    """
    nx, ny = v.shape
    if nx == 1:
        return np.tile(v, (1, b))
    return v.reshape(b, nx // b, ny).transpose(1, 0, 2).reshape(nx // b, b * ny)


def _baker_cells_inverse(v: np.ndarray, b: int) -> np.ndarray:
    """Inverse of `_baker_cells`: (nx, ny) -> (b*nx, ny/b); tiles x if ny == 1."""
    nx, ny = v.shape
    if ny == 1:
        return np.tile(v, (b, 1))
    return v.reshape(nx, b, ny // b).transpose(1, 0, 2).reshape(b * nx, ny // b)


def fp_baker(d: Density) -> Density:
    """One baker transfer-operator step: exact cell rearrangement.

    A density on an (kx, ky) grid with kx >= 1 maps onto the (kx-1, ky+1)
    grid with the same number of equal-volume cells; values are carried over
    unchanged (the map preserves Lebesgue measure), so every L^p norm is
    conserved exactly.  With kx = 0 the density depends on y alone and the
    step is rho(y) -> rho(b*y mod 1): the (0, ky) grid maps onto (0, ky+1)
    with the row tiled b times, which again conserves every L^p norm; that
    step keeps the period and multiplies its tile count by b (`Density.tiled`).  A
    tiled density with kx >= 1 (from `refined(axis=0)`) is stepped on its full array.
    """
    if d.dims != 2:
        raise ValueError("fp_baker needs a 2D density")
    if d.shape[0] == 1:
        return d.tiled(d.base)
    return Density(d.base, _baker_cells(d.values, d.base), normalize=False)


def _check_base(spec: MapSpec, grid) -> None:
    if spec.base != grid.base:
        raise GridMismatchError("map base must match the grid base")


def fp_step(spec: MapSpec, d: Density) -> Density:
    _check_base(spec, d)
    return fp_renyi(d) if spec.kind == "renyi" else fp_baker(d)


def fp_iterate(spec: MapSpec, d: Density, t: int) -> Density:
    for _ in range(t):
        d = fp_step(spec, d)
    return d


# ---------------------------------------------------------------------------
# exact set dynamics
# ---------------------------------------------------------------------------

def preimage_set(spec: MapSpec, a: GridSet) -> GridSet:
    """S^-1(A), exactly representable one level finer."""
    _check_base(spec, a)
    b = spec.base
    if spec.kind == "renyi":
        # level-(k+1) cell c maps onto level-k cell c mod b^k
        return GridSet(b, np.tile(a.member, b))
    return GridSet(b, _baker_cells_inverse(a.member, b))


def image_set(spec: MapSpec, a: GridSet) -> GridSet:
    """S(A) by exact forward cell enumeration."""
    _check_base(spec, a)
    b = spec.base
    if spec.kind == "renyi":
        n = a.member.size
        if n == 1:
            return a
        # level-k cell c maps onto level-(k-1) cell c mod b^(k-1)
        return GridSet(b, a.member.reshape(b, n // b).any(axis=0))
    return GridSet(b, _baker_cells(a.member, b))


def image_measure(spec: MapSpec, a: GridSet, t: int) -> float:
    """Lebesgue measure of S^t(A)."""
    if t < 0:
        raise ValueError("t must be non-negative")
    for _ in range(t):
        a = image_set(spec, a)
    return float(a.volume())


def counterimage_measure(spec: MapSpec, a: GridSet, t: int) -> float:
    """Lebesgue measure of S^-t(A); equals measure(A) for these maps."""
    for _ in range(t):
        a = preimage_set(spec, a)
    return float(a.volume())


def correlation(a: GridSet, b_set: GridSet, spec: MapSpec, t: int) -> float:
    """Mixing correlation mu(A cap S^-t(B)) - mu(A) mu(B), exactly."""
    _check_base(spec, a)
    _check_base(spec, b_set)
    pre = b_set
    for _ in range(t):
        pre = preimage_set(spec, pre)
    return pairing(a, pre.member) - a.volume() * b_set.volume()


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

def cesaro_average(spec: MapSpec, d: Density, g: np.ndarray, big_t: int) -> float:
    """(1/T) sum_{k<T} (P_k rho, g)."""
    if big_t < 1:
        raise ValueError("T must be >= 1")
    total = 0.0
    cur = d
    for k in range(big_t):
        total += weak_pairing(cur, g)
        if k < big_t - 1:
            cur = fp_step(spec, cur)
    return total / big_t


def fit_geometric(series: np.ndarray):
    """Least-squares geometric fit on the positive tail; returns (rate, r2)."""
    series = np.asarray(series, dtype=float)
    pos = series > 0
    if pos.sum() < 3:
        return (0.0, 0.0)
    t = np.arange(len(series))[pos]
    y = np.log(series[pos])
    slope, icept = np.polyfit(t, y, 1)
    resid = y - (slope * t + icept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - np.sum(resid ** 2) / ss_tot if ss_tot > 0 else 1.0
    return (float(np.exp(slope)), float(r2))


def classify_series(series: np.ndarray):
    """Convergence verdict for a non-negative deviation series.

    Constant to 1e-12 total variation -> not convergent; otherwise a geometric
    fit on the last half must have R^2 > 0.99 and rate < 1.
    """
    series = np.asarray(series, dtype=float)
    if series.max() - series.min() < 1e-12:
        converged = bool(series.max() < 1e-12)
        return {"verdict": converged, "rate": 1.0 if not converged else 0.0,
                "r2": 1.0, "constant": True}
    if series[-1] < 1e-12:
        # decayed to exactly zero in finitely many steps
        rate, _ = fit_geometric(series)
        return {"verdict": True, "rate": rate, "r2": 1.0, "constant": False}
    tail = series[len(series) // 2:]
    rate, r2 = fit_geometric(tail)
    return {"verdict": bool(r2 > 0.99 and rate < 1.0), "rate": rate,
            "r2": r2, "constant": False}


def convergence_report(spec: MapSpec, d: Density, probes, t_max: int):
    """Cesaro / weak / strong convergence classification with fitted rates."""
    if t_max < 4:
        raise ValueError("t_max must be >= 4")
    probes = [np.asarray(g, dtype=float) for g in probes]
    means = [float(np.mean(g)) for g in probes]

    weak_dev, strong_dev, pairings = [], [], []
    cur = d
    for t in range(t_max + 1):
        pr = [weak_pairing(cur, g) for g in probes]
        pairings.append(pr)
        weak_dev.append(max(abs(p - m) for p, m in zip(pr, means)))
        strong_dev.append(cur.cell_mean(lambda v: np.abs(v - 1.0)))
        if t < t_max:
            cur = fp_step(spec, cur)
    pairings = np.array(pairings)
    cesaro_dev = [
        max(abs(pairings[: t + 1, i].mean() - means[i]) for i in range(len(probes)))
        for t in range(t_max + 1)
    ]
    return {
        "cesaro": classify_series(np.array(cesaro_dev)),
        "weak": classify_series(np.array(weak_dev)),
        "strong": classify_series(np.array(strong_dev)),
        "series": {
            "weak": list(map(float, weak_dev)),
            "strong": list(map(float, strong_dev)),
            "cesaro": list(map(float, cesaro_dev)),
        },
    }
