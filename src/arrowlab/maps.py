"""Point dynamics: Renyi (beta-adic shift) and baker maps, classical time
reversal, recurrence statistics, and `trajectory`, the one forward-iteration
loop for orbits, densities and sets.

Float orbits of x -> beta*x mod 1 collapse after ~53 steps in binary, so the
orbit utilities also run in exact rational arithmetic (Fraction, or integer
numerators over a known denominator), where the map is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat

import numpy as np


@dataclass(frozen=True)
class MapSpec:
    kind: str  # "renyi" or "baker"
    base: int = 2

    def __post_init__(self):
        if self.kind not in ("renyi", "baker"):
            raise ValueError(f"unknown map kind {self.kind!r}")
        if self.base < 2:
            raise ValueError("base must be >= 2")


def renyi_step(x, base: int):
    """One step of multiplication by `base` modulo 1; exact on Fractions."""
    if not (0 <= x < 1):
        raise ValueError("x must lie in [0,1)")
    return (base * x) % 1


def baker_step(p, base: int):
    """Squeeze-stack baker step: (x,y) -> (b x - r, (y + r)/b), r = floor(b x)."""
    x, y = p
    if not (0 <= x < 1 and 0 <= y < 1):
        raise ValueError("point must lie in the unit square")
    r = int(base * x)
    return (base * x - r, (y + r) / base)


def baker_inverse_step(p, base: int):
    """Inverse baker step S^-1 = R S R, with the time reversal R(x, y) = (y, x)."""
    return baker_step(p[::-1], base)[::-1]


def time_reverse(p):
    """Velocity inversion (q, p) -> (q, -p); an involution."""
    q, mom = p
    return (q, -mom)


def trajectory(step, x0, t: int):
    """Lazy forward trajectory x0, step(x0), ..., step^t(x0): t + 1 states from
    exactly t calls of `step`; a negative t raises here, before any is taken."""
    if t < 0:
        raise ValueError("t must be non-negative")
    return accumulate(repeat(step, t), lambda x, f: f(x), initial=x0)


def orbit(x0, spec: MapSpec, n_steps: int):
    """Forward orbit [x0, S x0, ..., S^n x0]; exact if x0 is rational."""
    step = renyi_step if spec.kind == "renyi" else baker_step
    return list(trajectory(lambda x: step(x, spec.base), x0, n_steps))


# ---------------------------------------------------------------------------
# toy reversible flow: harmonic oscillator with leapfrog
# ---------------------------------------------------------------------------

def oscillator_flow(x0, omega: float, t: float, dt: float = 1e-3):
    """State at time t of H = p^2/2 + omega^2 q^2/2 by the time-reversible
    leapfrog, in n = ceil(|t|/dt) equal steps (at least one) of h = t/n."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    q, p = x0
    n = max(1, math.ceil(abs(t) / dt))
    h, w2 = t / n, omega * omega
    p = p - 0.5 * h * w2 * q
    for _ in range(n - 1):
        q = q + h * p
        p = p - h * w2 * q
    q = q + h * p
    p = p - 0.5 * h * w2 * q
    return q, p


def reversibility_check(x0, omega: float = 1.0, t: float = 2 * np.pi,
                        dt: float = 1e-3):
    """Forward-reverse-forward-reverse round trip distance from x0.

    A time-reversible integrator returns to the initial point up to round-off.
    """
    p1 = oscillator_flow(x0, omega, t, dt)
    p2 = time_reverse(p1)
    p3 = oscillator_flow(p2, omega, t, dt)
    p4 = time_reverse(p3)
    return float(np.hypot(p4[0] - x0[0], p4[1] - x0[1]))


# ---------------------------------------------------------------------------
# recurrence statistics
# ---------------------------------------------------------------------------

def recurrence_stats(spec: MapSpec, cells, level: int, n_samples: int,
                     max_t: int, seed: int = 0):
    """Fraction of points sampled in a beta-adic set that return by max_t.

    `cells` is a boolean membership array at `level` (1D for Renyi, 2D for
    baker).  Points are sampled as x = X/P (and y = Y/P for the baker) with the
    odd prime P = 2^61 - 1 and iterated exactly on integer numerators, so long
    orbits do not collapse in floating point: a step is r, X = divmod(b X, P),
    and y = Y/D takes Y += r D, D *= b.  Renyi points carry a dummy y = 0/1.
    Candidates are drawn in blocks, one `rng.integers` call of one row (x, or
    x then y) per sample still missing, so the stream and its order are those
    of one draw per point and a block never overshoots `n_samples`.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if max_t < 0:
        raise ValueError("max_t must be >= 0")
    cells = np.asarray(cells, dtype=bool)
    if not cells.any():
        raise ValueError("recurrence set is empty")
    rng = np.random.default_rng(seed)
    p = (1 << 61) - 1  # Mersenne prime, coprime to any reasonable base
    b, n_cells = spec.base, spec.base ** level
    renyi = spec.kind == "renyi"
    if cells.shape != (n_cells,) * (1 if renyi else 2):
        raise ValueError(f"cells of shape {cells.shape} do not match {spec.kind} level {level}")
    grid, n_y = (cells[:, None], 1) if renyi else (cells, n_cells)

    returned = np.zeros(max_t + 1)
    total = 0
    while total < n_samples:
        for x, *ys in rng.integers(0, p, size=(n_samples - total, 1 if renyi else 2)).tolist():
            y, d = (ys[0], p) if ys else (0, 1)
            if not grid[x * n_cells // p, y * n_y // d]:
                continue
            total += 1
            for t in range(1, max_t + 1):
                r, x = divmod(b * x, p)
                y, d = y + r * d, d * b
                if grid[x * n_cells // p, y * n_y // d]:
                    returned[t:] += 1
                    break
    return {
        "n_samples": total,
        "seed": seed,
        "return_fraction": returned / total,
    }
