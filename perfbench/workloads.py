"""The benchmark's in-process workloads: inputs, one op each, and checkers.

Every op returns a plain result; `check_*` turns a result into residuals plus
a list of failed checks, so the self-test can feed a checker a corrupted
result.  Ops call the library through module attributes (`grids.coarse_values`,
not a name imported here) so the tracer's wrappers see every call.

The op definitions mirror acceptance criteria 06, 07, 01/02/05/09/10 and the
`test_liouville`/`test_maps` checks, at the tolerances those tests use.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from arrowlab import cosmo, entropy, friedrichs, grids, liouville, maps, spectral, transfer

# ---------------------------------------------------------------------------
# baker-second-law: criterion 06, one trajectory per op
# ---------------------------------------------------------------------------

BAKER_STEPS = 20


def quadrants() -> grids.Partition:
    cells = []
    for i in range(2):
        for j in range(2):
            m = np.zeros((2, 2), dtype=bool)
            m[i, j] = True
            cells.append(grids.GridSet(2, m))
    return grids.Partition(tuple(cells))


class Baker:
    def __init__(self, rng):
        self.rng = rng
        self.part = quadrants()
        self.w = self.part.weights

    def op(self):
        v = self.rng.random((2, 4)) + 0.05
        v /= v.mean()
        d = grids.Density(2, v, normalize=False)
        hs = []
        for t in range(BAKER_STEPS + 1):
            vals = grids.coarse_values(d, self.part)
            hs.append(float(-(self.w * vals * np.log(vals)).sum()))
            if t < BAKER_STEPS:
                d = transfer.fp_baker(d)
        return {"entropies": hs, "l1_norm": grids.l1_norm(d)}


def check_baker(res):
    hs = res["entropies"]
    steps = [b - a for a, b in zip(hs[1:], hs[2:])]
    resid = {"transfer.mass_drift": abs(res["l1_norm"] - 1.0),
             "entropy.second_law_margin": min(steps)}
    failed = []
    if resid["entropy.second_law_margin"] < -1e-12:
        failed.append("second-law monotonicity")
    if hs[-1] <= -1e-6:
        failed.append("final entropy")
    if resid["transfer.mass_drift"] > 1e-12:
        failed.append("mass")
    return resid, failed


# ---------------------------------------------------------------------------
# friedrichs-two-path: criterion 07 at a seed-drawn coupling
# ---------------------------------------------------------------------------

N_MODES = 2000
N_POINTS = 40001


class Friedrichs:
    def __init__(self, rng):
        self.rng = rng
        self.t = np.linspace(0.0, 200.0, 401)
        self.t_late = np.linspace(400.0, 1000.0, 61)

    def op(self):
        # lam below ~0.09 fails the Khalfin check at these times
        model = friedrichs.FriedrichsModel(omega1=1.0, lam=float(self.rng.uniform(0.10, 0.15)))
        rep = friedrichs.survival_probability(model, self.t, n_modes=N_MODES, n_points=N_POINTS)
        dt = 1e-3
        a_pm = friedrichs.survival_amplitude_oracle(model, [-dt, dt], n_modes=N_MODES)
        p_late = np.abs(friedrichs.survival_amplitude_quadrature(model, self.t_late,
                                                                 n_points=N_POINTS)) ** 2
        horizon = 0.5 * friedrichs.recurrence_time(model, N_MODES)
        return {"t": self.t, "p_oracle": rep["p_oracle"], "p_quadrature": rep["p_quadrature"],
                "flagged": rep["flagged"], "pole": rep["pole"],
                "golden": 2 * np.pi * model.lam ** 2 * float(model.g2(model.omega1)),
                "dp0": (abs(a_pm[1]) ** 2 - abs(a_pm[0]) ** 2) / (2 * dt),
                "t_late": self.t_late, "p_late": p_late, "horizon": horizon}


def check_friedrichs(res):
    pole = res["pole"]
    t, pq = res["t"], res["p_quadrature"]
    diff = float(np.abs(res["p_oracle"] - pq).max())
    golden = abs(pole.gamma1 - res["golden"]) / res["golden"]
    mid = (t >= 5.0) & (t <= 100.0)
    slope = np.polyfit(t[mid], np.log(pq[mid]), 1)[0]
    decay = np.exp(-pole.gamma1 * res["t_late"])
    khalfin = float((np.abs(res["p_late"] - decay) / decay).max())
    resid = {"friedrichs.two_path_max_diff": diff,
             "friedrichs.pole_residual": pole.residual,
             "friedrichs.flagged_times": int(res["flagged"].sum())
             + int((res["t_late"] > res["horizon"]).sum())}
    failed = []
    if res["flagged"].any() or diff >= 1e-3:
        failed.append("two-path agreement")
    if golden >= 0.10:
        failed.append("golden rule")
    if abs(-slope - pole.gamma1) / pole.gamma1 >= 0.10:
        failed.append("exponential slope")
    if abs(res["dp0"]) >= 1e-6:
        failed.append("Zeno")
    if res["t_late"].min() <= res["horizon"] or khalfin <= 0.10:
        failed.append("Khalfin tail")
    return resid, failed


# ---------------------------------------------------------------------------
# exact-algebra: spectral, liouville, entropy, cosmo and maps identities
# ---------------------------------------------------------------------------

BERNOULLI_BASES = (2, 3, 5)
BERNOULLI_NMAX = 12
SUPEROP_N = liouville.N_CAP


class ExactAlgebra:
    def __init__(self, rng):
        self.rng = rng

    def _cmat(self, n):
        return self.rng.random((n, n)) + 1j * self.rng.random((n, n))

    def op(self):
        rng = self.rng
        res = {"bernoulli": []}
        for beta in BERNOULLI_BASES:
            for n in range(BERNOULLI_NMAX + 1):
                bn = spectral.bernoulli_poly(n)
                res["bernoulli"].append((spectral.fp_poly(bn, beta),
                                         bn.scaled(Fraction(1, beta ** n))))
        res["gram"] = spectral.biorthonormality_matrix(BERNOULLI_NMAX)

        a, b, g, d = (self._cmat(SUPEROP_N) for _ in range(4))
        ab = liouville.super_product(a, b)
        x = ab + 0.7 * liouville.super_product(g, d)
        res["superop"] = [
            (liouville.super_compose(ab, liouville.super_product(g, d)),
             liouville.super_product(a @ g, d @ b)),
            (liouville.super_associated(ab), liouville.super_product(b.conj().T, a.conj().T)),
            (liouville.super_transpose(liouville.super_associated(x)), liouville.super_adjoint(x)),
        ]

        m = rng.random((8, 8)) + 0.01
        m /= m.sum(axis=0)
        res["voigt"] = entropy.voigt_monotonicity_suite(grids.StochasticKernel(m), trials=200,
                                                        seed=int(rng.integers(1 << 31)))

        w = np.sort(rng.random(6)) * 6
        r = self._cmat(6)
        rho = r + r.conj().T
        rho /= np.trace(rho).real
        obs = rng.random((6, 6))
        obs = obs + obs.T
        big_t = 50.0
        res["dephase"] = (liouville.dephase_cesaro(rho, w, obs, big_t),
                          cesaro_closed_form(rho, w, obs, big_t, 2000))

        params = cosmo.CosmoParams(omega1=float(rng.uniform(1.3, 1.7)),
                                   gamma=float(rng.uniform(0.05, 0.15)))
        res["cosmo"] = cosmo.critical_times(params)

        res["recurrence"] = [
            maps.recurrence_stats(maps.MapSpec("renyi", 2), np.array([True, False]), 1,
                                  n_samples=300, max_t=10, seed=int(rng.integers(1 << 31)))
            ["return_fraction"],
            maps.recurrence_stats(maps.MapSpec("baker", 2), np.array([[True, True], [False, False]]),
                                  1, n_samples=300, max_t=4, seed=int(rng.integers(1 << 31)))
            ["return_fraction"],
        ]
        return res


def cesaro_closed_form(rho, w, obs, big_t, n_steps):
    """The midpoint-rule time average of tr(rho(t) O), summed in closed form.

    Each coherence rho_ij O_ji carries the phase e^{i d t}, d = w_i - w_j; the
    midpoint samples of that phase form a geometric series.
    """
    h = big_t / n_steps
    d = (w[:, None] - w[None, :]) * h
    off = d != 0
    ratio = np.ones_like(d, dtype=complex)
    ratio[off] = (np.exp(0.5j * d[off]) * (np.exp(1j * d[off] * n_steps) - 1)
                  / (n_steps * (np.exp(1j * d[off]) - 1)))
    return complex((rho * obs.T * ratio).sum())


def check_exact(res):
    failed = []
    if any(got != want for got, want in res["bernoulli"]):
        failed.append("U B_n = beta^-n B_n")
    gram = float(np.abs(res["gram"] - np.eye(res["gram"].shape[0])).max())
    superop = max(float(np.abs(lhs - rhs).max()) for lhs, rhs in res["superop"])
    got, want = res["dephase"]
    cosmo_res = max(res["cosmo"].get("residuals", [np.inf]))
    resid = {"spectral.gram_error": gram,
             "liouville.identity_max_err": max(superop, abs(got - want)),
             "entropy.worst_violation": res["voigt"]["worst_violation"],
             "cosmo.root_residual": cosmo_res}
    if gram >= 1e-10:
        failed.append("biorthonormality")
    if superop >= 1e-12:
        failed.append("superoperator identities")
    if abs(got - want) >= 1e-10:
        failed.append("dephasing Cesaro average")
    if res["voigt"]["worst_violation"] < -1e-10:
        failed.append("Voigt monotonicity")
    if len(res["cosmo"]["times"]) != 2 or cosmo_res >= 1e-10:
        failed.append("critical times")
    for frac in res["recurrence"]:
        if frac.min() < 0 or frac.max() > 1 or np.any(np.diff(frac) < 0):
            failed.append("recurrence fractions")
    return resid, failed


IN_PROCESS = {
    "baker-second-law": (Baker, check_baker),
    "friedrichs-two-path": (Friedrichs, check_friedrichs),
    "exact-algebra": (ExactAlgebra, check_exact),
}
