"""Finite-dimensional Liouville-space toolkit: superoperator algebra,
time reversal, Liouvillian, dephasing evolution for a discrete spectrum
and its Cesaro average (one Dirichlet-kernel sum, phases reduced mod pi
so near-aliased ones stay exact), and a direct-sum Wigner transform on a position grid.

A superoperator is a 4-index array A[i,j,k,l] acting as
(A rho)_ij = sum_kl A[i,j,k,l] rho_kl.  Read as an (n^2, n^2) matrix on
Liouville space (row ij, column kl, rho flattened to the n^2-vector rho_kl),
it makes composition and application BLAS matrix products of reshaped views.
"""

from __future__ import annotations

import numpy as np

N_CAP = 16  # dense n^4 storage; desk scale
_CESARO_STEPS = 2000  # midpoints of the dephasing Cesaro average; even


def _check_square(m, name="matrix"):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square")
    if m.shape[0] > N_CAP:
        raise ValueError(f"{name} larger than the dense cap ({N_CAP})")
    return m


def check_density_matrix(rho, atol=1e-12):
    rho = _check_square(rho, "rho")
    if np.abs(rho - rho.conj().T).max() > atol:
        raise ValueError("density matrix must be Hermitian")
    if abs(np.trace(rho) - 1.0) > atol:
        raise ValueError("density matrix must have unit trace")
    if np.min(np.diag(rho).real) < -atol:
        raise ValueError("density matrix diagonal must be non-negative")
    return rho


# ---------------------------------------------------------------------------
# superoperator algebra
# ---------------------------------------------------------------------------

def super_product(alpha, beta) -> np.ndarray:
    """The factorized superoperator (alpha x beta): rho -> alpha rho beta."""
    alpha = _check_square(alpha, "alpha")
    beta = _check_square(beta, "beta")
    if alpha.shape != beta.shape:
        raise ValueError("factors must share a dimension")
    # A[i,j,k,l] = alpha[i,k] * beta[l,j]
    return np.einsum("ik,lj->ijkl", alpha, beta)


def _liouville_dim(a, b, b_ndim: int) -> int:
    """n when `a` is (n, n, n, n) and `b` has `b_ndim` axes, all of length n."""
    n = a.shape[0] if a.ndim == 4 else -1
    if a.shape != (n,) * 4 or b.shape != (n,) * b_ndim:
        want = ",".join("n" * b_ndim)
        raise ValueError(f"shapes {a.shape} and {b.shape} are not (n,n,n,n) and ({want}) with one n")
    return n


def super_apply(a: np.ndarray, rho) -> np.ndarray:
    """A rho: the (n^2, n^2) matrix of A times rho as an n^2-vector."""
    a, rho = np.asarray(a), np.asarray(rho, dtype=complex)
    n = _liouville_dim(a, rho, 2)
    return (a.reshape(n * n, n * n) @ rho.reshape(n * n)).reshape(n, n)


def super_compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Operator product AB on Liouville space: one (n^2, n^2) matrix product."""
    a, b = np.asarray(a), np.asarray(b)
    n = _liouville_dim(a, b, 4)
    return (a.reshape(n * n, n * n) @ b.reshape(n * n, n * n)).reshape(n, n, n, n)


def super_transpose(a: np.ndarray) -> np.ndarray:
    """A^T[i,j,k,l] = A[l,k,j,i]; (alpha x beta)^T = beta x alpha."""
    return np.transpose(a, (3, 2, 1, 0))


def super_adjoint(a: np.ndarray) -> np.ndarray:
    """A^dag[i,j,k,l] = conj A[k,l,i,j]; (alpha x beta)^dag = alpha^dag x beta^dag."""
    return np.transpose(a, (2, 3, 0, 1)).conj()


def super_associated(a: np.ndarray) -> np.ndarray:
    """A^a[i,j,k,l] = conj A[j,i,l,k]; (alpha x beta)^a = beta^dag x alpha^dag.

    Self-associated superoperators map Hermitian matrices to Hermitian ones.
    """
    return np.transpose(a, (1, 0, 3, 2)).conj()


def is_self_associated(a: np.ndarray, atol=1e-12) -> bool:
    return bool(np.abs(a - super_associated(a)).max() < atol)


def time_reversal_K(rho):
    """Time inversion: entrywise conjugation (valid in a real basis)."""
    return np.asarray(rho, dtype=complex).conj()


def liouvillian(h) -> np.ndarray:
    """L = H x 1 - 1 x H, so L rho = [H, rho]."""
    h = _check_square(h, "H")
    if np.abs(h - h.conj().T).max() > 1e-12:
        raise ValueError("H must be Hermitian")
    eye = np.eye(h.shape[0])
    return super_product(h, eye) - super_product(eye, h)


# ---------------------------------------------------------------------------
# dephasing dynamics (discrete nondegenerate spectrum)
# ---------------------------------------------------------------------------

def dephase_evolution(rho0, spectrum, t: float) -> np.ndarray:
    """rho_ij(t) = rho_ij(0) exp(i (w_i - w_j) t); diagonal frozen."""
    rho0 = np.asarray(rho0, dtype=complex)
    w = np.asarray(spectrum, dtype=float)
    if rho0.shape != (w.size, w.size):
        raise ValueError("spectrum length must match matrix dimension")
    phase = np.exp(1j * (w[:, None] - w[None, :]) * t)
    return rho0 * phase


def expectation(rho, obs) -> complex:
    return complex(np.trace(np.asarray(rho) @ np.asarray(obs)))


def dephase_cesaro(rho0, spectrum, obs, big_t: float):
    """Time average (1/T) int_0^T <O>_t dt, by midpoint rule on N = _CESARO_STEPS points.

    For distinct frequencies the average tends to the diagonal-part value
    tr(diag(rho0) O) with an O(1/T) error (the oscillating terms integrate
    to bounded quantities).

    <O>_t = sum_ij rho_ij(0) O_ji e^{i d t}, d = w_i - w_j, and the mean of
    e^{i d t} over the midpoints is the Dirichlet kernel K = e^{iNx} sin(Nx)/(N sin x),
    x = d T/(2N).  With x = k pi + delta and N even, K = (-1)^k e^{iN delta}
    sin(N delta)/(N sin delta): unreduced, the ratio divides two rounding errors
    where d T/N nears 2 pi k.  Past |x| = 2^52 a float fixes no angle, so x is
    not reduced there; the ratio is clipped to [-1, 1], as |sin Nx| <= N |sin x|.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    obs = np.asarray(obs)
    w = np.asarray(spectrum, dtype=float)
    if rho0.shape != (w.size, w.size) or obs.shape != rho0.shape:
        raise ValueError("spectrum length and observable must match the matrix dimension")
    if w.size == 0:
        raise ValueError("spectrum must not be empty")
    if big_t <= 0:
        raise ValueError("T must be positive")
    if not np.isfinite(float(big_t) * float(np.ptp(w))):  # Python floats: inf, no warning
        raise ValueError("the largest phase T * max|w_i - w_j| must be finite")
    x = (w[:, None] - w[None, :]) * (0.5 * big_t / _CESARO_STEPS)
    k = np.rint(x / np.pi) * (np.abs(x) < 2.0 ** 52)
    delta = x - k * np.pi
    sin_d = np.sin(delta)
    ratio = np.divide(np.sin(_CESARO_STEPS * delta), _CESARO_STEPS * sin_d,
                      out=np.ones_like(delta), where=sin_d != 0)  # K = (-1)^k at delta = 0
    kern = np.clip(ratio, -1.0, 1.0) * (1 - 2 * (k % 2)) * np.exp(1j * _CESARO_STEPS * delta)
    return complex((rho0 * obs.T * kern).sum())


def diagonal_part(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    return np.diag(np.diag(rho))


# ---------------------------------------------------------------------------
# Wigner transform on a position grid
# ---------------------------------------------------------------------------

def conjugate_momentum_grid(qgrid: np.ndarray) -> np.ndarray:
    """Midpoint p lattice spanning exactly one aliasing period pi/dq.

    On this grid the p-integral of e^{2 i m dq p} vanishes exactly for
    m != 0, which makes the trace identity exact.
    """
    qgrid = np.asarray(qgrid, dtype=float)
    dq = qgrid[1] - qgrid[0]
    n = qgrid.size
    dp = np.pi / dq / n
    return (np.arange(n) - n / 2 + 0.5) * dp


def wigner_transform(rho, qgrid, pgrid) -> np.ndarray:
    """Discretized (1/pi) int <q+l|rho|q-l> e^{2 i l p} dl.

    rho is in the discretized position basis with matrix trace 1, so the
    continuum kernel is rho[i,j]/dq; the midpoint sum over l = m*dq gives
    rho_W[k, :] = (1/pi) sum_m rho[k+m, k-m] e^{2 i m dq p}.
    """
    rho = np.asarray(rho, dtype=complex)
    qgrid = np.asarray(qgrid, dtype=float)
    pgrid = np.asarray(pgrid, dtype=float)
    n = qgrid.size
    if rho.shape != (n, n):
        raise ValueError("rho must match the position grid")
    dq = qgrid[1] - qgrid[0]
    out = np.zeros((n, pgrid.size), dtype=complex)
    for k in range(n):
        mmax = min(k, n - 1 - k)
        m = np.arange(-mmax, mmax + 1)
        diag = rho[k + m, k - m]
        out[k] = diag @ np.exp(2j * dq * np.outer(m, pgrid))
    return out / np.pi


def phase_space_integral(rho_w, qgrid, pgrid, symbol=None) -> float:
    """Integral of rho_W (times an optional symbol array) over phase space."""
    dq = qgrid[1] - qgrid[0]
    dp = pgrid[1] - pgrid[0]
    w = rho_w if symbol is None else rho_w * symbol
    return float(np.real(w.sum()) * dq * dp)
