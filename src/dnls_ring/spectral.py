"""Fourier-block diagonalization of the equilibrium Hessian and stability.

The 2x2 blocks carry alpha_k, beta_k, phi_k, gamma_k and the onset
frequencies nu_k^+/-; the dense eigensolver on J D^2H(a_m) is kept as an
independent brute-force oracle (it never uses the block structure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .lattice import (J2, J_SIGNS, LatticeConfig, Potential,
                      hessian_at_equilibrium, rot)


def alpha_beta(cfg: LatticeConfig, k: int) -> tuple[float, float]:
    """alpha_k = 4 cos(m zeta) sin^2(k zeta/2), beta_k = 2 sin(m zeta) sin(k zeta)."""
    z = cfg.zeta
    alpha = 4.0 * np.cos(cfg.m * z) * np.sin(k * z / 2.0) ** 2
    beta = 2.0 * np.sin(cfg.m * z) * np.sin(k * z)
    return float(alpha), float(beta)


def block_basis(cfg: LatticeConfig, k: int, z: np.ndarray) -> np.ndarray:
    """T_k z: complex 2n-vector with site-j block n^{-1/2} e^{j(ikI+mJ)zeta} z."""
    n, m, zeta = cfg.n, cfg.m, cfg.zeta
    z = np.asarray(z, dtype=complex)
    out = np.empty((n, 2), dtype=complex)
    for j in range(n):
        out[j] = np.exp(1j * j * k * zeta) * (rot(j * m * zeta) @ z)
    return out.ravel() / np.sqrt(n)


@dataclass
class BlockData:
    """Per-mode quantities; phi/gamma/reduced are None for k = n where
    alpha_n = 0 leaves them genuinely undefined."""

    k: int
    alpha: float
    beta: float
    phi: Optional[float]
    gamma: Optional[float]
    B: np.ndarray
    nu_plus: complex
    nu_minus: complex
    reduced: Optional[np.ndarray]


def block_data(cfg: LatticeConfig, pot: Potential, a: float, k: int) -> BlockData:
    """Block B_k of D^2H(a_m) on the k-th Fourier subspace and the
    eigenvalues nu_k^+/- of iJB_k restricted to R x iR."""
    if not 1 <= k <= cfg.n:
        raise ValueError(f"mode k must be in 1..n, got {k}")
    alpha, beta = alpha_beta(cfg, k)
    d = 2.0 * a * a * pot(a * a, 2)
    if k == cfg.n:
        B = np.diag([d, 0.0]).astype(complex)
        return BlockData(k, alpha, beta, None, None, B, 0.0 + 0.0j, 0.0 + 0.0j, None)
    phi = d / alpha
    gamma = 1.0 - (beta / alpha) ** 2
    B = np.diag([d - alpha, -alpha]).astype(complex) + 1j * beta * J2
    # Real form of iJB_k on R x iR (conjugation by diag(1, i)).
    reduced = np.array([[beta, -alpha], [alpha * (phi - 1.0), beta]])
    root = np.sqrt(complex(alpha * alpha * (1.0 - phi)))
    return BlockData(k, alpha, beta, float(phi), float(gamma), B,
                     beta + root, beta - root, reduced)


def full_spectrum(cfg: LatticeConfig, pot: Potential, a: float,
                  cluster_tol: float = 0.0) -> np.ndarray:
    """All 2n eigenvalues of J D^2H(a_m) by a dense general eigensolver.

    This is the brute-force oracle: no block structure is used. The gauge
    symmetry makes the double zero eigenvalue defective for a > 0, so the QR
    iteration splits it by ~sqrt(machine eps); with cluster_tol > 0,
    eigenvalue clusters within that radius are replaced by their mean, which
    restores O(eps) accuracy for defective pairs (the cluster mean perturbs
    linearly, the members only as a root of the multiplicity).
    """
    eig = _jacobian_eigvals(hessian_at_equilibrium(cfg, pot, a))
    if cluster_tol > 0.0:
        eig = _average_clusters(eig, cluster_tol)
    return eig


def _jacobian_eigvals(H: np.ndarray) -> np.ndarray:
    """Eigenvalues of J H, J applied to the row pairs of H."""
    JH = H.reshape(-1, 2, len(H))[:, ::-1] * J_SIGNS[:, None]
    return np.linalg.eigvals(JH.reshape(H.shape))


def _average_clusters(eig: np.ndarray, tol: float) -> np.ndarray:
    """Replace each group of eigenvalues within tol of one another (union of
    overlapping pairs) by the group mean, keeping multiplicity."""
    nvals = len(eig)
    parent = list(range(nvals))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(nvals):
        for j in range(i + 1, nvals):
            if abs(eig[i] - eig[j]) < tol:
                parent[find(i)] = find(j)
    out = eig.copy()
    for root in set(find(i) for i in range(nvals)):
        members = [i for i in range(nvals) if find(i) == root]
        out[members] = eig[members].mean()
    return out


def expected_spectrum(cfg: LatticeConfig, pot: Potential, a: float) -> np.ndarray:
    """Closed-form multiset {i nu_k^+/-: k=1..n-1} plus the gauge double zero."""
    vals = []
    for k in range(1, cfg.n):
        bd = block_data(cfg, pot, a, k)
        vals.extend([1j * bd.nu_plus, 1j * bd.nu_minus])
    vals.extend([0.0 + 0.0j, 0.0 + 0.0j])
    return np.array(vals)


def matching_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max pair distance under the optimal matching of two equal-size
    complex multisets."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError("multisets must have equal size")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


@dataclass
class ModeRecord:
    k: int
    phi: Optional[float]
    gamma: Optional[float]
    nu_plus: complex
    nu_minus: complex
    real_pair: bool


@dataclass
class StabilityVerdict:
    """Linear stability of the standing wave.

    `covered` is the analytic criterion (sigma < 0, or sigma > 0 and
    phi_1 < 1): True where it proves stability, False in the regime it does
    not decide, where `empirical_stable` (from the dense spectrum oracle) is
    the only answer reported.
    """

    sigma: int
    covered: bool
    phi_1: float
    per_k: list
    max_real_part: float
    empirical_stable: bool


def classify_stability(cfg: LatticeConfig, pot: Potential,
                       a: float) -> StabilityVerdict:
    v2 = pot(a * a, 2)
    # sgn(V'') for m < n/4 (the m = 0 case extends the same cos(m zeta) > 0
    # sign rule), flipped for m > n/4; m = n/4 is excluded by LatticeConfig.
    sign = int(np.sign(v2))
    sigma = sign if 4 * cfg.m < cfg.n else -sign
    per_k = []
    for k in range(1, cfg.n):
        bd = block_data(cfg, pot, a, k)
        per_k.append(ModeRecord(k, bd.phi, bd.gamma, bd.nu_plus, bd.nu_minus,
                                real_pair=bd.phi is not None and bd.phi <= 1.0))
    phi_1 = per_k[0].phi
    covered = sigma < 0 or (sigma > 0 and phi_1 < 1.0)
    H = hessian_at_equilibrium(cfg, pot, a)
    max_re = float(np.abs(_jacobian_eigvals(H).real).max())
    # The solver splits the defective gauge zero by ~sqrt(eps) ||J D^2H||. J
    # only permutes and negates rows, so ||J D^2H||_inf = ||D^2H||_inf, and
    # that bounds the 2-norm too (J orthogonal, D^2H symmetric).
    split = 10.0 * np.sqrt(np.finfo(float).eps) * np.linalg.norm(H, np.inf)
    return StabilityVerdict(
        sigma=sigma,
        covered=bool(covered),
        phi_1=float(phi_1),
        per_k=per_k,
        max_real_part=max_re,
        empirical_stable=bool(max_re <= split),
    )
