"""Fourier-block diagonalization of the equilibrium Hessian and stability.

The 2x2 blocks carry alpha_k, beta_k, phi_k, gamma_k and the onset
frequencies nu_k^+/-; the dense eigensolver on J D^2H(a_m) is kept as an
independent brute-force oracle (it never uses the block structure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lattice import J_SIGNS, LatticeConfig, Potential, hessian_at_equilibrium


def alpha_beta(cfg: LatticeConfig, k) -> tuple:
    """alpha_k = 4 cos(m zeta) sin^2(k zeta/2) and
    beta_k = 2 sin(m zeta) sin(k zeta), shaped like k (one mode or an array)."""
    z = cfg.zeta
    alpha = 4.0 * np.cos(cfg.m * z) * np.square(np.sin(k * z / 2.0))
    beta = 2.0 * np.sin(cfg.m * z) * np.sin(k * z)
    return alpha, beta


@dataclass
class BlockData:
    """Per-mode quantities shaped like the mode index k; B and reduced carry
    two more trailing axes. phi/gamma/reduced are None for k = n, where
    alpha_n = 0 leaves them genuinely undefined."""

    k: int | np.ndarray
    alpha: float | np.ndarray
    beta: float | np.ndarray
    phi: Optional[float | np.ndarray]
    gamma: Optional[float | np.ndarray]
    B: np.ndarray
    nu_plus: complex | np.ndarray
    nu_minus: complex | np.ndarray
    reduced: Optional[np.ndarray]


def block_data(cfg: LatticeConfig, pot: Potential, a: float, k) -> BlockData:
    """Block B_k of D^2H(a_m) on the k-th Fourier subspace and the
    eigenvalues nu_k^+/- of iJB_k restricted to R x iR.

    k is one mode in 1..n or an integer array of modes in 1..n-1; one mode
    and the same mode inside an array give the same bits."""
    d = 2.0 * a * a * pot(a * a, 2)
    if np.ndim(k) == 0:
        if not 1 <= k <= cfg.n:
            raise ValueError(f"mode k must be in 1..n, got {k}")
        if k == cfg.n:
            alpha, beta = alpha_beta(cfg, k)
            B = np.diag([d, 0.0]).astype(complex)
            return BlockData(k, alpha, beta, None, None, B, 0.0 + 0.0j,
                             0.0 + 0.0j, None)
    else:
        k = np.asarray(k)
        if np.any((k < 1) | (k >= cfg.n)):
            raise ValueError(f"modes in an array must be in 1..n-1, got {k}")
    alpha, beta = alpha_beta(cfg, k)
    phi = d / alpha
    gamma = 1.0 - np.square(beta / alpha)
    # 2x2 entries shaped like k, stacked as the trailing axes
    B = np.moveaxis(np.array([[d - alpha, -1j * beta], [1j * beta, -alpha]]),
                    (0, 1), (-2, -1))
    # Real form of iJB_k on R x iR (conjugation by diag(1, i)).
    reduced = np.moveaxis(np.array([[beta, -alpha],
                                    [alpha * (phi - 1.0), beta]]),
                          (0, 1), (-2, -1))
    root = np.sqrt((alpha * alpha * (1.0 - phi)).astype(complex))
    return BlockData(k, alpha, beta, phi, gamma, B, beta + root, beta - root,
                     reduced)


def full_spectrum(cfg: LatticeConfig, pot: Potential, a: float) -> np.ndarray:
    """All 2n eigenvalues of J D^2H(a_m) by a dense general eigensolver.

    This is the brute-force oracle: no block structure is used. The gauge
    symmetry makes the double zero eigenvalue defective for a > 0, so the QR
    iteration splits it by ~sqrt(machine eps) times the matrix scale.
    """
    return _jacobian_eigvals(hessian_at_equilibrium(cfg, pot, a))


def _jacobian_eigvals(H: np.ndarray) -> np.ndarray:
    """Eigenvalues of J H, J applied to the row pairs of H."""
    JH = H.reshape(-1, 2, len(H))[:, ::-1] * J_SIGNS[:, None]
    return np.linalg.eigvals(JH.reshape(H.shape))


@dataclass
class StabilityVerdict:
    """Linear stability of the standing wave.

    `covered` is the analytic criterion (sigma < 0, or sigma > 0 and
    phi_1 < 1): True where it proves stability, False in the regime it does
    not decide, where `empirical_stable` (from the dense spectrum oracle) is
    the only answer reported. `per_k` is the block data of k = 1..n-1.
    """

    sigma: int
    covered: bool
    phi_1: float
    per_k: BlockData
    max_real_part: float
    empirical_stable: bool


def classify_stability(cfg: LatticeConfig, pot: Potential,
                       a: float) -> StabilityVerdict:
    v2 = pot(a * a, 2)
    # sgn(V'') for m < n/4 (the m = 0 case extends the same cos(m zeta) > 0
    # sign rule), flipped for m > n/4; m = n/4 is excluded by LatticeConfig.
    sign = int(np.sign(v2))
    sigma = sign if 4 * cfg.m < cfg.n else -sign
    per_k = block_data(cfg, pot, a, np.arange(1, cfg.n))
    phi_1 = per_k.phi[0]
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
