"""Fourier-block diagonalization of the equilibrium Hessian and stability.

The 2x2 blocks carry alpha_k, beta_k, phi_k, gamma_k and the onset
frequencies nu_k^+/-; the dense eigensolver on J D^2H(a_m) is kept as an
independent brute-force oracle (it never uses the block structure).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import J_SIGNS, LatticeConfig, Potential, hessian_at_equilibrium


def alpha_beta(cfg: LatticeConfig, k) -> tuple:
    """alpha_k = 4 cos(m zeta) sin^2(k zeta/2) and
    beta_k = 2 sin(m zeta) sin(k zeta), shaped like k (one mode or an array);
    only k mod n matters, so k = n gives alpha_n = beta_n = 0 exactly."""
    mz, kz = cfg.angle(cfg.m), cfg.angle(k)
    alpha = 4.0 * np.cos(mz) * np.square(np.sin(kz / 2.0))
    beta = 2.0 * np.sin(mz) * np.sin(kz)
    return alpha, beta


@dataclass
class BlockData:
    """Per-mode quantities of k = 1..n-1, shaped like the mode index k."""

    k: int | np.ndarray
    alpha: float | np.ndarray
    beta: float | np.ndarray
    phi: float | np.ndarray
    gamma: float | np.ndarray
    nu_plus: complex | np.ndarray
    nu_minus: complex | np.ndarray


def block_data(cfg: LatticeConfig, pot: Potential, a: float, k) -> BlockData:
    """phi_k = 2a^2 V''(a^2) / alpha_k, gamma_k = 1 - (beta_k / alpha_k)^2 and
    the eigenvalues nu_k^+/- = beta_k +/- sqrt(alpha_k^2 (1 - phi_k)) of iJB_k
    on R x iR, B_k the block of D^2H(a_m) on the k-th Fourier subspace.

    k is one mode or an integer array of modes in 1..n-1 (alpha_n = 0 leaves
    k = n without phi, gamma or onsets); one mode and the same mode inside an
    array give the same bits."""
    k = np.asarray(k)
    if np.any((k < 1) | (k >= cfg.n)):
        raise ValueError(f"modes must be in 1..n-1, got {k}")
    d = 2.0 * a * a * pot(a * a, 2)
    alpha, beta = alpha_beta(cfg, k)
    phi = d / alpha
    gamma = 1.0 - np.square(beta / alpha)
    root = np.sqrt((alpha * alpha * (1.0 - phi)).astype(complex))
    return BlockData(k[()], alpha, beta, phi, gamma, beta + root, beta - root)


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
    the only answer reported.
    """

    sigma: int
    covered: bool
    phi_1: float
    max_real_part: float
    empirical_stable: bool


def classify_stability(cfg: LatticeConfig, pot: Potential,
                       a: float) -> StabilityVerdict:
    v2 = pot(a * a, 2)
    # sgn(V'') for m < n/4 (the m = 0 case extends the same cos(m zeta) > 0
    # sign rule), flipped for m > n/4; m = n/4 is excluded by LatticeConfig.
    sign = int(np.sign(v2))
    sigma = sign if 4 * cfg.m < cfg.n else -sign
    phi_1 = block_data(cfg, pot, a, 1).phi
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
        max_real_part=max_re,
        empirical_stable=bool(max_re <= split),
    )
