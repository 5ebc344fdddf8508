"""Fourier-block diagonalization of the equilibrium Hessian and stability.

The 2x2 blocks carry alpha_k, beta_k, phi_k, gamma_k and the onset
frequencies nu_k^+/-, which stability is read from; the dense eigensolver on
J D^2H(a_m) is an independent brute-force oracle (no block structure).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DnlsRingError
from .lattice import J_SIGNS, LatticeConfig, Potential, hessian_at_equilibrium

# Growth |Im nu_k^+/-| up to this times max(1, max_k |alpha_k|) is none: at
# the 1:1 collision phi_k = 1, 1 - phi_k is roundoff and the growth reads
# ~|alpha_k| sqrt(eps), so the collision is stable, as in the dense spectrum.
GROWTH_TOL = 10.0 * np.sqrt(np.finfo(float).eps)


def alpha_beta(cfg: LatticeConfig, k) -> tuple:
    """alpha_k = 4 cos(m zeta) sin^2(k zeta/2) and
    beta_k = 2 sin(m zeta) sin(k zeta), shaped like k (one mode or an array);
    only k mod n matters, so k = n gives alpha_n = beta_n = 0 exactly. A mode
    q = k mod n past n/2 is evaluated at its mirror n - q, with the sign on
    beta alone, so alpha_{n-k} = alpha_k and beta_{n-k} = -beta_k exactly.
    beta_k = +0 exactly where 2k or 2m = 0 mod n (sin(pi) is roundoff)."""
    q = k % cfg.n
    sign = 1 - 2 * (2 * q > cfg.n)    # -1 past n/2: angle(-q) = angle(n - q)
    mz, kz = cfg.angle(cfg.m), cfg.angle(sign * q)
    alpha = 4.0 * np.cos(mz) * np.square(np.sin(kz / 2.0))
    zero = (2 * q % cfg.n == 0) | (2 * cfg.m % cfg.n == 0)
    beta = np.where(zero, 0.0, 2.0 * np.sin(mz) * np.sin(kz) * sign)[()]
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
    array give the same bits. gamma_k = 0 exactly for k = +/-2m mod n, where
    alpha^2 - beta^2 = 16 sin^2(k zeta/2) sin((k+2m) zeta/2) sin((k-2m) zeta/2)."""
    k = np.asarray(k)
    if np.any((k < 1) | (k >= cfg.n)):
        raise ValueError(f"modes must be in 1..n-1, got {k}")
    d = 2.0 * a * a * pot(a * a, 2)
    alpha, beta = alpha_beta(cfg, k)
    phi = d / alpha
    zero = ((k - 2 * cfg.m) % cfg.n == 0) | ((k + 2 * cfg.m) % cfg.n == 0)
    gamma = np.where(zero, 0.0, 1.0 - np.square(beta / alpha))[()]
    root = np.sqrt((alpha * alpha * (1.0 - phi)).astype(complex))
    return BlockData(k[()], alpha, beta, phi, gamma, beta + root, beta - root)


def full_spectrum(cfg: LatticeConfig, pot: Potential, a: float) -> np.ndarray:
    """All 2n eigenvalues of J D^2H(a_m) by a dense general eigensolver.

    This is the brute-force oracle: no block structure is used. The gauge
    symmetry makes the double zero eigenvalue defective for a > 0, so the QR
    iteration splits it by ~sqrt(machine eps) times the matrix scale.
    """
    H = hessian_at_equilibrium(cfg, pot, a)
    JH = H.reshape(-1, 2, len(H))[:, ::-1] * J_SIGNS[:, None]
    return np.linalg.eigvals(JH.reshape(H.shape))


def _block_table(cfg: LatticeConfig, pot: Potential, a: float) -> BlockData:
    """block_data of k = 1..n-1 at amplitude a; DnlsRingError naming the block
    table when it is not finite (a^2, V''(a^2) or 2a^2 V'' overflows)."""
    bd = block_data(cfg, pot, a, np.arange(1, cfg.n))
    if not np.isfinite(bd.nu_plus).all():
        raise DnlsRingError(f"block table at a = {a:g} is not finite: a^2 = "
                            f"{a * a:.3e}, V''(a^2) = {pot(a * a, 2):.3e}")
    return bd


@dataclass
class StabilityVerdict:
    """Linear stability of the standing wave.

    `covered` is the analytic criterion (sigma < 0, or sigma > 0 and
    phi_1 < 1): True where it proves stability, False in the regime it does
    not decide. `max_real_part` is the largest growth |Im nu_k^+/-| of the
    block table over k = 1..n-1 (k = n is the gauge zero), `empirical_stable`
    reads it against GROWTH_TOL; the dense spectrum is only their oracle.
    """

    sigma: int
    covered: bool
    phi_1: float
    max_real_part: float
    empirical_stable: bool


def classify_stability(cfg: LatticeConfig, pot: Potential,
                       a: float) -> StabilityVerdict:
    v2 = pot(a * a, 2)
    bd = _block_table(cfg, pot, a)
    # sgn(V'') for m < n/4 (the m = 0 case extends the same cos(m zeta) > 0
    # sign rule), flipped for m > n/4; m = n/4 is excluded by LatticeConfig.
    sign = int(np.sign(v2))
    sigma = sign if 4 * cfg.m < cfg.n else -sign
    phi_1 = bd.phi[0]
    covered = sigma < 0 or (sigma > 0 and phi_1 < 1.0)
    growth = float(np.abs(bd.nu_plus.imag).max())     # Im nu^- = -Im nu^+
    tol = GROWTH_TOL * max(1.0, float(np.abs(bd.alpha).max()))
    return StabilityVerdict(
        sigma=sigma,
        covered=bool(covered),
        phi_1=float(phi_1),
        max_real_part=growth,
        empirical_stable=bool(growth <= tol),
    )
