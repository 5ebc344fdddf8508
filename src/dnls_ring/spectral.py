"""Fourier-block diagonalization of the equilibrium Hessian and stability.

The 2x2 blocks carry alpha_k, beta_k, phi_k, gamma_k and the onset
frequencies nu_k^+/-, which the spectrum and stability are read from; the
dense eigensolver on J D^2H(a_m) is their brute-force oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DnlsRingError
from .lattice import LatticeConfig, Potential

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
    """The block table: per-mode quantities of k = 1..n-1, one row per mode."""

    k: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    phi: np.ndarray
    gamma: np.ndarray
    nu_plus: np.ndarray
    nu_minus: np.ndarray


@lru_cache(maxsize=64)
def _modes(cfg: LatticeConfig) -> tuple:
    """k = 1..n-1, alpha_k, beta_k and gamma_k of the ring, read-only, cached
    by its normalized (n, m); gamma_k = 0 exactly for k = +/-2m mod n, where
    beta_k / alpha_k = +/-1 holds only to roundoff."""
    k = np.arange(1, cfg.n)
    alpha, beta = alpha_beta(cfg, k)
    zero = ((k - 2 * cfg.m) % cfg.n == 0) | ((k + 2 * cfg.m) % cfg.n == 0)
    cols = k, alpha, beta, np.where(zero, 0.0, 1.0 - np.square(beta / alpha))
    for col in cols:
        col.flags.writeable = False
    return cols


def block_data(cfg: LatticeConfig, pot: Potential, a: float) -> BlockData:
    """The block table of k = 1..n-1 at amplitude a (alpha_n = 0 leaves k = n
    without phi, gamma or onsets): phi_k = 2a^2 V''(a^2) / alpha_k,
    gamma_k = 1 - (beta_k / alpha_k)^2 and the eigenvalues
    nu_k^+/- = beta_k +/- sqrt(alpha_k^2 (1 - phi_k)) of iJB_k on R x iR, B_k
    the block of D^2H(a_m) on the k-th Fourier subspace; k, alpha, beta and
    gamma are the ring's cached, read-only arrays. Raises DnlsRingError when
    the table is not finite (a^2, V''(a^2) or 2a^2 V'' overflows)."""
    k, alpha, beta, gamma = _modes(cfg)
    phi = 2.0 * a * a * pot(a * a, 2) / alpha
    root = np.sqrt((alpha * alpha * (1.0 - phi)).astype(complex))
    if not np.isfinite(root).all():
        raise DnlsRingError(f"block table at a = {a:g} is not finite: a^2 = "
                            f"{a * a:.3e}, V''(a^2) = {pot(a * a, 2):.3e}")
    return BlockData(k, alpha, beta, phi, gamma, beta + root, beta - root)


def full_spectrum(bd: BlockData) -> np.ndarray:
    """The 2n eigenvalues of J D^2H(a_m) from the block table bd: i nu_k^+ and
    i nu_k^- for k = 1..n-1, then the gauge double zero; + 0.0 turns the -0
    real part of i nu where Re nu < 0 into 0."""
    nu = np.stack([bd.nu_plus, bd.nu_minus], axis=-1).ravel()
    return np.concatenate([1j * nu, [0.0, 0.0]]) + 0.0


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
    bd = block_data(cfg, pot, a)
    # sgn(V'') for m < n/4 (the m = 0 case extends the same cos(m zeta) > 0
    # sign rule), flipped for m > n/4; m = n/4 is excluded by LatticeConfig.
    sign = int(np.sign(pot(a * a, 2)))
    sigma = sign if 4 * cfg.m < cfg.n else -sign
    covered = sigma < 0 or (sigma > 0 and bd.phi[0] < 1.0)
    growth = float(np.abs(bd.nu_plus.imag).max())     # Im nu^- = -Im nu^+
    tol = GROWTH_TOL * max(1.0, float(np.abs(bd.alpha).max()))
    return StabilityVerdict(sigma=sigma, covered=bool(covered), phi_1=float(bd.phi[0]),
                            max_real_part=growth, empirical_stable=bool(growth <= tol))
