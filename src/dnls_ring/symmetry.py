"""Group action on loops and the dihedral fixed-space parametrization.

Loops of 2pi-periodic real 2-vector site functions x_j(t) are stored
spectrally (truncated Fourier coefficients), so lattice shifts, time shifts
and time reflection act exactly. The reduced profile parametrizes the
dihedral fixed space through its representative site 0: first component even
in t, second component odd.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeConfig, R2, rot


@dataclass(frozen=True)
class GroupElement:
    """Lattice shift (multiples of zeta), time phase, optional reflection.

    The action is rho(shift, phase) composed after rho(kappa)^reflect.
    """

    shift: int = 0
    phase: float = 0.0
    reflect: bool = False


@dataclass
class LatticeLoop:
    """Truncated Fourier series of a loop: coeffs[j, nh + l, :] is the
    harmonic-l coefficient of site j, l = -nh..nh; conjugate-symmetric in l
    for real-valued loops."""

    coeffs: np.ndarray

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    @property
    def nh(self) -> int:
        return (self.coeffs.shape[1] - 1) // 2

    @classmethod
    def random(cls, n: int, nh: int, rng, scale: float = 1.0) -> "LatticeLoop":
        """Random real-valued loop (conjugate-symmetric coefficients)."""
        c = np.zeros((n, 2 * nh + 1, 2), dtype=complex)
        c[:, nh, :] = scale * rng.standard_normal((n, 2))
        for l in range(1, nh + 1):
            z = scale * (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))
            c[:, nh + l, :] = z
            c[:, nh - l, :] = np.conj(z)
        return cls(c)

    def harmonic_range(self) -> np.ndarray:
        return np.arange(-self.nh, self.nh + 1)

    def sample(self, times) -> np.ndarray:
        """Evaluate the loop on a time grid; returns real array (nt, n, 2)."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        E = np.exp(1j * np.outer(times, self.harmonic_range()))
        return np.real(np.einsum("tl,nlc->tnc", E, self.coeffs))

    @classmethod
    def from_samples(cls, samples: np.ndarray, nh: int) -> "LatticeLoop":
        """Coefficients |l| <= nh from equispaced samples over one period
        (axis 0, M >= 2nh+1 points)."""
        M = samples.shape[0]
        if M < 2 * nh + 1:
            raise ValueError(f"need at least {2 * nh + 1} samples, got {M}")
        C = np.fft.fft(samples, axis=0) / M
        c = np.empty((samples.shape[1], 2 * nh + 1, 2), dtype=complex)
        for l in range(-nh, nh + 1):
            c[:, nh + l, :] = C[l % M]
        return cls(c)


def act(g: GroupElement, x: LatticeLoop, cfg: LatticeConfig) -> LatticeLoop:
    """Apply rho(g) to a loop, exactly on the truncated series."""
    n, m, zeta = cfg.n, cfg.m, cfg.zeta
    nh = x.nh
    c = x.coeffs
    if g.reflect:
        # x_j(t) -> R x_{n-j}(-t): reindex sites, flip harmonics, apply R.
        c = c[(n - np.arange(n)) % n]
        c = c[:, ::-1, :] @ R2.T
    s = g.shift % n
    if s or g.phase:
        c = np.roll(c, -s, axis=0) @ rot(-s * m * zeta).T
        ls = np.arange(-nh, nh + 1)
        c = c * np.exp(1j * ls * g.phase)[None, :, None]
    return LatticeLoop(np.ascontiguousarray(c))


@dataclass
class ReducedProfile:
    """Fixed-space unknown for mode k: site-0 loop with first component
    cos-series cos_a = (a_0..a_nh) and second component sin-series
    sin_b = (b_1..b_nh)."""

    k: int
    cos_a: np.ndarray
    sin_b: np.ndarray

    @property
    def nh(self) -> int:
        return len(self.sin_b)

    @classmethod
    def from_vector(cls, k: int, vec: np.ndarray) -> "ReducedProfile":
        nh = (len(vec) - 1) // 2
        return cls(k, np.array(vec[: nh + 1], dtype=float),
                   np.array(vec[nh + 1:], dtype=float))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.cos_a, self.sin_b])

    def padded(self, nh: int) -> "ReducedProfile":
        """Zero-pad to a larger harmonic cutoff."""
        if nh < self.nh:
            raise ValueError("padding target smaller than current cutoff")
        a = np.zeros(nh + 1)
        b = np.zeros(nh)
        a[: self.nh + 1] = self.cos_a
        b[: self.nh] = self.sin_b
        return ReducedProfile(self.k, a, b)


def embed_reduced(p: ReducedProfile, cfg: LatticeConfig) -> LatticeLoop:
    """Full loop x_j(t) = e^{j m zeta J} x_0(t + j k zeta) from the profile."""
    n, m, zeta, nh = cfg.n, cfg.m, cfg.zeta, p.nh
    # site 0: harmonic l > 0 is (a_l / 2, -i b_l / 2), harmonic -l its conjugate
    pos = np.stack([0.5 * p.cos_a[1:], -0.5j * p.sin_b], axis=-1)
    c0 = np.concatenate([pos[::-1].conj(), [[p.cos_a[0], 0.0]], pos])
    j = np.arange(n)
    shift = np.exp(1j * np.arange(-nh, nh + 1) * j[:, None] * p.k * zeta)
    # rot of n angles is (2, 2, n), so .T stacks the n transposed rotations
    return LatticeLoop(c0 * shift[:, :, None] @ rot(j * m * zeta).T)


def project_reduced(x: LatticeLoop, k: int, cfg: LatticeConfig) -> ReducedProfile:
    """Group-average over the dihedral subgroup generated by (zeta, -k zeta)
    and kappa, restricted to site 0. Left inverse of embed_reduced."""
    n, m, zeta, nh = cfg.n, cfg.m, cfg.zeta, x.nh
    s = np.arange(n)
    # site 0 of image s is rot(-s m zeta) x_s(t - s k zeta)
    phase = np.exp(1j * x.harmonic_range() * (-s[:, None] * k * zeta))
    avg = np.mean(x.coeffs @ rot(-s * m * zeta).T * phase[:, :, None], axis=0)
    # the reflection pairs harmonic l with -l through R2 = diag(1, -1)
    cos_a = (avg[nh:, 0] + avg[nh::-1, 0]).real
    cos_a[0] *= 0.5
    sin_b = (avg[nh - 1::-1, 1] - avg[nh + 1:, 1]).imag
    return ReducedProfile(k, cos_a, sin_b)
