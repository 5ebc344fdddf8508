"""Loops on the lattice and the dihedral fixed-space parametrization.

Loops of 2pi-periodic real 2-vector site functions x_j(t) are stored
spectrally (truncated Fourier coefficients), so lattice shifts, time shifts
and time reflection act exactly. The reduced profile parametrizes the
dihedral fixed space through its representative site 0: first component even
in t, second component odd.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeConfig, rot


@dataclass
class LatticeLoop:
    """Truncated Fourier series of a loop: coeffs[j, nh + l, :] is the
    harmonic-l coefficient of site j, l = -nh..nh; conjugate-symmetric in l
    for real-valued loops."""

    coeffs: np.ndarray

    @property
    def nh(self) -> int:
        return (self.coeffs.shape[1] - 1) // 2

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
    # site 0: harmonic l > 0 is (a_l / 2, -i b_l / 2), harmonic -l its conjugate
    pos = np.stack([0.5 * p.cos_a[1:], -0.5j * p.sin_b], axis=-1)
    c0 = np.concatenate([pos[::-1].conj(), [[p.cos_a[0], 0.0]], pos])
    j, ls = np.arange(cfg.n), np.arange(-p.nh, p.nh + 1)
    shift = np.exp(1j * cfg.angle(ls * j[:, None] * p.k))
    # rot of n angles is (2, 2, n), so .T stacks the n transposed rotations
    return LatticeLoop(c0 * shift[:, :, None] @ rot(cfg.angle(j * cfg.m)).T)


def project_reduced(x: LatticeLoop, k: int, cfg: LatticeConfig) -> ReducedProfile:
    """Group-average over the dihedral subgroup generated by (zeta, -k zeta)
    and kappa, restricted to site 0. Left inverse of embed_reduced."""
    nh, s = x.nh, np.arange(cfg.n)
    # site 0 of image s is rot(-s m zeta) x_s(t - s k zeta)
    phase = np.exp(1j * cfg.angle(-x.harmonic_range() * s[:, None] * k))
    avg = np.mean(x.coeffs @ rot(cfg.angle(-s * cfg.m)).T * phase[:, :, None],
                  axis=0)
    # the reflection pairs harmonic l with -l through diag(1, -1)
    cos_a = (avg[nh:, 0] + avg[nh::-1, 0]).real
    cos_a[0] *= 0.5
    sin_b = (avg[nh - 1::-1, 1] - avg[nh + 1:, 1]).imag
    return ReducedProfile(k, cos_a, sin_b)
