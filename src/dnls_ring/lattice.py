"""Ring lattice of coupled nonlinear Schrodinger sites.

Complex site amplitudes u_j are stored as adjacent (Re, Im) pairs in a flat
real vector of length 2n, sites indexed 0..n-1 with all neighbor sums mod n.
Multiplication by i corresponds to the symplectic matrix J; the pair
(J-convention, sign of the rotating-frame vector field) is pinned once here,
and the test suite checks that rotating_rhs linearizes to -J D^2H(a_m).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError

J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
I2 = np.eye(2)
# J (p, q) = (-q, p) = J_SIGNS * (q, p) on each site pair: applied as this
# swap and sign, never as a dense product, J leaves every value exact.
J_SIGNS = np.array([-1.0, 1.0])
_MINUS_J_SIGNS = -J_SIGNS


def rot(theta: float) -> np.ndarray:
    """Planar rotation e^{theta J}."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class LatticeConfig:
    """Ring of n sites with integer wavenumber m, normalized to 0 <= m <= n/2.

    Configurations with 4m = n are rejected: the quantities built from
    cos(m*zeta) degenerate there.
    """

    n: int
    m: int

    def __post_init__(self):
        if self.n < 3:
            raise ConfigError(f"need at least 3 sites, got n={self.n}")
        m = self.m % self.n
        if 2 * m > self.n:
            m = self.n - m
        object.__setattr__(self, "m", m)
        if 4 * m == self.n:
            raise ConfigError("m=n/4 excluded")

    @property
    def zeta(self) -> float:
        return 2.0 * np.pi / self.n

    def angle(self, q):
        """The lattice angle q zeta for an integer q (or integer array), as
        (q mod n) zeta: reduced mod 2 pi exactly, so only q mod n matters."""
        return (q % self.n) * self.zeta


@dataclass(frozen=True)
class Potential:
    """On-site potential V(s) of the squared amplitude s = |u_j|^2.

    kinds:
        cubic       V(s) = c s^2 / 2          (c > 0 focusing, c < 0 defocusing)
        saturable   V(s) = c ln(1 + s), s > -1
        polynomial  V(s) = sum coeffs[i] s^i  (ascending powers)
    """

    kind: str
    params: tuple = field(default=())

    @classmethod
    def cubic(cls, c: float) -> "Potential":
        return cls("cubic", (float(c),))

    @classmethod
    def saturable(cls, c: float) -> "Potential":
        return cls("saturable", (float(c),))

    @classmethod
    def polynomial(cls, coeffs) -> "Potential":
        return cls("polynomial", tuple(float(c) for c in coeffs))

    def __call__(self, s, order: int = 0):
        """Evaluate V, V' or V'' at s (scalar or array)."""
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order}")
        s = np.asarray(s, dtype=float)
        if self.kind == "cubic":
            c = self.params[0]
            if order == 0:
                out = 0.5 * c * s * s
            elif order == 1:
                out = c * s
            else:
                out = np.full_like(s, c)
        elif self.kind == "saturable":
            c = self.params[0]
            if np.any(s <= -1.0):
                raise DomainError("saturable potential requires s > -1")
            if order == 0:
                out = c * np.log1p(s)
            elif order == 1:
                out = c / (1.0 + s)
            else:
                out = -c / (1.0 + s) ** 2
        elif self.kind == "polynomial":
            coeffs = np.array(self.params, dtype=float)
            for _ in range(order):
                coeffs = np.polynomial.polynomial.polyder(coeffs)
            out = np.polynomial.polynomial.polyval(s, coeffs)
        else:
            raise ConfigError(f"unknown potential kind {self.kind!r}")
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class StandingWave:
    """Plane-wave relative equilibrium: amplitude a, frequency omega, and the
    rotating-frame fixed point a_j = a e^{j m zeta J} e_1 stacked into 2n reals."""

    a: float
    omega: float
    equilibrium: np.ndarray


def make_standing_wave(cfg: LatticeConfig, pot: Potential, a: float) -> StandingWave:
    """Standing wave of amplitude a >= 0 with omega = 4 sin^2(m zeta/2) - V'(a^2)."""
    if a < 0:
        raise ConfigError(f"amplitude must be nonnegative, got {a}")
    omega = 4.0 * np.sin(cfg.angle(cfg.m) / 2.0) ** 2 - pot(a * a, 1)
    ang = cfg.angle(np.arange(cfg.n) * cfg.m)
    eq = np.empty((cfg.n, 2))
    eq[:, 0] = a * np.cos(ang)
    eq[:, 1] = a * np.sin(ang)
    return StandingWave(a=float(a), omega=float(omega), equilibrium=eq.ravel())


def _sites(u: np.ndarray, n: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return u.reshape(u.shape[:-1] + (n, 2))


def hamiltonian(cfg: LatticeConfig, pot: Potential, omega: float, u) -> float:
    """H(u) = (1/2) sum_j { V(|u_j|^2) + omega |u_j|^2 - |u_{j+1} - u_j|^2 }."""
    x = _sites(u, cfg.n)
    s = (x * x).sum(axis=-1)
    diff = np.roll(x, -1, axis=-2) - x
    val = 0.5 * (pot(s, 0) + omega * s - (diff * diff).sum(axis=-1)).sum(axis=-1)
    return float(val) if np.ndim(val) == 0 else val

def gradient(cfg: LatticeConfig, pot: Potential, omega: float, u) -> np.ndarray:
    """grad H(u); vanishes at every standing-wave equilibrium. Supports batched
    leading axes (shape (..., 2n))."""
    return _site_gradient(cfg, pot, omega, u, None).reshape(np.shape(u))


def _site_gradient(cfg, pot, omega, u, vp):
    x = _sites(u, cfg.n)
    if vp is None:
        vp = np.asarray(pot((x * x).sum(axis=-1), 1))
    pad = np.concatenate((x[..., -1:, :], x, x[..., :1, :]), axis=-2)
    lap = pad[..., 2:, :] + pad[..., :-2, :] - 2.0 * x    # cyclic neighbours
    return (omega + vp)[..., None] * x + lap              # (..., n, 2)


def rotating_rhs(cfg: LatticeConfig, pot: Potential, omega: float, u,
                 vp=None) -> np.ndarray:
    """udot = -J grad H(u), so J udot = grad H(u); vp = V'(|u_j|^2) if the
    caller has it."""
    g = _site_gradient(cfg, pot, omega, u, vp)
    return (g[..., ::-1] * _MINUS_J_SIGNS).reshape(np.shape(u))


def onsite_blocks(pot: Potential, omega: float, x: np.ndarray, s: np.ndarray,
                  vp: np.ndarray) -> np.ndarray:
    """Diagonal 2x2 blocks (omega - 2 + V'(s_j)) I + 2 V''(s_j) x_j x_j^T of
    D^2H for site pairs x (shape (n, 2)), s_j = |x_j|^2 and vp = V'(s)."""
    return ((omega - 2.0 + vp)[:, None, None] * I2
            + (2.0 * np.asarray(pot(s, 2)))[:, None, None]
            * (x[:, :, None] * x[:, None, :]))


def hessian(cfg: LatticeConfig, pot: Potential, omega: float, u) -> np.ndarray:
    """D^2 H(u) as a dense symmetric 2n x 2n matrix (general state): the
    on-site blocks plus identity blocks between neighbours."""
    n = cfg.n
    x = _sites(u, n)
    s = (x * x).sum(axis=-1)
    j = np.arange(n)
    H = np.zeros((n, 2, n, 2))
    H[j, :, j, :] = onsite_blocks(pot, omega, x, s, np.asarray(pot(s, 1)))
    H[j, :, (j + 1) % n, :] += I2
    H[j, :, (j - 1) % n, :] += I2
    return H.reshape(2 * n, 2 * n)


def hessian_at_equilibrium(cfg: LatticeConfig, pot: Potential, a: float) -> np.ndarray:
    """D^2 H(a_m): block circulant, identity off-diagonal blocks and diagonal
    blocks -2 cos(m zeta) I + 2 a^2 V''(a^2) e^{jm zeta J} e1 e1^T e^{-jm zeta J}
    (on site, omega - 2 + V'(a^2) = -2 cos(m zeta))."""
    sw = make_standing_wave(cfg, pot, a)
    return hessian(cfg, pot, sw.omega, sw.equilibrium)
