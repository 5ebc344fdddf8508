"""Ring lattice of coupled nonlinear Schrodinger sites.

Complex site amplitudes u_j are stored as adjacent (Re, Im) pairs in a flat
real vector of length 2n, sites indexed 0..n-1 with all neighbor sums mod n.
Multiplication by i corresponds to the symplectic matrix J; the pair
(J-convention, sign of the rotating-frame vector field) is pinned once here,
and test_midpoint_step_linearizes_to_minus_J_hessian checks it on integrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ConfigError, DomainError

_I2_ROWS = np.array([[1.0], [0.0], [1.0]])    # the identity as rows 00, 01, 11
# J (p, q) = (-q, p) = J_SIGNS * (q, p) on each site pair: applied as this
# swap and sign, never as a dense product, J leaves every value exact.
J_SIGNS = np.array([-1.0, 1.0])
_ROOT_MAX = np.sqrt(np.finfo(float).max)    # the largest t with t * t finite


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
        m = min(self.m % self.n, -self.m % self.n)     # m or its mirror n - m
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

    derivs, built once, is (V, V', V'') as functions of float arrays without
    the domain check, for Newton loops; the closed forms hold c and 1 as 0-d
    float64 arrays (a cubic's V'' is that c). __call__ returns scalars as floats.
    """

    kind: str
    params: tuple = field(default=())
    derivs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind, p, one = self.kind, self.params, np.array(1.0)
        c = np.array(float(p[0])) if len(p) == 1 else None
        if kind == "cubic" and c is not None:
            derivs = (lambda s: 0.5 * c * s * s, lambda s: c * s, lambda s: c)
        elif kind == "saturable" and c is not None:
            def v2(s):      # -(c / t) / t only where t^2 = (1 + s)^2 overflows
                t = one + s
                if t.max() <= _ROOT_MAX:          # NaN takes the masked path
                    return -c / t ** 2
                hi, lo = np.maximum(t, _ROOT_MAX), np.minimum(t, _ROOT_MAX)
                return np.where(t > _ROOT_MAX, -(c / hi) / hi, -c / lo ** 2)
            derivs = (lambda s: c * np.log1p(s), lambda s: c / (one + s), v2)
        elif kind == "polynomial" and p:    # coefficients of V, V', V''
            P, v = np.polynomial.polynomial, np.array(p, dtype=float)
            derivs = tuple(partial(P.polyval, c=a) for a in
                           (v, P.polyder(v), P.polyder(P.polyder(v))))
        else:
            raise ConfigError(f"no {kind!r} potential of {len(p)} parameters: "
                              "cubic and saturable take c, polynomial coefficients")
        object.__setattr__(self, "derivs", derivs)

    def __reduce__(self):       # derivs holds closures: pickle the fields
        return type(self), (self.kind, self.params)

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
        if self.kind == "saturable" and np.any(s <= -1.0):
            raise DomainError("saturable potential requires s > -1")
        out = self.derivs[order](s)
        if np.ndim(out) < s.ndim:       # a constant V''
            out = np.full_like(s, out)
        return out if np.ndim(out) else float(out)


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
    q = np.arange(cfg.n) * cfg.m % cfg.n
    ang = cfg.angle(q)
    eq = np.empty((cfg.n, 2))
    # exact zeros where the phase q zeta is a multiple of pi/2
    eq[:, 0] = np.where(4 * q % (2 * cfg.n) == cfg.n, 0.0, a * np.cos(ang))
    eq[:, 1] = np.where(2 * q % cfg.n == 0, 0.0, a * np.sin(ang))
    return StandingWave(a=float(a), omega=float(omega), equilibrium=eq.ravel())


def _sites(u: np.ndarray, n: int) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return u.reshape(u.shape[:-1] + (n, 2))


def hamiltonian(cfg: LatticeConfig, pot: Potential, omega: float, u) -> float:
    """H(u) = (1/2) sum_j { V(|u_j|^2) + omega |u_j|^2 - |u_{j+1} - u_j|^2 }."""
    x = _sites(u, cfg.n)
    s = np.square(x)
    s = s[..., 0] + s[..., 1]       # pair sums: no length-2 reduction
    d = np.square(np.roll(x, -1, axis=-2) - x)
    val = 0.5 * (pot(s, 0) + omega * s - (d[..., 0] + d[..., 1])).sum(axis=-1)
    return float(val) if np.ndim(val) == 0 else val

def gradient(cfg: LatticeConfig, pot: Potential, omega: float, u) -> np.ndarray:
    """grad H(u); vanishes at every standing-wave equilibrium. Supports batched
    leading axes (shape (..., 2n))."""
    x = _sites(u, cfg.n)
    vp = np.asarray(pot((x * x).sum(axis=-1), 1))
    pad = np.concatenate((x[..., -1:, :], x, x[..., :1, :]), axis=-2)
    lap = pad[..., 2:, :] + pad[..., :-2, :] - 2.0 * x    # cyclic neighbours
    return ((omega + vp)[..., None] * x + lap).reshape(np.shape(u))


def onsite_blocks(pot: Potential, omega: float, x: np.ndarray, s: np.ndarray,
                  vp: np.ndarray) -> np.ndarray:
    """Rows h00, h01 = h10, h11 (shape (3, n)) of the diagonal 2x2 blocks
    (omega - 2 + V'(s_j)) I + 2 V''(s_j) x_j x_j^T of D^2H, for site pairs
    as columns of x (shape (2, n)), s_j = |x_j|^2 and vp = V'(s)."""
    return ((omega - 2.0 + vp) * _I2_ROWS
            + 2.0 * pot.derivs[2](s) * (x[[0, 0, 1]] * x[[0, 1, 1]]))


def hessian(cfg: LatticeConfig, pot: Potential, omega: float, u) -> np.ndarray:
    """D^2 H(u) as a dense symmetric 2n x 2n matrix (general state): the
    on-site blocks plus identity blocks between neighbours."""
    n = cfg.n
    x = _sites(u, n)
    s = (x * x).sum(axis=-1)
    j = np.arange(n)
    H = np.zeros((n, 2, n, 2))
    H[j, :, j, :] = onsite_blocks(pot, omega, x.T, s, np.asarray(pot(s, 1)))[
        [0, 1, 1, 2]].T.reshape(n, 2, 2)
    H[j, :, (j + 1) % n, :] += np.eye(2)
    H[j, :, (j - 1) % n, :] += np.eye(2)
    return H.reshape(2 * n, 2 * n)

