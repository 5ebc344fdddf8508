"""Oracles for the site-0 reduced system: the group action on whole-lattice
loops, which the fixed-space embedding and projection are checked against;
the vector field of the whole lattice on a loop, evaluated by time-domain
collocation, which the site-0 residual and the group equivariance are
checked against; and the dense cos/sin-matrix forms of the reduced residual,
its Jacobian and the SVD onset kernel, which the Fourier forms are checked
against; the scan-plus-brentq threshold search, which the closed-form and
companion-matrix thresholds are checked against; and the standing-wave link
equation, whose roots the reduced Jacobian is checked to lose rank at."""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from dnls_ring.bifurcation import A_MAX
from dnls_ring.continuation import KERNEL_RTOL, ReducedSystem
from dnls_ring.lattice import (J_SIGNS, LatticeConfig, Potential,
                               StandingWave, gradient, make_standing_wave,
                               onsite_blocks, rot)
from dnls_ring.spectral import block_data
from dnls_ring.symmetry import LatticeLoop

R2 = np.array([[1.0, 0.0], [0.0, -1.0]])   # the reflection kappa on a site


@dataclass(frozen=True)
class GroupElement:
    """Lattice shift (multiples of zeta), time phase, optional reflection.

    The action is rho(shift, phase) composed after rho(kappa)^reflect.
    """

    shift: int = 0
    phase: float = 0.0
    reflect: bool = False


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


def random_loop(n: int, nh: int, rng, scale: float = 1.0) -> LatticeLoop:
    """Random real-valued loop (conjugate-symmetric coefficients)."""
    c = np.zeros((n, 2 * nh + 1, 2), dtype=complex)
    c[:, nh, :] = scale * rng.standard_normal((n, 2))
    for l in range(1, nh + 1):
        z = scale * (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))
        c[:, nh + l, :] = z
        c[:, nh - l, :] = np.conj(z)
    return LatticeLoop(c)


def differentiated(loop: LatticeLoop) -> LatticeLoop:
    """Exact spectral time derivative: harmonic l multiplied by il."""
    ls = loop.harmonic_range()
    return LatticeLoop(loop.coeffs * (1j * ls)[None, :, None])


def loop_vector_field(loop: LatticeLoop, nu: float, cfg: LatticeConfig,
                      pot: Potential, sw: StandingWave,
                      out_nh: Optional[int] = None,
                      oversample: int = 8) -> LatticeLoop:
    """Full-space vector field F(x) = J xdot - nu^{-1} grad H(a_m + x) as a
    loop, via time-domain collocation. With the default oversampling the
    output is alias-free for a cubic nonlinearity."""
    nh = loop.nh
    out_nh = nh if out_nh is None else out_nh
    M = max(oversample * nh + 1, 2 * out_nh + 1)
    times = 2.0 * np.pi * np.arange(M) / M
    n = cfg.n
    X = loop.sample(times)
    Xd = differentiated(loop).sample(times)
    U = sw.equilibrium.reshape(1, 2 * n) + X.reshape(M, 2 * n)
    G = gradient(cfg, pot, sw.omega, U)
    F = Xd.reshape(M, n, 2)[..., ::-1] * J_SIGNS - (G / nu).reshape(M, n, 2)
    return LatticeLoop.from_samples(F, out_nh)


def dense_transforms(sys_: ReducedSystem) -> tuple:
    """The reduced system's grid transforms as dense matrices: synthesis
    (2, M, dim) maps coefficients to x_0 on the grid, analysis (dim, 2M)
    reads grid values back as cos/sin coefficients."""
    nh, M = sys_.nh, sys_.M
    lt = np.outer(2.0 * np.pi * np.arange(M) / M, np.arange(nh + 1))
    synthesis = np.zeros((2, M, sys_.dim))
    synthesis[0, :, : nh + 1] = np.cos(lt)
    synthesis[1, :, nh + 1:] = np.sin(lt[:, 1:])
    weights = np.full(sys_.dim, 2.0 / M)
    weights[0] = 1.0 / M
    return synthesis, weights[:, None] * synthesis.reshape(2 * M, -1).T


def dense_gradient(sys_: ReducedSystem, pvec: np.ndarray) -> np.ndarray:
    """Site-0 component of grad H(a_m + x) by dense synthesis and analysis."""
    synthesis, analysis = dense_transforms(sys_)
    a, pot = sys_.sw.a, sys_.pot
    u = synthesis @ pvec
    u[0] += a
    g = pot((u * u).sum(axis=0), 1) * u
    g[0] -= pot(a ** 2, 1) * a
    return sys_.coupling @ pvec + analysis @ g.ravel()


def dense_residual(sys_: ReducedSystem, pvec: np.ndarray, nu: float) -> np.ndarray:
    return sys_.j_dt @ pvec - dense_gradient(sys_, pvec) / nu


def dense_jacobian(sys_: ReducedSystem, pvec: np.ndarray, nu: float) -> np.ndarray:
    """(dim, dim+1) Jacobian with the on-site block analysis @ (h synthesis),
    O(nh^3)."""
    synthesis, analysis = dense_transforms(sys_)
    u = synthesis @ pvec
    u[0] += sys_.sw.a
    s = (u * u).sum(axis=0)
    hess = onsite_blocks(sys_.pot, 2.0, u, s, sys_.pot(s, 1))[[0, 1, 1, 2]].reshape(2, 2, -1)
    onsite = analysis @ np.einsum("cdt,dtj->ctj", hess, synthesis).reshape(
        -1, sys_.dim)
    return np.column_stack([sys_.j_dt - (sys_.coupling + onsite) / nu,
                            dense_gradient(sys_, pvec) / nu ** 2])


def svd_kernel(cfg: LatticeConfig, pot: Potential, sw: StandingWave, k: int,
               nu: float, n_harmonics: int) -> tuple:
    """(kernel dimension, unit null vector) of the dense Jacobian at p = 0 by
    a full SVD: singular values below KERNEL_RTOL times the largest count, and
    the vector is signed so that its largest entry is positive."""
    sys_ = ReducedSystem(cfg, pot, sw, k, n_harmonics)
    A = dense_jacobian(sys_, np.zeros(sys_.dim), nu)[:, :-1]
    _, svals, Vt = np.linalg.svd(A)
    tangent = Vt[-1] / np.linalg.norm(Vt[-1])
    if tangent[np.argmax(np.abs(tangent))] < 0:
        tangent = -tangent
    return int((svals < KERNEL_RTOL * svals[0]).sum()), tangent


SCAN_SAMPLES = 4096


def threshold_by_bisection(cfg: LatticeConfig, pot: Potential, k: int,
                           target: float) -> Optional[float]:
    """Smallest root of phi_k(a) = target on (0, A_MAX], for any potential:
    phi_k is evaluated on SCAN_SAMPLES equal steps at once, and the first
    zero or sign change is refined by brentq. Two roots inside one step
    cancel and are missed."""
    def g(a):       # a grid of amplitudes reads one table row per amplitude
        return block_data(cfg, pot, np.expand_dims(a, -1)).phi[..., k - 1] - target

    grid = np.linspace(0.0, A_MAX, SCAN_SAMPLES + 1)[1:]
    sign = np.sign(g(grid))
    hits = np.flatnonzero((sign[:-1] == 0) | (sign[:-1] * sign[1:] < 0))
    if not hits.size:
        return None
    i = hits[0]
    if sign[i] == 0:
        return float(grid[i])
    return float(brentq(g, grid[i], grid[i + 1], xtol=1e-14, rtol=1e-15))


def standing_wave_link(cfg: LatticeConfig, pot: Potential, a: float,
                       k: int) -> list:
    """Where the standing waves SW(m', b), m' = m + k, cross the traveling
    branches of SW(m, a) at mode k. In the fixed space of SW(m, a) that
    family is the curve p = -a e_1 + b (cos t, sin t) at nu = omega(m', b) -
    omega(m, a), and it has an onset of its own where

        omega(m', b) - omega(m, a) = nu_k'^sign(m', b),  k' in {k, n - k},

    nu_k'^sign from block_data on LatticeConfig(n, m'), which may mirror m'
    to n - m', hence both k'. Every root b in (0, A_MAX] with nu > 0 is
    returned once, as (k', sign, b, nu), sorted by b: the equation is
    scanned on SCAN_SAMPLES equal steps where nu_k'^sign is real, and each
    zero or sign change is refined by brentq. Two roots inside one step
    cancel and are missed. ConfigError when LatticeConfig refuses m'."""
    other = LatticeConfig(cfg.n, cfg.m + k)
    omega_a = make_standing_wave(cfg, pot, a).omega

    def nu_family(b):      # omega(m', b) - omega(m, a), as make_standing_wave
        return (4.0 * np.sin(other.angle(other.m) / 2.0) ** 2 - pot(b * b, 1)
                - omega_a)

    grid = np.linspace(0.0, A_MAX, SCAN_SAMPLES + 1)[1:]
    links = []
    # where 2m' = 0 mod n, beta = 0 makes the tables of k and n - k equal
    for kk in sorted({k, cfg.n - k} if 2 * other.m % cfg.n else {k}):
        for sign in (+1, -1):
            def g(b):
                bd = block_data(other, pot, np.expand_dims(b, -1))
                nu = (bd.nu_plus if sign > 0 else bd.nu_minus)[..., kk - 1]
                return np.where(nu.imag == 0.0, nu_family(b) - nu.real, np.nan)

            s = np.sign(g(grid))
            for i in np.flatnonzero((s[:-1] == 0) | (s[:-1] * s[1:] < 0)):
                b = grid[i] if s[i] == 0 else brentq(
                    g, grid[i], grid[i + 1], xtol=1e-15, rtol=1e-15)
                if nu_family(b) > 0:
                    links.append((kk, sign, float(b), float(nu_family(b))))
    return sorted(links, key=lambda link: link[2])
