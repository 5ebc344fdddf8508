"""Oracles for the site-0 reduced system: the group action on whole-lattice
loops, which the fixed-space embedding and projection are checked against;
the vector field of the whole lattice on a loop, evaluated by time-domain
collocation, which the site-0 residual and the group equivariance are
checked against; and the dense cos/sin-matrix forms of the reduced residual,
its Jacobian and the SVD onset kernel, which the Fourier forms are checked
against."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from dnls_ring.continuation import KERNEL_RTOL, ReducedSystem
from dnls_ring.lattice import (J_SIGNS, R2, LatticeConfig, Potential,
                               StandingWave, gradient, onsite_blocks, rot)
from dnls_ring.symmetry import LatticeLoop


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
    hess = onsite_blocks(sys_.pot, 2.0, u.T, s, sys_.pot(s, 1)).transpose(1, 2, 0)
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
