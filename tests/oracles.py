"""Full-ring oracles for the site-0 reduced system: the vector field of the
whole lattice on a loop, evaluated by time-domain collocation, which the
site-0 residual and the group equivariance are checked against."""

from typing import Optional

import numpy as np

from dnls_ring.lattice import (J_SIGNS, LatticeConfig, Potential, StandingWave,
                               gradient)
from dnls_ring.symmetry import LatticeLoop


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
