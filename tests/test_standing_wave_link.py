"""The standing-wave link table in closed form, checked on the reduced system
without continuation: the family SW(m + k, b) solves the residual of SW(m, a)
at mode k, and it crosses the traveling branch where its Jacobian loses
rank."""

import numpy as np
import pytest

from dnls_ring import (ConfigError, LatticeConfig, Potential,
                       make_standing_wave)
from dnls_ring.continuation import ReducedSystem

from oracles import standing_wave_link


POTENTIALS = [Potential.cubic(1.0), Potential.cubic(-1.0),
              Potential.saturable(1.0), Potential.saturable(-1.0)]


def _family_point(sys_, a, b):
    """p = -a e_1 + b (cos t, sin t): u_0 = b e^{tJ} e_1, so the ring is the
    standing wave SW(m + k, b) seen in the frame of SW(m, a)."""
    p = np.zeros(sys_.dim)
    p[0], p[1], p[sys_.nh + 1] = -a, b, b
    return p


def _family_nu(cfg, pot, sw, k, b):
    """omega(m + k, b) - omega(m, a)."""
    other = LatticeConfig(cfg.n, cfg.m + k)
    return make_standing_wave(other, pot, b).omega - sw.omega


def _sigma_min(sys_, a, b, nu):
    """Smallest singular value of the dim x (dim + 1) reduced Jacobian at the
    family point of amplitude b and frequency nu."""
    p = _family_point(sys_, a, b)
    J = sys_.jacobian(p, nu, sys_.residual(p, nu))
    return np.linalg.svd(J, compute_uv=False)[-1]


def test_standing_wave_family_solves_the_reduced_system():
    worst, count = 0.0, 0
    for pot in POTENTIALS:
        for n in range(3, 9):
            for m in range(n // 2 + 1):
                if 4 * m == n:
                    continue
                cfg = LatticeConfig(n, m)
                for k in range(1, n):
                    try:
                        LatticeConfig(n, m + k)
                    except ConfigError:
                        continue
                    for a in (0.1, 0.3, 0.7):
                        sw = make_standing_wave(cfg, pot, a)
                        sys_ = ReducedSystem(cfg, pot, sw, k, 6)
                        for b in (0.05, 0.2, 0.5):
                            nu = _family_nu(cfg, pot, sw, k, b)
                            if nu <= 0:
                                continue
                            r = sys_.residual(_family_point(sys_, a, b), nu)
                            worst = max(worst, float(np.linalg.norm(r)))
                            count += 1
    assert count == 1584
    assert worst <= 1e-13


def test_standing_wave_family_orientation_matters():
    # with b_1 -> -b_1 the site-0 loop turns the other way, and the acceptance
    # ring's family point is no solution
    cfg, pot = LatticeConfig(6, 1), Potential.cubic(1.0)
    sw = make_standing_wave(cfg, pot, 0.2)
    sys_ = ReducedSystem(cfg, pot, sw, 3, 16)
    for b in (0.1, 0.1415971, 0.158442):
        p = _family_point(sys_, 0.2, b)
        p[sys_.nh + 1] = -b
        nu = _family_nu(cfg, pot, sw, 3, b)
        assert np.linalg.norm(sys_.residual(p, nu)) >= 0.1


# ROADMAP item 12's table: (n, k, potential, a, nu*) of the traveling branch
# from SW(1, a) at mode k+, nu* its contact frequency, which continuation
# with a small step bound reproduced within 6e-7
LINK_TABLE = [
    (6, 3, Potential.cubic(1.0), 0.2, 2.0199502),
    (6, 1, Potential.cubic(1.0), 0.2, 2.0198039),
    (6, 2, Potential.cubic(1.0), 0.2, 3.0199668),
    (5, 2, Potential.cubic(-1.0), 0.3, 2.1908937),
    (6, 1, Potential.saturable(-1.0), 0.3, 2.0395771),
    (6, 3, Potential.saturable(1.0), 0.3, 1.9593897),
]


@pytest.mark.parametrize("n, k, pot, a, nu_table", LINK_TABLE)
def test_one_link_root_is_a_branch_point(n, k, pot, a, nu_table):
    cfg = LatticeConfig(n, 1)
    sw = make_standing_wave(cfg, pot, a)
    sys_ = ReducedSystem(cfg, pot, sw, k, 16)
    links = standing_wave_link(cfg, pot, a, k)
    sigmas = [_sigma_min(sys_, a, b, nu) for _, _, b, nu in links]
    contacts = [link for link, s in zip(links, sigmas) if s <= 1e-10]
    assert len(contacts) == 1, list(zip(links, sigmas))
    _, _, b_star, nu_star = contacts[0]
    # the rank drop is isolated: 10 % short of b* the family is regular
    b = 0.9 * b_star
    assert _sigma_min(sys_, a, b, _family_nu(cfg, pot, sw, k, b)) >= 1e-3
    assert nu_star == pytest.approx(nu_table, abs=1e-6)
