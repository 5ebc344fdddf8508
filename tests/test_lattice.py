import numpy as np
import pytest

from dnls_ring import (ConfigError, DomainError, LatticeConfig, Potential,
                       gradient, hamiltonian, hessian, hessian_at_equilibrium,
                       make_standing_wave, rotating_rhs)
from dnls_ring.lattice import apply_symplectic, rot, symplectic_matrix

from helpers import (direct_hamiltonian, fd_gradient, fd_jacobian,
                     loop_hessian, roll_gradient)


def phase_rotate(u, theta: float, n: int) -> np.ndarray:
    """Simultaneous phase rotation e^{theta J} applied to every site."""
    x = np.asarray(u, dtype=float).reshape(np.shape(u)[:-1] + (n, 2))
    return (x @ rot(theta).T).reshape(np.shape(u))


def site_shift(u, s: int, n: int) -> np.ndarray:
    """Cyclic permutation of site blocks: site j takes the value of site j+s."""
    x = np.asarray(u, dtype=float).reshape(np.shape(u)[:-1] + (n, 2))
    return np.roll(x, -s, axis=-2).reshape(np.shape(u))


def test_config_normalizes_m():
    assert LatticeConfig(6, 1).m == 1
    assert LatticeConfig(6, 5).m == 1       # n - m
    assert LatticeConfig(6, 7).m == 1       # mod n then reflect
    assert LatticeConfig(6, 0).m == 0
    assert LatticeConfig(6, 3).m == 3
    assert LatticeConfig(5, 2).m == 2


def test_config_rejections():
    with pytest.raises(ConfigError):
        LatticeConfig(2, 0)
    with pytest.raises(ConfigError):
        LatticeConfig(8, 2)     # 4m = n
    with pytest.raises(ConfigError):
        LatticeConfig(4, 1)
    with pytest.raises(ConfigError):
        LatticeConfig(8, 6)     # normalizes to m=2, still excluded


def test_potential_values():
    cubic = Potential.cubic(1.0)
    assert cubic(0.04, 2) == pytest.approx(1.0)
    sat = Potential.saturable(1.0)
    assert sat(0.0, 2) == pytest.approx(-1.0)
    sat2 = Potential.saturable(2.0)
    assert sat2(1.0, 1) == pytest.approx(1.0)


def test_potential_derivatives_match_fd():
    rng = np.random.default_rng(11)
    pots = [Potential.cubic(1.0), Potential.cubic(-2.0),
            Potential.saturable(1.5), Potential.polynomial([0.0, 0.3, -0.4, 0.1])]
    h = 1e-6
    for pot in pots:
        for s in rng.uniform(0.01, 1.5, size=6):
            d1 = (pot(s + h, 0) - pot(s - h, 0)) / (2 * h)
            d2 = (pot(s + h, 1) - pot(s - h, 1)) / (2 * h)
            assert pot(s, 1) == pytest.approx(d1, abs=1e-7)
            assert pot(s, 2) == pytest.approx(d2, abs=1e-7)


def test_saturable_domain():
    sat = Potential.saturable(1.0)
    with pytest.raises(DomainError):
        sat(-1.0, 0)
    with pytest.raises(DomainError):
        sat(-2.0, 1)


def test_standing_wave_frequency():
    cfg = LatticeConfig(6, 1)
    pot = Potential.cubic(1.0)
    assert make_standing_wave(cfg, pot, 0.0).omega == pytest.approx(1.0)
    assert make_standing_wave(cfg, pot, 0.2).omega == pytest.approx(0.96)
    cfg3 = LatticeConfig(6, 3)
    assert make_standing_wave(cfg3, pot, 0.2).omega == pytest.approx(3.96)


def test_standing_wave_block_norms():
    cfg = LatticeConfig(7, 2)
    sw = make_standing_wave(cfg, Potential.saturable(1.0), 0.7)
    blocks = sw.equilibrium.reshape(cfg.n, 2)
    assert np.linalg.norm(blocks, axis=1) == pytest.approx(0.7)


def test_equilibrium_is_critical_point():
    # omega is defined exactly so that grad H vanishes at a_m
    for n, m in [(3, 0), (5, 1), (6, 1), (6, 3), (8, 3)]:
        cfg = LatticeConfig(n, m)
        for pot in [Potential.cubic(1.0), Potential.cubic(-1.0),
                    Potential.saturable(1.0)]:
            for a in [0.0, 0.3, 1.0]:
                sw = make_standing_wave(cfg, pot, a)
                g = gradient(cfg, pot, sw.omega, sw.equilibrium)
                assert np.abs(g).max() <= 1e-12


def test_hamiltonian_direct_sum_oracle():
    rng = np.random.default_rng(3)
    for n, m in [(3, 0), (4, 0), (6, 1), (8, 3)]:
        cfg = LatticeConfig(n, m)
        pot = Potential.cubic(0.7)
        omega = 0.4
        for _ in range(5):
            u = rng.standard_normal(2 * n)
            assert hamiltonian(cfg, pot, omega, u) == pytest.approx(
                direct_hamiltonian(n, pot, omega, u), abs=1e-12)


def test_hamiltonian_equilibrium_values():
    cfg = LatticeConfig(6, 1)
    pot = Potential.cubic(1.0)
    sw = make_standing_wave(cfg, pot, 0.2)
    # every site contributes V(a^2) + omega a^2 - 4 a^2 sin^2(m zeta / 2)
    expected = 3.0 * (0.0008 + 0.96 * 0.04 - 0.04)
    assert hamiltonian(cfg, pot, sw.omega, sw.equilibrium) == pytest.approx(expected)

    cfg3 = LatticeConfig(3, 0)
    sw3 = make_standing_wave(cfg3, pot, 1.0)
    assert sw3.omega == pytest.approx(-1.0)
    assert hamiltonian(cfg3, pot, sw3.omega, sw3.equilibrium) == pytest.approx(
        1.5 * (0.5 - 1.0))


def test_gradient_matches_fd_on_random_states():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(0, n // 2 + 1))
        if 4 * m == n:
            m = 0
        cfg = LatticeConfig(n, m)
        pot = Potential.cubic(float(rng.uniform(-2, 2)) or 1.0)
        omega = float(rng.uniform(-1, 1))
        u = rng.standard_normal(2 * n)
        g = gradient(cfg, pot, omega, u)
        g_fd = fd_gradient(lambda v: hamiltonian(cfg, pot, omega, v), u)
        assert np.abs(g - g_fd).max() <= 1e-6


def test_hessian_matches_fd():
    cfg = LatticeConfig(6, 1)
    pot = Potential.cubic(1.0)
    sw = make_standing_wave(cfg, pot, 0.2)
    H = hessian_at_equilibrium(cfg, pot, 0.2)
    H_fd = fd_jacobian(lambda v: gradient(cfg, pot, sw.omega, v), sw.equilibrium)
    assert np.abs(H - H_fd).max() <= 1e-6
    assert np.abs(H - H.T).max() == 0.0


def test_hessian_general_point_matches_fd():
    rng = np.random.default_rng(19)
    cfg = LatticeConfig(5, 1)
    pot = Potential.saturable(1.0)
    omega = 0.3
    u = 0.4 * rng.standard_normal(2 * cfg.n)
    H = hessian(cfg, pot, omega, u)
    H_fd = fd_jacobian(lambda v: gradient(cfg, pot, omega, v), u)
    assert np.abs(H - H_fd).max() <= 1e-6


POTENTIALS = [Potential.cubic(1.0), Potential.cubic(-1.0),
              Potential.saturable(1.0), Potential.polynomial([0.0, 0.3, -0.5, 0.2])]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 48])
@pytest.mark.parametrize("pot", POTENTIALS, ids=lambda p: f"{p.kind}{p.params}")
def test_hessian_matches_loop_oracle(n, pot):
    rng = np.random.default_rng(n)
    cfg = LatticeConfig(n, 0)
    for _ in range(3):
        omega = float(rng.uniform(-1, 1))
        u = 0.6 * rng.standard_normal(2 * n)
        H = hessian(cfg, pot, omega, u)
        assert np.abs(H - loop_hessian(n, pot, omega, u)).max() <= 1e-14


@pytest.mark.parametrize("n", [3, 4, 7])
def test_batched_gradient_matches_per_row_calls(n):
    # n = 3 leaves an interior neighbour slice of length 1
    rng = np.random.default_rng(100 + n)
    cfg = LatticeConfig(n, 0)
    u = rng.standard_normal((3, 4, 2 * n))
    for pot in POTENTIALS:
        g = gradient(cfg, pot, 0.4, u)
        assert g.shape == u.shape
        rows = np.array([[gradient(cfg, pot, 0.4, r) for r in plane] for plane in u])
        assert np.array_equal(g, rows)
        assert np.abs(g - roll_gradient(n, pot, 0.4, u)).max() <= 1e-14


def test_batched_hamiltonian_matches_per_state_calls():
    rng = np.random.default_rng(41)
    cfg = LatticeConfig(6, 1)
    pot = Potential.saturable(1.0)
    states = rng.standard_normal((50, 2 * cfg.n))
    H = hamiltonian(cfg, pot, 0.7, states)
    assert H.shape == (50,)
    each = np.array([hamiltonian(cfg, pot, 0.7, u) for u in states])
    assert np.abs(H - each).max() <= 1e-14 * np.abs(each).max()


def test_hessian_zero_amplitude_structure():
    cfg = LatticeConfig(6, 1)
    H = hessian_at_equilibrium(cfg, Potential.cubic(1.0), 0.0)
    n = cfg.n
    expected = np.zeros((2 * n, 2 * n))
    for j in range(n):
        expected[2 * j:2 * j + 2, 2 * j:2 * j + 2] = -2 * np.cos(cfg.zeta) * np.eye(2)
        jp = (j + 1) % n
        expected[2 * j:2 * j + 2, 2 * jp:2 * jp + 2] = np.eye(2)
        expected[2 * jp:2 * jp + 2, 2 * j:2 * j + 2] = np.eye(2)
    assert np.abs(H - expected).max() <= 1e-14


def test_rotating_rhs_identity():
    rng = np.random.default_rng(23)
    cfg = LatticeConfig(6, 1)
    pot = Potential.cubic(1.0)
    sw = make_standing_wave(cfg, pot, 0.2)
    assert np.abs(rotating_rhs(cfg, pot, sw.omega, sw.equilibrium)).max() <= 1e-12
    assert np.abs(rotating_rhs(cfg, pot, sw.omega, np.zeros(12))).max() == 0.0
    u = rng.standard_normal(12)
    lhs = apply_symplectic(rotating_rhs(cfg, pot, sw.omega, u), cfg.n)
    assert np.abs(lhs - gradient(cfg, pot, sw.omega, u)).max() <= 1e-12


def test_rotating_rhs_linearizes_to_minus_J_hessian():
    # pins the sign convention: D rotating_rhs(a_m) = -J D^2H(a_m)
    for n, m, pot, a in [(3, 0, Potential.cubic(1.0), 0.3),
                         (6, 1, Potential.saturable(1.0), 0.7)]:
        cfg = LatticeConfig(n, m)
        sw = make_standing_wave(cfg, pot, a)
        fd = fd_jacobian(lambda v: rotating_rhs(cfg, pot, sw.omega, v),
                         sw.equilibrium, h=1e-6)
        target = -symplectic_matrix(n) @ hessian_at_equilibrium(cfg, pot, a)
        assert np.abs(fd - target).max() <= 1e-8


def test_gauge_and_shift_invariance():
    rng = np.random.default_rng(31)
    cfg = LatticeConfig(7, 2)
    pot = Potential.saturable(1.0)
    omega = 0.25
    for _ in range(10):
        u = rng.standard_normal(2 * cfg.n)
        h0 = hamiltonian(cfg, pot, omega, u)
        theta = float(rng.uniform(0, 2 * np.pi))
        assert hamiltonian(cfg, pot, omega, phase_rotate(u, theta, cfg.n)) == \
            pytest.approx(h0, abs=1e-12)
        assert hamiltonian(cfg, pot, omega, site_shift(u, 1, cfg.n)) == \
            pytest.approx(h0, abs=1e-12)
