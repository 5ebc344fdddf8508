from decimal import Decimal, localcontext

import numpy as np
import pytest

from dnls_ring import (ConfigError, DomainError, LatticeConfig, Potential,
                       gradient, hamiltonian, hessian, integrate,
                       make_standing_wave, onsite_blocks)
from dnls_ring.lattice import rot
from dnls_ring.verify import MIDPOINT_TOL

from helpers import (direct_hamiltonian, fd_gradient, fd_jacobian,
                     hessian_at_equilibrium, loop_hessian, roll_gradient,
                     rotating_rhs, symplectic_matrix)


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


@pytest.mark.parametrize("kind, params", [("cubic", ()), ("polynomial", ()),
                                           ("bogus", ()), ("saturable", (1.0, 2.0))],
                         ids=["cubic_no_c", "polynomial_no_coefficients",
                              "unknown_kind", "saturable_two_c"])
def test_potential_checks_kind_and_parameter_count_at_construction(kind, params):
    with pytest.raises(ConfigError):
        Potential(kind, params)


TABLE_POTENTIALS = [Potential.cubic(1.3), Potential.cubic(-1.3),
                    Potential.saturable(0.7), Potential.saturable(-0.7),
                    Potential.polynomial([2.0]), Potential.polynomial([1, 3]),
                    Potential.polynomial([0, 0.5, -0.3, 0.2, 0.1])]


def _bits(x, shape=None):
    x = np.asarray(x, dtype=float)
    return np.broadcast_to(x, x.shape if shape is None else shape).tobytes()


@pytest.mark.parametrize("pot", TABLE_POTENTIALS, ids=repr)
def test_derivative_table_equals_call_bit_for_bit(pot):
    # the bound V, V', V'' are what __call__ evaluates: same bits on scalars,
    # 0-d arrays and batched states; only a constant V'' may be a scalar
    s = np.random.default_rng(3).uniform(-0.9, 3.0, size=(4, 12))
    s[1, 5] = s[2, :2] = 0.0
    for order, f in enumerate(pot.derivs):
        got = f(s)
        assert np.shape(got) in ((), s.shape)
        assert _bits(got, s.shape) == _bits(pot(s, order))
        assert pot(s, order).shape == s.shape
        for x in (0.0, 0.37, -0.5, np.array(0.37)):
            assert type(pot(x, order)) is float
            assert _bits(f(np.asarray(x))) == _bits(pot(x, order))
            assert _bits(f(x)) == _bits(pot(x, order))


# (c, a) where the saturable (1 + a^2)^2 overflows though 2a^2 V''(a^2) is
# representable: -1.15e111, -3.05e30 and -8.4e19
SATURABLE_OVERFLOW = [(1.05e296, 4.28e92), (5.77e207, 6.15e88), (4.42e297, 1.03e139)]


def decimal_saturable_v2(c: float, s: float) -> float:
    """-c / (1 + s)^2 in 60-digit Decimal arithmetic on the float inputs."""
    with localcontext() as ctx:
        ctx.prec = 60
        return float(-Decimal(c) / (1 + Decimal(s)) ** 2)


@pytest.mark.parametrize("c, a", SATURABLE_OVERFLOW)
def test_saturable_second_derivative_past_the_square_overflow(c, a):
    pot, s = Potential.saturable(c), a * a
    want = decimal_saturable_v2(c, s)
    assert want < 0.0 and pot(s, 2) == pytest.approx(want, rel=1e-15)
    # masked per entry in a batch: overflowing and ordinary s side by side
    batch = np.array([s, 0.5, 2e154, 1.3407807929942596e154, np.nan, 3.0])
    got = pot.derivs[2](batch)
    for x, v in zip(batch, got):
        if np.isnan(x):
            assert np.isnan(v)
        else:
            assert v == pytest.approx(decimal_saturable_v2(c, x), rel=1e-15)
    assert got[1].tobytes() == (-np.array(c) / (1.0 + batch[1]) ** 2).tobytes()


def test_saturable_second_derivative_keeps_its_bits_where_finite():
    # today's -c / (1 + s)^2 wherever (1 + s)^2 is finite, up to its edge
    s = np.concatenate([np.random.default_rng(5).uniform(-0.99, 50.0, 400),
                        np.logspace(-300, 154, 200), [0.0, 1.3407807929942596e154]])
    for c in (1.0, -1.0, 0.37, 1e300, -5.77e207):
        one, cc = np.array(1.0), np.array(c)
        want = -cc / (one + s) ** 2
        assert Potential.saturable(c).derivs[2](s).tobytes() == want.tobytes()
        assert Potential.saturable(c)(s[:5], 2).tobytes() == want[:5].tobytes()


@pytest.mark.parametrize("pot", [p for p in TABLE_POTENTIALS if p.kind == "polynomial"],
                         ids=repr)
def test_polynomial_derivatives_equal_polyval_of_polyder(pot):
    poly = np.polynomial.polynomial
    s = np.concatenate([[0.0, -0.0], np.random.default_rng(4).uniform(-2.0, 2.0, 20)])
    for order, f in enumerate(pot.derivs):
        want = poly.polyval(s, poly.polyder(np.array(pot.params), order))
        assert _bits(f(s)) == _bits(want)


@pytest.mark.parametrize("pot", TABLE_POTENTIALS, ids=repr)
def test_potential_stays_equal_hashable_picklable(pot):
    import pickle
    same = Potential(pot.kind, pot.params)
    back = pickle.loads(pickle.dumps(pot))
    assert same == pot == back and hash(same) == hash(pot) == hash(back)
    assert len({pot, same, back}) == 1
    assert repr(pot) == f"Potential(kind={pot.kind!r}, params={pot.params!r})"
    s = np.linspace(0.0, 2.0, 7)
    for order in range(3):
        assert _bits(back(s, order)) == _bits(pot(s, order))


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


@pytest.mark.parametrize("n, m", [(6, 1), (12, 1), (16, 2), (12, 5), (6, 3),
                                  (8, 4), (7, 2)])
def test_standing_wave_right_angle_sites_are_exact(n, m):
    # where the site phase (j m mod n) zeta is a multiple of pi/2, the
    # vanishing component is an exact 0 and |u_j|^2 is a^2 to the bit;
    # every other component is a cos/sin of the reduced angle
    cfg, a = LatticeConfig(n, m), 0.3
    x = make_standing_wave(cfg, Potential.cubic(1.0), a).equilibrium.reshape(n, 2)
    q = np.arange(n) * cfg.m % n
    right = 4 * q % n == 0
    sin_zero, cos_zero = right & (2 * q % n == 0), right & (2 * q % n != 0)
    assert np.all(x[sin_zero, 1] == 0.0) and np.all(x[cos_zero, 0] == 0.0)
    assert np.all((x[right] ** 2).sum(axis=1) == a * a)
    ang = cfg.angle(q)
    assert np.array_equal(x[~cos_zero, 0], a * np.cos(ang[~cos_zero]))
    assert np.array_equal(x[~sin_zero, 1], a * np.sin(ang[~sin_zero]))


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
    lhs = symplectic_matrix(cfg.n) @ rotating_rhs(cfg, pot, sw.omega, u)
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


def test_midpoint_step_linearizes_to_minus_J_hessian():
    # pins the sign convention on the production vector field: the one-step
    # map Phi of integrate has (DPhi(a_m) - I)/dt = A + O(dt), A = -J D^2H(a_m)
    dt, h = 1e-3, 1e-5
    for n, m, pot, a in [(3, 0, Potential.cubic(1.0), 0.3),
                         (6, 1, Potential.saturable(1.0), 0.7)]:
        cfg = LatticeConfig(n, m)
        sw = make_standing_wave(cfg, pot, a)
        fd = fd_jacobian(lambda v: integrate(cfg, pot, sw.omega, v, dt, dt).states[1],
                         sw.equilibrium, h=h)
        target = -symplectic_matrix(n) @ hessian_at_equilibrium(cfg, pot, a)
        # Linearized, the midpoint rule is (I - dt A/2) DPhi = I + dt A/2, so
        # (DPhi - I)/dt - A = (dt/2) A^2 (I - dt A/2)^-1, at most
        # (dt/2) |A|^2 / (1 - dt |A|/2) in the 2-norm, which bounds every
        # entry. Each Phi meets its residual within MIDPOINT_TOL, so is off
        # by MIDPOINT_TOL / (1 - dt |A|/2): the central difference turns that
        # into MIDPOINT_TOL / ((1 - dt |A|/2) h dt). The truncation,
        # h^2 |D^3 Phi| / (6 dt) with D^3 Phi = O(dt), and rounding fit in h.
        norm = np.linalg.norm(target, 2)
        bound = ((0.5 * dt * norm * norm + MIDPOINT_TOL / (h * dt))
                 / (1.0 - 0.5 * dt * norm) + h)
        err = np.abs((fd - np.eye(2 * n)) / dt - target)
        assert err.max() <= bound < 0.01
        # the opposite sign would miss by 2 |A|, far outside the bound
        assert np.abs(target).max() > bound


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


def test_onsite_blocks_equal_loop_hessian_diagonal():
    # onsite_blocks is the only on-site formula: hessian scatters it, the
    # midpoint Newton matrix refreshes it. The per-site loop oracle forms the
    # same products in the same order, so the blocks agree exactly.
    rng = np.random.default_rng(12)
    pots = [Potential.cubic(1.0), Potential.cubic(-1.0), Potential.saturable(1.0),
            Potential.polynomial([0.0, 0.5, -0.3, 0.2, 0.1])]
    for n in (3, 6, 12):
        for pot in pots:
            u = 0.4 * rng.standard_normal(2 * n)
            x = u.reshape(n, 2)
            s = (x * x).sum(axis=-1)
            rows = onsite_blocks(pot, 0.7, x.T, s, pot(s, 1))
            blocks = rows[[0, 1, 1, 2]].T.reshape(n, 2, 2)
            H = loop_hessian(n, pot, 0.7, u)
            for j in range(n):
                assert np.array_equal(blocks[j], H[2 * j:2 * j + 2, 2 * j:2 * j + 2])
