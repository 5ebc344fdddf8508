import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnls_ring import (BlockData, LatticeConfig, Potential, alpha_beta,
                       block_data, classify_stability, full_spectrum,
                       hessian_at_equilibrium)

from dnls_ring.cli import main as cli_main, read_csv

from helpers import (average_clusters, block_basis, block_matrices,
                     block_table, dense_verdict, expected_spectrum,
                     matching_distance)


CFG = LatticeConfig(6, 1)
CUBIC = Potential.cubic(1.0)


def test_alpha_beta_closed_forms():
    # n=6, m=1: alpha_k = 2 sin^2(k pi/6), beta_k = sqrt(3) sin(k pi/3)
    for k in range(1, 7):
        alpha, beta = alpha_beta(CFG, k)
        assert alpha == pytest.approx(2.0 * np.sin(k * np.pi / 6) ** 2, abs=1e-14)
        assert beta == pytest.approx(np.sqrt(3.0) * np.sin(k * np.pi / 3), abs=1e-14)


@pytest.mark.parametrize("n", [3, 6, 7, 12, 48, 96])
def test_alpha_beta_mirror_symmetric(n):
    # modes k and n - k carry the same alpha and opposite beta, bit for bit,
    # for every m and for k shifted by multiples of n; k = n/2, its own
    # mirror, and every k on m = 0 and m = n/2 rings have beta = +0 exactly
    for m in range(n // 2 + 1):
        if 4 * m == n:
            continue
        cfg, k = LatticeConfig(n, m), np.arange(1, n)
        alpha, beta = alpha_beta(cfg, k)
        for shift in (0, n, -3 * n):
            mirror_alpha, mirror_beta = alpha_beta(cfg, n - k + shift)
            assert np.array_equal(mirror_alpha, alpha)
            assert np.array_equal(mirror_beta, -beta)
        zero = (2 * k == n) | (2 * m % n == 0)
        assert np.all(beta[~zero] != 0.0)
        assert np.all(beta[zero] == 0.0) and not np.signbit(beta[zero]).any()


def test_block_basis_orthonormality():
    rng = np.random.default_rng(0)
    for n, m in [(5, 1), (6, 1), (7, 3)]:
        cfg = LatticeConfig(n, m)
        cols = []
        for k in range(1, n + 1):
            for z in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
                cols.append(block_basis(cfg, k, z))
        T = np.array(cols).T
        assert np.abs(T.conj().T @ T - np.eye(2 * n)).max() <= 1e-12


def test_block_basis_constant_mode():
    cfg = LatticeConfig(6, 0)
    v = block_basis(cfg, 6, np.array([1.0, 0.0]))
    expected = np.tile([1.0, 0.0], 6) / np.sqrt(6.0)
    assert np.abs(v - expected).max() <= 1e-14


def test_block_diagonalization_against_hessian():
    # D^2H(a_m) T_k z = T_k B_k z for every mode and random z
    rng = np.random.default_rng(1)
    for n, m, pot, a in [(6, 1, CUBIC, 0.2), (5, 2, Potential.saturable(1.0), 0.6),
                         (8, 3, Potential.cubic(-1.0), 1.0), (3, 1, CUBIC, 0.4)]:
        cfg = LatticeConfig(n, m)
        H = hessian_at_equilibrium(cfg, pot, a)
        for k in range(1, n + 1):
            B, _ = block_matrices(cfg, pot, a, k)
            for _ in range(10):
                z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                lhs = H @ block_basis(cfg, k, z)
                rhs = block_basis(cfg, k, B @ z)
                assert np.abs(lhs - rhs).max() <= 1e-10


def test_block_fixture_k1():
    bd = block_data(CFG, CUBIC, 0.2, 1)
    assert bd.alpha == pytest.approx(0.5)
    assert bd.beta == pytest.approx(1.5)
    assert bd.phi == pytest.approx(0.16)
    assert bd.gamma == pytest.approx(-8.0)
    assert bd.nu_plus.real == pytest.approx(1.9582575694955841, abs=1e-12)
    assert bd.nu_minus.real == pytest.approx(1.0417424305044159, abs=1e-12)


def test_block_fixture_k3():
    # k = n/2 is its own mirror: beta_3 = 0 exactly, so nu_3^+/- are exact
    # negatives of each other
    bd = block_data(CFG, CUBIC, 0.2, 3)
    assert bd.alpha == pytest.approx(2.0)
    assert bd.beta == 0.0
    assert bd.phi == pytest.approx(0.04)
    assert bd.gamma == pytest.approx(1.0)
    assert bd.nu_plus.real == pytest.approx(2.0 * np.sqrt(0.96), abs=1e-12)
    assert bd.nu_plus == -bd.nu_minus


def test_block_k_equals_n(tmp_path):
    # alpha_n = 0 leaves no phi, gamma or onset: spectrum.csv's k = n row
    # carries alpha_n = beta_n = 0 exactly, empty phi/gamma and zero onsets;
    # m = 2 has cos(m zeta) < 0, where alpha_n is written as 0, not -0
    for m in (1, 2):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"lattice": {"n": 6, "m": m},
                                      "potential": {"kind": "cubic", "c": 1.0},
                                      "amplitude": 0.2}))
        assert cli_main(["spectrum", "--config", str(config),
                         "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "spectrum.csv")
        k, alpha, beta, phi, gamma, *onsets = rows[-1]
        assert int(k) == 6 and len(rows) == 6
        assert alpha == beta == "0", m
        assert phi == gamma == ""
        assert onsets == ["0"] * 4
    # alpha_beta reads only k mod n, bit for bit, up to the largest mode l k
    # the reduced system asks for (l <= 256)
    for n in (6, 48, 96):
        for m in range(n // 2 + 1):
            if 4 * m == n:
                continue
            cfg = LatticeConfig(n, m)
            q = np.arange(256 * (n - 1) + 1)
            for got, want in zip(alpha_beta(cfg, q), alpha_beta(cfg, q % n)):
                assert np.array_equal(got, want), (n, m)


def test_block_data_array_matches_scalar_calls():
    # One array call per ring gives the per-k scalar calls bit for bit, on
    # every m for n <= 48 and each potential of the benchmark survey.
    names = [f.name for f in fields(BlockData)]
    for n in range(3, 49):
        for m in range(n // 2 + 1):
            if 4 * m == n:
                continue
            cfg = LatticeConfig(n, m)
            a = (0.3, 1.0)[(n + m) % 2]
            for pot in (CUBIC, Potential.cubic(-1.0), Potential.saturable(1.0)):
                table = block_data(cfg, pot, a, np.arange(1, n))
                rows = [block_data(cfg, pot, a, k) for k in range(1, n)]
                for name in names:
                    assert np.array_equal(getattr(table, name),
                                          [getattr(r, name) for r in rows]), \
                        (n, m, pot, name)


def test_block_data_array_shapes_and_range():
    ks = np.array([[1, 2, 3], [5, 4, 1]])
    bd = block_data(CFG, CUBIC, 0.2, ks)
    assert bd.phi.shape == bd.nu_minus.shape == (2, 3)
    assert bd.nu_plus[1, 0] == block_data(CFG, CUBIC, 0.2, 5).nu_plus
    # k = n has no phi or onsets, so neither a mode nor an array may hold it
    for bad in (np.arange(1, 7), np.array([0, 1]), np.array([[2], [7]])):
        with pytest.raises(ValueError):
            block_data(CFG, CUBIC, 0.2, bad)
    for bad in (0, 6, 7):
        with pytest.raises(ValueError):
            block_data(CFG, CUBIC, 0.2, bad)


def test_zero_amplitude_frequencies():
    for k in range(1, 6):
        bd = block_data(CFG, CUBIC, 0.0, k)
        assert bd.phi == 0.0
        assert bd.nu_plus.real == pytest.approx(bd.beta + abs(bd.alpha), abs=1e-13)
        assert bd.nu_minus.real == pytest.approx(bd.beta - abs(bd.alpha), abs=1e-13)


def test_mode_reflection_identity():
    # {nu_{n-k}^+-} = {-nu_k^+-}: alpha is even, beta odd under k -> n-k
    for n, m, a in [(6, 1, 0.2), (7, 2, 0.5), (8, 1, 0.9)]:
        cfg = LatticeConfig(n, m)
        for k in range(1, n):
            b1 = block_data(cfg, CUBIC, a, k)
            b2 = block_data(cfg, CUBIC, a, n - k)
            s1 = sorted([b1.nu_plus, b1.nu_minus], key=lambda z: (z.real, z.imag))
            s2 = sorted([-b2.nu_plus, -b2.nu_minus], key=lambda z: (z.real, z.imag))
            assert np.abs(np.array(s1) - np.array(s2)).max() <= 1e-12


def test_full_spectrum_matches_blocks():
    got = average_clusters(full_spectrum(CFG, CUBIC, 0.2), 1e-6)
    want = expected_spectrum(CFG, CUBIC, 0.2)
    assert matching_distance(got, want) <= 1e-8


RINGS = st.integers(3, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n // 2).filter(lambda m: 4 * m != n)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ring=RINGS, a=st.floats(0.0, 1.0),
       pot=st.sampled_from([CUBIC, Potential.cubic(-1.0),
                            Potential.saturable(1.0),
                            Potential.polynomial([0.0, 0.5, -0.3, 0.1, 0.05])]))
@example(ring=(7, 2), pot=Potential.saturable(1.0), a=0.6)
def test_spectrum_closed_under_negation_and_conjugation(ring, pot, a):
    eig = full_spectrum(LatticeConfig(*ring), pot, a)
    assert matching_distance(eig, -eig) <= 1e-7
    assert matching_distance(eig, eig.conj()) <= 1e-7


def test_gauge_double_zero():
    eig = full_spectrum(LatticeConfig(3, 0), CUBIC, 0.0)
    zeros = np.sort(np.abs(eig))[:2]
    assert zeros.max() <= 1e-10


def test_phi_monotone_in_k_focusing():
    # for sigma > 0 (focusing, m < n/4) phi_k decreases with k up to n/2
    for a in [0.2, 0.5, 0.9]:
        phis = [block_data(CFG, CUBIC, a, k).phi for k in range(1, 4)]
        assert phis[0] >= phis[1] >= phis[2]


def test_frequency_signs_match_cases():
    # phi < gamma: nu^+ > 0 > nu^-; gamma < phi < 1: both positive
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(0, n // 2 + 1))
        if 4 * m == n:
            continue
        cfg = LatticeConfig(n, m)
        a = float(rng.uniform(0.05, 1.0))
        c = float(rng.choice([-1.0, 1.0]))
        pot = Potential.cubic(c)
        for k in range(1, n):
            bd = block_data(cfg, pot, a, k)
            if bd.phi < bd.gamma:
                assert bd.nu_plus.real > 0 > bd.nu_minus.real
            elif bd.gamma < bd.phi < 1.0 and 2 * k < n:
                # both roots carry the sign of beta, positive below n/2
                assert bd.nu_plus.real > 0 and bd.nu_minus.real > 0


def test_stability_fixture_values():
    v = classify_stability(CFG, CUBIC, 0.2)
    assert v.sigma == 1
    assert v.phi_1 == pytest.approx(0.16)
    assert v.covered and v.empirical_stable

    v2 = classify_stability(CFG, CUBIC, 0.6)
    assert v2.phi_1 == pytest.approx(1.44)
    assert not v2.covered
    assert not v2.empirical_stable
    assert v2.max_real_part > 1e-4


def test_block_stability_matches_dense_spectrum():
    # Every m for n <= 48, each potential at two amplitudes that alternate
    # over (n, m) to keep the run short; the 1:1 collisions phi_k = 1 are
    # left to test_stability_at_one_to_one_collision.
    amplitudes = [(CUBIC, (0.3, 1.0)), (Potential.cubic(-1.0), (0.5, 1.0)),
                  (Potential.saturable(1.0), (0.5, 1.0))]
    stable = unstable = 0
    for n in range(3, 49):
        for m in range(n // 2 + 1):
            if 4 * m == n:
                continue
            cfg = LatticeConfig(n, m)
            for pot, amps in amplitudes:
                a = amps[(n + m) % 2]
                if np.abs(block_table(cfg, pot, a).phi - 1.0).min() < 1e-6:
                    continue
                v = classify_stability(cfg, pot, a)
                max_re, dense_stable = dense_verdict(cfg, pot, a)
                case = (n, m, pot, a, v.max_real_part, max_re)
                assert v.empirical_stable == dense_stable, case
                if dense_stable:
                    assert v.max_real_part == 0.0, case
                    stable += 1
                else:
                    assert v.max_real_part == pytest.approx(max_re, rel=1e-9), case
                    unstable += 1
    assert stable > 500 and unstable > 500
    assert classify_stability(LatticeConfig(48, 13), CUBIC, 0.3).empirical_stable


@pytest.mark.parametrize("pot, a", [(Potential.cubic(-1.0), 0.5),
                                    (Potential.saturable(1.0), 1.0)])
def test_stability_at_one_to_one_collision(pot, a):
    # n = 6, m = 2: alpha_1 = -1/2 and 2 a^2 V''(a^2) = -1/2, so phi_1 = 1 up
    # to roundoff and |Im nu_1| reads ~ sqrt(eps); the collision is stable,
    # as in the dense spectrum
    cfg = LatticeConfig(6, 2)
    v = classify_stability(cfg, pot, a)
    assert v.phi_1 == pytest.approx(1.0, abs=1e-15)
    assert 0.0 < v.max_real_part < 1e-7
    assert v.empirical_stable and dense_verdict(cfg, pot, a)[1]


def test_stability_large_wavenumber_and_defocusing():
    cfg3 = LatticeConfig(6, 3)
    for a in np.linspace(0.05, 2.0, 15):
        assert classify_stability(cfg3, CUBIC, float(a)).covered
        assert classify_stability(CFG, Potential.cubic(-1.0), float(a)).covered


def test_stability_per_k_real_flags():
    # phi_1 is the one-mode block, bit for bit
    v = classify_stability(CFG, CUBIC, 0.2)
    assert v.phi_1 == block_data(CFG, CUBIC, 0.2, 1).phi
