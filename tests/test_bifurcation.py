import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dnls_ring import (BlockData, DegenerateAmplitudeError, LatticeConfig, Potential,
                       amplitude_thresholds, block_data, check_nondegenerate,
                       check_nonresonant, classify_stability,
                       enumerate_bifurcations)
from dnls_ring.bifurcation import A_MAX, ROOT_IMAG_TOL, _regime
from dnls_ring.spectral import alpha_beta
from helpers import block_table, dense_verdict, loop_resonances
from oracles import SCAN_SAMPLES, threshold_by_bisection


CFG = LatticeConfig(6, 1)
CUBIC = Potential.cubic(1.0)


def test_nondegenerate_fixture():
    bd = block_table(CFG, CUBIC, 0.2)
    check_nondegenerate(CUBIC, 0.2, bd)            # passes without raising
    assert np.abs(bd.phi - bd.gamma) == pytest.approx([8.16, 0.16 / 3.0, 0.96,
                                                       0.16 / 3.0, 8.16])


def test_zero_amplitude_is_degenerate():
    with pytest.raises(DegenerateAmplitudeError, match=re.escape("2 a^2 V''")):
        check_nondegenerate(CUBIC, 0.0, block_table(CFG, CUBIC, 0.0))


def test_overflowing_rank_one_block_is_degenerate():
    # a^2 overflows: the onset frequencies would be infinite
    with pytest.raises(DegenerateAmplitudeError, match="overflows"):
        check_nondegenerate(CUBIC, 1e200, block_table(CFG, CUBIC, 1e200))


def test_k2_margin_stays_positive_on_sweep():
    # phi_2 > 0 = gamma_2 for every a > 0, so the k=2 margin never closes;
    # read from the table, since a = 1 on the sweep is degenerate at k = 3
    for a in np.linspace(0.05, 2.0, 40):
        bd = block_table(CFG, CUBIC, float(a))
        assert abs(bd.phi[1] - bd.gamma[1]) > 1e-3


def test_degenerate_amplitude_detected():
    # a = 1 closes the k=3 margin exactly: phi_3 = a^2 meets gamma_3 = 1; the
    # message names every failing mode, and the enumeration raises the same
    bd = block_table(CFG, CUBIC, 1.0)
    with pytest.raises(DegenerateAmplitudeError) as exc:
        check_nondegenerate(CUBIC, 1.0, bd)
    assert "phi_3" in str(exc.value)
    assert "phi_1" not in str(exc.value)
    with pytest.raises(DegenerateAmplitudeError) as again:
        enumerate_bifurcations(CFG, CUBIC, 1.0)
    assert str(again.value) == str(exc.value)


def test_zero_amplitude_resonances_flagged():
    # at a=0 the frequencies are beta_k +- alpha_k, integer-related for n=6
    rep = check_nonresonant(block_table(CFG, CUBIC, 0.0))
    assert rep.records
    hits = {(r.j, r.l) for r in rep.records}
    # nu_2^+ = 3 is exactly 3 * nu_1^- = 3 * 1
    assert any(r.k == 1 and r.ksign == -1 and r.j == 2 and r.l == 3
               for r in rep.records)
    assert hits


def test_generic_amplitude_is_nonresonant():
    rep = check_nonresonant(block_table(CFG, CUBIC, 0.2))
    assert not [r for r in rep.records if r.k == 3 and r.ksign == +1]
    assert not rep.one_to_one


def test_one_to_one_flag_at_hopf_amplitude():
    # phi_1(a) = 1 at a = sqrt(alpha_1 / 2c) = 0.5 for the focusing cubic
    rep = check_nonresonant(block_table(CFG, CUBIC, 0.5))
    assert 1 in rep.one_to_one


def test_resonance_scan_matches_loop_oracle():
    # every m for n <= 12, a spread of m for n = 24 and 48; a = 0, 1/sqrt(2)
    # and 1 put rational frequency ratios and 1:1 collisions on the grid
    rings = ([(n, m) for n in range(3, 13) for m in range(n // 2 + 1)
              if 4 * m != n] + [(24, 5), (24, 12), (48, 13)])
    pots = [CUBIC, Potential.cubic(-1.0), Potential.saturable(1.0),
            Potential.polynomial([0.0, 0.0, 0.5, 0.1])]
    count = 0
    for n, m in rings:
        cfg = LatticeConfig(n, m)
        for pot in pots:
            for a in (0.0, 0.123, 0.3, 0.5, 1.0 / np.sqrt(2.0), 1.0):
                got = check_nonresonant(block_table(cfg, pot, a))
                want = loop_resonances(cfg, pot, a)
                assert got.one_to_one == want.one_to_one
                assert [vars(r) for r in got.records] == \
                    [vars(r) for r in want.records]
                assert all(type(r.delta) is float for r in got.records)
                count += len(want.records)
    assert count > 1000


def test_resonance_labels_follow_table_modes():
    # a permuted table gives the same records and 1:1 modes, labelled by
    # bd.k rather than by position; a = 0 has integer resonances, a = 0.5
    # the 1:1 collision phi_1 = 1 on n = 6
    rng = np.random.default_rng(11)
    records = one_to_one = 0
    for n, a in ((6, 0.0), (6, 0.5), (12, 0.0)):
        bd = block_table(LatticeConfig(n, 1), CUBIC, a)
        perm = rng.permutation(n - 1)
        shuffled = BlockData(*(getattr(bd, f.name)[perm] for f in fields(bd)))
        want = check_nonresonant(bd)
        got = check_nonresonant(shuffled)
        assert (sorted(tuple(vars(r).values()) for r in got.records)
                == sorted(tuple(vars(r).values()) for r in want.records))
        assert sorted(got.one_to_one) == want.one_to_one
        records += len(want.records)
        one_to_one += len(want.one_to_one)
    assert records > 10 and one_to_one > 0


def test_zero_coefficient_has_no_thresholds():
    # c = 0 or V'' = 0 makes phi_k vanish for every a, so phi_k = gamma_k = 0
    # on k = 2, 4 holds everywhere and has no smallest root
    for pot in (Potential.cubic(0.0), Potential.saturable(0.0),
                Potential.polynomial([0.0, 1.0])):
        ths = amplitude_thresholds(CFG, pot)
        assert len(ths) == 5
        for th in ths:
            assert th.a_hopf is None and th.a_gamma is None


def test_enumeration_fixture():
    points = enumerate_bifurcations(CFG, CUBIC, 0.2)
    table = {(p.k, p.sign): p for p in points}
    assert set(table) == {(1, 1), (1, -1), (2, 1), (2, -1), (3, 1)}
    assert table[(1, 1)].nu_onset == pytest.approx(1.958258, abs=1e-6)
    assert table[(1, -1)].nu_onset == pytest.approx(1.041742, abs=1e-6)
    assert table[(2, 1)].nu_onset == pytest.approx(2.959452, abs=1e-6)
    assert table[(2, -1)].nu_onset == pytest.approx(0.040548, abs=1e-6)
    assert table[(3, 1)].nu_onset == pytest.approx(1.959592, abs=1e-6)
    assert table[(1, 1)].regime == "b"
    assert table[(2, 1)].regime == "b"
    assert table[(3, 1)].regime == "a"
    assert all(p.nu_onset > 0 for p in points)
    assert not any(p.suppressed for p in points)


def test_enumeration_rejects_degenerate():
    with pytest.raises(DegenerateAmplitudeError):
        enumerate_bifurcations(CFG, CUBIC, 0.0)


RINGS = (st.integers(3, 12)
         .flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n // 2)))
         .filter(lambda nm: 4 * nm[1] != nm[0]))
POTENTIALS = [CUBIC, Potential.cubic(-1.0), Potential.saturable(1.0),
              Potential.polynomial([0.0, 0.0, 0.5, 0.1])]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ring=RINGS, pot=st.sampled_from(POTENTIALS),
       a=st.one_of(st.floats(0.0, 2.0),
                   st.sampled_from([0.0, 0.5, 1.0 / np.sqrt(2.0), 1.0])))
def test_onsets_are_positive_or_amplitude_degenerate(ring, pot, a):
    # nu^+ nu^- = beta^2 - alpha^2 (1 - phi) is the block determinant the
    # guard keeps away from zero, so every onset it lets through is positive
    try:
        points = enumerate_bifurcations(LatticeConfig(*ring), pot, a)
    except DegenerateAmplitudeError:
        event("degenerate")
        return
    event("onsets" if points else "no onsets")
    assert all(p.nu_onset > 0 and p.regime in ("a", "b") for p in points)


def test_case_labels_match_frequency_signs():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(0, n // 2 + 1))
        if 4 * m == n:
            continue
        cfg = LatticeConfig(n, m)
        pot = Potential.cubic(float(rng.choice([-1.0, 1.0])))
        a = float(rng.uniform(0.05, 0.8))
        for k in range(1, n):
            bd = block_data(cfg, pot, a, k)
            label = _regime(bd, n)
            if label == "a":
                assert bd.nu_minus.real <= 0
            elif label == "b":
                assert bd.nu_minus.real > 0


def test_large_wavenumber_all_case_a():
    # m = 3 on six sites: alpha_k < 0 so phi_k < 0 <= gamma_k everywhere
    cfg = LatticeConfig(6, 3)
    points = enumerate_bifurcations(cfg, CUBIC, 0.3)
    assert all(p.regime == "a" for p in points)
    assert {p.k for p in points} == {1, 2, 3, 4, 5}


def test_hopf_modes_contribute_nothing():
    # a = 0.6 puts phi_1 = 1.44 past the collision; k=1 must be absent
    points = enumerate_bifurcations(CFG, CUBIC, 0.6)
    assert not [p for p in points if p.k == 1]
    assert _regime(block_data(CFG, CUBIC, 0.6, 1), CFG.n) == "hopf"


def test_cubic_thresholds_closed_form():
    th = amplitude_thresholds(CFG, CUBIC)[0]
    assert th.a_hopf == pytest.approx(0.5, abs=1e-12)
    # bisection agrees with the closed form
    root = threshold_by_bisection(CFG, CUBIC, 1, 1.0)
    assert root == pytest.approx(0.5, abs=1e-10)
    # gamma_1 = -8 < 0 has no positive root for c > 0
    assert th.a_gamma is None


def test_defocusing_cubic_has_no_hopf():
    th = amplitude_thresholds(CFG, Potential.cubic(-1.0))[0]
    assert th.a_hopf is None


def test_saturable_no_root_case():
    # m=3: alpha_1 = -1, so the collision needs (a + 1/a)^2 = 2, impossible
    cfg = LatticeConfig(6, 3)
    th = amplitude_thresholds(cfg, Potential.saturable(1.0))[0]
    assert th.a_hopf is None


def test_saturable_root_matches_bisection():
    # pick a geometry where the saturable collision exists
    cfg = LatticeConfig(6, 3)
    pot = Potential.saturable(4.0)     # (a + 1/a)^2 = 8 has real roots
    th = amplitude_thresholds(cfg, pot)[0]
    assert th.a_hopf is not None
    root = threshold_by_bisection(cfg, pot, 1, 1.0)
    assert th.a_hopf == pytest.approx(root, abs=1e-10)
    # verify phi_1(a_hopf) = 1 directly
    assert block_data(cfg, pot, th.a_hopf, 1).phi == pytest.approx(1.0, abs=1e-10)


def test_polynomial_threshold_by_bisection():
    pot = Potential.polynomial([0.0, 0.5, 0.25])   # V = x^2/2 + x^3/4 roughly
    th = amplitude_thresholds(CFG, pot)[0]
    if th.a_hopf is not None:
        assert block_data(CFG, pot, th.a_hopf, 1).phi == pytest.approx(1.0, abs=1e-8)


def collision_quadratic(total, prod):
    """V(s) = v2 s^2 + v3 s^3 on n = 6, m = 1 with 2 s V''(s) - alpha_1 =
    12 v3 (s^2 - total s + prod): phi_1(a) = 1 where s = a^2 solves
    s^2 - total s + prod = 0."""
    alpha, _ = alpha_beta(CFG, 1)
    v3 = -alpha / (12.0 * prod)
    return Potential.polynomial([0.0, 0.0, -3.0 * v3 * total, v3])


def test_close_root_pair_is_found():
    # a = 0.5 and 0.5002 lie inside one step of the scan, whose sign test
    # sees no change; the companion roots are s = 0.25 and 0.5002^2
    s1, s2 = 0.25, 0.5002 ** 2
    pot = collision_quadratic(s1 + s2, s1 * s2)
    assert amplitude_thresholds(CFG, pot)[0].a_hopf == pytest.approx(0.5, rel=1e-14)
    assert threshold_by_bisection(CFG, pot, 1, 1.0) is None


def test_tangent_root_is_decided_by_imaginary_tolerance():
    # phi_1 touches 1 at a = 0.5: a double root splits by ~sqrt(eps) and is
    # kept; a complex pair s = 1/4 +/- i delta is kept below ROOT_IMAG_TOL
    # and dropped above it
    s0 = 0.25
    for delta, found in ((0.0, True), (0.1 * ROOT_IMAG_TOL * s0, True),
                         (100.0 * ROOT_IMAG_TOL * s0, False)):
        pot = collision_quadratic(2.0 * s0, s0 * s0 + delta * delta)
        a_hopf = amplitude_thresholds(CFG, pot)[0].a_hopf
        if found:
            assert a_hopf == pytest.approx(0.5, rel=1e-7), delta
        else:
            assert a_hopf is None and block_data(CFG, pot, 0.5, 1).phi < 1.0


# Subnormal coefficients are left out: the scan oracle's phi_k underflows to
# 0 on them, and it reports its first grid point as a root.
ORACLE_POTENTIALS = st.one_of(
    st.sampled_from([CUBIC, Potential.cubic(-1.0), Potential.saturable(1.0),
                     Potential.saturable(-1.0)]),
    st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=3, max_size=5)
    .filter(lambda c: any(c[2:])).map(Potential.polynomial))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ring=RINGS, pot=ORACLE_POTENTIALS, a=st.floats(0.0, 1.5))
def test_block_forms_match_brute_force_oracles(ring, pot, a):
    # the block verdict against the dense spectrum away from the collision;
    # every threshold solves phi_k = target to 1e-12 of the size of the terms
    # phi_k sums (phi_k of the potential with |coefficients|), and equals the
    # scan-plus-brentq root wherever the scan finds one above its first grid
    # point (a root below it is invisible to the scan)
    cfg = LatticeConfig(*ring)
    bd = block_table(cfg, pot, a)
    if np.abs(bd.phi - 1.0).min() >= 1e-6:
        assert (classify_stability(cfg, pot, a).empirical_stable
                == dense_verdict(cfg, pot, a)[1])
    absolute = Potential(pot.kind, tuple(np.abs(pot.params)))
    for k, gamma, th in zip(bd.k.tolist(), bd.gamma, amplitude_thresholds(cfg, pot)):
        for root, target in ((th.a_hopf, 1.0), (th.a_gamma, gamma)):
            scan = threshold_by_bisection(cfg, pot, k, target)
            if root is not None:
                event("root")
                size = max(1.0, abs(block_data(cfg, absolute, root, k).phi))
                assert abs(block_data(cfg, pot, root, k).phi - target) <= 1e-12 * size
            below_grid = root is not None and root < A_MAX / SCAN_SAMPLES
            if scan is not None and not below_grid:
                assert root == pytest.approx(scan, rel=1e-12)


def test_stability_flip_at_threshold():
    # classify_stability must flip exactly at the k=1 collision amplitude
    lo, hi = 0.1, 1.0
    assert classify_stability(CFG, CUBIC, lo).covered
    assert not classify_stability(CFG, CUBIC, hi).covered
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if classify_stability(CFG, CUBIC, mid).covered:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(0.5, abs=1e-6)
