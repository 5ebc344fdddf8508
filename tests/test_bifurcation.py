import numpy as np
import pytest

from dnls_ring import (DegenerateAmplitudeError, LatticeConfig, Potential,
                       amplitude_thresholds, check_nondegenerate,
                       check_nonresonant, classify_mode, classify_stability,
                       enumerate_bifurcations)
from dnls_ring.bifurcation import threshold_by_bisection
from helpers import loop_resonances


CFG = LatticeConfig(6, 1)
CUBIC = Potential.cubic(1.0)


def test_nondegenerate_fixture():
    rep = check_nondegenerate(CFG, CUBIC, 0.2)
    assert rep.nondegenerate
    assert rep.margins[1] == pytest.approx(8.16)
    assert rep.margins[2] == pytest.approx(0.16 / 3.0)
    assert rep.margins[3] == pytest.approx(0.96)


def test_zero_amplitude_is_degenerate():
    rep = check_nondegenerate(CFG, CUBIC, 0.0)
    assert not rep.nondegenerate
    assert any("2 a^2 V''" in f for f in rep.failures)


def test_overflowing_rank_one_block_is_degenerate():
    # a^2 overflows: the onset frequencies would be infinite
    rep = check_nondegenerate(CFG, CUBIC, 1e200)
    assert not rep.nondegenerate
    assert any("overflows" in f for f in rep.failures)


def test_k2_margin_stays_positive_on_sweep():
    # phi_2 > 0 = gamma_2 for every a > 0, so the k=2 margin never closes
    for a in np.linspace(0.05, 2.0, 40):
        rep = check_nondegenerate(CFG, CUBIC, float(a))
        assert rep.margins[2] > 1e-3


def test_degenerate_amplitude_detected():
    # a = 1 closes the k=3 margin exactly: phi_3 = a^2 meets gamma_3 = 1
    rep = check_nondegenerate(CFG, CUBIC, 1.0)
    assert not rep.nondegenerate
    assert any("phi_3" in f for f in rep.failures)


def test_zero_amplitude_resonances_flagged():
    # at a=0 the frequencies are beta_k +- alpha_k, integer-related for n=6
    rep = check_nonresonant(CFG, CUBIC, 0.0)
    assert rep.records
    hits = {(r.j, r.l) for r in rep.records}
    # nu_2^+ = 3 is exactly 3 * nu_1^- = 3 * 1
    assert any(r.k == 1 and r.ksign == -1 and r.j == 2 and r.l == 3
               for r in rep.records)
    assert hits


def test_generic_amplitude_is_nonresonant():
    rep = check_nonresonant(CFG, CUBIC, 0.2)
    assert not [r for r in rep.records if r.k == 3 and r.ksign == +1]
    assert not rep.one_to_one


def test_one_to_one_flag_at_hopf_amplitude():
    # phi_1(a) = 1 at a = sqrt(alpha_1 / 2c) = 0.5 for the focusing cubic
    rep = check_nonresonant(CFG, CUBIC, 0.5)
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
                got = check_nonresonant(cfg, pot, a)
                want = loop_resonances(cfg, pot, a)
                assert got.one_to_one == want.one_to_one
                assert [vars(r) for r in got.records] == \
                    [vars(r) for r in want.records]
                assert all(type(r.delta) is float for r in got.records)
                count += len(want.records)
    assert count > 1000


def test_zero_coefficient_has_no_thresholds():
    # c = 0 makes phi_k vanish for every a
    for pot in (Potential.cubic(0.0), Potential.saturable(0.0)):
        th = amplitude_thresholds(CFG, pot, 1)
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


def test_case_labels_match_frequency_signs():
    from dnls_ring import block_data
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
            label = classify_mode(cfg, pot, a, k)
            bd = block_data(cfg, pot, a, k)
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
    assert classify_mode(CFG, CUBIC, 0.6, 1) == "hopf"


def test_cubic_thresholds_closed_form():
    th = amplitude_thresholds(CFG, CUBIC, 1)
    assert th.a_hopf == pytest.approx(0.5, abs=1e-12)
    # bisection agrees with the closed form
    root = threshold_by_bisection(CFG, CUBIC, 1, 1.0)
    assert root == pytest.approx(0.5, abs=1e-10)
    # gamma_1 = -8 < 0 has no positive root for c > 0
    assert th.a_gamma is None


def test_defocusing_cubic_has_no_hopf():
    th = amplitude_thresholds(CFG, Potential.cubic(-1.0), 1)
    assert th.a_hopf is None


def test_saturable_no_root_case():
    # m=3: alpha_1 = -1, so the collision needs (a + 1/a)^2 = 2, impossible
    cfg = LatticeConfig(6, 3)
    th = amplitude_thresholds(cfg, Potential.saturable(1.0), 1)
    assert th.a_hopf is None


def test_saturable_root_matches_bisection():
    # pick a geometry where the saturable collision exists
    cfg = LatticeConfig(6, 3)
    pot = Potential.saturable(4.0)     # (a + 1/a)^2 = 8 has real roots
    th = amplitude_thresholds(cfg, pot, 1)
    assert th.a_hopf is not None
    root = threshold_by_bisection(cfg, pot, 1, 1.0)
    assert th.a_hopf == pytest.approx(root, abs=1e-10)
    # verify phi_1(a_hopf) = 1 directly
    from dnls_ring import block_data
    assert block_data(cfg, pot, th.a_hopf, 1).phi == pytest.approx(1.0, abs=1e-10)


def test_polynomial_threshold_by_bisection():
    pot = Potential.polynomial([0.0, 0.5, 0.25])   # V = x^2/2 + x^3/4 roughly
    th = amplitude_thresholds(CFG, pot, 1)
    if th.a_hopf is not None:
        from dnls_ring import block_data
        assert block_data(CFG, pot, th.a_hopf, 1).phi == pytest.approx(1.0, abs=1e-8)


def test_stability_flip_at_threshold():
    # classify_stability must flip exactly at the k=1 collision amplitude
    lo, hi = 0.1, 1.0
    assert classify_stability(CFG, CUBIC, lo).stable
    assert not classify_stability(CFG, CUBIC, hi).covered
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if classify_stability(CFG, CUBIC, mid).stable:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(0.5, abs=1e-6)
