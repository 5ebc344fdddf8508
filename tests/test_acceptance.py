"""Acceptance gate: nine end-to-end criteria, one printed pass/fail line
each. Run with `pytest tests/test_acceptance.py -v -s` to see the lines."""

import json
import time

import numpy as np
import pytest

from dnls_ring import (ContinuationOptions, LatticeConfig, Potential,
                       ResonanceError, block_data,
                       check_nonresonant, classify_stability,
                       continue_branch, embed_reduced, enumerate_bifurcations,
                       full_spectrum, gradient, hamiltonian, integrate,
                       invariant_drift,
                       make_standing_wave, onset_kernel, refine_point,
                       spatial_period_error, traveling_wave_error,
                       closure_error)
from dnls_ring.continuation import ReducedSystem, extrapolate_onset
from dnls_ring.cli import main as cli_main

from helpers import (average_clusters, block_basis, block_matrices,
                     dense_spectrum, fd_gradient, fd_jacobian,
                     hessian_at_equilibrium, matching_distance)
from oracles import GroupElement, act, loop_vector_field, random_loop


def report(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


def grid_configurations():
    for n in (3, 5, 6, 7, 8):
        for m in range(0, n // 2 + 1):
            if 4 * m == n:
                continue
            cfg = LatticeConfig(n, m)
            for pot in (Potential.cubic(1.0), Potential.cubic(-1.0),
                        Potential.saturable(1.0)):
                for a in (0.0, 0.2, 0.6, 1.0):
                    yield cfg, pot, a


def test_criterion_1_spectrum_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for cfg, pot, a in grid_configurations():
        bd = block_data(cfg, pot, a)
        if (bd.phi > 1.0).any():
            continue
        got = average_clusters(dense_spectrum(cfg, pot, a), 1e-6)
        want = full_spectrum(bd)
        worst = max(worst, matching_distance(got, want))
        count += 1
    elapsed = time.perf_counter() - t0
    report("criterion 1: spectrum oracle equivalence",
           worst <= 1e-8 and elapsed < 5.0,
           f"{count} configurations, worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_block_diagonalization():
    rng = np.random.default_rng(0)
    worst = 0.0
    for cfg, pot, a in grid_configurations():
        H = hessian_at_equilibrium(cfg, pot, a)
        for k in range(1, cfg.n + 1):
            B, _ = block_matrices(cfg, pot, a, k)
            for _ in range(10):
                z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                err = np.abs(H @ block_basis(cfg, k, z)
                             - block_basis(cfg, k, B @ z)).max()
                worst = max(worst, err)
    report("criterion 2: block diagonalization", worst <= 1e-10,
           f"worst {worst:.2e}")


def test_criterion_3_equivariance():
    rng = np.random.default_rng(1)
    cfg = LatticeConfig(6, 1)
    pot = Potential.cubic(1.0)
    sw = make_standing_wave(cfg, pot, 0.2)
    generators = [GroupElement(shift=1),
                  GroupElement(phase=0.8312),
                  GroupElement(reflect=True)]
    nu = 1.4
    worst = 0.0
    for _ in range(20):
        x = random_loop(cfg.n, 8, rng, 0.3)
        fx = loop_vector_field(x, nu, cfg, pot, sw)
        for g in generators:
            lhs = loop_vector_field(act(g, x, cfg), nu, cfg, pot, sw)
            rhs = act(g, fx, cfg)
            worst = max(worst, float(np.abs(lhs.coeffs - rhs.coeffs).max()))
    report("criterion 3: vector-field equivariance", worst <= 1e-10,
           f"20 loops, worst {worst:.2e}")


def test_criterion_4_stability_threshold():
    cfg = LatticeConfig(6, 1)
    focusing = Potential.cubic(1.0)
    lo, hi = 0.1, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if classify_stability(cfg, focusing, mid).covered:
            lo = mid
        else:
            hi = mid
    flip = 0.5 * (lo + hi)
    closed_form = 0.5                      # sqrt(alpha_1 / 2c)
    ok = abs(flip - closed_form) <= 1e-6

    defocusing_ok = all(
        classify_stability(cfg, Potential.cubic(-1.0), a).covered
        for a in np.linspace(0.05, 2.0, 20))
    cfg3 = LatticeConfig(6, 3)
    focusing_m3_ok = all(classify_stability(cfg3, focusing, a).covered
                         for a in np.linspace(0.05, 2.0, 20))
    report("criterion 4: stability threshold",
           ok and defocusing_ok and focusing_m3_ok,
           f"flip at {flip:.8f}, defocusing m=1 and focusing m=3 stable")


def test_criterion_5_bifurcation_enumeration_fixture():
    cfg = LatticeConfig(6, 1)
    pot = Potential.cubic(1.0)
    points = enumerate_bifurcations(cfg, pot, 0.2)
    table = {(p.k, p.sign): p for p in points}
    expected = {(1, 1): 1.958258, (1, -1): 1.041742,
                (2, 1): 2.959452, (2, -1): 0.040548,
                (3, 1): 1.959592}
    ok = set(table) == set(expected)
    worst = 0.0
    if ok:
        worst = max(abs(table[key].nu_onset - val)
                    for key, val in expected.items())
        ok = worst <= 1e-6
        ok = ok and table[(1, 1)].regime == "b" \
            and table[(2, 1)].regime == "b" and table[(3, 1)].regime == "a"
    report("criterion 5: bifurcation enumeration fixture", ok,
           f"5 onsets, worst deviation {worst:.2e}, labels b/b/a")


@pytest.fixture(scope="module")
def acceptance_branch():
    cfg = LatticeConfig(6, 1)
    pot = Potential.cubic(1.0)
    sw = make_standing_wave(cfg, pot, 0.2)
    onset = next(p for p in enumerate_bifurcations(cfg, pot, 0.2)
                 if p.k == 3 and p.sign == +1)
    opts = ContinuationOptions(n_harmonics=32, max_steps=20)
    t0 = time.perf_counter()
    branch = continue_branch(cfg, pot, sw, onset, opts)
    elapsed = time.perf_counter() - t0
    return cfg, pot, sw, onset, opts, branch, elapsed


def test_criterion_6_branch_continuation(acceptance_branch):
    cfg, pot, sw, onset, opts, branch, elapsed = acceptance_branch
    npoints = len(branch.points)
    max_res = max(p.residual_norm for p in branch.points)
    onset_err = abs(extrapolate_onset(branch) - 1.959592)
    mid = branch.points[npoints // 2]
    prof64, _ = refine_point(cfg, pot, sw, mid, 64)
    change = float(np.linalg.norm(prof64.as_vector()
                                  - mid.profile.padded(64).as_vector()))
    ok = (npoints >= 20 and max_res <= 1e-10 and onset_err <= 1e-6
          and change <= 1e-8 and elapsed < 30.0)
    report("criterion 6: branch continuation", ok,
           f"{npoints} points, max residual {max_res:.2e}, onset error "
           f"{onset_err:.2e}, refinement change {change:.2e}, {elapsed:.1f}s")


def test_criterion_7_independent_verification(acceptance_branch):
    cfg, pot, sw, onset, opts, branch, _ = acceptance_branch
    worst_closure = worst_dp = worst_tw = worst_sp = 0.0
    for point in branch.points[:5]:
        loop = embed_reduced(point.profile, cfg)
        u0 = sw.equilibrium + loop.sample(0.0)[0].ravel()
        T = 2.0 * np.pi / point.nu
        traj = integrate(cfg, pot, sw.omega, u0, 1e-3, T)
        _, dP = invariant_drift(traj, cfg, pot, sw.omega)
        worst_closure = max(worst_closure, closure_error(traj))
        worst_dp = max(worst_dp, dP)
        worst_tw = max(worst_tw, traveling_wave_error(traj, sw, 3, point.nu))
        worst_sp = max(worst_sp, spatial_period_error(traj, cfg, 3, point.nu))
    ok = (worst_closure <= 1e-6 and worst_dp <= 1e-10
          and worst_tw <= 1e-6 and worst_sp <= 1e-6)
    report("criterion 7: independent verification", ok,
           f"closure {worst_closure:.2e}, dP {worst_dp:.2e}, traveling "
           f"{worst_tw:.2e}, spatial period (2 sites) {worst_sp:.2e}")


def test_criterion_8_guards(tmp_path):
    cfg = LatticeConfig(6, 1)
    pot = Potential.cubic(1.0)
    # a = 0: exact integer resonances must be flagged
    rep0 = check_nonresonant(block_data(cfg, pot, 0.0))
    resonances_flagged = bool(rep0.records)
    # phi_1 = 1 at a = 0.5: 1:1 flag plus kernel refusal
    rep_hopf = check_nonresonant(block_data(cfg, pot, 0.5))
    one_to_one = 1 in rep_hopf.one_to_one
    sw = make_standing_wave(cfg, pot, 0.5)
    refused = False
    try:
        onset_kernel(ReducedSystem(cfg, pot, sw, 1, 8),
                     block_data(cfg, pot, 0.5).nu_plus[0].real)
    except ResonanceError as exc:
        refused = "double eigenvalue" in str(exc)
    # 4m = n rejected at config parse time with exit code 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lattice": {"n": 8, "m": 2},
                               "potential": {"kind": "cubic", "c": 1.0},
                               "amplitude": 0.2}))
    code = cli_main(["spectrum", "--config", str(bad), "--out", str(tmp_path)])
    ok = resonances_flagged and one_to_one and refused and code == 2
    report("criterion 8: resonance and degeneracy guards", ok,
           f"a=0 flagged={resonances_flagged}, 1:1={one_to_one}, "
           f"kernel refusal={refused}, exit code {code}")


def test_criterion_9_calculus_self_consistency():
    rng = np.random.default_rng(2)
    worst_grad = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(0, n // 2 + 1))
        if 4 * m == n:
            m = 0
        cfg = LatticeConfig(n, m)
        pot = Potential.cubic(float(rng.uniform(0.5, 2.0))
                              * float(rng.choice([-1.0, 1.0])))
        omega = float(rng.uniform(-1.0, 1.0))
        u = rng.standard_normal(2 * n)
        g = gradient(cfg, pot, omega, u)
        g_fd = fd_gradient(lambda v: hamiltonian(cfg, pot, omega, v), u)
        worst_grad = max(worst_grad, float(np.abs(g - g_fd).max()))
    cfg = LatticeConfig(6, 1)
    pot = Potential.cubic(1.0)
    sw = make_standing_wave(cfg, pot, 0.2)
    H = hessian_at_equilibrium(cfg, pot, 0.2)
    H_fd = fd_jacobian(lambda v: gradient(cfg, pot, sw.omega, v),
                       sw.equilibrium)
    worst_hess = float(np.abs(H - H_fd).max())
    ok = worst_grad <= 1e-6 and worst_hess <= 1e-6
    report("criterion 9: calculus self-consistency", ok,
           f"100 states, gradient {worst_grad:.2e}, hessian {worst_hess:.2e}")
