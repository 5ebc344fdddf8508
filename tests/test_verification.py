import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dnls_ring import (ContinuationOptions, ConvergenceError, LatticeConfig,
                       Potential, Trajectory, closure_error, continue_branch,
                       embed_reduced, enumerate_bifurcations, hessian,
                       integrate, invariant_drift, make_standing_wave,
                       spatial_period_error, traveling_wave_error)

from helpers import (dense_midpoint, fold_to_band, reference_midpoint,
                     rotating_rhs, symplectic_matrix)


CFG = LatticeConfig(6, 1)
CUBIC = Potential.cubic(1.0)
SW = make_standing_wave(CFG, CUBIC, 0.2)


def branch_initial_state(point):
    loop = embed_reduced(point.profile, CFG)
    x0 = loop.sample(np.array([0.0]))[0].reshape(-1)
    return SW.equilibrium + x0


@pytest.fixture(scope="module")
def short_branch():
    on = next(p for p in enumerate_bifurcations(CFG, CUBIC, 0.2)
              if p.k == 3 and p.sign == +1)
    opts = ContinuationOptions(n_harmonics=16, max_steps=4)
    return continue_branch(CFG, CUBIC, SW, on, opts)


def test_equilibrium_stays_put():
    traj = integrate(CFG, CUBIC, SW.omega, SW.equilibrium, 1e-2, 1.0)
    drift = np.abs(traj.states - traj.states[0]).max()
    assert drift <= 1e-12
    dH, dP = invariant_drift(traj, CFG, CUBIC, SW.omega)
    assert dH <= 1e-12 and dP <= 1e-12


def test_integrator_is_second_order():
    rng = np.random.default_rng(0)
    u0 = SW.equilibrium + 0.05 * rng.standard_normal(12)
    T = 2.0
    ref = integrate(CFG, CUBIC, SW.omega, u0, 2.5e-4, T).states[-1]
    e1 = np.linalg.norm(integrate(CFG, CUBIC, SW.omega, u0, 4e-3, T).states[-1] - ref)
    e2 = np.linalg.norm(integrate(CFG, CUBIC, SW.omega, u0, 2e-3, T).states[-1] - ref)
    assert e1 / e2 == pytest.approx(4.0, rel=0.25)


def test_power_conserved_on_generic_trajectory():
    rng = np.random.default_rng(1)
    u0 = SW.equilibrium + 0.2 * rng.standard_normal(12)
    traj = integrate(CFG, CUBIC, SW.omega, u0, 1e-3, 3.0)
    dH, dP = invariant_drift(traj, CFG, CUBIC, SW.omega)
    assert dP <= 1e-10                     # quadratic invariant, exact for midpoint
    assert dH <= 1e-5                      # bounded energy wobble, O(dt^2)


def test_energy_drift_scales_quadratically():
    rng = np.random.default_rng(2)
    u0 = SW.equilibrium + 0.2 * rng.standard_normal(12)
    dH1, _ = invariant_drift(integrate(CFG, CUBIC, SW.omega, u0, 4e-3, 2.0),
                             CFG, CUBIC, SW.omega)
    dH2, _ = invariant_drift(integrate(CFG, CUBIC, SW.omega, u0, 2e-3, 2.0),
                             CFG, CUBIC, SW.omega)
    assert dH1 / dH2 == pytest.approx(4.0, rel=0.3)


def test_branch_point_closes_over_one_period(short_branch):
    point = short_branch.points[-1]
    T = 2 * np.pi / point.nu
    traj = integrate(CFG, CUBIC, SW.omega, branch_initial_state(point), 1e-3, T)
    assert closure_error(traj) <= 1e-6
    _, dP = invariant_drift(traj, CFG, CUBIC, SW.omega)
    assert dP <= 1e-10


def test_branch_point_travels(short_branch):
    point = short_branch.points[-1]
    T = 2 * np.pi / point.nu
    traj = integrate(CFG, CUBIC, SW.omega, branch_initial_state(point), 1e-3, T)
    assert traveling_wave_error(traj, SW, 3, point.nu) <= 1e-6
    # k = 3 on six sites: the norm pattern repeats every two sites
    assert spatial_period_error(traj, CFG, 3, point.nu) <= 1e-6


def test_random_perturbation_does_not_travel():
    # negative control: a state off the symmetry class has a visibly
    # nonzero traveling-wave defect
    rng = np.random.default_rng(3)
    u0 = SW.equilibrium + 0.05 * rng.standard_normal(12)
    nu = 1.9595917942265427
    T = 2 * np.pi / nu
    traj = integrate(CFG, CUBIC, SW.omega, u0, 1e-3, T)
    assert traveling_wave_error(traj, SW, 3, nu) > 1e-4


def test_traveling_wave_error_is_the_site_loop_maximum():
    # Off the symmetry class on five sites every site pair (j, j+1) differs,
    # so the error must be the largest per-pair defect, bit for bit.
    cfg, k, nu = LatticeConfig(5, 1), 2, 1.7
    sw = make_standing_wave(cfg, CUBIC, 0.3)
    u0 = sw.equilibrium + 0.1 * np.random.default_rng(4).standard_normal(10)
    traj = integrate(cfg, CUBIC, sw.omega, u0, 1e-2, 2 * np.pi / nu)
    npts = len(traj.times) - 1
    norms = np.sqrt((traj.states[:npts].reshape(npts, 5, 2) ** 2).sum(axis=-1))
    shift = np.exp(2j * np.pi * np.fft.fftfreq(npts, d=1.0 / npts) * k / 5)
    shifted = np.real(np.fft.ifft(np.fft.fft(norms, axis=0) * shift[:, None],
                                  axis=0))
    want = max(float(np.abs(norms[:, (j + 1) % 5] - shifted[:, j]).max())
               for j in range(5))
    assert traveling_wave_error(traj, sw, k, nu) == want
    assert want > 1e-3


def test_equilibrium_traveling_error_vanishes():
    nu = 2.0
    traj = integrate(CFG, CUBIC, SW.omega, SW.equilibrium, 1e-3, 2 * np.pi / nu)
    assert traveling_wave_error(traj, SW, 3, nu) <= 1e-12


def test_integrate_adjusts_dt_to_tile_interval():
    traj = integrate(CFG, CUBIC, SW.omega, SW.equilibrium, 0.3, 1.0)
    assert len(traj.times) == 4            # 3 steps of 1/3
    assert traj.dt == pytest.approx(1.0 / 3.0)
    assert traj.times[-1] == pytest.approx(1.0)


def ring48_orbit(points):
    """Start state, omega and period of the last point of an n=48, k=12
    branch with `points` points."""
    cfg = LatticeConfig(48, 1)
    sw = make_standing_wave(cfg, CUBIC, 0.2)
    on = next(p for p in enumerate_bifurcations(cfg, CUBIC, 0.2)
              if p.k == 12 and p.sign == +1)
    branch = continue_branch(cfg, CUBIC, sw, on,
                             ContinuationOptions(n_harmonics=6, max_steps=points))
    point = branch.points[-1]
    u0 = sw.equilibrium + embed_reduced(point.profile, cfg).sample(0.7)[0].ravel()
    return cfg, u0, sw.omega, 2 * np.pi / point.nu


def test_branch_orbits_take_one_newton_correction_per_step(short_branch):
    # The extrapolated predictor leaves one Newton correction to reach the
    # 1e-13 tolerance on every step of a branch orbit; the linearly
    # predicted second step may take two. A linear predictor throughout
    # takes two corrections per step on the n=48 orbit at dt=5e-3.
    point = short_branch.points[-1]
    traj = integrate(CFG, CUBIC, SW.omega, branch_initial_state(point), 1e-3,
                     2 * np.pi / point.nu)
    assert traj.newton_iterations == len(traj.times) - 1
    cfg, u0, omega, T = ring48_orbit(6)
    traj = integrate(cfg, CUBIC, omega, u0, 5e-3, T)
    assert len(traj.times) - 1 <= traj.newton_iterations <= len(traj.times)


def orbit_cases():
    rng = np.random.default_rng(5)
    generic = SW.equilibrium + 0.2 * rng.standard_normal(12)
    cfg5 = LatticeConfig(5, 1)
    sat = Potential.saturable(1.0)
    sw5 = make_standing_wave(cfg5, sat, 0.3)
    cases = {
        "generic": (CFG, CUBIC, SW.omega, generic, 1e-3, 1.0),
        "saturable_n5": (cfg5, sat, sw5.omega,
                         sw5.equilibrium + 0.1 * rng.standard_normal(10), 1e-3, 1.5),
    }
    cfg48, u48, omega48, T48 = ring48_orbit(3)
    cases["ring48"] = (cfg48, CUBIC, omega48, u48, 5e-3, 0.25 * T48)
    return cases


def test_integrate_matches_reference_stepper(short_branch):
    # Both steppers stop once a step's midpoint residual is at most 1e-13,
    # so they can drift apart by up to that much per step. At the step sizes
    # verification uses, one correction from either predictor lands far
    # below the tolerance and they agree to round-off.
    point = short_branch.points[-1]
    cases = dict(orbit_cases(), branch_n6=(CFG, CUBIC, SW.omega,
                                           branch_initial_state(point), 1e-3,
                                           2 * np.pi / point.nu))
    for name, (cfg, pot, omega, u0, dt, T) in cases.items():
        traj = integrate(cfg, pot, omega, u0, dt, T)
        ref = reference_midpoint(cfg.n, pot, omega, u0, dt, T)
        assert traj.states.shape == ref.shape, name
        assert np.abs(traj.states - ref).max() <= 1e-12, name


POTENTIALS = {"cubic": Potential.cubic(1.0),
              "defocusing": Potential.cubic(-1.0),
              "saturable": Potential.saturable(1.0),
              "quartic": Potential.polynomial([0.0, 0.5, -0.3, 0.2, 0.1])}


@pytest.mark.parametrize("n, m", [(3, 1), (4, 0), (5, 1), (6, 1), (7, 1), (12, 1),
                                  (48, 1), (96, 1), (6, 3)],
                         ids=["3", "4", "5", "6", "7", "12", "48", "96", "6-m3"])
@pytest.mark.parametrize("kind", sorted(POTENTIALS))
def test_integrate_equals_dense_stepper(n, m, kind):
    # The dense stepper folds the whole matrix it assembles into the same
    # band and solves it with the same dgbsv, so carrying the state in the
    # folded order, writing only the three on-site band rows and applying J
    # as a swap and a sign must give its states exactly, not to a tolerance.
    # 40 steps cover the Euler, linear and quadratic predictors. On odd n
    # the last folded site, (n - 1)/2, has no mirror partner; n = 4 needs
    # m = 0 (m = n/4 is excluded). n = 6, m = 3 is an m = n/2 ring: beta
    # vanishes and the equilibrium's imaginary parts are exact zeros.
    cfg, pot = LatticeConfig(n, m), POTENTIALS[kind]
    sw = make_standing_wave(cfg, pot, 0.3)
    u0 = sw.equilibrium + 0.1 * np.random.default_rng(n).standard_normal(2 * n)
    traj = integrate(cfg, pot, sw.omega, u0, 2e-3, 0.08)
    states, corrections = dense_midpoint(cfg, pot, sw.omega, u0, 2e-3, 0.08)
    assert len(traj.times) == 41
    assert np.array_equal(traj.states, states)
    assert traj.newton_iterations == corrections


@pytest.mark.parametrize("n", [3, 6, 48, 96])
@pytest.mark.parametrize("kind", sorted(POTENTIALS))
def test_two_correction_steps_equal_dense_stepper(n, kind):
    # At dt = 0.05 most steps need a second correction: the first block's
    # batched residual check fails, the step resumes from its corrected state
    # and later blocks check every correction. The states and the count must
    # still be the dense stepper's exactly.
    cfg, pot = LatticeConfig(n, 1), POTENTIALS[kind]
    sw = make_standing_wave(cfg, pot, 0.3)
    u0 = sw.equilibrium + 0.1 * np.random.default_rng(n).standard_normal(2 * n)
    traj = integrate(cfg, pot, sw.omega, u0, 0.05, 2.0)
    states, corrections = dense_midpoint(cfg, pot, sw.omega, u0, 0.05, 2.0)
    assert len(traj.times) == 41 and traj.newton_iterations > 40
    assert np.array_equal(traj.states, states)
    assert traj.newton_iterations == corrections


# dt at which each orbit mixes one- and two-correction steps, and some
# unchecked block fails its batch check at a row after the first; each
# mixing window is narrow, a few 1e-4 wide
MIXED_DT = {(6, "cubic"): 0.0123, (6, "defocusing"): 0.0113,
            (6, "quartic"): 0.0134, (6, "saturable"): 0.012,
            (48, "cubic"): 0.00885, (48, "defocusing"): 0.008,
            (48, "quartic"): 0.0099, (48, "saturable"): 0.00865}


@pytest.mark.parametrize("n, kind", sorted(MIXED_DT))
def test_mixed_correction_steps_equal_dense_stepper(n, kind):
    # A block whose vectorized batch check fails at a row after the first
    # keeps the rows before it; that row goes on from its corrected state
    # and the rows after it are redone. The states and the count must be
    # the dense stepper's exactly, and the orbit must take some steps with
    # one correction and some with two.
    cfg, pot, dt = LatticeConfig(n, 1), POTENTIALS[kind], MIXED_DT[n, kind]
    sw = make_standing_wave(cfg, pot, 0.3)
    u0 = sw.equilibrium + 0.1 * np.random.default_rng(n).standard_normal(2 * n)
    traj = integrate(cfg, pot, sw.omega, u0, dt, 200 * dt)
    states, corrections = dense_midpoint(cfg, pot, sw.omega, u0, dt, 200 * dt)
    assert len(traj.times) == 201 and 200 < traj.newton_iterations < 400
    assert traj.states.tobytes() == states.tobytes()
    assert traj.newton_iterations == corrections


def test_branch_orbit_equals_dense_stepper(short_branch):
    point = short_branch.points[-1]
    u0, T = branch_initial_state(point), 2 * np.pi / point.nu
    traj = integrate(CFG, CUBIC, SW.omega, u0, 1e-3, T)
    states, corrections = dense_midpoint(CFG, CUBIC, SW.omega, u0, 1e-3, T)
    assert np.array_equal(traj.states, states)
    assert traj.newton_iterations == corrections


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 48, 96])
@pytest.mark.parametrize("kind", sorted(POTENTIALS))
def test_newton_band_equals_folded_dense_matrix(n, kind, monkeypatch):
    # Every correction of one step hands dgbsv a band that, unpacked, is the
    # dense I + (dt/2) Jbig D^2H at that correction's midpoint with rows and
    # columns in the folded order, entry for entry, and the folded residual.
    import dnls_ring.verify as verify
    lapack = verify._lapack()             # the module integrate reads dgbsv from
    solve, seen = lapack.dgbsv, []

    def spy(kl, ku, ab, b):
        seen.append((kl, ku, ab.copy(), b.copy()))
        return solve(kl, ku, ab, b)

    monkeypatch.setattr(lapack, "dgbsv", spy)
    cfg, pot, dt = LatticeConfig(n, 0 if n == 4 else 1), POTENTIALS[kind], 0.05
    sw = make_standing_wave(cfg, pot, 0.3)
    u = sw.equilibrium + 0.1 * np.random.default_rng(n).standard_normal(2 * n)
    integrate(cfg, pot, sw.omega, u, dt, dt)
    v = u + dt * rotating_rhs(cfg, pot, sw.omega, u)
    I, Jbig = np.eye(2 * n), symplectic_matrix(n)
    i, j = np.indices((2 * n, 2 * n))
    inside = np.abs(i - j) <= 5
    assert len(seen) >= 2
    for kl, ku, ab, b in seen:
        mid = 0.5 * (u + v)
        dense = I + 0.5 * dt * (Jbig @ hessian(cfg, pot, sw.omega, mid))
        band, perm = fold_to_band(dense)
        unpacked = np.zeros((2 * n, 2 * n))
        unpacked[inside] = ab[10 + i[inside] - j[inside], j[inside]]
        assert (kl, ku, ab.shape) == (5, 5, (16, 2 * n))
        assert np.array_equal(unpacked, dense[np.ix_(perm, perm)])
        g = v - u - dt * rotating_rhs(cfg, pot, sw.omega, mid)
        assert np.array_equal(b, g[perm])
        dv = np.empty(2 * n)
        dv[perm] = solve(5, 5, band, b)[2]
        v = v - dv


def test_integrate_memory_is_linear_in_n():
    # The Newton matrix lives in band storage and each batched residual
    # check covers a bounded block of steps: 40 steps at the n = 512 cap,
    # states included, peak below 1 MiB, where one dense (2n)^2 matrix alone
    # is 8 MiB.
    import tracemalloc
    cfg = LatticeConfig(512, 1)
    sw = make_standing_wave(cfg, CUBIC, 0.3)
    u0 = sw.equilibrium + 0.1 * np.random.default_rng(0).standard_normal(1024)
    integrate(cfg, CUBIC, sw.omega, u0, 1e-3, 2e-3)   # imports scipy untraced
    tracemalloc.start()
    try:
        traj = integrate(cfg, CUBIC, sw.omega, u0, 1e-3, 4e-2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.times) == 41 and traj.newton_iterations >= 40
    assert peak < 2 ** 20


def test_correction_cap_raises(monkeypatch):
    # With the tolerance at 0 no residual passes: the one step takes exactly
    # MIDPOINT_MAX_ITER band solves, the first included, then gives up.
    import dnls_ring.verify as verify
    lapack = verify._lapack()             # the module integrate reads dgbsv from
    solve, calls = lapack.dgbsv, []

    def spy(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(lapack, "dgbsv", spy)
    monkeypatch.setattr(verify, "MIDPOINT_TOL", 0.0)
    u0 = SW.equilibrium + 0.1 * np.random.default_rng(1).standard_normal(12)
    with pytest.raises(ConvergenceError):
        integrate(CFG, CUBIC, SW.omega, u0, 0.01, 0.01)
    assert len(calls) == verify.MIDPOINT_MAX_ITER


# One fresh interpreter per LAPACK path, since in this process helpers has
# loaded scipy.linalg and integrate reuses its extension: "direct" loads
# scipy's _flapack from its file, "public" makes that load fail so integrate
# falls back to scipy.linalg.lapack. Each saves the states of an n = 6 branch
# orbit and an n = 48 orbit and prints its correction counts and path as JSON.
LAPACK_PATHS = """
import importlib.util, json, sys
import numpy as np
import dnls_ring.verify as verify
from dnls_ring import (ContinuationOptions, LatticeConfig, Potential,
                       continue_branch, embed_reduced, enumerate_bifurcations,
                       integrate, make_standing_wave)

def refuse(*args, **kwargs):
    raise ImportError("direct load refused")

path, out = sys.argv[1:]
if path == "public":
    importlib.util.spec_from_file_location = refuse
cfg, ring, pot = LatticeConfig(6, 1), LatticeConfig(48, 1), Potential.cubic(1.0)
sw, wave = make_standing_wave(cfg, pot, 0.2), make_standing_wave(ring, pot, 0.3)
onset = next(p for p in enumerate_bifurcations(cfg, pot, 0.2)
             if p.k == 3 and p.sign == 1)
point = continue_branch(cfg, pot, sw, onset, ContinuationOptions(16, 4)).points[-1]
u0 = sw.equilibrium + embed_reduced(point.profile, cfg).sample(0.0)[0].ravel()
kick = 0.1 * np.random.default_rng(48).standard_normal(96)
orbits = {"n6": integrate(cfg, pot, sw.omega, u0, 1e-3, 2 * np.pi / point.nu),
          "n48": integrate(ring, pot, wave.omega, wave.equilibrium + kick, 0.01, 2.0)}
seen = {"linalg": "scipy.linalg" in sys.modules}
for name, traj in orbits.items():
    np.save(f"{out}/{path}_{name}.npy", traj.states)
    seen[name] = traj.newton_iterations
lapack = verify._lapack()
import scipy.linalg.lapack
seen["module"] = lapack.__name__
seen["same_dgbsv"] = scipy.linalg.lapack.dgbsv is lapack.dgbsv
print(json.dumps(seen))
"""


def test_direct_and_public_lapack_loads_give_the_same_bits(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    seen = {}
    for path in ("direct", "public"):
        run = subprocess.run(
            [sys.executable, "-c", LAPACK_PATHS, path, str(tmp_path)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        seen[path] = json.loads(run.stdout.splitlines()[-1])
    # the direct load imports no scipy.linalg, and the package imported
    # after it hands out the very same dgbsv; the fallback is that package
    assert seen["direct"]["linalg"] is False and seen["public"]["linalg"] is True
    assert seen["direct"]["module"] == "scipy.linalg._flapack"
    assert seen["public"]["module"] == "scipy.linalg.lapack"
    assert seen["direct"]["same_dgbsv"] is True
    for name in ("n6", "n48"):
        direct, public = (np.load(tmp_path / f"{path}_{name}.npy")
                          for path in ("direct", "public"))
        assert direct.tobytes() == public.tobytes(), name
        assert seen["direct"][name] == seen["public"][name] > 0, name


def test_nonfinite_state_raises():
    # A NaN never passes the residual test, however the check is batched.
    u0 = SW.equilibrium.copy()
    u0[3] = np.nan
    with pytest.raises(ConvergenceError):
        integrate(CFG, CUBIC, SW.omega, u0, 1e-2, 1.0)
    with np.errstate(all="ignore"), pytest.raises(ConvergenceError):
        integrate(CFG, CUBIC, SW.omega, 1e200 * SW.equilibrium, 1e-2, 1.0)


def test_singular_newton_matrix_raises():
    # Uniform state (1, 0) on four sites, V(s) = s^2/4, omega = -9/2 and
    # dt = 1: the Euler-predicted midpoint is (1, 2) on every site. There
    # the k=1 Fourier block of D^2H has eigenvalues mu = omega - 2 + V'(5)
    # = -4 and mu + 2 V''(5) * 5 = 1, so the matching block of
    # I + (dt/2) J D^2H has determinant 1 + (1/4)(-4)(1) = 0. Every entry is
    # dyadic, so the LU meets an exact zero pivot.
    cfg = LatticeConfig(4, 0)
    pot = Potential.polynomial([0.0, 0.0, 0.25])
    with pytest.raises(np.linalg.LinAlgError):
        integrate(cfg, pot, -4.5, np.tile([1.0, 0.0], 4), 1.0, 1.0)


@pytest.mark.parametrize("dt, T", [(float("nan"), 1.0), (1e-2, float("nan")),
                                   (1e-2, float("inf")), (float("inf"), float("inf")),
                                   (0.0, 1.0), (-1.0, 1.0), (0.5, 0.25)])
def test_integrate_rejects_bad_step_or_horizon(dt, T):
    with pytest.raises(ValueError):
        integrate(CFG, CUBIC, SW.omega, SW.equilibrium, dt, T)


def test_spatial_period_rejects_nondivisor():
    traj = integrate(CFG, CUBIC, SW.omega, SW.equilibrium, 1e-2, 2 * np.pi / 2.0)
    with pytest.raises(ValueError):
        spatial_period_error(traj, LatticeConfig(6, 1), 4, 2.0)
