import io
import json
from contextlib import redirect_stderr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from dnls_ring import (ContinuationOptions, ConvergenceError, LatticeConfig,
                       Potential, ReducedProfile, ResonanceError,
                       check_nonresonant, continuation,
                       continue_branch, embed_reduced, enumerate_bifurcations,
                       make_standing_wave, onset_kernel, project_reduced,
                       refine_point)
from dnls_ring.bifurcation import BifurcationPoint
from dnls_ring.cli import main
from dnls_ring.continuation import (FIRST_STEP_EPS, KERNEL_RTOL, NEWTON_TOL,
                                    NU_MIN, ReducedSystem, _newton,
                                    extrapolate_onset, grid_size)
from dnls_ring.spectral import block_data

from helpers import block_matrices, fd_jacobian
from oracles import (GroupElement, act, dense_jacobian, dense_residual,
                     loop_vector_field, random_loop, svd_kernel)


CFG = LatticeConfig(6, 1)
CUBIC = Potential.cubic(1.0)
SW = make_standing_wave(CFG, CUBIC, 0.2)


def test_trivial_branch_residual():
    sys_ = ReducedSystem(CFG, CUBIC, SW, 3, 8)
    for nu in [0.5, 1.0, 1.9595917942265427, 3.7]:
        r = sys_.residual(np.zeros(sys_.dim), nu)
        assert np.abs(r).max() <= 1e-14


def test_residual_quadratic_along_kernel():
    sys_ = ReducedSystem(CFG, CUBIC, SW, 3, 8)
    nu = block_data(CFG, CUBIC, SW.a).nu_plus[2].real
    tvec = onset_kernel(sys_, nu).as_vector()
    norms = []
    for eps in [1e-4, 1e-5, 1e-6]:
        norms.append(np.linalg.norm(sys_.residual(eps * tvec, nu)))
    # each decade in eps should shave two decades off the residual
    assert norms[0] / norms[1] == pytest.approx(100.0, rel=0.05)
    assert norms[1] / norms[2] == pytest.approx(100.0, rel=0.05)


def _decaying_profile(rng, k, nh, scale):
    decay = scale * 0.5 ** np.arange(nh + 1)
    return ReducedProfile(k, decay * rng.standard_normal(nh + 1),
                          decay[1:] * rng.standard_normal(nh))


SITE0_TOLERANCES = [
    (Potential.cubic(1.0), 1e-13),
    (Potential.cubic(-1.0), 1e-13),
    (Potential.saturable(1.0), 1e-12),
    (Potential.polynomial([0.0, 0.5, -0.3, 0.1, 0.05]), 1e-12),
]


@pytest.mark.parametrize("pot, tol", SITE0_TOLERANCES)
def test_site0_residual_matches_full_ring_oracle(pot, tol):
    # the site-0 residual against embed -> full-ring field -> group average
    rng = np.random.default_rng(5)
    nh = 6
    for n in (3, 5, 6, 7, 24):
        for m in range(n // 2 + 1):
            if 4 * m == n:
                continue
            cfg = LatticeConfig(n, m)
            sw = make_standing_wave(cfg, pot, 0.3)
            for k in sorted({1, 2, n // 2, n - 1}):
                p = _decaying_profile(rng, k, nh, 0.3)
                nu = float(rng.uniform(0.5, 2.5))
                want = project_reduced(loop_vector_field(
                    embed_reduced(p, cfg), nu, cfg, pot, sw, out_nh=nh), k, cfg)
                got = ReducedSystem(cfg, pot, sw, k, nh).residual(p.as_vector(), nu)
                assert np.abs(got - want.as_vector()).max() <= tol


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_site0_residual_matches_full_ring_oracle_on_random_rings(data):
    # equivariance: the site-0 residual is the group average of the full-ring
    # field at the embedded loop, on any ring, mode and amplitude
    n = data.draw(st.integers(3, 12), label="n")
    m = data.draw(st.integers(0, n // 2).filter(lambda m: 4 * m != n), label="m")
    pot, tol = data.draw(st.sampled_from(SITE0_TOLERANCES), label="potential")
    a = data.draw(st.floats(0.0, 1.0), label="a")
    k = data.draw(st.integers(1, n - 1), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    nh = 6                # the cutoff the fixed rings above are held to
    cfg = LatticeConfig(n, m)
    sw = make_standing_wave(cfg, pot, a)
    p = _decaying_profile(rng, k, nh, 0.3)
    nu = float(rng.uniform(0.5, 2.5))
    want = project_reduced(loop_vector_field(
        embed_reduced(p, cfg), nu, cfg, pot, sw, out_nh=nh), k, cfg)
    got = ReducedSystem(cfg, pot, sw, k, nh).residual(p.as_vector(), nu)
    assert np.abs(got - want.as_vector()).max() <= tol


def test_origin_linearization_matches_fd():
    # every column of the exact Jacobian, the nu column included, at the
    # trivial branch and at random profiles
    rng = np.random.default_rng(9)
    nu = 1.7
    for pot in (CUBIC, Potential.saturable(1.0)):
        sys_ = ReducedSystem(CFG, pot, make_standing_wave(CFG, pot, 0.2), 3, 6)
        points = [np.zeros(sys_.dim)] + [
            _decaying_profile(rng, 3, 6, 0.2).as_vector() for _ in range(3)]
        for p in points:
            J_fd = fd_jacobian(lambda y: sys_.residual(y[:-1], y[-1]),
                               np.concatenate([p, [nu]]))
            J = sys_.jacobian(p, nu, sys_.residual(p, nu))
            assert np.abs(J - J_fd).max() <= 1e-9


def test_origin_jacobian_singular_exactly_at_onsets():
    # the determinant changes sign across each positive onset frequency
    # carried by a harmonic within the cutoff, and nowhere else nearby
    sys_ = ReducedSystem(CFG, CUBIC, SW, 3, 6)
    nu_star = block_data(CFG, CUBIC, SW.a).nu_plus[2].real
    def det(nu):
        p = np.zeros(sys_.dim)
        J = sys_.jacobian(p, nu, sys_.residual(p, nu))
        return np.linalg.det(J[:, :-1])
    assert det(nu_star - 1e-4) * det(nu_star + 1e-4) < 0
    assert det(nu_star + 1e-3) * det(nu_star + 1e-1) > 0


def test_origin_jacobian_matches_closed_form_blocks():
    # At p = 0 the Jacobian is block-diagonal: [[alpha - d, beta - l nu],
    # [beta - l nu, alpha]] / nu of mode l k on (a_l, b_l), d = 2 a^2 V''(a^2),
    # and -d / nu on a_0. alpha and beta are built here at ((l k) mod n) zeta;
    # the unreduced l k zeta reaches ~1600 rad at n = 96, nh = 256.
    a, nu = 0.3, 1.0
    d = 2.0 * a * a * CUBIC(a * a, 2)
    for n, m, k, nh in ((48, 1, 47, 256), (96, 7, 95, 256)):
        cfg = LatticeConfig(n, m)
        sw = make_standing_wave(cfg, CUBIC, a)
        sys_ = ReducedSystem(cfg, CUBIC, sw, k, nh)
        p = np.zeros(sys_.dim)
        got = sys_.jacobian(p, nu, sys_.residual(p, nu))[:, :-1]
        ls = np.arange(1, nh + 1)
        lkz = ((ls * k) % n) * cfg.zeta
        alpha = 4.0 * np.cos(m * cfg.zeta) * np.sin(lkz / 2.0) ** 2
        beta = 2.0 * np.sin(m * cfg.zeta) * np.sin(lkz)
        want = np.zeros_like(got)
        want[0, 0] = -d / nu
        want[ls, ls] = (alpha - d) / nu
        want[nh + ls, nh + ls] = alpha / nu
        want[ls, nh + ls] = want[nh + ls, ls] = (beta - ls * nu) / nu
        assert np.abs(got - want).max() <= 1e-13, (n, m, k)


def test_onset_kernel_matches_block_eigenvector():
    nu = block_data(CFG, CUBIC, SW.a).nu_plus[2].real
    v = onset_kernel(ReducedSystem(CFG, CUBIC, SW, 3, 16), nu).as_vector()
    # all weight in the first harmonic pair (a_1, b_1)
    mask = np.ones_like(v, dtype=bool)
    mask[1] = mask[17] = False
    assert np.abs(v[mask]).max() <= 1e-8
    # (a_1, b_1) is proportional to (r, -s) for the 2x2 eigenvector (r, s)
    w, vecs = np.linalg.eig(block_matrices(CFG, CUBIC, SW.a, 3)[1])
    i = int(np.argmin(np.abs(w - nu)))
    r, s = vecs[:, i].real
    pair = np.array([v[1], v[17]])
    ref = np.array([r, -s])
    ref = ref / np.linalg.norm(ref) * np.linalg.norm(pair)
    if pair @ ref < 0:
        ref = -ref
    assert np.abs(pair - ref).max() <= 1e-8


def test_onset_kernel_refuses_double_eigenvalue():
    sw = make_standing_wave(CFG, CUBIC, 0.5)     # phi_1 = 1 exactly
    nu = block_data(CFG, CUBIC, 0.5).nu_plus[0].real
    with pytest.raises(ResonanceError, match="double eigenvalue"):
        onset_kernel(ReducedSystem(CFG, CUBIC, sw, 1, 8), nu)


def test_onset_kernel_reads_each_block_against_its_own_terms(tmp_path):
    # n = 6, m = 1, saturable c = 5.77e207, a = 6.15e88, k = 3+: the a_0
    # entry |d / nu| is ~1e15 times every other block's scale, and the blocks
    # with lk = 0 (mod n) are regular (determinant -(l nu)^2) though their
    # small eigenvalues fall below 1e-8 |d / nu|. Only l = 1 is singular.
    cfg, pot, a = LatticeConfig(6, 1), Potential.saturable(5.77e207), 6.15e88
    onset = next(p for p in enumerate_bifurcations(cfg, pot, a)
                 if p.k == 3 and p.sign == +1)
    sys_ = ReducedSystem(cfg, pot, make_standing_wave(cfg, pot, a), 3, 32)
    tangent = onset_kernel(sys_, onset.nu_onset).as_vector()
    assert np.flatnonzero(tangent).tolist() == [1, 33]
    assert abs(np.linalg.norm(tangent) - 1.0) <= 1e-15
    # continuing still fails, now in Newton, not at the onset kernel
    config = tmp_path / "extreme.json"
    config.write_text(json.dumps({
        "lattice": {"n": 6, "m": 1}, "amplitude": a, "mode": 3, "sign": "+",
        "potential": {"kind": "saturable", "c": 5.77e207}}))
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(["continue", "--config", str(config), "--out", str(tmp_path)])
    assert code == 3
    assert err.getvalue().startswith("numerical failure in 'continue'")
    assert "kernel dimension" not in err.getvalue()


def test_continue_refuses_suppressed_onset():
    fake = BifurcationPoint(k=1, sign=-1, nu_onset=1.0, regime="b",
                            suppressed=True)
    with pytest.raises(ResonanceError, match="suppressed"):
        continue_branch(CFG, CUBIC, SW, fake)


def test_continue_refuses_onset_frequency_without_kernel():
    # nu comes from the onset record alone: off the onset there is no kernel,
    # and a nu that is not positive is refused before any block is formed
    nu = block_data(CFG, CUBIC, SW.a).nu_plus[2].real
    for bad, match in ((nu + 1e-3, "no kernel"), (0.0, "not positive"),
                       (-1.0, "not positive")):
        fake = BifurcationPoint(k=3, sign=+1, nu_onset=bad, regime="a")
        with pytest.raises(ConvergenceError, match=match):
            continue_branch(CFG, CUBIC, SW, fake,
                            ContinuationOptions(n_harmonics=8, max_steps=2))


def test_short_branch_and_onset_extrapolation():
    onsets = enumerate_bifurcations(CFG, CUBIC, 0.2)
    on = next(p for p in onsets if p.k == 3 and p.sign == +1)
    opts = ContinuationOptions(n_harmonics=8, max_steps=6)
    br = continue_branch(CFG, CUBIC, SW, on, opts)
    assert len(br.points) == 6
    assert all(p.residual_norm <= NEWTON_TOL for p in br.points)
    amps = [p.amplitude for p in br.points]
    assert all(a2 > a1 for a1, a2 in zip(amps, amps[1:]))
    assert br.points[0].amplitude <= 2 * FIRST_STEP_EPS
    assert extrapolate_onset(br) == pytest.approx(on.nu_onset, abs=1e-6)


def test_first_point_is_one_step_along_the_onset_kernel(monkeypatch):
    onset = next(p for p in enumerate_bifurcations(CFG, CUBIC, 0.2)
                 if p.k == 3 and p.sign == +1)
    opts = ContinuationOptions(n_harmonics=8, max_steps=2)
    tangent = onset_kernel(ReducedSystem(CFG, CUBIC, SW, 3, 8), onset.nu_onset)
    first = continue_branch(CFG, CUBIC, SW, onset, opts).points[0]
    assert abs(tangent.as_vector() @ first.profile.as_vector()
               - FIRST_STEP_EPS) <= NEWTON_TOL
    # a failed first step raises at once: no halving, no empty branch
    monkeypatch.setattr(continuation, "MAX_NEWTON_ITER", 0)
    with pytest.raises(ConvergenceError):
        continue_branch(CFG, CUBIC, SW, onset, opts)


def test_max_steps_one_gives_one_point():
    onset = next(p for p in enumerate_bifurcations(CFG, CUBIC, 0.2)
                 if p.k == 3 and p.sign == +1)
    br = continue_branch(CFG, CUBIC, SW, onset,
                         ContinuationOptions(n_harmonics=8, max_steps=1))
    assert len(br.points) == 1
    assert br.termination == "max_steps"
    # one point gives no quadratic fit: the onset estimate is its own nu
    assert extrapolate_onset(br) == br.points[0].nu


TERMINATIONS = [  # n = 6, m = 1, nh = 16: 98 and 83 points
    ("nu_bound", Potential.cubic(1.0), 0.5, 2, -1),
    ("amplitude_cap", Potential.cubic(-1.0), 0.3, 3, +1),
]


@pytest.mark.parametrize("termination, pot, a, k, sign", TERMINATIONS,
                         ids=[case[0] for case in TERMINATIONS])
def test_branch_stops_at_the_first_point_past_its_bound(termination, pot, a,
                                                         k, sign):
    # nu falls to NU_MIN, or the amplitude reaches 10 a, before max_steps
    sw = make_standing_wave(CFG, pot, a)
    onset = next(p for p in enumerate_bifurcations(CFG, pot, a)
                 if p.k == k and p.sign == sign)
    opts = ContinuationOptions(n_harmonics=16)
    br = continue_branch(CFG, pot, sw, onset, opts)
    assert br.termination == termination
    assert len(br.points) < opts.max_steps
    *before, last = br.points
    assert all(p.nu > NU_MIN and p.amplitude < 10 * a for p in before)
    assert (last.nu <= NU_MIN if termination == "nu_bound"
            else last.amplitude >= 10 * a)


def test_case_b_mode_gives_two_distinct_branch_starts():
    onsets = enumerate_bifurcations(CFG, CUBIC, 0.2)
    plus = next(p for p in onsets if p.k == 1 and p.sign == +1)
    minus = next(p for p in onsets if p.k == 1 and p.sign == -1)
    sys_ = ReducedSystem(CFG, CUBIC, SW, 1, 8)
    t_p = onset_kernel(sys_, plus.nu_onset).as_vector()
    t_m = onset_kernel(sys_, minus.nu_onset).as_vector()
    assert abs(plus.nu_onset - minus.nu_onset) > 0.5
    assert abs(t_p @ t_m) < 1.0 - 1e-3


@pytest.mark.parametrize("n, m, pot, a", [
    (6, 1, Potential.cubic(1.0), 0.2), (5, 1, Potential.saturable(1.0), 0.3),
    (8, 1, Potential.cubic(-1.0), 0.3),
    (7, 2, Potential.polynomial([0.0, 0.5, -0.3, 0.2, 0.1]), 0.3)])
def test_time_shift_by_pi_maps_one_side_of_the_onset_to_the_other(n, m, pot, a):
    # t -> t + pi multiplies a_l and b_l by S = (-1)^l: it commutes with the
    # reduced system and maps the l = 1 kernel tau to -tau, so the points
    # corrected from (0, nu_k) + eps tau and - eps tau share nu and are
    # S-images of each other, and nu(eps) is even
    cfg, nh, eps = LatticeConfig(n, m), 16, 0.05
    sw = make_standing_wave(cfg, pot, a)
    S = (-1.0) ** np.concatenate([np.arange(nh + 1), np.arange(1, nh + 1)])
    onsets = [p for p in enumerate_bifurcations(cfg, pot, a) if not p.suppressed]
    assert onsets
    for onset in onsets:
        sys_ = ReducedSystem(cfg, pot, sw, onset.k, nh)
        tau = np.append(onset_kernel(sys_, onset.nu_onset).as_vector(), 0.0)
        y0 = np.append(np.zeros(sys_.dim), onset.nu_onset)
        (yp, _), (ym, _) = (_newton(sys_, y0 + side * eps * tau, tau)
                            for side in (1.0, -1.0))
        assert abs(yp[-1] - ym[-1]) <= 1e-13, onset
        assert np.abs(S * yp[:-1] - ym[:-1]).max() <= 1e-13, onset


def test_refinement_is_spectrally_converged():
    onsets = enumerate_bifurcations(CFG, CUBIC, 0.2)
    on = next(p for p in onsets if p.k == 3 and p.sign == +1)
    opts = ContinuationOptions(n_harmonics=8, max_steps=5)
    br = continue_branch(CFG, CUBIC, SW, on, opts)
    point = br.points[-1]
    prof, rnorm = refine_point(CFG, CUBIC, SW, point, 16)
    diff = np.linalg.norm(prof.as_vector() - point.profile.padded(16).as_vector())
    assert diff <= 1e-8
    assert rnorm <= NEWTON_TOL


def test_vector_field_equivariance():
    rng = np.random.default_rng(42)
    nu = 1.25
    generators = [GroupElement(shift=1, phase=0.0),
                  GroupElement(shift=0, phase=1.234),
                  GroupElement(reflect=True)]
    for _ in range(20):
        x = random_loop(CFG.n, 8, rng, 0.3)
        fx = loop_vector_field(x, nu, CFG, CUBIC, SW)
        for g in generators:
            lhs = loop_vector_field(act(g, x, CFG), nu, CFG, CUBIC, SW)
            rhs = act(g, fx, CFG)
            assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-10


POTENTIALS = [Potential.cubic(1.0), Potential.cubic(-1.0),
              Potential.saturable(1.0),
              Potential.polynomial([0.0, 0.5, -0.3, 0.1, 0.05])]


def _fourier_error(cfg, pot, a, k, nh, seed):
    """Largest relative gap of the Fourier residual and Jacobian to the dense
    oracles at a random decaying profile and frequency."""
    rng = np.random.default_rng(seed)
    sys_ = ReducedSystem(cfg, pot, make_standing_wave(cfg, pot, a), k, nh)
    p = _decaying_profile(rng, k, nh, 0.3).as_vector()
    nu = float(rng.uniform(0.5, 2.5))
    r, r_dense = sys_.residual(p, nu), dense_residual(sys_, p, nu)
    J, J_dense = sys_.jacobian(p, nu, r), dense_jacobian(sys_, p, nu)
    return max(np.abs(r - r_dense).max() / np.abs(r_dense).max(),
               np.abs(J - J_dense).max() / np.abs(J_dense).max())


@pytest.mark.parametrize("pot", POTENTIALS)
def test_fourier_forms_match_dense_oracles(pot):
    for n in (3, 6, 24):
        for nh in (4, 16, 64):
            cfg = LatticeConfig(n, 1)
            for k in sorted({1, n // 2, n - 1}):
                assert _fourier_error(cfg, pot, 0.3, k, nh, seed=n + nh) <= 1e-13


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_fourier_forms_match_dense_oracles_on_random_rings(data):
    n = data.draw(st.integers(3, 12), label="n")
    m = data.draw(st.integers(0, n // 2).filter(lambda m: 4 * m != n), label="m")
    pot = data.draw(st.sampled_from(POTENTIALS), label="potential")
    a = data.draw(st.floats(0.0, 1.0), label="a")
    k = data.draw(st.integers(1, n - 1), label="k")
    nh = data.draw(st.integers(1, 24), label="nh")
    assert _fourier_error(LatticeConfig(n, m), pot, a, k, nh,
                          seed=data.draw(st.integers(0, 2 ** 32 - 1))) <= 1e-13


@pytest.mark.parametrize("nh", [6, 32, 64])
@pytest.mark.parametrize("pot", [Potential.cubic(1.0), Potential.saturable(1.0),
                                 Potential.polynomial([0.0, 0.5, -0.3, 0.1, 0.05])],
                         ids=lambda p: p.kind)
def test_bordered_newton_matrix_equals_stacked_jacobian(pot, nh, monkeypatch):
    # _newton writes the Jacobian rows into its bordered matrix in place; each
    # matrix it solves must be the public (dim, dim+1) Jacobian with the
    # hyperplane row stacked below it, bit for bit
    solve, seen = np.linalg.solve, []

    def spy(A, b):
        seen.append((A.copy(), b.copy()))
        return solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    rng = np.random.default_rng(nh)
    sw = make_standing_wave(CFG, pot, 0.3)
    sys_ = ReducedSystem(CFG, pot, sw, 1, nh)
    y0 = np.concatenate([_decaying_profile(rng, 1, nh, 0.05).as_vector(),
                         [float(rng.uniform(0.5, 2.5))]])
    row = 0.1 * rng.standard_normal(sys_.dim + 1)
    row[-1] += 1.0          # near nu = const, where p = 0 solves
    continuation._newton(sys_, y0, row)
    assert len(seen) >= 2
    y, fresh = y0, ReducedSystem(CFG, pot, sw, 1, nh)
    for A, b in seen:
        p, nu = y[:-1], y[-1]
        r = fresh.residual(p, nu)
        assert np.array_equal(b, -np.concatenate([r, [row @ (y - y0)]]))
        assert A.tobytes() == np.vstack([fresh.jacobian(p, nu, r), row]).tobytes()
        y = y + solve(A, b)


@pytest.mark.parametrize("flip_zero", [False, True], ids=["perturbed", "signed_zero"])
def test_site0_memo_follows_the_profile_bytes(flip_zero):
    # the Jacobian after a residual at another profile reads nothing of that
    # profile's memo: it equals a fresh system's Jacobian bit for bit, also
    # where the two profiles differ only in the sign of a zero entry
    rng = np.random.default_rng(7)
    p1 = _decaying_profile(rng, 3, 8, 0.05).as_vector()
    p1[4] = 0.0
    p2 = p1.copy()
    if flip_zero:
        p2[4] = -0.0
    else:       # the last entry, the highest sine harmonic, alone
        p2[-1] += 1e-9
    nu = 1.7
    r2 = ReducedSystem(CFG, CUBIC, SW, 3, 8).residual(p2, nu)
    sys_ = ReducedSystem(CFG, CUBIC, SW, 3, 8)
    sys_.residual(p1, nu)
    assert (sys_.jacobian(p2, nu, r2).tobytes()
            == ReducedSystem(CFG, CUBIC, SW, 3, 8).jacobian(p2, nu, r2).tobytes())


def test_grid_size_is_the_least_5_smooth_length():
    smooth = sorted(2 ** a * 3 ** b * 5 ** c for a in range(12)
                    for b in range(8) for c in range(6))
    for nh in range(1, 257):
        want = next(M for M in smooth if M >= 8 * nh + 1)
        assert grid_size(nh) == want
    assert [grid_size(nh) for nh in (32, 64, 256)] == [270, 540, 2160]
    assert ReducedSystem(CFG, CUBIC, SW, 3, 32).M == 270


def _unsuppressed_onsets():
    for pot, a in [(Potential.cubic(1.0), 0.2), (Potential.cubic(-1.0), 0.3),
                   (Potential.saturable(1.0), 0.3),
                   (Potential.saturable(-1.0), 0.3)]:
        for n in (5, 6):
            for m in range(n // 2 + 1):
                if 4 * m == n:
                    continue
                cfg = LatticeConfig(n, m)
                for on in enumerate_bifurcations(cfg, pot, a):
                    if not on.suppressed:
                        yield cfg, pot, make_standing_wave(cfg, pot, a), on


def test_closed_form_kernel_matches_svd_oracle():
    count = 0
    for cfg, pot, sw, on in _unsuppressed_onsets():
        sys_ = ReducedSystem(cfg, pot, sw, on.k, 16)
        tangent = onset_kernel(sys_, on.nu_onset)
        dim_kernel, want = svd_kernel(cfg, pot, sw, on.k, on.nu_onset, 16)
        assert dim_kernel == 1
        assert np.abs(tangent.as_vector() - want).max() <= 1e-12
        count += 1
    assert count >= 40


def _singular_blocks(cfg, pot, sw, k, nu, nh):
    """Harmonics l >= 2 whose 2x2 block of the Fourier Jacobian at p = 0 has
    an eigenvalue below KERNEL_RTOL times the Jacobian's norm."""
    sys_, p = ReducedSystem(cfg, pot, sw, k, nh), np.zeros(2 * nh + 1)
    A = sys_.jacobian(p, nu, sys_.residual(p, nu))[:, :-1]
    scale = KERNEL_RTOL * np.linalg.norm(A, 2)
    return {l for l in range(2, nh + 1)
            if np.abs(np.linalg.eigvalsh(A[np.ix_([l, nh + l], [l, nh + l])])
                      ).min() < scale}


def test_singular_higher_block_only_at_a_resonance_record():
    # at a_res, nu_2^+ = 2 nu_1^- on the cubic ring n = 6, m = 1, so the l = 2
    # block of mode k = 1 at nu_1^- is singular: a 1:2 resonance
    cfg, pot = LatticeConfig(6, 1), Potential.cubic(1.0)
    a_res = brentq(lambda a: (block_data(cfg, pot, a).nu_plus[1]
                              - 2.0 * block_data(cfg, pot, a).nu_minus[0]).real,
                   0.48, 0.49, xtol=1e-15)
    found = set()
    for pot in (Potential.cubic(1.0), Potential.cubic(-1.0),
                Potential.saturable(1.0), Potential.saturable(-1.0)):
        for n in (5, 6, 7, 8):
            for m in range(n // 2 + 1):
                if 4 * m == n:
                    continue
                cfg = LatticeConfig(n, m)
                for a in (0.2, 0.3, 0.45, a_res):
                    sw = make_standing_wave(cfg, pot, a)
                    bd = block_data(cfg, pot, a)
                    records = {(r.k, r.ksign, r.l)
                               for r in check_nonresonant(bd).records}
                    for k in range(1, n):
                        for sign, nu in ((+1, bd.nu_plus[k - 1]),
                                         (-1, bd.nu_minus[k - 1])):
                            if abs(nu.imag) > 0 or nu.real <= 0:
                                continue
                            for l in _singular_blocks(cfg, pot, sw, k, nu.real, 6):
                                assert (k, sign, l) in records
                                found.add((pot, n, m, a, k, sign, l))
    assert (Potential.cubic(1.0), 6, 1, a_res, 1, -1, 2) in found
    cfg, pot = LatticeConfig(6, 1), Potential.cubic(1.0)
    sw = make_standing_wave(cfg, pot, a_res)
    nu = block_data(cfg, pot, a_res).nu_minus[0].real
    with pytest.raises(ResonanceError, match="kernel dimension 2"):
        onset_kernel(ReducedSystem(cfg, pot, sw, 1, 8), nu)


def test_gradient_formed_once_per_residual_on_acceptance_branch(monkeypatch):
    # counts site-0 syntheses (np.fft.irfft) inside completed calls: one per
    # residual, and none per Jacobian, which reads the residual's grid from
    # the _site0 memo; a residual refused at nu <= 0 synthesises nothing
    calls = {"residual": 0, "jacobian": 0}
    syntheses = {"residual": 0, "jacobian": 0}
    irfft, count = np.fft.irfft, [0]

    def counted_irfft(*args, **kwargs):
        count[0] += 1
        return irfft(*args, **kwargs)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            before = count[0]
            out = fn(*args, **kwargs)
            calls[name] += 1
            syntheses[name] += count[0] - before
            return out
        return wrapper

    monkeypatch.setattr(np.fft, "irfft", counted_irfft)
    for name in ("residual", "jacobian"):
        monkeypatch.setattr(ReducedSystem, name,
                            counted(name, getattr(ReducedSystem, name)))
    onset = next(p for p in enumerate_bifurcations(CFG, CUBIC, 0.2)
                 if p.k == 3 and p.sign == +1)
    branch = continue_branch(CFG, CUBIC, SW, onset,
                             ContinuationOptions(n_harmonics=32, max_steps=20))
    assert len(branch.points) == 20
    assert calls["jacobian"] > 0
    assert syntheses == {"residual": calls["residual"], "jacobian": 0}


def _acceptance_onset():
    return next(p for p in enumerate_bifurcations(CFG, CUBIC, 0.2)
                if p.k == 3 and p.sign == +1)


def test_acceptance_round_stops_its_diverging_corrector_at_the_budget(monkeypatch):
    # the 11th corrector of the 20-point acceptance branch diverges until
    # nu <= 0 stops it; CORRECTOR_MAX_ITER stops it at 10 residuals and 9
    # Jacobians, none formed after the last residual, so the branch and the
    # nh = 64 refinement of its point 5 take 81 residuals and 59 Jacobians
    # (91 and 69 with 25 iterations)
    calls = {"residual": 0, "jacobian": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(ReducedSystem, name,
                            counted(name, getattr(ReducedSystem, name)))
    branch = continue_branch(CFG, CUBIC, SW, _acceptance_onset(),
                             ContinuationOptions(n_harmonics=32, max_steps=20))
    refine_point(CFG, CUBIC, SW, branch.points[5], 64)
    assert len(branch.points) == 20
    assert calls == {"residual": 81, "jacobian": 59}


@pytest.mark.parametrize("max_steps", [20, 40])
def test_corrector_budget_keeps_every_acceptance_point(max_steps, monkeypatch):
    # the budget changes no point of the acceptance branch or of README's
    # config (max_steps 40): every corrector there that converges needs at
    # most 10 iterations
    opts = ContinuationOptions(n_harmonics=32, max_steps=max_steps)

    def points():
        branch = continue_branch(CFG, CUBIC, SW, _acceptance_onset(), opts)
        return branch.termination, [
            (p.nu.hex(), p.residual_norm.hex(), p.profile.as_vector().tobytes())
            for p in branch.points]

    budgeted = points()
    monkeypatch.setattr(continuation, "CORRECTOR_MAX_ITER",
                        continuation.MAX_NEWTON_ITER)
    assert points() == budgeted
