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
from dnls_ring.continuation import (FIRST_STEP_EPS, KERNEL_RTOL, NEWTON_TOL,
                                    ReducedSystem, extrapolate_onset,
                                    grid_size)
from dnls_ring.spectral import block_data

from helpers import block_matrices, block_table, fd_jacobian
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
    tangent, nu = onset_kernel(CFG, CUBIC, SW, 3, +1, n_harmonics=8)
    sys_ = ReducedSystem(CFG, CUBIC, SW, 3, 8)
    tvec = tangent.as_vector()
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
    bd = block_data(CFG, CUBIC, SW.a, 3)
    nu_star = bd.nu_plus.real
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
    tangent, nu = onset_kernel(CFG, CUBIC, SW, 3, +1, n_harmonics=16)
    bd = block_data(CFG, CUBIC, SW.a, 3)
    assert nu == pytest.approx(bd.nu_plus.real, abs=1e-12)
    v = tangent.as_vector()
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
    with pytest.raises(ResonanceError, match="double eigenvalue"):
        onset_kernel(CFG, CUBIC, sw, 1, +1, n_harmonics=8)


def test_continue_refuses_suppressed_onset():
    fake = BifurcationPoint(k=1, sign=-1, nu_onset=1.0, regime="b",
                            suppressed=True)
    with pytest.raises(ResonanceError, match="suppressed"):
        continue_branch(CFG, CUBIC, SW, fake)


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
    tangent, _ = onset_kernel(CFG, CUBIC, SW, 3, +1, n_harmonics=8)
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


def test_case_b_mode_gives_two_distinct_branch_starts():
    onsets = enumerate_bifurcations(CFG, CUBIC, 0.2)
    plus = next(p for p in onsets if p.k == 1 and p.sign == +1)
    minus = next(p for p in onsets if p.k == 1 and p.sign == -1)
    t_p, nu_p = onset_kernel(CFG, CUBIC, SW, 1, +1, n_harmonics=8)
    t_m, nu_m = onset_kernel(CFG, CUBIC, SW, 1, -1, n_harmonics=8)
    assert nu_p == pytest.approx(plus.nu_onset, abs=1e-9)
    assert nu_m == pytest.approx(minus.nu_onset, abs=1e-9)
    assert abs(nu_p - nu_m) > 0.5


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
        tangent, nu = onset_kernel(cfg, pot, sw, on.k, on.sign, n_harmonics=16)
        dim_kernel, want = svd_kernel(cfg, pot, sw, on.k, nu, 16)
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
    a_res = brentq(lambda a: (block_data(cfg, pot, a, 2).nu_plus
                              - 2.0 * block_data(cfg, pot, a, 1).nu_minus).real,
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
                    records = {(r.k, r.ksign, r.l)
                               for r in check_nonresonant(
                                   block_table(cfg, pot, a)).records}
                    for k in range(1, n):
                        bd = block_data(cfg, pot, a, k)
                        for sign, nu in ((+1, bd.nu_plus), (-1, bd.nu_minus)):
                            if abs(nu.imag) > 0 or nu.real <= 0:
                                continue
                            for l in _singular_blocks(cfg, pot, sw, k, nu.real, 6):
                                assert (k, sign, l) in records
                                found.add((pot, n, m, a, k, sign, l))
    assert (Potential.cubic(1.0), 6, 1, a_res, 1, -1, 2) in found
    sw = make_standing_wave(LatticeConfig(6, 1), Potential.cubic(1.0), a_res)
    with pytest.raises(ResonanceError, match="kernel dimension 2"):
        onset_kernel(LatticeConfig(6, 1), Potential.cubic(1.0), sw, 1, -1, 8)


def test_gradient_formed_once_per_residual_on_acceptance_branch(monkeypatch):
    # counts completed calls: a residual refused at nu <= 0 forms nothing
    calls = {"residual": 0, "jacobian": 0, "gradient": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[name] += 1
            return out
        return wrapper

    for name in ("residual", "jacobian"):
        monkeypatch.setattr(ReducedSystem, name,
                            counted(name, getattr(ReducedSystem, name)))
    monkeypatch.setattr(ReducedSystem, "_gradient",
                        counted("gradient", ReducedSystem._gradient))
    onset = next(p for p in enumerate_bifurcations(CFG, CUBIC, 0.2)
                 if p.k == 3 and p.sign == +1)
    branch = continue_branch(CFG, CUBIC, SW, onset,
                             ContinuationOptions(n_harmonics=32, max_steps=20))
    assert len(branch.points) == 20
    assert calls["jacobian"] > 0
    assert calls["gradient"] == calls["residual"]
