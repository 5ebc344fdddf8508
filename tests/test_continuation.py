import numpy as np
import pytest

from dnls_ring import (ContinuationOptions, ConvergenceError, GroupElement,
                       LatticeConfig, Potential, ReducedProfile,
                       ResonanceError, act, continuation, continue_branch,
                       embed_reduced, enumerate_bifurcations,
                       make_standing_wave, onset_kernel, project_reduced,
                       refine_point)
from dnls_ring.bifurcation import BifurcationPoint
from dnls_ring.continuation import (FIRST_STEP_EPS, NEWTON_TOL, ReducedSystem,
                                    extrapolate_onset)
from dnls_ring.spectral import block_data
from dnls_ring.symmetry import LatticeLoop

from helpers import fd_jacobian
from oracles import loop_vector_field


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


@pytest.mark.parametrize("pot, tol", [
    (Potential.cubic(1.0), 1e-13),
    (Potential.cubic(-1.0), 1e-13),
    (Potential.saturable(1.0), 1e-12),
    (Potential.polynomial([0.0, 0.5, -0.3, 0.1, 0.05]), 1e-12),
])
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
            assert np.abs(sys_.jacobian(p, nu) - J_fd).max() <= 1e-9


def test_origin_jacobian_singular_exactly_at_onsets():
    # the determinant changes sign across each positive onset frequency
    # carried by a harmonic within the cutoff, and nowhere else nearby
    sys_ = ReducedSystem(CFG, CUBIC, SW, 3, 6)
    bd = block_data(CFG, CUBIC, SW.a, 3)
    nu_star = bd.nu_plus.real
    def det(nu):
        return np.linalg.det(sys_.jacobian(np.zeros(sys_.dim), nu)[:, :-1])
    assert det(nu_star - 1e-4) * det(nu_star + 1e-4) < 0
    assert det(nu_star + 1e-3) * det(nu_star + 1e-1) > 0


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
    w, vecs = np.linalg.eig(bd.reduced)
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
        x = LatticeLoop.random(CFG.n, 8, rng, 0.3)
        fx = loop_vector_field(x, nu, CFG, CUBIC, SW)
        for g in generators:
            lhs = loop_vector_field(act(g, x, CFG), nu, CFG, CUBIC, SW)
            rhs = act(g, fx, CFG)
            assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-10
