import numpy as np
import pytest

from dnls_ring import (LatticeConfig, Potential, ReducedProfile,
                       embed_reduced, make_standing_wave, project_reduced)
from dnls_ring.lattice import rot
from dnls_ring.symmetry import LatticeLoop

from oracles import GroupElement, act, random_loop


CFG = LatticeConfig(6, 1)


def test_identity_action():
    rng = np.random.default_rng(0)
    x = random_loop(6, 5, rng, 0.8)
    y = act(GroupElement(), x, CFG)
    assert np.abs(y.coeffs - x.coeffs).max() <= 1e-14


def test_reflection_is_involution():
    rng = np.random.default_rng(1)
    x = random_loop(6, 5, rng, 0.8)
    kappa = GroupElement(reflect=True)
    y = act(kappa, act(kappa, x, CFG), CFG)
    assert np.abs(y.coeffs - x.coeffs).max() <= 1e-14


def test_shift_n_times_is_identity():
    # n applications accumulate the rotation e^{-n m zeta J} = identity
    rng = np.random.default_rng(2)
    x = random_loop(6, 5, rng, 0.8)
    y = x
    for _ in range(CFG.n):
        y = act(GroupElement(shift=1), y, CFG)
    assert np.abs(y.coeffs - x.coeffs).max() <= 1e-13


def test_phase_shift_is_exact_on_coefficients():
    rng = np.random.default_rng(3)
    x = random_loop(6, 5, rng, 0.8)
    phi = 0.7713
    y = act(GroupElement(phase=phi), x, CFG)
    t = np.linspace(0, 2 * np.pi, 11, endpoint=False)
    assert np.abs(y.sample(t) - x.sample(t + phi)).max() <= 1e-12


def test_loop_sampling_round_trip():
    rng = np.random.default_rng(4)
    x = random_loop(6, 4, rng, 0.8)
    M = 4 * 4 + 1
    t = 2 * np.pi * np.arange(M) / M
    y = LatticeLoop.from_samples(x.sample(t), 4)
    assert np.abs(y.coeffs - x.coeffs).max() <= 1e-13


def test_loops_are_real_valued():
    # conjugate-symmetric coefficients give real samples at arbitrary times
    rng = np.random.default_rng(5)
    x = random_loop(6, 5, rng, 0.8)
    t = rng.uniform(0, 2 * np.pi, size=7)
    ls = np.arange(-x.nh, x.nh + 1)
    phases = np.exp(1j * np.outer(t, ls))
    vals = np.einsum("tl,nlc->tnc", phases, x.coeffs)
    assert np.abs(vals.imag).max() <= 1e-13


def test_embed_zero_profile():
    p = ReducedProfile(3, np.zeros(6), np.zeros(5))
    assert np.abs(embed_reduced(p, CFG).coeffs).max() == 0.0


def test_embed_project_round_trip():
    rng = np.random.default_rng(6)
    for k in [1, 2, 3, 5]:
        p = ReducedProfile(k, rng.standard_normal(7), rng.standard_normal(6))
        q = project_reduced(embed_reduced(p, CFG), k, CFG)
        assert np.abs(p.as_vector() - q.as_vector()).max() <= 1e-14


def test_embedded_loop_is_fixed():
    rng = np.random.default_rng(7)
    k = 3
    p = ReducedProfile(k, rng.standard_normal(7), rng.standard_normal(6))
    x = embed_reduced(p, CFG)
    g = GroupElement(shift=1, phase=-k * CFG.zeta)
    assert np.abs(act(g, x, CFG).coeffs - x.coeffs).max() <= 1e-13
    kappa = GroupElement(reflect=True)
    assert np.abs(act(kappa, x, CFG).coeffs - x.coeffs).max() <= 1e-13
    # embed is a right inverse of project on the fixed space
    y = embed_reduced(project_reduced(x, k, CFG), CFG)
    assert np.abs(y.coeffs - x.coeffs).max() <= 1e-14


def test_projection_is_group_average():
    # for a generic loop the projection equals the explicit orbit average
    # over the n shifts, symmetrized by the reflection, restricted to site 0
    rng = np.random.default_rng(8)
    kappa = GroupElement(reflect=True)
    for n in (3, 5, 6, 12):
        cfg = LatticeConfig(n, 1)
        for k in sorted({1, 2, n - 1}):
            x = random_loop(n, 5, rng, 0.8)
            avg = LatticeLoop(np.zeros_like(x.coeffs))
            for s in range(n):
                g = GroupElement(shift=s, phase=-s * k * cfg.zeta)
                avg.coeffs += act(g, x, cfg).coeffs / n
            sym = LatticeLoop(0.5 * (avg.coeffs + act(kappa, avg, cfg).coeffs))
            p = project_reduced(x, k, cfg)
            q = project_reduced(sym, k, cfg)
            assert np.abs(p.as_vector() - q.as_vector()).max() <= 1e-13
            # and the symmetrized loop is exactly the embedding of the projection
            assert np.abs(embed_reduced(p, cfg).coeffs - sym.coeffs).max() <= 1e-13


def test_embedding_matches_defining_formula():
    # u_j(t) = e^{j m zeta J} x_0(t + j k zeta), with x_0 summed directly
    # from the cos/sin series of the profile. The coefficients decay as a
    # branch profile's do (the site-0 residual oracle draws the same ones):
    # the oracle rounds phases l j k zeta of up to 380 rad, so unit
    # coefficients at l = 6 would move its samples by ~1e-13.
    rng = np.random.default_rng(9)
    t = rng.uniform(0, 2 * np.pi, size=5)
    for n in (3, 5, 6, 12):
        for m in range(n // 2 + 1):
            if 4 * m == n:
                continue
            cfg = LatticeConfig(n, m)
            for k in range(1, n):
                for nh in (1, 6):
                    decay = 0.3 * 0.5 ** np.arange(nh + 1)
                    p = ReducedProfile(k, decay * rng.standard_normal(nh + 1),
                                       decay[1:] * rng.standard_normal(nh))
                    got = embed_reduced(p, cfg).sample(t)      # (nt, n, 2)
                    for j in range(n):
                        lt = np.outer(t + j * k * cfg.zeta, np.arange(nh + 1))
                        x0 = np.stack([np.cos(lt) @ p.cos_a,
                                       np.sin(lt[:, 1:]) @ p.sin_b], axis=-1)
                        want = x0 @ rot(j * m * cfg.zeta).T
                        assert np.abs(got[:, j] - want).max() <= 1e-14


def test_embedding_reduces_time_shift_phases():
    # Unit-normal coefficients against the defining formula with x_0 summed
    # at t + ((j k) mod n) zeta. Unreduced phases l j k zeta reach ~1700 rad
    # at n = 48, nh = 6 and would cost ~1e-12; reduced ones stay below 12 pi.
    rng = np.random.default_rng(10)
    t = rng.uniform(0, 2 * np.pi, size=5)
    nh = 6
    ls = np.arange(nh + 1)
    for n in (12, 48):
        j = np.arange(n)
        for m in (0, 1, 5, n // 2):
            cfg = LatticeConfig(n, m)
            for k in range(1, n):
                p = ReducedProfile(k, rng.standard_normal(nh + 1),
                                   rng.standard_normal(nh))
                got = embed_reduced(p, cfg).sample(t)      # (nt, n, 2)
                lt = (t[:, None, None]
                      + ((j * k) % n)[None, :, None] * cfg.zeta) * ls
                x0 = np.stack([np.cos(lt) @ p.cos_a,
                               np.sin(lt[..., 1:]) @ p.sin_b], axis=-1)
                want = np.einsum("cdj,tjd->tjc",
                                 rot(((j * m) % n) * cfg.zeta), x0)
                assert np.abs(got - want).max() <= 1e-13, (n, m, k)
    # The rotation angle j m zeta is reduced the same way: the constant
    # profile a_0 = 1 lands on (cos, sin) of ((j m) mod n) zeta exactly,
    # where the unreduced angle, up to ~pi n rad, costs ~6e-14 at n = 96.
    for n in (12, 48, 96):
        j = np.arange(n)
        for m in range(n // 2 + 1):
            if 4 * m == n:
                continue
            cfg = LatticeConfig(n, m)
            p = ReducedProfile(1, np.eye(nh + 1)[0], np.zeros(nh))
            got = embed_reduced(p, cfg).sample(0.0)[0]
            angle = ((j * cfg.m) % n) * cfg.zeta
            want = np.stack([np.cos(angle), np.sin(angle)], axis=-1)
            assert np.abs(got - want).max() <= 1e-15, (n, m)


def test_embedded_first_harmonic_site_relation():
    # sites j and j+2 carry the same norm pattern shifted by 2 k zeta in time
    k = 3
    p = ReducedProfile(k, np.array([0.0, 0.4]), np.array([0.3]))
    x = embed_reduced(p, CFG)
    t = np.linspace(0, 2 * np.pi, 41, endpoint=False)
    vals = x.sample(t)                           # (nt, n, 2)
    norms = np.linalg.norm(vals, axis=-1)
    shifted = x.sample(t + 2 * k * CFG.zeta)
    norms_shifted = np.linalg.norm(shifted, axis=-1)
    assert np.abs(norms[:, 2] - norms_shifted[:, 0]).max() <= 1e-12


def test_equilibrium_isotropy():
    # the constant loop at the standing wave is fixed by the whole group
    pot = Potential.cubic(1.0)
    sw = make_standing_wave(CFG, pot, 0.2)
    x = LatticeLoop(np.zeros((CFG.n, 5, 2), dtype=complex))
    x.coeffs[:, 2, :] = sw.equilibrium.reshape(CFG.n, 2)
    for g in [GroupElement(shift=1), GroupElement(phase=1.3),
              GroupElement(reflect=True)]:
        y = act(g, x, CFG)
        assert np.abs(y.coeffs - x.coeffs).max() <= 1e-13


def test_profile_vector_layout():
    p = ReducedProfile.from_vector(2, np.arange(1.0, 8.0))
    assert p.cos_a.tolist() == [1, 2, 3, 4]
    assert p.sin_b.tolist() == [5, 6, 7]
    assert p.as_vector().tolist() == list(range(1, 8))
    padded = p.padded(5)
    assert padded.cos_a.tolist() == [1, 2, 3, 4, 0, 0]
    assert padded.sin_b.tolist() == [5, 6, 7, 0, 0]
