"""Shared brute-force oracles for the test suite: central finite differences,
direct summation and literal loops, kept deliberately independent of the
package internals they check."""

import numpy as np
from scipy.optimize import linear_sum_assignment

from dnls_ring import (ConvergenceError, ResonanceRecord, ResonanceReport,
                       alpha_beta, block_data, full_spectrum, hessian,
                       hessian_at_equilibrium, rotating_rhs)
from dnls_ring.bifurcation import L_MAX_CAP
from dnls_ring.lattice import rot
from dnls_ring.verify import MIDPOINT_MAX_ITER, MIDPOINT_TOL


def fd_gradient(f, x, h=1e-5):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def fd_jacobian(f, x, h=1e-5):
    """Central-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x))
    J = np.empty((len(f0), len(x)))
    for i in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        J[:, i] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h)
    return J


def direct_hamiltonian(n, pot, omega, u):
    """H by literal term-by-term summation over sites, no vectorization."""
    total = 0.0
    for j in range(n):
        uj = u[2 * j:2 * j + 2]
        up = u[2 * ((j + 1) % n):2 * ((j + 1) % n) + 2]
        s = uj @ uj
        diff = up - uj
        total += pot(s, 0) + omega * s - diff @ diff
    return 0.5 * total


def roll_gradient(n, pot, omega, u):
    """grad H with the neighbour sum formed by np.roll (any leading axes)."""
    x = np.asarray(u, dtype=float).reshape(np.shape(u)[:-1] + (n, 2))
    s = (x * x).sum(axis=-1)
    lap = np.roll(x, -1, axis=-2) + np.roll(x, 1, axis=-2) - 2.0 * x
    g = (omega + np.asarray(pot(s, 1)))[..., None] * x + lap
    return g.reshape(np.shape(u))


def loop_hessian(n, pot, omega, u):
    """D^2 H assembled block by block in a per-site loop."""
    x = np.asarray(u, dtype=float).reshape(n, 2)
    s = (x * x).sum(axis=-1)
    vp = np.asarray(pot(s, 1))
    vpp = np.asarray(pot(s, 2))
    I2 = np.eye(2)
    H = np.zeros((2 * n, 2 * n))
    for j in range(n):
        blk = (omega - 2.0 + vp[j]) * I2 + 2.0 * vpp[j] * np.outer(x[j], x[j])
        H[2 * j:2 * j + 2, 2 * j:2 * j + 2] = blk
        jp, jm = (j + 1) % n, (j - 1) % n
        H[2 * j:2 * j + 2, 2 * jp:2 * jp + 2] += I2
        H[2 * j:2 * j + 2, 2 * jm:2 * jm + 2] += I2
    return H


def average_clusters(eig: np.ndarray, tol: float) -> np.ndarray:
    """Replace each group of eigenvalues within tol of one another (union of
    overlapping pairs) by the group mean, keeping multiplicity. A cluster
    mean perturbs linearly, its members only as a root of the multiplicity,
    so this restores O(eps) accuracy to the defective gauge double zero that
    the dense eigensolver splits by ~sqrt(eps)."""
    nvals = len(eig)
    parent = list(range(nvals))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(nvals):
        for j in range(i + 1, nvals):
            if abs(eig[i] - eig[j]) < tol:
                parent[find(i)] = find(j)
    out = eig.copy()
    for root in set(find(i) for i in range(nvals)):
        members = [i for i in range(nvals) if find(i) == root]
        out[members] = eig[members].mean()
    return out


def block_basis(cfg, k, z):
    """T_k z: complex 2n-vector with site-j block n^{-1/2} e^{j(ikI+mJ)zeta} z."""
    n, m, zeta = cfg.n, cfg.m, cfg.zeta
    z = np.asarray(z, dtype=complex)
    out = np.empty((n, 2), dtype=complex)
    for j in range(n):
        out[j] = np.exp(1j * j * k * zeta) * (rot(j * m * zeta) @ z)
    return out.ravel() / np.sqrt(n)


def block_table(cfg, pot, a):
    """block_data of k = 1..n-1, the table the guards read."""
    return block_data(cfg, pot, a, np.arange(1, cfg.n))


def dense_verdict(cfg, pot, a) -> tuple:
    """(max |Re lambda|, stable) of the dense spectrum of J D^2H(a_m), the
    oracle of classify_stability. The solver splits the defective gauge zero
    by ~sqrt(eps) ||J D^2H||, and J only permutes and negates rows, so
    10 sqrt(eps) ||D^2H||_inf bounds the split."""
    max_re = float(np.abs(full_spectrum(cfg, pot, a).real).max())
    H = hessian_at_equilibrium(cfg, pot, a)
    split = 10.0 * np.sqrt(np.finfo(float).eps) * np.linalg.norm(H, np.inf)
    return max_re, max_re <= split


def block_matrices(cfg, pot, a, k):
    """(B_k, reduced_k) for one mode k in 1..n: the block of D^2H(a_m) on the
    k-th Fourier subspace, [[d - alpha, -i beta], [i beta, -alpha]], and the
    real form [[beta, -alpha], [d - alpha, beta]] of iJB_k on R x iR
    (conjugation by diag(1, i)), with d = 2a^2 V''(a^2)."""
    alpha, beta = alpha_beta(cfg, k)
    d = 2.0 * a * a * pot(a * a, 2)
    B = np.array([[d - alpha, -1j * beta], [1j * beta, -alpha]])
    return B, np.array([[beta, -alpha], [d - alpha, beta]])


def expected_spectrum(cfg, pot, a):
    """Closed-form multiset {i nu_k^+/-: k=1..n-1} plus the gauge double zero."""
    bd = block_table(cfg, pot, a)
    nus = np.stack([bd.nu_plus, bd.nu_minus], axis=-1).ravel()
    return np.concatenate([1j * nus, [0.0 + 0.0j, 0.0 + 0.0j]])


def matching_distance(a, b):
    """Max pair distance under the optimal matching of two equal-size
    complex multisets."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError("multisets must have equal size")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def symplectic_matrix(n):
    """Block diagonal diag(J, ..., J) of size 2n, J = [[0, -1], [1, 0]]."""
    return np.kron(np.eye(n), np.array([[0.0, -1.0], [1.0, 0.0]]))


def reference_midpoint(n, pot, omega, u0, dt, T, tol=1e-13, max_iter=50):
    """Implicit-midpoint states from u0 to T: every step predicted by Euler
    and corrected by dense Newton, with roll_gradient and loop_hessian.
    dt is adjusted to divide T evenly."""
    def rhs(u):                           # -J grad H
        g = roll_gradient(n, pot, omega, u).reshape(n, 2)
        return np.stack((g[:, 1], -g[:, 0]), axis=-1).ravel()

    Jbig = symplectic_matrix(n)
    nsteps = max(1, int(round(T / dt)))
    dt = T / nsteps
    states = [np.asarray(u0, dtype=float)]
    for _ in range(nsteps):
        u = states[-1]
        v = u + dt * rhs(u)
        for _ in range(max_iter):
            mid = 0.5 * (u + v)
            g = v - u - dt * rhs(mid)
            if np.linalg.norm(g) <= tol:
                break
            Jg = np.eye(2 * n) + 0.5 * dt * (Jbig @ loop_hessian(n, pot, omega, mid))
            v = v - np.linalg.solve(Jg, g)
        else:
            raise RuntimeError("reference midpoint solve did not converge")
        states.append(v)
    return np.array(states)


def dense_midpoint(cfg, pot, omega, u0, dt, T):
    """(states, corrections) of the implicit-midpoint stepper that builds the
    whole Newton matrix I + (dt/2) Jbig D^2H from `hessian` and a dense
    product with diag(J, ..., J) at every correction and solves it with
    np.linalg.solve. Same predictor, tolerance and cap as `integrate`, so the
    two agree bit for bit."""
    def step(u, v, dt, I, Jbig):
        for it in range(MIDPOINT_MAX_ITER):
            mid = 0.5 * (u + v)
            g = v - u - dt * rotating_rhs(cfg, pot, omega, mid)
            if np.linalg.norm(g) <= MIDPOINT_TOL:
                return v, it
            Jg = I + 0.5 * dt * (Jbig @ hessian(cfg, pot, omega, mid))
            v = v - np.linalg.solve(Jg, g)
        raise ConvergenceError("implicit midpoint solve did not converge")

    nsteps = max(1, int(round(T / dt)))
    dt_used = T / nsteps
    I, Jbig = np.eye(len(u0)), symplectic_matrix(cfg.n)
    states = np.empty((nsteps + 1, len(u0)))
    states[0] = np.asarray(u0, dtype=float)
    newton = 0
    for i in range(nsteps):
        u = states[i]
        if i == 0:
            v = u + dt_used * rotating_rhs(cfg, pot, omega, u)
        elif i == 1:
            v = 2.0 * u - states[0]
        else:
            v = 3.0 * (u - states[i - 1]) + states[i - 2]
        states[i + 1], its = step(u, v, dt_used, I, Jbig)
        newton += its
    return states, newton


def loop_resonances(cfg, pot, a, tol_res=1e-9):
    """Resonance scan nu_j = l nu_k by nested loops over (k, +/-, j, +/-, l)."""
    table = {}
    for k in range(1, cfg.n):
        bd = block_data(cfg, pot, a, k)
        table[k] = {+1: bd.nu_plus, -1: bd.nu_minus}
    positives = [abs(v.real) for k in table for v in table[k].values()
                 if abs(v.imag) <= tol_res and v.real > tol_res]
    all_abs = [abs(v) for k in table for v in table[k].values()]
    if positives:
        l_max = min(L_MAX_CAP, int(np.ceil(max(all_abs) / min(positives))))
    else:
        l_max = 1
    records = []
    for k in table:
        for ksign, nu in table[k].items():
            if abs(nu.imag) > tol_res or nu.real <= tol_res:
                continue
            for j in table:
                if j == k:
                    continue
                for jsign, nuj in table[j].items():
                    if abs(nuj.imag) > tol_res:
                        continue
                    for l in range(1, l_max + 1):
                        delta = abs(nuj.real - l * nu.real)
                        if delta < tol_res:
                            records.append(ResonanceRecord(k, ksign, j, jsign, l, delta))
    one_to_one = [k for k in table
                  if abs(table[k][+1] - table[k][-1]) < tol_res]
    return ResonanceReport(records=records, one_to_one=one_to_one)
