"""Shared brute-force oracles for the test suite: central finite differences
and direct summation, kept deliberately independent of the package internals."""

import numpy as np


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


def reference_midpoint(n, pot, omega, u0, dt, T, tol=1e-13, max_iter=50):
    """Implicit-midpoint states from u0 to T: every step predicted by Euler
    and corrected by dense Newton, with roll_gradient and loop_hessian.
    dt is adjusted to divide T evenly."""
    def rhs(u):                           # -J grad H
        g = roll_gradient(n, pot, omega, u).reshape(n, 2)
        return np.stack((g[:, 1], -g[:, 0]), axis=-1).ravel()

    Jbig = np.kron(np.eye(n), np.array([[0.0, -1.0], [1.0, 0.0]]))
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
