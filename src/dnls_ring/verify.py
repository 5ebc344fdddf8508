"""Independent verification of continued solutions by direct time
integration: implicit midpoint (symplectic, conserves the power P exactly up
to solver tolerance), periodicity closure and the traveling-wave norm
relation."""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np

from .errors import ConvergenceError
from .lattice import J_SIGNS, LatticeConfig, Potential, StandingWave, hamiltonian

MIDPOINT_TOL = 1e-13     # residual norm each midpoint Newton solve meets
MIDPOINT_MAX_ITER = 50


@functools.cache
def _lapack():
    """scipy's compiled LAPACK extension, loaded from its file without the
    scipy.linalg package and kept; if that load fails, scipy.linalg.lapack."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    try:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        path = next(p for p in (os.path.join(root, "linalg", "_flapack" + x)
                                for x in EXTENSION_SUFFIXES) if os.path.isfile(p))
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    except Exception:
        from scipy.linalg import lapack
        return lapack


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray          # (nt, 2n)
    dt: float
    newton_iterations: int = 0  # Newton corrections summed over all steps


def integrate(cfg: LatticeConfig, pot: Potential, omega: float,
              u0: np.ndarray, dt: float, T: float) -> Trajectory:
    """Implicit-midpoint trajectory of J udot = grad H(u) from u0 to time T,
    with dt adjusted to the nearest value dividing T evenly; each step is
    corrected by Newton until its residual norm is at most MIDPOINT_TOL."""
    if not 0 < dt <= T < np.inf:
        raise ValueError("need finite dt > 0 and T >= dt")
    dgbsv = _lapack().dgbsv
    n, nsteps = cfg.n, max(1, int(round(T / dt)))
    dt_used, cap = T / nsteps, max(1, 1024 // n)
    h, j, k = 0.5 * dt_used, np.arange(n), np.arange(2 * n)
    order = np.where(j % 2, n - 1 - j // 2, j // 2)   # site at each position
    rows = 2 * np.argsort(order)[:, None] + np.arange(2)   # rows of each site
    unfold = rows.ravel()                 # folded index of each natural one
    fold = np.argsort(unfold)             # natural index of each folded one
    swap = k ^ 1                          # the other entry of the same site
    # neighbours u_{j+1}, u_{j-1} of the swapped entry, and dt (-J), (dt/2) J
    # and -(dt/2) J as signs on swapped entries: J (p, q) = J_SIGNS * (q, p)
    up, down = (rows[(order + d) % n].ravel()[swap] for d in (1, -1))
    dt_mj, h_j, h_mj = (np.tile(c * J_SIGNS, n) for c in (-dt_used, h, -h))
    wide = [(a + 2 * n * np.arange(cap)[:, None]).ravel()  # these four for
            for a in (swap, up, down)] + [np.tile(dt_mj, cap)]  # cap states in a row
    band = np.zeros((16, 2 * n), order="F")   # LAPACK band storage, kl = ku = 5
    for c in up, down:      # A[r, c] is band[10 + r - c, c]; blocks (dt/2) J
        band[10 + k - c, c] = h_j
    diag, flat = band[10], band.T.ravel()     # flat: a view of band
    offdiag = 16 * k + np.where(k % 2, 9, 11)  # superdiagonal odd, sub even

    V1, V2 = pot.derivs[1:]               # bound once: no dispatch per step
    half, one, two, three, om, om2 = (np.array(c, dtype=float) for c in (
        0.5, 1.0, 2.0, 3.0, omega, omega - 2.0))    # strong operands

    def residual(u, v):     # g(v) = v - u - dt f((u+v)/2), steps laid end to end
        swaps, ups, downs, dt_mjs = (a[:len(u)] for a in wide)
        mid = half * (u + v)
        ms = mid[swaps]
        return v - u - ((om + V1(mid * mid + ms * ms)) * ms
                        + (mid[ups] + mid[downs] - two * ms)) * dt_mjs

    states = np.empty((nsteps + 1, 2 * n))
    states[0] = np.asarray(u0, dtype=float)
    x = np.empty((cap + 3, 2 * n))        # prev2, prev, u, then a block's steps
    x[2], i, size, checked, corrections = states[0][fold], 0, 1, False, 0
    euler = x[2] - residual(x[2], x[2])   # u + dt f(u)
    resume = None           # (iterate, corrections) of a step a batch check failed
    while i < nsteps:
        m, (prev2, prev, u) = min(size, nsteps - i), x[:3]
        its = [0] * m                     # corrections of each step
        for r in range(m):  # predictor: Euler, linear, then quadratic, O(dt^3)
            if r == 0 and resume is not None:   # goes on from its iterate
                (v, its[0]), resume = resume, None
            else:
                v = (euler if i + r == 0 else two * u - prev if i + r == 1
                     else three * (u - prev) + prev2)
            while True:     # Newton on g(v) = v - u - dt f((u+v)/2)
                mid = half * (u + v)
                ms, xx = mid[swap], mid * mid
                s = xx + ms * ms          # |u_j|^2 on both entries of site j
                vp = V1(s)
                g = v - u - ((om + vp) * ms
                             + (mid[up] + mid[down] - two * ms)) * dt_mj
                if math.sqrt(g.dot(g)) <= MIDPOINT_TOL:
                    break
                # I + h J B_j, B_j = (omega - 2 + V') I + 2 V'' x_j x_j^T
                e = two * V2(s)
                np.add(e * (mid * ms) * h_j, one, out=diag)
                flat[offdiag] = (om2 + vp + e * xx) * h_mj
                _, _, dv, info = dgbsv(5, 5, band, g)
                if info and checked:
                    raise np.linalg.LinAlgError("Singular matrix")
                if not info:        # else the batch check fails the step
                    v, its[r] = v - dv, its[r] + 1
                if its[r] == MIDPOINT_MAX_ITER:
                    raise ConvergenceError("implicit midpoint solve did not converge")
                if not checked:     # one correction, left to the batch check
                    break
            x[r + 3], prev2, prev, u = v, prev, u, v
        if not checked:     # the batch check: the residual of the block's states
            g = residual(x[2:m + 2].ravel(), x[3:m + 3].ravel()).reshape(m, -1)
            ok = np.sqrt(g[:, None] @ g[..., None]).ravel() <= MIDPOINT_TOL
            r = m if ok.all() else int(ok.argmin())     # a NaN row fails
            if r < m:       # it goes on, checked, in the next block; the rest redone
                resume, m = (x[r + 3].copy(), its[r]), r
        x[3:m + 3].take(unfold, 1, out=states[i + 1:i + m + 1])
        x[:3] = x[m:m + 3]
        i, corrections = i + m, corrections + sum(its[:m])
        # after a step that took two corrections, check every correction
        size, checked = min(2 * size, cap), resume is not None or max(its[:m]) > 1
    return Trajectory(dt_used * np.arange(nsteps + 1), states, dt_used, corrections)


def invariant_drift(traj: Trajectory, cfg: LatticeConfig, pot: Potential,
                    omega: float) -> tuple:
    """Max deviation (dH, dP) of energy H and power P = sum_j |u_j|^2 along
    the trajectory."""
    H = hamiltonian(cfg, pot, omega, traj.states)
    P = (traj.states ** 2).sum(axis=1)
    return float(np.abs(H - H[0]).max()), float(np.abs(P - P[0]).max())


def _norm_samples_one_period(traj: Trajectory, nu: float) -> np.ndarray:
    period = 2.0 * np.pi / nu
    npts = int(round(period / traj.dt))
    if abs(npts * traj.dt - period) > 1e-8 * period:
        raise ValueError("trajectory grid does not tile one period; "
                         "integrate with dt adjusted to the period")
    if len(traj.times) < npts + 1:
        raise ValueError("trajectory spans less than one period")
    xx = np.square(traj.states[:npts])         # sites interleave (re, im)
    return np.sqrt(xx[:, 0::2] + xx[:, 1::2])  # (npts, n)


def traveling_wave_error(traj: Trajectory, sw: StandingWave, k: int,
                         nu: float) -> float:
    """sup over sites and times of | |u_{j+1}|(t) - |u_j|(t + k zeta / nu) |,
    the time shift evaluated by trigonometric interpolation. Zero for an
    exact traveling wave."""
    n = len(sw.equilibrium) // 2
    norms = _norm_samples_one_period(traj, nu)
    npts = norms.shape[0]
    # k zeta / nu is exactly k/n of the period, independent of nu.
    freqs = np.fft.fftfreq(npts, d=1.0 / npts)
    shift = np.exp(2j * np.pi * freqs * k / n)
    shifted = np.real(np.fft.ifft(np.fft.fft(norms, axis=0)
                                  * shift[:, None], axis=0))
    return float(np.abs(np.roll(norms, -1, axis=1) - shifted).max())


def spatial_period_error(traj: Trajectory, cfg: LatticeConfig, k: int,
                         nu: float) -> float:
    """For k dividing n the norm pattern repeats every n/k sites; returns the
    max violation of |u_{j+n/k}|(t) = |u_j|(t)."""
    if cfg.n % k:
        raise ValueError(f"k={k} does not divide n={cfg.n}")
    norms = _norm_samples_one_period(traj, nu)
    return float(np.abs(np.roll(norms, -(cfg.n // k), axis=1) - norms).max())


def closure_error(traj: Trajectory) -> float:
    """|u(T) - u(0)|: periodicity of the integrated orbit."""
    return float(np.linalg.norm(traj.states[-1] - traj.states[0]))
