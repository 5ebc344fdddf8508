"""Independent verification of continued solutions by direct time
integration: implicit midpoint (symplectic, conserves the power P exactly up
to solver tolerance), periodicity closure and the traveling-wave norm
relation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .lattice import (J_SIGNS, LatticeConfig, Potential, StandingWave,
                      hamiltonian, rotating_rhs)

MIDPOINT_TOL = 1e-13     # residual norm each midpoint Newton solve meets
MIDPOINT_MAX_ITER = 50


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray          # (nt, 2n)
    dt: float
    newton_iterations: int = 0  # Newton corrections summed over all steps


def integrate(cfg: LatticeConfig, pot: Potential, omega: float,
              u0: np.ndarray, dt: float, T: float) -> Trajectory:
    """Implicit-midpoint trajectory of J udot = grad H(u) from u0 to time T.

    dt is adjusted to the nearest value dividing T evenly so the grid tiles
    the interval (required downstream for trigonometric interpolation).
    Each step extrapolates the last three states (Euler on the first step,
    linear on the second) and corrects by Newton with I + (dt/2) J D^2H,
    banded in the folded ring order 0, n-1, 1, n-2, ... and solved by banded
    LU, until the residual norm is at most MIDPOINT_TOL. After a block in
    which no step took two corrections, the next block's steps stop after
    one and one residual evaluation over its states (at most 1024 // n)
    checks them; the first that fails resumes, and the rest are redone.
    """
    if not 0 < dt <= T < np.inf:
        raise ValueError("need finite dt > 0 and T >= dt")
    from scipy.linalg.lapack import dgbsv  # here, so the package imports numpy alone
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

    def residual(u, v, at=(swap, up, down, dt_mj)):  # states laid end to end
        mid = 0.5 * (u + v)               # g(v) = v - u - dt f((u+v)/2)
        ms, xx, nb = mid[at[0]], mid * mid, mid[at[1]] + mid[at[2]]
        s = xx + ms * ms                  # |u_j|^2 on both entries of site j
        vp = pot(s, 1)
        g = v - u - ((omega + vp) * ms + (nb - 2.0 * ms)) * at[3]
        return g, mid, ms, xx, s, vp

    def correct(u, v, it, once, g, mid, ms, xx, s, vp):   # v is iterate it
        while not math.sqrt(g.dot(g)) <= MIDPOINT_TOL:
            # I + h J B_j, B_j = (omega - 2 + V') I + 2 V'' x_j x_j^T
            e = 2.0 * pot(s, 2)
            np.add(e * (mid * ms) * h_j, 1.0, out=diag)
            flat[offdiag] = (omega - 2.0 + vp + e * xx) * h_mj
            _, _, dv, info = dgbsv(5, 5, band, g)
            if info and once:   # the batched residual check fails this step
                break           # and redoes it, unless an earlier one failed
            if info:
                raise np.linalg.LinAlgError("Singular matrix")
            v, it = v - dv, it + 1
            if it == MIDPOINT_MAX_ITER:
                raise ConvergenceError("implicit midpoint solve did not converge")
            if once:        # left to the block's batched residual
                break
            g, mid, ms, xx, s, vp = residual(u, v)
        return v, it

    states = np.empty((nsteps + 1, 2 * n))
    states[0] = np.asarray(u0, dtype=float)
    x = np.empty((cap + 3, 2 * n))        # prev2, prev, u, then a block's steps
    x[2], i, size, checked, corrections = states[0][fold], 0, 1, False, 0
    euler = x[2] + dt_used * rotating_rhs(cfg, pot, omega, states[0])[fold]
    while i < nsteps:
        m, (prev2, prev, u) = min(size, nsteps - i), x[:3]
        its = [0] * m                     # corrections of each step
        for r in range(m):  # predictor: Euler, linear, then quadratic, O(dt^3)
            v = (euler if i + r == 0 else 2.0 * u - prev if i + r == 1
                 else 3.0 * (u - prev) + prev2)
            v, its[r] = correct(u, v, 0, not checked, *residual(u, v))
            x[r + 3], prev2, prev, u = v, prev, u, v
        if not checked:
            res = [a.reshape(m, -1) for a in residual(
                x[2:m + 2].ravel(), x[3:m + 3].ravel(), [a[:2 * n * m] for a in wide])]
            r = next((r for r, g in enumerate(res[0])
                      if not math.sqrt(g.dot(g)) <= MIDPOINT_TOL), m)
            if r < m:
                x[r + 3], its[r] = correct(x[r + 2], x[r + 3], 1, False,
                                           *(a[r] for a in res))
                m = r + 1
            del res         # freed before the next block's band solves
        x[3:m + 3].take(unfold, 1, out=states[i + 1:i + m + 1])
        x[:3] = x[m:m + 3]
        i, corrections = i + m, corrections + sum(its[:m])
        size, checked = min(2 * size, cap), max(its[:m]) > 1  # a step took two
    return Trajectory(times=dt_used * np.arange(nsteps + 1), states=states,
                      dt=dt_used, newton_iterations=corrections)


def invariant_drift(traj: Trajectory, cfg: LatticeConfig, pot: Potential,
                    omega: float) -> tuple:
    """Max deviation (dH, dP) of energy H and power P = sum_j |u_j|^2 along
    the trajectory."""
    H = hamiltonian(cfg, pot, omega, traj.states)
    P = (traj.states ** 2).sum(axis=1)
    return float(np.abs(H - H[0]).max()), float(np.abs(P - P[0]).max())


def _norm_samples_one_period(traj: Trajectory, n: int, nu: float) -> np.ndarray:
    period = 2.0 * np.pi / nu
    npts = int(round(period / traj.dt))
    if abs(npts * traj.dt - period) > 1e-8 * period:
        raise ValueError("trajectory grid does not tile one period; "
                         "integrate with dt adjusted to the period")
    if len(traj.times) < npts + 1:
        raise ValueError("trajectory spans less than one period")
    x = traj.states[:npts].reshape(npts, n, 2)
    return np.sqrt((x * x).sum(axis=-1))       # (npts, n)


def traveling_wave_error(traj: Trajectory, sw: StandingWave, k: int,
                         nu: float) -> float:
    """sup over sites and times of | |u_{j+1}|(t) - |u_j|(t + k zeta / nu) |,
    the time shift evaluated by trigonometric interpolation. Zero for an
    exact traveling wave."""
    n = len(sw.equilibrium) // 2
    norms = _norm_samples_one_period(traj, n, nu)
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
    norms = _norm_samples_one_period(traj, cfg.n, nu)
    p = cfg.n // k
    shifted = np.roll(norms, -p, axis=1)
    return float(np.abs(shifted - norms).max())


def closure_error(traj: Trajectory) -> float:
    """|u(T) - u(0)|: periodicity of the integrated orbit."""
    return float(np.linalg.norm(traj.states[-1] - traj.states[0]))
