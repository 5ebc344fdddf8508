"""Independent verification of continued solutions by direct time
integration: implicit midpoint (symplectic, conserves the power P exactly up
to solver tolerance), periodicity closure and the traveling-wave norm
relation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConvergenceError
from .lattice import (I2, J2, J_SIGNS, LatticeConfig, Potential, StandingWave,
                      hamiltonian, onsite_blocks, rotating_rhs)

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
    Each step is predicted by extrapolating the last three states (Euler on
    the first step, linear on the second) and corrected by Newton with
    I + (dt/2) J D^2H at each correction's midpoint, of which only the on-site
    blocks change. Sites are taken in the folded ring order 0, n-1, 1, n-2,
    ..., where neighbours sit at most two sites apart, so the matrix is
    banded with 5 sub- and superdiagonals and is solved by banded LU, O(n).
    """
    if not 0 < dt <= T < np.inf:
        raise ValueError("need finite dt > 0 and T >= dt")
    from scipy.linalg.lapack import dgbsv  # here, so the package imports numpy alone
    n, nsteps = cfg.n, max(1, int(round(T / dt)))
    dt_used = T / nsteps
    h, j = 0.5 * dt_used, np.arange(n)
    order = np.where(j % 2, n - 1 - j // 2, j // 2)   # site at each position
    rows = 2 * np.argsort(order)[:, None] + np.arange(2)   # rows of each site
    unfold = rows.ravel()                 # folded index of each natural one
    fold = np.argsort(unfold)             # natural index of each folded one
    band = np.zeros((16, 2 * n), order="F")   # LAPACK band storage, kl = ku = 5
    for nb in (j + 1) % n, (j - 1) % n:   # A[r, c] is band[10 + r - c, c]
        c = rows[nb][:, None, :]
        band[10 + rows[:, :, None] - c, c] = h * J2
    rs, cs = band.strides                 # the n diagonal 2x2 blocks, writable
    onsite = as_strided(band[10:], (n, 2, 2), (2 * cs, rs, cs - rs))
    h_j = h * J_SIGNS[:, None]
    states = np.empty((nsteps + 1, 2 * n))
    states[0] = np.asarray(u0, dtype=float)
    corrections = 0
    for i in range(nsteps):
        u = states[i]
        if i == 0:
            v = u + dt_used * rotating_rhs(cfg, pot, omega, u)
        elif i == 1:
            v = 2.0 * u - states[0]
        else:           # quadratic extrapolation, off by O(dt^3)
            v = 3.0 * (u - states[i - 1]) + states[i - 2]
        for it in range(MIDPOINT_MAX_ITER):    # g(v) = v - u - dt f((u+v)/2)
            mid = 0.5 * (u + v)
            x = mid.reshape(n, 2)
            s = (x * x).sum(axis=-1)
            vp = np.asarray(pot(s, 1))
            g = v - u - dt_used * rotating_rhs(cfg, pot, omega, mid, vp)
            if np.sqrt(g.dot(g)) <= MIDPOINT_TOL:   # np.linalg.norm(g)
                break
            # I + h J B_j, J applied to the row pair of each block
            blocks = onsite_blocks(pot, omega, x, s, vp).take(order, 0)
            np.multiply(blocks[:, ::-1], h_j, out=onsite)
            onsite += I2
            _, _, dv, info = dgbsv(5, 5, band, g[fold])
            if info:
                raise np.linalg.LinAlgError("Singular matrix")
            v = v - dv[unfold]
        else:
            raise ConvergenceError("implicit midpoint solve did not converge")
        states[i + 1] = v
        corrections += it
    times = dt_used * np.arange(nsteps + 1)
    return Trajectory(times=times, states=states, dt=dt_used,
                      newton_iterations=corrections)


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
