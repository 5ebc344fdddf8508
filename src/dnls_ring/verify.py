"""Independent verification of continued solutions by direct time
integration: implicit midpoint (symplectic, conserves the power P exactly up
to solver tolerance), periodicity closure and the traveling-wave norm
relation."""

from __future__ import annotations

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
    Each step is predicted by extrapolating the last three states (Euler on
    the first step, linear on the second) and corrected by Newton with
    I + (dt/2) J D^2H at each correction's midpoint. The orbit is carried in
    the folded ring order 0, n-1, 1, n-2, ..., where neighbours sit at most
    two sites apart, so the matrix is banded with 5 sub- and superdiagonals
    and is solved by banded LU, O(n). Its on-site blocks are three band rows
    written at each correction: the diagonal, the superdiagonal at odd and
    the subdiagonal at even columns.
    """
    if not 0 < dt <= T < np.inf:
        raise ValueError("need finite dt > 0 and T >= dt")
    from scipy.linalg.lapack import dgbsv  # here, so the package imports numpy alone
    n, nsteps = cfg.n, max(1, int(round(T / dt)))
    dt_used = T / nsteps
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
    band = np.zeros((16, 2 * n), order="F")   # LAPACK band storage, kl = ku = 5
    for c in up, down:      # A[r, c] is band[10 + r - c, c]; blocks (dt/2) J
        band[10 + k - c, c] = h_j
    diag, sub, sup = band[10], band[11, 0::2], band[9, 1::2]
    states = np.empty((nsteps + 1, 2 * n))
    states[0] = np.asarray(u0, dtype=float)
    u, prev, corrections = states[0][fold], None, 0
    for i in range(nsteps):
        if i == 0:
            v = u + dt_used * rotating_rhs(cfg, pot, omega, states[0])[fold]
        elif i == 1:
            v = 2.0 * u - prev
        else:           # quadratic extrapolation, off by O(dt^3)
            v = 3.0 * (u - prev) + prev2
        for it in range(MIDPOINT_MAX_ITER):    # g(v) = v - u - dt f((u+v)/2)
            mid = 0.5 * (u + v)
            ms, xx = mid[swap], mid * mid
            s = xx + ms * ms                  # |u_j|^2 on both entries of site j
            vp = pot(s, 1)
            g = v - u - ((omega + vp) * ms
                         + ((mid[up] + mid[down]) - 2.0 * ms)) * dt_mj
            if np.sqrt(g.dot(g)) <= MIDPOINT_TOL:   # np.linalg.norm(g)
                break
            # I + h J B_j, B_j = (omega - 2 + V') I + 2 V'' x_j x_j^T
            e = 2.0 * pot(s, 2)
            np.add(e * (mid * ms) * h_j, 1.0, out=diag)
            off = (omega - 2.0 + vp + e * xx) * h_mj
            sub[:], sup[:] = off[0::2], off[1::2]
            _, _, dv, info = dgbsv(5, 5, band, g)
            if info:
                raise np.linalg.LinAlgError("Singular matrix")
            v = v - dv
        else:
            raise ConvergenceError("implicit midpoint solve did not converge")
        states[i + 1] = v[unfold]
        prev2, prev, u = prev, u, v
        corrections += it
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
