"""Fourier-Galerkin residual in the dihedral fixed space and pseudo-arclength
continuation of traveling-wave branches from their onsets.

The reduced unknown y is the site-0 profile (cos/sin coefficients up to the
harmonic cutoff) plus the frequency nu. Time-translation symmetry is fully
quotiented by the reversibility constraint built into the profile, so the
residual bordered by one hyperplane row is square. Every site in the fixed
space is a rotated, time-shifted copy of site 0, so the residual is
evaluated on site 0 alone, with an exact Jacobian. Every Newton solve, a
continuation step or a refinement, finds the residual's zero on a
hyperplane row . (y - y0) = 0 through its starting point y0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bifurcation import BifurcationPoint
from .errors import ConvergenceError, ResonanceError
from .lattice import LatticeConfig, Potential, StandingWave, onsite_blocks
from .spectral import alpha_beta, block_data
from .symmetry import ReducedProfile


NEWTON_TOL = 1e-10     # residual and constraint bound of every Newton solve
MAX_NEWTON_ITER = 25
DS0, DS_MIN, DS_MAX = 1e-2, 1e-5, 1e-1  # first step, halving floor, growth cap
FIRST_STEP_EPS = 1e-3  # offset along the onset kernel of the first point
NU_MIN = 1e-6          # a branch whose frequency falls to this ends
KERNEL_RTOL = 1e-8     # singular values below this fraction of the largest
                       # span the onset kernel


@dataclass
class ContinuationOptions:
    n_harmonics: int = 32
    max_steps: int = 500


@dataclass
class BranchPoint:
    profile: ReducedProfile
    nu: float
    amplitude: float
    residual_norm: float


@dataclass
class Branch:
    onset: BifurcationPoint
    points: list = field(default_factory=list)
    termination: str = ""


def grid_size(nh: int) -> int:
    """Least M >= 8 nh + 1 of the form 2^a 3^b 5^c, so dividing a power of
    30: a collocation grid alias-free to degree 7, and quick to transform."""
    return next(M for M in range(8 * nh + 1, 16 * nh + 3)
                if 30 ** M.bit_length() % M == 0)


class ReducedSystem:
    """Site-0 residual and its exact Jacobian for one (config, potential,
    standing wave, mode k, cutoff) tuple. The neighbour coupling and J xdot
    act on each harmonic pair (a_l, b_l) as exact 2x2 blocks; only the
    on-site term is collocated, on M = grid_size(nh) times, by real FFTs.
    Its Jacobian block is Toeplitz plus Hankel in the grid Fourier
    coefficients C(q), S(q), |q| <= 2 nh, of the pointwise Hessian h(t), as
    cos(lt) cos(l't) = (cos((l-l')t) + cos((l+l')t)) / 2 on the grid."""

    def __init__(self, cfg: LatticeConfig, pot: Potential, sw: StandingWave,
                 k: int, n_harmonics: int):
        self.pot = pot
        self.sw = sw
        self.k = k
        self.nh = nh = n_harmonics
        self.dim = 2 * nh + 1
        self.M = grid_size(nh)
        ls = np.arange(nh + 1)
        # (omega - 2) x_0 + x_1 + x_{-1} with x_{+-1}(t) = e^{+-m zeta J}
        # x_0(t +- k zeta) is -V'(a^2) - [[alpha, beta], [beta, alpha]] of
        # mode lk on each pair (a_l, b_l), and J xdot is -l off the diagonal
        vp_eq = float(pot(sw.a ** 2, 1))
        alpha, beta = alpha_beta(cfg, ls * k)
        d = -vp_eq - alpha
        ia, ib = ls[1:], nh + ls[1:]
        self.coupling = np.diag(np.concatenate([d, d[1:]]))
        self.coupling[ia, ib] = self.coupling[ib, ia] = -beta[1:]
        self.j_dt = np.zeros((self.dim, self.dim))
        self.j_dt[ia, ib] = self.j_dt[ib, ia] = -ls[1:]
        self._g_eq = vp_eq * sw.a
        self._grid = (None,)
        # a_l, b_l sit at harmonic l of the half-spectra (scaled by 1/M) of
        # x_0 = (sum a_l cos(lt), sum b_l sin(lt))
        self._slots = np.concatenate([ls, self.M // 2 + 1 + ls[1:]])
        self._to_grid = np.concatenate([[1.0], [0.5] * nh, [-0.5j] * nh])
        # Entry (i, i') at harmonics l, l' of kinds c, c' (0 cos, 1 sin) is
        # T(l - l') + sign T(l + l'), T the row of h_cc' in a table over q in
        # [-2nh, 2nh]: C(q), S(-q) for cos-sin, S(q) for sin-cos. The sign is
        # -1 in sin columns, read from a negated copy of the table, and the
        # a_0 row, whose weight is half, reads a zero past both copies.
        lh, Q = np.concatenate([ls, ls[1:]]), 4 * nh + 1
        kind = np.arange(self.dim) > nh
        rows = 2 * Q * kind + 2 * nh + lh
        self._toeplitz = np.add.outer(rows, Q * kind - lh)
        self._hankel = np.add.outer(rows, 5 * Q * kind + lh)
        self._hankel[0] = 8 * Q

    def _site0(self, pvec: np.ndarray) -> tuple:
        """u_0 = a e_1 + x_0 on the grid, shape (2, M), s = |u_0|^2 and V'(s),
        kept for the last profile, where a Jacobian follows its residual."""
        if not np.array_equal(self._grid[0], pvec):
            spec = np.zeros(2 * (self.M // 2 + 1), dtype=complex)
            spec[self._slots] = self._to_grid * pvec
            spec[0] += self.sw.a
            u = np.fft.irfft(spec.reshape(2, -1), self.M, norm="forward")
            s = (u * u).sum(axis=0)
            self._grid = (pvec.copy(), u, s, self.pot(s, 1))
        return self._grid[1:]

    def _gradient(self, pvec: np.ndarray) -> np.ndarray:
        """Site-0 component of grad H(a_m + x) as cos/sin coefficients."""
        u, _, vp = self._site0(pvec)
        g = np.fft.rfft(vp * u, axis=1, norm="forward").ravel()[self._slots]
        g = (g / self._to_grid).real
        g[0] -= self._g_eq
        return self.coupling @ pvec + g

    def residual(self, pvec: np.ndarray, nu: float) -> np.ndarray:
        """f(x; nu) = J xdot - nu^{-1} grad H(a_m + x) at site 0, as reduced
        coefficients."""
        if nu <= 0:
            raise ConvergenceError("frequency left the positive domain")
        return self.j_dt @ pvec - self._gradient(pvec) / nu

    def jacobian(self, pvec: np.ndarray, nu: float,
                 r: np.ndarray) -> np.ndarray:
        """Exact Jacobian in (p, nu), (dim, dim+1); its nu column is
        (j_dt p - r) / nu, from the residual r at (p, nu)."""
        u, s, vp = self._site0(pvec)
        # pointwise Hessian V'(s) I + 2 V''(s) u_0 u_0^T, the on-site block
        # of D^2H with omega - 2 = 0, as rows h00, h01, h10, h11
        hess = onsite_blocks(self.pot, 2.0, u.T, s, vp).reshape(self.M, 4)
        h = np.fft.rfft(hess, axis=0, norm="forward")[: 2 * self.nh + 1].T
        # C(q) = Re h(q), S(q) = -Im h(q) = Re(i h(q)), h(-q) = conj h(q)
        tab = (np.concatenate([h[:, :0:-1].conj(), h], axis=1)
               * np.array([[1.0], [-1j], [1j], [1.0]])).real.ravel()
        tab = np.concatenate([tab, -tab, [0.0]])
        onsite = tab[self._toeplitz] + tab[self._hankel]
        onsite += self.coupling
        return np.column_stack([self.j_dt - onsite / nu,
                                (self.j_dt @ pvec - r) / nu])


def onset_kernel(cfg: LatticeConfig, pot: Potential, sw: StandingWave,
                 k: int, sign: int, n_harmonics: int) -> tuple:
    """Normalized null direction of the reduced linearization at
    (0, nu_k^sign); refuses resonant onsets with a non-simple kernel."""
    bd = block_data(cfg, pot, sw.a, k)
    if abs(bd.phi - 1.0) < 1e-9:
        raise ResonanceError(
            f"double eigenvalue at 1:1 resonance: phi_{k}(a) = 1")
    nu = bd.nu_plus if sign > 0 else bd.nu_minus
    if abs(nu.imag) > 1e-12 or nu.real <= 0:
        raise ValueError(f"onset frequency nu_{k}^{'+' if sign > 0 else '-'} "
                         f"= {nu} is not a positive real")
    nu = float(nu.real)
    # At p = 0 the Jacobian is block-diagonal, with symmetric blocks [[alpha -
    # d, beta - l nu], [beta - l nu, alpha]] / nu of mode lk on (a_l, b_l),
    # d = 2 a^2 V''(a^2), and -d / nu on a_0 alone.
    ls = np.arange(n_harmonics + 1)
    alpha, beta = alpha_beta(cfg, ls * k)
    d = 2.0 * sw.a ** 2 * pot(sw.a ** 2, 2)
    w, v = np.linalg.eigh(np.moveaxis(np.array(
        [[alpha - d, beta - ls * nu], [beta - ls * nu, alpha]]) / nu,
        (0, 1), (-2, -1)))
    svals = np.abs(w)
    svals[0] = abs(d / nu), np.nan
    small = svals < KERNEL_RTOL * np.nanmax(svals)
    if not small[1].any():
        raise ConvergenceError(f"no kernel at onset nu = {nu:.12g}")
    if small.sum() > 1:
        raise ResonanceError(
            f"kernel dimension {small.sum()} at onset nu = {nu:.12g}: "
            "resonant onset, refusing to continue")
    tangent = np.zeros(2 * n_harmonics + 1)
    tangent[[1, n_harmonics + 1]] = v[1][:, np.argmin(svals[1])]
    if tangent[np.argmax(np.abs(tangent))] < 0:
        tangent = -tangent
    return ReducedProfile.from_vector(k, tangent), nu


def _newton(sys_: ReducedSystem, y0: np.ndarray, row: np.ndarray) -> tuple:
    """Solve residual(p, nu) = 0 on the hyperplane row . (y - y0) = 0 by
    Newton's method from y0; returns (y, residual norm)."""
    y = y0
    for _ in range(MAX_NEWTON_ITER):
        p, nu = y[:-1], y[-1]
        r = sys_.residual(p, nu)
        c = float(row @ (y - y0))
        rnorm = float(np.linalg.norm(r))
        if rnorm <= NEWTON_TOL and abs(c) <= NEWTON_TOL:
            return y, rnorm
        Jfull = np.vstack([sys_.jacobian(p, nu, r), row])
        try:
            delta = np.linalg.solve(Jfull, -np.concatenate([r, [c]]))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular bordered system: {exc}") from exc
        y = y + delta
    raise ConvergenceError(
        f"Newton did not converge in {MAX_NEWTON_ITER} iterations")


def continue_branch(cfg: LatticeConfig, pot: Potential, sw: StandingWave,
                    onset: BifurcationPoint,
                    opts: Optional[ContinuationOptions] = None) -> Branch:
    """Follow the branch emanating from (0, nu_onset) by pseudo-arclength
    steps: the first, of length FIRST_STEP_EPS, along the onset kernel
    (tangent, 0), the rest along the last secant, each corrected on the
    hyperplane through its prediction normal to the step direction. A failed
    step halves ds and a success grows it by 1.3 up to DS_MAX; a failed first
    step raises ConvergenceError. The branch holds at least one point, and
    `termination` is "nu_bound", "amplitude_cap", "max_steps" or
    "newton_failure" (ds below DS_MIN)."""
    opts = opts or ContinuationOptions()
    if onset.suppressed:
        raise ResonanceError(
            f"onset (k={onset.k}, nu={onset.nu_onset:.9g}) is 1:l resonant with "
            "a bigger frequency and is suppressed")
    tangent, nu0 = onset_kernel(cfg, pot, sw, onset.k, onset.sign,
                                opts.n_harmonics)
    if abs(nu0 - onset.nu_onset) > 1e-6 * max(1.0, abs(nu0)):
        raise ValueError("onset frequency disagrees with block data")
    sys_ = ReducedSystem(cfg, pot, sw, onset.k, opts.n_harmonics)
    cap = 10.0 * sw.a if sw.a > 0 else 1.0

    branch = Branch(onset=onset, termination="max_steps")
    y = np.concatenate([np.zeros(sys_.dim), [nu0]])
    tau = np.concatenate([tangent.as_vector(), [0.0]])
    ds = FIRST_STEP_EPS
    while True:
        pred = y + ds * tau
        try:
            ynew, rnorm = _newton(sys_, pred, tau)
        except ConvergenceError:
            if not branch.points:
                raise
            ds *= 0.5
            if ds < DS_MIN:
                branch.termination = "newton_failure"
                break
            continue
        tau = ynew - y
        tau /= np.linalg.norm(tau)
        y = ynew
        branch.points.append(BranchPoint(
            ReducedProfile.from_vector(onset.k, y[:-1]), float(y[-1]),
            float(np.linalg.norm(y[:-1])), rnorm))
        ds = DS0 if len(branch.points) == 1 else min(ds * 1.3, DS_MAX)
        if y[-1] <= NU_MIN:
            branch.termination = "nu_bound"
            break
        if np.linalg.norm(y[:-1]) >= cap:
            branch.termination = "amplitude_cap"
            break
        if len(branch.points) >= opts.max_steps:
            break
    return branch


def refine_point(cfg: LatticeConfig, pot: Potential, sw: StandingWave,
                 point: BranchPoint, n_harmonics: int) -> tuple:
    """Re-solve an accepted point at a finer harmonic cutoff with nu held
    fixed; returns (profile, residual_norm). Used for spectral-convergence
    checks."""
    sys_ = ReducedSystem(cfg, pot, sw, point.profile.k, n_harmonics)
    e_nu = np.zeros(sys_.dim + 1)
    e_nu[-1] = 1.0
    y0 = np.concatenate([point.profile.padded(n_harmonics).as_vector(), [point.nu]])
    y, rnorm = _newton(sys_, y0, e_nu)
    return ReducedProfile.from_vector(sys_.k, y[:-1]), rnorm


def extrapolate_onset(branch: Branch) -> float:
    """Onset frequency from the amplitude -> 0 limit: quadratic-in-amplitude
    extrapolation through the first two accepted points."""
    pts = branch.points
    if len(pts) < 2:
        return pts[0].nu
    a1, a2 = pts[0].amplitude, pts[1].amplitude
    n1, n2 = pts[0].nu, pts[1].nu
    return float(n1 - a1 * a1 * (n2 - n1) / (a2 * a2 - a1 * a1))
