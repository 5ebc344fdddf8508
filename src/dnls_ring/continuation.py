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

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bifurcation import TOL_DEG, BifurcationPoint
from .errors import ConvergenceError, ResonanceError
from .lattice import LatticeConfig, Potential, StandingWave, onsite_blocks
from .spectral import alpha_beta
from .symmetry import ReducedProfile


NEWTON_TOL = 1e-10     # residual and constraint bound of every Newton solve
MAX_NEWTON_ITER, CORRECTOR_MAX_ITER = 25, 10  # no fallback; ds / 2 on failure
DS0, DS_MIN, DS_MAX = 1e-2, 1e-5, 1e-1  # first step, halving floor, growth cap
FIRST_STEP_EPS = 1e-3  # offset along the onset kernel of the first point
NU_MIN = 1e-6          # a branch whose frequency falls to this ends
KERNEL_RTOL = 1e-8     # |det| below this times its terms: a singular mode block


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
        self.pot, self.sw, self.k = pot, sw, k
        self.nh = nh = n_harmonics
        self.dim = 2 * nh + 1
        self.M = grid_size(nh)
        ls = np.arange(nh + 1)
        # (omega - 2) x_0 + x_1 + x_{-1} with x_{+-1}(t) = e^{+-m zeta J}
        # x_0(t +- k zeta) is -V'(a^2) - [[alpha, beta], [beta, alpha]] of
        # mode lk on each pair (a_l, b_l), and J xdot is -l off the diagonal
        vp_eq = float(pot(sw.a ** 2, 1))
        self.alpha, self.beta = alpha, beta = alpha_beta(cfg, ls * k)
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
        """u_0 = a e_1 + x_0 on the grid (2, M), s = |u_0|^2, V'(s) and j_dt p,
        kept for the last profile, where a Jacobian follows its residual."""
        if self._grid[0] != (key := pvec.tobytes()):
            spec = np.zeros(2 * (self.M // 2 + 1), dtype=complex)
            spec[self._slots] = self._to_grid * pvec
            spec[0] += self.sw.a
            u = np.fft.irfft(spec.reshape(2, -1), self.M, norm="forward")
            s = (u * u).sum(axis=0)
            self._grid = (key, u, s, self.pot.derivs[1](s), self.j_dt @ pvec)
        return self._grid[1:]

    def residual(self, pvec: np.ndarray, nu: float) -> np.ndarray:
        """f(x; nu) = J xdot - nu^{-1} grad H(a_m + x) at site 0, as reduced
        coefficients."""
        if nu <= 0:
            raise ConvergenceError("frequency left the positive domain")
        u, _, vp, jp = self._site0(pvec)
        g = np.fft.rfft(vp * u, axis=1, norm="forward").ravel()[self._slots]
        g = (g / self._to_grid).real
        g[0] -= self._g_eq
        return jp - (self.coupling @ pvec + g) / nu

    def jacobian(self, pvec: np.ndarray, nu: float, r: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        """Exact Jacobian in (p, nu), (dim, dim+1); its nu column is
        (j_dt p - r) / nu, from the residual r at (p, nu). Written into out
        if given: _newton passes the rows above its bordering row."""
        u, s, vp, jp = self._site0(pvec)
        # pointwise Hessian V'(s) I + 2 V''(s) u_0 u_0^T, the on-site block
        # of D^2H with omega - 2 = 0, as rows h00, h01 = h10, h11
        h = np.fft.rfft(onsite_blocks(self.pot, 2.0, u, s, vp), axis=1,
                        norm="forward")[:, : 2 * self.nh + 1]
        # C(q) = Re h(q), S(q) = -Im h(q), h(-q) = conj h(q): rows C00(q),
        # S01(-q), S10(q) = -S01(-q), C11(q) over q in [-2nh, 2nh]
        h = np.concatenate([h[:, :0:-1].conj(), h], axis=1)
        tab = np.concatenate([h[0].real, h[1].imag, -h[1].imag, h[2].real])
        tab = np.concatenate([tab, -tab, [0.0]])
        onsite = tab[self._toeplitz] + tab[self._hankel] + self.coupling
        out = np.empty((self.dim, self.dim + 1)) if out is None else out
        np.subtract(self.j_dt, onsite / nu, out=out[:, :-1])
        out[:, -1] = (jp - r) / nu
        return out


def onset_kernel(sys_: ReducedSystem, nu: float) -> ReducedProfile:
    """Normalized null direction of the linearization of sys_ at (0, nu), from
    its mode-lk blocks; refuses a 1:1 onset (phi_k = 1) and resonant onsets
    with a non-simple kernel, and a nu that is not positive."""
    sw, nh = sys_.sw, sys_.nh
    # At p = 0 the Jacobian is block-diagonal, with symmetric blocks [[alpha -
    # d, beta - l nu], [beta - l nu, alpha]] / nu of mode lk on (a_l, b_l),
    # d = 2 a^2 V''(a^2) = phi_k alpha_k, and -d / nu on a_0 alone. A block is
    # singular when its determinant (alpha - d) alpha - (beta - l nu)^2 is
    # small against its own two terms, and the a_0 entry when d = 0.
    alpha, beta, ls = sys_.alpha, sys_.beta, np.arange(nh + 1)
    d = 2.0 * sw.a ** 2 * sys_.pot(sw.a ** 2, 2)
    if abs(d / alpha[1] - 1.0) <= TOL_DEG:
        raise ResonanceError(
            f"double eigenvalue at 1:1 resonance: phi_{sys_.k}(a) = 1")
    if nu <= 0:
        raise ConvergenceError(f"onset frequency {nu:.12g} is not positive")
    b, ad = beta - ls * nu, (alpha - d) * alpha
    det, terms = ad - b * b, np.abs(ad) + b * b
    det[0], terms[0] = d, abs(d)
    small = np.abs(det) <= KERNEL_RTOL * terms
    if not small[1]:
        raise ConvergenceError(f"no kernel at onset nu = {nu:.12g}")
    if small.sum() > 1:
        raise ResonanceError(
            f"kernel dimension {small.sum()} at onset nu = {nu:.12g}: "
            "resonant onset, refusing to continue")
    w, v = np.linalg.eigh(np.array([[alpha[1] - d, b[1]], [b[1], alpha[1]]]) / nu)
    tangent = np.zeros(sys_.dim)
    tangent[[1, nh + 1]] = v[:, np.argmin(np.abs(w))]
    if tangent[np.argmax(np.abs(tangent))] < 0:
        tangent = -tangent
    return ReducedProfile.from_vector(sys_.k, tangent)


def _newton(sys_: ReducedSystem, y0: np.ndarray, row: np.ndarray,
            max_iter: Optional[int] = None) -> tuple:
    """Solve residual(p, nu) = 0 on row . (y - y0) = 0 by Newton from y0 in
    at most max_iter (or MAX_NEWTON_ITER) steps; returns (y, residual norm)."""
    y, bordered = y0, np.empty((len(y0), len(y0)))
    bordered[-1] = row
    max_iter = MAX_NEWTON_ITER if max_iter is None else max_iter
    for _ in range(max_iter):
        p, nu = y[:-1], y[-1]
        r = sys_.residual(p, nu)
        c = float(row @ (y - y0))
        rnorm = math.sqrt(r.dot(r))
        if rnorm <= NEWTON_TOL and abs(c) <= NEWTON_TOL:
            return y, rnorm
        sys_.jacobian(p, nu, r, out=bordered[:-1])
        try:
            y = y + np.linalg.solve(bordered, -np.concatenate([r, [c]]))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular bordered system: {exc}") from exc
    raise ConvergenceError(f"Newton did not converge in {max_iter} iterations")


def continue_branch(cfg: LatticeConfig, pot: Potential, sw: StandingWave,
                    onset: BifurcationPoint,
                    opts: Optional[ContinuationOptions] = None) -> Branch:
    """Follow the branch emanating from (0, onset.nu_onset) by pseudo-arclength
    steps: the first, of length FIRST_STEP_EPS, along the kernel (tangent, 0)
    of the branch's own system there, the rest along the last secant, each
    corrected on the hyperplane through its prediction normal to the step
    direction. A success grows ds by 1.3 up to DS_MAX. A failed step halves ds,
    so its corrector stops after CORRECTOR_MAX_ITER = 10 iterations: a
    diverging one costs only a shorter step. The first step, like
    refine_point, has no fallback: it gets MAX_NEWTON_ITER = 25, and its
    failure raises ConvergenceError. The branch holds at least one point, and
    `termination` is "nu_bound", "amplitude_cap", "max_steps" or
    "newton_failure" (ds below DS_MIN)."""
    opts = opts or ContinuationOptions()
    if onset.suppressed:
        raise ResonanceError(
            f"onset (k={onset.k}, nu={onset.nu_onset:.9g}) is 1:l resonant with "
            "a bigger frequency and is suppressed")
    sys_ = ReducedSystem(cfg, pot, sw, onset.k, opts.n_harmonics)
    cap = 10.0 * sw.a if sw.a > 0 else 1.0

    branch = Branch(termination="max_steps")
    y = np.concatenate([np.zeros(sys_.dim), [onset.nu_onset]])
    tau = np.concatenate([onset_kernel(sys_, onset.nu_onset).as_vector(), [0.0]])
    ds = FIRST_STEP_EPS
    while True:
        try:
            ynew, rnorm = _newton(sys_, y + ds * tau, tau, CORRECTOR_MAX_ITER
                                  if branch.points else MAX_NEWTON_ITER)
        except ConvergenceError:
            if not branch.points:
                raise
            ds *= 0.5
            if ds < DS_MIN:
                branch.termination = "newton_failure"
                break
            continue
        tau, y = ynew - y, ynew
        tau /= math.sqrt(tau.dot(tau))
        branch.points.append(BranchPoint(
            ReducedProfile.from_vector(onset.k, y[:-1]), float(y[-1]),
            math.sqrt(y[:-1].dot(y[:-1])), rnorm))
        ds = DS0 if len(branch.points) == 1 else min(ds * 1.3, DS_MAX)
        if y[-1] <= NU_MIN:
            branch.termination = "nu_bound"
            break
        if branch.points[-1].amplitude >= cap:
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
    y0 = np.concatenate([point.profile.padded(n_harmonics).as_vector(), [point.nu]])
    y, rnorm = _newton(sys_, y0, np.append(np.zeros(sys_.dim), 1.0))
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
