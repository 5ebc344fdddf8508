"""Onset enumeration, non-degeneracy / non-resonance guards and amplitude
thresholds for the traveling-wave bifurcations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .errors import DegenerateAmplitudeError
from .lattice import LatticeConfig, Potential
from .spectral import alpha_beta, block_data

L_MAX_CAP = 64  # resonance scan bound; harmonics beyond the Fourier cutoff
                # of the continuation cannot be resolved anyway


@dataclass
class DegeneracyReport:
    nondegenerate: bool
    v_second: float
    v_second_nonzero: bool
    margins: dict          # k -> |phi_k - gamma_k|
    block_dets: dict       # k -> beta_k^2 - alpha_k^2 (1 - phi_k)
    failures: list


def check_nondegenerate(cfg: LatticeConfig, pot: Potential, a: float,
                        tol_deg: float = 1e-9) -> DegeneracyReport:
    """Amplitude is non-degenerate when V''(a^2) != 0 and phi_k != gamma_k for
    k = 1..n-1; equivalently the Hessian has no kernel in the fixed space
    (nonzero block determinants and a nonzero, finite rank-one block
    2a^2 V'')."""
    v2 = pot(a * a, 2)
    failures = []
    if abs(v2) <= tol_deg:
        failures.append(f"V''(a^2) = {v2:.3e} vanishes")
    if not tol_deg < abs(2.0 * a * a * v2) < np.inf:
        failures.append(f"rank-one block 2 a^2 V''(a^2) = {2 * a * a * v2:.3e} "
                        "vanishes or overflows")
    margins = {}
    dets = {}
    for k in range(1, cfg.n):
        bd = block_data(cfg, pot, a, k)
        margins[k] = abs(bd.phi - bd.gamma)
        dets[k] = bd.beta ** 2 - bd.alpha ** 2 * (1.0 - bd.phi)
        if margins[k] <= tol_deg:
            failures.append(f"phi_{k} = gamma_{k} within {tol_deg:g} "
                            f"(margin {margins[k]:.3e})")
        if abs(dets[k]) <= tol_deg:
            failures.append(f"block determinant {k} vanishes ({dets[k]:.3e})")
    return DegeneracyReport(
        nondegenerate=not failures,
        v_second=float(v2),
        v_second_nonzero=abs(v2) > tol_deg,
        margins=margins,
        block_dets=dets,
        failures=failures,
    )


@dataclass
class ResonanceRecord:
    """nu_j^{jsign} = l * nu_k^{ksign} within tol (j != k)."""

    k: int
    ksign: int
    j: int
    jsign: int
    l: int
    delta: float


@dataclass
class ResonanceReport:
    records: list
    one_to_one: list  # modes k with nu_k^+ = nu_k^- (phi_k = 1, Hopf flag)


def check_nonresonant(cfg: LatticeConfig, pot: Potential, a: float,
                      tol_res: float = 1e-9) -> ResonanceReport:
    """Scan for nu_j^+/- = l nu_k^+/- (j != k, 1 <= l <= l_max) over every
    positive candidate onset; flags the 1:1 case phi_k = 1 separately.

    For nu_k > tol_res the window |nu_j - l nu_k| < tol_res is narrower than
    2 nu_k, so only l = floor(nu_j / nu_k) and that plus one can fall in it;
    the scan tests those two per (k, j) pair."""
    bds = [block_data(cfg, pot, a, k) for k in range(1, cfg.n)]
    nus = np.array([(bd.nu_plus, bd.nu_minus) for bd in bds]).ravel()
    real = np.abs(nus.imag) <= tol_res
    onset = real & (nus.real > tol_res)
    l_max = 1
    if onset.any():
        l_max = int(min(L_MAX_CAP,
                        np.ceil(np.abs(nus).max() / nus.real[onset].min())))
    nu_k = np.where(onset, nus.real, 1.0)[:, None, None]
    nu_j = nus.real[None, :, None]
    l = np.floor(nu_j / nu_k) + np.array([0.0, 1.0])      # (2n-2, 2n-2, 2)
    delta = np.abs(nu_j - l * nu_k)
    mode = np.arange(len(nus)) // 2
    pair = onset[:, None] & real[None, :] & (mode[:, None] != mode[None, :])
    hit = pair[..., None] & (l >= 1) & (l <= l_max) & (delta < tol_res)
    sign = (+1, -1)
    records = [ResonanceRecord(int(i // 2 + 1), sign[i % 2], int(j // 2 + 1),
                               sign[j % 2], int(l[i, j, c]), float(delta[i, j, c]))
               for i, j, c in zip(*np.nonzero(hit))]
    one_to_one = [int(k) + 1 for k in
                  np.flatnonzero(np.abs(nus[0::2] - nus[1::2]) < tol_res)]
    return ResonanceReport(records=records, one_to_one=one_to_one)


@dataclass
class BifurcationPoint:
    """One onset (0, nu_k^sign) of a global traveling-wave branch."""

    k: int
    sign: int                 # +1 for nu_k^+, -1 for nu_k^-
    nu_onset: float
    regime: str               # 'a' (phi_k < gamma_k) or 'b' (gamma_k < phi_k < 1)
    resonances: list = field(default_factory=list)
    near_degenerate: bool = False
    suppressed: bool = False  # a bigger resonant onset owns the bifurcation


def classify_mode(cfg: LatticeConfig, pot: Potential, a: float, k: int) -> str:
    """Case label for mode k: 'a', 'b', 'hopf' (phi_k >= 1) or 'none'."""
    return _regime(block_data(cfg, pot, a, k), cfg.n)


def _regime(bd, n: int) -> str:
    if bd.phi < bd.gamma:
        return "a"
    if bd.gamma < bd.phi < 1.0 and 2 * bd.k <= n:
        return "b"
    if bd.phi >= 1.0:
        return "hopf"
    return "none"


def enumerate_bifurcations(cfg: LatticeConfig, pot: Potential, a: float,
                           tol_deg: float = 1e-9, tol_res: float = 1e-9,
                           near_tol: float = 1e-6) -> list:
    """All bifurcation onsets at amplitude a: case (a) modes (k = 1..n-1)
    contribute nu_k^+, case (b) modes (k <= n/2) contribute both nu_k^+/-.
    Modes with phi_k >= 1 contribute none (1:1/Hopf territory)."""
    return _enumerate(cfg, pot, a, tol_deg, tol_res, near_tol)[0]


def _enumerate(cfg, pot, a, tol_deg=1e-9, tol_res=1e-9, near_tol=1e-6) -> tuple:
    """(onsets, resonance report), from one resonance scan."""
    rep = check_nondegenerate(cfg, pot, a, tol_deg)
    if not rep.nondegenerate:
        raise DegenerateAmplitudeError("; ".join(rep.failures))
    res = check_nonresonant(cfg, pot, a, tol_res)
    points = []
    for k in range(1, cfg.n):
        bd = block_data(cfg, pot, a, k)
        regime = _regime(bd, cfg.n)
        near = min(abs(bd.phi - bd.gamma), abs(bd.phi - 1.0)) < near_tol
        if regime in ("a", "b"):
            points.append(_make_point(k, +1, bd.nu_plus.real, regime, res, near))
        if regime == "b":
            points.append(_make_point(k, -1, bd.nu_minus.real, "b", res, near))
    for p in points:
        if p.nu_onset <= 0:
            raise AssertionError(f"onset frequency not positive for k={p.k}")
    return points, res


def _make_point(k, sign, nu, regime, res: ResonanceReport, near) -> BifurcationPoint:
    recs = [r for r in res.records if r.k == k and r.ksign == sign]
    # A record nu_j = l nu_k means a bigger (or equal) frequency is resonant
    # with this onset; the bifurcation is only guaranteed at the biggest one.
    suppressed = bool(recs)
    return BifurcationPoint(k=k, sign=sign, nu_onset=float(nu), regime=regime,
                            resonances=recs, near_degenerate=near,
                            suppressed=suppressed)


@dataclass
class Thresholds:
    a_hopf: Optional[float]    # smallest a > 0 with phi_k(a) = 1
    a_gamma: Optional[float]   # smallest a > 0 with phi_k(a) = gamma_k


def _phi_fn(cfg, pot, k):
    alpha, _ = alpha_beta(cfg, k)

    def phi(a):
        return 2.0 * a * a * pot(a * a, 2) / alpha

    return phi


def _scan_root(g, a_max: float, samples: int = 4096) -> Optional[float]:
    grid = np.linspace(0.0, a_max, samples + 1)[1:]
    vals = np.array([g(a) for a in grid])
    sign = np.sign(vals)
    for i in range(len(grid) - 1):
        if sign[i] == 0:
            return float(grid[i])
        if sign[i] * sign[i + 1] < 0:
            return float(brentq(g, grid[i], grid[i + 1], xtol=1e-14, rtol=1e-15))
    return None


def threshold_by_bisection(cfg: LatticeConfig, pot: Potential, k: int,
                           target: float, a_max: float = 10.0) -> Optional[float]:
    """Smallest root of phi_k(a) = target on (0, a_max], by scan + bisection.
    Works for any potential; used as cross-check for the closed forms."""
    phi = _phi_fn(cfg, pot, k)
    return _scan_root(lambda a: phi(a) - target, a_max)


def amplitude_thresholds(cfg: LatticeConfig, pot: Potential, k: int,
                         a_max: float = 10.0) -> Thresholds:
    """Amplitudes where phi_k crosses 1 (Hopf collision) and gamma_k
    (standing-wave degeneracy). Closed forms for cubic and saturable,
    bisection otherwise; None when no positive root exists."""
    if not 1 <= k <= cfg.n - 1:
        raise ValueError(f"mode k must be in 1..n-1, got {k}")
    alpha, beta = alpha_beta(cfg, k)
    gamma = 1.0 - (beta / alpha) ** 2
    if pot.kind in ("cubic", "saturable") and pot.params[0] == 0.0:
        return Thresholds(a_hopf=None, a_gamma=None)   # phi_k = 0 for every a
    if pot.kind == "cubic":
        c = pot.params[0]
        a_hopf = _cubic_root(alpha, c, 1.0)
        a_gamma = _cubic_root(alpha, c, gamma)
    elif pot.kind == "saturable":
        c = pot.params[0]
        a_hopf = _saturable_root(alpha, c, 1.0)
        a_gamma = _saturable_root(alpha, c, gamma)
    else:
        a_hopf = threshold_by_bisection(cfg, pot, k, 1.0, a_max)
        a_gamma = threshold_by_bisection(cfg, pot, k, gamma, a_max)
    return Thresholds(a_hopf=a_hopf, a_gamma=a_gamma)


def _cubic_root(alpha: float, c: float, target: float) -> Optional[float]:
    # phi(a) = 2 c a^2 / alpha = target  =>  a = sqrt(target alpha / 2c)
    val = target * alpha / (2.0 * c)
    if val <= 0.0:
        return None
    return float(np.sqrt(val))


def _saturable_root(alpha: float, c: float, target: float) -> Optional[float]:
    # phi(a) = -(2c/alpha) (a / (1 + a^2))^2 = target; r = a/(1+a^2) in (0, 1/2]
    val = -target * alpha / (2.0 * c)
    if val <= 0.0:
        return None
    r = np.sqrt(val)
    if r > 0.5:
        return None
    # a^2 r - a + r = 0, smaller positive root
    return float((1.0 - np.sqrt(1.0 - 4.0 * r * r)) / (2.0 * r))
