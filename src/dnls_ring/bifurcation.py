"""Onset enumeration, non-degeneracy / non-resonance guards and amplitude
thresholds for the traveling-wave bifurcations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateAmplitudeError
from .lattice import LatticeConfig, Potential
from .spectral import BlockData, alpha_beta, block_data

L_MAX_CAP = 64  # resonance scan bound; harmonics beyond the Fourier cutoff
                # of the continuation cannot be resolved anyway
TOL_DEG = 1e-9       # V'', phi_k - gamma_k or a block determinant this small
                     # counts as zero: the amplitude is degenerate
TOL_RES = 1e-9       # frequencies this close are equal (resonant)
NEAR_TOL = 1e-6      # onsets this close to phi_k = gamma_k or 1 are flagged
A_MAX = 10.0         # thresholds without a closed form are sought on (0, A_MAX]
SCAN_SAMPLES = 4096  # by a sign scan over this many equal steps, then brentq


def check_nondegenerate(pot: Potential, a: float, bd: BlockData) -> None:
    """Amplitude is non-degenerate when V''(a^2) != 0 and phi_k != gamma_k for
    the modes k of the block table bd (k = 1..n-1 in production);
    equivalently the Hessian has no kernel in the fixed space (nonzero block
    determinants beta_k^2 - alpha_k^2 (1 - phi_k) and a nonzero, finite
    rank-one block 2a^2 V''). Raises DegenerateAmplitudeError naming every
    failing condition otherwise."""
    v2 = pot(a * a, 2)
    failures = []
    if abs(v2) <= TOL_DEG:
        failures.append(f"V''(a^2) = {v2:.3e} vanishes")
    if not TOL_DEG < abs(2.0 * a * a * v2) < np.inf:
        failures.append(f"rank-one block 2 a^2 V''(a^2) = {2 * a * a * v2:.3e} "
                        "vanishes or overflows")
    margins = np.abs(bd.phi - bd.gamma)
    dets = np.square(bd.beta) - np.square(bd.alpha) * (1.0 - bd.phi)
    for k, margin, det in zip(bd.k, margins, dets):
        if margin <= TOL_DEG:
            failures.append(f"phi_{k} = gamma_{k} within {TOL_DEG:g} "
                            f"(margin {margin:.3e})")
        if abs(det) <= TOL_DEG:
            failures.append(f"block determinant {k} vanishes ({det:.3e})")
    if failures:
        raise DegenerateAmplitudeError("; ".join(failures))


@dataclass
class ResonanceRecord:
    """nu_j^{jsign} = l * nu_k^{ksign} within TOL_RES (j != k)."""

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


def check_nonresonant(bd: BlockData) -> ResonanceReport:
    """Scan the block table bd for nu_j^+/- = l nu_k^+/- (j != k,
    1 <= l <= l_max) over every positive candidate onset; flags the 1:1 case
    phi_k = 1 separately. Records and 1:1 modes are labelled by bd.k.

    For nu_k > TOL_RES the window |nu_j - l nu_k| < TOL_RES is narrower than
    2 nu_k, so only l = floor(nu_j / nu_k) and that plus one can fall in it;
    the scan tests those two per (k, j) pair."""
    nus = np.stack([bd.nu_plus, bd.nu_minus], axis=-1).ravel()
    real = np.abs(nus.imag) <= TOL_RES
    onset = real & (nus.real > TOL_RES)
    l_max = 1
    if onset.any():
        l_max = int(min(L_MAX_CAP,
                        np.ceil(np.abs(nus).max() / nus.real[onset].min())))
    nu_k = np.where(onset, nus.real, 1.0)[:, None, None]
    nu_j = nus.real[None, :, None]
    l = np.floor(nu_j / nu_k) + np.array([0.0, 1.0])      # (2n-2, 2n-2, 2)
    delta = np.abs(nu_j - l * nu_k)
    mode = np.repeat(np.ravel(bd.k), 2)
    pair = onset[:, None] & real[None, :] & (mode[:, None] != mode[None, :])
    hit = pair[..., None] & (l >= 1) & (l <= l_max) & (delta < TOL_RES)
    sign = (+1, -1)
    records = [ResonanceRecord(int(mode[i]), sign[i % 2], int(mode[j]),
                               sign[j % 2], int(l[i, j, c]), float(delta[i, j, c]))
               for i, j, c in zip(*np.nonzero(hit))]
    one_to_one = [int(k) for k in
                  mode[0::2][np.abs(nus[0::2] - nus[1::2]) < TOL_RES]]
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


def _regime(bd, n: int) -> np.ndarray:
    """Case label of every mode in bd, shaped like bd.k: 'a', 'b', 'hopf'
    (phi_k >= 1) or 'none'."""
    return np.select([bd.phi < bd.gamma,
                      (bd.gamma < bd.phi) & (bd.phi < 1.0) & (2 * bd.k <= n),
                      bd.phi >= 1.0], ["a", "b", "hopf"], "none")


def enumerate_bifurcations(cfg: LatticeConfig, pot: Potential,
                           a: float) -> list:
    """All bifurcation onsets at amplitude a: case (a) modes (k = 1..n-1)
    contribute nu_k^+, case (b) modes (k <= n/2) contribute both nu_k^+/-.
    Modes with phi_k >= 1 contribute none (1:1/Hopf territory)."""
    return _enumerate(cfg, pot, a)[0]


def _enumerate(cfg, pot, a) -> tuple:
    """(onsets, resonance report) from one block table and one scan."""
    bd = block_data(cfg, pot, a, np.arange(1, cfg.n))
    check_nondegenerate(pot, a, bd)
    res = check_nonresonant(bd)
    regimes = _regime(bd, cfg.n)
    near = np.minimum(np.abs(bd.phi - bd.gamma), np.abs(bd.phi - 1.0)) < NEAR_TOL
    points = []
    for i in np.flatnonzero((regimes == "a") | (regimes == "b")):
        k, regime = int(bd.k[i]), str(regimes[i])
        points.append(_make_point(k, +1, bd.nu_plus[i].real, regime, res, near[i]))
        if regime == "b":
            points.append(_make_point(k, -1, bd.nu_minus[i].real, "b", res, near[i]))
    return points, res


def _make_point(k, sign, nu, regime, res: ResonanceReport, near) -> BifurcationPoint:
    recs = [r for r in res.records if r.k == k and r.ksign == sign]
    # A record nu_j = l nu_k means a bigger (or equal) frequency is resonant
    # with this onset; the bifurcation is only guaranteed at the biggest one.
    suppressed = bool(recs)
    return BifurcationPoint(k=k, sign=sign, nu_onset=float(nu), regime=regime,
                            resonances=recs, near_degenerate=bool(near),
                            suppressed=suppressed)


@dataclass
class Thresholds:
    a_hopf: Optional[float]    # smallest a > 0 with phi_k(a) = 1
    a_gamma: Optional[float]   # smallest a > 0 with phi_k(a) = gamma_k


def _scan_root(g) -> Optional[float]:
    """First root of g on (0, A_MAX]: g is evaluated on the whole grid at once
    and the first zero or sign change is refined by brentq."""
    grid = np.linspace(0.0, A_MAX, SCAN_SAMPLES + 1)[1:]
    sign = np.sign(g(grid))
    hits = np.flatnonzero((sign[:-1] == 0) | (sign[:-1] * sign[1:] < 0))
    if not hits.size:
        return None
    i = hits[0]
    if sign[i] == 0:
        return float(grid[i])
    from scipy.optimize import brentq  # here, so the package imports numpy alone
    return float(brentq(g, grid[i], grid[i + 1], xtol=1e-14, rtol=1e-15))


def threshold_by_bisection(cfg: LatticeConfig, pot: Potential, k: int,
                           target: float) -> Optional[float]:
    """Smallest root of phi_k(a) = target on (0, A_MAX], by scan + bisection.
    Works for any potential; used as cross-check for the closed forms."""
    return _scan_root(lambda a: block_data(cfg, pot, a, k).phi - target)


def amplitude_thresholds(cfg: LatticeConfig, pot: Potential,
                         k: int) -> Thresholds:
    """Amplitudes where phi_k crosses 1 (Hopf collision) and gamma_k
    (standing-wave degeneracy). Closed forms for cubic and saturable,
    bisection otherwise; None when no positive root exists."""
    if not 1 <= k <= cfg.n - 1:
        raise ValueError(f"mode k must be in 1..n-1, got {k}")
    alpha, beta = alpha_beta(cfg, k)
    gamma = 1.0 - np.square(beta / alpha)     # as in block_data
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
        a_hopf = threshold_by_bisection(cfg, pot, k, 1.0)
        a_gamma = threshold_by_bisection(cfg, pot, k, gamma)
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
