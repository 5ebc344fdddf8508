"""Onset enumeration, non-degeneracy / non-resonance guards and amplitude
thresholds for the traveling-wave bifurcations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateAmplitudeError, DnlsRingError
from .lattice import LatticeConfig, Potential
from .spectral import BlockData, block_data

L_MAX_CAP = 64  # resonance scan bound; harmonics beyond the Fourier cutoff
                # of the continuation cannot be resolved anyway
TOL_DEG = 1e-9       # V'', phi_k - gamma_k or a block determinant this small
                     # counts as zero: the amplitude is degenerate
TOL_RES = 1e-9       # frequencies this close are equal (resonant)
NEAR_TOL = 1e-6      # onsets this close to phi_k = gamma_k or 1 are flagged
A_MAX = 10.0         # polynomial thresholds are sought on (0, A_MAX]
ROOT_IMAG_TOL = 1e-6  # a root s = a^2 with |Im s| <= this |s| is real


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
    1 <= l <= L_MAX_CAP) over every positive candidate onset; flags the 1:1
    case phi_k = 1 separately. Records and 1:1 modes are labelled by bd.k.

    For nu_k > TOL_RES the window |nu_j - l nu_k| < TOL_RES is narrower than
    2 nu_k, so only l = floor(nu_j / nu_k) and that plus one can fall in it;
    the scan tests those two per (k, j) pair. No l above ceil(nu_j / nu_k)
    can hit: floor + 1 exceeds it only when nu_j / nu_k is an integer, and
    then its delta is nu_k > TOL_RES. So L_MAX_CAP is the only bound."""
    nus = np.stack([bd.nu_plus, bd.nu_minus], axis=-1).ravel()
    real = np.abs(nus.imag) <= TOL_RES
    onset = real & (nus.real > TOL_RES)
    nu_k = np.where(onset, nus.real, 1.0)[:, None, None]
    nu_j = nus.real[None, :, None]
    l = np.floor(nu_j / nu_k) + np.array([0.0, 1.0])      # (2n-2, 2n-2, 2)
    delta = np.abs(nu_j - l * nu_k)
    mode = np.repeat(np.ravel(bd.k), 2)
    pair = onset[:, None] & real[None, :] & (mode[:, None] != mode[None, :])
    hit = pair[..., None] & (l >= 1) & (l <= L_MAX_CAP) & (delta < TOL_RES)
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
        for sign, nu in [(+1, bd.nu_plus[i]), (-1, bd.nu_minus[i])][: 1 + (regime == "b")]:
            # A record nu_j = l nu_k means a bigger (or equal) frequency is resonant
            # with this onset; the bifurcation is only guaranteed at the biggest one.
            recs = [r for r in res.records if r.k == k and r.ksign == sign]
            points.append(BifurcationPoint(k, sign, float(nu.real), regime, recs,
                                           bool(near[i]), suppressed=bool(recs)))
    return points, res


@dataclass
class Thresholds:
    a_hopf: Optional[float]    # smallest a > 0 with phi_k(a) = 1
    a_gamma: Optional[float]   # smallest a > 0 with phi_k(a) = gamma_k


def amplitude_thresholds(cfg: LatticeConfig, pot: Potential) -> list:
    """Thresholds of the modes k = 1..n-1, in order, from one block table at
    a = 0 (alpha_k and gamma_k do not depend on a): the amplitudes where
    phi_k crosses 1 (Hopf collision) and gamma_k (standing-wave degeneracy),
    in closed form; None when no root exists (c = 0 makes phi_k = 0 for every
    a; a polynomial's roots are sought on (0, A_MAX])."""
    bd = block_data(cfg, pot, 0.0, np.arange(1, cfg.n))
    if pot.kind != "polynomial" and pot.params[0] == 0.0:
        return [Thresholds(a_hopf=None, a_gamma=None) for _ in bd.k]
    root = {"cubic": _cubic_root, "saturable": _saturable_root,
            "polynomial": _polynomial_root}[pot.kind]
    return [Thresholds(*(root(pot.params, alpha, t) for t in (1.0, gamma)))
            for alpha, gamma in zip(bd.alpha, bd.gamma)]


def _polynomial_root(coeffs: tuple, alpha: float,
                     target: float) -> Optional[float]:
    # phi(a) = target  <=>  s V''(s) - target alpha / 2 = 0 in s = a^2; on
    # target = 0 that is V''(s) = 0, so the root s = 0 is never computed.
    poly = np.polynomial.polynomial
    p = poly.polyder(coeffs, 2)
    if target * alpha != 0.0:
        p = poly.polymulx(p)
        p[0] = -0.5 * target * alpha
    # In t = s / A_MAX^2 the window is (0, 1]; top terms below roundoff there
    # only add far roots that spoil the small ones, so they are trimmed. Each
    # root takes Newton steps kept only where they lower |q| (they can jump
    # off a double root, which splits by ~sqrt(eps) into |Im t| <~ 1e-8 t).
    with np.errstate(all="ignore"):
        q = p * (A_MAX * A_MAX) ** np.arange(len(p))
        if not np.isfinite(q).all():
            raise DnlsRingError(f"thresholds: s V''(s) overflows on (0, {A_MAX:g}^2]")
        t = poly.polyroots(poly.polytrim(q, np.finfo(float).eps * np.abs(q).max()))
        for _ in range(3):
            new = t - poly.polyval(t, q) / poly.polyval(t, poly.polyder(q))
            t = np.where(abs(poly.polyval(new, q)) < abs(poly.polyval(t, q)), new, t)
    t = t.real[(np.abs(t.imag) <= ROOT_IMAG_TOL * np.abs(t))
               & (t.real > 0.0) & (t.real <= 1.0)]
    return float(A_MAX * np.sqrt(t.min())) if t.size else None


def _cubic_root(params: tuple, alpha: float, target: float) -> Optional[float]:
    # phi(a) = 2 c a^2 / alpha = target  =>  a = sqrt(target alpha / 2c)
    val = target * alpha / (2.0 * params[0])
    if val <= 0.0:
        return None
    return float(np.sqrt(val))


def _saturable_root(params: tuple, alpha: float, target: float) -> Optional[float]:
    # phi(a) = -(2c/alpha) (a / (1 + a^2))^2 = target; r = a/(1+a^2) in (0, 1/2]
    val = -target * alpha / (2.0 * params[0])
    if val <= 0.0:
        return None
    r = np.sqrt(val)
    if r > 0.5:
        return None
    # a^2 r - a + r = 0, smaller positive root
    return float((1.0 - np.sqrt(1.0 - 4.0 * r * r)) / (2.0 * r))
