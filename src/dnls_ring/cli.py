"""Batch front door: JSON config in, CSV tables out.

Exit codes: 0 success, 2 invalid config (message names the violated
invariant) or unwritable outputs (message names the path), 3 numerical
failure (message names the failing stage). Numbers are serialized with 17
significant digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .bifurcation import (_enumerate, amplitude_thresholds,
                          enumerate_bifurcations)
from .continuation import ContinuationOptions, continue_branch, extrapolate_onset
from .errors import ConfigError, DnlsRingError
from .lattice import LatticeConfig, Potential, make_standing_wave
from .spectral import _block_table, classify_stability, full_spectrum
from .symmetry import embed_reduced
from .verify import (closure_error, integrate, invariant_drift,
                     spatial_period_error, traveling_wave_error)


@dataclass
class RunConfig:
    lattice: LatticeConfig
    potential: Potential
    amplitude: Optional[float]
    sweep: Optional[tuple]          # (a_min, a_max, steps)
    mode: int
    sign: int
    options: ContinuationOptions
    dt: float
    periods: int
    t_final: Optional[float]
    perturbation: Optional[dict]
    out_dir: Path
    verify_points: int
    snapshot_stride: int


def _section(doc: dict, key: str) -> dict:
    """doc[key] as a JSON object; {} when the key is absent or null."""
    sec = doc.get(key)
    if sec is None:
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"{key} must be a JSON object, got {type(sec).__name__}")
    return sec


# Size caps. At n = 512 the dense spectrum is (2n)^2 doubles, 8 MiB (each
# resonance-scan array twice that); the midpoint Newton matrix is banded,
# only 16 x 2n doubles. At nh = 256 the reduced system's bordered Newton
# matrix is (2nh + 2)^2 doubles, 2 MiB. At 10^6 steps a trajectory's
# (steps + 1) x 2n doubles are 96 MB at n = 6.
MAX_SITES = 512
MAX_TRAJECTORY_STEPS = 1_000_000
MAX_SWEEP_STEPS = 10_000
CONTINUATION_CAPS = {"n_harmonics": 256, "max_steps": 10_000}


def _number(v, name: str, *, integer: bool = False, low: float = -np.inf,
            strict: bool = False, high: float = np.inf):
    """v as a finite JSON number (an integer if asked) that is at least low,
    or above it if strict, and at most high. Anything else, a missing value
    (None) included, is a ConfigError naming the key."""
    try:
        ok = (type(v) in (int, float) and math.isfinite(v)
              and not (integer and v % 1) and v <= high
              and (v > low if strict else v >= low))
    except OverflowError:             # an integer too large for a float
        ok = False
    if not ok:
        rule = "an integer" if integer else "a number"
        if low > -np.inf:
            rule += f" {'>' if strict else '>='} {low:g}"
        if high < np.inf:
            rule += f" <= {high:g}"
        raise ConfigError(f"{name} must be finite and {rule}, got {v!r}")
    return int(v) if integer else float(v)


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
    lat = _section(doc, "lattice")
    cfg = LatticeConfig(n=_number(lat.get("n"), "lattice.n", integer=True,
                                  high=MAX_SITES),
                        m=_number(lat.get("m"), "lattice.m", integer=True))

    pot_doc = _section(doc, "potential")
    kind = pot_doc.get("kind")
    if kind in ("cubic", "saturable"):
        pot = Potential(kind, (_number(pot_doc.get("c"), "potential.c"),))
    elif kind == "polynomial":
        coeffs = pot_doc.get("coefficients")
        if not isinstance(coeffs, list) or not coeffs:
            raise ConfigError("polynomial potential requires a non-empty list "
                              f"'coefficients', got {coeffs!r}")
        pot = Potential.polynomial([_number(c, "potential.coefficients")
                                    for c in coeffs])
    else:
        raise ConfigError(f"unknown potential kind {kind!r}")

    amplitude = doc.get("amplitude")
    if amplitude is not None:
        amplitude = _number(amplitude, "amplitude", low=0.0)
    sweep = None
    if doc.get("sweep") is not None:
        sw = _section(doc, "sweep")
        a_min = _number(sw.get("a_min"), "sweep.a_min", low=0.0)
        sweep = (a_min,
                 _number(sw.get("a_max"), "sweep.a_max", low=a_min, strict=True),
                 _number(sw.get("steps"), "sweep.steps", integer=True, low=2,
                         high=MAX_SWEEP_STEPS))

    sign_str = str(doc.get("sign", "+"))
    if sign_str not in ("+", "-"):
        raise ConfigError(f"sign must be '+' or '-', got {sign_str!r}")

    cont = _section(doc, "continuation")
    for key in cont:
        if key not in CONTINUATION_CAPS:
            raise ConfigError(f"continuation.{key} is not a setting; the "
                              "block takes n_harmonics and max_steps only")
    options = ContinuationOptions(**{
        key: _number(v, f"continuation.{key}", integer=True, low=1,
                     high=CONTINUATION_CAPS[key])
        for key, v in cont.items()})

    integ = _section(doc, "integration")
    dt = _number(integ.get("dt", 1e-3), "integration.dt", low=0.0, strict=True)
    t_final = integ.get("t_final")
    if t_final is not None:
        t_final = _number(t_final, "integration.t_final", low=dt)
        if t_final / dt > MAX_TRAJECTORY_STEPS:
            raise ConfigError("integration.t_final / integration.dt is over "
                              f"{MAX_TRAJECTORY_STEPS} steps")
    pert = _section(doc, "perturbation")
    out_dir = doc.get("output_dir", ".")
    if not isinstance(out_dir, str):
        raise ConfigError(f"output_dir must be a string, got {out_dir!r}")
    return RunConfig(
        lattice=cfg,
        potential=pot,
        amplitude=amplitude,
        sweep=sweep,
        mode=_number(doc.get("mode", 1), "mode", integer=True, low=1),
        sign=+1 if sign_str == "+" else -1,
        options=options,
        dt=dt,
        periods=_number(integ.get("periods", 1), "integration.periods",
                        integer=True, low=1),
        t_final=t_final,
        perturbation={
            "scale": _number(pert.get("scale", 0.0), "perturbation.scale"),
            "seed": _number(pert.get("seed", 0), "perturbation.seed",
                            integer=True, low=0),
        } if pert else None,
        out_dir=Path(out_dir),
        verify_points=_number(doc.get("verify_points", 5), "verify_points",
                              integer=True, low=1),
        snapshot_stride=_number(doc.get("snapshot_stride", 10),
                                "snapshot_stride", integer=True, low=1),
    )


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.17g}"


def write_csv(path: Path, header: list, rows: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


def read_csv(path) -> tuple:
    """(header, rows-of-strings) for any table emitted by this module."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        return header, list(r)


def _require_amplitude(config: RunConfig) -> float:
    if config.amplitude is None:
        raise ConfigError("this command requires a scalar 'amplitude'")
    return config.amplitude


def _amplitudes(config: RunConfig) -> np.ndarray:
    if config.sweep is not None:
        a0, a1, steps = config.sweep
        return np.linspace(a0, a1, steps)
    return np.array([_require_amplitude(config)])


def cmd_spectrum(config: RunConfig) -> None:
    cfg, pot = config.lattice, config.potential
    a = _require_amplitude(config)
    # both checked before any write; k = n: alpha = beta = +0, no phi or onset
    bd, eig = _block_table(cfg, pot, a), full_spectrum(cfg, pot, a)
    rows = list(zip(bd.k, bd.alpha, bd.beta, bd.phi, bd.gamma, bd.nu_plus.real,
                    bd.nu_plus.imag, bd.nu_minus.real, bd.nu_minus.imag))
    rows.append([cfg.n, 0.0, 0.0, None, None, 0.0, 0.0, 0.0, 0.0])
    write_csv(config.out_dir / "spectrum.csv",
              ["k", "alpha", "beta", "phi", "gamma",
               "nu_plus_re", "nu_plus_im", "nu_minus_re", "nu_minus_im"], rows)
    order = np.lexsort((eig.imag, eig.real))
    write_csv(config.out_dir / "eigenvalues.csv", ["re", "im"],
              [[v.real, v.imag] for v in eig[order]])


def cmd_stability(config: RunConfig) -> None:
    cfg, pot = config.lattice, config.potential
    rows = []
    for a in _amplitudes(config):
        v = classify_stability(cfg, pot, float(a))
        rows.append([a, v.sigma, v.covered, v.covered, v.phi_1,
                     v.max_real_part, v.empirical_stable])
    write_csv(config.out_dir / "stability.csv",
              ["a", "sigma", "stable", "covered", "phi_1",
               "max_real_part", "empirical_stable"], rows)


def cmd_thresholds(config: RunConfig) -> None:
    ths = amplitude_thresholds(config.lattice, config.potential)
    write_csv(config.out_dir / "thresholds.csv", ["k", "a_hopf", "a_gamma"],
              [[k, th.a_hopf, th.a_gamma] for k, th in enumerate(ths, start=1)])


def _sign_char(sign: int) -> str:
    return "+" if sign > 0 else "-"


def _flag_string(p) -> str:
    return ";".join(f"1:{r.l}_with_nu_{r.j}{_sign_char(r.jsign)}"
                    for r in p.resonances)


def cmd_bifurcations(config: RunConfig) -> None:
    cfg, pot = config.lattice, config.potential
    a = _require_amplitude(config)
    points, res = _enumerate(cfg, pot, a)
    rows = [[p.k, _sign_char(p.sign), p.nu_onset, p.regime,
             p.near_degenerate, p.suppressed, _flag_string(p)] for p in points]
    for k in res.one_to_one:
        rows.append([k, "", "", "hopf", "", "", "1:1"])
    write_csv(config.out_dir / "bifurcations.csv",
              ["k", "sign", "nu_onset", "regime", "near_degenerate",
               "suppressed", "flags"], rows)


def _run_branch(config: RunConfig) -> tuple:
    cfg, pot = config.lattice, config.potential
    a = _require_amplitude(config)
    sw = make_standing_wave(cfg, pot, a)
    points = enumerate_bifurcations(cfg, pot, a)
    match = [p for p in points if p.k == config.mode and p.sign == config.sign]
    if not match:
        raise ConfigError(
            f"no bifurcation onset for mode k={config.mode} "
            f"sign={_sign_char(config.sign)} at a={a:g}")
    branch = continue_branch(cfg, pot, sw, match[0], config.options)
    return sw, branch


def cmd_continue(config: RunConfig) -> None:
    _, branch = _run_branch(config)
    k, sgn = config.mode, _sign_char(config.sign)
    rows = []
    for i, pt in enumerate(branch.points):
        rows.append([i, pt.nu, pt.amplitude, pt.residual_norm,
                     pt.profile.cos_a[0], pt.profile.cos_a[1],
                     pt.profile.sin_b[0]])
    write_csv(config.out_dir / f"branch_k{k}{sgn}.csv",
              ["step", "nu", "amplitude", "residual_norm", "a0", "a1", "b1"],
              rows)
    snaps = set(range(0, len(branch.points), config.snapshot_stride))
    snaps.add(len(branch.points) - 1)
    for i in sorted(snaps):
        prof = branch.points[i].profile
        prows = [[0, prof.cos_a[0], 0.0]]
        for l in range(1, prof.nh + 1):
            prows.append([l, prof.cos_a[l], prof.sin_b[l - 1]])
        write_csv(config.out_dir / f"profile_step{i}.csv",
                  ["l", "a_l", "b_l"], prows)
    print(f"branch k={k}{sgn}: {len(branch.points)} points, "
          f"termination={branch.termination}, "
          f"onset extrapolation={extrapolate_onset(branch):.9g}")


def cmd_verify(config: RunConfig) -> None:
    cfg, pot = config.lattice, config.potential
    sw, branch = _run_branch(config)
    k = config.mode
    rows = []
    for i, pt in enumerate(branch.points[: config.verify_points]):
        loop = embed_reduced(pt.profile, cfg)
        u0 = sw.equilibrium + loop.sample(0.0)[0].ravel()
        # whole steps per period, so the wave checks can resample one period
        P = 2.0 * np.pi / pt.nu
        per_period = max(1, round(min(P / config.dt, MAX_TRAJECTORY_STEPS + 1)))
        if config.periods * per_period > MAX_TRAJECTORY_STEPS:
            raise ConfigError(f"integration.dt and integration.periods ask for over "
                              f"{MAX_TRAJECTORY_STEPS} steps at branch point {i}")
        dt = P / per_period
        traj = integrate(cfg, pot, sw.omega, u0, dt, config.periods * P)
        dH, dP = invariant_drift(traj, cfg, pot, sw.omega)
        tw = traveling_wave_error(traj, sw, k, pt.nu)
        sp = spatial_period_error(traj, cfg, k, pt.nu) if cfg.n % k == 0 else None
        rows.append([i, pt.nu, closure_error(traj), dH, dP, tw, sp])
    write_csv(config.out_dir / "verify.csv",
              ["step", "nu", "closure", "dH", "dP",
               "traveling_wave_error", "spatial_period_error"], rows)


def cmd_simulate(config: RunConfig) -> None:
    cfg, pot = config.lattice, config.potential
    a = _require_amplitude(config)
    sw = make_standing_wave(cfg, pot, a)
    u0 = sw.equilibrium.copy()
    if config.perturbation:
        rng = np.random.default_rng(config.perturbation["seed"])
        u0 = u0 + config.perturbation["scale"] * rng.standard_normal(len(u0))
    if config.t_final is None:
        raise ConfigError("simulate requires integration.t_final")
    traj = integrate(cfg, pot, sw.omega, u0, config.dt, config.t_final)
    header = ["t"]
    for j in range(cfg.n):
        header += [f"s{j}_re", f"s{j}_im"]
    rows = [[t, *u] for t, u in zip(traj.times, traj.states)]
    write_csv(config.out_dir / "trajectory.csv", header, rows)


COMMANDS = {
    "spectrum": cmd_spectrum,
    "stability": cmd_stability,
    "thresholds": cmd_thresholds,
    "bifurcations": cmd_bifurcations,
    "continue": cmd_continue,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
}


_PARSER = argparse.ArgumentParser(
    prog="dnls-ring",
    description="Standing-wave spectra, stability and traveling-wave "
                "branches of the periodic discrete NLS lattice.")
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("--config", required=True, help="JSON config document")
_PARSER.add_argument("--out", default=None, help="output directory")
_PARSER.add_argument("--k", type=int, default=None, help="mode override")
_PARSER.add_argument("--sign", choices=["+", "-"], default=None,
                     help="onset sign override")


def main(argv=None) -> int:
    """Run one command; returns the exit code (0, 2 or 3)."""
    args = _PARSER.parse_args(argv)
    config = None
    try:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
        # each flag passes the same check as the key it sets
        flags = {"mode": args.k, "sign": args.sign, "output_dir": args.out}
        if isinstance(doc, dict):
            doc.update((key, v) for key, v in flags.items() if v is not None)
        config = parse_config(doc)
        COMMANDS[args.command](config)
    except UnicodeDecodeError as exc:
        print(f"invalid config: {args.config} is not UTF-8: {exc}",
              file=sys.stderr)
        return 2
    except RecursionError:
        print(f"invalid config: {args.config} nests too deeply to parse",
              file=sys.stderr)
        return 2
    except (json.JSONDecodeError, ConfigError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if config is None:
            print(f"invalid config: {exc}", file=sys.stderr)
        else:
            print(f"cannot write outputs to {config.out_dir}: {exc}",
                  file=sys.stderr)
        return 2
    except (DnlsRingError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure in '{args.command}': {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
