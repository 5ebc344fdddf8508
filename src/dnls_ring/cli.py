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
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .bifurcation import (_enumerate, amplitude_thresholds,
                          enumerate_bifurcations)
from .continuation import ContinuationOptions, continue_branch, extrapolate_onset
from .errors import ConfigError, DnlsRingError
from .lattice import LatticeConfig, Potential, make_standing_wave
from .spectral import block_data, classify_stability, full_spectrum
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


# Size caps: at n = 512 each resonance-scan array is 2 (2n - 2)^2 doubles,
# 16 MiB, and the midpoint Newton matrix is banded, 16 x 2n; at nh = 256 the
# bordered one is 2 MiB; trajectory states, 10^6 steps and 6e6 steps x n, 96 MB.
MAX_TRAJECTORY_STEPS = 1_000_000
_SIGNS = {+1: "+", -1: "-"}   # an onset's sign in CSVs and file names


def _section(sec, name: str, *keys: str) -> dict:
    """sec, a JSON object that names no key outside keys; a null reads as {}
    below the top level (name '')."""
    if not isinstance(sec, dict) and (sec is not None or not name):
        raise ConfigError(f"{name or 'config'} must be a JSON object, "
                          f"got {type(sec).__name__}")
    for key in sec or ():
        if key not in keys:
            raise ConfigError(f"{name}{name and '.'}{key} is not a setting; "
                              f"{name or 'config'} takes {', '.join(keys)}")
    return sec or {}


def parse_config(doc: dict) -> RunConfig:
    top = _section(doc, "", "lattice", "potential", "amplitude", "sweep",
                   "mode", "sign", "continuation", "integration",
                   "perturbation", "output_dir", "verify_points",
                   "snapshot_stride")
    mode = _number(top.get("mode", 1), "mode", integer=True, low=1)
    verify_points = _number(top.get("verify_points", 5), "verify_points",
                            integer=True, low=1)
    snapshot_stride = _number(top.get("snapshot_stride", 10),
                              "snapshot_stride", integer=True, low=1)
    lat = _section(top.get("lattice"), "lattice", "n", "m")
    cfg = LatticeConfig(
        _number(lat.get("n"), "lattice.n", integer=True, high=512),
        _number(lat.get("m"), "lattice.m", integer=True))
    pot = top.get("potential")
    kind = pot.get("kind") if isinstance(pot, dict) else None
    if kind in ("cubic", "saturable"):
        c = _section(pot, "potential", "kind", "c").get("c")
        pot = Potential(kind, (_number(c, "potential.c"),))
    elif kind == "polynomial":
        _section(pot, "potential", "kind", "coefficients")
        coeffs = pot.get("coefficients")
        if not isinstance(coeffs, list) or not coeffs:
            raise ConfigError("polynomial potential requires a non-empty list "
                              f"'coefficients', got {coeffs!r}")
        pot = Potential.polynomial([_number(c, "potential.coefficients")
                                    for c in coeffs])
    else:   # first a non-object, or a key that no kind takes
        _section(pot, "potential", "kind", "c", "coefficients")
        raise ConfigError(f"unknown potential kind {kind!r}")

    amplitude, sweep = top.get("amplitude"), top.get("sweep")
    if amplitude is not None:
        amplitude = _number(amplitude, "amplitude", low=0.0)
    if sweep is not None:
        sw = _section(sweep, "sweep", "a_min", "a_max", "steps")
        a_min = _number(sw.get("a_min"), "sweep.a_min", low=0.0)
        steps = _number(sw.get("steps"), "sweep.steps", integer=True, low=2,
                        high=10_000)
        sweep = (a_min, _number(sw.get("a_max"), "sweep.a_max", strict=True,
                                low=a_min), steps)
    sign = str(top.get("sign", "+"))
    if sign not in ("+", "-"):
        raise ConfigError(f"sign must be '+' or '-', got {sign!r}")
    cont = _section(top.get("continuation"), "continuation", "n_harmonics",
                    "max_steps")
    options = ContinuationOptions(
        _number(cont.get("n_harmonics", ContinuationOptions.n_harmonics),
                "continuation.n_harmonics", integer=True, low=1, high=256),
        _number(cont.get("max_steps", ContinuationOptions.max_steps),
                "continuation.max_steps", integer=True, low=1, high=10_000))
    integ = _section(top.get("integration"), "integration", "dt", "t_final",
                     "periods")
    dt = _number(integ.get("dt", 1e-3), "integration.dt", low=0.0, strict=True)
    periods = _number(integ.get("periods", 1), "integration.periods",
                      integer=True, low=1)
    t_final = integ.get("t_final")
    if t_final is not None:
        t_final = _number(t_final, "integration.t_final", low=dt)
        cap = min(MAX_TRAJECTORY_STEPS, 6 * MAX_TRAJECTORY_STEPS // cfg.n)
        if t_final / dt > cap:
            raise ConfigError("integration.t_final / integration.dt is over "
                              f"{cap} steps at n = {cfg.n}")
    pert = _section(top.get("perturbation"), "perturbation", "scale", "seed")
    if pert:
        pert = {"scale": _number(pert.get("scale", 0.0), "perturbation.scale"),
                "seed": _number(pert.get("seed", 0), "perturbation.seed",
                                integer=True, low=0)}
    out_dir = top.get("output_dir", ".")
    if not isinstance(out_dir, str):
        raise ConfigError(f"output_dir must be a string, got {out_dir!r}")
    return RunConfig(cfg, pot, amplitude, sweep, mode, +1 if sign == "+" else -1,
                     options, dt, periods, t_final, pert or None, Path(out_dir),
                     verify_points, snapshot_stride)


def write_csv(path: Path, header: list, rows: Iterable) -> None:
    """Rewrite path in place, then cut it to the written length: O_TRUNC
    frees an existing file's blocks only to allocate them again. A row of
    numbers is one "%.17g" format; bools and ints read the same under it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="", opener=lambda p, flags: os.open(
            p, flags & ~os.O_TRUNC, 0o666)) as fh:   # open's mode, not 0o777
        try:
            w = csv.writer(fh)
            w.writerow(header)
            for row in map(tuple, rows):
                try:
                    fh.write(line % row)
                except TypeError:   # None, a string or a ragged row: per cell
                    w.writerow(["" if x is None else x if isinstance(x, str)
                                else "%.17g" % x for x in row])
        finally:   # a failed write keeps its prefix and loses the old tail
            fh.flush()
            # a pipe cannot tell, and a device reads size 0 (ftruncate: EINVAL)
            if fh.seekable() and os.fstat(fh.fileno()).st_size > fh.tell():
                fh.truncate()


def read_csv(path) -> tuple:
    """(header, rows-of-strings) for any table emitted by this module."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
        return header, rows


def _require_amplitude(config: RunConfig) -> float:
    if config.amplitude is None:
        raise ConfigError("this command requires a scalar 'amplitude'")
    return config.amplitude


def cmd_spectrum(config: RunConfig) -> None:
    cfg = config.lattice
    # checked before any write; k = n: alpha = beta = +0, no phi or onset
    bd = block_data(cfg, config.potential, _require_amplitude(config))
    rows = list(zip(bd.k, bd.alpha, bd.beta, bd.phi, bd.gamma, bd.nu_plus.real,
                    bd.nu_plus.imag, bd.nu_minus.real, bd.nu_minus.imag))
    rows.append([cfg.n, 0.0, 0.0, None, None, 0.0, 0.0, 0.0, 0.0])
    write_csv(config.out_dir / "spectrum.csv",
              ["k", "alpha", "beta", "phi", "gamma",
               "nu_plus_re", "nu_plus_im", "nu_minus_re", "nu_minus_im"], rows)
    write_csv(config.out_dir / "eigenvalues.csv", ["re", "im"],
              [[v.real, v.imag] for v in full_spectrum(bd)])


def cmd_stability(config: RunConfig) -> None:
    cfg, pot = config.lattice, config.potential
    rows = []
    for a in (np.linspace(*config.sweep) if config.sweep is not None
              else [_require_amplitude(config)]):
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


def cmd_bifurcations(config: RunConfig) -> None:
    points, res = _enumerate(config.lattice, config.potential,
                             _require_amplitude(config))
    rows = [[p.k, _SIGNS[p.sign], p.nu_onset, p.regime, p.near_degenerate,
             p.suppressed, ";".join(f"1:{r.l}_with_nu_{r.j}{_SIGNS[r.jsign]}"
                                    for r in p.resonances)] for p in points]
    rows += [[k, "", "", "hopf", "", "", "1:1"] for k in res.one_to_one]
    write_csv(config.out_dir / "bifurcations.csv",
              ["k", "sign", "nu_onset", "regime", "near_degenerate",
               "suppressed", "flags"], rows)


def _run_branch(config: RunConfig, opts: ContinuationOptions) -> tuple:
    cfg, pot = config.lattice, config.potential
    a = _require_amplitude(config)
    sw = make_standing_wave(cfg, pot, a)
    points = enumerate_bifurcations(cfg, pot, a)
    match = [p for p in points if p.k == config.mode and p.sign == config.sign]
    if not match:
        raise ConfigError(
            f"no bifurcation onset for mode k={config.mode} "
            f"sign={_SIGNS[config.sign]} at a={a:g}")
    return sw, continue_branch(cfg, pot, sw, match[0], opts)


def cmd_continue(config: RunConfig) -> None:
    _, branch = _run_branch(config, config.options)
    k, sgn = config.mode, _SIGNS[config.sign]
    rows = [[i, pt.nu, pt.amplitude, pt.residual_norm, pt.profile.cos_a[0],
             pt.profile.cos_a[1], pt.profile.sin_b[0]]
            for i, pt in enumerate(branch.points)]
    write_csv(config.out_dir / f"branch_k{k}{sgn}.csv",
              ["step", "nu", "amplitude", "residual_norm", "a0", "a1", "b1"], rows)
    last = len(branch.points) - 1
    for i in sorted({*range(0, last, config.snapshot_stride), last}):
        prof = branch.points[i].profile
        write_csv(config.out_dir / f"profile_step{i}.csv", ["l", "a_l", "b_l"],
                  [[l, prof.cos_a[l], prof.sin_b[l - 1] if l else 0.0]
                   for l in range(prof.nh + 1)])
    print(f"branch k={k}{sgn}: {len(branch.points)} points, "
          f"termination={branch.termination}, "
          f"onset extrapolation={extrapolate_onset(branch):.9g}")


def cmd_verify(config: RunConfig) -> None:
    cfg, pot, k = config.lattice, config.potential, config.mode
    sw, branch = _run_branch(config, replace(config.options, max_steps=min(
        config.options.max_steps, config.verify_points)))
    rows, cap = [], min(MAX_TRAJECTORY_STEPS, 6 * MAX_TRAJECTORY_STEPS // cfg.n)
    for i, pt in enumerate(branch.points):
        u0 = sw.equilibrium + embed_reduced(pt.profile, cfg).sample(0.0)[0].ravel()
        # whole steps per period, so the wave checks can resample one period
        P = 2.0 * np.pi / pt.nu
        per_period = max(1, round(min(P / config.dt, MAX_TRAJECTORY_STEPS + 1)))
        if config.periods * per_period > cap:
            raise ConfigError(f"integration.dt and integration.periods ask for over "
                              f"{cap} steps at n = {cfg.n}, branch point {i}")
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
    sw = make_standing_wave(cfg, pot, _require_amplitude(config))
    u0 = sw.equilibrium
    if config.perturbation:
        rng = np.random.default_rng(config.perturbation["seed"])
        u0 = u0 + config.perturbation["scale"] * rng.standard_normal(len(u0))
    if config.t_final is None:
        raise ConfigError("simulate requires integration.t_final")
    traj = integrate(cfg, pot, sw.omega, u0, config.dt, config.t_final)
    header = ["t"] + [f"s{j}_{part}" for j in range(cfg.n) for part in ("re", "im")]
    rows = ([t, *u] for t, u in zip(traj.times, traj.states))
    write_csv(config.out_dir / "trajectory.csv", header, rows)


COMMANDS = {"spectrum": cmd_spectrum, "stability": cmd_stability,
            "thresholds": cmd_thresholds, "bifurcations": cmd_bifurcations,
            "continue": cmd_continue, "verify": cmd_verify, "simulate": cmd_simulate}


_PARSER = argparse.ArgumentParser(
    prog="dnls-ring",
    description="Standing-wave spectra, stability and traveling-wave "
                "branches of the periodic discrete NLS lattice.")
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("--config", required=True, help="JSON config document")
_PARSER.add_argument("--out", default=None, help="output directory")
_PARSER.add_argument("--k", type=int, default=None, help="mode override")
_PARSER.add_argument("--sign", choices=["+", "-"], help="onset sign override")


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
        with np.errstate(all="ignore"):   # non-finite values exit 3 at checks
            config = parse_config(doc)
            COMMANDS[args.command](config)
    except (UnicodeDecodeError, RecursionError) as exc:
        why = (f"is not UTF-8: {exc}" if isinstance(exc, UnicodeDecodeError)
               else "nests too deeply to parse")
        print(f"invalid config: {args.config} {why}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, ConfigError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"invalid config: {exc}" if config is None else
              f"cannot write outputs to {config.out_dir}: {exc}", file=sys.stderr)
        return 2
    except (DnlsRingError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure in '{args.command}': {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
