"""The benchmark's workloads: inputs from a seed, one round of calls into
the package, and checks of the round's outputs.

A round is a fixed list of operations whose cost does not depend on the
seed, so rounds of one workload are comparable across seeds. The seed only
moves inputs the cost is insensitive to (starting phases on an orbit,
amplitudes of spectra and stability sweeps, command order). Checks use
bench/oracle.py, never the package's own oracles. The first round is checked
in full; every later round must reproduce it exactly, since the package is
deterministic and promises byte-identical CSVs.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import oracle

HERE = Path(__file__).resolve().parent
VERIFY_POINTS = HERE / "data" / "verify_points.json"

RESIDUAL_TOL = 1e-10   # Newton tolerance of the continuation
ONSET_TOL = 1e-6       # onset extrapolation vs the closed form
REFINE_TOL = 1e-8      # nh=32 -> nh=64 profile change (spectral convergence)
POWER_TOL = 1e-10      # midpoint rule conserves the quadratic invariant P
SPECTRUM_TOL = 1e-7    # i nu against a dense eigenvalue, relative to max(1, |nu|)
ZERO_SPLIT = 1e-6      # the defective gauge zero splits by ~sqrt(eps)
PHI_TOL = 1e-9         # threshold amplitudes solve phi_k(a) = 1 or gamma_k
WAVE_SWING = 1e-3      # least swing of |u_0(t)| of a stored traveling wave

TERMINATIONS = {"max_steps", "domain_violation", "newton_failure", "nu_bound",
                "amplitude_cap"}


class Failure(Exception):
    pass


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise Failure(what)


class Workload:
    name = ""
    ops = 2              # operations per round

    def __init__(self, dr, seed: int, workdir: Path):
        self.dr = dr
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.first = None

    def prepare(self) -> None:
        """Untimed work the runner does once before the rounds and the
        set-up probes skip, such as writing input files."""

    def run_round(self) -> tuple:
        """Timed: returns (outputs, failed operations)."""
        raise NotImplementedError

    def check(self, outputs) -> None:
        """Raise Failure unless the outputs are right."""
        raise NotImplementedError

    def fingerprint(self, outputs):
        """Exact summary of a round's outputs, for the later-round check."""
        raise NotImplementedError

    def check_round(self, outputs) -> None:
        if self.first is None:
            self.check(outputs)
            self.first = self.fingerprint(outputs)
        else:
            _expect(self.fingerprint(outputs) == self.first,
                    "round output differs from the first round")


# --- shared pieces ---------------------------------------------------------

def _continue(dr, n, m, kind, c, a, k, sign, nh, max_steps):
    cfg = dr.LatticeConfig(n, m)
    pot = dr.Potential(kind, (c,))
    sw = dr.make_standing_wave(cfg, pot, a)
    onset = next(p for p in dr.enumerate_bifurcations(cfg, pot, a)
                 if p.k == k and p.sign == sign)
    branch = dr.continue_branch(cfg, pot, sw, onset, dr.ContinuationOptions(
        n_harmonics=nh, max_steps=max_steps))
    return cfg, pot, sw, branch


def _check_branch(branch, extrapolated, n, m, kind, c, a, k, sign, points, least):
    # A branch may stop early for any of the package's termination reasons;
    # it must still reach the points the workload goes on to use.
    _expect(least <= len(branch.points) <= points
            and branch.termination in TERMINATIONS,
            f"branch has {len(branch.points)} points ({branch.termination!r}), "
            f"expected {least} to {points}")
    for i, pt in enumerate(branch.points):
        res = oracle.galerkin_residual(pt.profile.cos_a, pt.profile.sin_b, pt.nu,
                                       n, m, k, kind, c, a)
        _expect(res <= RESIDUAL_TOL, f"point {i}: full-ring residual {res:.3e}")
    nu = oracle.onset_nu(n, m, kind, c, a, k, sign).real
    _expect(abs(extrapolated - nu) <= ONSET_TOL,
            f"onset extrapolation {extrapolated!r} vs closed form {nu!r}")


def _verify_orbit(dr, cfg, pot, sw, profile, nu, k, dt, phase):
    """One period of implicit midpoint from the orbit point at `phase`."""
    loop = dr.embed_reduced(profile, cfg)
    u0 = sw.equilibrium + loop.sample(phase)[0].ravel()
    traj = dr.integrate(cfg, pot, sw.omega, u0, dt, 2.0 * np.pi / nu)
    drift = dr.invariant_drift(traj, cfg, pot, sw.omega)
    wave = dr.traveling_wave_error(traj, sw, k, nu)
    period = dr.spatial_period_error(traj, cfg, k, nu)
    return {"states": traj.states, "dt": traj.dt, "drift": drift,
            "wave": wave, "period": period, "closure": dr.closure_error(traj)}


def orbit_bound(cos_a, sin_b, nu, n, dt, steps) -> float:
    """Stated bound on closure and traveling-wave errors after one period.

    The midpoint rule's phase error over one period T is T dt^2 / 12 times
    the third time derivative of the orbit; for the ring that is at most
    sqrt(n) nu^3 sum_l l^3 (|a_l| + |b_l|). A safety factor of 4 covers the
    nonlinear terms; the harmonic cutoff adds sqrt(n) times ten times the
    tail the profile leaves out, and each step's Newton solve (tolerance
    1e-13) may add its residual.
    """
    ls = np.arange(len(cos_a))
    third = (ls ** 3 * np.abs(cos_a)).sum() + (ls[1:] ** 3 * np.abs(sin_b)).sum()
    T = 2.0 * np.pi / nu
    phase = 4.0 * T * dt * dt / 12.0 * np.sqrt(n) * nu ** 3 * third
    return float(phase + 10.0 * np.sqrt(n) * oracle.harmonic_tail(cos_a, sin_b)
                 + steps * 1e-13)


def _check_orbit(out, profile, nu, n, k, label):
    states = out["states"]
    power = (states * states).sum(axis=1)
    dp = float(np.abs(power - power[0]).max())
    _expect(dp <= POWER_TOL, f"{label}: power drift {dp:.3e}")
    _expect(abs(out["drift"][1] - dp) <= 1e-14,
            f"{label}: reported power drift {out['drift'][1]:.3e} vs {dp:.3e}")
    closure = float(np.linalg.norm(states[-1] - states[0]))
    _expect(abs(out["closure"] - closure) <= 1e-14, f"{label}: closure mismatch")
    bound = orbit_bound(profile.cos_a, profile.sin_b, nu, n, out["dt"],
                        len(states) - 1)
    x = states[:-1].reshape(len(states) - 1, n, 2)
    wave = oracle.wave_mismatch(np.sqrt((x * x).sum(axis=-1)), k, n)
    _expect(abs(out["wave"] - wave) <= 1e-12,
            f"{label}: traveling-wave error {out['wave']:.3e} vs {wave:.3e}")
    for what in ("closure", "wave", "period"):
        _expect(out[what] <= bound,
                f"{label}: {what} error {out[what]:.3e} above bound {bound:.3e}")


def _orbit_fingerprint(out):
    return (out["states"][-1].tobytes(), out["drift"], out["wave"], out["period"])


# --- workloads -------------------------------------------------------------

class Branch(Workload):
    name = "branch"
    SPEC = dict(n=6, m=1, kind="cubic", c=1.0, a=0.2, k=3, sign=1)
    NH, POINTS, REFINE_NH = 32, 20, 64
    # Point 5 (profile norm 0.09) is a traveling wave. The branch's middle
    # point is not: from point 9 on it has reached a standing wave.
    REFINE = 5

    def run_round(self):
        dr = self.dr
        cfg, pot, sw, branch = _continue(dr, **self.SPEC, nh=self.NH,
                                         max_steps=self.POINTS)
        point = branch.points[self.REFINE]
        refined, _ = dr.refine_point(cfg, pot, sw, point, self.REFINE_NH)
        return (branch, dr.extrapolate_onset(branch), point, refined), 0

    def check(self, outputs):
        branch, extrapolated, point, refined = outputs
        _check_branch(branch, extrapolated, **self.SPEC, points=self.POINTS,
                      least=self.REFINE + 1)
        s = self.SPEC
        res = oracle.galerkin_residual(refined.cos_a, refined.sin_b, point.nu, s["n"],
                                       s["m"], s["k"], s["kind"], s["c"], s["a"])
        _expect(res <= RESIDUAL_TOL, f"refined point: full-ring residual {res:.3e}")
        change = float(np.abs(refined.as_vector()
                              - point.profile.padded(self.REFINE_NH).as_vector()).max())
        _expect(change <= REFINE_TOL, f"nh=64 refinement moved the profile by {change:.3e}")

    def fingerprint(self, outputs):
        branch, extrapolated, _, refined = outputs
        return ([(p.nu, p.profile.as_vector().tobytes()) for p in branch.points],
                extrapolated, refined.as_vector().tobytes())


class Ring(Workload):
    name = "ring"
    SPEC = dict(n=48, m=1, kind="cubic", c=1.0, a=0.2, k=12, sign=1)
    NH, POINTS, DT = 6, 6, 5e-3

    def __init__(self, dr, seed, workdir):
        super().__init__(dr, seed, workdir)
        self.phase = float(self.rng.uniform(0.0, 2.0 * np.pi))

    def run_round(self):
        dr = self.dr
        cfg, pot, sw, branch = _continue(dr, **self.SPEC, nh=self.NH,
                                         max_steps=self.POINTS)
        last = branch.points[-1]
        orbit = _verify_orbit(dr, cfg, pot, sw, last.profile, last.nu,
                              self.SPEC["k"], self.DT, self.phase)
        return (branch, dr.extrapolate_onset(branch), orbit), 0

    def check(self, outputs):
        branch, extrapolated, orbit = outputs
        _check_branch(branch, extrapolated, **self.SPEC, points=self.POINTS,
                      least=2)
        last = branch.points[-1]
        _check_orbit(orbit, last.profile, last.nu, self.SPEC["n"], self.SPEC["k"],
                     "ring orbit")

    def fingerprint(self, outputs):
        branch, extrapolated, orbit = outputs
        return ([p.profile.as_vector().tobytes() for p in branch.points],
                extrapolated, _orbit_fingerprint(orbit))


class Verify(Workload):
    name = "verify"
    DT = 1e-3

    def __init__(self, dr, seed, workdir):
        super().__init__(dr, seed, workdir)
        doc = json.loads(VERIFY_POINTS.read_text())
        spec = doc["branch"]
        self.cfg = dr.LatticeConfig(spec["n"], spec["m"])
        self.pot = dr.Potential(spec["kind"], (spec["c"],))
        self.sw = dr.make_standing_wave(self.cfg, self.pot, spec["a"])
        self.k = spec["k"]
        self.points = [(dr.ReducedProfile(spec["k"], np.array(p["cos_a"]),
                                          np.array(p["sin_b"])), p["nu"])
                       for p in doc["points"]]
        self.phases = self.rng.uniform(0.0, 2.0 * np.pi, len(self.points))
        self.ops = len(self.points)

    def run_round(self):
        outs = [_verify_orbit(self.dr, self.cfg, self.pot, self.sw, prof, nu,
                              self.k, self.DT, phase)
                for (prof, nu), phase in zip(self.points, self.phases)]
        return outs, 0

    def check(self, outputs):
        for i, ((prof, nu), out) in enumerate(zip(self.points, outputs)):
            # A standing wave keeps |u_0| constant and passes the wave checks
            # trivially, so a stored point must swing.
            swing = oracle.site_norm_swing(prof.cos_a, prof.sin_b, self.cfg.n,
                                           self.cfg.m, self.k, self.sw.a)
            _expect(swing >= WAVE_SWING,
                    f"stored point {i}: |u_0(t)| swings by {swing:.3e}, "
                    "not a traveling wave")
            _check_orbit(out, prof, nu, self.cfg.n, self.k, f"stored point {i}")

    def fingerprint(self, outputs):
        return [_orbit_fingerprint(out) for out in outputs]


class Survey(Workload):
    name = "survey"
    COMMANDS = ("spectrum", "stability", "thresholds", "bifurcations")
    POTENTIALS = (("cubic", 1.0), ("cubic", -1.0), ("saturable", 1.0))
    # Every admissible m for the small rings; a fixed spread of m for the
    # large ones, whose bifurcation scan costs O(n^2 l_max).
    RINGS = ([(n, m) for n in (6, 7, 8, 10, 12) for m in range(n // 2 + 1)
              if 4 * m != n]
             + [(16, 1), (16, 5), (24, 1), (24, 8), (24, 12), (48, 1), (48, 16)])
    A_BIFURCATION = 0.3
    SWEEP_STEPS = 4

    def __init__(self, dr, seed, workdir):
        super().__init__(dr, seed, workdir)
        self.jobs = []
        for n, m in self.RINGS:
            for kind, c in self.POTENTIALS:
                a_spec = float(self.rng.uniform(0.05, 1.0))
                a_min = float(self.rng.uniform(0.0, 0.3))
                a_max = a_min + float(self.rng.uniform(0.2, 1.0))
                base = {"lattice": {"n": n, "m": m},
                        "potential": {"kind": kind, "c": c}}
                for cmd in self.COMMANDS:
                    doc = dict(base)
                    if cmd == "spectrum":
                        doc["amplitude"] = a_spec
                    elif cmd == "stability":
                        doc["sweep"] = {"a_min": a_min, "a_max": a_max,
                                        "steps": self.SWEEP_STEPS}
                    elif cmd == "bifurcations":
                        doc["amplitude"] = self.A_BIFURCATION
                    self.jobs.append((cmd, doc))
        order = self.rng.permutation(len(self.jobs))
        self.jobs = [self.jobs[i] for i in order]
        self.paths = [workdir / f"job{i:04d}" for i in range(len(self.jobs))]
        self.ops = len(self.jobs)

    def prepare(self):
        for (_, doc), path in zip(self.jobs, self.paths):
            path.mkdir(parents=True, exist_ok=True)
            (path / "config.json").write_text(json.dumps(doc))

    def run_round(self):
        main = self.dr.cli.main
        codes = []
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            for (cmd, _), path in zip(self.jobs, self.paths):
                codes.append(main([cmd, "--config", str(path / "config.json"),
                                   "--out", str(path / "out")]))
        return codes, sum(1 for c in codes if c != 0)

    def _tables(self):
        read = self.dr.cli.read_csv
        return [{p.name: read(p) for p in sorted((path / "out").glob("*.csv"))}
                for path in self.paths]

    def check(self, outputs):
        for (cmd, doc), code, tables in zip(self.jobs, outputs, self._tables()):
            if code != 0:
                continue          # counted in `failed`
            n, m = doc["lattice"]["n"], doc["lattice"]["m"]
            kind, c = doc["potential"]["kind"], doc["potential"]["c"]
            label = f"{cmd} n={n} m={m} {kind} c={c:g}"
            getattr(self, "_check_" + cmd)(tables, doc, n, m, kind, c, label)

    @staticmethod
    def _near(eig, lam, tol) -> bool:
        return bool(np.abs(eig - lam).min() <= tol)

    def _check_spectrum(self, tables, doc, n, m, kind, c, label):
        a = doc["amplitude"]
        eig = oracle.dense_spectrum(n, m, kind, c, a)
        _, rows = tables["spectrum.csv"]
        _expect(len(rows) == n, f"{label}: {len(rows)} spectrum rows")
        for row in rows[:-1]:               # k = n has no onset frequencies
            k = int(row[0])
            alpha, beta, phi = oracle.alpha_beta_phi(n, m, kind, c, a, k)
            _expect(abs(float(row[1]) - alpha) <= 1e-12
                    and abs(float(row[2]) - beta) <= 1e-12,
                    f"{label}: alpha/beta of k={k}")
            for sign, re, im in ((1, row[5], row[6]), (-1, row[7], row[8])):
                nu = complex(float(re), float(im))
                ref = oracle.onset_nu(n, m, kind, c, a, k, sign)
                _expect(abs(nu - ref) <= 1e-10 * max(1.0, abs(ref)),
                        f"{label}: nu_{k} sign {sign} = {nu} vs {ref}")
                _expect(self._near(eig, 1j * nu, SPECTRUM_TOL * max(1.0, abs(nu))),
                        f"{label}: i nu_{k} not in the dense spectrum")
        _, erows = tables["eigenvalues.csv"]
        got = np.array([complex(float(r[0]), float(r[1])) for r in erows])
        _expect(len(got) == 2 * n, f"{label}: {len(got)} eigenvalues")
        for lam in got:
            _expect(self._near(eig, lam, ZERO_SPLIT), f"{label}: eigenvalue {lam}")

    def _check_stability(self, tables, doc, n, m, kind, c, label):
        _, rows = tables["stability.csv"]
        _expect(len(rows) == self.SWEEP_STEPS, f"{label}: {len(rows)} sweep rows")
        for row in rows:
            a = float(row[0])
            covered, empirical = row[3] == "1", row[6] == "1"
            max_re = float(np.abs(oracle.dense_spectrum(n, m, kind, c, a).real).max())
            if covered:
                _expect(max_re <= ZERO_SPLIT,
                        f"{label}: a={a:.6g} covered as stable, max Re {max_re:.3e}")
            if max_re > 100 * ZERO_SPLIT:
                _expect(not empirical, f"{label}: a={a:.6g} unstable, reported stable")

    def _check_thresholds(self, tables, doc, n, m, kind, c, label):
        _, rows = tables["thresholds.csv"]
        _expect(len(rows) == n - 1, f"{label}: {len(rows)} threshold rows")
        grid = np.linspace(0.0, 10.0, 4097)[1:]
        for row in rows:
            k = int(row[0])
            alpha, _ = oracle.alpha_beta(n, m, k)
            phi = 2.0 * grid ** 2 * oracle.potential(kind, c, grid ** 2, 2) / alpha
            for cell, target in ((row[1], 1.0), (row[2], oracle.gamma(n, m, k))):
                # right ends of the grid intervals where phi - target changes sign
                roots = grid[1:][np.diff(np.sign(phi - target)) != 0]
                if cell == "":
                    _expect(len(roots) == 0,
                            f"{label}: k={k} missed the root of phi = {target:.6g}")
                    continue
                a = float(cell)
                _, _, phi_a = oracle.alpha_beta_phi(n, m, kind, c, a, k)
                _expect(abs(phi_a - target) <= PHI_TOL,
                        f"{label}: k={k} phi({a!r}) = {phi_a!r}, target {target!r}")
                _expect(not np.any(roots < a * (1.0 - 1e-6)),
                        f"{label}: k={k} threshold {a!r} is not the smallest root")

    def _check_bifurcations(self, tables, doc, n, m, kind, c, label):
        a = doc["amplitude"]
        eig = oracle.dense_spectrum(n, m, kind, c, a)
        _, rows = tables["bifurcations.csv"]
        for row in rows:
            if row[2] == "":
                continue                      # 1:1 flag row, no onset
            nu = float(row[2])
            _expect(nu > 0, f"{label}: onset nu {nu} not positive")
            _expect(self._near(eig, 1j * nu, SPECTRUM_TOL * max(1.0, nu)),
                    f"{label}: onset i*{nu!r} not in the dense spectrum")

    def fingerprint(self, outputs):
        return list(outputs), [
            {name: (path / "out" / name).read_bytes()
             for name in sorted(p.name for p in (path / "out").glob("*.csv"))}
            for path in self.paths]


WORKLOADS = {w.name: w for w in (Branch, Ring, Verify, Survey)}
