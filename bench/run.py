"""Benchmark runner for dnls-ring.

    python3 bench/run.py --workload {branch,ring,verify,survey} --seed N \
        --seconds S --trace {0,1}

Runs whole rounds of the workload (bench/workloads.py) until S seconds have
passed, checks every round's outputs, and prints one JSON object as the last
line of stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones (wall_s, setup_s, peak_rss_mb); with
--trace 1 every public function of the package is wrapped (bench/tracer.py)
and the per-layer metrics are reported instead. Times are reference-speed
seconds (bench/hostclock.py). The package is imported from src/ of the
checkout this file sits in; without it the runner exits 2 and prints no
result. BLAS runs single-threaded.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

# per-layer metric -> (span labels, field of Tracer.round_totals, unit)
LAYER_METRICS = {
    "continuation.residual_calls": (["continuation.ReducedSystem.residual"], "calls", "count"),
    "continuation.residual_s": (["continuation.ReducedSystem.residual"], "self_s", "s"),
    "continuation.jacobian_calls": (["continuation.ReducedSystem.jacobian"], "calls", "count"),
    "continuation.jacobian_s": (["continuation.ReducedSystem.jacobian"], "self_s", "s"),
    "continuation.onset_kernel_s": (["continuation.onset_kernel"], "self_s", "s"),
    "symmetry.embed_s": (["symmetry.embed_reduced"], "self_s", "s"),
    "symmetry.project_s": (["symmetry.project_reduced"], "self_s", "s"),
    "symmetry.sample_s": (["symmetry.LatticeLoop.sample"], "self_s", "s"),
    "symmetry.from_samples_s": (["symmetry.LatticeLoop.from_samples"], "self_s", "s"),
    "lattice.gradient_calls": (["lattice.gradient"], "calls", "count"),
    "lattice.gradient_s": (["lattice.gradient"], "self_s", "s"),
    "lattice.hessian_calls": (["lattice.hessian"], "calls", "count"),
    "lattice.hessian_s": (["lattice.hessian"], "self_s", "s"),
    "lattice.hamiltonian_s": (["lattice.hamiltonian"], "self_s", "s"),
    "verify.integrate_s": (["verify.integrate"], "self_s", "s"),
    "verify.midpoint_steps": (["verify.integrate"], "watched", "count"),
    "verify.drift_s": (["verify.invariant_drift"], "self_s", "s"),
    "verify.wave_check_s": (["verify.traveling_wave_error",
                             "verify.spatial_period_error"], "self_s", "s"),
    "bifurcation.check_nonresonant_calls": (["bifurcation.check_nonresonant"], "calls", "count"),
    "bifurcation.check_nonresonant_s": (["bifurcation.check_nonresonant"], "self_s", "s"),
    "bifurcation.enumerate_s": (["bifurcation.enumerate_bifurcations"], "self_s", "s"),
    "bifurcation.thresholds_s": (["bifurcation.amplitude_thresholds"], "self_s", "s"),
    "spectral.block_data_calls": (["spectral.block_data"], "calls", "count"),
    "spectral.full_spectrum_s": (["spectral.full_spectrum"], "self_s", "s"),
    "spectral.classify_s": (["spectral.classify_stability"], "self_s", "s"),
    "cli.parse_config_s": (["cli.parse_config"], "self_s", "s"),
    "cli.write_csv_s": (["cli.write_csv"], "self_s", "s"),
    "cli.csv_bytes": (["cli.write_csv"], "watched", "B"),
}
WATCH = {
    "verify.integrate": lambda traj, args: len(traj.times) - 1,
    "cli.write_csv": lambda out, args: os.path.getsize(args[0]),
}


def load_package():
    """Import dnls_ring (and its CLI) from this checkout's src/."""
    if not (SRC / "dnls_ring" / "__init__.py").is_file():
        raise FileNotFoundError(f"no dnls_ring package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dnls_ring
    import dnls_ring.cli  # noqa: F401  (the survey calls dnls_ring.cli.main)
    if Path(dnls_ring.__file__).resolve().parent != (SRC / "dnls_ring").resolve():
        raise ImportError(f"dnls_ring imported from {dnls_ring.__file__}, not {SRC}")
    return dnls_ring


def probe(args) -> None:
    """Set-up only, in a fresh interpreter: import the package and build the
    workload's inputs. Prints the import time."""
    t0 = time.perf_counter()
    dr = load_package()
    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS
    WORKLOADS[args.workload](dr, args.seed, OUT / f"probe-{os.getpid()}")
    print(json.dumps({"import_s": import_s}))


def run_probe(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=60,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def median_metric(rounds: list, labels: list, field: str) -> float:
    return statistics.median(
        sum(r["totals"].get(lab, {}).get(field, 0.0) for lab in labels)
        * (r["scale"] if field == "self_s" else 1.0)
        for r in rounds)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("branch", "ring", "verify", "survey"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "dnls_ring" / "__init__.py").is_file():
        print(f"bench: no dnls_ring package under {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        probe(args)
        return 0

    # One CPU for the runner and its set-up probes, so the host-speed samples
    # are taken where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from hostclock import HostClock
    from tracer import Tracer
    from workloads import WORKLOADS, Failure

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    rounds, errors, wrong = [], [], []
    attempted = failed = 0
    with HostClock() as clock:
        setup = [clock.timed(lambda: run_probe(args)) for _ in range(SETUP_REPEATS)]
        dr = load_package()
        workload = WORKLOADS[args.workload](dr, args.seed, workdir)
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.watch.update(WATCH)
        try:
            workload.prepare()
            with tracer or nullcontext():
                # A renamed or replaced function would otherwise read as 0.
                missing = tracer and sorted(
                    {lab for labels, _, _ in LAYER_METRICS.values() for lab in labels}
                    - tracer.labels())
                if missing:
                    print(f"bench: no traced function for {missing}", file=sys.stderr)
                    return 1
                start = time.perf_counter()
                while True:
                    attempted += workload.ops
                    try:
                        (outputs, nfail), raw, scaled = clock.timed(workload.run_round)
                    except Exception:
                        failed += workload.ops
                        errors.append(traceback.format_exc())
                    else:
                        failed += nfail
                        entry = {"wall": scaled, "scale": scaled / raw}
                        if tracer:
                            if not rounds:
                                tracer.dump(OUT / f"trace-{args.workload}"
                                                  f"-seed{args.seed}.csv")
                            entry["totals"] = tracer.round_totals()
                        rounds.append(entry)
                        try:
                            workload.check_round(outputs)
                        except Failure as exc:
                            wrong.append(str(exc))
                    if time.perf_counter() - start >= args.seconds:
                        break
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    for text in errors + wrong:
        print(f"bench: {text}", file=sys.stderr)
    if not rounds:
        print("bench: no round completed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": median_metric(rounds, labels, field), "unit": unit}
                   for name, (labels, field, unit) in LAYER_METRICS.items()}
        metrics["traced.wall_s"] = {
            "value": statistics.median(r["wall"] for r in rounds), "unit": "s"}
        metrics["setup.import_s"] = {
            "value": statistics.median(out["import_s"] * scaled / raw
                                       for out, raw, scaled in setup),
            "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall"] for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(s for _, _, s in setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    print(f"bench: {args.workload} seed={args.seed} rounds={len(rounds)} "
          f"walls={[round(r['wall'], 4) for r in rounds]}", file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
