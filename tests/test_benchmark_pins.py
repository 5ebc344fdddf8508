"""The benchmark's pins on the package: every function its tracer names and
every name its workloads read off the package must exist, or a traced run
exits 1 and a timed one fails its rounds. bench/run.py is parsed, not
imported, since importing it sets BLAS environment variables."""

import ast
import importlib.util
import operator
from pathlib import Path

import dnls_ring
import dnls_ring.cli  # noqa: F401  (the survey workload calls dnls_ring.cli)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _module_ast(name):
    return ast.parse((BENCH / name).read_text(encoding="utf-8"))


def test_tracer_wraps_every_layer_metric_label():
    (metrics,) = [ast.literal_eval(node.value)
                  for node in ast.walk(_module_ast("run.py"))
                  if isinstance(node, ast.Assign)
                  and [ast.unparse(t) for t in node.targets] == ["LAYER_METRICS"]]
    labels = {lab for names, _, _ in metrics.values() for lab in names}
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    with tracer.Tracer() as t:
        pass
    assert labels and not labels - t.labels()


def test_workloads_read_only_existing_package_names():
    # dr.X, self.dr.X and self.dr.cli.X, as dotted paths below the package
    paths = set()
    for node in ast.walk(_module_ast("workloads.py")):
        if isinstance(node, ast.Attribute):
            chain = ast.unparse(node)
            for prefix in ("dr.", "self.dr."):
                if chain.startswith(prefix):
                    paths.add(chain[len(prefix):])
    assert "cli.read_csv" in paths
    missing = []
    for path in sorted(paths):
        try:
            operator.attrgetter(path)(dnls_ring)
        except AttributeError:
            missing.append(path)
    assert not missing
