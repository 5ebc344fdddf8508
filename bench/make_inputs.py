"""Regenerate the stored inputs of the `verify` workload.

    python3 bench/make_inputs.py

Continues the `branch` workload's acceptance branch (n=6, m=1, cubic c=1,
a=0.2, onset k=3+, nh=32, 20 points) with the package in this checkout and
stores the chosen points, with every digit, in bench/data/verify_points.json.
Nothing here is random; the workload's seed only picks where on each orbit
integration starts.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import dnls_ring as dr  # noqa: E402
from workloads import VERIFY_POINTS, Branch, _continue  # noqa: E402

# Branch steps 2, 5, 7 and 8: profile norms 0.024 to 0.22, all traveling
# waves. At step 9 the branch reaches a standing wave (|u_j| constant), and
# from step 10 on it sits on the trivial family -a_m.
STEPS = (2, 5, 7, 8)


def main() -> None:
    _, _, _, branch = _continue(dr, **Branch.SPEC, nh=Branch.NH,
                                max_steps=Branch.POINTS)
    spec = dict(Branch.SPEC, n_harmonics=Branch.NH, max_steps=Branch.POINTS)
    points = [{"step": i, "nu": pt.nu, "amplitude": pt.amplitude,
               "residual_norm": pt.residual_norm,
               "cos_a": pt.profile.cos_a.tolist(),
               "sin_b": pt.profile.sin_b.tolist()}
              for i, pt in enumerate(branch.points) if i in STEPS]
    VERIFY_POINTS.parent.mkdir(exist_ok=True)
    VERIFY_POINTS.write_text(json.dumps({"branch": spec, "points": points},
                                        indent=1) + "\n")
    print(f"wrote {len(points)} points to {VERIFY_POINTS.relative_to(HERE.parent)}")


if __name__ == "__main__":
    main()
