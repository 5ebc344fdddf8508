import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings
from hypothesis import strategies as st

from dnls_ring import ConfigError, block_data
from dnls_ring.cli import main, parse_config, read_csv, write_csv
from dnls_ring.lattice import LatticeConfig, Potential, make_standing_wave
from dnls_ring.verify import integrate

from helpers import percell_csv


BASE = {
    "lattice": {"n": 6, "m": 1},
    "potential": {"kind": "cubic", "c": 1.0},
    "amplitude": 0.2,
}


def write_config(tmp_path, doc, name="config.json"):
    """doc as JSON text, or bytes written as they are."""
    path = tmp_path / name
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(json.dumps(doc))
    return str(path)


def test_spectrum_table(tmp_path):
    cfgp = write_config(tmp_path, BASE)
    assert main(["spectrum", "--config", cfgp, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "spectrum.csv")
    assert header[:5] == ["k", "alpha", "beta", "phi", "gamma"]
    k1 = rows[0]
    assert float(k1[1]) == pytest.approx(0.5)
    assert float(k1[2]) == pytest.approx(1.5)
    assert float(k1[3]) == pytest.approx(0.16)
    assert float(k1[4]) == pytest.approx(-8.0)
    assert float(k1[5]) == pytest.approx(1.958258, abs=1e-6)
    assert float(k1[7]) == pytest.approx(1.041742, abs=1e-6)
    # k = n row leaves phi/gamma blank
    assert rows[-1][3] == "" and rows[-1][4] == ""
    _, eig_rows = read_csv(tmp_path / "eigenvalues.csv")
    assert len(eig_rows) == 12


# eigenvalues.csv of BASE, the README config's ring, at a = 0.2 (stable) and
# a = 0.6 (phi_1 = 1.44: the k = 1 pair has left the imaginary axis): the
# rows are i nu_k^+ then i nu_k^- for k = 1..n-1, then the gauge double
# zero, in that order whatever the roundoff, and no cell reads -0.
EIGENVALUES = {0.2: """\
re,im\r
0,1.9582575694955837\r
0,1.0417424305044158\r
0,2.9594519519326425\r
0,0.040548048067357678\r
0,1.9595917942265428\r
0,-1.9595917942265428\r
0,-0.040548048067357678\r
0,-2.9594519519326425\r
0,-1.0417424305044158\r
0,-1.9582575694955837\r
0,0\r
0,0\r
""", 0.6: """\
re,im\r
-0.33166247903553997,1.4999999999999998\r
0.33166247903553997,1.4999999999999998\r
0,2.5816653826391969\r
0,0.41833461736080335\r
0,1.6000000000000005\r
0,-1.6000000000000005\r
0,-0.41833461736080335\r
0,-2.5816653826391969\r
-0.33166247903553997,-1.4999999999999998\r
0.33166247903553997,-1.4999999999999998\r
0,0\r
0,0\r
"""}


@pytest.mark.parametrize("a", sorted(EIGENVALUES))
def test_eigenvalues_rows_pinned(tmp_path, a):
    cfgp = write_config(tmp_path, dict(BASE, amplitude=a))
    assert main(["spectrum", "--config", cfgp, "--out", str(tmp_path)]) == 0
    assert ((tmp_path / "eigenvalues.csv").read_bytes()
            == EIGENVALUES[a].encode())


# the rings of the benchmark survey
SURVEY_RINGS = [(n, m) for n in (6, 7, 8, 10, 12) for m in range(n // 2 + 1)
                if 4 * m != n] + [(16, 1), (16, 5), (24, 1), (24, 8), (24, 12),
                                  (48, 1), (48, 16)]


@pytest.mark.parametrize("n, m", SURVEY_RINGS)
def test_eigenvalues_have_no_negative_zero(tmp_path, n, m):
    # i nu has the real part -0 wherever nu is real and negative
    for kind, c in (("cubic", 1.0), ("cubic", -1.0), ("saturable", 1.0)):
        for a in (0.05, 0.3, 0.6, 1.0):
            doc = {"lattice": {"n": n, "m": m}, "amplitude": a,
                   "potential": {"kind": kind, "c": c}}
            assert main(["spectrum", "--config", write_config(tmp_path, doc),
                         "--out", str(tmp_path)]) == 0
            _, rows = read_csv(tmp_path / "eigenvalues.csv")
            assert len(rows) == 2 * n
            assert "-0" not in [cell for row in rows for cell in row], \
                (kind, c, a)


def test_invalid_wavenumber_exits_2(tmp_path):
    doc = dict(BASE, lattice={"n": 8, "m": 2})
    assert main(["spectrum", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path)]) == 2


def test_unknown_potential_exits_2(tmp_path):
    doc = dict(BASE, potential={"kind": "quartic", "c": 1.0})
    assert main(["spectrum", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path)]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 2


POLY = {"kind": "polynomial"}

INVALID = [
    ("sweep_without_steps", dict(BASE, sweep={"a_min": 0.1, "a_max": 0.3}), "steps"),
    ("fractional_periods", dict(BASE, integration={"periods": 2.5}), "periods"),
    ("zero_periods", dict(BASE, integration={"periods": 0}), "periods"),
    ("removed_fd_step", dict(BASE, continuation={"fd_step": 1e-7}), "fd_step"),
    ("removed_newton_tol", dict(BASE, continuation={"newton_tol": 1e-10}),
     "newton_tol"),
    ("removed_max_newton_iter", dict(BASE, continuation={"max_newton_iter": 25}),
     "max_newton_iter"),
    ("removed_ds0", dict(BASE, continuation={"ds0": 1e-2}), "ds0"),
    ("removed_ds_min", dict(BASE, continuation={"ds_min": 1e-5}), "ds_min"),
    ("removed_ds_max", dict(BASE, continuation={"ds_max": 1e-1}), "ds_max"),
    ("removed_amplitude_cap", dict(BASE, continuation={"amplitude_cap": 2.0}),
     "amplitude_cap"),
    ("removed_null_amplitude_cap",
     dict(BASE, continuation={"amplitude_cap": None}), "amplitude_cap"),
    ("removed_first_step_eps", dict(BASE, continuation={"first_step_eps": 1e-3}),
     "first_step_eps"),
    ("removed_nu_min", dict(BASE, continuation={"nu_min": 1e-6}), "nu_min"),
    ("zero_n_harmonics", dict(BASE, continuation={"n_harmonics": 0}),
     "continuation.n_harmonics"),
    ("fractional_max_steps", dict(BASE, continuation={"max_steps": 2.5}),
     "continuation.max_steps"),
    ("negative_dt", dict(BASE, integration={"dt": -1}), "dt"),
    ("zero_dt", dict(BASE, integration={"dt": 0}), "dt"),
    ("nan_dt", dict(BASE, integration={"dt": float("nan")}), "dt"),
    ("string_dt", dict(BASE, integration={"dt": "1e-3"}), "dt"),
    ("t_final_below_dt", dict(BASE, integration={"dt": 0.1, "t_final": 0.05}),
     "t_final"),
    ("infinite_t_final", dict(BASE, integration={"t_final": float("inf")}),
     "t_final"),
    ("string_amplitude", dict(BASE, amplitude="x"), "amplitude"),
    ("nan_amplitude", dict(BASE, amplitude=float("nan")), "amplitude"),
    ("overflowing_amplitude", dict(BASE, amplitude=float("inf")), "amplitude"),
    ("integer_amplitude_past_float", dict(BASE, amplitude=10**400), "amplitude"),
    ("string_c", dict(BASE, potential={"kind": "cubic", "c": "x"}), "potential.c"),
    ("string_n", dict(BASE, lattice={"n": "x", "m": 1}), "lattice.n"),
    ("string_m", dict(BASE, lattice={"n": 6, "m": "x"}), "lattice.m"),
    ("string_mode", dict(BASE, mode="x"), "mode"),
    ("negative_verify_points", dict(BASE, verify_points=-1), "verify_points"),
    ("zero_verify_points", dict(BASE, verify_points=0), "verify_points"),
    ("string_verify_points", dict(BASE, verify_points="x"), "verify_points"),
    ("zero_snapshot_stride", dict(BASE, snapshot_stride=0), "snapshot_stride"),
    ("negative_snapshot_stride", dict(BASE, snapshot_stride=-1),
     "snapshot_stride"),
    ("string_scale", dict(BASE, perturbation={"scale": "x"}), "perturbation.scale"),
    ("string_seed", dict(BASE, perturbation={"seed": "x"}), "perturbation.seed"),
    ("string_n_harmonics", dict(BASE, continuation={"n_harmonics": "8"}),
     "continuation.n_harmonics"),
    ("top_level_array", [BASE], "config"),
    ("lattice_list", dict(BASE, lattice=[6, 1]), "lattice"),
    ("continuation_string", dict(BASE, continuation="fast"), "continuation"),
    ("empty_coefficients", dict(BASE, potential=dict(POLY, coefficients=[])),
     "coefficients"),
    ("string_coefficients", dict(BASE, potential=dict(POLY, coefficients=["x"])),
     "coefficients"),
    ("invalid_utf8", b'{"amplitude": "\xff"}', "not UTF-8"),
    ("deeply_nested", b"[" * 100_000, "nests too deeply"),
    # a key its section does not name, the other potential kind's included
    ("misspelt_top_level_key", dict(BASE, Sign="-"), "Sign"),
    ("misspelt_lattice_key", dict(BASE, lattice={"n": 6, "m": 1, "M": 2}),
     "lattice.M"),
    ("misspelt_potential_key",
     dict(BASE, potential={"kind": "cubic", "c": 1.0, "C": 2.0}), "potential.C"),
    ("coefficients_on_cubic", dict(BASE, potential={
        "kind": "cubic", "c": 1.0, "coefficients": [0.0, 1.0]}),
     "potential.coefficients"),
    ("c_on_polynomial", dict(BASE, potential=dict(
        POLY, coefficients=[0.0, 1.0], c=1.0)), "potential.c"),
    ("misspelt_sweep_key", dict(BASE, sweep={"a_min": 0.1, "a_max": 0.3,
                                             "steps": 3, "step": 4}),
     "sweep.step"),
    ("misspelt_integration_key", dict(BASE, integration={"period": 3}),
     "integration.period"),
    ("misspelt_perturbation_key", dict(BASE, perturbation={"scales": 0.1}),
     "perturbation.scales"),
]


@pytest.mark.parametrize("doc, key", [case[1:] for case in INVALID],
                         ids=[case[0] for case in INVALID])
def test_invalid_config_names_key_and_exits_2(tmp_path, capsys, doc, key):
    assert main(["stability", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err


NULL_DEFAULTS = [("sign", {"sign": None}), ("output_dir", {"output_dir": None}),
                 ("mode", {"mode": None}),
                 ("integration.dt", {"integration": {"dt": None}}),
                 ("continuation.n_harmonics",
                  {"continuation": {"n_harmonics": None}})]


@pytest.mark.parametrize("key, change", NULL_DEFAULTS,
                         ids=[key for key, _ in NULL_DEFAULTS])
def test_present_null_is_not_the_default(tmp_path, capsys, key, change):
    # a default stands in for a missing key only; no --out, which would
    # replace a null output_dir
    assert main(["stability", "--config",
                 write_config(tmp_path, dict(BASE, **change))]) == 2
    assert key in capsys.readouterr().err


CAPS = [  # the documented caps (README)
    ("lattice.n", lambda v: dict(BASE, lattice={"n": v, "m": 1}), 512),
    ("sweep.steps", lambda v: dict(BASE, sweep={"a_min": 0.1, "a_max": 0.3,
                                                "steps": v}), 10_000),
    ("continuation.n_harmonics",
     lambda v: dict(BASE, continuation={"n_harmonics": v}), 256),
    ("continuation.max_steps",
     lambda v: dict(BASE, continuation={"max_steps": v}), 10_000),
    ("integration.t_final",
     lambda v: dict(BASE, integration={"dt": 1.0, "t_final": v}), 1_000_000),
]


@pytest.mark.parametrize("key, make, cap", CAPS, ids=[c[0] for c in CAPS])
def test_size_caps_name_the_key(key, make, cap):
    # Checked by parse_config alone, so a run at the cap is never started;
    # main turns the ConfigError into exit 2 (test_invalid_config_...).
    parse_config(make(cap))
    for value in (cap + 1, 10**30):
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(make(value))


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["spectrum", "--config", write_config(tmp_path, BASE),
                 "--out", str(taken)]) == 2
    assert str(taken) in capsys.readouterr().err
    assert taken.read_text() == ""


def _sweep(steps):
    return {"lattice": {"n": 6, "m": 1}, "potential": {"kind": "cubic", "c": 1.0},
            "sweep": {"a_min": 0.1, "a_max": 0.7, "steps": steps}}


def test_rerun_rewrites_in_place_and_cuts_the_tail(tmp_path):
    # an 8-point sweep, then a 3-point one into the same directory: the file
    # keeps its inode and reads exactly as a fresh directory's
    def run(steps, out):
        return main(["stability", "--config", write_config(tmp_path, _sweep(steps)),
                     "--out", str(tmp_path / out)])

    rerun = tmp_path / "out" / "stability.csv"
    assert run(8, "out") == 0
    inode = rerun.stat().st_ino
    assert run(3, "out") == 0 and run(3, "fresh") == 0
    assert rerun.read_bytes() == (tmp_path / "fresh" / "stability.csv").read_bytes()
    assert len(read_csv(rerun)[1]) == 3 and rerun.stat().st_ino == inode


@pytest.mark.parametrize("c, a", [(1.05e296, 4.28e92), (5.77e207, 6.15e88),
                                  (4.42e297, 1.03e139)])
def test_saturable_square_overflow_gives_the_decimal_answer(tmp_path, c, a):
    # (1 + a^2)^2 overflows, 2a^2 V''(a^2) does not: spectrum and stability
    # must write the 60-digit Decimal phi_k and nu_k^+/-, not phi = -0
    doc = dict(BASE, potential={"kind": "saturable", "c": c}, amplitude=a)
    for command in ("spectrum", "stability"):
        assert main([command, "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path)]) == 0
    with localcontext() as ctx:
        ctx.prec = 60
        s = Decimal(a) * Decimal(a)
        d = -2 * s * Decimal(c) / (1 + s) ** 2
        rows = read_csv(tmp_path / "spectrum.csv")[1][:-1]
        for k, alpha, beta, phi, _, re_p, im_p, re_m, im_m in rows:
            alpha, beta = Decimal(alpha), Decimal(beta)
            root = (alpha * alpha * (1 - d / alpha)).sqrt()
            assert float(phi) == pytest.approx(float(d / alpha), rel=1e-14), k
            assert float(re_p) == pytest.approx(float(beta + root), rel=1e-14)
            assert float(re_m) == pytest.approx(float(beta - root), rel=1e-14)
            assert float(im_p) == float(im_m) == 0.0
        (row,) = read_csv(tmp_path / "stability.csv")[1]
        assert float(row[4]) == float(rows[0][3])
        assert row[1] == "-1"       # sigma = sgn V'' on m < n/4


# Rows the one-format writer must render as the per-cell writer did: Python
# and numpy floats, ints and bools; non-finite, signed-zero, subnormal and
# huge values; None and strings (one to be quoted); rows short and long.
WRITER_HEADER = ["a", "b", "c", "d", "e", "f"]
WRITER_ROWS = [
    [1.5, np.float64(-2.25), 3, np.int64(-4), True, np.False_],
    [np.float32(0.1), np.int32(7), np.uint8(255), 10_000, False, np.True_],
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308],
    [np.nan, np.float64(np.inf), np.float64(-0.0), -1e-300, 0, 1],
    [None, 1.0, "", 'a,"b', "plain", None],
    [None] * 6,
    [1.0, 2.0],
    [1.0] * 7,
    [],
]


@pytest.mark.parametrize("header, rows", [
    (WRITER_HEADER, WRITER_ROWS), (WRITER_HEADER, []), (["x"], [[0.5], [None]]),
    (WRITER_HEADER, WRITER_ROWS[:4] * 3), (["x,y", 'q"'], [[1, 2], ["1", 2]])],
    ids=["mixed", "empty", "one-column", "numbers", "quoted-header"])
def test_write_csv_bytes_equal_the_per_cell_writer(tmp_path, header, rows):
    path = tmp_path / "t.csv"
    write_csv(path, header, rows)
    assert path.read_bytes() == percell_csv(header, rows)
    write_csv(path, header, (row for row in rows))     # a generator of rows
    assert path.read_bytes() == percell_csv(header, rows)
    write_csv(path, header, map(tuple, rows))          # tuple rows
    assert path.read_bytes() == percell_csv(header, rows)


def test_simulate_trajectory_equals_the_per_cell_rendering(tmp_path):
    doc = copy.deepcopy(README_CONFIG)
    doc["integration"]["t_final"] = 2.5
    assert main(["simulate", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path)]) == 0
    cfg = LatticeConfig(**doc["lattice"])
    pot = Potential(doc["potential"]["kind"], (doc["potential"]["c"],))
    sw = make_standing_wave(cfg, pot, doc["amplitude"])
    traj = integrate(cfg, pot, sw.omega, sw.equilibrium.copy(),
                     doc["integration"]["dt"], 2.5)
    header = ["t"] + [f"s{j}_{part}" for j in range(cfg.n) for part in ("re", "im")]
    want = percell_csv(header, ([t, *u] for t, u in zip(traj.times, traj.states)))
    assert len(traj.times) == 2501
    assert (tmp_path / "trajectory.csv").read_bytes() == want


@pytest.mark.parametrize("k", [0, 2])
def test_failed_rewrite_leaves_the_written_prefix(tmp_path, k):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[i, i + 0.5] for i in range(10)])

    def rows():
        for i in range(k):
            yield [i, None]
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv(path, ["a", "b"], rows())
    want = "a,b\r\n" + "".join(f"{i},\r\n" for i in range(k))
    assert path.read_bytes() == want.encode()


def test_new_csv_mode_follows_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        assert main(["thresholds", "--config", write_config(tmp_path, BASE),
                     "--out", str(tmp_path)]) == 0
    finally:
        os.umask(old)
    assert (tmp_path / "thresholds.csv").stat().st_mode & 0o777 == 0o666 & ~0o027


def test_csv_symlinked_to_dev_null_exits_0(tmp_path):
    # a device has no length to cut: ftruncate on /dev/null raises EINVAL
    (tmp_path / "stability.csv").symlink_to(os.devnull)
    assert main(["stability", "--config", write_config(tmp_path, _sweep(4)),
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "stability.csv").is_symlink()


def test_verify_over_two_periods(tmp_path):
    doc = dict(BASE, mode=3, sign="+",
               continuation={"n_harmonics": 8, "max_steps": 2},
               integration={"dt": 1e-2, "periods": 2}, verify_points=1)
    cfgp = write_config(tmp_path, doc)
    assert main(["verify", "--config", cfgp, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "verify.csv")
    assert len(rows) == 1
    assert float(rows[0][2]) <= 1e-5     # closure after two periods
    assert float(rows[0][5]) <= 1e-6     # traveling-wave defect


def test_stability_sweep_flips_at_threshold(tmp_path):
    doc = {"lattice": {"n": 6, "m": 1},
           "potential": {"kind": "cubic", "c": 1.0},
           "sweep": {"a_min": 0.4, "a_max": 0.6, "steps": 21}}
    cfgp = write_config(tmp_path, doc)
    assert main(["stability", "--config", cfgp, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "stability.csv")
    stable = [(float(r[0]), r[2] == "1") for r in rows]
    flips = [(a1, a2) for (a1, s1), (a2, s2) in zip(stable, stable[1:])
             if s1 != s2]
    assert len(flips) == 1
    assert flips[0][0] < 0.5 <= flips[0][1] + 1e-12


def test_thresholds_table(tmp_path):
    cfgp = write_config(tmp_path, BASE)
    assert main(["thresholds", "--config", cfgp, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "thresholds.csv")
    table = {int(r[0]): r for r in rows}
    assert float(table[1][1]) == pytest.approx(0.5, abs=1e-10)
    assert table[1][2] == ""          # gamma_1 < 0, no root for c > 0
    # k = 2 and k = 4 = n - 2 mirror each other: gamma_k = 0 exactly on both
    # (k = +/-2m mod n), so neither has a root, and alpha_4 = alpha_2 bit for
    # bit, so the collision amplitudes are the same bytes
    assert table[2][2] == table[4][2] == ""
    assert table[2][1] == table[4][1]


def test_bifurcations_table(tmp_path):
    cfgp = write_config(tmp_path, BASE)
    assert main(["bifurcations", "--config", cfgp, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "bifurcations.csv")
    onsets = {(int(r[0]), r[1]): float(r[2]) for r in rows if r[1]}
    assert onsets[(3, "+")] == pytest.approx(1.959592, abs=1e-6)
    regimes = {(int(r[0]), r[1]): r[3] for r in rows if r[1]}
    assert regimes[(1, "+")] == "b"
    assert regimes[(3, "+")] == "a"


def test_degenerate_amplitude_exits_3(tmp_path):
    doc = dict(BASE, amplitude=0.0)
    assert main(["bifurcations", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path)]) == 3


def nonfinite_cells(root):
    """(file, row, cell) of every nan or inf cell of the CSVs under root."""
    bad = []
    for path in sorted(Path(root).rglob("*.csv")):
        _, rows = read_csv(path)
        for i, row in enumerate(rows):
            for cell in row:
                try:
                    if not math.isfinite(float(cell)):
                        bad.append((path.name, i, cell))
                except ValueError:          # flags, signs, regimes, blanks
                    pass
    return bad


@pytest.mark.parametrize("command", ["spectrum", "stability", "bifurcations",
                                     "continue", "verify"])
def test_overflowing_amplitude_exits_3(tmp_path, capsys, command):
    # a^2 overflows: the command exits 3 naming the block table before it
    # writes anything, so no CSV holds inf or nan
    doc = dict(BASE, lattice={"n": 6, "m": 3}, amplitude=1e300)
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 3
    assert f"numerical failure in '{command}': block table" in capsys.readouterr().err
    assert nonfinite_cells(out) == []


def test_overflowing_simulation_exits_3(tmp_path, capsys):
    # the perturbed state overflows in the first midpoint step: no step
    # converges, so simulate exits 3 and writes no trajectory
    doc = dict(BASE, integration={"dt": 0.01, "t_final": 1.0},
               perturbation={"scale": 1e200, "seed": 0})
    assert main(["simulate", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "trajectory.csv").exists()
    # so does an overflowing V'', and stderr is its one exit-3 line
    capsys.readouterr()
    assert main(["simulate", "--config", write_config(tmp_path, HUGE_SIMULATION),
                 "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == ("numerical failure in 'simulate': "
                                       "implicit midpoint solve did not converge\n")


@pytest.mark.parametrize("command, coefficients", [
    ("stability", [0.0, 1.0]), ("stability", [1e308]),
    ("thresholds", [0.0, 0.0, 1e308])],
    ids=["coefficients0", "coefficients1", "thresholds"])
def test_polynomial_stability_overflow_exits_3(tmp_path, capsys, command,
                                               coefficients):
    # stability: a^2 overflows and V''(a^2) reads NaN; thresholds: V''(0)
    # overflows in the table at a = 0. Either block table is not finite, and
    # the command exits 3 before it writes its CSV
    doc = dict(BASE, potential={"kind": "polynomial",
                                "coefficients": coefficients}, amplitude=1e160)
    assert main([command, "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"numerical failure in '{command}': block table" in err
    assert "Traceback" not in err
    assert not (tmp_path / f"{command}.csv").exists()


@pytest.mark.parametrize("command", ["thresholds", "spectrum", "stability",
                                     "bifurcations"])
def test_overflowing_derivative_table_exits_3_quietly(tmp_path, capsys, command):
    # V'' = 2e308 overflows while the derivative table is built: the table
    # holds inf without a numpy warning (an error under this suite's
    # warning filter), and stderr is the one exit-3 line
    doc = dict(BASE, potential={"kind": "polynomial",
                                "coefficients": [0, 0, 1e308]})
    assert main([command, "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure in '{command}': block table ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_numpy_error_state_is_scoped_to_main(tmp_path):
    # main runs a command under np.errstate(all="ignore") and gives numpy's
    # state back on return; outside main the library keeps numpy's default,
    # so the same overflowing derivative table warns
    before = np.geterr()
    assert main(["spectrum", "--config", write_config(tmp_path, BASE),
                 "--out", str(tmp_path)]) == 0
    assert np.geterr() == before
    doc = dict(BASE, potential={"kind": "polynomial",
                                "coefficients": [0, 0, 1e308]})
    assert main(["spectrum", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path)]) == 3
    assert np.geterr() == before
    with pytest.warns(RuntimeWarning, match="overflow"):
        Potential.polynomial([0, 0, 1e308])


def test_continue_and_verify_round_trip(tmp_path):
    doc = dict(BASE, mode=3, sign="+",
               continuation={"n_harmonics": 8, "max_steps": 5},
               verify_points=2)
    cfgp = write_config(tmp_path, doc)
    assert main(["continue", "--config", cfgp, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "branch_k3+.csv")
    assert header == ["step", "nu", "amplitude", "residual_norm", "a0", "a1", "b1"]
    assert len(rows) == 5
    assert all(float(r[3]) <= 1e-10 for r in rows)
    assert (tmp_path / "profile_step0.csv").exists()
    assert (tmp_path / "profile_step4.csv").exists()

    assert main(["verify", "--config", cfgp, "--out", str(tmp_path)]) == 0
    vh, vrows = read_csv(tmp_path / "verify.csv")
    assert len(vrows) == 2
    for r in vrows:
        assert float(r[2]) <= 1e-6       # closure
        assert float(r[4]) <= 1e-10      # power drift
        assert float(r[5]) <= 1e-6       # traveling-wave defect


def test_mode_override_flags(tmp_path):
    doc = dict(BASE, mode=3, sign="+",
               continuation={"n_harmonics": 8, "max_steps": 3})
    cfgp = write_config(tmp_path, doc)
    assert main(["continue", "--config", cfgp, "--out", str(tmp_path),
                 "--k", "1", "--sign", "-"]) == 0
    assert (tmp_path / "branch_k1-.csv").exists()


COMMAND_NAMES = ["spectrum", "stability", "thresholds", "bifurcations",
                 "continue", "verify", "simulate"]


@pytest.mark.parametrize("k", ["0", "-1"])
@pytest.mark.parametrize("command", COMMAND_NAMES)
def test_mode_flag_is_checked_as_mode(tmp_path, capsys, command, k):
    # --k sets the mode key, so it meets the same check before any command
    doc = dict(BASE, mode=3, sign="+")
    assert main([command, "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path), "--k", k]) == 2
    assert "mode must be" in capsys.readouterr().err


def test_out_flag_wins_over_output_dir(tmp_path):
    doc = dict(BASE, output_dir=str(tmp_path / "doc"))
    cfgp = write_config(tmp_path, doc)
    assert main(["thresholds", "--config", cfgp]) == 0
    assert (tmp_path / "doc" / "thresholds.csv").exists()
    assert main(["spectrum", "--config", cfgp,
                 "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "spectrum.csv").exists()
    assert not (tmp_path / "doc" / "spectrum.csv").exists()


def test_missing_onset_exits_2(tmp_path):
    doc = dict(BASE, mode=3, sign="-")     # case (a) has no minus branch
    cfgp = write_config(tmp_path, doc)
    assert main(["continue", "--config", cfgp, "--out", str(tmp_path)]) == 2


def test_simulate_requires_t_final(tmp_path):
    cfgp = write_config(tmp_path, BASE)
    assert main(["simulate", "--config", cfgp, "--out", str(tmp_path)]) == 2


def test_simulate_writes_trajectory(tmp_path):
    # round(t_final / dt) + 1 rows, on the cubic and on a quartic polynomial
    for potential in (BASE["potential"],
                      dict(POLY, coefficients=[0.0, 0.5, -0.3, 0.2, 0.1])):
        doc = dict(BASE, potential=potential,
                   integration={"dt": 0.01, "t_final": 0.1})
        cfgp = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfgp, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert header[0] == "t" and len(header) == 13
        assert len(rows) == 11
        # the equilibrium does not move (up to solver roundoff)
        first = np.array([float(v) for v in rows[0][1:]])
        last = np.array([float(v) for v in rows[-1][1:]])
        assert np.abs(first - last).max() <= 1e-12


def test_simulate_streams_its_rows(tmp_path):
    # trajectory.csv is written row by row from the states array: 5000 steps
    # at n = 6 peak below twice its 480 kB, where a list of every row as
    # Python floats is about 3.2 MB.
    import tracemalloc
    doc = dict(BASE, integration={"dt": 0.01, "t_final": 50.0})
    cfgp = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfgp, "--out", str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        code = main(["simulate", "--config", cfgp, "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _, rows = read_csv(tmp_path / "trajectory.csv")
    states_nbytes = 5001 * 12 * 8
    assert code == 0 and len(rows) == 5001
    assert peak < 2 * states_nbytes


def test_outputs_are_deterministic(tmp_path):
    doc = dict(BASE, mode=3, sign="+",
               continuation={"n_harmonics": 8, "max_steps": 4})
    cfgp = write_config(tmp_path, doc)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["continue", "--config", cfgp, "--out", str(out1)]) == 0
    assert main(["continue", "--config", cfgp, "--out", str(out2)]) == 0
    name = "branch_k3+.csv"
    assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def readme_block(lang):
    """The README's one fenced code block in the given language."""
    (block,) = re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)
    return block


README_CONFIG = json.loads(readme_block("json"))
KEY_PATHS = [()] + [(key,) for key in README_CONFIG] + [
    (key, sub) for key, sec in README_CONFIG.items() if isinstance(sec, dict)
    for sub in sec] + [  # misspelt keys, and the key of the other potential
    ("Sign",), ("k",), ("lattice", "N"), ("potential", "coefficients"),
    ("continuation", "n_harmonic"), ("integration", "period"),
    ("perturbation", "scales"), ("sweep", "step")]
DROP = object()
ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 20), st.integers(-10**30, 10**30),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e300, -1e300,
                     1e-300, -1.0, 0.0, "saturable", "polynomial", "-"]),
    st.text(max_size=3), st.lists(st.integers(-3, 20), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 20), max_size=2))


STEP_CAP = [
    ("verify", "subnormal_dt", {"dt": 5e-324}, "integration.dt"),
    ("verify", "tiny_dt", {"dt": 1e-12}, "integration.dt"),
    ("verify", "many_periods", {"dt": 1e-3, "periods": 10**9},
     "integration.periods"),
    ("simulate", "subnormal_dt", {"dt": 5e-324, "t_final": 1.0},
     "integration.dt"),
    ("simulate", "tiny_dt", {"dt": 1e-12, "t_final": 1.0}, "integration.dt"),
    ("simulate", "huge_t_final", {"dt": 1e-3, "t_final": 1e300},
     "integration.t_final"),
]


@pytest.mark.parametrize("command, integration, key",
                         [(c, i, k) for c, _, i, k in STEP_CAP],
                         ids=[f"{c}-{name}" for c, name, _, _ in STEP_CAP])
def test_trajectory_step_cap_exits_2(tmp_path, capsys, command, integration,
                                     key):
    # a step count past the cap is refused before any states are allocated
    doc = dict(README_CONFIG, integration=integration,
               continuation={"n_harmonics": 8, "max_steps": 1})
    assert main([command, "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err


SITE_STEP_CAP = [  # n = 512: under 10^6 steps, over 6 x 10^6 steps x sites
    ("simulate", {"dt": 1e-3, "t_final": 1000}, "integration.t_final"),
    ("verify", {"dt": 1e-3, "periods": 100}, "integration.periods"),
]


@pytest.mark.parametrize("command, integration, key", SITE_STEP_CAP,
                         ids=[c for c, _, _ in SITE_STEP_CAP])
def test_trajectory_cap_scales_with_ring_size(tmp_path, capsys, monkeypatch,
                                              command, integration, key):
    # 10^6 steps at n = 512 would be 8.2 GB of states; the cap is 11718
    # steps there, so both documents exit 2 before integrate is reached:
    # simulate's in parse_config, verify's (316 700 steps at the onset
    # frequency 1.98 of mode 128) after the branch point is found
    doc = {"lattice": {"n": 512, "m": 1},
           "potential": {"kind": "cubic", "c": 1.0}, "amplitude": 0.2,
           "mode": 128, "continuation": {"n_harmonics": 8, "max_steps": 1},
           "integration": integration}
    if command == "simulate":
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(doc)
    else:
        parse_config(doc)

    def refuse(*args):
        raise AssertionError("integrate called past the trajectory cap")
    monkeypatch.setattr("dnls_ring.cli.integrate", refuse)
    assert main([command, "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert key in err and "11718 steps" in err


def mutate(mutations):
    """README_CONFIG with each (key path, value) applied in turn: the value
    replaces what the path names, or DROP deletes it (the empty path names
    the whole document, which DROP makes null); paths whose parent is no
    longer an object are skipped."""
    doc = copy.deepcopy(README_CONFIG)
    for path, value in mutations:
        if not path:
            doc = None if value is DROP else value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue
        if value is DROP:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = value
    return doc


def ring_size(doc):
    lat = doc.get("lattice") if isinstance(doc, dict) else None
    n = lat.get("n") if isinstance(lat, dict) else None
    return n if type(n) in (int, float) else None


@pytest.mark.parametrize("command",
                         ["spectrum", "stability", "thresholds", "bifurcations"])
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=st.lists(st.tuples(st.sampled_from(KEY_PATHS),
                                    st.one_of(st.just(DROP), ODD_VALUES)),
                          min_size=1, max_size=4))
def test_mutated_readme_config_exits_0_2_or_3(tmp_path, command, mutations):
    doc = mutate(mutations)
    n = ring_size(doc)
    # a ring past 12 sites is a valid, merely slower run
    assume(n is None or not n > 12)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code = main([command, "--config", str(path), "--out", str(tmp_path)])
    event(f"exit {code}")
    assert code in (0, 2, 3)


# Extreme finite inputs: magnitudes drawn log-uniformly over [1e-300, 1e300],
# with either sign where the config allows one.
MAGNITUDES = st.tuples(st.integers(-300, 299), st.floats(0.0, 1.0)).map(
    lambda t: 10.0 ** (t[0] + t[1]))
SIGNED = st.tuples(st.sampled_from([1.0, -1.0]), MAGNITUDES).map(
    lambda t: t[0] * t[1])


@st.composite
def extreme_configs(draw):
    n = draw(st.integers(3, 8))
    m = draw(st.sampled_from([m for m in range(n // 2 + 1) if 4 * m != n]))
    kind = draw(st.sampled_from(["cubic", "saturable", "polynomial"]))
    if kind == "polynomial":
        potential = {"kind": kind,
                     "coefficients": draw(st.lists(SIGNED, min_size=1, max_size=4))}
    else:
        potential = {"kind": kind, "c": draw(SIGNED)}
    a = draw(MAGNITUDES) if draw(st.integers(0, 7)) else 0.0
    dt = draw(MAGNITUDES)
    return {"lattice": {"n": n, "m": m}, "potential": potential,
            "amplitude": a,
            "sweep": {"a_min": a, "a_max": 10.0 * a + 1.0,
                      "steps": draw(st.integers(2, 3))},
            "mode": draw(st.integers(1, n)), "sign": draw(st.sampled_from("+-")),
            "continuation": {"n_harmonics": draw(st.integers(1, 3)),
                             "max_steps": draw(st.integers(1, 3))},
            "integration": {"dt": dt, "t_final": dt * draw(st.integers(1, 3))},
            "perturbation": {"scale": draw(st.sampled_from([0.0, 1e-3])),
                             "seed": 0},
            "verify_points": 1}


def run_in_process(command, doc):
    """(exit code, stderr, non-finite CSV cells) of one command run in a
    fresh output directory."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "config.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(path),
                         "--out", str(Path(work) / "out")])
        return code, err.getvalue(), nonfinite_cells(Path(work) / "out")


# README's config on a polynomial whose V'' overflows in the derivative
# table: simulate's midpoint solve cannot converge, and it exits 3
HUGE_SIMULATION = dict(
    README_CONFIG, potential=dict(POLY, coefficients=[0.0, 0.0, 1e308]),
    integration=dict(README_CONFIG["integration"], t_final=2.5))


def check_extreme_run(command, doc):
    # non-finite intermediates exit 3 and name the stage: never a traceback,
    # never an inf or nan cell in a CSV left behind, and no numpy warning:
    # stderr is empty on exit 0 and the one message line on exit 2 or 3
    code, err, bad = run_in_process(command, doc)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    assert bad == [], (code, err)
    if code == 0:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.endswith("\n"), err
    if code == 3:
        assert err.startswith(f"numerical failure in '{command}': "), err
    return code


@pytest.mark.parametrize("command", ["spectrum", "stability", "thresholds",
                                     "bifurcations", "continue", "simulate"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(doc=extreme_configs())
@example(doc=HUGE_SIMULATION)
def test_extreme_inputs_exit_0_2_or_3_with_finite_csv(command, doc):
    event(f"exit {check_extreme_run(command, doc)}")


VERIFY_EXTREMES = [
    ("huge_amplitude", {"amplitude": 1e300}),
    ("tiny_amplitude", {"amplitude": 1e-300}),
    ("huge_c", {"potential": {"kind": "cubic", "c": 1e300}}),
    ("tiny_negative_c", {"potential": {"kind": "saturable", "c": -1e-300}}),
    ("huge_polynomial", {"potential": {"kind": "polynomial",
                                       "coefficients": [0.0, 1.0, -1e300]}}),
    ("huge_dt", {"integration": {"dt": 1e300}}),
]


@pytest.mark.parametrize("change", [c for _, c in VERIFY_EXTREMES],
                         ids=[name for name, _ in VERIFY_EXTREMES])
def test_verify_extreme_inputs_exit_0_2_or_3_with_finite_csv(change):
    doc = dict(README_CONFIG, continuation={"n_harmonics": 4, "max_steps": 2},
               verify_points=1, **change)
    check_extreme_run("verify", doc)


@pytest.mark.parametrize("n", [6, 48])
@pytest.mark.parametrize("command, tables", [("spectrum", 1), ("thresholds", 1),
                                             ("bifurcations", 1), ("stability", 4)])
def test_one_block_table_per_amplitude(tmp_path, monkeypatch, n, command, tables):
    # every module that binds block_data calls it through a counting wrapper
    calls = []

    def counted(*args, **kwargs):
        table = block_data(*args, **kwargs)
        calls.append(table.k)
        return table

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dnls_ring" and getattr(module, "block_data",
                                                         None) is block_data:
            monkeypatch.setattr(module, "block_data", counted)
    doc = dict(BASE, lattice={"n": n, "m": 1}, amplitude=0.3,
               sweep={"a_min": 0.1, "a_max": 0.4, "steps": 4})
    assert main([command, "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == tables
    assert all(np.array_equal(k, np.arange(1, n)) for k in calls)


def test_readme_library_sketch_runs():
    scope = {}
    exec(readme_block("python"), scope)
    assert scope["branch"].points


# One fresh interpreter: the scipy modules loaded after the import and after
# each command (polynomial thresholds before the last command, verify or
# simulate, which loads LAPACK), and the numpy.fft modules loaded by the
# import, printed as the last line of JSON.
COLD_START = """
import json, sys
import dnls_ring, dnls_ring.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

config, polynomial, out, last, last_config = sys.argv[1:]
seen = {"import": [0, scipy_modules()],
        "numpy.fft": sorted(m for m in sys.modules if m.startswith("numpy.fft"))}
runs = [(command, command, config, out) for command in
        ["spectrum", "stability", "thresholds", "bifurcations", "continue"]]
runs += [("polynomial", "thresholds", polynomial, out + "/polynomial"),
         (last, last, last_config, out)]
for stage, command, path, where in runs:
    code = dnls_ring.cli.main([command, "--config", path, "--out", where])
    seen[stage] = [code, scipy_modules()]
print(json.dumps(seen))
"""

# thresholds.csv of the README config on V(s) = s + s^2/2 - s^3/20: every
# entry is a companion-matrix root of 2 s V''(s) = target alpha_k, and on
# k = 2, 4 (gamma_k = 0) a root of V''(s) = 0. Mirrored rows k and n - k
# are the same bytes, as alpha_{n-k} = alpha_k exactly.
POLYNOMIAL_THRESHOLDS = """\
k,a_hopf,a_gamma\r
1,0.52175980020491619,2.1771192324792326\r
2,1.0675300417187037,1.8257418583505536\r
3,,\r
4,1.0675300417187037,1.8257418583505536\r
5,0.52175980020491619,2.1771192324792326\r
"""


def test_cold_start_loads_scipy_only_where_needed(tmp_path):
    # and no numpy.fft on import: the reduced system reaches it only inside
    # its methods; verify and simulate load scipy's LAPACK extension alone,
    # each in its own interpreter
    config = write_config(tmp_path, README_CONFIG)
    polynomial = write_config(tmp_path, dict(
        README_CONFIG, potential={"kind": "polynomial",
                                  "coefficients": [0.0, 1.0, 0.5, -0.05]}),
        name="polynomial.json")
    simulate = write_config(tmp_path, dict(
        README_CONFIG, integration={"dt": 1e-3, "t_final": 0.1}),
        name="simulate.json")
    src = Path(__file__).resolve().parent.parent / "src"
    for last, last_config in [("verify", config), ("simulate", simulate)]:
        run = subprocess.run(
            [sys.executable, "-c", COLD_START, config, polynomial,
             str(tmp_path), last, last_config],
            capture_output=True, text=True, cwd=tmp_path, check=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        seen = json.loads(run.stdout.splitlines()[-1])
        assert seen["numpy.fft"] == []
        for stage in ["import", "spectrum", "stability", "thresholds",
                      "bifurcations", "continue", "polynomial"]:
            assert seen[stage] == [0, []], stage
        assert seen[last] == [0, ["scipy.linalg._flapack"]], last
    assert ((tmp_path / "polynomial" / "thresholds.csv").read_bytes()
            == POLYNOMIAL_THRESHOLDS.encode())
