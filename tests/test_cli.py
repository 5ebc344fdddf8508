import copy
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from dnls_ring.cli import main, read_csv


BASE = {
    "lattice": {"n": 6, "m": 1},
    "potential": {"kind": "cubic", "c": 1.0},
    "amplitude": 0.2,
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
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
]


@pytest.mark.parametrize("doc, key", [case[1:] for case in INVALID],
                         ids=[case[0] for case in INVALID])
def test_invalid_config_names_key_and_exits_2(tmp_path, capsys, doc, key):
    assert main(["stability", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["spectrum", "stability", "bifurcations"])
def test_overflowing_amplitude_exits_3(tmp_path, command):
    doc = dict(BASE, lattice={"n": 6, "m": 3}, amplitude=1e300)
    assert main([command, "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path)]) == 3


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


def test_missing_onset_exits_2(tmp_path):
    doc = dict(BASE, mode=3, sign="-")     # case (a) has no minus branch
    cfgp = write_config(tmp_path, doc)
    assert main(["continue", "--config", cfgp, "--out", str(tmp_path)]) == 2


def test_simulate_requires_t_final(tmp_path):
    cfgp = write_config(tmp_path, BASE)
    assert main(["simulate", "--config", cfgp, "--out", str(tmp_path)]) == 2


def test_simulate_writes_trajectory(tmp_path):
    doc = dict(BASE, integration={"dt": 0.01, "t_final": 0.1})
    cfgp = write_config(tmp_path, doc)
    assert main(["simulate", "--config", cfgp, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "trajectory.csv")
    assert header[0] == "t" and len(header) == 13
    assert len(rows) == 11
    # the equilibrium does not move (up to solver roundoff)
    first = np.array([float(v) for v in rows[0][1:]])
    last = np.array([float(v) for v in rows[-1][1:]])
    assert np.abs(first - last).max() <= 1e-12


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


README_CONFIG = {
    "lattice": {"n": 6, "m": 1},
    "potential": {"kind": "cubic", "c": 1.0},
    "amplitude": 0.2,
    "mode": 3,
    "sign": "+",
    "continuation": {"n_harmonics": 32, "max_steps": 40},
    "integration": {"dt": 1e-3, "periods": 1},
}
KEY_PATHS = [()] + [(key,) for key in README_CONFIG] + [
    (key, sub) for key, sec in README_CONFIG.items() if isinstance(sec, dict)
    for sub in sec]
DROP = object()
ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 20), st.integers(-10**30, 10**30),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e300, -1e300,
                     1e-300, -1.0, 0.0, "saturable", "polynomial", "-"]),
    st.text(max_size=3), st.lists(st.integers(-3, 20), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 20), max_size=2))


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main([command, "--config", str(path), "--out", str(tmp_path)])
    event(f"exit {code}")
    assert code in (0, 2, 3)
