import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import typing
import warnings
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trajdiag
import trajdiag.cli
from trajdiag.cli import RunConfig, load_config, main, render_svg
from trajdiag.data import biquad_path
from trajdiag.diagnose import DiagnosisResult, Hypothesis
from trajdiag.errors import ConfigError
from trajdiag.faultlib import FaultSpec
from trajdiag.netlist import parse_netlist
from trajdiag.trajectory import TestVector, build_trajectories, write_trajectories_csv

from conftest import ORACLE_VECTOR
from oracle_utils import random_rlc_vcvs_netlist


def run(args):
    return main([str(a) for a in args])


def plant_best_vector(outdir, frequencies, unit="rad/s"):
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "best_vector.json").write_text(
        json.dumps(
            {
                "unit": unit,
                "frequencies": list(frequencies),
                "fitness": 1.0,
                "intersections": 0,
                "seed": 1,
            }
        )
    )


# ---------------------------------------------------------------- config


def test_defaults_resolve_to_bundled_netlist():
    config = load_config(None, {})
    assert config.netlist.endswith("biquad.cir")
    assert config.unit == "rad/s"
    assert config.grid == 201


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"f_min": 0.1, "seed": 9, "targets": ["R1", "C1"]}))
    config = load_config(str(path), {"seed": 11})
    assert config.f_min == 0.1
    assert config.seed == 11  # flag overrides file
    assert config.targets == ("R1", "C1")


@pytest.mark.parametrize(
    "payload,fragment",
    [
        ({"unknown_field": 1}, "unknown_field"),
        ({"unit": "mhz"}, "unit"),
        ({"f_min": 2.0, "f_max": 1.0}, "f_min"),
        ({"grid": 0}, "grid"),
        ({"step": 0.07}, "step"),
        ({"range_low": 1.4}, "range"),
        ({"population_size": 1}, "^config field 'population_size': must be an integer"),
        ({"mutation_rate": 1.5}, "^config field 'mutation_rate': must lie in"),
        ({"tol": 0.0}, "tol"),
        ({"ambiguity_margin": -1.0}, "ambiguity_margin"),
        ({"netlist": "/nonexistent/file.cir"}, "/nonexistent/file.cir"),
        ({"grid": 1.5}, "integer"),
        # finite, but not once scaled to rad/s
        ({"unit": "hz", "f_max": 1e308}, "^config field 'f_min'.'f_max': need 0 < f_min"),
        ({"range_high": 1e300, "step": 1e-300}, "range_high is too many steps"),
        # string fields take JSON strings only; targets a list of them or one
        ({"outdir": None}, "'outdir': expected a string, got null"),
        ({"outdir": ["a"]}, "'outdir': expected a string, got a list"),
        ({"outdir": True}, "'outdir': expected a string, got a boolean"),
        ({"netlist": 5}, "'netlist': expected a string, got a number"),
        ({"unit": None}, "'unit': expected a string, got null"),
        ({"targets": {"R1": 0, "C1": 1}}, "'targets': expected a list of .*, got an object"),
        ({"targets": ["R1", 5]}, "'targets': expected a list of .*, got a list"),
        ({"targets": 5}, "'targets': expected a list of .*, got a number"),
        # an empty or repeating target list names its field, as an unknown id does
        ({"targets": []}, "^config field 'targets': fault target list is empty$"),
        ({"targets": ""}, "^config field 'targets': fault target list is empty$"),
        ({"targets": ","}, "^config field 'targets': fault target list is empty$"),
        ({"targets": ["R1", "R1"]}, "^config field 'targets': duplicate fault target$"),
    ],
)
def test_malformed_configs_fail_fast(tmp_path, payload, fragment):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=fragment.replace("/", ".")):
        load_config(str(path), {})


@pytest.mark.parametrize(
    "args,line",
    [
        (["--f-min", 10, "--f-max", 1],
         "config field 'f_min'/'f_max': need 0 < f_min < f_max < inf, got 10.0..1.0"),
        (["--population-size", 1],
         "config field 'population_size': must be an integer of at least 2, got 1"),
        (["--mutation-rate", 1.5], "config field 'mutation_rate': must lie in [0, 1], got 1.5"),
        (["--seed", -1], "config field 'seed': must be an unsigned 64-bit integer, got -1"),
    ],
    ids=["band", "count", "rate", "seed"],
)
def test_bad_ga_setting_names_its_field(tmp_path, capsys, args, line):
    # one line per message shape of GaConfig: the band, a count, a rate, the seed
    out = tmp_path / "out"
    assert run(["simulate", "--outdir", out, *args]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args,line",
    [
        (["--range-low", 1e-12],
         "config field 'range_low'/'range_high'/'step': range_low rounds to deviation -1, "
         "a multiplier of 0 or less (range_low 1e-12, step 0.1)"),
        (["--grid", 5, "--f-min", 1, "--f-max", 1.0000000000000002],
         "config field 'grid': 5 points are not distinct frequencies between f_min and f_max"),
    ],
    ids=["zero-multiplier", "crowded-band"],
)
def test_bad_sweep_grid_names_its_field(tmp_path, capsys, args, line):
    # a fault grid whose lowest multiplier rounds to 0, and a band too
    # narrow for its points, are bad input: exit 2 naming the field, no outdir
    out = tmp_path / "out"
    assert run(["simulate", "--outdir", out, *args]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not out.exists()


FIELD_TYPES = typing.get_type_hints(RunConfig)


def _one_line_field_error(capsys, name):
    err = capsys.readouterr().err
    return err.startswith(f"error: config field {name!r}: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", [n for n, kind in FIELD_TYPES.items() if kind is float])
def test_non_finite_float_fields_exit_2(tmp_path, capsys, name, value):
    out = tmp_path / "out"
    flag = "--" + name.replace("_", "-")
    assert run(["optimize", "--outdir", out, f"{flag}={value}"]) == 2
    assert _one_line_field_error(capsys, name)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({name: float(value)}))  # NaN / Infinity literals
    assert run(["optimize", "--outdir", out, "--config", config]) == 2
    assert _one_line_field_error(capsys, name)
    assert not out.exists()


@pytest.mark.parametrize("name", [n for n, kind in FIELD_TYPES.items() if kind is int])
def test_json_boolean_int_fields_exit_2(tmp_path, capsys, name):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({name: True}))
    assert run(["optimize", "--outdir", tmp_path / "out", "--config", config]) == 2
    assert _one_line_field_error(capsys, name)


def test_every_field_is_a_flag_that_overrides_the_file(tmp_path, monkeypatch):
    netlist = tmp_path / "copy.cir"
    netlist.write_text(biquad_path().read_text())
    from_file = {
        "netlist": str(netlist), "outdir": "a", "unit": "hz", "f_min": 0.02,
        "f_max": 50.0, "grid": 11, "targets": ["R1"], "range_low": 0.8,
        "range_high": 1.2, "step": 0.1, "population_size": 10, "generations": 3,
        "reproduction_rate": 0.3, "mutation_rate": 0.2, "n_frequencies": 3,
        "seed": 7, "tol": 1e-5, "origin_tol": 1e-5, "ambiguity_margin": 0.1,
    }
    from_flags = {
        "netlist": str(biquad_path()), "outdir": "b", "unit": "rad/s", "f_min": 0.03,
        "f_max": 60.0, "grid": 12, "targets": ("R2", "C1"), "range_low": 0.7,
        "range_high": 1.3, "step": 0.05, "population_size": 12, "generations": 4,
        "reproduction_rate": 0.6, "mutation_rate": 0.1, "n_frequencies": 2,
        "seed": 8, "tol": 2e-5, "origin_tol": 3e-5, "ambiguity_margin": 0.2,
    }
    assert set(from_file) == set(from_flags) == set(FIELD_TYPES)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(from_file))
    seen = []

    def capture(config, query):
        seen.append(config)
        return 0

    monkeypatch.setattr(trajdiag.cli, "cmd_plot_data", capture)
    flags = []
    for name, value in from_flags.items():
        text = ",".join(value) if name == "targets" else value
        flags.append(f"--{name.replace('_', '-')}={text}")
    assert run(["plot-data", "--config", path]) == 0
    assert run(["plot-data", "--config", path] + flags) == 0
    from_file["targets"] = tuple(from_file["targets"])
    for config, expected in zip(seen, (from_file, from_flags)):
        assert {name: getattr(config, name) for name in FIELD_TYPES} == expected


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(path), {})


def test_missing_config_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/config.json", {})


def test_parser_is_built_once(tmp_path):
    assert trajdiag.cli._build_parser() is trajdiag.cli._build_parser()
    assert run(["simulate", "--outdir", tmp_path / "a", "--grid", 5]) == 0
    plant_best_vector(tmp_path / "b", ORACLE_VECTOR)
    assert run(["diagnose", "--outdir", tmp_path / "b", "--inject", "R1:0.2"]) == 0
    # the first call's flags do not carry over
    assert run(["simulate", "--outdir", tmp_path / "c"]) == 0
    rows = [
        len((tmp_path / d / "dictionary.csv").read_text().splitlines()) for d in "ac"
    ]
    assert rows[1] - 1 == (rows[0] - 1) * 201 // 5
    with pytest.raises(SystemExit) as excinfo:
        run(["simulate", "--no-such-flag"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------- simulate


def test_simulate_writes_dictionary(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["simulate", "--outdir", out, "--grid", 10]) == 0
    lines = (out / "dictionary.csv").read_text().splitlines()
    assert lines[0] == "component,deviation,freq,mag_db"
    groups = {tuple(line.split(",")[:2]) for line in lines[1:]}
    assert len(groups) == 57  # golden + 56 faults
    assert len(lines) == 1 + 57 * 10  # 10 rows per curve group


@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_outdir_exit_2_writing_nothing(tmp_path, capsys, monkeypatch, source):
    # "" would be the current directory; only ``netlist`` reads "" as a default
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"outdir": "", "netlist": ""}))
    args = ["--outdir", ""] if source == "flag" else ["--config", config]
    assert run(["simulate", "--grid", 3] + args) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == "error: config field 'outdir': must not be empty"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


def test_simulate_missing_netlist_exit_2(tmp_path, capsys):
    code = run(["simulate", "--netlist", "/no/such.cir", "--outdir", tmp_path])
    assert code == 2
    assert "/no/such.cir" in capsys.readouterr().err


def test_simulate_bad_step_exit_2(tmp_path, capsys):
    code = run(["simulate", "--step", 0.07, "--outdir", tmp_path])
    assert code == 2
    assert "step" in capsys.readouterr().err


def test_simulate_hz_unit(tmp_path):
    out = tmp_path / "out"
    assert (
        run(
            [
                "simulate", "--outdir", out, "--grid", 3, "--unit", "hz",
                "--f-min", 0.01, "--f-max", 1.0, "--targets", "R1",
                "--range-low", "0.9", "--range-high", "1.1",
            ]
        )
        == 0
    )
    lines = (out / "dictionary.csv").read_text().splitlines()
    freq = float(lines[1].split(",")[2])
    assert freq == pytest.approx(0.01)  # echoed in user units
    mag = float(lines[1].split(",")[3])
    import trajdiag as td
    from trajdiag.data import biquad_path

    circuit = td.parse_netlist(biquad_path().read_text())
    expected = 20 * math.log10(abs(td.solve_ac(circuit, 2 * math.pi * 0.01)))
    assert mag == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "target,fragment",
    [
        ("E1", "E1: only resistor/capacitor/inductor"),
        ("X9", "unknown component 'X9'"),
        (",", "fault target list is empty"),
        ("R1,R1", "duplicate fault target"),
    ],
)
def test_simulate_bad_target_exit_2(tmp_path, capsys, target, fragment):
    assert run(["simulate", "--outdir", tmp_path / "out", "--targets", target]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: config field 'targets': ") and fragment in line


def test_netlist_without_passives_names_targets(tmp_path, capsys):
    # with targets unset, the fault targets are the netlist's passives: none here
    netlist = tmp_path / "gain.cir"
    netlist.write_text("V1 in 0 1\nE1 out 0 in 0 2\n.input V1\n.output out\n")
    assert run(["simulate", "--netlist", netlist, "--outdir", tmp_path / "out"]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == "error: config field 'targets': fault target list is empty"


def _tripwire(*args, **kwargs):
    raise AssertionError("reached past the work limit")


@pytest.mark.parametrize(
    "args,field",
    [
        (["simulate", "--grid", 300_000_000], "grid"),
        (["simulate", "--step", 0.0000001], "grid"),  # 8 million faults per target
        (["simulate", "--range-high", 1e300], "grid"),
        # 9 rows x 1e6 points pass without the netlist; the biquad's 57 do not
        (["simulate", "--grid", 1_000_000], "grid"),
        (["optimize", "--grid", 1_000_000], "grid"),
        (["optimize", "--population-size", 400_000_000, "--generations", 0], "population_size"),
        # 5,600 biquad faults: faults x faults = 31.4 million
        (["optimize", "--step", 0.001], "step"),
    ],
)
def test_work_past_the_limit_exit_2_before_building(tmp_path, capsys, monkeypatch, args, field):
    for name in ("FaultConfig", "enumerate_faults", "log_grid", "build_dictionary", "run_ga"):
        monkeypatch.setattr(trajdiag.cli, name, _tripwire)
    out = tmp_path / "out"
    assert run(args + ["--outdir", out]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: config field {field!r}: ")
    assert line.endswith("exceed the work limit of 10,000,000 values")
    assert not out.exists()


def test_fault_pairs_within_the_limit_reach_the_ga(tmp_path, monkeypatch):
    # 2,800 biquad faults: faults x faults = 7.8 million
    monkeypatch.setattr(trajdiag.cli, "run_ga", _tripwire)
    with pytest.raises(AssertionError, match="reached past the work limit"):
        run(["optimize", "--step", 0.002, "--outdir", tmp_path / "out"])


def test_simulate_builds_each_fault_once(tmp_path, monkeypatch):
    built = []
    check = FaultSpec.__post_init__

    def counting(spec):
        built.append(spec)
        check(spec)

    monkeypatch.setattr(FaultSpec, "__post_init__", counting)
    assert run(["simulate", "--outdir", tmp_path / "out", "--grid", 3]) == 0
    assert len(built) == len(set(built)) == 56


def test_work_limit_boundary():
    limit = trajdiag.cli._WORK_LIMIT
    rows = 1 + 8  # golden + R1's 8 faults
    RunConfig(targets=("R1",), grid=limit // rows)
    with pytest.raises(ConfigError, match="'grid'.*work limit"):
        RunConfig(targets=("R1",), grid=limit // rows + 1)
    RunConfig(population_size=limit // 4, n_frequencies=4)
    with pytest.raises(ConfigError, match="'population_size'.*work limit"):
        RunConfig(population_size=limit // 4 + 1, n_frequencies=4)


@pytest.mark.parametrize("command", ["simulate", "optimize"])
def test_comma_in_element_id_exit_2(tmp_path, capsys, command):
    # the id would add a field to every CSV row that names it
    netlist = tmp_path / "comma.cir"
    netlist.write_text("V1 in 0 1\nR1 in out 1\nC1,x out 0 1\n.input V1\n.output out\n")
    out = tmp_path / "out"
    assert run([command, "--netlist", netlist, "--outdir", out]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == "error: line 3: element id 'C1,x' contains a comma"
    assert not out.exists()


# ---------------------------------------------------------------- optimize


def test_optimize_outputs_and_reproducibility(tmp_path):
    args = ["optimize", "--population-size", 16, "--generations", 2, "--seed", 5]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--outdir", out_a]) == 0
    assert run(args + ["--outdir", out_b]) == 0
    for name in ("ga_log.csv", "best_vector.json", "trajectories.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    payload = json.loads((out_a / "best_vector.json").read_text())
    assert payload["fitness"] == pytest.approx(
        1.0 / (payload["intersections"] + 1)
    )
    assert payload["seed"] == 5
    assert len(payload["frequencies"]) == 2


def test_optimize_warns_when_fitness_below_one(tmp_path, capsys):
    out = tmp_path / "out"
    # an enormous intersection tolerance makes every segment pair incident
    code = run(
        [
            "optimize", "--outdir", out, "--population-size", 8,
            "--generations", 0, "--seed", 2, "--tol", 1000.0,
        ]
    )
    assert code == 0  # still success, warning only
    captured = capsys.readouterr()
    assert "warning" in captured.err
    payload = json.loads((out / "best_vector.json").read_text())
    assert payload["fitness"] < 1.0


def test_pipeline_failure_exit_1(tmp_path, capsys):
    netlist = tmp_path / "floating.cir"
    netlist.write_text("V1 1 0 1\nR1 1 0 1\nR2 2 3 1\n.input V1\n.output 2\n")
    code = run(
        ["simulate", "--netlist", netlist, "--outdir", tmp_path / "out", "--grid", 3]
    )
    assert code == 1
    assert "singular" in capsys.readouterr().err


def test_out_of_range_mna_entry_exit_1(tmp_path):
    # 1/R overflows to inf: one stderr line naming the row, and LAPACK
    # (which prints its own complaints to stdout) never sees the matrix
    netlist = tmp_path / "tiny.cir"
    netlist.write_text("V1 1 0 1\nR1 1 2 1e-320\nR2 2 0 1\n.input V1\n.output 2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "trajdiag", "simulate", "--netlist", str(netlist),
         "--outdir", str(tmp_path / "out"), "--grid", "3"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(trajdiag.__file__).parents[1])},
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert "golden circuit failed" in line and "out of floating-point range" in line


def test_overflowing_solve_exit_1_with_one_line(tmp_path):
    # w*C overflows at the top frequency: numpy's RuntimeWarnings stay off
    # stderr, which holds only the error line
    netlist = tmp_path / "huge-c.cir"
    netlist.write_text("V1 in 0 1\nR1 in out 1\nC1 out 0 1e300\n.input V1\n.output out\n")
    proc = subprocess.run(
        [sys.executable, "-m", "trajdiag", "simulate", "--netlist", str(netlist),
         "--outdir", str(tmp_path / "out"), "--grid", "5", "--f-min", "1e-300", "--f-max", "1e9"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(trajdiag.__file__).parents[1])},
    )
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and "failed" in line


@pytest.mark.parametrize("command", ["simulate", "optimize"])
def test_ground_output_exit_2(tmp_path, capsys, command):
    netlist = tmp_path / "ground.cir"
    netlist.write_text("V1 1 0 1\nR1 1 2 1\nC1 2 0 1\n.input V1\n.output 0\n")
    code = run([command, "--netlist", netlist, "--outdir", tmp_path / "out"])
    assert code == 2
    assert "ground" in capsys.readouterr().err


PROBE_NETLISTS = {
    "self-loop resistor": "V1 in 0 1\nR1 in out 1\nR9 out out 5\nC1 out 0 1\n",
    "inductor loop": "V1 in 0 1\nR1 in out 1\nL1 out 0 1\nL2 out 0 2\nC1 out 0 1\n",
    "1e-300 values": "V1 in 0 1\nR1 in out 1e-300\nR2 out 0 1e-300\nC1 out 0 1e-300\n",
    "1e300 R and L": "V1 in 0 1\nR1 in out 1e300\nC1 out 0 1e-300\nL1 out 0 1e300\n",
    "1e300 C": "V1 in 0 1\nR1 in out 1e-300\nC1 out 0 1e300\nL1 out 0 1e-300\n",
}
PROBE_FLAGS = {"single target": ["--targets", "R1"], "40 frequencies": ["--n-frequencies", 40]}


@pytest.mark.parametrize(
    "netlist,flags",
    [(name, []) for name in PROBE_NETLISTS] + [("biquad", flags) for flags in PROBE_FLAGS.values()],
    ids=list(PROBE_NETLISTS) + list(PROBE_FLAGS),
)
@pytest.mark.parametrize("command", ["simulate", "optimize"])
def test_edge_circuits_and_flags_run(tmp_path, command, netlist, flags):
    # circuits and flags at the edges of what the solve accepts still run to
    # exit 0 through the block-streamed solve
    path = biquad_path()
    if netlist != "biquad":
        path = tmp_path / "probe.cir"
        path.write_text(PROBE_NETLISTS[netlist] + ".input V1\n.output out\n")
    args = [command, "--netlist", path, "--outdir", tmp_path / "out", "--grid", 21]
    if command == "optimize":
        args += ["--population-size", 8, "--generations", 1]
    assert run(args + flags) == 0


def test_unparseable_netlist_exit_2(tmp_path, capsys):
    netlist = tmp_path / "broken.cir"
    netlist.write_text("Q1 1 2 3 model\n")
    code = run(["simulate", "--netlist", netlist, "--outdir", tmp_path / "out"])
    assert code == 2
    assert "unknown element kind" in capsys.readouterr().err


def test_netlist_value_out_of_range_exit_2(tmp_path, capsys):
    netlist = tmp_path / "huge.cir"
    netlist.write_text("V1 1 0 1\nR1 1 2 1\nC1 2 0 1e999\n.input V1\n.output 2\n")
    code = run(["simulate", "--netlist", netlist, "--outdir", tmp_path / "out"])
    assert code == 2
    assert "line 3: C1: value '1e999'" in capsys.readouterr().err


def test_optimize_zero_generations(tmp_path):
    out = tmp_path / "out"
    assert (
        run(
            [
                "optimize", "--outdir", out, "--population-size", 8,
                "--generations", 0, "--seed", 3,
            ]
        )
        == 0
    )
    lines = (out / "ga_log.csv").read_text().splitlines()
    assert len(lines) == 2  # header + generation 0


# ---------------------------------------------------------------- diagnose


def test_diagnose_inject_round_trip(tmp_path, capsys):
    out = tmp_path / "out"
    plant_best_vector(out, ORACLE_VECTOR)
    assert run(["diagnose", "--outdir", out, "--inject", "R3:+0.2"]) == 0
    lines = (out / "diagnosis.csv").read_text().splitlines()
    assert lines[0] == "rank,component,distance_db,est_deviation,via_perpendicular"
    rank1 = lines[1].split(",")
    assert rank1[0] == "1" and rank1[1] == "R3"
    assert float(rank1[2]) <= 1e-9


def test_diagnose_with_a_component_of_no_effect(tmp_path, capsys):
    # R9 sits across the source, so all its signature points are the
    # origin and its segments have zero length
    netlist = tmp_path / "shunt.cir"
    netlist.write_text("V1 in 0 1\nR9 in 0 1\nR1 in out 1\nC1 out 0 1\n.input V1\n.output out\n")
    args = ["--netlist", netlist, "--outdir", tmp_path / "out"]
    assert run(["optimize", *args, "--generations", 2, "--population-size", 8]) == 0
    assert run(["diagnose", *args, "--inject", "R1:0.2"]) == 0
    rows = (tmp_path / "out" / "diagnosis.csv").read_text().splitlines()[1:]
    assert sorted(row.split(",")[1] for row in rows) == ["C1", "R1"]
    assert "error" not in capsys.readouterr().err


def test_diagnose_measured_golden_is_nominal(tmp_path, capsys):
    import trajdiag as td
    from trajdiag.data import biquad_path
    from trajdiag.faultlib import evaluate_at

    out = tmp_path / "out"
    plant_best_vector(out, ORACLE_VECTOR)
    circuit = td.parse_netlist(biquad_path().read_text())
    golden = evaluate_at(circuit, None, ORACLE_VECTOR)
    measured = ",".join(repr(v) for v in golden)
    # dB values are negative, so the = form keeps argparse happy
    assert run(["diagnose", "--outdir", out, f"--measured={measured}"]) == 0
    assert "nominal / no fault" in capsys.readouterr().out


def test_diagnose_measured_arity_error(tmp_path, capsys):
    out = tmp_path / "out"
    plant_best_vector(out, ORACLE_VECTOR)
    assert run(["diagnose", "--outdir", out, "--measured", "1,2,3"]) == 2
    assert "expected 2 values" in capsys.readouterr().err


def test_diagnose_unknown_inject_component(tmp_path, capsys):
    out = tmp_path / "out"
    plant_best_vector(out, ORACLE_VECTOR)
    assert run(["diagnose", "--outdir", out, "--inject", "X7:0.2"]) == 2
    assert "X7" in capsys.readouterr().err


@pytest.mark.parametrize("inject", ["E1:0.1", "V1:0.1"])
def test_diagnose_inject_non_passive_exit_2(tmp_path, capsys, inject):
    out = tmp_path / "out"
    plant_best_vector(out, ORACLE_VECTOR)
    assert run(["diagnose", "--outdir", out, "--inject", inject]) == 2
    [line] = capsys.readouterr().err.splitlines()
    component = inject.split(":")[0]
    assert line == (
        f"error: --inject: {component}: only resistor/capacitor/inductor values can be deviated"
    )


@pytest.mark.parametrize("value", ["nan,nan", "inf,-1", "-inf,-1"])
def test_diagnose_measured_non_finite(tmp_path, capsys, value):
    out = tmp_path / "out"
    plant_best_vector(out, ORACLE_VECTOR)
    assert run(["diagnose", "--outdir", out, f"--measured={value}"]) == 2
    err = capsys.readouterr().err
    assert "finite" in err and len(err.splitlines()) == 1
    assert not (out / "diagnosis.csv").exists()


@pytest.mark.parametrize(
    "frequencies,value",
    [
        (ORACLE_VECTOR, "-1e300,1e300"),
        (ORACLE_VECTOR[:1], "-1e308"),
        (ORACLE_VECTOR, f"-9.5,{math.nextafter(trajdiag.cli._MEASURED_LIMIT_DB, math.inf)!r}"),
    ],
)
def test_diagnose_measured_beyond_the_db_limit(tmp_path, capsys, frequencies, value):
    out = tmp_path / "out"
    plant_best_vector(out, frequencies)
    assert run(["diagnose", "--outdir", out, f"--measured={value}"]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == "error: --measured: values must lie within +-10000 dB"
    assert not (out / "diagnosis.csv").exists()


def test_diagnose_measured_at_the_db_limit_ranks_finitely(tmp_path, capsys):
    out = tmp_path / "out"
    plant_best_vector(out, ORACLE_VECTOR)
    limit = trajdiag.cli._MEASURED_LIMIT_DB
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["diagnose", "--outdir", out, f"--measured={-limit!r},{limit!r}"]) == 0
    assert capsys.readouterr().err == ""
    rows = (out / "diagnosis.csv").read_text().splitlines()[1:]
    assert len(rows) == 7
    for row in rows:
        assert all(math.isfinite(float(x)) for x in row.split(",")[2:4])


def test_diagnose_non_finite_ranking_exit_1(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    plant_best_vector(out, ORACLE_VECTOR)
    ranking = DiagnosisResult((Hypothesis("R1", math.inf, 0.1, 0, True),), ambiguous=False)
    monkeypatch.setattr(trajdiag.cli, "classify", lambda *args, **kwargs: ranking)
    assert run(["diagnose", "--outdir", out, "--inject", "R3:0.2"]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == "error: diagnose: the ranking is not finite"
    assert not (out / "diagnosis.csv").exists()


def test_memory_error_exit_1_without_traceback(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(trajdiag.cli, "run_ga", exhausted)
    assert run(["optimize", "--outdir", tmp_path / "out"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: out of memory running 'optimize'\n"
    assert "Traceback" not in captured.out


@pytest.mark.parametrize("amount", ["-1", "-1.5", "nan", "inf"])
def test_diagnose_inject_impossible_deviation(tmp_path, capsys, amount):
    out = tmp_path / "out"
    plant_best_vector(out, ORACLE_VECTOR)
    assert run(["diagnose", "--outdir", out, f"--inject=R3:{amount}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --inject") and len(err.splitlines()) == 1


def test_diagnose_best_vector_unknown_unit(tmp_path, capsys):
    out = tmp_path / "out"
    plant_best_vector(out, ORACLE_VECTOR, unit="mhz")
    assert run(["diagnose", "--outdir", out, "--inject", "R3:0.2"]) == 2
    err = capsys.readouterr().err
    assert "unknown unit 'mhz'" in err and len(err.splitlines()) == 1


def test_diagnose_best_vector_unit_in_any_case(tmp_path):
    # --unit Hz is accepted, so a best_vector.json saying "Hz" is read too
    lower, upper = tmp_path / "lower", tmp_path / "upper"
    plant_best_vector(lower, ORACLE_VECTOR, unit="hz")
    plant_best_vector(upper, ORACLE_VECTOR, unit="Hz")
    assert run(["diagnose", "--outdir", lower, "--inject", "R3:0.2"]) == 0
    assert run(["diagnose", "--outdir", upper, "--inject", "R3:0.2"]) == 0
    assert (upper / "diagnosis.csv").read_bytes() == (lower / "diagnosis.csv").read_bytes()


def test_diagnose_best_vector_corrupt_json(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "best_vector.json").write_text('{"frequencies": [0.01, ')
    assert run(["diagnose", "--outdir", out, "--inject", "R3:0.2"]) == 2
    err = capsys.readouterr().err
    assert "invalid JSON" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "payload,fragment",
    [
        ({"unit": "rad/s"}, "KeyError"),
        ([0.01, 0.3], "TypeError"),
        ({"frequencies": 0.5}, "TypeError"),
        ({"frequencies": [0.5, "x"]}, "could not convert"),
        ({"frequencies": [0.5, -1.0]}, "positive and finite"),
        ({"frequencies": [0.5, 1e400]}, "positive and finite"),
        ({"frequencies": []}, "at least one frequency"),
        # a JSON list of numbers only: a string, an object or a boolean is
        # not read as frequencies
        ({"frequencies": "37"}, "TypeError"),
        ({"frequencies": {"3": 1, "7": 2}}, "TypeError"),
        ({"frequencies": [0.5, True]}, "could not convert"),
        ({"frequencies": [0.5, "7"]}, "could not convert"),
        ({"frequencies": [0.5, 10**400]}, "OverflowError"),
    ],
)
def test_diagnose_best_vector_bad_content(tmp_path, capsys, payload, fragment):
    out = tmp_path / "out"
    out.mkdir()
    (out / "best_vector.json").write_text(json.dumps(payload))
    assert run(["diagnose", "--outdir", out, "--inject", "R3:0.2"]) == 2
    err = capsys.readouterr().err
    assert "missing or bad 'frequencies'" in err and fragment in err
    assert len(err.splitlines()) == 1


def test_diagnose_requires_best_vector(tmp_path, capsys):
    assert run(["diagnose", "--outdir", tmp_path, "--inject", "R1:0.2"]) == 2
    assert "best_vector.json" in capsys.readouterr().err


def test_diagnose_requires_measurement_flag(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        run(["diagnose", "--outdir", tmp_path])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------- plot-data


def _plant_trajectories(tmp_path, biquad, biquad_faults):
    out = tmp_path / "out"
    out.mkdir(parents=True, exist_ok=True)
    trajectories = build_trajectories(biquad, biquad_faults, TestVector((0.4, 1.7)))
    write_trajectories_csv(out / "trajectories.csv", trajectories)
    return out


def test_plot_data_svg(tmp_path, biquad, biquad_faults):
    out = _plant_trajectories(tmp_path, biquad, biquad_faults)
    assert run(["plot-data", "--outdir", out]) == 0
    svg = (out / "trajectories.svg").read_text()
    assert svg.count("<polyline") == 7
    for component in ("R1", "R5", "C2"):
        assert f">{component}</text>" in svg
    assert "golden" in svg
    assert "<polygon" not in svg  # no query marker without --query


def test_plot_data_escapes_component_names(tmp_path):
    netlist = tmp_path / "markup.cir"
    netlist.write_text("V1 in 0 1\nR<1 in out 1\nC&1 out 0 1\n.input V1\n.output out\n")
    args = ["--netlist", netlist, "--outdir", tmp_path / "out"]
    assert run(["optimize", *args, "--population-size", 8, "--generations", 0]) == 0
    assert run(["plot-data", *args]) == 0
    svg = ElementTree.parse(tmp_path / "out" / "trajectories.svg").getroot()
    labels = [text.text for text in svg.iter("{http://www.w3.org/2000/svg}text")]
    assert labels == ["R<1", "C&1", "golden"]


def test_plot_data_query_marker(tmp_path, biquad, biquad_faults):
    out = _plant_trajectories(tmp_path, biquad, biquad_faults)
    assert run(["plot-data", "--outdir", out, "--query", "0.5,-0.25"]) == 0
    assert "<polygon" in (out / "trajectories.svg").read_text()


def test_plot_data_missing_input(tmp_path, capsys):
    assert run(["plot-data", "--outdir", tmp_path]) == 2
    assert "trajectories.csv" in capsys.readouterr().err


def test_plot_data_empty_input(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "trajectories.csv").write_text("component,deviation,x1,x2\n")
    assert run(["plot-data", "--outdir", out]) == 2


def test_plot_data_one_column_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "trajectories.csv").write_text("component\nR1\nR1\n")
    assert run(["plot-data", "--outdir", out]) == 2
    assert "component and deviation columns" in capsys.readouterr().err


def test_plot_data_one_frequency_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["--outdir", out, "--n-frequencies", 1, "--generations", 1, "--population-size", 8]
    assert run(["optimize"] + args) == 0
    capsys.readouterr()
    assert run(["plot-data", "--outdir", out]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert "plot-data needs 2 or more test frequencies" in line
    assert not (out / "trajectories.svg").exists()


def test_plot_data_short_rows_exit_2(tmp_path, capsys, biquad, biquad_faults):
    # every C2 row loses x2: alone, C2 would be a consistent 1-D trajectory
    out = _plant_trajectories(tmp_path, biquad, biquad_faults)
    path = out / "trajectories.csv"
    lines = [
        line.rsplit(",", 1)[0] if line.startswith("C2,") else line
        for line in path.read_text().splitlines()
    ]
    path.write_text("\n".join(lines) + "\n")
    assert run(["plot-data", "--outdir", out]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert "a row has 3 fields, the header has 4" in line
    assert not (out / "trajectories.svg").exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_plot_data_non_finite_coordinate_exit_2(tmp_path, capsys, biquad, biquad_faults, bad):
    out = _plant_trajectories(tmp_path, biquad, biquad_faults)
    path = out / "trajectories.csv"
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[2] = bad
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert run(["plot-data", "--outdir", out]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "trajectories.svg").exists()


@pytest.mark.parametrize("query", ["nan,1", "0.5,inf", "-inf,0"])
def test_plot_data_non_finite_query_exit_2(tmp_path, capsys, biquad, biquad_faults, query):
    out = _plant_trajectories(tmp_path, biquad, biquad_faults)
    assert run(["plot-data", "--outdir", out, f"--query={query}"]) == 2
    assert "--query" in capsys.readouterr().err
    assert not (out / "trajectories.svg").exists()


def test_render_svg_deterministic(biquad, biquad_faults):
    trajectories = build_trajectories(biquad, biquad_faults, TestVector((0.4, 1.7)))
    assert render_svg(trajectories) == render_svg(trajectories)
    assert render_svg(trajectories, (0.1, 0.2)) != render_svg(trajectories)


# ---------------------------------------------------------------- misc


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["--version"])
    assert excinfo.value.code == 0
    assert "trajdiag" in capsys.readouterr().out


def test_missing_subcommand_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        run([])
    assert excinfo.value.code == 2


def test_simulate_reproducible_bytes(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run(["simulate", "--outdir", out, "--grid", 7]) == 0
    assert (out_a / "dictionary.csv").read_bytes() == (
        out_b / "dictionary.csv"
    ).read_bytes()


# ---------------------------------------------------------------- user files


def _one_error_line(capsys, fragment):
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and fragment in line, line
    assert "Traceback" not in captured.out


QUICK = ["--grid", 3, "--population-size", 4, "--generations", 0]


@pytest.mark.parametrize("command", ["simulate", "optimize"])
@pytest.mark.parametrize("below", [False, True])
def test_outdir_that_is_not_a_directory_exit_2(tmp_path, capsys, monkeypatch, command, below):
    # an existing file as --outdir, or a path below one: found before any work
    for name in ("build_dictionary", "run_ga", "build_trajectories"):
        monkeypatch.setattr(trajdiag.cli, name, _tripwire)
    blocker = tmp_path / "file"
    blocker.write_text("")
    outdir = blocker / "x" if below else blocker
    assert run([command, "--outdir", outdir, *QUICK]) == 2
    _one_error_line(capsys, f"config field 'outdir': cannot create {outdir}: ")


NOT_UTF8 = b"V1 in 0 1\n\xff\xfe\n"


# files read from --outdir, and the command that reads each
OUTDIR_INPUTS = {
    "best_vector.json": ["diagnose", "--measured=0,0"],
    "trajectories.csv": ["plot-data"],
}


@pytest.mark.parametrize("which", ["netlist", "config", *OUTDIR_INPUTS])
def test_user_file_that_is_not_utf8_exit_2(tmp_path, capsys, which):
    out = tmp_path / "out"
    path = tmp_path / "bad"
    command = ["simulate", "--outdir", out, f"--{which}", path, *QUICK]
    if which in OUTDIR_INPUTS:
        out.mkdir()
        path = out / which
        command = [*OUTDIR_INPUTS[which], "--outdir", out]
    path.write_bytes(NOT_UTF8)
    assert run(command) == 2
    _one_error_line(capsys, f"cannot read {path}: ")


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    # a non-ASCII element id: the C locale without UTF-8 mode writes the
    # same bytes as UTF-8 mode, plot-data reads them back, and diagnose
    # takes the id from the command line and prints it as UTF-8
    netlist = tmp_path / "mu.cir"
    netlist.write_text(
        "V1 in 0 1\nR\u00b51 in a 1k\nC1 a 0 1u\nR2 a out 1k\nC2 out 0 1u\n"
        ".input V1\n.output out\n",
        encoding="utf-8",
    )
    # the same run with non-ASCII file names from a --config file, which
    # is read as UTF-8, gives the same bytes
    named = tmp_path / "\u00b5.cir"
    named.write_bytes(netlist.read_bytes())
    files, reports = {}, {}
    diagnose = ["diagnose", "--inject", "R\u00b51:0.2", "--targets", "R\u00b51,C1,R2,C2"]
    for utf8_mode in ("0", "1"):
        out = tmp_path / f"utf8-mode-{utf8_mode}"
        config = tmp_path / f"utf8-mode-{utf8_mode}.json"
        config.write_text(
            json.dumps({"netlist": str(named), "outdir": str(tmp_path / f"o\u00b5t-{utf8_mode}")}),
            encoding="utf-8",
        )
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(trajdiag.__file__).parents[1]),
            "PYTHONCOERCECLOCALE": "0",
            "LC_ALL": "C",
            "PYTHONUTF8": utf8_mode,
        }
        flags = ["--netlist", str(netlist), "--outdir", str(out)]
        for source in (flags, ["--config", str(config)]):
            for command in (["simulate"], ["optimize"], ["plot-data"], diagnose):
                proc = subprocess.run(
                    [sys.executable, "-m", "trajdiag", *command, *source, *map(str, QUICK)],
                    capture_output=True, timeout=120, env=env,
                )
                assert proc.returncode == 0, (command, source, utf8_mode, proc.stderr)
            reports[utf8_mode, source[0]] = proc.stdout
        files[utf8_mode] = {path.name: path.read_bytes() for path in out.iterdir()}
        from_config = tmp_path / f"o\u00b5t-{utf8_mode}"
        assert {path.name: path.read_bytes() for path in from_config.iterdir()} == files[utf8_mode]
        assert reports[utf8_mode, "--config"] == reports[utf8_mode, "--netlist"]
    assert files["0"] == files["1"]
    assert sorted(files["0"]) == [
        "best_vector.json", "diagnosis.csv", "dictionary.csv", "ga_log.csv",
        "trajectories.csv", "trajectories.svg",
    ]
    for name in ("diagnosis.csv", "dictionary.csv", "trajectories.csv", "trajectories.svg"):
        assert "R\u00b51".encode() in files["0"][name], name
    report = reports["0", "--netlist"]
    assert reports["1", "--netlist"] == report and "R\u00b51".encode() in report


@pytest.mark.parametrize(
    "command,name",
    [
        (["simulate"], "dictionary.csv"),
        (["optimize"], "ga_log.csv"),
        (["diagnose", "--measured=0,0"], "diagnosis.csv"),
        (["plot-data"], "trajectories.svg"),
    ],
)
def test_output_that_cannot_be_written_exit_1(
    tmp_path, capsys, biquad, biquad_faults, command, name
):
    out = _plant_trajectories(tmp_path, biquad, biquad_faults)
    plant_best_vector(out, ORACLE_VECTOR)
    (out / name).mkdir()  # a directory where the file goes
    assert run([*command, "--outdir", out, *QUICK]) == 1
    _one_error_line(capsys, str(out / name))


# ---------------------------------------------------------------- contract


def _assert_finite_outputs(out):
    for path in out.glob("*.csv"):
        for line in path.read_text().splitlines()[1:]:
            for field in line.split(","):
                try:
                    value = float(field)
                except ValueError:
                    continue  # a component name
                assert math.isfinite(value), f"{path.name}: {line}"
    vector = out / "best_vector.json"
    if vector.exists():
        payload = json.loads(vector.read_text())
        for value in [*payload["frequencies"], payload["fitness"]]:
            assert math.isfinite(value), f"{vector.name}: {payload}"


# config files for test_cli_contract: ones that load, then ones that must exit 2
# (wrong-typed values of fields no flag there sets, an unknown key, no object)
GOOD_CONFIGS = [None, "{}", '{"tol": 1e-06, "unit": "hz"}']
UNFLAGGED = [
    "unit", "f_min", "f_max", "range_low", "range_high", "reproduction_rate",
    "mutation_rate", "tol", "origin_tol", "ambiguity_margin",
]
WRONG_VALUES = ["true", '"x"', "[1]", "null", "NaN", "Infinity", "-Infinity", "1e400"]
CONFIGS = st.one_of(
    st.sampled_from(GOOD_CONFIGS),
    st.tuples(st.sampled_from(UNFLAGGED), st.sampled_from(WRONG_VALUES)).map(
        lambda item: '{"%s": %s}' % item
    ),
    st.sampled_from(['{"no_such_field": 1}', "[]", '"x"', "1", "null", "true"]),
)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_frequencies=st.integers(1, 3),
    grid=st.sampled_from([1, 5, 11]),
    step=st.sampled_from([0.1, 0.2]),
    some_targets=st.booleans(),
    invalid=st.sampled_from([[], [], [], ["--step", 0.07], ["--grid", 0], ["--targets", "X9"]]),
    measurement=st.sampled_from(["inject", "measured", "wrong count"]),
    level=st.floats(-60.0, 60.0),
    config=CONFIGS,
)
def test_cli_contract(
    seed, n_frequencies, grid, step, some_targets, invalid, measurement, level, config
):
    """Every command on a random netlist, small, partly invalid flags and
    an optional config file, which may hold a wrong-typed value, an unknown
    key or a top level that is no object: exit 0, 1 or 2; a failure prints
    one ``error:`` line; no exception or RuntimeWarning escapes; every
    number written is finite."""
    rng = np.random.default_rng(seed)
    text = random_rlc_vcvs_netlist(rng)
    passives = parse_netlist(text).passive_ids()
    with tempfile.TemporaryDirectory() as scratch:
        netlist, out = Path(scratch) / "random.cir", Path(scratch) / "out"
        netlist.write_text(text)
        flags = [
            "--netlist", netlist, "--outdir", out, "--grid", grid, "--step", step,
            "--n-frequencies", n_frequencies, "--population-size", 8, "--generations", 1,
            "--seed", seed,
        ]
        if some_targets:
            flags += ["--targets", ",".join(rng.choice(passives, 2, replace=False))]
        flags += invalid  # the last of a repeated flag wins
        if config is not None:
            (Path(scratch) / "run.json").write_text(config)
            flags += ["--config", Path(scratch) / "run.json"]
        if measurement == "inject":
            query = ["--inject", f"{rng.choice(passives)}:{level / 200.0:+.3f}"]
        else:
            count = n_frequencies + (measurement == "wrong count")
            query = ["--measured=" + ",".join([f"{level:.6g}"] * count)]
        for command in (["simulate"], ["optimize"], ["diagnose", *query], ["plot-data"]):
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                code = run(command + flags)
            assert code in (0, 1, 2), command
            if code:
                [line] = stderr.getvalue().splitlines()
                assert line.startswith("error: "), line
            if invalid[:1] in (["--step"], ["--grid"]) or config not in GOOD_CONFIGS:
                assert code == 2, command
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            if out.exists():
                _assert_finite_outputs(out)
