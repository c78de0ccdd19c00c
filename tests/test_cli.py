"""Config loading, run orchestration outputs, CLI exit codes."""

import json
import os
import re
import warnings

import numpy as np
import pytest

import mkg.config
import mkg.scenarios
from mkg.cli import main
from mkg.config import load_config
from mkg.errors import ParseError, ValidationError
from mkg.lattice import read_snapshot
from mkg.diagnostics import collect, stack_records
from mkg.dynamics import step_rk4
from mkg.run import CSV_COLUMNS, parse_trace, write_trace
from mkg.scenarios import SCENARIOS

MINIMAL = """\
[initial_data]
scenario = vacuum
"""

DEMO = """\
[lattice]
dims = 64 1 1
dx = 0.015625

[initial_data]
scenario = interacting_demo

[integrator]
cfl = 0.25
steps = 40

[outputs]
csv_cadence = 4
plots = true

[run]
seed = 3
"""


def write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL))
    assert cfg.scenario == "vacuum"
    assert cfg.lattice.dims == (64, 1, 1)
    assert cfg.steps == 100
    assert cfg.cfl == 0.25
    assert cfg.stencil_order == 2
    assert cfg.seed == 0


def test_unknown_key_is_parse_error(tmp_path):
    bad = MINIMAL + "\n[potental]\nkind = quartic\n"
    with pytest.raises(ParseError, match="potental"):
        load_config(write(tmp_path, bad))
    bad2 = MINIMAL + "\n[integrator]\nstepz = 7\n"
    with pytest.raises(ParseError, match="integrator.stepz"):
        load_config(write(tmp_path, bad2))


def test_bad_value_is_validation_error(tmp_path):
    bad = "[initial_data]\nscenario = warp_drive\n"
    with pytest.raises(ValidationError, match="scenario"):
        load_config(write(tmp_path, bad))
    bad2 = MINIMAL + "\n[integrator]\nsteps = 0\n"
    with pytest.raises(ValidationError, match="integrator.steps"):
        load_config(write(tmp_path, bad2))


NONFINITE_KEYS = [("lattice", "dx"), ("integrator", "dt"), ("integrator", "cfl"),
                  ("initial_data", "amplitude"), ("initial_data", "width"),
                  ("estimate_constants", "b_n"), ("estimate_constants", "C1"),
                  ("estimate_constants", "C2"), ("estimate_constants", "C3"),
                  ("estimate_constants", "c4"), ("estimate_constants", "J0")]


def run_demo_with(tmp_path, section, key, value):
    """`mkg run` of interacting_demo with `section.key = value` set; returns
    the exit code and the --out path it was given."""
    sections = {"initial_data": "scenario = interacting_demo\n"}
    sections[section] = sections.get(section, "") + f"{key} = {value}\n"
    text = "".join(f"[{name}]\n{body}" for name, body in sections.items())
    out = tmp_path / "out"
    return main(["run", "--config", write(tmp_path, text),
                 "--out", str(out), "--steps", "1"]), out


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", NONFINITE_KEYS)
def test_nonfinite_number_is_config_error(tmp_path, capsys, section, key, value):
    """Every float key rejects nan and +-inf as a config error (exit 2)
    before anything runs or is written."""
    code, out = run_demo_with(tmp_path, section, key, value)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {section}.{key}: expected a finite number")
    assert err.count("\n") == 1
    assert not out.exists()


# values out of a key's range; EstimateConstants rejects the last two
CONFIG_REJECTIONS = [
    ("lattice", "dims", "64 1"), ("lattice", "dims", "64 x 1"),
    ("lattice", "dims", "64 1.5 1"), ("lattice", "dims", "0 1 1"),
    ("lattice", "dx", "0"), ("integrator", "stencil_order", "3"),
    ("outputs", "csv_cadence", "0"), ("outputs", "snapshot_cadence", "-1"),
    ("run", "seed", "-1"), ("outputs", "plots", "maybe"),
    ("initial_data", "mode", "x"), ("estimate_constants", "N", "x"),
    ("estimate_constants", "N", "0"), ("estimate_constants", "C1", "-1")]


@pytest.mark.parametrize("section, key, value", CONFIG_REJECTIONS)
def test_rejected_value_is_config_error(tmp_path, capsys, section, key, value):
    """A value out of its key's range is one config-error line naming the
    key, exit 2, and no output directory."""
    code, out = run_demo_with(tmp_path, section, key, value)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    if (key, value) not in (("N", "0"), ("C1", "-1")):
        assert re.match(rf"config error: {section}\.\S*{key}", err), err
    assert not out.exists()


def test_dt_cfl_exclusive(tmp_path):
    bad = MINIMAL + "\n[integrator]\ndt = 0.01\ncfl = 0.5\n"
    with pytest.raises(ValidationError):
        load_config(write(tmp_path, bad))


def test_empty_b_n_is_validation_error(tmp_path):
    """An empty b_n leaves the curvature sums without coefficients."""
    bad = MINIMAL + "\n[estimate_constants]\nb_n =\n"
    with pytest.raises(ValidationError, match="b_n"):
        load_config(write(tmp_path, bad))


@pytest.mark.parametrize("command, builds", [("run", (1, 1)),
                                             ("check-geometry", (1, 0))])
def test_scenario_built_once_per_command(tmp_path, monkeypatch, command, builds):
    """One command builds the scenario's model once, and the initial state
    once for `run` and never for `check-geometry`."""
    calls = dict.fromkeys(("make_model", "make_state"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(mkg.scenarios, name), **kw):
            calls[_name] += 1
            return _fn(*args, **kw)
        for module in (mkg.scenarios, mkg.config):
            monkeypatch.setattr(module, name, counted, raising=False)
    argv = [command, "--config", write(tmp_path, MINIMAL)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out"), "--steps", "1"]
    assert main(argv) == 0
    assert (calls["make_model"], calls["make_state"]) == builds


def test_vacuum_run_zero_trace(tmp_path):
    cfg = write(tmp_path, MINIMAL)
    out = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out, "--steps", "20"]) == 0
    trace = parse_trace(os.path.join(out, "trace.csv"))
    assert all(e == 0.0 for e in trace.energy_E0)
    assert all(j == 0.0 for j in trace.flat_J)


def test_trace_header_golden(tmp_path):
    cfg = write(tmp_path, MINIMAL)
    out = str(tmp_path / "out")
    main(["run", "--config", cfg, "--out", out, "--steps", "5"])
    with open(os.path.join(out, "trace.csv")) as fh:
        header = fh.readline().strip()
    assert header == ("t,E0,J,J_envelope,E0_sf,E1_sf,gauss_l2,gauss_linf,"
                      "bianchi_linf,linf_phi,linf_dphi,linf_Dphi,linf_F,"
                      "linf_A,linf_dPsi,l2_E,l2_H,l2_Dphi,l2_phi,l2_V,"
                      "L,M,N,S,X,U,W,G")
    assert header == ",".join(CSV_COLUMNS)


def test_run_outputs_and_roundtrip(tmp_path):
    cfg = write(tmp_path, DEMO)
    out = str(tmp_path / "demo")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    for name in ("trace.csv", "snap_final.mkg", "energy.svg",
                 "flat_energy.svg", "constraints.svg"):
        assert os.path.exists(os.path.join(out, name))
    st, lat = read_snapshot(os.path.join(out, "snap_final.mkg"))
    assert lat.dims == (64, 1, 1)
    assert st.is_finite()
    trace = parse_trace(os.path.join(out, "trace.csv"))
    assert len(trace.t) >= 3
    # energy conserved along the run
    e = trace.energy_E0
    assert abs(e[-1] - e[0]) / e[0] < 1e-6


def test_determinism_across_workers(tmp_path):
    """Two runs of the same config write byte-identical traces."""
    cfg = write(tmp_path, DEMO)
    blobs = []
    for name in ("first", "second"):
        out = str(tmp_path / name)
        assert main(["run", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "trace.csv"), "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_check_geometry_cli(tmp_path, capsys, scenario):
    cfg = write(tmp_path, f"[initial_data]\nscenario = {scenario}\n")
    assert main(["check-geometry", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.endswith("check-geometry: PASS\n")
    # a flat target has q = 0, so the two prefactors tie and neither wins
    flat = scenario != "interacting_demo"
    assert ("rank-one prefactor undetermined" in out) == flat
    assert ("rank-one prefactor resolved to 1/(4r^2)" in out) == (not flat)


def test_falling_sobolev_energy_gives_zero_C0(tmp_path, capsys):
    """E0_sf falls over this short gaussian_pulse run, so every ratio
    dE0_sf/dt / (Pcal E0_sf) is negative; C0 is floored at 0 like the
    other fits, and the full and half-trace fits then agree."""
    cfg = write(tmp_path, "[lattice]\ndims = 16 1 1\ndx = 0.0625\n"
                          "[initial_data]\nscenario = gaussian_pulse\n"
                          "[integrator]\nsteps = 3\n[outputs]\nplots = false\n")
    out = str(tmp_path / "pulse")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    trace = parse_trace(os.path.join(out, "trace.csv"))
    assert trace.sobolev_E0[-1] < trace.sobolev_E0[0]
    capsys.readouterr()
    main(["check-bounds", "--trace", os.path.join(out, "trace.csv")])
    printed = capsys.readouterr().out
    assert " C0_fit=0 " in printed
    assert "fit stabilization: C0 0 -> 0," in printed
    assert printed.split("fit stabilization:")[1].split("\n")[0].endswith(
        "(stabilized=True)")


def test_check_bounds_cli(tmp_path):
    cfg = write(tmp_path, DEMO)
    out = str(tmp_path / "demo")
    main(["run", "--config", cfg, "--out", out])
    assert main(["check-bounds", "--trace",
                 os.path.join(out, "trace.csv")]) == 0


def test_check_bounds_short_trace(tmp_path):
    path = tmp_path / "trace.csv"
    with open(str(path), "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.write(",".join(["0.0"] * len(CSV_COLUMNS)) + "\n")
        fh.write("0.1," + ",".join(["0.0"] * (len(CSV_COLUMNS) - 1)) + "\n")
    assert main(["check-bounds", "--trace", str(path)]) == 1


def test_check_bounds_header_only_trace(tmp_path, capsys):
    path = tmp_path / "trace.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n")
    assert main(["check-bounds", "--trace", str(path)]) == 1
    assert "need >= 3 records, got 0" in capsys.readouterr().err


def test_check_bounds_uses_run_constants(tmp_path, capsys):
    """check-bounds on a run's trace reads the run's run.json and so prints
    the C0 and E1 exponent the run printed (N from the quartic potential,
    not the default N = 1)."""
    cfg = write(tmp_path, DEMO.replace("plots = true", "plots = false"))
    out = tmp_path / "demo"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    ran = re.search(r"C0=(\S+) gronwall=(\S+)", capsys.readouterr().out)
    manifest = json.loads((out / "run.json").read_text())
    assert manifest["estimate_constants"]["N"] == 2
    assert main(["check-bounds", "--trace", str(out / "trace.csv")]) == 0
    printed = capsys.readouterr().out
    assert f"C0_fit={ran.group(1)} gronwall_fit={ran.group(2)}" in printed


HEADER = ",".join(CSV_COLUMNS)
ROW = ",".join(["0.0"] * len(CSV_COLUMNS))


def _row_with(column, cell):
    """ROW with `cell` in place of the named column's value."""
    cells = ["0.0"] * len(CSV_COLUMNS)
    cells[CSV_COLUMNS.index(column)] = cell
    return ",".join(cells)


GOOD_TRACE = HEADER + "\n" + "".join(f"{t}{ROW[3:]}\n" for t in (0.0, 0.1, 0.2))
MALFORMED_TRACES = {
    "missing": None,
    "header": HEADER.replace("E0_sf", "E0sf") + "\n" + ROW + "\n",
    "cell": HEADER + "\n" + ROW + "\n" + ROW.replace("0.0", "abc", 1) + "\n",
    # columns the audit never reads are validated too
    "cell_l2_V": HEADER + "\n" + ROW + "\n" + _row_with("l2_V", "abc") + "\n",
    "cell_G": HEADER + "\n" + ROW + "\n" + _row_with("G", "abc") + "\n",
    "ragged": HEADER + "\n" + ROW + "\n" + ROW[:-len(",0.0")] + "\n",
    "width": HEADER + "\n" + (ROW[:-len(",0.0")] + "\n") * 3,
}


@pytest.mark.parametrize("case", MALFORMED_TRACES)
def test_malformed_trace_is_config_error(tmp_path, capsys, case):
    """A missing file, a wrong header, a cell that is not a number (in t,
    and in l2_V and G, which the audit never reads), a short row and rows
    one column short each print one config-error line and exit 2."""
    path = tmp_path / "trace.csv"
    if MALFORMED_TRACES[case] is not None:
        path.write_text(MALFORMED_TRACES[case])
    assert main(["check-bounds", "--trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


def test_check_bounds_negative_first_J_is_config_error(tmp_path, capsys):
    """Without a run.json, check-bounds takes J0 from the trace's first J; a
    negative one is no valid J0, so the audit stops with one config-error
    line and exit 2."""
    path = tmp_path / "trace.csv"
    path.write_text(HEADER + "\n" + "".join(
        _row_with("J", "-1").replace("0.0", str(0.1 * i), 1) + "\n"
        for i in range(10)))
    assert main(["check-bounds", "--trace", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("J", ["nan", "inf", "-inf"])
def test_check_bounds_nonfinite_first_J_is_config_error(tmp_path, capsys, J):
    """A first J that is not finite is no valid J0 either: one config-error
    line, exit 2, and no PASS."""
    path = tmp_path / "trace.csv"
    path.write_text(HEADER + "\n" + "".join(
        _row_with("J", J).replace("0.0", str(0.1 * i), 1) + "\n"
        for i in range(10)))
    assert main(["check-bounds", "--trace", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and f"J0 = {J}" in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("column", ["linf_F", "linf_Dphi", "E0_sf"])
@pytest.mark.parametrize("cell", ["inf", "nan"])
def test_check_bounds_nonfinite_cell_fails_without_warning(tmp_path, capsys,
                                                          column, cell):
    """One inf or nan cell gives a fit or cap that is not finite: it is
    printed, without a RuntimeWarning (which the test settings make an
    error), and check-bounds prints FAIL and exits 1."""
    path = tmp_path / "trace.csv"
    path.write_text(HEADER + "\n" + "".join(
        (_row_with(column, cell) if i == 4 else ROW).replace("0.0", str(0.1 * i), 1)
        + "\n" for i in range(10)))
    assert main(["check-bounds", "--trace", str(path)]) == 1
    out = capsys.readouterr().out
    assert "nan" in out or "inf" in out
    assert out.endswith("check-bounds: FAIL\n")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_run_with_nonfinite_initial_J_is_config_error(tmp_path, capsys):
    """Initial data whose flat energy J overflows gives no finite J0 for the
    estimates: `mkg run` prints one config-error line and exits 2."""
    cfg = write(tmp_path, MINIMAL.replace(
        "vacuum\n", "free_maxwell_wave\namplitude = 1e300\n"))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "J0 = inf" in err
    assert err.count("\n") == 1


GOOD_CONSTANTS = {"b_n": [1.0], "C1": 0.0, "C2": 0.0, "C3": 0.0, "c4": 1.0,
                  "N": 1, "J0": 1.0, "potential_kind": "polynomial"}
MALFORMED_MANIFESTS = {
    "json": "{",
    "key": json.dumps({"estimate_constants": {"N": 1}}),
    "type": json.dumps({"estimate_constants": dict(GOOD_CONSTANTS, N="2")}),
    "value": json.dumps({"estimate_constants": dict(GOOD_CONSTANTS, N=0)}),
}


@pytest.mark.parametrize("case", MALFORMED_MANIFESTS)
def test_malformed_run_json_is_config_error(tmp_path, capsys, case):
    """A run.json beside the trace that is not JSON, lacks a key, has a
    value of the wrong type or one EstimateConstants rejects is one
    config-error line and exit 2; the well-formed manifest audits."""
    (tmp_path / "trace.csv").write_text(GOOD_TRACE)
    (tmp_path / "run.json").write_text(MALFORMED_MANIFESTS[case])
    assert main(["check-bounds", "--trace", str(tmp_path / "trace.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: malformed run manifest")
    assert err.count("\n") == 1
    (tmp_path / "run.json").write_text(
        json.dumps({"estimate_constants": GOOD_CONSTANTS}))
    assert main(["check-bounds", "--trace", str(tmp_path / "trace.csv")]) == 0


def test_kirchhoff_verify_cli():
    assert main(["kirchhoff-verify"]) == 0
    assert main(["kirchhoff-verify", "--order", "8", "--k", "1,0,0",
                 "--r0", "2.0"]) == 0


def test_kirchhoff_verify_overflowing_k_is_config_error(capsys):
    # every component is finite but |k| overflows: a config error naming k,
    # raised before any arithmetic can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["kirchhoff-verify", "--k", "1e308,1e308,1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: --k expects three")
    assert "finite norm |k|" in captured.err
    assert "1e308,1e308,1e308" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["--k", "nan,0,0"], ["--k", "0,inf,0"], ["--k", "1,2,x"], ["--k", "1,2"],
    ["--order", "0"], ["--r0", "0"], ["--r0", "-1"], ["--r0", "nan"],
    ["--r0", "inf"]])
def test_kirchhoff_verify_bad_input_is_config_error(capsys, argv):
    assert main(["kirchhoff-verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: --")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("under_file", [False, True])
def test_uncreatable_out_is_config_error(tmp_path, capsys, under_file):
    """--out at an existing file, or at a path under one, prints one
    config-error line and exits 2."""
    cfg = write(tmp_path, MINIMAL)
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "out" if under_file else taken
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert taken.read_text() == ""


def test_config_error_exit_code(tmp_path):
    bad = write(tmp_path, MINIMAL + "\n[typo_section]\nx = 1\n")
    assert main(["run", "--config", bad]) == 2


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_nonpositive_steps_is_config_error(tmp_path, capsys, steps):
    cfg = write(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--steps", steps]) == 2
    assert "--steps must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_trace_rows_only_on_cadence(tmp_path, capsys):
    """steps = 40 is not a multiple of csv_cadence = 3: the trace stays
    uniformly sampled, so the run's own audit and check-bounds both read it."""
    cfg = write(tmp_path, DEMO.replace("csv_cadence = 4", "csv_cadence = 3")
                .replace("plots = true", "plots = false"))
    out = str(tmp_path / "demo")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "fitted constants" in printed and "audit skipped" not in printed
    trace = parse_trace(os.path.join(out, "trace.csv"))
    assert len(trace.t) == 1 + 40 // 3
    assert np.ptp(np.diff(trace.t)) < 1e-12
    main(["check-bounds", "--trace", os.path.join(out, "trace.csv")])
    assert f"over {len(trace.t)} records" in capsys.readouterr().out


def test_radius_exceeded_is_postmortem_exit(tmp_path, capsys):
    """A field that leaves the metric's validity radius mid-run exits 3 with
    a post-mortem snapshot and the partial trace, like a numerical abort."""
    cfg = write(tmp_path, DEMO.replace("[initial_data]\n",
                                       "[initial_data]\namplitude = 5\n"))
    out = tmp_path / "big"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 3
    printed = capsys.readouterr().out
    assert "radius exceeded" in printed and "at site (" in printed
    assert "np.int64" not in printed
    assert (out / "postmortem.mkg").exists()
    assert len(parse_trace(str(out / "trace.csv")).t) >= 1


def test_aborted_run_writes_the_rows_before_the_abort(tmp_path, capsys):
    """A run that exits 3 after several rows writes the same trace.csv, byte
    for byte, as the same run stopped by --steps before the abort."""
    cfg = write(tmp_path, MINIMAL.replace(
        "vacuum\n", "interacting_demo\namplitude = 2\n")
        + "[integrator]\ncfl = 3\nsteps = 200\n")
    aborted, short = tmp_path / "aborted", tmp_path / "short"
    assert main(["run", "--config", cfg, "--out", str(aborted)]) == 3
    assert main(["run", "--config", cfg, "--out", str(short),
                 "--steps", "5"]) == 0
    assert "radius exceeded" in capsys.readouterr().out
    assert (aborted / "postmortem.mkg").exists()
    assert len(parse_trace(str(aborted / "trace.csv")).t) == 6
    assert ((aborted / "trace.csv").read_bytes()
            == (short / "trace.csv").read_bytes())


@pytest.mark.parametrize("dims, cadence", [("64 1 1", 1), ("64 1 1", 3),
                                           ("6 5 4", 1)])
def test_run_trace_equals_unshared_loop(tmp_path, dims, cadence):
    """`run` shares one Kinematics between a trace record and the next RK4
    stage k1; its trace.csv is, byte for byte, the one written from a loop
    of plain collect and step_rk4 calls, each building its own."""
    cfg_path = write(tmp_path, DEMO.replace("64 1 1", dims).replace(
        "steps = 40", "steps = 7").replace("csv_cadence = 4",
                                           f"csv_cadence = {cadence}"))
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    cfg = load_config(cfg_path)
    model, state = cfg.build()
    records = [collect(state, cfg.lattice, model)]
    for i in range(1, cfg.steps + 1):
        state = step_rk4(state, cfg.lattice, model, cfg.dt_value)
        if i % cadence == 0:
            records.append(collect(state, cfg.lattice, model))
    loop = tmp_path / "loop.csv"
    write_trace(str(loop), stack_records(records),
                cfg.estimate_constants(records[0].flat_J or 1.0))
    assert (tmp_path / "out" / "trace.csv").read_bytes() == loop.read_bytes()
