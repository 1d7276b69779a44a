import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import vigrating.analysis
import vigrating.cli
import vigrating.postprocess
import vigrating.solver
from vigrating.cli import main
from vigrating.config import PERIOD, load_config
from vigrating.errors import (
    BreakdownDetected,
    ConfigError,
    NonSymmetric,
    RayleighAnomaly,
)
from vigrating.kernel import kernel_table
from vigrating.operators import OperatorStack
from vigrating.problem import (
    ANOMALY_RTOL,
    ContrastField,
    IncidentWave,
    Problem,
    sample_contrast,
)
from vigrating.solver import Solution, SolveOptions, solve_lockstep


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


BASE = """
[problem]
k = 1.0
theta_deg = 0.0
shape = slab
q_re = 3.0
thickness = 1.0

[numerics]
n1 = 32
n2 = 64
rho_box = 1.1277533039647577

[output]
directory = {out}
"""


def test_load_config_units(tmp_path):
    cfg = load_config(_write(tmp_path / "a.ini", BASE.format(out="o")))
    assert cfg.k_period == 1.0
    wave = cfg.wave()
    assert np.isclose(wave.k, 1.0 / PERIOD)
    contrast = cfg.contrast()
    assert np.isclose(contrast.h, np.pi)     # thickness of one period
    grid = cfg.grid(contrast)
    assert np.isclose(grid.rho_box, PERIOD * 1.1277533039647577)


def test_config_strictness(tmp_path):
    bad = BASE.format(out="o") + "typo_key = 1\n"
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path / "b.ini", bad))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path / "c.ini",
                           BASE.format(out="o").replace("q_re = 3.0", "")))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path / "d.ini",
                           BASE.format(out="o") + "q11_re = 1\n"))
    with pytest.raises(ConfigError):
        load_config(_write(
            tmp_path / "e.ini",
            BASE.format(out="o") + "\n[mystery]\nx = 1\n",
        ))
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")
    # there is no dealias option
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path / "f.ini", BASE.format(out="o").replace(
            "rho_box =", "dealias = true\nrho_box =")))


NEG_CIRCLE = """
[problem]
k = 1.0
theta_deg = 10.0
shape = circle
radius = 0.2
q_re = -5.0

[numerics]
n1 = 32
n2 = 32
rel_tol = 1e-10

[output]
directory = {out}
"""

SLAB = "shape = slab\nq_re = 3.0\nthickness = 1.0"
CIRCLE = "shape = circle\nq_re = 3.0\nradius = 0.2"

COMMANDS = {
    "solve": ["solve"],
    "diagnose": ["diagnose"],
    "sweep": ["sweep", "--param", "theta", "--from", "0", "--to", "20",
              "--steps", "3"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("text, line, cause", [
    (BASE.replace("n1 = 32", "n1 = 32\nrel_tol = 1e-8\nrel_tol = 1e-9"), 12,
     "key 'rel_tol' given twice in [numerics]"),
    (BASE + "\n[problem]\nk = 2.0\n", 17, "section [problem] given twice"),
    ("k = 1.0\n" + BASE, 1, "a key before the first [section] header"),
], ids=["duplicate-key", "duplicate-section", "key-before-section"])
def test_malformed_config_exits_3(tmp_path, caplog, command, text, line,
                                  cause):
    cfg = _write(tmp_path / "m.ini", text.format(out=tmp_path / "o"))
    args = COMMANDS[command]
    assert main(args[:1] + [str(cfg)] + args[1:]) == 3
    assert f"malformed config file {cfg}, line {line}: {cause}" in (
        caplog.text)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_an_undecodable_config_exits_3(tmp_path, caplog, command):
    # configparser raises UnicodeDecodeError, a ValueError
    cfg = tmp_path / "b.ini"
    cfg.write_bytes(b"\xff\xfe[problem]\n")
    args = COMMANDS[command]
    assert main(args[:1] + [str(cfg)] + args[1:] + [
        "--output", str(tmp_path / "o")]) == 3
    assert "'utf-8' codec can't decode byte 0xff" in caplog.text
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_an_undecodable_config_names_its_file(tmp_path, caplog, command):
    cfg = tmp_path / "b.ini"
    cfg.write_bytes(b"[problem]\nk = 1.0 ; \xff\xfe\n")
    args = COMMANDS[command]
    assert main(args[:1] + [str(cfg)] + args[1:]) == 3
    assert (f"malformed config file {cfg}: 'utf-8' codec can't decode byte "
            "0xff in position 20: invalid start byte") in caplog.text


@pytest.mark.parametrize("value", ["0", "-3"])
def test_solve_rejects_non_positive_max_iterations(tmp_path, caplog, value):
    cfg = _write(tmp_path / "s.ini", BASE.format(out=tmp_path / "o").replace(
        "n1 = 32", f"n1 = 32\nmax_iterations = {value}"))
    assert main(["solve", str(cfg)]) == 3
    assert "invalid problem: max_iterations must be at least 1" in caplog.text


def test_config_matrix_and_two_layer(tmp_path):
    text = """
[problem]
k = 0.8
theta_deg = 10.0
shape = circle
radius = 0.2
q11_re = 2.0
q12_re = 0.3
q22_re = 1.0
q22_im = -0.2

[numerics]
n1 = 16
n2 = 16
rho_box = 0.5
"""
    cfg = load_config(_write(tmp_path / "m.ini", text))
    c = cfg.contrast()
    q = c.sample(np.array(0.0), np.array(0.0))
    assert q[0, 1] == q[1, 0] == 0.3
    assert q[1, 1] == 1.0 - 0.2j

    text2 = """
[problem]
k = 0.8
theta_deg = 0.0
shape = two_layer
thickness1 = 0.1
thickness2 = 0.2
q1_re = 2.0
q2_re = -1.5

[numerics]
n1 = 16
n2 = 32
"""
    cfg2 = load_config(_write(tmp_path / "t.ini", text2))
    c2 = cfg2.contrast()
    assert np.isclose(c2.h, PERIOD * 0.15)


TWO_LAYER = """
[problem]
k = 0.8
theta_deg = 0.0
shape = two_layer
thickness1 = 0.1
thickness2 = 0.2
q1_re = 2.0
q2_re = -1.5

[numerics]
n1 = 16
n2 = 32
"""

MATRIX_Q = BASE.replace("q_re = 3.0", "q11_re = 2.0\nq22_re = 1.0")


# one case per kind of number key: required, optional with a default, in
# [numerics], of the layer and matrix contrasts
@pytest.mark.parametrize("text, old, new, key, section", [
    (BASE, "theta_deg = 0.0", "theta_deg = nan", "theta_deg", "problem"),
    (BASE, "k = 1.0", "k = inf", "k", "problem"),
    (BASE, "q_re = 3.0", "q_re = 3.0\nq_im = nan", "q_im", "problem"),
    (BASE, "rho_box = 1.1277533039647577", "rho_box = -inf", "rho_box",
     "numerics"),
    (BASE, "n1 = 32", "n1 = 32\nrel_tol = nan", "rel_tol", "numerics"),
    (TWO_LAYER, "q2_re = -1.5", "q2_re = -1.5\nq1_im = -inf", "q1_im",
     "problem"),
    (MATRIX_Q, "q22_re = 1.0", "q22_re = 1.0\nq12_re = nan", "q12_re",
     "problem"),
], ids=["theta_deg", "k", "q_im", "rho_box", "rel_tol", "q1_im", "q12_re"])
def test_solve_rejects_non_finite_numbers(tmp_path, caplog, text, old, new,
                                          key, section):
    assert old in text
    cfg = _write(tmp_path / "s.ini",
                 text.replace(old, new).format(out=tmp_path / "o"))
    assert main(["solve", str(cfg)]) == 3
    assert f"key {key!r} in [{section}] must be finite" in caplog.text
    assert not (tmp_path / "o").exists()


# unchecked, a zero-thickness slab scatters through its half-weight nodes,
# a negative height solves as vacuum and a negative thickness reads as
# support beyond h
@pytest.mark.parametrize("text, old, new, size", [
    (BASE, "thickness = 1.0", "thickness = 0.0", "slab thickness"),
    (BASE, "thickness = 1.0", "thickness = -1.0", "slab thickness"),
    (BASE, "shape = slab\nq_re = 3.0\nthickness = 1.0",
     "shape = rectangle\nq_re = 3.0\nwidth = 0.5\nheight = -0.2",
     "rectangle height"),
    (TWO_LAYER, "thickness1 = 0.1", "thickness1 = -0.2",
     "lower layer thickness"),
], ids=["zero-slab", "negative-slab", "negative-rectangle",
        "negative-layer"])
def test_solve_rejects_a_non_positive_size(tmp_path, caplog, text, old, new,
                                           size):
    assert old in text
    cfg = _write(tmp_path / "s.ini",
                 text.replace(old, new).format(out=tmp_path / "o"))
    assert main(["solve", str(cfg), "--output", str(tmp_path / "o")]) == 3
    assert f"invalid problem: {size} must be positive and finite" in (
        caplog.text)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("bounds, flag, bound", [
    (["--from", "nan", "--to", "0"], "--from", "nan"),
    (["--from", "0", "--to", "inf"], "--to", "inf"),
], ids=["from-nan", "to-inf"])
def test_sweep_rejects_a_non_finite_bound(tmp_path, monkeypatch, caplog,
                                          bounds, flag, bound):
    def sampled(*args):
        raise AssertionError("the contrast was sampled")

    monkeypatch.setattr(ContrastField, "sample", sampled)
    out = tmp_path / "sw"
    cfg = _write(tmp_path / "s.ini", BASE.format(out=out).replace(SLAB,
                                                                  CIRCLE))
    assert main(["sweep", str(cfg), "--param", "theta", *bounds, "--steps",
                 "2", "--output", str(out)]) == 3
    assert f"sweep {flag} must be finite, got {bound}" in caplog.text
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args, message", [
    (["--from", "0", "--to", "1", "--steps", "1000000000000"],
     "sweep --steps 1000000000000 is more points than memory holds"),
    (["--from=-1e308", "--to=1e308", "--steps", "3"],
     "sweep --from -1e+308 to --to 1e+308 spans more than the largest "
     "float"),
], ids=["steps", "span"])
def test_sweep_rejects_values_it_cannot_hold(tmp_path, monkeypatch, caplog,
                                             args, message):
    def sampled(*args):
        raise AssertionError("the contrast was sampled")

    monkeypatch.setattr(ContrastField, "sample", sampled)
    out = tmp_path / "sw"
    cfg = _write(tmp_path / "s.ini", BASE.format(out=out))
    assert main(["sweep", str(cfg), "--param", "theta", *args, "--output",
                 str(out)]) == 3
    assert message in caplog.text
    assert not out.exists()


def test_cmd_solve_writes_outputs(tmp_path):
    out = tmp_path / "run"
    cfg = _write(tmp_path / "s.ini", BASE.format(out=out))
    assert main(["solve", str(cfg)]) == 0
    doc = json.loads((out / "result.json").read_text())
    assert doc["metadata"]["converged"] is True
    assert doc["metadata"]["energy_defect"] < 1e-6
    assert doc["metadata"]["relative_residual"] < 2e-8
    csv_text = (out / "efficiencies.csv").read_text()
    assert csv_text.splitlines()[0] == "j,alpha_j,beta_j_re,beta_j_im,e_refl,e_trans"
    assert len(doc["residual_history"]) == doc["metadata"]["iterations"]


def test_cmd_solve_exit_codes(tmp_path):
    # anomalous: one full wave per period at normal incidence
    anom = BASE.format(out=tmp_path / "x").replace("k = 1.0",
                                                   f"k = {PERIOD!r}")
    cfg = _write(tmp_path / "anom.ini", anom)
    assert main(["solve", str(cfg)]) == 3

    broken = BASE.format(out=tmp_path / "y").replace("rho_box = 1.1277533039647577",
                                                     "rho_box = 0.6")
    cfg2 = _write(tmp_path / "geo.ini", broken)
    assert main(["solve", str(cfg2)]) == 3          # box below twice the height

    stall = BASE.format(out=tmp_path / "z").replace(
        "rho_box = 1.1277533039647577",
        "rho_box = 1.1277533039647577\nmax_iterations = 2\nrel_tol = 1e-14",
    )
    cfg3 = _write(tmp_path / "stall.ini", stall)
    assert main(["solve", str(cfg3)]) == 2
    partial = json.loads((tmp_path / "z" / "result.json").read_text())
    assert partial["converged"] is False


# an active slab: Im q > 0 gains energy in this library's convention
ACTIVE = BASE.replace("q_re = 3.0", "q_re = 3.0\nq_im = 0.5").replace(
    "n1 = 32", "n1 = 16")


def test_an_active_slab_breaks_the_physics_rule(tmp_path, caplog):
    out = tmp_path / "o"
    cfg = _write(tmp_path / "a.ini", ACTIVE.format(out=out))
    cause = ("unphysical answer: the absorbed fraction -3.565e-02 is below "
             "-0.01, so the medium gains energy (a passive contrast has "
             "Im Q <= 0)")
    assert main(["solve", str(cfg)]) == 2
    assert cause in caplog.text
    # the outputs stay, as those of a stalled solve do
    doc = json.loads((out / "result.json").read_text())
    assert doc["totals"]["absorbed"] < -0.035
    assert (out / "efficiencies.csv").is_file()


def test_a_sweep_skips_a_point_that_breaks_the_physics_rule(tmp_path,
                                                            caplog):
    out = tmp_path / "sw"
    cfg = _write(tmp_path / "a.ini", ACTIVE.format(out=out))
    # no point succeeded and one failed with code 2
    assert main(["sweep", str(cfg), "--param", "theta", "--from", "0",
                 "--to", "0", "--steps", "1"]) == 2
    assert ("skipping theta = 0: unphysical answer: the absorbed fraction "
            "-3.565e-02 is below -0.01") in caplog.text
    assert "no sweep point succeeded" in caplog.text
    assert not out.exists()


def test_solve_stops_early_when_the_rate_rules_out_convergence(tmp_path,
                                                              caplog):
    out = tmp_path / "neg"
    cfg = _write(tmp_path / "n.ini", NEG_CIRCLE.format(out=out))
    assert main(["solve", str(cfg)]) == 2
    partial = json.loads((out / "result.json").read_text())
    assert partial["converged"] is False and partial["iterations"] == 100
    assert "GMRES stopped early after 100 iterations" in caplog.text
    assert "the best restarted cycle of GMRES(50) reduced it by 0." in (
        caplog.text)
    assert "cycles against the 8 left; raise restart or max_iterations" in (
        caplog.text)


def test_sweep_skips_a_stalling_point_naming_the_rate(tmp_path, caplog):
    out = tmp_path / "sw"
    cfg = _write(tmp_path / "n.ini", NEG_CIRCLE.format(out=out))
    # no point succeeded and one failed to converge
    assert main(["sweep", str(cfg), "--param", "theta", "--from", "10",
                 "--to", "10", "--steps", "1", "--output", str(out)]) == 2
    # a failed sweep writes nothing
    assert not out.exists()
    assert ("skipping theta = 10: GMRES stopped early after 100 iterations"
            in caplog.text)
    assert "the best restarted cycle of GMRES(50) reduced it by" in (
        caplog.text)


@pytest.mark.parametrize("key", ["max_iterations", "restart"])
def test_sweep_checks_solver_options_before_sampling(tmp_path, monkeypatch,
                                                     caplog, key):
    def refuse(*args):
        raise AssertionError("sampled before the solver options were checked")

    monkeypatch.setattr(vigrating.cli, "sample_contrast", refuse)
    out = tmp_path / "sw"
    cfg = _write(tmp_path / "s.ini", BASE.format(out=out).replace(
        "n1 = 32", f"n1 = 32\n{key} = 0"))
    assert main(["sweep", str(cfg), "--param", "theta", "--from", "0",
                 "--to", "10", "--steps", "2", "--output", str(out)]) == 3
    assert f"invalid problem: {key} must be at least 1" in caplog.text
    assert not out.exists()


def test_sweep_without_a_successful_point_exits_2_if_one_stalled(tmp_path,
                                                                 caplog):
    out = tmp_path / "sw"
    cfg = _write(tmp_path / "s.ini", BASE.format(out=out).replace(
        "n1 = 32", "n1 = 32\nmax_iterations = 2\nrel_tol = 1e-14"))
    # the first point sits on a Rayleigh anomaly, the second stalls
    assert main(["sweep", str(cfg), "--param", "k", "--from", repr(PERIOD),
                 "--to", repr(PERIOD + 0.1), "--steps", "2",
                 "--output", str(out)]) == 2
    assert "invalid problem (" in caplog.text
    assert "GMRES stalled" in caplog.text
    assert "no sweep point succeeded" in caplog.text
    assert not out.exists()


def test_cmd_sweep_skips_anomalies(tmp_path):
    out = tmp_path / "sw"
    cfg = _write(tmp_path / "s.ini", BASE.format(out=out))
    lo, hi = PERIOD - 0.1, PERIOD + 0.1
    assert main(["sweep", str(cfg), "--param", "k", "--from", str(lo),
                 "--to", str(hi), "--steps", "3", "--output", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("k,")
    values = {ln.split(",")[0] for ln in lines[1:]}
    # the middle point sits exactly on the anomaly and is skipped
    assert len(values) == 2


def test_cmd_diagnose(tmp_path):
    out = tmp_path / "diag"
    cfg = _write(tmp_path / "s.ini", BASE.format(out=out))
    assert main(["diagnose", str(cfg)]) == 0
    doc = json.loads((out / "garding_report.json").read_text())
    cond = {c["name"]: c["status"] for c in doc["conditions"]}
    assert cond["positive_definite_contrast"] == "satisfied"

    neg = BASE.format(out=out).replace("q_re = 3.0", "q_re = -5.0")
    cfg2 = _write(tmp_path / "n.ini", neg)
    assert main(["diagnose", str(cfg2)]) == 0
    doc2 = json.loads((out / "garding_report.json").read_text())
    assert doc2["sign_verdict"] == "negative"
    entry = [c for c in doc2["conditions"]
             if c["name"] == "negative_contrast_extension"][0]
    assert "threshold_sqrt_inf_abs_min" in entry["details"]


def test_bundled_config_roundtrip(tmp_path):
    from vigrating.validate import write_slab_example_config

    cfg = tmp_path / "slab.ini"
    write_slab_example_config(cfg, n=64)
    loaded = load_config(cfg)
    assert loaded.n1 == 64
    problem = loaded.build()
    # slab faces midway between rows: no node carries the half value
    face_vals = problem.layout.samples[..., 0, 0]
    assert not np.any(np.isclose(face_vals, 1.5))


def test_cmd_validate_quick(capsys):
    assert main(["validate", "--level", "quick"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 9


RASTER = """
[problem]
k = 0.8
theta_deg = 5.0
shape = raster
path = {path}

[numerics]
n1 = 16
n2 = 128
rho_box = 0.55

[output]
directory = {out}
"""


def test_solve_from_raster(tmp_path):
    from vigrating.problem import write_raster

    # x1-invariant raster equivalent to a thin slab
    n1, n2 = 8, 64
    rho_r = 0.6 * PERIOD
    cells = np.zeros((n1, n2, 2, 2), dtype=complex)
    x2_centers = -rho_r + 2 * rho_r * (np.arange(n2) + 0.5) / n2
    inside = np.abs(x2_centers) < 0.25 * PERIOD
    cells[:, inside] = 2.0 * np.eye(2)
    raster = tmp_path / "grating.bin"
    write_raster(raster, cells, h=0.25 * PERIOD, rho=rho_r)

    cfg = _write(tmp_path / "r.ini",
                 RASTER.format(path=raster, out=tmp_path / "rout"))
    assert main(["solve", str(cfg)]) == 0
    doc = json.loads((tmp_path / "rout" / "result.json").read_text())
    assert doc["metadata"]["converged"] is True
    assert doc["metadata"]["energy_defect"] < 1e-4


def test_solve_rejects_a_malformed_raster(tmp_path, caplog):
    # a 6-byte header: the cause is named, not a struct.error traceback
    raster = tmp_path / "short.bin"
    raster.write_bytes(b"VIGR\x01\x00")
    cfg = _write(tmp_path / "r.ini",
                 RASTER.format(path=raster, out=tmp_path / "o"))
    assert main(["solve", str(cfg)]) == 3
    assert (f"invalid problem: {raster}: raster header is 6 bytes, "
            "expected 36") in caplog.text
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_unreadable_input_exits_3(tmp_path, caplog, command):
    # the raster path names a directory: IsADirectoryError, not a traceback
    cfg = _write(tmp_path / "r.ini",
                 RASTER.format(path=tmp_path, out=tmp_path / "o"))
    args = COMMANDS[command]
    assert main(args[:1] + [str(cfg)] + args[1:]) == 3
    assert f"invalid problem: [Errno 21] Is a directory: '{tmp_path}'" in (
        caplog.text)
    assert not (tmp_path / "o").exists()


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 32.0 GiB for an array")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_exhausted_memory_exits_3(tmp_path, monkeypatch, caplog, command):
    monkeypatch.setattr(ContrastField, "sample", _out_of_memory)
    cfg = _write(tmp_path / "s.ini", BASE.format(out=tmp_path / "o"))
    args = COMMANDS[command]
    assert main(args[:1] + [str(cfg)] + args[1:]) == 3
    assert ("invalid problem: out of memory on the 32 x 64 grid: Unable to "
            "allocate 32.0 GiB") in caplog.text
    assert not (tmp_path / "o").exists()


# the compute stages of each command after sampling (which the test above
# covers), by the name the command reaches each through
LATER_STAGES = {
    "solve": {
        "kernel table": (vigrating.solver, "kernel_table"),
        "GMRES step": (OperatorStack, "apply"),
        "Rayleigh extraction": (vigrating.postprocess, "rayleigh_both_sides"),
        "residual": (vigrating.cli, "residual"),
    },
    "diagnose": {
        "decompose_reQ": (vigrating.analysis, "decompose_reQ"),
        "garding_check": (vigrating.analysis, "garding_check"),
    },
    "sweep": {
        # every point of the one batch is skipped, so none succeeds
        "Rayleigh extraction": (vigrating.postprocess, "rayleigh_batch"),
    },
}


@pytest.mark.parametrize("command, stage", [
    (command, stage) for command, stages in LATER_STAGES.items()
    for stage in stages])
def test_a_later_stage_out_of_memory_exits_3(tmp_path, monkeypatch, caplog,
                                             command, stage):
    monkeypatch.setattr(*LATER_STAGES[command][stage], _out_of_memory)
    cfg = _write(tmp_path / "s.ini", BASE.format(out=tmp_path / "o"))
    args = COMMANDS[command]
    assert main(args[:1] + [str(cfg)] + args[1:]) == 3
    assert ("out of memory on the 32 x 64 grid: Unable to allocate 32.0 GiB"
            in caplog.text)
    assert not (tmp_path / "o").exists()


def fail_point(monkeypatch, cfg: Path, param: str, value: float,
               error: Exception):
    """Make the GMRES of the point ``param = value`` of a sweep of ``cfg``
    raise ``error`` after its first product, while every other point runs
    as before.  The point is found by its right-hand side."""
    problem = load_config(cfg).replace_parameter(param, value).build()
    table = kernel_table(problem.grid, problem.wave, problem.layout.n_rows)
    target = OperatorStack([problem], [table]).rhs[0]
    steps = vigrating.solver.gmres_steps

    def flaky(b, *args):
        if not np.array_equal(b, target):
            return (yield from steps(b, *args))
        yield b
        raise error

    monkeypatch.setattr(vigrating.solver, "gmres_steps", flaky)


def _layouts(tmp_path) -> dict[str, Path]:
    """A one-row (slab) and a 2-D (circle) sweep config on the 32 x 64
    grid of BASE."""
    text = BASE.format(out=tmp_path / "o")
    return {name: _write(tmp_path / f"{name}.ini", text.replace(SLAB, shape))
            for name, shape in (("slab", SLAB), ("circle", CIRCLE))}


def test_solve_builds_one_operator_stack_and_one_incident_density(
        tmp_path, monkeypatch):
    # the solve, its residual and its Rayleigh extraction share the stack
    # of one the solve ran on
    init = OperatorStack.__init__
    rhs = OperatorStack.__dict__["rhs"]
    incident = rhs.func
    for name, cfg in _layouts(tmp_path).items():
        calls = {"stacks": 0, "incident densities": 0}

        def counted_init(self, *args, **kwargs):
            calls["stacks"] += 1
            init(self, *args, **kwargs)

        def counted_incident(self):
            calls["incident densities"] += 1
            return incident(self)

        with monkeypatch.context() as patch:
            patch.setattr(OperatorStack, "__init__", counted_init)
            patch.setattr(rhs, "func", counted_incident)
            assert main(["solve", str(cfg), "--output",
                         str(tmp_path / name)]) == 0
        result = json.loads((tmp_path / name / "result.json").read_text())
        assert result["metadata"]["relative_residual"] < 1e-8
        assert calls == {"stacks": 1, "incident densities": 1}, name


def test_sweep_skips_a_point_out_of_memory(tmp_path, monkeypatch, caplog):
    for name, cfg in _layouts(tmp_path).items():
        out = tmp_path / name
        caplog.clear()
        with monkeypatch.context() as patch:
            fail_point(patch, cfg, "theta", 10.0,
                       MemoryError("Unable to allocate 32.0 GiB for an "
                                   "array"))
            assert main(["sweep", str(cfg), *COMMANDS["sweep"][1:],
                         "--output", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert {ln.split(",")[0] for ln in lines[1:]} == {"0.0", "20.0"}
        assert ("skipping theta = 10: invalid problem (out of memory on the "
                "32 x 64 grid: Unable to allocate") in caplog.text


def test_sweep_skips_invalid_directions(tmp_path):
    # theta beyond 90 degrees flips d2 nonnegative; such points are skipped
    out = tmp_path / "sw2"
    cfg = _write(tmp_path / "s.ini", BASE.format(out=out))
    assert main(["sweep", str(cfg), "--param", "theta", "--from", "80",
                 "--to", "100", "--steps", "3", "--output", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    values = {ln.split(",")[0] for ln in lines[1:]}
    assert len(values) == 1          # only theta = 80 is a valid direction


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` with the arguments ``args`` in a fresh interpreter that
    imports this vigrating."""
    src = str(Path(vigrating.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)


SWEEP_USAGE = ["--from", "0", "--to", "10"]


@pytest.mark.parametrize("args", [
    ["sweep", "{cfg}", "--param", "x", *SWEEP_USAGE, "--steps", "2"],
    ["sweep", "{cfg}", "--param", "theta", *SWEEP_USAGE, "--steps", "abc"],
    ["solve"],
], ids=["param", "steps", "no-config"])
def test_a_usage_error_exits_3(tmp_path, capsys, args):
    # argparse's own code, 2, would read as a solve that did not converge
    cfg = _write(tmp_path / "s.ini", BASE.format(out=tmp_path / "o"))
    assert main([a.format(cfg=cfg) for a in args]) == 3
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: vigrating")


# the console entry, as the benchmark runs it
CONSOLE = "import sys; from vigrating.cli import main; sys.exit(main())"


@pytest.mark.parametrize("args, code", [
    (["sweep", "s.ini", "--param", "theta", *SWEEP_USAGE, "--steps", "abc"],
     3),
    (["--help"], 0),
], ids=["usage-error", "help"])
def test_the_console_entry_exits_with_the_documented_code(args, code):
    proc = _python(CONSOLE, *args)
    assert proc.returncode == code, proc.stderr


def test_solve_path_does_not_import_scipy(tmp_path):
    cfg = _write(tmp_path / "s.ini", BASE.format(out=tmp_path / "o"))
    proc = _python("import sys; from vigrating.cli import main; "
                   f"assert main(['solve', {str(cfg)!r}]) == 0; "
                   "print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


# every module a cold call imports adds its compile time to the call
CLI_MODULES = ["vigrating"] + [f"vigrating.{name}" for name in (
    "analysis", "cli", "config", "errors", "kernel", "operators",
    "postprocess", "problem", "solver")]


def test_the_cli_imports_only_the_modules_its_commands_run():
    proc = _python("import json, sys, vigrating.cli; "
                   "print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert [m for m in loaded if m.split(".")[0] == "vigrating"] == CLI_MODULES
    assert not {"vigrating.oracle", "vigrating.validate", "mpmath",
                "scipy"} & set(loaded)


def test_the_cli_freezes_the_heap_its_imports_leave(tmp_path):
    # the library leaves the collector alone; the cli freezes once per
    # process, not once per call.  A first call may free a few frozen
    # objects it replaces, so the count may fall once but never rise
    cfg = _write(tmp_path / "s.ini", BASE.format(out=tmp_path / "o"))
    proc = _python("import gc, sys, vigrating; "
                   "print(gc.get_freeze_count()); "
                   "from vigrating.cli import main; "
                   "frozen = gc.get_freeze_count(); "
                   "print(frozen > 0, gc.isenabled()); "
                   "assert main(['solve', sys.argv[1]]) == 0; "
                   "first = gc.get_freeze_count(); "
                   "assert main(['solve', sys.argv[1]]) == 0; "
                   "print(0 < first <= frozen, gc.get_freeze_count() == first)",
                   str(cfg))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "True", "True", "True", "True"]


@pytest.mark.parametrize("verbose", [(False, True, False), (True, False)],
                         ids=["later-call", "first-call"])
def test_verbose_holds_for_its_own_call_alone(tmp_path, verbose):
    # logging is configured by a process's first call alone; -v must still
    # reach a later call and end with its own
    cfg = _write(tmp_path / "s.ini", BASE.format(out=tmp_path / "o"))
    proc = _python("import json, sys; from vigrating.cli import main\n"
                   "for verbose in json.loads(sys.argv[2]):\n"
                   "    sys.stderr.write('call\\n')\n"
                   "    args = ['-v'] * verbose + ['solve', sys.argv[1]]\n"
                   "    assert main(args) == 0",
                   str(cfg), json.dumps(verbose))
    assert proc.returncode == 0, proc.stderr
    calls = proc.stderr.split("call\n")[1:]
    assert len(calls) == len(verbose)
    assert [("DEBUG vigrating.solver: solved 1 of 32 coefficient rows"
             in call) for call in calls] == list(verbose)
    assert all("INFO vigrating: wrote" in call for call in calls)


def test_validate_module_does_not_import_scipy():
    proc = _python("import sys, vigrating.validate; "
                   "print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_validate_runs_without_scipy():
    proc = _python("import sys; sys.modules['scipy'] = None; "
                   "from vigrating.cli import main; "
                   "sys.exit(main(['validate']))")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("[PASS]") == 9


SWEEP_ARGS = ["--param", "theta", "--from", "0", "--to", "10", "--steps", "2"]


@pytest.mark.parametrize("command, extra", [
    ("solve", []), ("sweep", SWEEP_ARGS), ("diagnose", []),
], ids=["solve", "sweep", "diagnose"])
@pytest.mark.parametrize("target, cause", [
    ("taken", "File exists"), ("taken/sub", "Not a directory"),
], ids=["existing-file", "below-a-file"])
def test_unwritable_output_exits_3(tmp_path, caplog, command, extra, target,
                                   cause):
    (tmp_path / "taken").write_text("", encoding="utf-8")
    out = tmp_path / target
    cfg = _write(tmp_path / "s.ini", BASE.format(out=tmp_path / "o"))
    assert main([command, str(cfg), *extra, "--output", str(out)]) == 3
    assert f"cannot write output {out}: [Errno" in caplog.text
    assert cause in caplog.text


def test_unwritable_output_of_a_stalled_solve_exits_3(tmp_path, caplog):
    (tmp_path / "taken").write_text("", encoding="utf-8")
    stall = BASE.format(out=tmp_path / "taken").replace(
        "rho_box = 1.1277533039647577",
        "rho_box = 1.1277533039647577\nmax_iterations = 2\nrel_tol = 1e-14",
    )
    cfg = _write(tmp_path / "stall.ini", stall)
    assert main(["solve", str(cfg)]) == 3
    assert "GMRES stalled at relative residual" in caplog.text
    assert f"cannot write output {tmp_path / 'taken'}: [Errno" in caplog.text


def test_cmd_solve_breakdown_exits_2(tmp_path, monkeypatch, caplog):
    def breakdown(*args, **kwargs):
        raise BreakdownDetected("Krylov breakdown at iteration 3")

    monkeypatch.setattr(vigrating.solver, "gmres", breakdown)
    cfg = _write(tmp_path / "s.ini", BASE.format(out=tmp_path / "o"))
    assert main(["solve", str(cfg)]) == 2
    assert "Krylov breakdown at iteration 3" in caplog.text


def test_cmd_solve_other_library_error_exits_3(tmp_path, monkeypatch, caplog):
    def asymmetric(*args, **kwargs):
        raise NonSymmetric("Q12 != Q21 on the grid")

    monkeypatch.setattr(vigrating.solver, "kernel_table", asymmetric)
    cfg = _write(tmp_path / "s.ini", BASE.format(out=tmp_path / "o"))
    assert main(["solve", str(cfg)]) == 3
    assert "invalid problem: Q12 != Q21" in caplog.text


def test_sweep_skips_point_with_breakdown(tmp_path, monkeypatch, caplog):
    for name, cfg in _layouts(tmp_path).items():
        out = tmp_path / name
        caplog.clear()
        with monkeypatch.context() as patch:
            fail_point(patch, cfg, "theta", 10.0,
                       BreakdownDetected("Krylov breakdown at iteration 1"))
            assert main(["sweep", str(cfg), "--param", "theta", "--from",
                         "0", "--to", "20", "--steps", "3", "--output",
                         str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert {ln.split(",")[0] for ln in lines[1:]} == {"0.0", "20.0"}
        assert "skipping theta = 10: Krylov breakdown" in caplog.text


def test_sweep_samples_the_contrast_once(tmp_path, monkeypatch):
    calls = []
    sample = ContrastField.sample

    def counted(self, x1, x2):
        calls.append(1)
        return sample(self, x1, x2)

    monkeypatch.setattr(ContrastField, "sample", counted)
    out = tmp_path / "sw"
    cfg = _write(tmp_path / "s.ini", BASE.format(out=out))
    assert main(["sweep", str(cfg), "--param", "theta", "--from", "0",
                 "--to", "20", "--steps", "3", "--output", str(out)]) == 0
    assert len(calls) == 1
    lines = (out / "sweep.csv").read_text().splitlines()
    assert {ln.split(",")[0] for ln in lines[1:]} == {"0.0", "10.0", "20.0"}


def test_sweep_rejects_invalid_geometry(tmp_path, caplog):
    out = tmp_path / "sw"
    cfg = _write(tmp_path / "s.ini", BASE.format(out=out).replace(
        "rho_box = 1.1277533039647577", "rho_box = 0.3"))
    assert main(["sweep", str(cfg), "--param", "theta", "--from", "0",
                 "--to", "20", "--steps", "3", "--output", str(out)]) == 3
    assert "invalid problem: rho_box" in caplog.text
    assert not out.exists()


def test_layered_sweep_lays_out_the_contrast_once(tmp_path, monkeypatch):
    import vigrating.problem

    calls = []

    class Counted(vigrating.problem.ContrastLayout):
        def __init__(self, samples, grid):
            calls.append(1)
            super().__init__(samples, grid)

    monkeypatch.setattr(vigrating.problem, "ContrastLayout", Counted)
    out = tmp_path / "sw"
    cfg = _write(tmp_path / "s.ini", BASE.format(out=out))
    assert main(["sweep", str(cfg), "--param", "theta", "--from", "0",
                 "--to", "20", "--steps", "3", "--output", str(out)]) == 0
    assert len(calls) == 1
    lines = (out / "sweep.csv").read_text().splitlines()
    assert {ln.split(",")[0] for ln in lines[1:]} == {"0.0", "10.0", "20.0"}


@pytest.mark.parametrize("shape, rows", [
    (SLAB, 1),
    (CIRCLE, 32),
    ("shape = rectangle\nq_re = 3.0\nwidth = 0.5\nheight = 0.5", 32),
], ids=["slab", "circle", "rectangle"])
def test_sweep_tables_hold_the_coupled_rows(tmp_path, monkeypatch, shape,
                                            rows):
    shapes = []
    build = vigrating.solver.kernel_table

    def recorded(*args):
        tables = build(*args)
        shapes.extend(table.shape for table in tables)
        return tables

    # a sweep batch builds the tables of its waves in one call
    monkeypatch.setattr(vigrating.solver, "kernel_table", recorded)
    out = tmp_path / "sw"
    text = BASE.format(out=out).replace(SLAB, shape)
    cfg = _write(tmp_path / "s.ini", text)
    assert main(["sweep", str(cfg), "--param", "theta", "--from", "0",
                 "--to", "20", "--steps", "3", "--output", str(out)]) == 0
    assert shapes == [(rows, 64)] * 3


# order -1 lies within 3e-9 k^2 of cutoff, inside the anomaly tolerance
NEAR_ANOMALY_THETA = 34.805774833288794


def test_near_anomaly_still_rejected(tmp_path, caplog):
    text = (Path(__file__).resolve().parents[1] / "configs" / "slab_q3.ini"
            ).read_text().replace("k = 1.0", "k = 4.0").replace(
        "theta_deg = 0.0", f"theta_deg = {NEAR_ANOMALY_THETA!r}")
    cfg = _write(tmp_path / "near.ini", text)
    assert main(["solve", str(cfg), "--output", str(tmp_path / "o")]) == 3
    assert ("invalid problem: Rayleigh anomaly at order j=-1"
            in caplog.text)
    caplog.clear()
    out = tmp_path / "sw"
    assert main(["sweep", str(cfg), "--param", "theta", "--from",
                 repr(NEAR_ANOMALY_THETA), "--to", "35", "--steps", "2",
                 "--output", str(out)]) == 0
    assert (f"skipping theta = {NEAR_ANOMALY_THETA:g}: invalid problem "
            "(Rayleigh anomaly at order j=-1") in caplog.text
    lines = (out / "sweep.csv").read_text().splitlines()
    assert {ln.split(",")[0] for ln in lines[1:]} == {"35.0"}


@pytest.mark.parametrize("gap", [-2.0, -0.5, 0.5, 2.0])
def test_one_anomaly_rule_at_every_layer(tmp_path, caplog, gap):
    # order -1 at k^2 - alpha_{-1}^2 = gap * ANOMALY_RTOL (k < 1): inside
    # the tolerance every layer rejects the wave there, outside none does
    k = 4.0 / PERIOD
    theta = float(np.degrees(np.arcsin(
        (1 - np.sqrt(k**2 - gap * ANOMALY_RTOL)) / k)))
    wave = IncidentWave.from_angle(k, theta)
    assert abs((k**2 - (wave.alpha - 1) ** 2) / ANOMALY_RTOL - gap) < 1e-6
    rejected = abs(gap) < 1
    cfg = _write(tmp_path / "near.ini", (
        Path(__file__).resolve().parents[1] / "configs" / "slab_q3.ini"
    ).read_text().replace("k = 1.0", "k = 4.0").replace(
        "theta_deg = 0.0", f"theta_deg = {theta!r}"))
    run = load_config(cfg)
    contrast = run.contrast()
    grid = run.grid(contrast)
    rho_ref, layout = sample_contrast(contrast, grid)
    other = IncidentWave.from_angle(k, 20.0)

    def verdict(call) -> bool:
        try:
            outcome = call()
        except RayleighAnomaly as exc:
            outcome = exc
        if isinstance(outcome, list):
            assert not isinstance(outcome[0], Exception)
            outcome = outcome[1]
        if isinstance(outcome, RayleighAnomaly):
            assert str(outcome).startswith("Rayleigh anomaly at order j=-1")
            return True
        return False

    def batch():
        points = [(i, Problem(wave=w, contrast=contrast, grid=grid,
                              rho_ref=rho_ref, layout=layout))
                  for i, w in enumerate((other, wave))]
        done, = solve_lockstep(points, SolveOptions(rel_tol=1e-10))
        outcomes = [sol for _, sol in sorted(done, key=lambda kv: kv[0])]
        assert all(isinstance(o, (Solution, RayleighAnomaly))
                   for o in outcomes)
        return outcomes

    layers = {
        "check_nonresonance": wave.check_nonresonance,
        "kernel_table": lambda: kernel_table(grid, wave),
        "kernel_table of a list": lambda: kernel_table(grid, [other, wave],
                                                       1),
        "solve_lockstep": batch,
    }
    verdicts = {name: verdict(call) for name, call in layers.items()}
    assert verdicts == dict.fromkeys(layers, rejected)
    for command in ("solve", "diagnose"):
        caplog.clear()
        code = main([command, str(cfg), "--output", str(tmp_path / "o")])
        assert code == (3 if rejected else 0)
        assert ("invalid problem: Rayleigh anomaly at order j=-1"
                in caplog.text) == rejected


def test_solve_beyond_physical_memory_exits_3(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(vigrating.solver, "physical_memory_bytes",
                        lambda: 40_000)
    cfg = _write(tmp_path / "s.ini", BASE.format(out=tmp_path / "o"))
    assert main(["solve", str(cfg)]) == 3
    # ((50 + 1) Krylov vectors x 2 x 29 support nodes + the work buffer of
    # 2 x 1 row x 64 columns) x 16 bytes
    assert ("invalid problem: the solve needs about 49376 bytes (51 Krylov "
            "vectors of 58 density unknowns" in caplog.text)
    assert "more than the 40000 bytes of physical memory" in caplog.text
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("package", ["mpmath"])
def test_validate_without_optional_extra_exits_3(package):
    proc = _python(f"import sys; sys.modules[{package!r}] = None; "
                   "from vigrating.cli import main; "
                   "sys.exit(main(['validate']))")
    assert proc.returncode == 3
    assert f"validate needs the package {package!r}" in proc.stderr


def test_validate_exits_1_when_a_gate_fails(monkeypatch, capsys):
    import vigrating.validate

    failed = vigrating.validate.GateResult(
        name="fake", passed=False, details="off by 1", elapsed=0.0)
    monkeypatch.setattr(vigrating.validate, "run_gates",
                        lambda level, tmp_dir=None: [failed])
    assert main(["validate"]) == 1
    assert "[FAIL] fake: off by 1" in capsys.readouterr().out


# a q = 3 circle whose propagating orders run from -9 to 6 (k = 50 per
# period, theta = 10 degrees), which n1 = 16 cannot hold: its Rayleigh
# extraction reads the orders |j| < 8 alone
COARSE_X1 = """
[problem]
k = {k}
theta_deg = 10.0
shape = circle
radius = 0.2
q_re = 3.0

[numerics]
n1 = {n1}
n2 = 64

[output]
directory = out
"""


def test_a_propagating_order_past_the_x1_grid_exits_3(tmp_path, caplog):
    cfg = _write(tmp_path / "c.ini", COARSE_X1.format(k=50.0, n1=16))
    assert main(["solve", str(cfg), "--output", str(tmp_path / "o")]) == 3
    assert ("invalid problem: propagating order j=-9 lies outside the "
            "orders |j| < 8 that n1 = 16 resolves; n1 = 32 is the smallest "
            "grid that holds it") in caplog.text
    assert not (tmp_path / "o").exists()
    # n1 = 32 holds every order
    cfg = _write(tmp_path / "d.ini", COARSE_X1.format(k=50.0, n1=32))
    assert main(["solve", str(cfg), "--output", str(tmp_path / "o")]) == 0
    rows = (tmp_path / "o" / "efficiencies.csv").read_text().splitlines()
    assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(-9, 7))


def test_a_sweep_skips_a_point_whose_orders_the_grid_cannot_hold(
        tmp_path, caplog):
    cfg = _write(tmp_path / "c.ini", COARSE_X1.format(k=5.0, n1=16))
    out = tmp_path / "sw"
    assert main(["sweep", str(cfg), "--param", "k", "--from", "5", "--to",
                 "50", "--steps", "2", "--output", str(out)]) == 0
    assert ("skipping k = 50: invalid problem (propagating order j=-9 lies "
            "outside the orders |j| < 8") in caplog.text
    lines = (out / "sweep.csv").read_text().splitlines()
    assert {ln.split(",")[0] for ln in lines[1:]} == {"5.0"}


def test_a_wavenumber_below_the_anomaly_floor_exits_3(tmp_path, caplog):
    # k = 0.0005 per period is 8e-5 in the library's units, where k^2 lies
    # within the anomaly tolerance of every wave
    text = (Path(__file__).resolve().parents[1] / "configs" / "slab_q3.ini"
            ).read_text().replace("k = 1.0", "k = 0.0005").replace(
        "theta_deg = 0.0", "theta_deg = 30.0")
    cfg = _write(tmp_path / "low.ini", text)
    assert main(["solve", str(cfg), "--output", str(tmp_path / "o")]) == 3
    assert ("invalid problem: wavenumber 7.957747154594768e-05 is at or "
            "below the floor 0.0001") in caplog.text
    assert "Rayleigh anomaly" not in caplog.text
    caplog.clear()
    out = tmp_path / "sw"
    assert main(["sweep", str(cfg), "--param", "k", "--from", "0.0005",
                 "--to", "1", "--steps", "2", "--output", str(out)]) == 0
    assert ("skipping k = 0.0005: invalid problem (wavenumber "
            "7.957747154594768e-05 is at or below the floor") in caplog.text
    lines = (out / "sweep.csv").read_text().splitlines()
    assert {ln.split(",")[0] for ln in lines[1:]} == {"1.0"}


def _thin_slab_cells() -> np.ndarray:
    """A 16 x 32 raster of a thin q = 2 slab, |x2| < 0.25 periods, over
    rho = 0.6 periods."""
    rho_r = 0.6 * PERIOD
    cells = np.zeros((16, 32, 2, 2), dtype=complex)
    x2_centers = -rho_r + 2 * rho_r * (np.arange(32) + 0.5) / 32
    cells[:, np.abs(x2_centers) < 0.25 * PERIOD] = 2.0 * np.eye(2)
    return cells


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_relative_raster_path_is_read_from_the_config_directory(
        tmp_path, monkeypatch, command):
    from vigrating.problem import write_raster

    (tmp_path / "sub").mkdir()
    write_raster(tmp_path / "sub" / "g.bin", _thin_slab_cells(),
                 h=0.25 * PERIOD, rho=0.6 * PERIOD)
    _write(tmp_path / "sub" / "r.ini",
           RASTER.format(path="g.bin", out=tmp_path / "o"))
    # run from the config's parent directory, not from its own
    monkeypatch.chdir(tmp_path)
    args = COMMANDS[command]
    assert main(args[:1] + ["sub/r.ini"] + args[1:]) == 0
    assert any((tmp_path / "o").iterdir())


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_non_finite_raster_cell_exits_3(tmp_path, caplog, command, value):
    from vigrating.problem import write_raster

    # one non-finite cell inside h: the node (5, 64) of the 16 x 128 grid
    # samples it
    cells = _thin_slab_cells()
    cells[5, 16, 0, 0] = value
    raster = tmp_path / "grating.bin"
    write_raster(raster, cells, h=0.25 * PERIOD, rho=0.6 * PERIOD)
    cfg = _write(tmp_path / "r.ini",
                 RASTER.format(path=raster, out=tmp_path / "o"))
    args = COMMANDS[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args[:1] + [str(cfg)] + args[1:]) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert (f"invalid problem: sampler returned a non-finite contrast "
            f"[[({value}+0j), 0j], [0j, (2+0j)]] at node (5, 64), (x1, x2) "
            "= (-1.1781, 0)") in caplog.text
    # a sweep stops before its first point
    assert "skipping" not in caplog.text
    assert not (tmp_path / "o").exists()


def _lossy_slab(tmp_path, k: float, n2: int) -> Path:
    text = (Path(__file__).resolve().parents[1] / "configs" / "slab_lossy.ini"
            ).read_text().replace("k = 1.0", f"k = {k}").replace(
        "n2 = 256", f"n2 = {n2}")
    return _write(tmp_path / f"lossy-{k}-{n2}.ini", text)


NEG_CIRCLE_32 = """
[problem]
k = 1.0
theta_deg = 10.0
shape = circle
radius = 0.2
q_re = -5.0

[numerics]
n1 = 32
n2 = 32
rho_box = 100

[output]
directory = out
"""


# each row exited 0 with efficiencies far above 1 before the rule
@pytest.mark.parametrize("config, cause", [
    (lambda p: _lossy_slab(p, 30.0, 8),
     "n2 = 8 holds 0.37 nodes per material wavelength on x2, fewer than 2; "
     "n2 = 64 is the smallest grid that holds 2"),
    (lambda p: _lossy_slab(p, 30.0, 16),
     "n2 = 16 holds 0.74 nodes per material wavelength on x2, fewer than 2; "
     "n2 = 64 is the smallest grid that holds 2"),
    (lambda p: _lossy_slab(p, 10.0, 8),
     "n2 = 8 holds 1.11 nodes per material wavelength on x2, fewer than 2; "
     "n2 = 16 is the smallest grid that holds 2"),
    (lambda p: _write(p / "neg.ini", NEG_CIRCLE_32),
     "n2 = 32 holds 0.503 nodes per material wavelength on x2, fewer than "
     "2; n2 = 128 is the smallest grid that holds 2"),
], ids=["lossy-k30-n8", "lossy-k30-n16", "lossy-k10-n8", "neg-circle-rho100"])
@pytest.mark.parametrize("command", ["solve", "diagnose"])
def test_an_unresolved_material_wavelength_exits_3(tmp_path, caplog, config,
                                                   cause, command):
    cfg = config(tmp_path)
    out = tmp_path / "o"
    assert main([command, str(cfg), "--output", str(out)]) == 3
    assert f"invalid problem: {cause}" in caplog.text
    assert not out.exists()


def test_a_sweep_skips_a_point_whose_wavelength_the_grid_cannot_hold(
        tmp_path, caplog):
    cfg = _lossy_slab(tmp_path, 1.0, 16)
    out = tmp_path / "sw"
    assert main(["sweep", str(cfg), "--param", "k", "--from", "1", "--to",
                 "30", "--steps", "2", "--output", str(out)]) == 0
    assert ("skipping k = 30: invalid problem (n2 = 16 holds 0.74 nodes per "
            "material wavelength on x2, fewer than 2") in caplog.text
    lines = (out / "sweep.csv").read_text().splitlines()
    assert {ln.split(",")[0] for ln in lines[1:]} == {"1.0"}


def test_a_grid_near_the_minimum_solves_with_a_warning(tmp_path, caplog):
    cfg = _lossy_slab(tmp_path, 30.0, 64)
    assert main(["solve", str(cfg), "--output", str(tmp_path / "o")]) == 0
    warned = [r.getMessage() for r in caplog.records
              if r.levelname == "WARNING"]
    assert warned == ["n2 = 64 holds 2.96 nodes per material wavelength on "
                      "x2; below 6 the efficiencies may be inaccurate"]
    assert (tmp_path / "o" / "efficiencies.csv").is_file()


def test_diagnose_builds_the_node_order_samples_once(tmp_path, monkeypatch):
    import vigrating.problem

    reads = []
    samples = vigrating.problem.ContrastLayout.samples

    def counted(layout):
        reads.append(1)
        return samples.fget(layout)

    monkeypatch.setattr(vigrating.problem.ContrastLayout, "samples",
                        property(counted))
    config = (Path(__file__).resolve().parents[1] / "configs"
              / "circle_anisotropic.ini")
    assert main(["diagnose", str(config), "--output",
                 str(tmp_path / "o")]) == 0
    assert len(reads) == 1
    # a solve or a sweep never reads them
    reads.clear()
    assert main(["solve", str(config), "--output", str(tmp_path / "o")]) == 0
    assert main(["sweep", str(config), "--param", "theta", "--from", "0",
                 "--to", "20", "--steps", "2", "--output",
                 str(tmp_path / "o")]) == 0
    assert reads == []
