"""Sweeps solve their points in lockstep (solver.solve_lockstep): the
sweep's rows must equal those of separate solves, byte for byte, a
failing point must be skipped alone, and a batch must hold at most one
full grid of rows."""

import csv
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import vigrating.solver
from vigrating.cli import _sweep_points, main
from vigrating.config import PERIOD, load_config
from vigrating.operators import OperatorStack
from vigrating.postprocess import (
    efficiencies,
    efficiency_rows,
    rayleigh_both_sides,
)
from vigrating.problem import write_raster
from vigrating.solver import check_memory, solve

from conftest import ANISO

CONFIG = """
[problem]
k = {k}
theta_deg = 0.0
shape = {shape}

[numerics]
n1 = {n1}
n2 = {n2}
rho_box = {rho_box}
{numerics}
[output]
directory = out
"""

SLAB = "slab\nq_re = 3.0\nthickness = 0.4"
LOSSY = "slab\nq_re = 3.0\nq_im = -0.5\nthickness = 0.4"
CIRCLE = "circle\nq_re = 3.0\nradius = 0.2"

# order -1 starts to propagate at theta = 34.8 degrees for k = 4 per period
THETAS = ("theta", 30.0, 40.0, 6)


def _config(tmp_path, shape, k=4.0, rho_box=0.5, numerics="", n1=16,
            n2=128):
    path = tmp_path / "sweep.ini"
    path.write_text(CONFIG.format(k=k, shape=shape, rho_box=rho_box,
                                  numerics=numerics, n1=n1, n2=n2),
                    encoding="utf-8")
    return path


def _anisotropic_stack(tmp_path):
    """Raster shape of two x1-invariant layers: the lossy tensor ANISO
    (Q12 != 0) below and q = -2 above, 0.2 and 0.15 periods thick."""
    n1, n2, rho = 4, 64, 0.25 * PERIOD
    centers = -rho + 2 * rho * (np.arange(n2) + 0.5) / n2
    cells = np.zeros((n1, n2, 2, 2), dtype=complex)
    cells[:, (centers > -0.2 * PERIOD) & (centers < 0)] = ANISO
    cells[:, (centers > 0) & (centers < 0.15 * PERIOD)] = -2.0 * np.eye(2)
    raster = tmp_path / "stack.bin"
    write_raster(raster, cells, h=0.2 * PERIOD, rho=rho)
    return f"raster\npath = {raster}"


def _sweep(cfg, param, start, stop, steps, out):
    """The exit code of a sweep and the rows of its sweep.csv, None when
    it wrote none."""
    code = main(["sweep", str(cfg), "--param", param, "--from", repr(start),
                 "--to", repr(stop), "--steps", str(steps), "--output",
                 str(out)])
    if not (out / "sweep.csv").exists():
        return code, None
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        return code, list(csv.reader(fh))[1:]


def _point_rows(cfg, param, value):
    """The sweep.csv rows of one point, from a separate solve."""
    run = load_config(cfg).replace_parameter(param, float(value))
    problem = run.build()
    sol = solve(problem, run.options())
    eff = efficiencies(*rayleigh_both_sides(sol), problem)
    return [[repr(float(value)), str(row[0]), *row[1:]]
            for row in efficiency_rows(eff)]


def _expected(cfg, param, start, stop, steps, skipped=()):
    return [row for value in np.linspace(start, stop, steps)
            if float(value) not in skipped
            for row in _point_rows(cfg, param, value)]


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("shape", ["slab", "lossy", "anisotropic-stack",
                                   "circle"])
def test_lockstep_sweep_equals_point_by_point_solves(tmp_path, monkeypatch,
                                                     shape, batch):
    if shape == "circle":
        cfg = _config(tmp_path, CIRCLE, n2=32)
    else:
        cfg = _config(tmp_path, {"slab": SLAB, "lossy": LOSSY}.get(shape)
                      or _anisotropic_stack(tmp_path))
    run = load_config(cfg)
    need = check_memory(run.build(), run.options())
    # physical memory for ``batch`` points: batches of at most that many
    monkeypatch.setattr(vigrating.solver, "physical_memory_bytes",
                        lambda: batch * need)
    sizes = _stack_sizes(monkeypatch)
    code, rows = _sweep(cfg, *THETAS, tmp_path / "out")
    assert code == 0
    # a 2-D point has all the rows: it runs alone whatever the memory
    assert max(sizes) == (1 if shape == "circle" else batch)
    assert rows == _expected(cfg, *THETAS)
    # the range crosses the onset of order -1
    orders = {}
    for row in rows:
        orders.setdefault(row[0], []).append(row[1])
    assert orders["30.0"] == ["0"] and orders["40.0"] == ["-1", "0"]


def test_a_point_stopping_early_is_skipped_alone(tmp_path, caplog):
    # GMRES(2) converges at k = 1, 2 and 3 per period; at k = 4 its best
    # restarted cycle cannot reach rel_tol within 30 iterations
    cfg = _config(tmp_path, "slab\nq_re = 3.0\nthickness = 1.0", k=1.0,
                  rho_box=1.1277533039647577,
                  numerics="rel_tol = 1e-10\nrestart = 2\n"
                           "max_iterations = 30\n")
    code, rows = _sweep(cfg, "k", 1.0, 4.0, 4, tmp_path / "out")
    assert code == 0
    assert rows == _expected(cfg, "k", 1.0, 4.0, 4, skipped=(4.0,))
    assert "skipping k = 4: GMRES stopped early after" in caplog.text
    assert "the best restarted cycle of GMRES(2) reduced it by" in (
        caplog.text)
    assert "skipping k = 1" not in caplog.text


def test_a_point_at_a_rayleigh_anomaly_is_skipped_alone(tmp_path, caplog):
    # the middle point has one full wave per period at normal incidence
    cfg = _config(tmp_path, SLAB, k=1.0)
    lo, hi = PERIOD - 0.1, PERIOD + 0.1
    assert np.linspace(lo, hi, 3)[1] == PERIOD
    code, rows = _sweep(cfg, "k", lo, hi, 3, tmp_path / "out")
    assert code == 0
    assert rows == _expected(cfg, "k", lo, hi, 3, skipped=(PERIOD,))
    assert f"skipping k = {PERIOD:g}: invalid problem (" in caplog.text


def test_no_batch_hands_an_anomalous_wave_to_the_table(tmp_path,
                                                        monkeypatch, caplog):
    # the point at the anomaly is skipped when its Problem is built, so
    # every wave of a batch is valid
    waves = []
    table = vigrating.solver.kernel_table

    def recorded(grid, wave, rows=None):
        waves.extend(wave)
        return table(grid, wave, rows)

    monkeypatch.setattr(vigrating.solver, "kernel_table", recorded)
    cfg = _config(tmp_path, SLAB, k=1.0)
    values = np.linspace(PERIOD - 0.1, PERIOD + 0.1, 3)
    points = _sweep_points(load_config(cfg), "k", values)
    assert [(value, eff) for value, eff in points
            if isinstance(eff, int)] == [(PERIOD, 3)]
    assert f"skipping k = {PERIOD:g}: invalid problem (Rayleigh anomaly " \
        "at order j=-1" in caplog.text
    assert [wave.k for wave in waves] == [values[0] / PERIOD,
                                          values[2] / PERIOD]


def _stack_sizes(monkeypatch) -> list[int]:
    """The number of points of every OperatorStack the solver constructs
    from now on (a batch shrinks its stack by ``take``, which holds fewer
    points and is not recorded)."""
    sizes = []
    stack = vigrating.solver.OperatorStack

    def recorded(problems, tables):
        sizes.append(len(problems))
        return stack(problems, tables)

    monkeypatch.setattr(vigrating.solver, "OperatorStack", recorded)
    return sizes


def test_a_batch_holds_at_most_one_full_grid_of_rows(tmp_path, monkeypatch):
    sizes = _stack_sizes(monkeypatch)
    # six one-row points on a grid of four rows
    code, rows = _sweep(_config(tmp_path, SLAB, n1=4), *THETAS,
                        tmp_path / "rows")
    assert code == 0 and len(rows) == 9
    assert max(sizes) == 4
    # a 2-D point has all the rows: it runs alone
    sizes.clear()
    code, rows = _sweep(_config(tmp_path, CIRCLE, n2=32), *THETAS,
                        tmp_path / "circle")
    assert code == 0 and len(rows) == 9
    assert sizes == [1] * 6


def test_a_2d_sweep_holds_one_point_at_a_time(tmp_path):
    cfg = _config(tmp_path, CIRCLE, n2=32)
    run = load_config(cfg)
    need = check_memory(run.build(), run.options())
    args = ("theta", 0.0, 20.0, 3, tmp_path / "out")
    assert _sweep(cfg, *args)[0] == 0                   # warm-up
    tracemalloc.start()
    try:
        code, _ = _sweep(cfg, *args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    # two pending points would hold two Krylov bases and work buffers
    assert peak < 2 * need


def test_batches_fit_the_memory_estimate(tmp_path, monkeypatch):
    cfg = _config(tmp_path, SLAB)
    _, unbounded = _sweep(cfg, *THETAS, tmp_path / "all")
    sizes = _stack_sizes(monkeypatch)
    # check_memory's estimate of one point: 50 + 1 Krylov vectors of the
    # two density components at the support nodes, and the work buffer of
    # two components of one row of 128 values
    nodes = len(load_config(cfg).build().layout.nodes)
    need = ((50 + 1) * 2 * nodes + 2 * 128) * 16
    monkeypatch.setattr(vigrating.solver, "physical_memory_bytes",
                        lambda: 2 * need + 1)
    code, rows = _sweep(cfg, *THETAS, tmp_path / "two")
    assert code == 0 and rows == unbounded
    assert max(sizes) == 2


def test_a_point_that_cannot_fit_alone_is_skipped(tmp_path, monkeypatch,
                                                  caplog):
    cfg = _config(tmp_path, SLAB)
    monkeypatch.setattr(vigrating.solver, "physical_memory_bytes",
                        lambda: 1000)
    code, rows = _sweep(cfg, *THETAS, tmp_path / "out")
    assert code == 3 and rows is None
    assert "skipping theta = 30: invalid problem (the solve needs about" in (
        caplog.text)


def test_a_krylov_step_out_of_memory_skips_its_batch(tmp_path, monkeypatch,
                                                     caplog):
    # the third stacked product of the batch's three points fails
    calls = []
    apply = OperatorStack.apply

    def failing(self, vectors):
        calls.append(len(vectors))
        if len(calls) == 3:
            raise MemoryError
        return apply(self, vectors)

    monkeypatch.setattr(OperatorStack, "apply", failing)
    cfg = Path(__file__).resolve().parents[1] / "configs" / "slab_q3.ini"
    code, rows = _sweep(cfg, "theta", 0.0, 20.0, 3, tmp_path / "out")
    assert code == 3 and rows is None
    assert calls == [3, 3, 3]
    for value in ("0", "10", "20"):
        assert (f"skipping theta = {value}: invalid problem (out of memory "
                "on the 256 x 256 grid: MemoryError)") in caplog.text


def test_a_sweep_point_allocates_no_full_grid(tmp_path):
    # a tall grid: one complex (N1, N2) array outweighs the three points'
    # Krylov bases together
    cfg = _config(tmp_path, SLAB, n1=1024, n2=64)
    args = ("theta", 0.0, 20.0, 3, tmp_path / "out")
    assert _sweep(cfg, *args)[0] == 0                   # warm-up
    tracemalloc.start()
    try:
        code, _ = _sweep(cfg, *args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1024 * 64 * 16
