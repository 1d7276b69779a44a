"""A sweep batch builds its kernel tables, right-hand sides and Rayleigh
coefficients as one stack each: every point's numbers must be bit for bit
those it gets alone, and a point the stack rejects must be skipped alone."""

import numpy as np
import pytest

import vigrating.solver
from vigrating.cli import main
from vigrating.errors import DegenerateAtZeroJ2, RayleighAnomaly
from vigrating.kernel import kernel_table
from vigrating.operators import Discretization, OperatorStack
from vigrating.postprocess import rayleigh_batch, rayleigh_both_sides
from vigrating.problem import (
    Grid,
    IncidentWave,
    Problem,
    circle_contrast,
    sample_contrast,
    slab_contrast,
)
from vigrating.solver import (
    Solution,
    SolveOptions,
    check_memory,
    solve,
    solve_lockstep,
)

# one wave per period at normal incidence: orders +-1 are at cutoff
ANOMALY = IncidentWave.from_angle(1.0, 0.0)
# order -1 lies within 3e-9 k^2 of cutoff: the non-resonance check passes,
# but the symbol vanishes at (j1, j2) = (-1, 0)
NEAR_ANOMALY = IncidentWave.from_angle(4.0 / (2 * np.pi), 34.805774833288794)
# on a box of height 2 pi / 3 the symbol of k = 1.5, alpha = 0 vanishes at
# (j1, j2) = (0, +-1): the table takes the limit value there
DEGENERATE_MODE = IncidentWave.from_angle(1.5, 0.0)
WAVES = [DEGENERATE_MODE, ANOMALY, IncidentWave.from_angle(0.7, 20.0),
         NEAR_ANOMALY, IncidentWave.from_angle(1.1, 35.0)]
REJECTED = {1: RayleighAnomaly, 3: DegenerateAtZeroJ2}
OPTS = SolveOptions(rel_tol=1e-10)


def _points(contrast, grid, waves):
    """The problems of ``waves`` on one sampled layout of ``contrast``."""
    rho_ref, layout = sample_contrast(contrast, grid)
    return [Problem(wave=wave, contrast=contrast, grid=grid, rho_ref=rho_ref,
                    layout=layout) for wave in waves]


def _coefficients(data):
    """The orders and the bytes of the coefficients of a RayleighData."""
    values = np.array(list(data.coefficients.values()), dtype=complex)
    return (list(data.coefficients), values.tobytes(), data.propagating,
            data.truncated, data.rho_ref)


@pytest.mark.parametrize("rows", [None, 1], ids=["full", "one-row"])
def test_stacked_tables_are_the_one_wave_tables(rows):
    grid = Grid(n1=16, n2=32, rho_box=2 * np.pi / 3)
    tables = kernel_table(grid, WAVES, rows)
    assert len(tables) == len(WAVES)
    for i, wave in enumerate(WAVES):
        if i in REJECTED:
            assert isinstance(tables[i], REJECTED[i])
            with pytest.raises(REJECTED[i]):
                kernel_table(grid, wave, rows)
            continue
        alone = kernel_table(grid, wave, rows)
        assert tables[i].coeffs.tobytes() == alone.coeffs.tobytes()
        assert tables[i].degenerate_modes == alone.degenerate_modes
        assert (tables[i].k, tables[i].alpha, tables[i].k_squared) == (
            alone.k, alone.alpha, alone.k_squared)
        assert not tables[i].coeffs.flags.writeable
    assert tables[0].degenerate_modes == ((0, 1), (0, -1))


def test_a_batch_skips_an_anomaly_and_a_degenerate_point_alone():
    grid = Grid(n1=16, n2=64, rho_box=2 * np.pi / 3)
    problems = _points(slab_contrast(3.0, 1.0), grid, WAVES)
    batches = list(solve_lockstep(enumerate(problems), OPTS))
    assert len(batches) == 1
    outcomes = dict(batches[0])
    assert sorted(outcomes) == list(range(len(WAVES)))
    for i, problem in enumerate(problems):
        if i in REJECTED:
            assert isinstance(outcomes[i], REJECTED[i])
            continue
        alone = solve(problem, kernel_table(grid, problem.wave, 1), OPTS)
        assert outcomes[i].rows.tobytes() == alone.rows.tobytes()
        assert outcomes[i].residual_history == alone.residual_history
        assert outcomes[i].iterations == alone.iterations


def test_stacked_rayleigh_of_a_one_row_batch_is_the_one_solution_one():
    grid = Grid(n1=16, n2=64, rho_box=2 * np.pi / 3)
    waves = [WAVES[i] for i in range(len(WAVES)) if i not in REJECTED]
    problems = _points(slab_contrast(3.0, 1.0), grid, waves)
    batch, = solve_lockstep(enumerate(problems), OPTS)
    solutions = [sol for _, sol in sorted(batch, key=lambda kv: kv[0])]
    assert len({len(sol.rows) for sol in solutions}) == 1
    for sol, both in zip(solutions, rayleigh_batch(solutions)):
        disc = sol.discretization
        alone = rayleigh_both_sides(sol, disc.problem, disc.table)
        assert [_coefficients(d) for d in both] == [
            _coefficients(d) for d in alone]
    # the order that propagates at the first point only
    assert [1 in both[0].propagating
            for both in rayleigh_batch(solutions)] == [True, False, False]


def test_stacked_rayleigh_of_a_2d_batch_of_one_is_the_field_extraction():
    grid = Grid(n1=16, n2=32, rho_box=2.0)
    problem, = _points(circle_contrast(3.0, 0.6), grid,
                       [IncidentWave.from_angle(1.1, 10.0)])
    batch, = solve_lockstep([("only", problem)], OPTS)
    (_, sol), = batch
    assert len(sol.rows) == grid.n1
    both, = rayleigh_batch([sol])
    # from the full field on a discretization of its own
    table = kernel_table(grid, problem.wave)
    alone = rayleigh_both_sides(Solution(sol.u, converged=True), problem,
                                table)
    assert [_coefficients(d) for d in both] == [
        _coefficients(d) for d in alone]
    assert any(v != 0 for j, v in both[0].coefficients.items() if j != 0)


SLAB_SWEEP = """
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
directory = out
"""


@pytest.mark.parametrize("size, batches", [(None, 1), (8, 3)],
                         ids=["one-batch", "batches-of-8"])
def test_a_sweep_batch_builds_tables_rhs_and_densities_once(
        tmp_path, monkeypatch, size, batches):
    calls = {}

    def count(owner, name):
        original = getattr(owner, name)
        key = f"{getattr(owner, '__name__', owner)}.{name}"
        calls[key] = 0

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    cfg = tmp_path / "slab.ini"
    cfg.write_text(SLAB_SWEEP, encoding="utf-8")
    if size:
        problem, = _points(slab_contrast(3.0, 1.0),
                           Grid(32, 64, 1.1277533039647577), WAVES[:1])
        need = check_memory(problem, SolveOptions())
        monkeypatch.setattr(vigrating.solver, "physical_memory_bytes",
                            lambda: size * need)
    count(vigrating.solver, "kernel_table")
    count(OperatorStack, "rhs")
    count(OperatorStack, "density_rows")
    count(Discretization, "rhs")
    out = tmp_path / "out"
    assert main(["sweep", str(cfg), "--param", "theta", "--from", "0",
                 "--to", "40", "--steps", "21", "--output", str(out)]) == 0
    assert len((out / "sweep.csv").read_text().splitlines()) > 21
    assert calls == {"vigrating.solver.kernel_table": batches,
                     "OperatorStack.rhs": batches,
                     "OperatorStack.density_rows": batches,
                     "Discretization.rhs": 0}
