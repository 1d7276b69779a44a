"""A sweep batch builds its kernel tables, right-hand sides and Rayleigh
coefficients as one stack each: every point's numbers must be bit for bit
those it gets alone, and a point that fails must end alone."""

import numpy as np
import pytest

import vigrating.solver
from vigrating.cli import main
from vigrating.errors import RayleighAnomaly
from vigrating.kernel import kernel_table
from vigrating.operators import OperatorStack
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
# order -1 lies within 3e-9 k^2 of cutoff, inside the anomaly tolerance
NEAR_ANOMALY = IncidentWave.from_angle(4.0 / (2 * np.pi), 34.805774833288794)
# on a box of height 2 pi / 3 the symbol of k = 1.5, alpha = 0 vanishes at
# (j1, j2) = (0, +-1): the table takes the limit value there
DEGENERATE_MODE = IncidentWave.from_angle(1.5, 0.0)
WAVES = [DEGENERATE_MODE, IncidentWave.from_angle(0.7, 20.0),
         IncidentWave.from_angle(1.1, 35.0)]
# each rejected at its first anomalous order, -1; no Problem holds them
REJECTED = [ANOMALY, NEAR_ANOMALY]
REJECTED_AT = "Rayleigh anomaly at order j=-1"
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
    for wave, table in zip(WAVES, tables):
        alone = kernel_table(grid, wave, rows)
        assert table.coeffs.tobytes() == alone.coeffs.tobytes()
        assert table.degenerate_modes == alone.degenerate_modes
        assert (table.k, table.alpha, table.k_squared) == (
            alone.k, alone.alpha, alone.k_squared)
        assert not table.coeffs.flags.writeable
    assert tables[0].degenerate_modes == ((0, 1), (0, -1))
    # a list that holds a rejected wave raises as the one wave's call does
    for wave in REJECTED:
        with pytest.raises(RayleighAnomaly, match=REJECTED_AT):
            kernel_table(grid, wave, rows)
        with pytest.raises(RayleighAnomaly, match=REJECTED_AT):
            kernel_table(grid, [WAVES[1], wave, WAVES[2]], rows)


def test_a_batch_solves_a_degenerate_point_as_solve_does():
    grid = Grid(n1=16, n2=64, rho_box=2 * np.pi / 3)
    problems = _points(slab_contrast(3.0, 1.0), grid, WAVES)
    batches = list(solve_lockstep(enumerate(problems), OPTS))
    assert len(batches) == 1
    outcomes = dict(batches[0])
    assert sorted(outcomes) == list(range(len(WAVES)))
    for i, problem in enumerate(problems):
        alone = solve(problem, OPTS)
        assert outcomes[i].rows.tobytes() == alone.rows.tobytes()
        assert outcomes[i].residual_history == alone.residual_history
        assert outcomes[i].iterations == alone.iterations
    assert outcomes[0].table.degenerate_modes == ((0, 1), (0, -1))


@pytest.mark.parametrize("contrast, rows", [
    (slab_contrast(3.0, 1.0), 1), (circle_contrast(3.0, 0.6), 16),
], ids=["layered", "2-D"])
def test_a_solve_builds_the_table_of_a_batch_point(contrast, rows):
    grid = Grid(n1=16, n2=32, rho_box=2.0)
    problem, = _points(contrast, grid, [IncidentWave.from_angle(1.1, 10.0)])
    assert problem.layout.n_rows == rows
    table = solve(problem, OPTS).table
    # the rows the solve couples, bit for bit those of the full table
    assert table.coeffs.shape == (rows, grid.n2)
    full = kernel_table(grid, problem.wave)
    assert table.coeffs.tobytes() == full.coeffs[:rows].tobytes()
    # and the table of the same point in a batch of one
    (_, point), = next(solve_lockstep([("only", problem)], OPTS))
    assert point.table.coeffs.tobytes() == table.coeffs.tobytes()
    assert (point.table.k, point.table.alpha, point.table.degenerate_modes) \
        == (table.k, table.alpha, table.degenerate_modes)


def test_out_of_memory_in_a_krylov_step_ends_the_pending_points(
        monkeypatch):
    grid = Grid(n1=16, n2=64, rho_box=2 * np.pi / 3)
    problems = _points(slab_contrast(3.0, 1.0), grid, WAVES)
    apply = OperatorStack.apply
    sizes = []

    def failing(self, vectors):
        # the first product after a point converged
        sizes.append(len(vectors))
        if len(vectors) < len(WAVES):
            raise MemoryError("Krylov step")
        return apply(self, vectors)

    monkeypatch.setattr(OperatorStack, "apply", failing)
    batch, = solve_lockstep(enumerate(problems), OPTS)
    assert sizes[-1] == len(WAVES) - 1
    assert sizes[:-1] == [len(WAVES)] * (len(sizes) - 1)
    # the first point converges first, alone, and keeps its solution
    assert [key for key, _ in batch] == [0, 1, 2]
    outcomes = dict(batch)
    monkeypatch.setattr(OperatorStack, "apply", apply)
    alone = solve(problems[0], OPTS)
    assert outcomes[0].rows.tobytes() == alone.rows.tobytes()
    assert outcomes[0].iterations == alone.iterations
    for i in (1, 2):
        assert isinstance(outcomes[i], MemoryError)
        assert str(outcomes[i]) == "Krylov step"


def test_stacked_rayleigh_of_a_one_row_batch_is_the_one_solution_one():
    grid = Grid(n1=16, n2=64, rho_box=2 * np.pi / 3)
    problems = _points(slab_contrast(3.0, 1.0), grid, WAVES)
    batch, = solve_lockstep(enumerate(problems), OPTS)
    solutions = [sol for _, sol in sorted(batch, key=lambda kv: kv[0])]
    assert len({len(sol.rows) for sol in solutions}) == 1
    for sol, both in zip(solutions, rayleigh_batch(solutions)):
        alone = rayleigh_both_sides(sol)
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
    # from the solved density on a stack of one of its own
    alone = rayleigh_both_sides(sol)
    assert [_coefficients(d) for d in both] == [
        _coefficients(d) for d in alone]
    assert any(v != 0 for j, v in both[0].coefficients.items() if j != 0)
    # from the full field, whose density differs from the solved one by the
    # density residual, which rel_tol bounds
    field = rayleigh_both_sides(Solution(
        sol.u, converged=True, problem=problem,
        table=kernel_table(grid, problem.wave)))
    for data, direct in zip(both, field):
        assert list(data.coefficients) == list(direct.coefficients)
        scale = max(abs(v) for v in direct.coefficients.values())
        assert max(abs(data.order(j) - v)
                   for j, v in direct.coefficients.items()) <= (
                       OPTS.rel_tol * scale)


def test_extracting_a_2d_batch_builds_no_kernel_multiplier(monkeypatch):
    grid = Grid(n1=16, n2=32, rho_box=2.0)
    problems = _points(circle_contrast(3.0, 0.6), grid,
                       [IncidentWave.from_angle(1.1, a) for a in (5.0, 10.0)])
    solutions = [sol for batch in solve_lockstep(enumerate(problems), OPTS)
                 for _, sol in batch]
    assert [len(sol.rows) for sol in solutions] == [grid.n1, grid.n1]
    built = []
    multiplier = OperatorStack.__dict__["multiplier"]
    compute = multiplier.func

    def counted(self):
        built.append(len(self.problems))
        return compute(self)

    monkeypatch.setattr(multiplier, "func", counted)
    data = rayleigh_batch(solutions)
    assert built == []
    # the field rows above were read on each point's own stack of one,
    # which the extraction reads no multiplier of either
    for sol, both in zip(solutions, data):
        alone = rayleigh_both_sides(sol)
        assert [_coefficients(d) for d in both] == [
            _coefficients(d) for d in alone]


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

    def count(owner, name, key=None):
        original = getattr(owner, name)
        key = key or f"{getattr(owner, '__name__', owner)}.{name}"
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
    # the incident densities, a cached property: what computes them
    count(OperatorStack.__dict__["rhs"], "func", "OperatorStack.rhs")
    count(OperatorStack, "density_rows")
    count(OperatorStack, "__init__")
    out = tmp_path / "out"
    assert main(["sweep", str(cfg), "--param", "theta", "--from", "0",
                 "--to", "40", "--steps", "21", "--output", str(out)]) == 0
    assert len((out / "sweep.csv").read_text().splitlines()) > 21
    assert calls == {"vigrating.solver.kernel_table": batches,
                     "OperatorStack.rhs": batches,
                     "OperatorStack.density_rows": batches,
                     # one stack to solve and one to extract, none per point
                     "OperatorStack.__init__": 2 * batches}
