import dataclasses
import logging
import tracemalloc

import numpy as np
import pytest

import vigrating.solver
from vigrating.errors import (
    BreakdownDetected,
    NotConverged,
    ShapeMismatch,
    SizeGuard,
)
from vigrating.kernel import kernel_table
from vigrating.operators import (
    Discretization,
    SpectralField,
    contrast_gradient_potential,
)
from vigrating.postprocess import efficiencies, rayleigh_both_sides
from vigrating.problem import (
    Grid,
    IncidentWave,
    build_problem,
    circle_contrast,
    raster_contrast,
    rectangle_contrast,
    slab_contrast,
    two_layer_contrast,
    write_raster,
)
from vigrating.solver import (
    SolveOptions,
    assemble_rhs,
    check_memory,
    gmres,
    residual,
    solve,
)

from conftest import (
    ANISO,
    SLAB_H,
    SLAB_K,
    reference_rhs,
    smooth_isotropic_contrast,
)


def _dense_reference_system():
    rng = np.random.default_rng(0)
    n = 40
    a = np.eye(n) + 0.3 * (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ) / np.sqrt(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return a, b


def test_gmres_dense_reference():
    a, b = _dense_reference_system()
    x, hist, conv, _, _ = gmres(lambda v: a @ v, b, rel_tol=1e-10, restart=15)
    assert conv
    assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-9
    assert np.allclose(x, np.linalg.solve(a, b), atol=1e-8)
    assert all(hist[i + 1] <= hist[i] + 1e-14 for i in range(len(hist) - 1))


def test_cgs2_basis_orthonormal():
    # matvec sees the 15 basis vectors of the first cycle (the zero iterate
    # needs no product), the restart iterate and the basis vectors of the
    # second cycle
    a, b = _dense_reference_system()
    seen = []

    def matvec(v):
        seen.append(v.copy())
        return a @ v

    _, _, conv, iters, _ = gmres(matvec, b, rel_tol=1e-10, restart=15)
    assert conv
    # the modified Gram-Schmidt version of this solver needed 24 as well
    assert iters == 24
    for basis in (np.array(seen[:15]), np.array(seen[16:])):
        gram = basis.conj() @ basis.T
        assert np.linalg.norm(gram - np.eye(len(basis))) <= 1e-12


def test_gmres_allocates_no_full_hessenberg():
    # a cycle of GMRES(1000) on a system of 40 unknowns ends after at most
    # 40 columns: the rotated columns are lists, and only the triangle of
    # the columns used becomes an array
    a, b = _dense_reference_system()
    gmres(lambda v: a @ v, b, rel_tol=1e-10, restart=1000)       # warm-up
    tracemalloc.start()
    try:
        x, _, conv, iters, _ = gmres(lambda v: a @ v, b, rel_tol=1e-10,
                                     restart=1000, max_iterations=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert conv and iters <= len(b)
    assert np.allclose(x, np.linalg.solve(a, b), atol=1e-8)
    # a (1001, 1000) complex array alone is 16 MB; the basis is 0.6 MB
    assert peak < 1001 * 1000 * 16 // 10


def test_gmres_trivial_cases():
    b = np.arange(1.0, 6.0).astype(complex)
    x, hist, conv, iters, _ = gmres(lambda v: v, b)
    assert conv and iters == 1 and np.allclose(x, b)
    x, hist, conv, iters, _ = gmres(lambda v: v, np.zeros(5, complex))
    assert conv and iters == 0 and np.all(x == 0)


def test_gmres_breakdown_on_singular_operator():
    p = np.zeros((3, 3))
    p[0, 0] = 1.0
    with pytest.raises(BreakdownDetected):
        gmres(lambda v: p @ v, np.array([1.0, 1.0, 0.0], complex),
              rel_tol=1e-12)


def test_gmres_happy_breakdown():
    d = np.diag([2.0, 3.0, 4.0]).astype(complex)
    x, hist, conv, iters, _ = gmres(lambda v: d @ v,
                                 np.array([1.0, 0.0, 0.0], complex))
    assert conv and iters == 1
    assert np.allclose(x, [0.5, 0, 0])


def test_gmres_stops_when_restarted_cycles_make_no_progress():
    # GMRES(m) on the cyclic shift with b = e1 and m < n: A times the
    # Krylov space {e1, ..., em} is orthogonal to b, so no cycle moves x
    n, m = 12, 4
    b = np.zeros(n, dtype=complex)
    b[0] = 1.0
    x, hist, conv, iters, stop = gmres(lambda v: np.roll(v, 1), b, restart=m)
    # stopped at the third cycle start, not at the 500-iteration cap
    assert not conv and iters == 2 * m and len(hist) == 2 * m
    assert not x.any() and hist[-1] == 1.0
    assert "reduced it by 1," in stop
    assert "takes never cycles against the 123 left" in stop
    assert stop.endswith("raise restart or max_iterations")


def test_restart_cycles_are_logged(slab_problem, caplog):
    caplog.set_level(logging.DEBUG, logger="vigrating.solver")
    problem, table = slab_problem
    sol = solve(problem, table, SolveOptions(rel_tol=1e-10, restart=3))
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("GMRES(3) cycle")]
    # one line per restart: every completed cycle but the converging one
    restarts = (sol.iterations - 1) // 3
    assert restarts >= 2 and len(lines) == restarts
    rho_start = 1.0
    for cycle, line in enumerate(lines, start=1):
        head, rest = line.split(": ")
        assert head == f"GMRES(3) cycle {cycle}"
        iters, rho, reduction = rest.split(", ")
        assert iters == f"{3 * cycle} iterations"
        rho = float(rho.removeprefix("relative residual "))
        assert float(reduction.removeprefix("reduction ")) == pytest.approx(
            rho / rho_start, rel=1e-2)
        rho_start = rho


@pytest.mark.parametrize("budget", [500, 250])
def test_multi_cycle_negative_contrast_still_converges(budget):
    # a lossy q = -3 - 0.3i circle needs five GMRES(50) cycles.  A budget
    # of 250 iterations is tight: at the fourth cycle start only the best
    # restarted cycle's rate, not the latest one, projects convergence
    period = 2 * np.pi
    wave = IncidentWave.from_angle(2.0 / period, 25.0)
    contrast = circle_contrast(-3.0 - 0.3j, 0.15 * period)
    grid = Grid(n1=64, n2=64, rho_box=2 * contrast.h)
    problem = build_problem(wave, contrast, grid)
    table = kernel_table(grid, wave)
    sol = solve(problem, table,
                SolveOptions(rel_tol=1e-10, max_iterations=budget))
    assert sol.converged and sol.iterations > 4 * 50
    assert residual(problem, table, sol.u, sol.discretization) <= 2e-10


def test_solve_zero_contrast_is_immediate():
    wave = IncidentWave(k=0.5, d=(0.0, -1.0))
    problem = build_problem(wave, slab_contrast(0.0, 1.0),
                            Grid(n1=8, n2=16, rho_box=1.0))
    table = kernel_table(problem.grid, wave)
    sol = solve(problem, table)
    assert sol.converged and sol.iterations == 0
    assert sol.u.norm() == 0.0


def test_solve_not_converged_carries_best_iterate(slab_problem):
    problem, table = slab_problem
    with pytest.raises(NotConverged) as err:
        solve(problem, table, SolveOptions(rel_tol=1e-13, max_iterations=2))
    sol = err.value.solution
    assert sol is not None and not sol.converged
    assert sol.iterations == 2
    assert len(sol.residual_history) == 2


def test_rhs_slab_is_x1_independent(slab_problem):
    problem, table = slab_problem
    rhs = assemble_rhs(problem, table)
    off_axis = rhs.coeffs[1:, :]
    assert np.abs(off_axis).max() < 1e-12 * np.abs(rhs.coeffs).max()


def test_residual_recomputation(slab_problem):
    problem, table = slab_problem
    opts = SolveOptions(rel_tol=1e-9)
    sol = solve(problem, table, opts)
    assert sol.iterations < 200
    true_res = residual(problem, table, sol.u)
    assert true_res <= 1.1 * opts.rel_tol
    # Krylov estimate and recomputed residual agree within a factor 10
    assert sol.residual_history[-1] <= 10 * max(true_res, 1e-16)
    assert true_res <= 10 * max(sol.residual_history[-1], 1e-16)
    # zero iterate has unit relative residual
    zero = sol.u.replace(np.zeros_like(sol.u.coeffs))
    assert abs(residual(problem, table, zero) - 1.0) < 1e-14
    # perturbing one coefficient raises the residual
    bumped = sol.u.coeffs.copy()
    bumped[0, 3] += 1e-3
    assert residual(problem, table, sol.u.replace(bumped)) > 10 * true_res


def test_monotone_history_across_restarts(slab_problem):
    problem, table = slab_problem
    sol = solve(problem, table, SolveOptions(rel_tol=1e-10, restart=3))
    hist = sol.residual_history
    assert all(hist[i + 1] <= hist[i] + 1e-13 for i in range(len(hist) - 1))


def test_spectral_self_convergence_smooth_contrast():
    wave = IncidentWave.from_angle(SLAB_K, 0.0)
    contrast = smooth_isotropic_contrast(2.0, SLAB_H)
    solutions = {}
    for n2 in (256, 512):
        grid = Grid(n1=32, n2=n2, rho_box=2.5 * SLAB_H)
        problem = build_problem(wave, contrast, grid)
        table = kernel_table(grid, wave)
        solutions[n2] = solve(problem, table, SolveOptions(rel_tol=1e-12)).u
    coarse = Grid(n1=32, n2=256, rho_box=2.5 * SLAB_H)
    c1 = solutions[256].coeffs
    c2 = solutions[512].coeffs[np.ix_(coarse.j1_modes() % 32,
                                      coarse.j2_modes() % 512)]
    assert np.linalg.norm(c1 - c2) / np.linalg.norm(c2) < 1e-6


# ----------------------------------------------------------------------------
# layered (x1-invariant) contrasts


def _raster(path, vary_rows):
    cells = np.zeros((8, 32, 2, 2), dtype=complex)
    cells[:, 12:20] = ANISO
    if vary_rows:
        cells[3, 14] = 0.5 * np.eye(2)
    write_raster(path, cells, h=0.5, rho=1.1)
    return raster_contrast(path)


@pytest.mark.parametrize("kind, layered", [
    ("slab", True), ("two_layer", True), ("raster", True),
    ("circle", False), ("rectangle", False), ("raster-varying", False),
])
def test_layered_detection(tmp_path, kind, layered):
    contrast = {
        "slab": lambda: slab_contrast(3.0, 1.0),
        "two_layer": lambda: two_layer_contrast(ANISO, -2.0, 0.4, 0.6),
        "raster": lambda: _raster(tmp_path / "r.bin", False),
        "circle": lambda: circle_contrast(3.0, 0.4),
        "rectangle": lambda: rectangle_contrast(3.0, 2.0, 1.0),
        "raster-varying": lambda: _raster(tmp_path / "r.bin", True),
    }[kind]()
    grid = Grid(n1=16, n2=64, rho_box=1.1)
    wave = IncidentWave.from_angle(0.8, 25.0)
    problem = build_problem(wave, contrast, grid)
    disc = Discretization(problem, kernel_table(grid, wave))
    assert (problem.layout.n_rows == 1) is layered
    assert disc.n_rows == (1 if layered else 16)
    with pytest.raises(ShapeMismatch):
        disc.apply(np.zeros((2 if layered else 1, 64), dtype=complex))


def test_x1_invariant_raster_is_detected_by_its_rows(tmp_path):
    # a raster declares no x1-invariance: it is sampled on the full mesh
    contrast = _raster(tmp_path / "r.bin", False)
    assert not contrast.x1_invariant
    grid = Grid(n1=16, n2=64, rho_box=1.1)
    shapes = []

    def sampler(x1, x2):
        shapes.append(np.broadcast_shapes(np.shape(x1), np.shape(x2)))
        return contrast.sampler(x1, x2)

    problem = build_problem(IncidentWave.from_angle(0.8, 25.0),
                            dataclasses.replace(contrast, sampler=sampler),
                            grid)
    assert shapes == [(16, 64)]
    assert problem.layout.n_rows == 1
    assert problem.layout.samples.shape == (1, 64, 2, 2)


def test_warm_layered_point_allocates_no_full_grid_but_the_field():
    grid = Grid(n1=256, n2=256, rho_box=1.1)
    problem = build_problem(IncidentWave.from_angle(0.8, 25.0),
                            slab_contrast(3.0, 1.0), grid)

    def point():
        table = kernel_table(grid, problem.wave, problem.layout.n_rows)
        sol = solve(problem, table)
        above, below = rayleigh_both_sides(sol, problem, table)
        return efficiencies(above, below, problem)

    point()                                     # warm-up
    tracemalloc.start()
    try:
        point()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Solution.u, one complex (N1, N2) array, is built only when read
    assert peak < 0.5 * grid.n1 * grid.n2 * 16


@pytest.mark.parametrize("contrast", [
    slab_contrast(3.0 - 0.5j, 1.0),
    two_layer_contrast(ANISO, -2.0, 0.4, 0.6),
], ids=["lossy-slab", "anisotropic-two-layer"])
def test_layered_residual_matches_2d_operator(contrast):
    grid = Grid(n1=16, n2=64, rho_box=1.1)
    wave = IncidentWave.from_angle(0.8, 25.0)
    problem = build_problem(wave, contrast, grid)
    table = kernel_table(grid, wave)
    rhs = reference_rhs(problem, table)
    rng = np.random.default_rng(5)
    full = rng.standard_normal((16, 64)) + 1j * rng.standard_normal((16, 64))
    row = np.zeros_like(full)
    row[0] = full[0]
    for coeffs in (full, row):
        u = SpectralField(coeffs, grid, problem.alpha)
        au = coeffs - contrast_gradient_potential(u, problem, table).coeffs
        expected = np.linalg.norm(au - rhs) / np.linalg.norm(rhs)
        assert abs(residual(problem, table, u) - expected) <= 1e-13 * expected


def test_layered_solve_runs_one_row(caplog):
    caplog.set_level(logging.DEBUG, logger="vigrating")
    wave = IncidentWave.from_angle(0.8, 25.0)
    grid = Grid(n1=16, n2=64, rho_box=1.1)
    for contrast, rows in ((slab_contrast(3.0, 1.0), 1),
                           (circle_contrast(3.0, 0.4), 16)):
        caplog.clear()
        problem = build_problem(wave, contrast, grid)
        sol = solve(problem, kernel_table(grid, wave))
        assert sol.u.coeffs.shape == (16, 64)
        assert not sol.u.coeffs[rows:].any()
        # the zero iterate costs no matvec, and one cycle converges
        assert (f"solved {rows} of 16 coefficient rows: {sol.iterations} "
                f"iterations, {sol.iterations} matvecs") in caplog.text


def test_layered_zero_contrast_gives_exact_zero():
    wave = IncidentWave.from_angle(0.8, 25.0)
    grid = Grid(n1=16, n2=64, rho_box=1.1)
    problem = build_problem(wave, slab_contrast(0.0, 1.0), grid)
    table = kernel_table(grid, wave)
    sol = solve(problem, table)
    assert problem.layout.n_rows == 1
    assert sol.converged and sol.iterations == 0
    assert sol.u.coeffs.shape == (16, 64) and not sol.u.coeffs.any()
    assert residual(problem, table, sol.u) == 0.0


def test_layered_one_row_table_matches_full_table():
    wave = IncidentWave.from_angle(0.8, 25.0)
    grid = Grid(n1=16, n2=64, rho_box=1.1)
    problem = build_problem(wave, two_layer_contrast(ANISO, -2.0, 0.4, 0.6),
                            grid)
    full, row = kernel_table(grid, wave), kernel_table(grid, wave, 1)
    sol_full, sol_row = solve(problem, full), solve(problem, row)
    assert np.array_equal(sol_row.u.coeffs, sol_full.u.coeffs)
    assert sol_row.residual_history == sol_full.residual_history
    assert residual(problem, row, sol_row.u) == residual(problem, full,
                                                         sol_full.u)
    c = np.random.default_rng(2).standard_normal((1, 64)) + 0j
    assert np.array_equal(Discretization(problem, row).apply(c),
                          Discretization(problem, full).apply(c))


def test_full_rows_need_the_full_table():
    wave = IncidentWave.from_angle(0.8, 25.0)
    grid = Grid(n1=16, n2=64, rho_box=1.1)
    problem = build_problem(wave, slab_contrast(3.0, 1.0), grid)
    table = kernel_table(grid, wave, 1)
    disc = Discretization(problem, table)
    full = np.ones((16, 64), dtype=complex)
    message = ("an array of all 16 coefficient rows needs the full kernel "
               "table; this one holds 1 row")
    with pytest.raises(ShapeMismatch, match=message):
        disc.apply(full)
    with pytest.raises(ShapeMismatch, match=message):
        residual(problem, table, SpectralField(full, grid, problem.alpha))
    # a contrast that couples every row has no use for a one-row table
    circle = build_problem(wave, circle_contrast(3.0, 0.4), grid)
    with pytest.raises(ShapeMismatch, match="expected 16 rows of 64"):
        Discretization(circle, table)


@pytest.mark.parametrize("other", [
    IncidentWave.from_angle(0.9, 25.0), IncidentWave.from_angle(0.8, 20.0),
], ids=["other-k", "other-alpha"])
def test_table_of_another_wave_is_rejected(other):
    wave = IncidentWave.from_angle(0.8, 25.0)
    grid = Grid(n1=16, n2=64, rho_box=1.1)
    problem = build_problem(wave, slab_contrast(3.0, 1.0), grid)
    message = (f"built for the wave k = {other.k}, alpha = {other.alpha}; "
               f"the problem has k = {wave.k}, alpha = {wave.alpha}")
    for rows in (1, None):
        with pytest.raises(ShapeMismatch, match=message):
            solve(problem, kernel_table(grid, other, rows))


def test_memory_estimate_counts_basis_and_work_rows(monkeypatch):
    wave = IncidentWave.from_angle(0.8, 25.0)
    grid = Grid(n1=16, n2=64, rho_box=1.1)
    problem = build_problem(wave, circle_contrast(3.0, 0.4), grid)
    opts = SolveOptions(restart=1000, max_iterations=40)
    need = (40 + 1 + 2) * 16 * 64 * 16
    monkeypatch.setattr(vigrating.solver, "physical_memory_bytes",
                        lambda: need)
    check_memory(problem, opts)
    monkeypatch.setattr(vigrating.solver, "physical_memory_bytes",
                        lambda: need - 1)
    with pytest.raises(SizeGuard, match=f"about {need} bytes"):
        solve(problem, kernel_table(grid, wave), opts)
    monkeypatch.setattr(vigrating.solver, "physical_memory_bytes",
                        lambda: None)
    check_memory(problem, opts)


def test_physical_memory_is_read_from_sysconf():
    memory = vigrating.solver.physical_memory_bytes()
    assert memory is None or memory > 0
