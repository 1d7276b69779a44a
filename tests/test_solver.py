import dataclasses
import gc
import logging
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import vigrating.solver
from vigrating.config import load_config
from vigrating.errors import (
    BreakdownDetected,
    NotConverged,
    ShapeMismatch,
    SizeGuard,
)
from vigrating.kernel import kernel_table
from vigrating.operators import (
    OperatorStack,
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
    Solution,
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


def _field(u, problem, table) -> Solution:
    """The Solution made from the field ``u``, on ``problem`` and the kernel
    table ``table``."""
    return Solution(u, converged=True, problem=problem, table=table)


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
    problem, _ = slab_problem
    sol = solve(problem, SolveOptions(rel_tol=1e-10, restart=3))
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


@pytest.mark.parametrize("budget", [500, 468])
def test_multi_cycle_negative_contrast_still_converges(budget, caplog):
    # a lossy q = -3.5 - 0.2i circle needs ten GMRES(50) cycles, 468
    # iterations.  That budget is tight: at the fifth cycle start only the
    # best restarted cycle's rate, not the latest one, projects convergence
    caplog.set_level(logging.DEBUG, logger="vigrating.solver")
    period = 2 * np.pi
    wave = IncidentWave.from_angle(2.0 / period, 25.0)
    contrast = circle_contrast(-3.5 - 0.2j, 0.08 * period)
    grid = Grid(n1=64, n2=64, rho_box=2 * contrast.h)
    problem = build_problem(wave, contrast, grid)
    sol = solve(problem, SolveOptions(rel_tol=1e-10, max_iterations=budget))
    assert sol.converged and sol.iterations > 9 * 50
    assert residual(sol) <= 2e-10
    # the cycle starts of the stop rule, from the arguments of its log lines
    reductions, best_only = [], []
    for record in caplog.records:
        if record.getMessage().startswith("GMRES(50) cycle"):
            _, _, iterations, rho, reduction = record.args
            reductions.append(reduction)
            if len(reductions) > 1:
                left = (budget - iterations) / 50
                best = rho * min(reductions[1:]) ** left
                best_only.append(best <= 1e-10 < rho * reduction ** left)
    assert any(best_only) is (budget == 468)


def test_solve_zero_contrast_is_immediate():
    wave = IncidentWave(k=0.5, d=(0.0, -1.0))
    problem = build_problem(wave, slab_contrast(0.0, 1.0),
                            Grid(n1=8, n2=16, rho_box=1.0))
    sol = solve(problem)
    assert sol.converged and sol.iterations == 0
    assert sol.u.norm() == 0.0


def test_solve_not_converged_carries_best_iterate(slab_problem):
    problem, _ = slab_problem
    with pytest.raises(NotConverged) as err:
        solve(problem, SolveOptions(rel_tol=1e-13, max_iterations=2))
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
    sol = solve(problem, opts)
    assert sol.iterations < 200
    true_res = residual(sol)
    assert true_res <= 1.1 * opts.rel_tol
    # Krylov estimate and recomputed residual agree within a factor 10
    assert sol.residual_history[-1] <= 10 * max(true_res, 1e-16)
    assert true_res <= 10 * max(sol.residual_history[-1], 1e-16)
    # zero iterate has unit relative residual
    zero = sol.u.replace(np.zeros_like(sol.u.coeffs))
    assert abs(residual(_field(zero, problem, table)) - 1.0) < 1e-14
    # perturbing one coefficient raises the residual
    bumped = sol.u.coeffs.copy()
    bumped[0, 3] += 1e-3
    assert residual(_field(sol.u.replace(bumped), problem, table)) > (
        10 * true_res)


def test_monotone_history_across_restarts(slab_problem):
    problem, _ = slab_problem
    sol = solve(problem, SolveOptions(rel_tol=1e-10, restart=3))
    hist = sol.residual_history
    assert all(hist[i + 1] <= hist[i] + 1e-13 for i in range(len(hist) - 1))


def test_spectral_self_convergence_smooth_contrast():
    wave = IncidentWave.from_angle(SLAB_K, 0.0)
    contrast = smooth_isotropic_contrast(2.0, SLAB_H)
    solutions = {}
    for n2 in (256, 512):
        grid = Grid(n1=32, n2=n2, rho_box=2.5 * SLAB_H)
        problem = build_problem(wave, contrast, grid)
        solutions[n2] = solve(problem, SolveOptions(rel_tol=1e-12)).u
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
    table = kernel_table(grid, wave)
    assert (problem.layout.n_rows == 1) is layered
    assert OperatorStack([problem], [table]).rows == (1 if layered else 16)
    with pytest.raises(ShapeMismatch):
        OperatorStack([problem], [table], 2 if layered else 1)


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
        sol = solve(problem)
        above, below = rayleigh_both_sides(sol)
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
        assert abs(residual(_field(u, problem, table)) - expected) <= (
            1e-13 * expected)


def test_layered_solve_runs_one_row(caplog):
    caplog.set_level(logging.DEBUG, logger="vigrating")
    wave = IncidentWave.from_angle(0.8, 25.0)
    grid = Grid(n1=16, n2=64, rho_box=1.1)
    for contrast, rows in ((slab_contrast(3.0, 1.0), 1),
                           (circle_contrast(3.0, 0.4), 16)):
        caplog.clear()
        problem = build_problem(wave, contrast, grid)
        sol = solve(problem)
        assert sol.u.coeffs.shape == (16, 64)
        assert not sol.u.coeffs[rows:].any()
        # the zero iterate costs no matvec, and one cycle converges
        assert (f"solved {rows} of 16 coefficient rows: {sol.iterations} "
                f"iterations, {sol.iterations} matvecs") in caplog.text


def test_layered_zero_contrast_gives_exact_zero():
    wave = IncidentWave.from_angle(0.8, 25.0)
    grid = Grid(n1=16, n2=64, rho_box=1.1)
    problem = build_problem(wave, slab_contrast(0.0, 1.0), grid)
    sol = solve(problem)
    assert problem.layout.n_rows == 1
    assert sol.converged and sol.iterations == 0
    assert sol.u.coeffs.shape == (16, 64) and not sol.u.coeffs.any()
    assert residual(sol) == 0.0


def test_layered_one_row_table_matches_full_table():
    wave = IncidentWave.from_angle(0.8, 25.0)
    grid = Grid(n1=16, n2=64, rho_box=1.1)
    problem = build_problem(wave, two_layer_contrast(ANISO, -2.0, 0.4, 0.6),
                            grid)
    full, row = kernel_table(grid, wave), kernel_table(grid, wave, 1)
    # the solve, on its one-row table, against GMRES on the full table
    sol_row = solve(problem)
    stack = OperatorStack([problem], [full])
    x, history, converged, iterations, _ = gmres(
        lambda v: stack.apply([v]).reshape(-1), stack.rhs[0])
    sol_full = Solution(density=x, residual_history=tuple(history),
                        converged=converged, iterations=iterations,
                        problem=problem, table=full, stack=stack)
    assert np.array_equal(sol_row.u.coeffs, sol_full.u.coeffs)
    assert sol_row.residual_history == sol_full.residual_history
    assert residual(_field(sol_row.u, problem, row)) == residual(
        _field(sol_full.u, problem, full))
    c = np.random.default_rng(2).standard_normal((1, 1, 64)) + 0j
    assert np.array_equal(OperatorStack([problem], [row]).apply_field(c),
                          OperatorStack([problem], [full]).apply_field(c))


def test_full_rows_need_the_full_table():
    wave = IncidentWave.from_angle(0.8, 25.0)
    grid = Grid(n1=16, n2=64, rho_box=1.1)
    problem = build_problem(wave, slab_contrast(3.0, 1.0), grid)
    table = kernel_table(grid, wave, 1)
    full = np.ones((16, 64), dtype=complex)
    message = ("an array of all 16 coefficient rows needs the full kernel "
               "table; this one holds 1 row")
    with pytest.raises(ShapeMismatch, match=message):
        OperatorStack([problem], [table], 16)
    with pytest.raises(ShapeMismatch, match=message):
        residual(_field(SpectralField(full, grid, problem.alpha), problem,
                        table))
    # a contrast that couples every row has no use for a one-row table
    circle = build_problem(wave, circle_contrast(3.0, 0.4), grid)
    with pytest.raises(ShapeMismatch, match="expected 16 rows of 64"):
        OperatorStack([circle], [table])


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
            OperatorStack([problem], [kernel_table(grid, other, rows)])


@pytest.mark.parametrize("rel_tol", [float("inf"), float("nan"),
                                     float("-inf")])
def test_options_reject_a_non_finite_rel_tol(rel_tol):
    # inf would mark a zero density converged, nan would never stop
    with pytest.raises(ValueError, match="rel_tol must be positive and "
                                         "finite"):
        SolveOptions(rel_tol=rel_tol)


@pytest.mark.parametrize("field, value", [
    ("restart", 2.5), ("restart", float("nan")),
    ("max_iterations", 10.5), ("max_iterations", float("nan")),
])
def test_options_reject_a_non_integer_count(field, value):
    # a float would end the solve in a TypeError, max_iterations=nan in an
    # IndexError
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SolveOptions(**{field: value})


def test_memory_estimate_counts_basis_and_work_rows(monkeypatch):
    wave = IncidentWave.from_angle(0.8, 25.0)
    grid = Grid(n1=16, n2=64, rho_box=1.1)
    problem = build_problem(wave, circle_contrast(3.0, 0.4), grid)
    opts = SolveOptions(restart=1000, max_iterations=40)
    # 40 + 1 Krylov vectors of two density components at each support
    # node, the (2, 16, 64) work buffer, and the DFT matrices of the
    # support box of 3 x1 rows and 23 x2 columns: the forward and inverse
    # x2 pairs, (2, 23, 64) and (2, 64, 23), and the x1 matrices (16, 6)
    # and (6, 16)
    nodes = len(problem.layout.nodes)
    assert 0 < nodes < 16 * 64
    assert len(np.unique(problem.layout.nodes // 64)) == 3
    assert len(problem.layout.support) == 23
    need = ((40 + 1) * 2 * nodes + 2 * 16 * 64
            + 2 * 2 * 23 * 64 + 2 * 16 * 6) * 16
    monkeypatch.setattr(vigrating.solver, "physical_memory_bytes",
                        lambda: need)
    check_memory(problem, opts)
    monkeypatch.setattr(vigrating.solver, "physical_memory_bytes",
                        lambda: need - 1)
    with pytest.raises(SizeGuard, match=f"about {need} bytes .41 Krylov "
                       f"vectors of {2 * nodes} density unknowns"):
        solve(problem, opts)
    monkeypatch.setattr(vigrating.solver, "physical_memory_bytes",
                        lambda: None)
    check_memory(problem, opts)


def test_physical_memory_is_read_from_sysconf():
    memory = vigrating.solver.physical_memory_bytes()
    assert memory is None or memory > 0


# ----------------------------------------------------------------------------
# the density unknown


CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# a q = -5 circle covering 641 of the 64 x 64 nodes, solved by GMRES(1000)
NEG_CIRCLE = """
[problem]
k = 1.0
theta_deg = 10.0
shape = circle
radius = 0.2
q_re = -5.0

[numerics]
n1 = 64
n2 = 64
rel_tol = 1e-10
restart = 1000

[output]
directory = out
"""


def _neg_circle(tmp_path):
    path = tmp_path / "neg_circle.ini"
    path.write_text(NEG_CIRCLE, encoding="utf-8")
    return load_config(path)


def test_memory_estimate_of_the_negative_circle(tmp_path, monkeypatch):
    cfg = _neg_circle(tmp_path)
    problem = cfg.build()
    assert len(problem.layout.nodes) == 641
    # min(1000, 500) + 1 vectors of 1,282 unknowns, the (2, 64, 64)
    # buffer, and the DFT matrices of the 25 x 33 support box: two x2
    # pairs of 2 x 33 x 64 entries and two x1 matrices of 64 x 50
    assert check_memory(problem, cfg.options()) == (
        10_276_512 + 131_072 + 237_568) == 10_645_152
    monkeypatch.setattr(vigrating.solver, "physical_memory_bytes",
                        lambda: 10_645_151)
    with pytest.raises(SizeGuard, match="501 Krylov vectors of 1282 density "
                                        "unknowns and the work buffer"):
        check_memory(problem, cfg.options())


@pytest.mark.parametrize("name", ["slab_q3", "slab_negative", "slab_lossy",
                                  "circle_anisotropic", "neg-circle"])
def test_field_residual_is_within_rel_tol(tmp_path, name):
    # rel_tol bounds the density residual GMRES sees; the field residual
    # recomputed with the field operator lands below it too
    cfg = (_neg_circle(tmp_path) if name == "neg-circle"
           else load_config(CONFIGS / f"{name}.ini"))
    problem = cfg.build()
    sol = solve(problem, cfg.options())
    assert sol.converged
    assert residual(sol) <= cfg.options().rel_tol


@pytest.mark.parametrize("shape", ["slab", "circle"])
def test_krylov_vectors_hold_the_support_density(tmp_path, monkeypatch,
                                                 shape):
    if shape == "circle":
        problem = _neg_circle(tmp_path).build()
    else:
        problem = build_problem(IncidentWave.from_angle(0.8, 25.0),
                                slab_contrast(3.0, 1.0),
                                Grid(n1=16, n2=64, rho_box=1.1))
    sizes = []
    gmres = vigrating.solver.gmres

    def counted(matvec, b, **options):
        def counting(v):
            product = matvec(v)
            sizes.append((v.size, product.size))
            return product
        sizes.append((b.size, b.size))
        return gmres(counting, b, **options)

    monkeypatch.setattr(vigrating.solver, "gmres", counted)
    sol = solve(problem, SolveOptions(restart=1000, rel_tol=1e-10))
    unknowns = 2 * len(problem.layout.nodes)
    assert unknowns == (1282 if shape == "circle" else
                        2 * len(problem.layout.support))
    assert len(sizes) == sol.iterations + 1
    assert set(sizes) == {(unknowns, unknowns)}
    assert sol.density.shape == (unknowns,)


@pytest.mark.parametrize("contrast", [slab_contrast(0.0, 1.0),
                                      circle_contrast(0.0, 0.4)],
                         ids=["slab", "circle"])
def test_empty_support_gives_an_exactly_zero_field(contrast):
    wave = IncidentWave.from_angle(0.8, 25.0)
    grid = Grid(n1=16, n2=64, rho_box=1.1)
    problem = build_problem(wave, contrast, grid)
    assert len(problem.layout.nodes) == 0
    sol = solve(problem)
    assert sol.converged and sol.iterations == 0
    assert sol.density.shape == (0,)
    assert sol.u.norm() == 0.0 and not sol.u.coeffs.any()
    above, below = rayleigh_both_sides(sol)
    assert not any(above.coefficients.values())
    assert not any(below.coefficients.values())


def test_a_solve_is_freed_without_the_cycle_collector():
    # a Solution keeps the stack it was solved on, so the stack must not
    # refer back to it: a cycle would keep the arrays of every solve alive
    # until the cycle collector runs
    problem = build_problem(IncidentWave.from_angle(0.8, 25.0),
                            circle_contrast(3.0, 0.4),
                            Grid(n1=16, n2=64, rho_box=1.1))
    gc.disable()
    try:
        sol = solve(problem)
        assert sol.rows is not None and residual(sol) < 1e-8
        rayleigh_both_sides(sol)
        freed = weakref.ref(sol.stack)
        del sol
        assert freed() is None
    finally:
        gc.enable()
