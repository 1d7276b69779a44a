import csv
import io
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from vigrating.cli import _csv, _json
from vigrating.errors import NotConverged, ShapeMismatch, Unphysical
from vigrating.kernel import _beta_many, kernel_table
from vigrating.operators import (
    OperatorStack,
    VectorSpectralField,
    div_potential,
    grad_spectral,
    to_physical,
    to_spectral,
)
from vigrating.postprocess import (
    EFFICIENCY_COLUMNS,
    EVANESCENT_DROP,
    EfficiencyTable,
    RayleighData,
    check_physics,
    efficiencies,
    efficiency_doc,
    efficiency_rows,
    energy_balance,
    rayleigh_both_sides,
    rayleigh_coefficients,
    rayleigh_line_integral,
    scattered_field_at,
)
from vigrating.oracle import SlabSpec, slab_reference
from vigrating.problem import (
    Grid,
    IncidentWave,
    build_problem,
    circle_contrast,
    incident_field,
    rectangle_contrast,
    slab_contrast,
    two_layer_contrast,
)
from vigrating.solver import SolveOptions, Solution, gmres, solve

from conftest import (
    ANISO,
    SLAB_H,
    SLAB_K,
    smooth_isotropic_contrast,
)


def _solve_slab(q, n1, n2, ratio, rel_tol=1e-10, rho_ref=None):
    wave = IncidentWave.from_angle(SLAB_K, 0.0)
    contrast = slab_contrast(q, 2 * SLAB_H)
    grid = Grid(n1=n1, n2=n2, rho_box=ratio * SLAB_H)
    problem = build_problem(wave, contrast, grid, rho_ref=rho_ref)
    table = kernel_table(grid, wave)
    solution = solve(problem, table, SolveOptions(rel_tol=rel_tol))
    return problem, table, solution


def test_zero_contrast_no_scattering():
    problem, table, sol = _solve_slab(0.0, 8, 64, 2.5)
    above = rayleigh_coefficients(sol, problem, table, "+")
    below = rayleigh_coefficients(sol, problem, table, "-")
    assert all(v == 0 for v in above.coefficients.values())
    assert all(v == 0 for v in below.coefficients.values())
    eff = efficiencies(above, below, problem)
    assert abs(eff.transmitted[eff.orders.index(0)] - 1.0) < 1e-14
    assert eff.total_reflected < 1e-14
    assert energy_balance(eff, problem) < 1e-14
    pts = np.array([[0.3, 0.2], [0.0, 5.0], [1.0, -4.0]])
    field = scattered_field_at(sol, problem, table, pts,
                               rayleigh_above=above, rayleigh_below=below)
    assert np.all(field == 0)


def test_slab_coefficients_concentrate_at_order_zero():
    problem, table, sol = _solve_slab(3.0, 16, 256, 2.56)
    above = rayleigh_coefficients(sol, problem, table, "+")
    scale = abs(above.order(0))
    for j, val in above.coefficients.items():
        if j != 0:
            assert abs(val) < 1e-10 * scale


def test_rayleigh_rejects_a_table_of_another_wave():
    problem, table, sol = _solve_slab(3.0, 8, 64, 2.5)
    other = kernel_table(problem.grid, IncidentWave.from_angle(SLAB_K, 10.0))
    with pytest.raises(ShapeMismatch, match="built for the wave"):
        rayleigh_both_sides(sol, problem, other)


def test_scattered_field_extracts_the_density_once(monkeypatch):
    problem, table, sol = _solve_slab(3.0, 8, 64, 2.5)
    calls = []
    density_rows = OperatorStack.density_rows

    def counted(self, c):
        calls.append(1)
        return density_rows(self, c)

    monkeypatch.setattr(OperatorStack, "density_rows", counted)
    pts = np.array([[0.3, 0.2], [0.0, 5.0], [1.0, -4.0]])
    given = rayleigh_both_sides(sol, problem, table)
    expected = scattered_field_at(sol, problem, table, pts, *given)
    calls.clear()
    for above, below in ((None, None), (given[0], None), (None, given[1])):
        field = scattered_field_at(sol, problem, table, pts,
                                   rayleigh_above=above, rayleigh_below=below)
        assert np.array_equal(field, expected)
        assert len(calls) == 1
        calls.clear()


def test_rayleigh_requires_converged_solution(slab_problem):
    problem, table = slab_problem
    fake = Solution(
        u=None, residual_history=(), converged=False, iterations=0
    )
    with pytest.raises(NotConverged):
        rayleigh_coefficients(fake, problem, table, "+")


def test_propagating_set_single_order():
    problem, table, sol = _solve_slab(3.0, 16, 128, 2.5)
    above = rayleigh_coefficients(sol, problem, table, "+")
    assert above.propagating == (0,)
    eff = efficiencies(above,
                       rayleigh_coefficients(sol, problem, table, "-"),
                       problem)
    assert eff.orders == (0,)


def test_evanescent_drop_threshold():
    # need orders with Im(beta_j) * rho_ref > 40: |j| >= 12 at this geometry
    problem, table, sol = _solve_slab(3.0, 32, 256, 2.56)
    above = rayleigh_coefficients(sol, problem, table, "+")
    assert len(above.truncated) > 0
    for j in above.truncated:
        assert above.order(j) == 0.0
        b = np.sqrt(complex(SLAB_K**2 - j**2))
        assert b.imag * problem.rho_ref > 40


def test_route_agreement_moderate_grid():
    # measured 6e-7 at this size; the acceptance gate drives it to 1e-8
    problem, table, sol = _solve_slab(3.0, 16, 2048, 2.56, rel_tol=1e-12)
    for side in "+-":
        data = rayleigh_coefficients(sol, problem, table, side)
        line = rayleigh_line_integral(sol, problem, side, data.propagating)
        for j in data.propagating:
            rel = abs(line[j] - data.order(j)) / abs(data.order(j))
            assert rel < 5e-6


def test_field_continuity_across_reference_line():
    problem, table, sol = _solve_slab(3.0, 16, 2048, 2.56, rel_tol=1e-12)
    above = rayleigh_coefficients(sol, problem, table, "+")
    below = rayleigh_coefficients(sol, problem, table, "-")
    x1s = np.linspace(-3.0, 3.0, 7)
    inner = np.stack([x1s, np.full(7, problem.rho_ref - 1e-12)], axis=1)
    outer = np.stack([x1s, np.full(7, problem.rho_ref + 1e-12)], axis=1)
    f_in = scattered_field_at(sol, problem, table, inner,
                              rayleigh_above=above, rayleigh_below=below)
    f_out = scattered_field_at(sol, problem, table, outer,
                               rayleigh_above=above, rayleigh_below=below)
    scale = np.abs(f_in).max()
    assert np.abs(f_in - f_out).max() < 1e-6 * scale


def test_far_field_is_propagating_only():
    problem, table, sol = _solve_slab(3.0, 16, 512, 2.56)
    above = rayleigh_coefficients(sol, problem, table, "+")
    below = rayleigh_coefficients(sol, problem, table, "-")
    x1s = np.linspace(-2.0, 2.0, 5)
    far = np.stack([x1s, np.full(5, problem.rho_ref + 10.0)], axis=1)
    vals = scattered_field_at(sol, problem, table, far,
                              rayleigh_above=above, rayleigh_below=below)
    manual = above.order(0) * np.exp(
        1j * SLAB_K * (far[:, 1] - problem.rho_ref)
    )
    assert np.abs(vals - manual).max() < 1e-12 * np.abs(manual).max()


def test_efficiencies_match_transfer_matrix_small_grid():
    problem, table, sol = _solve_slab(3.0, 16, 256, 2.56)
    above = rayleigh_coefficients(sol, problem, table, "+")
    below = rayleigh_coefficients(sol, problem, table, "-")
    eff = efficiencies(above, below, problem)
    ref = slab_reference(SlabSpec(q=3.0, a=-SLAB_H, b=SLAB_H, k=SLAB_K),
                         rho_ref=problem.rho_ref)
    assert abs(eff.reflected[0] - ref.reflectance) < 2e-3
    assert abs(eff.transmitted[0] - ref.transmittance) < 2e-3
    # amplitude-level agreement including phases
    assert abs(above.order(0) - ref.r) < 5e-3
    t_total = below.order(0) + np.exp(1j * SLAB_K * problem.rho_ref)
    assert abs(t_total - ref.t) < 5e-3


def test_reciprocity_symmetric_grating():
    # x1-symmetric grating at normal incidence: e_j = e_{-j}; exact mirror
    # symmetry is broken only by the unpaired Nyquist column, so the match
    # is at truncation level rather than rounding
    k = 15 / (2 * np.pi)
    wave = IncidentWave.from_angle(k, 0.0)
    contrast = rectangle_contrast(2.0, width=np.pi, height=1.0)
    grid = Grid(n1=64, n2=64, rho_box=1.2)
    problem = build_problem(wave, contrast, grid)
    table = kernel_table(grid, wave)
    sol = solve(problem, table, SolveOptions(rel_tol=1e-11))
    above = rayleigh_coefficients(sol, problem, table, "+")
    below = rayleigh_coefficients(sol, problem, table, "-")
    eff = efficiencies(above, below, problem)
    assert set(eff.orders) == {-2, -1, 0, 1, 2}
    for j in (1, 2):
        i_p, i_m = eff.orders.index(j), eff.orders.index(-j)
        assert abs(eff.reflected[i_p] - eff.reflected[i_m]) < 1e-5
        assert abs(eff.transmitted[i_p] - eff.transmitted[i_m]) < 1e-5


def test_energy_defect_decreases_under_refinement():
    wave = IncidentWave.from_angle(SLAB_K, 0.0)
    contrast = smooth_isotropic_contrast(2.0, SLAB_H)
    defects = []
    for n2 in (64, 128):
        grid = Grid(n1=16, n2=n2, rho_box=2.5 * SLAB_H)
        problem = build_problem(wave, contrast, grid)
        table = kernel_table(grid, wave)
        sol = solve(problem, table, SolveOptions(rel_tol=1e-12))
        above = rayleigh_coefficients(sol, problem, table, "+")
        below = rayleigh_coefficients(sol, problem, table, "-")
        defects.append(energy_balance(efficiencies(above, below, problem),
                                      problem))
    assert defects[1] < defects[0]


def test_lossy_and_active_media():
    problem, table, sol = _solve_slab(3.0 - 0.5j, 16, 256, 2.56)
    above = rayleigh_coefficients(sol, problem, table, "+")
    below = rayleigh_coefficients(sol, problem, table, "-")
    eff = efficiencies(above, below, problem)
    absorbed = energy_balance(eff, problem)
    assert absorbed > 0.01
    # the opposite imaginary sign is an active medium: rejected
    problem2, table2, sol2 = _solve_slab(3.0 + 0.5j, 16, 256, 2.56)
    above2 = rayleigh_coefficients(sol2, problem2, table2, "+")
    below2 = rayleigh_coefficients(sol2, problem2, table2, "-")
    eff2 = efficiencies(above2, below2, problem2)
    assert energy_balance(eff2, problem2) == eff2.absorbed < -1e-2
    with pytest.raises(Unphysical, match="the medium gains energy"):
        check_physics(eff2, problem2)


def _efficiency_table(reflected, transmitted) -> EfficiencyTable:
    n = len(reflected)
    return EfficiencyTable(orders=tuple(range(n)), alphas=(0.0,) * n,
                           betas=(1.0 + 0j,) * n, reflected=reflected,
                           transmitted=transmitted)


# check_physics reads only whether the problem is lossless
LOSSLESS = SimpleNamespace(is_lossless=lambda: True)
LOSSY = SimpleNamespace(is_lossless=lambda: False)


@pytest.mark.parametrize("reflected, transmitted, problem, cause", [
    ((1.05,), (0.0,), LOSSY,
     "the reflected efficiency of order j=0 is 1.05, above 1 + 0.01"),
    # named before the energy defect it also makes
    ((0.0,), (1.02,), LOSSLESS,
     "the transmitted efficiency of order j=0 is 1.02, above 1 + 0.01"),
    ((float("nan"),), (0.5,), LOSSY,
     "the reflected efficiency of order j=0 is nan, above 1 + 0.01"),
    ((0.5,), (0.45,), LOSSLESS,
     "the energy defect 5.000e-02 of a lossless grating is above 0.01"),
    ((0.6,), (0.45,), LOSSY,
     "the absorbed fraction -5.000e-02 is below -0.01, so the medium gains "
     "energy"),
], ids=["reflected-above-1", "transmitted-above-1", "nan", "lossless-defect",
        "active"])
def test_check_physics_names_the_rule_a_table_breaks(reflected, transmitted,
                                                     problem, cause):
    with pytest.raises(Unphysical,
                       match=re.escape(f"unphysical answer: {cause}")):
        check_physics(_efficiency_table(reflected, transmitted), problem)


@pytest.mark.parametrize("reflected, transmitted, problem", [
    ((0.5,), (0.495,), LOSSLESS),           # defect 5e-3
    ((0.5,), (0.505,), LOSSLESS),
    ((0.6,), (0.405,), LOSSY),              # absorbed -5e-3
    ((0.2, 0.3), (0.1, 0.1), LOSSY),        # absorbs 0.3
])
def test_check_physics_passes_a_table_within_the_tolerance(
        reflected, transmitted, problem):
    check_physics(_efficiency_table(reflected, transmitted), problem)


def test_serialization_roundtrip():
    problem, table, sol = _solve_slab(3.0, 16, 128, 2.5)
    above = rayleigh_coefficients(sol, problem, table, "+")
    below = rayleigh_coefficients(sol, problem, table, "-")
    eff = efficiencies(above, below, problem)

    text = _csv([EFFICIENCY_COLUMNS, *efficiency_rows(eff)])
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["j", "alpha_j", "beta_j_re", "beta_j_im", "e_refl",
                       "e_trans"]
    assert len(rows) == 1 + len(eff.orders)
    assert float(rows[1][4]) == eff.reflected[0]
    assert text.endswith("\r\n")

    doc = json.loads(_json(efficiency_doc(eff, problem, metadata={"note": "x"})))
    assert doc["metadata"]["n1"] == 16
    assert doc["metadata"]["note"] == "x"
    assert doc["orders"][0]["e_trans"] == eff.transmitted[0]
    assert abs(doc["totals"]["absorbed"] - eff.absorbed) < 1e-15


def test_oblique_isotropic_slab_matches_reference():
    # x1-invariant slab: diffraction orders decouple, so order 0 follows the
    # 1D reference and every other order vanishes, also at oblique incidence
    wave = IncidentWave.from_angle(SLAB_K, 25.0)
    contrast = slab_contrast(3.0, 2 * SLAB_H)
    grid = Grid(n1=16, n2=256, rho_box=(256 / 113.5) * SLAB_H)
    problem = build_problem(wave, contrast, grid)
    table = kernel_table(grid, wave)
    sol = solve(problem, table, SolveOptions(rel_tol=1e-11))
    above = rayleigh_coefficients(sol, problem, table, "+")
    below = rayleigh_coefficients(sol, problem, table, "-")
    eff = efficiencies(above, below, problem)
    ref = slab_reference(SlabSpec(q=3.0, a=-SLAB_H, b=SLAB_H, k=SLAB_K,
                                  alpha=problem.alpha),
                         rho_ref=problem.rho_ref)
    assert abs(eff.reflected[0] - ref.reflectance) < 5e-4
    assert abs(eff.transmitted[0] - ref.transmittance) < 5e-4
    assert energy_balance(eff, problem) < 1e-6
    scale = abs(above.order(0))
    assert all(abs(above.order(j)) < 1e-10 * scale
               for j in above.coefficients if j != 0)


def test_circle_grating_energy_balance():
    # genuinely two-dimensional scatterer: several coupled orders, lossless
    # balance holds and tightens under refinement
    from vigrating.problem import circle_contrast

    k = 15 / (2 * np.pi)
    wave = IncidentWave.from_angle(k, 10.0)
    circ = circle_contrast(2.5, radius=0.8)
    defects = []
    for n in (64, 128):
        grid = Grid(n1=n, n2=n, rho_box=1.7)
        problem = build_problem(wave, circ, grid)
        table = kernel_table(grid, wave)
        sol = solve(problem, table, SolveOptions(rel_tol=1e-11))
        above = rayleigh_coefficients(sol, problem, table, "+")
        below = rayleigh_coefficients(sol, problem, table, "-")
        eff = efficiencies(above, below, problem)
        assert len(eff.orders) == 4
        defects.append(energy_balance(eff, problem))
    assert defects[0] < 1e-8
    assert defects[1] < defects[0]


def test_translation_equivariance_of_efficiencies():
    # shifting the grating by a whole number of cells permutes the grid
    # nodes, so the efficiency table must be bitwise-stable
    from vigrating.problem import ContrastField, circle_contrast

    k = 15 / (2 * np.pi)
    wave = IncidentWave.from_angle(k, 10.0)
    grid = Grid(n1=64, n2=64, rho_box=1.7)
    base = circle_contrast(2.5, radius=0.8)
    delta = 2 * np.pi * 8 / grid.n1
    shifted = ContrastField(
        sampler=lambda x1, x2: base.sampler(np.asarray(x1) - delta, x2),
        h=base.h,
    )
    tables = []
    for contrast in (base, shifted):
        problem = build_problem(wave, contrast, grid)
        table = kernel_table(grid, wave)
        sol = solve(problem, table, SolveOptions(rel_tol=1e-11))
        above = rayleigh_coefficients(sol, problem, table, "+")
        below = rayleigh_coefficients(sol, problem, table, "-")
        tables.append(efficiencies(above, below, problem))
    for a, b in zip(tables[0].reflected, tables[1].reflected):
        assert abs(a - b) < 1e-13
    for a, b in zip(tables[0].transmitted, tables[1].transmitted):
        assert abs(a - b) < 1e-13


def _contrast_times(problem, g1, g2):
    """The samples Q (g1, g2) at the nodes, (2, N1, N2)."""
    q = problem.layout.samples
    return np.stack([q[..., 0, 0] * g1 + q[..., 0, 1] * g2,
                     q[..., 1, 0] * g1 + q[..., 1, 1] * g2])


def _incident_gradient(problem):
    xx1, xx2 = problem.grid.mesh()
    _, grad_i = incident_field(problem.wave, np.stack([xx1, xx2], axis=-1))
    return grad_i[..., 0], grad_i[..., 1]


def _field_density(solution, problem):
    """Samples of the density Q grad(u^s + u^i) of a solution's field,
    from the public transforms."""
    g = grad_spectral(solution.u)
    i1, i2 = _incident_gradient(problem)
    return _contrast_times(problem, to_physical(g.g1) + i1,
                           to_physical(g.g2) + i2)


def _full_grid_rayleigh(density, problem, side):
    """Moment formula summed with a full-grid exp per order over density
    samples (2, N1, N2)."""
    xx1, xx2 = problem.grid.mesh()
    w1, w2 = density
    sgn = 1.0 if side == "+" else -1.0
    j_max = problem.grid.n1 // 2 - 1
    out = {}
    for j in range(-j_max, j_max + 1):
        bj = complex(_beta_many(j, problem.k**2, problem.alpha))
        if bj.imag * problem.rho_ref > EVANESCENT_DROP:
            out[j] = 0.0
            continue
        aj = j + problem.alpha
        moment = problem.grid.cell_area * np.sum(
            np.exp(-1j * aj * xx1 - sgn * 1j * bj * xx2)
            * (aj * w1 + sgn * bj * w2))
        out[j] = -np.exp(1j * bj * problem.rho_ref) / (4 * np.pi * bj) * moment
    return out


def test_one_pass_rayleigh_matches_full_grid_sum():
    k = 15 / (2 * np.pi)
    wave = IncidentWave.from_angle(k, 10.0)
    q = np.array([[2.0 - 0.2j, 0.4], [0.4, 1.0]])
    grid = Grid(n1=32, n2=32, rho_box=1.7)
    problem = build_problem(wave, circle_contrast(q, 0.8), grid)
    table = kernel_table(grid, wave)
    sol = solve(problem, table, SolveOptions(rel_tol=1e-10))
    # the extraction of the solve's field, whose density it builds, against
    # the full-grid sum over that density
    field = Solution(u=sol.u, converged=True)
    density = _field_density(field, problem)
    above, below = rayleigh_both_sides(field, problem, table)
    solved = rayleigh_both_sides(sol, problem, table)
    for data, own in zip((above, below), solved):
        direct = _full_grid_rayleigh(density, problem, data.side)
        assert list(data.coefficients) == list(direct)
        scale = max(abs(v) for v in direct.values())
        worst = max(abs(data.order(j) - direct[j]) for j in direct)
        assert worst <= 1e-13 * scale
        assert data.truncated == tuple(j for j, v in direct.items() if v == 0.0)
        single = rayleigh_coefficients(sol, problem, table, data.side)
        assert single.coefficients == own.coefficients
        # the solve's own density differs from its field's by the density
        # residual, which rel_tol bounds
        assert list(own.coefficients) == list(direct)
        assert max(abs(own.order(j) - direct[j])
                   for j in direct) <= 1e-10 * scale
    assert len(above.propagating) > 1


def _reference_density_solve(problem, table, rel_tol):
    """GMRES on the density w = Q grad(u^s + u^i) at all N1 x N2 nodes,
    w - Q grad div V w = Q grad u^i, with the operator and right-hand side
    composed from the public 2-D transforms.  The density samples (2, N1,
    N2) and the Solution of the field div V w."""
    grid, alpha = problem.grid, problem.alpha
    shape = (2, grid.n1, grid.n2)

    def potential(w):
        w = w.reshape(shape)
        return div_potential(
            VectorSpectralField(g1=to_spectral(w[0], grid, alpha),
                                g2=to_spectral(w[1], grid, alpha)), table)

    def matvec(w):
        g = grad_spectral(potential(w))
        return w - _contrast_times(problem, to_physical(g.g1),
                                   to_physical(g.g2)).reshape(-1)

    b = _contrast_times(problem, *_incident_gradient(problem))
    x, _, converged, iterations, _ = gmres(matvec, b.reshape(-1),
                                           rel_tol=rel_tol)
    assert converged
    return x.reshape(shape), Solution(u=potential(x), residual_history=(),
                                      converged=True, iterations=iterations)


@pytest.mark.parametrize("contrast, theta", [
    (slab_contrast(3.0, 1.0), 0.0),
    (slab_contrast(-5.0, 1.0), 0.0),
    (slab_contrast(3.0 - 0.5j, 1.0), 0.0),
    (two_layer_contrast(ANISO, -2.0, 0.4, 0.6), 0.0),
    (slab_contrast(3.0, 1.0), 25.0),
    (two_layer_contrast(ANISO, -2.0, 0.4, 0.6), 25.0),
], ids=["slab-q3", "slab-q-5", "lossy-slab", "anisotropic-two-layer",
        "slab-oblique", "anisotropic-two-layer-oblique"])
def test_layered_efficiencies_match_2d_reference(contrast, theta):
    wave = IncidentWave.from_angle(0.8, theta)
    grid = Grid(n1=8, n2=64, rho_box=1.1)
    problem = build_problem(wave, contrast, grid)
    table = kernel_table(grid, wave)
    sol = solve(problem, table, SolveOptions(rel_tol=1e-12))
    assert problem.layout.n_rows == 1
    density, reference = _reference_density_solve(problem, table,
                                                  rel_tol=1e-12)
    assert sol.iterations == reference.iterations

    above, below = rayleigh_both_sides(sol, problem, table)
    ref = [RayleighData(side=side, rho_ref=problem.rho_ref,
                        coefficients=_full_grid_rayleigh(density, problem,
                                                         side),
                        propagating=above.propagating)
           for side in ("+", "-")]
    # the all-row field of the layered contrast through the same extraction,
    # against the full-grid sum over its density; at oblique incidence its
    # rows past j1 = 0 hold rounding noise, so the density runs on all N1
    # rows
    assert reference.u.coeffs[1:].any() or not theta
    field_density = _field_density(reference, problem)
    for data, side in zip(rayleigh_both_sides(reference, problem, table),
                          ("+", "-")):
        direct = _full_grid_rayleigh(field_density, problem, side)
        assert max(abs(data.order(j) - v) for j, v in direct.items()) <= 1e-13
    got = efficiencies(above, below, problem)
    expected = efficiencies(*ref, problem)
    assert got.orders == expected.orders == ((-1, 0) if theta else (0,))
    for a, b in zip(got.reflected + got.transmitted,
                    expected.reflected + expected.transmitted):
        assert abs(a - b) <= 1e-13
