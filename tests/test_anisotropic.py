"""End-to-end checks of the anisotropic tensor path.

An x1-invariant slab with a constant symmetric contrast tensor still has a
closed-form 1D reduction: with A = I + Q, the zeroth-order profile solves

    A22 v'' + 2 i alpha A12 v' + (k^2 - alpha^2 A11) v = 0

with v and the co-normal flux i alpha A12 v + A22 v' continuous at the
faces.  That reference, ``oracle.slab_reference`` with a matrix q, pins
the full matrix product in the forward operator.
"""

import numpy as np
import pytest

from vigrating.kernel import kernel_table
from vigrating.oracle import SlabSpec, slab_reference
from vigrating.postprocess import (
    efficiencies,
    energy_balance,
    rayleigh_coefficients,
)
from vigrating.problem import (
    Grid,
    IncidentWave,
    build_problem,
    slab_contrast,
)
from vigrating.solver import SolveOptions, solve
from vigrating.validate import (
    RECIPROCAL_Q,
    RECIPROCITY_BOUNDS,
    _reciprocity_error,
    _reflected,
    slab_box_ratio,
)

from conftest import SLAB_H, SLAB_K


def _solve_tensor_slab(q_matrix, theta_deg, n2=512):
    wave = IncidentWave.from_angle(SLAB_K, theta_deg)
    contrast = slab_contrast(q_matrix, 2 * SLAB_H)
    grid = Grid(n1=16, n2=n2, rho_box=slab_box_ratio(n2) * SLAB_H)
    problem = build_problem(wave, contrast, grid)
    table = kernel_table(grid, wave)
    solution = solve(problem, table, SolveOptions(rel_tol=1e-11))
    above = rayleigh_coefficients(solution, problem, table, "+")
    below = rayleigh_coefficients(solution, problem, table, "-")
    return problem, solution, above, below, efficiencies(above, below, problem)


def test_full_tensor_slab_oblique_incidence():
    qm = np.array([[3.0, 0.8], [0.8, 2.0]], dtype=complex)
    problem, sol, above, below, eff = _solve_tensor_slab(qm, theta_deg=20.0)
    ref = slab_reference(SlabSpec(q=qm, a=-SLAB_H, b=SLAB_H, k=SLAB_K,
                                  alpha=problem.alpha),
                         rho_ref=problem.rho_ref)
    assert abs(eff.reflected[0] - ref.reflectance) < 5e-4
    assert abs(above.order(0) - ref.r) < 2e-3
    t_total = below.order(0) + np.exp(
        1j * np.sqrt(SLAB_K**2 - problem.alpha**2) * problem.rho_ref
    )
    assert abs(t_total - ref.t) < 2e-3
    assert energy_balance(eff, problem) < 1e-6


def test_tangential_only_contrast_is_invisible_at_normal_incidence():
    # the incident gradient is vertical, so only the second tensor column
    # radiates at normal incidence; diag(q11, 0) and pure off-diagonal
    # slabs produce exactly zero scattering in this x1-invariant geometry
    for qm in (np.diag([3.0, 0.0]).astype(complex),
               np.array([[0.0, 0.7], [0.7, 0.0]], dtype=complex)):
        problem, sol, above, below, eff = _solve_tensor_slab(qm, 0.0, n2=128)
        assert sol.u.norm() == 0.0
        assert eff.total_reflected == 0.0
        assert abs(eff.transmitted[0] - 1.0) < 1e-14


def test_diagonal_tensor_matches_vertical_component_at_normal_incidence():
    # at normal incidence the 1D reduction only involves 1 + q22
    qm = np.diag([5.0, 3.0]).astype(complex)
    problem, sol, above, below, eff = _solve_tensor_slab(qm, 0.0, n2=256)
    ref = slab_reference(SlabSpec(q=3.0, a=-SLAB_H, b=SLAB_H, k=SLAB_K),
                         rho_ref=problem.rho_ref)
    assert abs(eff.reflected[0] - ref.reflectance) < 2e-3
    assert abs(eff.transmitted[0] - ref.transmittance) < 2e-3


def test_negative_definite_lossy_tensor_smoke():
    # all features at once: negative-definite real part, off-diagonal
    # coupling, absorption, oblique incidence; the power budget must close
    from vigrating import analysis as an

    qm = np.array([[-3.0, 0.4], [0.4, -2.5]]) - 0.3j * np.eye(2)
    wave = IncidentWave.from_angle(SLAB_K, 12.0)
    contrast = slab_contrast(qm, 2 * SLAB_H)
    grid = Grid(n1=32, n2=256, rho_box=(256 / 113.5) * SLAB_H)
    problem = build_problem(wave, contrast, grid)
    table = kernel_table(grid, wave)
    sol = solve(problem, table, SolveOptions(rel_tol=1e-10))
    assert sol.iterations < 50
    above = rayleigh_coefficients(sol, problem, table, "+")
    below = rayleigh_coefficients(sol, problem, table, "-")
    eff = efficiencies(above, below, problem)
    absorbed = energy_balance(eff, problem)
    assert 0.0 < absorbed < 1.0
    assert 0.0 < eff.total_reflected < 1.0
    assert 0.0 < eff.total_transmitted < 1.0

    spectra = an.decompose_reQ(problem)
    assert spectra.sign_verdict == "negative"
    report = an.garding_check(problem, spectra)
    assert report.inf_abs_min > 1.0
    assert report.im_re_constant < 0.2


@pytest.mark.parametrize("loss", [0.0, 0.1], ids=["lossless", "lossy"])
def test_reflection_is_reciprocal_on_a_2d_tensor_grating(loss):
    # the quick reciprocity gate's circle: order m reflects as much at
    # alpha as at -(alpha + m), to the discretization error at 32 x 32
    qm = RECIPROCAL_Q - 1j * loss * np.eye(2)
    n, bound = RECIPROCITY_BOUNDS["quick"]
    _, eff = _reflected(qm, n, 2.5 * np.sin(np.radians(15.0)))
    assert len(eff) == 5
    assert _reciprocity_error(qm, n) < bound
