import logging

import numpy as np
import pytest

from vigrating.problem import (
    ContrastField,
    Grid,
    IncidentWave,
    build_problem,
    slab_contrast,
)

logging.getLogger("vigrating").setLevel(logging.WARNING)

# lossy anisotropic contrast matrix with Q12 != 0
ANISO = np.array([[2.0, 0.4], [0.4, 1.0]]) - np.array([[0.3j, 0], [0, 0.1j]])

# acceptance slab in math units: one period thick, one wave per period
SLAB_K = 1.0 / (2 * np.pi)
SLAB_H = np.pi


@pytest.fixture
def slab_problem():
    """Small q = 3 slab problem with its kernel table (fast fixture)."""
    from vigrating.kernel import kernel_table

    wave = IncidentWave.from_angle(SLAB_K, 0.0)
    contrast = slab_contrast(3.0, 2 * SLAB_H)
    grid = Grid(n1=16, n2=256, rho_box=2.56 * SLAB_H)
    problem = build_problem(wave, contrast, grid)
    return problem, kernel_table(grid, wave)


def smooth_profile(x2, h):
    """Compactly supported C-infinity bump on |x2| < h."""
    t = np.clip(np.abs(np.asarray(x2, dtype=float)) / h, 0.0, 1.0)
    out = np.zeros(t.shape)
    inside = t < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return out


def smooth_isotropic_contrast(q, h):
    def sampler(x1, x2):
        w = q * smooth_profile(x2, h) * np.ones_like(np.asarray(x1, float))
        return w[..., None, None] * np.eye(2)

    return ContrastField(sampler=sampler, h=h)


def basis_field(grid, alpha, j1, j2):
    """Single basis function phi_(j1, j2) as a spectral field."""
    from vigrating.operators import SpectralField

    coeffs = np.zeros((grid.n1, grid.n2), dtype=complex)
    coeffs[j1 % grid.n1, j2 % grid.n2] = 1.0
    return SpectralField(coeffs=coeffs, grid=grid, alpha=alpha)


def reference_rhs(problem, table):
    """div V(Q grad u^i) composed from the public 2-D transforms."""
    from vigrating.operators import (
        VectorSpectralField,
        div_potential,
        pointwise_matrix_product,
        to_spectral,
    )
    from vigrating.problem import incident_field

    grid, alpha = problem.grid, problem.alpha
    xx1, xx2 = grid.mesh()
    _, grad_i = incident_field(problem.wave, np.stack([xx1, xx2], axis=-1))
    grad_i = VectorSpectralField(g1=to_spectral(grad_i[..., 0], grid, alpha),
                                 g2=to_spectral(grad_i[..., 1], grid, alpha))
    return div_potential(pointwise_matrix_product(problem.layout.samples, grad_i),
                         table).coeffs
