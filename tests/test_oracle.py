import numpy as np
import pytest

from vigrating.errors import SizeGuard, SlowConvergence
from vigrating.kernel import kernel_table
from vigrating.operators import to_spectral, volume_potential
from vigrating.oracle import (
    SlabSpec,
    compactness_indicator,
    dense_quadrature_potential,
    helmholtz_residual,
    slab_reference,
    slab_reference_fd,
    smooth_test_contrast,
)
from vigrating.problem import Grid, IncidentWave, sample_contrast

from conftest import SLAB_H, SLAB_K


def _wave(k, alpha):
    return IncidentWave(k=k, d=(alpha / k, -np.sqrt(1 - (alpha / k) ** 2)))


# ----------------------------------------------------------------------------
# slab transfer matrix


def test_slab_no_contrast():
    res = slab_reference(SlabSpec(q=0.0, a=-1.0, b=1.0, k=1.0, alpha=0.2))
    assert abs(res.r) < 1e-14
    assert abs(res.transmittance - 1.0) < 1e-14
    # the below-side total is the incident wave itself, whose coefficient in
    # this normalization is exp(+i beta_0 rho_ref)
    b0 = np.sqrt(1.0 - 0.04)
    assert abs(res.t - np.exp(1j * b0 * res.rho_ref)) < 1e-12


TENSORS = {
    "tilted": np.array([[3.0, 0.8], [0.8, 2.0]]),
    "negative-definite": np.array([[-3.0, 0.8], [0.8, -5.0]]),
    "hyperbolic": np.diag([2.0, -3.0]),
    "hyperbolic-swapped": np.diag([-3.0, 2.0]),
}


@pytest.mark.parametrize("q", [3.0, -5.0, 0.7, -0.4] + [
    pytest.param(q, id=name) for name, q in TENSORS.items()])
def test_slab_energy_conservation_real_contrast(q):
    res = slab_reference(SlabSpec(q=q, a=-0.8, b=0.3, k=1.1, alpha=0.25))
    assert abs(res.reflectance + res.transmittance - 1.0) < 1e-12


def test_slab_against_finite_differences():
    spec = SlabSpec(q=3.0, a=-SLAB_H, b=SLAB_H, k=SLAB_K, alpha=0.0)
    ref = slab_reference(spec, rho_ref=1.15 * SLAB_H)
    r_fd, t_fd = slab_reference_fd(spec, n=2000, rho_ref=1.15 * SLAB_H)
    assert abs(r_fd - ref.r) < 1e-8
    assert abs(t_fd - ref.t) < 1e-8


@pytest.mark.parametrize("q", [3.0, np.diag([3.0, 0.0])],
                         ids=["q3", "vacuum-like"])
def test_finite_elements_do_not_lose_accuracy_on_a_finer_mesh(q):
    # diag(3, 0) at alpha = 0 scatters exactly like vacuum.  Elimination on
    # the pivots themselves rounded their O(1) part at the scale 1/h: the
    # q = 3 error rose from 5.4e-9 at n = 2000 to 2.1e-8 at n = 4000
    spec = SlabSpec(q=q, a=-SLAB_H, b=SLAB_H, k=SLAB_K, alpha=0.0)
    ref = slab_reference(spec, rho_ref=1.15 * SLAB_H)
    errors = []
    for n in (2000, 4000):
        r_fe, t_fe = slab_reference_fd(spec, n=n, rho_ref=1.15 * SLAB_H)
        errors.append(max(abs(r_fe - ref.r), abs(t_fe - ref.t)))
    # no higher, up to the two ulp the closed form itself may be off by
    assert errors[1] <= max(errors[0], 2 * np.finfo(float).eps)


def test_slab_oblique_and_negative_against_fd():
    for spec in (
        SlabSpec(q=2.0, a=-0.7, b=0.4, k=0.8, alpha=0.3),
        SlabSpec(q=-5.0, a=-SLAB_H, b=SLAB_H, k=SLAB_K, alpha=0.0),
    ):
        ref = slab_reference(spec)
        r_fd, t_fd = slab_reference_fd(spec, n=2000)
        assert abs(r_fd - ref.r) < 5e-7
        assert abs(t_fd - ref.t) < 5e-7


def test_slab_degenerate_interior_wavenumber():
    # (alpha A12)^2 + A22 (k^2 - alpha^2 A11) = 0 makes the interior
    # wavenumber a double root; the stable sinc branch must join the nearby
    # generic values continuously
    for q, k in ((3.0, 1.0),
                 (np.array([[3.0, 0.5], [0.5, 1.0]]), np.sqrt(0.96875))):
        spec0 = SlabSpec(q=q, a=-0.5, b=0.5, k=k, alpha=0.5)
        a = spec0.tensor()
        assert abs((0.5 * a[0, 1]) ** 2
                   + a[1, 1] * (k**2 - 0.25 * a[0, 0])) < 1e-14
        r0 = slab_reference(spec0)
        r1 = slab_reference(SlabSpec(q=q, a=-0.5, b=0.5, k=k * (1 + 1e-7),
                                     alpha=0.5))
        assert abs(r0.reflectance - r1.reflectance) < 1e-4
        assert abs(r0.reflectance + r0.transmittance - 1.0) < 1e-12


@pytest.mark.parametrize("q, alpha", [
    pytest.param(3.0 * np.eye(2), 0.0, id="3I"),
    pytest.param(2.0 * np.eye(2), 0.06, id="2I"),
    pytest.param(-5.0 * np.eye(2), 0.03, id="-5I"),
    pytest.param(np.array([[-3.0, 0.4], [0.4, -2.5]]) - 0.3j * np.eye(2),
                 0.05, id="lossy-negative-definite"),
] + [pytest.param(q, 0.05, id=name) for name, q in TENSORS.items()])
def test_tensor_slab_against_finite_elements(q, alpha):
    spec = SlabSpec(q=q, a=-SLAB_H, b=SLAB_H, k=SLAB_K, alpha=alpha)
    ref = slab_reference(spec, rho_ref=1.15 * SLAB_H)
    r_fe, t_fe = slab_reference_fd(spec, n=2000, rho_ref=1.15 * SLAB_H)
    assert abs(r_fe - ref.r) < 1e-8
    assert abs(t_fe - ref.t) < 1e-8


def test_slab_lossy_absorption_sign():
    # passive media have Im Q <= 0 in the radiating convention used here
    lossy = slab_reference(SlabSpec(q=2.0 - 0.5j, a=-np.pi, b=np.pi,
                                    k=SLAB_K, alpha=0.0))
    assert 1.0 - lossy.reflectance - lossy.transmittance > 0.01


def test_slab_rejects_bad_interval():
    with pytest.raises(ValueError):
        SlabSpec(q=1.0, a=0.5, b=0.5, k=1.0)
    with pytest.raises(ValueError):
        SlabSpec(q=-1.0, a=0.0, b=0.5, k=1.0)


@pytest.mark.parametrize("q, match", [
    (np.array([[1.0, 0.5], [0.2, 1.0]]), "symmetric"),
    (np.ones(3), "scalar or 2x2"),
    (np.ones((2, 2, 2)), "scalar or 2x2"),
    (float("nan"), "finite"),
    (np.array([[1.0, np.inf], [np.inf, 1.0]]), "finite"),
    (np.array([[2.0, 0.3], [0.3, -1.0]]), "A22"),
], ids=["non-symmetric", "vector", "3-d", "nan", "inf", "vanishing-A22"])
def test_slab_rejects_bad_contrast(q, match):
    with pytest.raises(ValueError, match=match):
        SlabSpec(q=q, a=0.0, b=0.5, k=1.0)


# ----------------------------------------------------------------------------
# series quadrature


def test_quadrature_zero_and_linearity():
    rho, k, alpha = 1.0, 0.9, 0.2
    grid = Grid(n1=8, n2=8, rho_box=rho)
    targets = np.array([[0.0, 0.0], [1.0, 0.0]])
    zero = dense_quadrature_potential(np.zeros((8, 8)), grid, alpha, k, targets)
    assert np.all(zero == 0)

    rng = np.random.default_rng(0)
    xx1, xx2 = grid.mesh()
    strip = np.abs(xx2 - 0.5) < 0.3
    g1 = strip * (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    g2 = strip * (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    va = dense_quadrature_potential(g1, grid, alpha, k, targets, refine=(8, 8))
    vb = dense_quadrature_potential(g2, grid, alpha, k, targets, refine=(8, 8))
    vab = dense_quadrature_potential(g1 + 2 * g2, grid, alpha, k, targets,
                                     refine=(8, 8))
    assert np.abs(vab - va - 2 * vb).max() < 1e-13 * np.abs(vab).max()


def test_quadrature_separation_guard():
    grid = Grid(n1=8, n2=8, rho_box=1.0)
    xx1, xx2 = grid.mesh()
    g = (np.abs(xx2) < 0.3).astype(complex)
    with pytest.raises(SlowConvergence):
        dense_quadrature_potential(g, grid, 0.0, 0.7,
                                   np.array([[0.0, 0.30]]))


def test_quadrature_thin_strip_example():
    # indicator strip source vs spectral path at off-axis targets: limited
    # by interface ringing inside the periodization wrap region, measured
    # at ~2e-4 for a 256-row source grid
    rho, k, alpha = 2.0, 0.9, 0.2
    grid = Grid(n1=16, n2=256, rho_box=rho)
    wave = _wave(k, alpha)
    xx1, xx2 = grid.mesh()
    g = (np.abs(xx2) < 0.1).astype(complex) * np.exp(1j * alpha * xx1)
    targets = np.array([[0.0, 1.0]])
    from vigrating.operators import evaluate

    spec_at = evaluate(
        volume_potential(to_spectral(g, grid, alpha), kernel_table(grid, wave)),
        targets,
    )
    quad = dense_quadrature_potential(g, grid, alpha, k, targets,
                                      refine=(16, 16))
    assert np.abs(spec_at - quad).max() / np.abs(quad).max() < 1e-3


# ----------------------------------------------------------------------------
# finite-difference Helmholtz residual


def test_residual_plane_wave():
    # an exact Helmholtz solution leaves only the differencing error
    k, alpha = 1.0, 0.3
    grid = Grid(n1=128, n2=128, rho_box=1.0)
    xx1, xx2 = grid.mesh()
    b0 = np.sqrt(k**2 - alpha**2)
    w = np.exp(1j * (alpha * xx1 + b0 * xx2))
    r = helmholtz_residual(w, np.zeros_like(w), k, alpha, grid, margin=0.1)
    assert r < 5e-4
    assert helmholtz_residual(np.zeros_like(w), np.zeros_like(w), k, alpha,
                              grid, margin=0.1) == 0.0


# ----------------------------------------------------------------------------
# compactness indicator


def test_compactness_profiles():
    prof = compactness_indicator(16)
    d_ratio, o_ratio = prof.ratio(15)
    assert d_ratio < o_ratio
    prof2 = compactness_indicator(16)
    assert np.array_equal(prof.sv_difference, prof2.sv_difference)
    assert np.array_equal(prof.sv_operator, prof2.sv_operator)


def test_compactness_size_guard():
    with pytest.raises(SizeGuard):
        compactness_indicator(128)


def test_smooth_test_contrast_properties():
    c = smooth_test_contrast()
    assert sample_contrast(c, Grid(n1=8, n2=16, rho_box=1.0))[1].real_scalar
    q = c.sample(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    assert np.all(q[..., 0, 0].real > 0)
    assert np.all(c.sample(np.array(0.0), np.array(0.6)) == 0)


def test_residual_convergence_order_window():
    # three step halvings land in the quadratic window
    from vigrating.validate import gate_pde

    result = gate_pde("full")
    assert result.passed
    orders = [float(s) for s in
              result.details.split("orders ")[1].strip("[]").replace("'", "").split(", ")]
    assert all(1.8 <= o <= 2.2 for o in orders)
