import json
import tracemalloc

import numpy as np
import pytest

from vigrating.analysis import (
    GraphGeometry,
    contrast_form,
    decompose_reQ,
    extend_field,
    extension_norm,
    extension_norm_estimate,
    garding_check,
    im_bound_constant,
    reconstruct_reQ,
    reflected_part_bound,
    smoothstep_cutoff,
    smoothstep_slope_max,
    sqrt_abs_reQ,
    weighted_norm,
)
from vigrating.cli import _json
from vigrating.errors import GeometryNotGraph, SingularReQ
from vigrating.operators import to_spectral
from vigrating.problem import (
    ContrastField,
    Grid,
    IncidentWave,
    build_problem,
    raster_contrast,
    slab_contrast,
    two_layer_contrast,
    write_raster,
)

from conftest import basis_field

WAVE = IncidentWave(k=0.5, d=(0.0, -1.0))
GRID = Grid(n1=16, n2=32, rho_box=2.0)


def _problem(q, thickness=1.6):
    return build_problem(WAVE, slab_contrast(q, thickness), GRID)


def test_decompose_scalar_positive():
    problem = _problem(3.0)
    spec = decompose_reQ(problem)
    assert spec.sign_verdict == "positive"
    m = spec.mask
    assert np.allclose(spec.abs_min[m], spec.abs_max[m])
    interior = m & (np.abs(GRID.mesh()[1]) < 0.79)
    assert np.allclose(spec.eig_lo[interior], 3.0)


def test_decompose_diagonal_negative():
    problem = _problem(np.array([[-2.0, 0.0], [0.0, -5.0]]))
    spec = decompose_reQ(problem)
    assert spec.sign_verdict == "negative"
    interior = spec.mask & (np.abs(GRID.mesh()[1]) < 0.79)
    assert np.allclose(spec.abs_min[interior], 2.0)
    assert np.allclose(spec.abs_max[interior], 5.0)


def test_decompose_mixed_sign():
    problem = _problem(np.array([[0.0, 1.0], [1.0, 0.0]]) + 0j)
    spec = decompose_reQ(problem)
    assert spec.sign_verdict == "mixed"
    interior = spec.mask & (np.abs(GRID.mesh()[1]) < 0.79)
    assert np.allclose(spec.eig_lo[interior], -1.0)
    assert np.allclose(spec.eig_hi[interior], 1.0)


def test_decompose_rejects_singular():
    problem = _problem(np.array([[1.0, 1.0], [1.0, 1.0]]) + 0j)
    with pytest.raises(SingularReQ) as info:
        decompose_reQ(problem)
    # every node of the support columns 10..22, on every x1 row
    assert info.value.nodes == [(i, j) for i in range(16)
                                for j in range(10, 23)]
    assert str(info.value) == (
        "Re(Q) singular at nodes: (0, 10), (0, 11), (0, 12), (0, 13), "
        "(0, 14), (0, 15), (0, 16), (0, 17) (+200 more)")


def _raster_of_identical_rows(path):
    rng = np.random.default_rng(5)
    column = np.zeros((64, 2, 2), dtype=complex)
    column[:, 0, 0] = rng.uniform(1.0, 2.0, 64) - 0.2j
    column[:, 0, 1] = column[:, 1, 0] = rng.uniform(-0.3, 0.3, 64)
    column[:, 1, 1] = rng.uniform(-3.0, -2.0, 64) - 0.1j
    write_raster(path, np.broadcast_to(column, (8, 64, 2, 2)), 0.75,
                 GRID.rho_box)
    return raster_contrast(path)


@pytest.mark.parametrize("make", [
    lambda path: slab_contrast(3.0 - 0.5j, 1.6),
    lambda path: two_layer_contrast(
        np.array([[2.0 - 0.3j, 0.4], [0.4, 1.0 - 0.1j]]), -2.0 - 0.3j,
        0.4, 0.6),
    _raster_of_identical_rows,
], ids=["lossy-slab", "lossy-anisotropic-two-layer", "raster"])
def test_one_row_diagnostics_equal_the_full_grid_formulas(tmp_path, make):
    problem = build_problem(WAVE, make(tmp_path / "r.bin"), GRID)
    assert problem.layout.n_rows == 1
    q = np.broadcast_to(problem.layout.samples, (16, 32, 2, 2)).copy()
    mask = np.any(q != 0, axis=(2, 3))
    a, b, c = q.real[..., 0, 0], q.real[..., 0, 1], q.real[..., 1, 1]
    mean = 0.5 * (a + c)
    disc = np.sqrt((0.5 * (a - c)) ** 2 + b**2)
    lo, hi = mean - disc, mean + disc
    signs = np.where((lo > 0) & (hi > 0), 1,
                     np.where((lo < 0) & (hi < 0), -1, 0))
    spec = decompose_reQ(problem)
    for got, want in zip(
            (spec.mask, spec.eig_lo, spec.eig_hi, spec.angles, spec.signs),
            (mask, lo, hi, 0.5 * np.arctan2(2 * b, a - c), signs)):
        assert got.shape == (16, 32) and not got.flags.writeable
        assert np.array_equal(got, want)
    prod = q.imag[mask] @ np.linalg.inv(q.real[mask])
    expected = float(np.max(np.linalg.norm(prod, ord=2, axis=(1, 2))))
    assert expected > 0
    assert im_bound_constant(problem) == expected


def test_one_row_decompose_allocates_no_full_grid():
    grid = Grid(n1=256, n2=256, rho_box=2.0)
    problem = build_problem(WAVE, slab_contrast(-5.0, 1.6), grid)
    decompose_reQ(problem)                      # warm-up
    tracemalloc.start()
    try:
        spec = decompose_reQ(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.eig_lo.shape == (256, 256)
    # one float (N1, N2) array
    assert peak < grid.n1 * grid.n2 * 8


def test_reconstruction_invariants():
    rng = np.random.default_rng(0)

    def sampler(x1, x2):
        x1 = np.asarray(x1, float)
        x2 = np.asarray(x2, float)
        shape = np.broadcast_shapes(x1.shape, x2.shape)
        out = np.zeros(shape + (2, 2), dtype=complex)
        inside = np.broadcast_to(np.abs(x2) < 0.7, shape)
        a = 2.0 + np.cos(x1) * np.ones(shape)
        b = 0.6 * np.sin(x1 + x2) * np.ones(shape)
        c = 3.0 + 0.5 * np.sin(x1) * np.ones(shape)
        out[..., 0, 0] = np.where(inside, a + 0.2j, 0)
        out[..., 0, 1] = np.where(inside, b + 0.05j, 0)
        out[..., 1, 0] = out[..., 0, 1]
        out[..., 1, 1] = np.where(inside, c + 0.1j, 0)
        return out

    problem = build_problem(WAVE, ContrastField(sampler=sampler, h=0.75), GRID)
    spec = decompose_reQ(problem)
    m = spec.mask
    rec = reconstruct_reQ(spec)
    full = np.broadcast_to(problem.layout.samples, rec.shape)
    assert np.abs(rec[m] - full.real[m]).max() < 1e-12
    # the squared root reproduces |Re Q|: same eigenvectors, |eigenvalues|
    w2 = sqrt_abs_reQ(spec) @ sqrt_abs_reQ(spec)
    lo = np.minimum(np.abs(spec.eig_lo), np.abs(spec.eig_hi))
    hi = np.maximum(np.abs(spec.eig_lo), np.abs(spec.eig_hi))
    eigs = np.sort(np.linalg.eigvalsh(w2[m]), axis=1)
    assert np.abs(eigs - np.stack([lo[m], hi[m]], axis=1)).max() < 1e-12


def test_weighted_norm_examples():
    problem = _problem(4.0)
    spec = decompose_reQ(problem)
    # u = 1: gradient vanishes, norm^2 = measure of the support
    ones = to_spectral(np.ones((16, 32)), GRID, 0.0)
    measure = GRID.cell_area * int(np.count_nonzero(spec.mask))
    assert abs(weighted_norm(ones, problem, spec) ** 2 - measure) < 1e-10
    # u = phi_(1,0): norm^2 = 4 ||d1 phi||^2 + ||phi||^2 over the support
    phi = basis_field(GRID, 0.0, 1, 0)
    n2 = weighted_norm(phi, problem, spec) ** 2
    phi_sq = 1.0 / (4 * np.pi * GRID.rho_box)      # |phi|^2 is constant
    direct = (4.0 * 1.0 + 1.0) * phi_sq * measure  # |d1 phi| = |phi|
    assert abs(n2 - direct) < 1e-10


def test_norm_is_real_part_of_form():
    problem = _problem(2.0 + 0.4j)
    spec = decompose_reQ(problem)
    rng = np.random.default_rng(1)
    for _ in range(3):
        u = to_spectral(
            rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32)),
            GRID, 0.0,
        )
        lhs = weighted_norm(u, problem, spec) ** 2
        rhs = contrast_form(u, u, problem, spec).real
        assert abs(lhs - rhs) < 1e-10 * max(1.0, lhs)


def test_im_bound_examples():
    assert abs(im_bound_constant(_problem(3.0 + 4.0j))
               - 4.0 / 3.0) < 1e-12
    assert im_bound_constant(_problem(5.0)) == 0.0
    p = _problem(np.array([[2.0 + 1.0j, 0.0], [0.0, 5.0]]))
    assert abs(im_bound_constant(p) - 0.5) < 1e-12


def test_im_bound_lossless_takes_no_inverse(monkeypatch):
    problem = _problem(np.array([[-2.0, 0.4], [0.4, -5.0]]))
    spectra = decompose_reQ(problem)

    def refuse(a):
        raise AssertionError("a lossless contrast needs no inverse")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    assert im_bound_constant(problem) == 0.0


def test_im_bound_lossy_matches_the_full_formula():
    problem = _problem(np.array([[2.0 - 0.3j, 0.4], [0.4, 1.0 - 0.1j]]))
    spectra = decompose_reQ(problem)
    m = spectra.mask
    q = np.broadcast_to(problem.layout.samples, (16, 32, 2, 2))
    prod = q.imag[m] @ np.linalg.inv(q.real[m])
    expected = float(np.max(np.linalg.norm(prod, ord=2, axis=(1, 2))))
    assert expected > 0
    assert im_bound_constant(problem) == expected


def test_im_bound_scale_invariance():
    p1 = _problem(2.0 + 0.8j)
    p2 = _problem(3.0 * (2.0 + 0.8j))
    c1 = im_bound_constant(p1)
    c2 = im_bound_constant(p2)
    assert abs(c1 - c2) < 1e-13
    # sign verdict unchanged under positive scaling
    assert decompose_reQ(p1).sign_verdict == decompose_reQ(p2).sign_verdict


def test_cutoff_properties():
    rho = 1.3
    x = np.linspace(-3 * rho, 3 * rho, 1001)
    chi = smoothstep_cutoff(x, rho)
    assert np.all(chi[np.abs(x) <= rho] == 1.0)
    assert np.all(chi[np.abs(x) >= 2 * rho] == 0.0)
    slope = np.abs(np.diff(chi) / np.diff(x)).max()
    assert slope <= smoothstep_slope_max(rho) * 1.001


def test_extension_identity_and_cutoff():
    geom = GraphGeometry(zeta_plus=lambda x: np.full_like(x, 0.8),
                         zeta_minus=lambda x: np.full_like(x, -0.8),
                         rho=1.0)
    # constant field: 1 on the support, cutoff value on the reflected strips
    pts = np.array([[0.0, 0.5], [0.0, -0.5], [0.0, 1.4], [0.0, -1.4],
                    [0.0, 2.1], [1.0, 0.79]])
    vals = extend_field(lambda a, b: np.ones_like(a, dtype=complex), geom, pts)
    assert vals[0] == 1.0 and vals[1] == 1.0 and vals[5] == 1.0
    assert abs(vals[2] - smoothstep_cutoff(1.4, 1.0)) < 1e-15
    assert vals[4] == 0.0

    rng = np.random.default_rng(2)
    coef = rng.standard_normal(5) + 1j * rng.standard_normal(5)

    def u(a, b):
        return sum(c * np.exp(1j * m * a) * np.cos((m + 1) * b)
                   for m, c in enumerate(coef))

    inside_pts = np.stack([np.linspace(-3, 3, 11), np.linspace(-0.7, 0.7, 11)],
                          axis=1)
    got = extend_field(u, geom, inside_pts)
    assert np.abs(got - u(inside_pts[:, 0], inside_pts[:, 1])).max() == 0.0


def test_extension_quasi_periodicity():
    alpha = 0.37
    geom = GraphGeometry(zeta_plus=lambda x: np.full_like(x, 0.75),
                         zeta_minus=lambda x: np.full_like(x, -0.75),
                         rho=1.0)

    def u(a, b):
        return np.exp(1j * alpha * a) * (np.cos(a) + 1j * np.sin(b))

    pts = np.array([[0.3, 1.1], [0.3 + 2 * np.pi, 1.1],
                    [-1.0, -1.3], [-1.0 + 2 * np.pi, -1.3]])
    vals = extend_field(u, geom, pts)
    phase = np.exp(2j * np.pi * alpha)
    assert abs(vals[1] - phase * vals[0]) < 1e-13
    assert abs(vals[3] - phase * vals[2]) < 1e-13


def test_extension_norm_constants():
    assert reflected_part_bound(1.0) == 2.0 * np.sqrt(2.0)
    assert reflected_part_bound(0.0) == np.sqrt(3.0)
    geom = GraphGeometry(zeta_plus=lambda x: np.full_like(x, 0.8),
                         zeta_minus=lambda x: np.full_like(x, -0.8),
                         rho=1.0)
    info = extension_norm(geom)
    assert info.lipschitz == 0.0
    assert info.reflected_part == np.sqrt(3.0)
    assert info.bound == np.sqrt(1.0 + (info.reflected_part
                                        * info.cutoff_factor) ** 2)


def test_extension_estimate_below_bound():
    geom = GraphGeometry(zeta_plus=lambda x: np.full_like(x, 0.8),
                         zeta_minus=lambda x: np.full_like(x, -0.8),
                         rho=1.0)
    est = extension_norm_estimate(geom)
    assert 1.0 <= est <= extension_norm(geom).bound


def test_geometry_validation():
    bad = GraphGeometry(zeta_plus=lambda x: np.full_like(x, 0.5),
                        zeta_minus=lambda x: np.full_like(x, -0.8),
                        rho=1.0)   # zeta_plus below 2 rho / 3
    with pytest.raises(GeometryNotGraph):
        bad.validate()


def _flat_geometry(h):
    return GraphGeometry(
        zeta_plus=lambda x, h=h: np.full_like(np.asarray(x, float), h),
        zeta_minus=lambda x, h=h: np.full_like(np.asarray(x, float), -h),
        rho=1.2 * h,
    )


def test_garding_positive_contrast():
    problem = _problem(3.0)
    report = garding_check(problem)
    cond = {c.name: c for c in report.conditions}
    assert cond["positive_definite_contrast"].status == "satisfied"
    assert cond["negative_contrast_extension"].status == "not-applicable"
    assert "uniquely solvable" in report.interpretation


def test_garding_negative_contrast_reports_margin():
    problem = _problem(-5.0)
    geom = _flat_geometry(problem.contrast.h)
    report = garding_check(problem, geometry=geom)
    cond = {c.name: c for c in report.conditions}
    entry = cond["negative_contrast_extension"]
    assert entry.status in ("satisfied", "violated")
    assert abs(entry.details["threshold_sqrt_inf_abs_min"] - np.sqrt(5.0)) < 1e-12
    # the verdict must agree with the reported numbers
    expected = ("satisfied" if report.extension_bound
                < np.sqrt(5.0) else "violated")
    assert entry.status == expected
    iso = cond["isotropic_negative_contrast"]
    assert iso.status == entry.status


def test_garding_weakly_negative_contrast_violated():
    # eigenvalues at -1.5 pass the sign test but the extension comparison
    # (threshold sqrt(1.5) < every admissible extension norm) must fail
    problem = _problem(-1.5)
    geom = _flat_geometry(problem.contrast.h)
    report = garding_check(problem, geometry=geom)
    cond = {c.name: c for c in report.conditions}
    assert cond["negative_contrast_extension"].status == "violated"


def test_garding_mixed_sign_no_certificate():
    problem = _problem(np.array([[0.0, 1.0], [1.0, 0.0]]) + 0j)
    report = garding_check(problem)
    assert report.sign_verdict == "mixed"
    assert report.interpretation == "indefinite: no certificate"


def test_garding_report_json():
    problem = _problem(-5.0)
    geom = _flat_geometry(problem.contrast.h)
    report = garding_check(problem, geometry=geom,
                           estimate_extension=True)
    doc = json.loads(_json(report.doc()))
    assert doc["sign_verdict"] == "negative"
    assert doc["extension_norm_estimate"] is not None
    names = {c["name"] for c in doc["conditions"]}
    assert names == {"positive_definite_contrast",
                     "negative_contrast_extension",
                     "isotropic_negative_contrast"}
    assert "smoothness" in doc["smoothness_note"]


def test_norm_identity_negative_contrast():
    problem = _problem(-5.0 + 0.0j)
    spec = decompose_reQ(problem)
    assert spec.sign_verdict == "negative"
    rng = np.random.default_rng(3)
    u = to_spectral(
        rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32)),
        GRID, 0.0,
    )
    lhs = weighted_norm(u, problem, spec) ** 2
    rhs = contrast_form(u, u, problem, spec).real
    assert abs(lhs - rhs) < 1e-10 * lhs
