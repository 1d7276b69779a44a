import struct
import tracemalloc

import numpy as np
import pytest

from vigrating.errors import (
    GeometryError,
    RayleighAnomaly,
    ShapeMismatch,
    Underresolved,
    UnresolvedOrder,
)
from vigrating.problem import (
    ANOMALY_RTOL,
    K_FLOOR,
    WARN_NODES_PER_WAVELENGTH,
    ContrastField,
    ContrastLayout,
    Grid,
    IncidentWave,
    Problem,
    at_cutoff,
    build_problem,
    check_orders,
    check_resolution,
    circle_contrast,
    incident_field,
    raster_contrast,
    rectangle_contrast,
    sample_contrast,
    slab_contrast,
    two_layer_contrast,
    write_raster,
)


def test_wave_validation():
    with pytest.raises(ValueError):
        IncidentWave(k=-1.0, d=(0.0, -1.0))
    with pytest.raises(ValueError):
        IncidentWave(k=1.0, d=(0.5, -0.5))          # not unit
    with pytest.raises(ValueError):
        IncidentWave(k=1.0, d=(1.0, 0.0))           # grazing
    with pytest.raises(ValueError):
        IncidentWave(k=1.0, d=(0.0, 1.0))           # upward
    wave = IncidentWave.from_angle(2.0, 30.0)
    assert wave.d[1] < 0
    assert np.isclose(wave.alpha, 2.0 * np.sin(np.deg2rad(30.0)))


def test_nonresonance_check():
    # k = 1 at normal incidence sits exactly on the first-order cutoff
    with pytest.raises(RayleighAnomaly) as err:
        IncidentWave(k=1.0, d=(0.0, -1.0)).check_nonresonance()
    assert abs(err.value.order) == 1
    IncidentWave(k=1.0, d=(0.3, -np.sqrt(1 - 0.09))).check_nonresonance()


# 1.5e-4 is just above the wavenumber floor, where the tolerance is still
# absolute and every wave steeper than 48 degrees is at cutoff at order 0
@pytest.mark.parametrize("k", [1.5e-4, 0.3, 1.0, 2.7, 40.0, 3e3])
def test_nonresonance_check_matches_a_scan_of_every_order(k):
    def scan(wave):
        """The reference: the lowest order, of every order that could be
        anomalous, at which the rule holds."""
        k2 = wave.k**2
        reach = int(np.ceil(wave.k + abs(wave.alpha) + 1))
        for j in range(-reach, reach + 1):
            if at_cutoff(k2 - (j + wave.alpha) ** 2, k2):
                return j
        return None

    def order(wave):
        try:
            wave.check_nonresonance()
        except RayleighAnomaly as exc:
            return exc.order
        return None

    tol = ANOMALY_RTOL * max(1.0, k**2)
    waves = [IncidentWave.from_angle(k, theta)
             for theta in np.random.default_rng(11).uniform(-89, 89, 50)]
    # a cutoff order at k^2 - alpha_j^2 = gap * tolerance, on either side
    for gap in (0.0, 0.5, -0.5, 0.999, -0.999, 1.001, -1.001, 2.0, -2.0):
        if k**2 < gap * tol:
            continue
        for side in (-1.0, 1.0):
            alpha_j = side * np.sqrt(k**2 - gap * tol)
            alpha = alpha_j - round(alpha_j)
            if abs(alpha) < k:
                waves.append(IncidentWave(k=k, d=(
                    alpha / k, -np.sqrt(1 - (alpha / k) ** 2))))
    verdicts = [order(wave) for wave in waves]
    assert verdicts == [scan(wave) for wave in waves]
    if k > 0.5:
        assert verdicts.count(None) > 50
        assert len(verdicts) - verdicts.count(None) >= 6


@pytest.mark.parametrize("k", [1e-6, K_FLOOR])
def test_a_wavenumber_at_or_below_the_floor_is_rejected(k):
    # k^2 <= ANOMALY_RTOL: every wave would be at cutoff at order 0
    with pytest.raises(ValueError, match=f"wavenumber {k!r} is at or below "
                                         "the floor 0.0001"):
        IncidentWave.from_angle(k, 30.0)


def test_a_wavenumber_just_above_the_floor_is_accepted():
    wave = IncidentWave(k=1.001 * K_FLOOR, d=(0.0, -1.0))
    wave.check_nonresonance()


def test_every_propagating_order_lies_within_the_x1_orders():
    # orders -N1/2 < j < N1/2 are resolved; the smallest n1 that holds
    # order j is the least power of two above 2 |j|
    def order_at(j_far, n1):
        # a wave whose farthest propagating order is j_far alone: alpha
        # shifts the orders away from it
        alpha = 0.3 if j_far < 0 else -0.3
        k = abs(j_far + alpha) + 0.2
        wave = IncidentWave(k=k, d=(alpha / k,
                                    -np.sqrt(1 - (alpha / k) ** 2)))
        try:
            check_orders(wave, Grid(n1=n1, n2=8, rho_box=1.0))
        except UnresolvedOrder as exc:
            return exc.order, exc.needed
        return None

    assert order_at(-7, 16) is None and order_at(7, 16) is None
    assert order_at(-8, 16) == (-8, 32)
    assert order_at(8, 16) == (8, 32)
    assert order_at(-9, 16) == (-9, 32)
    assert order_at(-16, 16) == (-16, 64)
    assert order_at(-16, 64) is None


def test_a_coupling_contrast_needs_its_propagating_orders_on_the_grid():
    wave = IncidentWave.from_angle(50.0 / (2 * np.pi), 10.0)
    circle = circle_contrast(3.0, 0.4 * np.pi)
    with pytest.raises(UnresolvedOrder, match="order j=-9 .* n1 = 32 is"):
        build_problem(wave, circle, Grid(n1=16, n2=64, rho_box=2.6))
    assert build_problem(wave, circle, Grid(n1=32, n2=64, rho_box=2.6))
    # a layered contrast has order 0 alone: it needs no x1 orders
    slab = build_problem(wave, slab_contrast(3.0, 1.0),
                         Grid(n1=16, n2=64, rho_box=2.6))
    assert slab.layout.n_rows == 1


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(n1=12, n2=16, rho_box=1.0)             # not a power of two
    with pytest.raises(GeometryError):
        Grid(n1=16, n2=16, rho_box=-1.0)
    g = Grid(n1=8, n2=16, rho_box=2.0)
    assert g.x1_nodes()[0] == -np.pi
    assert np.isclose(g.x1_nodes()[1] - g.x1_nodes()[0], 2 * np.pi / 8)
    assert g.x2_nodes()[0] == -2.0
    assert list(g.j1_modes()) == [0, 1, 2, 3, -4, -3, -2, -1]


def test_build_problem_zero_contrast():
    wave = IncidentWave(k=0.5, d=(0.0, -1.0))
    contrast = slab_contrast(0.0, 1.0)
    grid = Grid(n1=8, n2=8, rho_box=1.5)
    problem = build_problem(wave, contrast, grid)
    assert np.all(problem.layout.samples == 0)
    assert problem.is_lossless()


@pytest.mark.parametrize("contrast, lossless", [
    (slab_contrast(3.0, 1.0), True),
    (slab_contrast(3.0 - 0.5j, 1.0), False),
    # the anisotropic cylinders of circle_anisotropic.ini: only q22 is lossy
    (circle_contrast(np.array([[1.2, 0.4], [0.4, 2.0 - 0.1j]]), 0.24 * np.pi),
     False),
    (two_layer_contrast(2.0, -1.5, 0.6, 1.2), True),
    (two_layer_contrast(2.0, -1.5 - 0.2j, 0.6, 1.2), False),
], ids=["slab", "lossy-slab", "anisotropic-circle", "two-layer",
        "lossy-two-layer"])
def test_is_lossless_agrees_with_the_sampled_grid(contrast, lossless):
    wave = IncidentWave.from_angle(0.4, 15.0)
    problem = build_problem(wave, contrast, Grid(n1=16, n2=32, rho_box=2.0))
    scan = float(np.max(np.abs(contrast.sample(*problem.grid.mesh()).imag)))
    assert problem.is_lossless() is lossless is (scan <= 0.0)


def test_build_problem_geometry_error():
    wave = IncidentWave(k=0.5, d=(0.0, -1.0))
    contrast = slab_contrast(1.0, 2.0)              # h = 1
    with pytest.raises(GeometryError):
        build_problem(wave, contrast, Grid(n1=8, n2=8, rho_box=1.5))
    with pytest.raises(GeometryError):
        build_problem(wave, contrast, Grid(n1=8, n2=8, rho_box=2.5),
                      rho_ref=0.5)                  # rho_ref below h


def test_build_problem_rejects_anomalous_wave():
    contrast = slab_contrast(1.0, 0.5)
    grid = Grid(n1=8, n2=8, rho_box=1.0)
    with pytest.raises(RayleighAnomaly):
        build_problem(IncidentWave(k=1.0, d=(0.0, -1.0)), contrast, grid)


@pytest.mark.parametrize("contrast", [slab_contrast(1.0, 0.5),
                                      circle_contrast(1.0, 0.3)],
                         ids=["layered", "2-D"])
def test_a_problem_is_clear_of_the_anomalies_when_built(contrast):
    # a Problem built directly, from a layout sampled without its wave,
    # checks the wave as build_problem does
    grid = Grid(n1=8, n2=8, rho_box=1.0)
    rho_ref, layout = sample_contrast(contrast, grid)
    with pytest.raises(RayleighAnomaly,
                       match="Rayleigh anomaly at order j=-1") as err:
        Problem(wave=IncidentWave(k=1.0, d=(0.0, -1.0)), contrast=contrast,
                grid=grid, rho_ref=rho_ref, layout=layout)
    assert err.value.order == -1
    Problem(wave=IncidentWave.from_angle(1.0, 10.0), contrast=contrast,
            grid=grid, rho_ref=rho_ref, layout=layout)


def test_build_problem_deterministic():
    wave = IncidentWave(k=0.7, d=(0.25 / 0.7, -np.sqrt(1 - (0.25 / 0.7) ** 2)))
    contrast = circle_contrast(2.0 + 0.5j, radius=0.8)
    grid = Grid(n1=16, n2=16, rho_box=1.8)
    p1 = build_problem(wave, contrast, grid)
    p2 = build_problem(wave, contrast, grid)
    assert np.array_equal(p1.layout.samples, p2.layout.samples)
    # sampling is pointwise: grid values equal the sampler exactly
    xx1, xx2 = grid.mesh()
    assert np.array_equal(p1.layout.samples, contrast.sample(xx1, xx2))


@pytest.mark.parametrize("contrast, layered, scalar", [
    (slab_contrast(3.0, 1.0), True, True),
    (two_layer_contrast(np.array([[2.0, 0.4], [0.4, 1.0]]), -2.0, 0.4, 0.6),
     True, False),
    (circle_contrast(3.0, 0.4), False, True),
    (circle_contrast(np.array([[2.0, 0.4], [0.4, 1.0 - 0.1j]]), 0.4), False,
     False),
    (rectangle_contrast(0.0, 1.0, 1.0), True, True),
], ids=["slab", "anisotropic-two-layer", "circle", "tensor-circle", "empty"])
def test_contrast_layout(contrast, layered, scalar):
    grid = Grid(n1=16, n2=32, rho_box=1.2)
    problem = build_problem(IncidentWave(k=0.7, d=(0.0, -1.0)), contrast, grid)
    layout = problem.layout
    rows = 1 if layered else 16
    assert layout.n_rows == rows
    full = contrast.sample(*grid.mesh())
    assert np.array_equal(layout.samples, full[:rows])
    # the natural FFT layout: node m sits half a box from sample m
    rolled = np.roll(layout.samples, (8, 16), axis=(0, 1))
    expected = rolled[..., 0, 0] if scalar else np.moveaxis(
        rolled, (2, 3), (0, 1))
    # the rolled samples at the nodes, and zeros at every other node
    held = np.zeros(expected.shape, dtype=complex)
    held.reshape(*held.shape[:-2], -1)[..., layout.nodes] = layout.q_nodes
    assert np.array_equal(held, expected)
    assert np.array_equal(layout.nodes, np.flatnonzero(
        expected if scalar else expected.any(axis=(0, 1))))
    assert np.array_equal(layout.x2, np.roll(grid.x2_nodes(), 16))
    assert np.array_equal(layout.support, np.flatnonzero(
        np.roll(full.any(axis=(0, 2, 3)), 16)))
    # shared by every solve of the sample, so never written
    for a in (layout.samples, layout.nodes, layout.q_nodes, layout.support,
              layout.x2):
        assert not a.flags.writeable


def test_support_violation_detected():
    bad = ContrastField(
        sampler=lambda x1, x2: np.ones(
            np.broadcast_shapes(np.shape(x1), np.shape(x2)) + (2, 2)
        ),
        h=0.1,
    )
    wave = IncidentWave(k=0.5, d=(0.0, -1.0))
    with pytest.raises(GeometryError):
        build_problem(wave, bad, Grid(n1=8, n2=8, rho_box=1.0))


BAD_SIZES = [0.0, -1.0, np.nan, np.inf]


@pytest.mark.parametrize("size", BAD_SIZES)
def test_slab_rejects_a_bad_thickness(size):
    with pytest.raises(GeometryError, match="slab thickness must be positive"):
        slab_contrast(3.0, size)


@pytest.mark.parametrize("size", BAD_SIZES)
def test_rectangle_rejects_a_bad_height(size):
    with pytest.raises(GeometryError,
                       match="rectangle height must be positive"):
        rectangle_contrast(3.0, 1.0, size)
    with pytest.raises(GeometryError, match="rectangle width"):
        rectangle_contrast(3.0, size, 1.0)


@pytest.mark.parametrize("size", BAD_SIZES)
def test_two_layer_rejects_a_bad_thickness(size):
    with pytest.raises(GeometryError,
                       match="lower layer thickness must be positive"):
        two_layer_contrast(2.0, -1.5, size, 0.6)
    with pytest.raises(GeometryError,
                       match="upper layer thickness must be positive"):
        two_layer_contrast(2.0, -1.5, 0.6, size)


@pytest.mark.parametrize("size", BAD_SIZES)
def test_circle_rejects_a_bad_radius(size):
    with pytest.raises(GeometryError, match="circle radius"):
        circle_contrast(3.0, size)


def test_incident_field_values():
    wave = IncidentWave(k=2.0, d=(0.0, -1.0))
    u, grad = incident_field(wave, [(0.0, 0.0), (0.7, 0.0)])
    assert u[0] == 1.0
    assert np.allclose(grad[0], 1j * 2.0 * np.array([0.0, -1.0]))
    assert np.isclose(u[1], 1.0)                    # x1-independent at normal incidence


def test_incident_quasi_periodicity():
    wave = IncidentWave.from_angle(1.3, 25.0)
    u, _ = incident_field(wave, [(np.pi, 0.3), (-np.pi, 0.3)])
    ratio = u[0] / u[1]
    assert np.isclose(ratio, np.exp(2j * np.pi * wave.alpha), atol=1e-12)


def test_incident_gradient_matches_finite_differences():
    wave = IncidentWave.from_angle(1.1, -35.0)
    x0 = np.array([0.4, -0.2])
    _, grad = incident_field(wave, x0)
    errs = []
    for step in (1e-3, 5e-4):
        num = np.empty(2, dtype=complex)
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = step
            up, _ = incident_field(wave, x0 + e)
            dn, _ = incident_field(wave, x0 - e)
            num[axis] = (up - dn) / (2 * step)
        errs.append(np.max(np.abs(num - grad)))
    assert errs[0] < 1e-5
    assert errs[1] < errs[0] / 3.5                  # roughly quadratic


def test_shape_builders():
    grid = Grid(n1=8, n2=16, rho_box=1.5)
    slab = slab_contrast(3.0, 1.0)
    assert slab.h == 0.5 and sample_contrast(slab, grid)[1].real_scalar
    assert np.allclose(slab.sample(np.array(0.0), np.array(0.0)),
                       3.0 * np.eye(2))
    assert np.all(slab.sample(np.array(0.0), np.array(0.6)) == 0)
    # interface node gets the midpoint value
    assert np.allclose(slab.sample(np.array(1.0), np.array(0.5)),
                       1.5 * np.eye(2))

    circ = circle_contrast(np.array([[2.0, 0.5], [0.5, 1.0]]), radius=0.7)
    assert circ.h == 0.7 and not sample_contrast(circ, grid)[1].real_scalar
    # periodic wrap in x1
    a = circ.sample(np.array(0.1), np.array(0.0))
    b = circ.sample(np.array(0.1 + 2 * np.pi), np.array(0.0))
    assert np.array_equal(a, b)

    rect = rectangle_contrast(1.0 + 1.0j, width=2.0, height=0.8)
    assert rect.h == 0.4
    assert np.all(rect.sample(np.array(1.5), np.array(0.0)) == 0)

    layered = two_layer_contrast(2.0, -1.5, 0.4, 0.6)
    assert layered.h == 0.5
    low = layered.sample(np.array(0.0), np.array(-0.3))
    high = layered.sample(np.array(0.0), np.array(0.3))
    assert np.allclose(low, 2.0 * np.eye(2))
    assert np.allclose(high, -1.5 * np.eye(2))


@pytest.mark.parametrize("shape, real_scalar", [
    (lambda path: slab_contrast(3.0, 1.0), True),
    (lambda path: slab_contrast(3.0 - 0.5j, 1.0), False),
    (lambda path: two_layer_contrast(-2.0, 3.0 * np.eye(2), 0.4, 0.6), True),
    (lambda path: rectangle_contrast(np.diag([2.0, 1.0]), 1.0, 0.6), False),
    (lambda path: raster_contrast(path), True),
], ids=["slab", "lossy-slab", "two-layer", "anisotropic-rectangle",
        "raster"])
def test_real_scalar_is_read_from_the_samples(tmp_path, shape, real_scalar):
    # a raster of real scalar cells is isotropic too: nothing declares it
    cells = np.zeros((8, 16, 2, 2), dtype=complex)
    cells[:, 6:10] = -4.0 * np.eye(2)
    path = tmp_path / "scalar.bin"
    write_raster(path, cells, h=0.5, rho=1.0)
    grid = Grid(n1=8, n2=16, rho_box=1.0)
    _, layout = sample_contrast(shape(path), grid)
    assert layout.real_scalar is real_scalar


def test_raster_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    cells = rng.standard_normal((8, 16, 2, 2)) + 1j * rng.standard_normal(
        (8, 16, 2, 2)
    )
    cells[..., 1, 0] = cells[..., 0, 1]
    # zero the outer rows so the declared support height holds
    cells[:, :3] = 0
    cells[:, -3:] = 0
    path = tmp_path / "contrast.bin"
    write_raster(path, cells, h=0.5, rho=1.0)
    field = raster_contrast(path)
    assert field.h == 0.5
    # nearest-cell lookup at a cell center
    x1 = -np.pi + (2 * np.pi) * (2.5 / 8)
    x2 = -1.0 + 2.0 * (8.5 / 16)
    got = field.sample(np.array(x1), np.array(x2))
    assert np.allclose(got, cells[2, 8])
    assert np.all(field.sample(np.array(0.0), np.array(0.9)) == 0)


def test_raster_rejects_bad_shape(tmp_path):
    with pytest.raises(ShapeMismatch):
        write_raster(tmp_path / "x.bin", np.zeros((4, 4, 3, 2)), 0.5, 1.0)


_EXTENT = "raster extent needs 0 <= h <= rho and rho > 0"


def _raster_bytes(n1, n2, h, rho, body_cells=None):
    cells = n1 * n2 if body_cells is None else body_cells
    return (b"VIGR" + struct.pack("<qq", n1, n2) + struct.pack("<dd", h, rho)
            + bytes(64 * cells))


@pytest.mark.parametrize("content, cause", [
    (b"NOPE" + bytes(40), "not a contrast raster file"),
    (b"VIGR\x01\x00", "raster header is 6 bytes, expected 36"),
    (_raster_bytes(0, 0, 0.5, 1.0, 0), "raster size 0 x 0 has no cells"),
    (_raster_bytes(-1, 4, 0.5, 1.0, 0), "raster size -1 x 4 has no cells"),
    (_raster_bytes(2, 2, float("nan"), 1.0), _EXTENT + ", got h=nan, rho=1.0"),
    (_raster_bytes(2, 2, 0.5, float("inf")), _EXTENT + ", got h=0.5, rho=inf"),
    (_raster_bytes(2, 2, -0.5, 1.0), _EXTENT + ", got h=-0.5, rho=1.0"),
    (_raster_bytes(2, 2, 1.5, 1.0), _EXTENT + ", got h=1.5, rho=1.0"),
    (_raster_bytes(2, 2, 0.0, 0.0), _EXTENT + ", got h=0.0, rho=0.0"),
    (_raster_bytes(2 ** 32, 2 ** 32, 0.5, 1.0, 0),
     "raster body is 0 bytes, but 4294967296 x 4294967296 cells need "
     f"{2 ** 70}"),
    (_raster_bytes(2, 2, 0.5, 1.0, 3),
     "raster body is 192 bytes, but 2 x 2 cells need 256"),
    (_raster_bytes(2, 2, 0.5, 1.0, 5),
     "raster body is 320 bytes, but 2 x 2 cells need 256"),
], ids=["bad-magic", "short-header", "zero-size", "negative-size",
        "nan-h", "infinite-rho", "negative-h", "h-above-rho", "zero-rho",
        "huge-size", "truncated-body", "long-body"])
def test_raster_rejects_malformed_file(tmp_path, content, cause):
    path = tmp_path / "bad.bin"
    path.write_bytes(content)
    with pytest.raises(GeometryError) as info:
        raster_contrast(path)
    assert str(info.value) == f"{path}: {cause}"


@pytest.mark.parametrize("contrast", [
    slab_contrast(3.0, 1.0),
    slab_contrast(3.0 - 0.5j, 1.0),
    two_layer_contrast(np.array([[2.0, 0.4], [0.4, 1.0]]), -2.0 - 0.3j,
                       0.4, 0.6),
], ids=["slab", "lossy-slab", "anisotropic-two-layer"])
def test_x1_invariant_contrast_is_sampled_on_one_row(contrast):
    assert contrast.x1_invariant
    grid = Grid(n1=16, n2=32, rho_box=1.2)
    problem = build_problem(IncidentWave(k=0.7, d=(0.0, -1.0)), contrast, grid)
    full = contrast.sample(*grid.mesh())
    layout, reference = problem.layout, ContrastLayout(full, grid)
    # one read-only row, which broadcasts to the samples of the full mesh
    assert layout.samples.shape == (1, 32, 2, 2)
    assert not layout.samples.flags.writeable
    assert np.array_equal(np.broadcast_to(layout.samples, full.shape), full)
    assert layout.n_rows == reference.n_rows == 1
    for name in ("samples", "nodes", "q_nodes", "support", "x2"):
        assert np.array_equal(getattr(layout, name), getattr(reference, name))


def test_sampling_a_slab_allocates_no_full_grid():
    grid = Grid(n1=256, n2=256, rho_box=1.2)
    contrast = slab_contrast(3.0, 1.0)
    sample_contrast(contrast, grid)             # warm-up
    tracemalloc.start()
    try:
        sample_contrast(contrast, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one complex (N1, N2) array: the samples of a full mesh hold four
    assert peak < grid.n1 * grid.n2 * 16


TENSOR = np.array([[2.0, 0.4], [0.4, 1.0 - 0.1j]])


def test_a_2d_layout_holds_nothing_sized_by_the_grid():
    grid = Grid(n1=64, n2=64, rho_box=1.7)
    layout = build_problem(IncidentWave.from_angle(0.8, 10.0),
                           circle_contrast(TENSOR, 0.8), grid).layout
    assert layout.n_rows == 64
    held = [a for a in vars(layout).values() if isinstance(a, np.ndarray)]
    # nodes, q_nodes, support and x2
    assert len(held) == 4 and layout.q_nodes.shape[:2] == (2, 2)
    for a in held:
        assert a.size < grid.n1 * grid.n2
    assert not hasattr(layout, "q")
    # the node-order samples are built on each read, never kept
    assert layout.samples is not layout.samples
    assert "samples" not in vars(layout)


def test_sampling_a_tensor_circle_holds_its_samples_once():
    grid = Grid(n1=256, n2=256, rho_box=1.7)
    contrast = circle_contrast(TENSOR, 0.8)
    sample_contrast(contrast, grid)             # warm-up
    tracemalloc.start()
    try:
        sample_contrast(contrast, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the sampler's output, N1 N2 2x2 complex samples, and its own
    # transients measured 1.46 times the output; a second copy of the
    # samples, rolled onto the FFT layout, made it 3.1
    assert peak < 2 * grid.n1 * grid.n2 * 64


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf * 1j],
                         ids=["nan", "inf", "imaginary-inf"])
def test_a_non_finite_sample_is_rejected_naming_its_node(value):
    def sampler(x1, x2):
        x1, x2 = np.broadcast_arrays(x1, x2)
        q = np.zeros(x1.shape + (2, 2), dtype=complex)
        q[np.abs(x2) < 0.3, 0, 0] = q[np.abs(x2) < 0.3, 1, 1] = value
        return q

    # non-finite beyond h as well: that is reported before the support
    for h in (0.3, 0.1):
        contrast = ContrastField(sampler=sampler, h=h)
        with pytest.raises(GeometryError, match=r"non-finite contrast .* at "
                           r"node \(0, 6\), \(x1, x2\) = \(-3.14159, -0.25\)"):
            build_problem(IncidentWave(k=0.5, d=(0.0, -1.0)), contrast,
                          Grid(n1=8, n2=16, rho_box=1.0))


def test_a_grid_coarser_than_half_a_material_wavelength_is_rejected():
    # vacuum orders |j + alpha| < 1 fit n1 = 8, but in q = 99 the
    # wavelength is 2 pi / 10
    wave = IncidentWave.from_angle(1.0, 10.0)
    circle = circle_contrast(99.0, 1.0)
    with pytest.raises(Underresolved) as info:
        build_problem(wave, circle, Grid(n1=8, n2=64, rho_box=2.0))
    assert str(info.value) == (
        "n1 = 8 holds 0.8 nodes per material wavelength on x1, fewer than "
        "2; n1 = 32 is the smallest grid that holds 2")
    assert build_problem(wave, circle, Grid(n1=32, n2=64, rho_box=2.0))
    # a layered contrast couples no x1 orders: x2 alone is counted
    slab = build_problem(wave, slab_contrast(99.0, 1.0),
                         Grid(n1=8, n2=64, rho_box=2.0))
    assert slab.layout.n_rows == 1
    with pytest.raises(Underresolved, match="n2 = 8 holds 1.26 nodes per "
                       "material wavelength on x2.*n2 = 16 is the smallest"):
        build_problem(wave, slab_contrast(99.0, 1.0),
                      Grid(n1=8, n2=8, rho_box=2.0))


@pytest.mark.parametrize("q, max_eig", [
    (3.0 - 4.0j, abs(4.0 - 4.0j)),
    (-0.5, 1.0),                                # |1 + q| < 1: vacuum sets it
    (np.array([[2.0, 1.0], [1.0, 2.0]]), 4.0),  # eigenvalues 2 and 4 of I + Q
    (np.array([[1e200, 0.0], [0.0, 1.0]]), 1e200),
], ids=["scalar", "below-vacuum", "tensor", "huge"])
def test_max_eig_is_that_of_i_plus_q(q, max_eig):
    _, layout = sample_contrast(slab_contrast(q, 1.0),
                                Grid(n1=8, n2=16, rho_box=1.0))
    assert layout.max_eig == pytest.approx(max_eig, rel=1e-14)


def test_a_grid_near_the_minimum_warns(caplog):
    # 2 pi / 10 is 10 nodes on x2 at n2 = 64, 5 at 32 and 2.5 at 16
    wave = IncidentWave.from_angle(1.0, 10.0)
    for n2, count in ((64, None), (32, "5.03"), (16, "2.51")):
        caplog.clear()
        grid = Grid(n1=8, n2=n2, rho_box=2.0)
        _, layout = sample_contrast(slab_contrast(99.0, 1.0), grid)
        check_resolution(wave, grid, layout)
        expected = [] if count is None else [
            f"n2 = {n2} holds {count} nodes per material wavelength on x2; "
            f"below {WARN_NODES_PER_WAVELENGTH:g} the efficiencies may be "
            "inaccurate"]
        assert [r.getMessage() for r in caplog.records] == expected
        assert all(r.levelname == "WARNING" for r in caplog.records)
