import numpy as np
import pytest

from vigrating.errors import ShapeMismatch, SizeGuard
from vigrating.kernel import kernel_table
from vigrating.operators import (
    BOX_RATIO,
    OperatorStack,
    SpectralField,
    VectorSpectralField,
    apply_forward,
    assemble_dense,
    div_potential,
    evaluate,
    grad_spectral,
    operator_entries,
    pointwise_matrix_product,
    support_box,
    to_physical,
    to_spectral,
    volume_potential,
)
from vigrating.oracle import bump, dense_quadrature_potential
from vigrating.problem import (
    Grid,
    IncidentWave,
    Problem,
    build_problem,
    circle_contrast,
    incident_field,
    rectangle_contrast,
    sample_contrast,
    slab_contrast,
)

from conftest import basis_field


def _wave(k, alpha):
    return IncidentWave(k=k, d=(alpha / k, -np.sqrt(1 - (alpha / k) ** 2)))


def test_roundtrip_and_parseval():
    rng = np.random.default_rng(0)
    grid = Grid(n1=16, n2=32, rho_box=1.7)
    v = rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32))
    f = to_spectral(v, grid, alpha=0.3)
    back = to_physical(f)
    assert np.linalg.norm(back - v) / np.linalg.norm(v) < 1e-12
    quad_norm = np.sqrt(np.sum(np.abs(v) ** 2) * grid.cell_area)
    assert abs(quad_norm - f.norm()) / f.norm() < 1e-12


def test_constant_field_coefficient():
    grid = Grid(n1=8, n2=8, rho_box=2.2)
    f = to_spectral(np.ones((8, 8)), grid, alpha=0.0)
    expected = np.sqrt(4 * np.pi * grid.rho_box)
    assert abs(f.coeffs[0, 0] - expected) < 1e-12
    rest = f.coeffs.copy()
    rest[0, 0] = 0
    assert np.abs(rest).max() < 1e-12 * expected


def test_single_mode_is_delta():
    grid = Grid(n1=16, n2=16, rho_box=1.0)
    phi = basis_field(grid, 0.25, 2, 1)
    f = to_spectral(to_physical(phi), grid, 0.25)
    diff = f.coeffs - phi.coeffs
    assert np.abs(diff).max() < 1e-12


def test_shape_mismatch():
    grid = Grid(n1=8, n2=8, rho_box=1.0)
    with pytest.raises(ShapeMismatch):
        to_spectral(np.ones((8, 4)), grid, 0.0)
    with pytest.raises(ShapeMismatch):
        SpectralField(np.zeros((4, 8), dtype=complex), grid, 0.0)


def test_frequency_order_map():
    grid = Grid(n1=8, n2=16, rho_box=1.0)
    assert list(grid.j1_modes()) == [0, 1, 2, 3, -4, -3, -2, -1]
    assert grid.j2_modes()[8] == -8
    # storage convention: coefficient [j1 % n1, j2 % n2] is mode (j1, j2)
    phi = basis_field(grid, 0.0, -3, 5)
    samples = to_physical(phi)
    xx1, xx2 = grid.mesh()
    manual = np.exp(1j * (-3) * xx1 + 1j * 5 * np.pi * xx2 / grid.rho_box)
    manual /= np.sqrt(4 * np.pi * grid.rho_box)
    assert np.abs(samples - manual).max() < 1e-13


def test_gradient_multipliers():
    grid = Grid(n1=16, n2=16, rho_box=1.4)
    phi = basis_field(grid, 0.0, 1, 0)
    g = grad_spectral(phi)
    assert np.abs(g.g1.coeffs - 1j * phi.coeffs).max() < 1e-15
    assert np.abs(g.g2.coeffs).max() == 0.0
    const = to_spectral(np.ones((16, 16)), grid, 0.0)
    gc = grad_spectral(const)
    assert np.abs(gc.g1.coeffs).max() < 1e-14
    assert np.abs(gc.g2.coeffs).max() < 1e-14


def test_grad_then_div_is_laplacian():
    grid = Grid(n1=8, n2=8, rho_box=1.2)
    alpha = 0.2
    wave = _wave(0.9, alpha)
    table = kernel_table(grid, wave)
    rng = np.random.default_rng(1)
    u = SpectralField(
        rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)),
        grid, alpha,
    )
    out = div_potential(grad_spectral(u), table)
    aj = (grid.j1_modes() + alpha)[:, None]
    mu = (grid.j2_modes() * np.pi / grid.rho_box)[None, :]
    lap = -(aj**2 + mu**2)
    expected = np.sqrt(4 * np.pi * grid.rho_box) * table.coeffs * lap * u.coeffs
    assert np.abs(out.coeffs - expected).max() < 1e-12


def test_volume_potential_eigenfunction_property():
    grid = Grid(n1=8, n2=8, rho_box=1.0)
    wave = _wave(0.9, 0.2)
    table = kernel_table(grid, wave)
    zero = volume_potential(basis_field(grid, 0.2, 0, 0).replace(
        np.zeros((8, 8), dtype=complex)), table)
    assert np.abs(zero.coeffs).max() == 0.0
    for (j1, j2) in [(0, 0), (2, -1), (-3, 3)]:
        phi = basis_field(grid, 0.2, j1, j2)
        out = volume_potential(phi, table)
        expected = np.sqrt(4 * np.pi) * table.coeffs[j1 % 8, j2 % 8]
        assert abs(out.coeffs[j1 % 8, j2 % 8] - expected) < 1e-14
        rest = out.coeffs.copy()
        rest[j1 % 8, j2 % 8] = 0
        assert np.abs(rest).max() == 0.0


def test_volume_potential_against_quadrature_n8():
    # eigenfunction property cross-checked against the series quadrature on
    # a strip-supported source with safe midline targets
    rho, k, alpha = 1.0, 0.9, 0.2
    grid = Grid(n1=8, n2=8, rho_box=rho)
    wave = _wave(k, alpha)
    xx1, xx2 = grid.mesh()
    g = bump((xx2 - 0.5) / 0.35) * np.exp(1j * alpha * xx1)
    g[np.abs(g) < 1e-13] = 0.0
    out = volume_potential(to_spectral(g, grid, alpha), kernel_table(grid, wave))
    targets = np.array([[0.3, 0.0], [-1.1, 0.0], [2.0, 0.0]])
    spec_vals = evaluate(out, targets)
    quad_vals = dense_quadrature_potential(g, grid, alpha, k, targets,
                                           refine=(32, 32))
    assert np.max(np.abs(spec_vals - quad_vals) / np.abs(quad_vals)) < 1e-6


def test_apply_forward_identity_when_zero_contrast():
    wave = _wave(0.7, 0.1)
    contrast = slab_contrast(0.0, 1.0)
    grid = Grid(n1=8, n2=16, rho_box=1.0)
    problem = build_problem(wave, contrast, grid)
    table = kernel_table(grid, wave)
    rng = np.random.default_rng(2)
    u = SpectralField(
        rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16)),
        grid, wave.alpha,
    )
    out = apply_forward(u, problem, table)
    assert np.abs(out.coeffs - u.coeffs).max() == 0.0


def _random_problem(n1=8, n2=8, seed=3):
    rng = np.random.default_rng(seed)
    wave = _wave(0.8, 0.15)
    grid = Grid(n1=n1, n2=n2, rho_box=1.0)
    h = 0.45
    entries = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))

    def sampler(x1, x2):
        x1 = np.asarray(x1, float)
        x2 = np.asarray(x2, float)
        shape = np.broadcast_shapes(x1.shape, x2.shape)
        out = np.zeros(shape + (2, 2), dtype=complex)
        inside = np.broadcast_to(np.abs(x2) < h, shape)
        base = np.zeros(shape, dtype=complex)
        for p in range(4):
            for q in range(4):
                base = base + entries[0, p, q] * np.exp(
                    1j * (p - 1) * x1 + 1j * q * x2
                )
        # three independent symmetric entries
        for idx, (i, j) in enumerate([(0, 0), (0, 1), (1, 1)]):
            comp = np.zeros(shape, dtype=complex)
            for p in range(4):
                for q in range(4):
                    comp = comp + entries[idx, p, q] * np.exp(
                        1j * (p - 1) * x1 + 1j * q * x2
                    )
            out[..., i, j] = np.where(inside, 0.3 * comp, 0.0)
        out[..., 1, 0] = out[..., 0, 1]
        return out

    from vigrating.problem import ContrastField

    contrast = ContrastField(sampler=sampler, h=h)
    problem = build_problem(wave, contrast, grid)
    return problem, kernel_table(grid, wave)


def test_apply_forward_linearity():
    problem, table = _random_problem()
    rng = np.random.default_rng(4)
    shape = (8, 8)
    u = SpectralField(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                      problem.grid, problem.alpha)
    v = SpectralField(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                      problem.grid, problem.alpha)
    lhs = apply_forward(u.replace(u.coeffs + v.coeffs), problem, table)
    rhs = apply_forward(u, problem, table).coeffs + apply_forward(
        v, problem, table).coeffs
    assert np.abs(lhs.coeffs - rhs).max() < 1e-12 * np.abs(rhs).max()


def test_dense_assembly_matches_matrix_free():
    problem, table = _random_problem()
    mat = assemble_dense(problem, table)
    rng = np.random.default_rng(5)
    for _ in range(10):
        vec = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        u = SpectralField(vec.reshape(8, 8), problem.grid, problem.alpha)
        direct = apply_forward(u, problem, table).coeffs.reshape(-1)
        assert np.abs(mat @ vec - direct).max() < 1e-12 * np.abs(direct).max()


def test_dense_assembly_identity_for_zero_contrast():
    wave = _wave(0.7, 0.1)
    problem = build_problem(wave, slab_contrast(0.0, 1.0),
                            Grid(n1=8, n2=8, rho_box=1.0))
    table = kernel_table(problem.grid, wave)
    mat = assemble_dense(problem, table)
    assert np.abs(mat - np.eye(64)).max() == 0.0


def test_dense_assembly_size_guard():
    wave = _wave(0.7, 0.1)
    problem = build_problem(wave, slab_contrast(1.0, 1.0),
                            Grid(n1=128, n2=64, rho_box=1.0))
    table = kernel_table(problem.grid, wave)
    with pytest.raises(SizeGuard):
        assemble_dense(problem, table)


def test_support_perturbation_stability():
    problem, table = _random_problem()
    rng = np.random.default_rng(6)
    shape = (8, 8)
    u = SpectralField(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                      problem.grid, problem.alpha)
    base = apply_forward(u, problem, table).coeffs
    dirt = u.replace(u.coeffs + 1e-16 * rng.standard_normal(shape))
    wobble = apply_forward(dirt, problem, table).coeffs
    assert np.abs(wobble - base).max() < 1e-13 * np.abs(base).max()


def test_evaluate_matches_samples():
    grid = Grid(n1=8, n2=8, rho_box=1.1)
    rng = np.random.default_rng(8)
    v = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    f = to_spectral(v, grid, 0.4)
    xx1, xx2 = grid.mesh()
    pts = np.stack([xx1, xx2], axis=-1)
    assert np.abs(evaluate(f, pts) - v).max() < 1e-12


def test_apply_forward_bitwise_reproducible():
    problem, table = _random_problem()
    rng = np.random.default_rng(11)
    u = SpectralField(
        rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)),
        problem.grid, problem.alpha,
    )
    first = apply_forward(u, problem, table).coeffs
    second = apply_forward(u, problem, table).coeffs
    assert np.array_equal(first, second)


def test_physical_samples_quasi_periodic():
    grid = Grid(n1=8, n2=8, rho_box=1.0)
    alpha = 0.31
    rng = np.random.default_rng(12)
    f = SpectralField(
        rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)),
        grid, alpha,
    )
    x2 = 0.25
    left = evaluate(f, np.array([[0.4, x2]]))
    right = evaluate(f, np.array([[0.4 + 2 * np.pi, x2]]))
    assert abs(right[0] - np.exp(2j * np.pi * alpha) * left[0]) < 1e-12


def _equivalence_problem(kind):
    if kind == "random-anisotropic":
        return _random_problem(n1=16, n2=32)
    wave = _wave(0.8, 0.15)
    if kind == "isotropic":
        contrast, grid = slab_contrast(3.0, 1.0), Grid(n1=16, n2=64, rho_box=1.1)
    elif kind == "lossy":
        contrast, grid = slab_contrast(3.0 - 0.5j, 1.0), Grid(16, 64, 1.1)
    else:
        q = np.array([[2.0, 0.4], [0.4, 1.0]])
        if kind == "lossy-anisotropic":
            q = q - np.array([[0.3j, 0.0], [0.0, 0.1j]])
        contrast, grid = circle_contrast(q, 0.8), Grid(n1=64, n2=64, rho_box=1.7)
    return build_problem(wave, contrast, grid), kernel_table(grid, wave)


EQUIVALENCE_KINDS = ("isotropic", "lossy", "anisotropic", "lossy-anisotropic",
                     "random-anisotropic")


@pytest.mark.parametrize("kind", EQUIVALENCE_KINDS)
def test_discretization_matches_public_composition(kind):
    problem, table = _equivalence_problem(kind)
    grid, alpha = problem.grid, problem.alpha
    stack = OperatorStack([problem], [table])
    # u fills all N1 rows: a layered contrast applies them on a stack of N1
    # rows
    full = OperatorStack([problem], [table], grid.n1)
    rng = np.random.default_rng(13)
    shape = (grid.n1, grid.n2)
    u = SpectralField(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                      grid, alpha)
    qg = pointwise_matrix_product(problem.layout.samples, grad_spectral(u))
    expected = u.coeffs - div_potential(qg, table).coeffs
    got = full.apply_field(u.coeffs[None])[0]
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
    # the buffer is reused: a second application gives the same bits
    assert np.array_equal(full.apply_field(u.coeffs[None])[0], got)

    xx1, xx2 = grid.mesh()
    _, grad_i = incident_field(problem.wave, np.stack([xx1, xx2], axis=-1))
    grad_i = VectorSpectralField(g1=to_spectral(grad_i[..., 0], grid, alpha),
                                 g2=to_spectral(grad_i[..., 1], grid, alpha))
    f = pointwise_matrix_product(problem.layout.samples, grad_i)
    rhs = div_potential(f, table).coeffs
    # rhs is the incident density Q grad u^i, whose potential div V is
    # the field right-hand side on the n_rows coupled rows; the reference
    # vanishes past them
    bound = 1e-13 * np.abs(rhs).max()
    assert np.abs(stack.potential(stack.rhs)[0]
                  - rhs[:stack.rows]).max() <= bound
    assert np.abs(rhs[stack.rows:]).max(initial=0.0) <= bound


@pytest.mark.parametrize("kind", ["one-row", "2-d-tensor"])
def test_density_operator_pushes_through_to_the_field_operator(kind):
    # div V (z - Q grad div V z) = (I - div V Q grad)(div V z): the density
    # operator I - MTD and the field operator I - DMT, with D = div V,
    # M = Q and T = grad, agree through D
    if kind == "one-row":
        wave = _wave(0.8, 0.15)
        grid = Grid(n1=16, n2=64, rho_box=1.1)
        contrast = slab_contrast(3.0 - 0.5j, 1.0)
    else:
        wave = _wave(0.8, 0.15)
        grid = Grid(n1=64, n2=64, rho_box=1.7)
        q = np.array([[2.0, 0.4], [0.4, 1.0]]) - np.array([[0.3j, 0.0],
                                                          [0.0, 0.1j]])
        contrast = circle_contrast(q, 0.8)
    problem = build_problem(wave, contrast, grid)
    stack = OperatorStack([problem], [kernel_table(grid, wave)])
    assert stack.rows == (1 if kind == "one-row" else grid.n1)
    n = 2 * len(problem.layout.nodes)
    rng = np.random.default_rng(21)
    for _ in range(3):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        product = stack.apply([z]).reshape(-1)
        # potential returns a view of the work buffer the operators reuse
        got = stack.potential(product).copy()
        expected = stack.apply_field(stack.potential(z).copy())
        assert (np.abs(got - expected).max()
                <= 1e-13 * np.abs(expected).max())


# ----------------------------------------------------------------------------
# the support-box route of the density operator

TENSOR = np.array([[2.0, 0.4], [0.4, 1.0]]) - np.array([[0.3j, 0.0],
                                                       [0.0, 0.1j]])


def _box_problem(kind, wave=None):
    wave = wave or _wave(0.8, 0.15)
    if kind == "negative":
        # the q = -5 circle of radius 0.2 periods at 64^2, rho_box 2h
        contrast = circle_contrast(-5.0, 0.4 * np.pi)
        grid = Grid(n1=64, n2=64, rho_box=0.8 * np.pi)
    elif kind == "lossy":
        contrast, grid = circle_contrast(3.0 - 0.5j, 0.8), Grid(32, 64, 1.7)
    elif kind == "tensor":
        contrast, grid = circle_contrast(TENSOR, 0.8), Grid(64, 64, 1.7)
    else:
        # a box of more than N1/2 rows: its products need more room than
        # the work buffer
        contrast = rectangle_contrast(3.0, 1.6 * np.pi, 1.0)
        grid = Grid(n1=16, n2=16, rho_box=1.1)
    return build_problem(wave, contrast, grid), kernel_table(grid, wave)


BOX_KINDS = ("negative", "lossy", "tensor", "wide")


@pytest.mark.parametrize("kind", BOX_KINDS)
def test_the_box_route_is_the_fft_route(kind):
    problem, table = _box_problem(kind)
    grid = problem.grid
    stack = OperatorStack([problem], [table])
    rows, cols = stack.box
    assert len(rows) < grid.n1 and len(cols) < grid.n2
    assert (2 * len(rows) > grid.n1) == (kind == "wide")
    fft = OperatorStack([problem], [table])
    fft.box = None
    rng = np.random.default_rng(5)
    n = 2 * len(problem.layout.nodes)
    for _ in range(3):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got, expected = stack.apply([z]), fft.apply([z])
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
        # the FFT-side operators read the same buffer, and agree with the
        # box route through the potential
        assert np.array_equal(stack.potential(z), fft.potential(z))


@pytest.mark.parametrize("kind", BOX_KINDS)
def test_the_field_operator_keeps_the_ffts_on_the_box_route(kind,
                                                             monkeypatch):
    problem, table = _box_problem(kind)
    grid = problem.grid
    stack = OperatorStack([problem], [table])
    assert stack.box is not None and stack.rows == grid.n1

    def refuse(self, z):
        raise AssertionError("the residual check must not take the box route")

    monkeypatch.setattr(OperatorStack, "_box_gradient", refuse)
    rng = np.random.default_rng(21)
    shape = (grid.n1, grid.n2)
    u = SpectralField(rng.standard_normal(shape)
                      + 1j * rng.standard_normal(shape), grid, problem.alpha)
    qg = pointwise_matrix_product(problem.layout.samples, grad_spectral(u))
    expected = u.coeffs - div_potential(qg, table).coeffs
    got = stack.apply_field(u.coeffs[None])[0]
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_a_2d_stack_of_two_is_bitwise_its_stacks_of_one():
    grid = Grid(n1=64, n2=64, rho_box=1.7)
    contrast = circle_contrast(TENSOR, 0.8)
    rho_ref, layout = sample_contrast(contrast, grid)
    waves = [_wave(0.8, 0.15), _wave(1.1, -0.3)]
    problems = [Problem(wave=w, contrast=contrast, grid=grid,
                        rho_ref=rho_ref, layout=layout) for w in waves]
    tables = [kernel_table(grid, w) for w in waves]
    stack = OperatorStack(problems, tables)
    assert stack.box is not None
    rng = np.random.default_rng(8)
    n = 2 * len(layout.nodes)
    z = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
         for _ in waves]
    both = stack.apply(z)
    for i, (problem, table) in enumerate(zip(problems, tables)):
        alone = OperatorStack([problem], [table]).apply([z[i]])
        assert np.array_equal(both[i], alone[0])
    # a stack taken from it keeps the rows of its x1 DFT matrices
    assert np.array_equal(stack.take([1]).apply([z[1]])[0], both[1])


@pytest.mark.parametrize("n, radius, rho_box, box", [
    (64, 0.2, None, True),          # neg-circle: count ratio 3.2
    (128, 0.12, 0.3, True),         # circle_anisotropic: 3.1
    (128, 0.2, None, False),        # 5.5
    (256, 0.2, None, False),        # 9.7
])
def test_the_route_is_chosen_from_the_support_box_counts(n, radius, rho_box,
                                                         box):
    # radius and rho_box in periods, rho_box 2h by default, as in a config
    contrast = circle_contrast(-5.0, 2 * np.pi * radius)
    grid = Grid(n1=n, n2=n, rho_box=(2 * np.pi * rho_box if rho_box
                                     else 2 * contrast.h))
    _, layout = sample_contrast(contrast, grid)
    rows = np.unique(layout.nodes // n)
    ratio = len(rows) * (len(layout.support) + n) / (n * np.log2(n * n))
    assert (ratio <= BOX_RATIO) == box
    chosen = support_box(layout.nodes, n, n)
    assert (chosen is not None) == box
    if box:
        assert np.array_equal(chosen[0], rows)
        assert np.array_equal(chosen[1], layout.support)
    # one row always transforms with the FFTs
    assert support_box(layout.nodes % n, 1, n) is None


@pytest.mark.parametrize("kind", ["negative", "wide", "one-row"])
def test_the_memory_estimate_counts_what_the_stack_holds(kind):
    if kind == "one-row":
        wave = _wave(0.8, 0.15)
        grid = Grid(n1=16, n2=64, rho_box=1.1)
        problem = build_problem(wave, slab_contrast(3.0, 1.0), grid)
        table = kernel_table(grid, wave, 1)
    else:
        problem, table = _box_problem(kind)
    stack = OperatorStack([problem], [table])
    stack.apply([stack.rhs[0]])
    held = stack.buffer.nbytes
    if stack.box is not None:
        held += sum(m.nbytes for m in (*stack.x2_dft, *stack.x1_dft))
    assert held == 16 * operator_entries(problem.layout, problem.grid)
    # the FFT-side operators work in the same buffer
    stack.potential(stack.rhs)
    assert stack.work.base is stack.buffer
