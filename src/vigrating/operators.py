"""Matrix-free spectral application of the volume potential, the strongly
singular field operator A: v -> v - div V(Q grad v) and the density operator
z -> z - Q grad div V z, which the solve runs on.

All fields live on the quasi-periodic basis

    phi_j(x) = exp(i (j1 + alpha) x1 + i j2 pi x2 / rho) / sqrt(4 pi rho),

whose coefficients are reached from collocation samples by stripping the
exp(i alpha x1) phase and applying an FFT.  Convolution with the periodized
kernel is diagonal on this basis with multiplier sqrt(4 pi rho) * K_hat(j).

The functions on SpectralField are the reference transforms; the solve path
runs on an OperatorStack, which checks its points (one solve, or a sweep
batch) and holds what their solves apply repeatedly.  The density
z = Q grad(u^s + u^i) vanishes off the support nodes of the contrast, so it
is held there alone; one application of the density operator scatters it
onto the grid, takes one batched forward FFT for div V and one inverse FFT
for the gradient, and gathers the product back.  The field operator A, one
inverse and one forward FFT on all the coefficients, is the independent
check of the solve's residual.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import ShapeMismatch, SizeGuard
from .kernel import KernelTable
from .problem import Grid, Problem

DENSE_GUARD = 4096


@dataclass(frozen=True)
class SpectralField:
    """Complex coefficient array (FFT order) on the quasi-periodic basis."""

    coeffs: np.ndarray = field(repr=False)
    grid: Grid
    alpha: float

    def __post_init__(self):
        if self.coeffs.shape != (self.grid.n1, self.grid.n2):
            raise ShapeMismatch(
                f"coefficients {self.coeffs.shape} do not match grid "
                f"({self.grid.n1}, {self.grid.n2})"
            )

    def norm(self) -> float:
        """L2 norm over the period cell (basis is orthonormal)."""
        return float(np.linalg.norm(self.coeffs))

    def replace(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(coeffs=coeffs, grid=self.grid, alpha=self.alpha)


@dataclass(frozen=True)
class VectorSpectralField:
    """Pair of spectral fields forming a C^2-valued field."""

    g1: SpectralField
    g2: SpectralField

    def __post_init__(self):
        if self.g1.grid != self.g2.grid or self.g1.alpha != self.g2.alpha:
            raise ShapeMismatch("vector components live on different grids")


def _phase(grid: Grid, alpha: float) -> np.ndarray:
    return np.exp(1j * alpha * grid.x1_nodes())[:, None]


def _mode_signs(grid: Grid) -> np.ndarray:
    # (-1)^(j1 + j2); parity of the FFT storage index equals the parity of
    # the signed frequency because the mode counts are even
    s1 = 1.0 - 2.0 * (np.arange(grid.n1) % 2)
    s2 = 1.0 - 2.0 * (np.arange(grid.n2) % 2)
    return np.outer(s1, s2)


def to_spectral(values: np.ndarray, grid: Grid, alpha: float) -> SpectralField:
    """Collocation samples -> basis coefficients."""
    values = np.asarray(values)
    if values.shape != (grid.n1, grid.n2):
        raise ShapeMismatch(
            f"samples {values.shape} do not match grid ({grid.n1}, {grid.n2})"
        )
    work = values * np.conj(_phase(grid, alpha))
    f = np.fft.fft2(work) / (grid.n1 * grid.n2)
    coeffs = f * _mode_signs(grid) * np.sqrt(4 * np.pi * grid.rho_box)
    return SpectralField(coeffs=coeffs, grid=grid, alpha=alpha)


def to_physical(u: SpectralField) -> np.ndarray:
    """Basis coefficients -> collocation samples."""
    grid = u.grid
    f = u.coeffs * _mode_signs(grid) / np.sqrt(4 * np.pi * grid.rho_box)
    return np.fft.ifft2(f) * (grid.n1 * grid.n2) * _phase(grid, u.alpha)


def evaluate(u: SpectralField, points) -> np.ndarray:
    """Evaluate the trigonometric polynomial at arbitrary points (..., 2)."""
    pts = np.asarray(points, dtype=float)
    grid = u.grid
    aj = grid.j1_modes() + u.alpha
    mu = grid.j2_modes() * np.pi / grid.rho_box
    e1 = np.exp(1j * pts[..., 0, None] * aj)          # (..., N1)
    e2 = np.exp(1j * pts[..., 1, None] * mu)          # (..., N2)
    scale = 1.0 / np.sqrt(4 * np.pi * grid.rho_box)
    return scale * np.einsum("...i,ij,...j->...", e1, u.coeffs, e2)


def _wavenumbers(grid: Grid, alpha: float):
    aj = (grid.j1_modes() + alpha)[:, None]
    mu = (grid.j2_modes() * np.pi / grid.rho_box)[None, :]
    return aj, mu


def grad_spectral(u: SpectralField) -> VectorSpectralField:
    """Exact gradient of the basis expansion (multipliers i*alpha_j, i*mu_j)."""
    aj, mu = _wavenumbers(u.grid, u.alpha)
    return VectorSpectralField(
        g1=u.replace(1j * aj * u.coeffs),
        g2=u.replace(1j * mu * u.coeffs),
    )


def _check_table(grid: Grid, table: KernelTable, rows=None):
    """``rows``: the accepted row counts, all N1 rows by default."""
    rows = rows or (grid.n1,)
    if table.coeffs.shape[1:] != (grid.n2,) or len(table.coeffs) not in rows:
        raise ShapeMismatch(
            f"kernel table shape {table.coeffs.shape} does not match the "
            f"grid: expected {' or '.join(map(str, rows))} rows of {grid.n2}")
    if abs(table.rho - grid.rho_box) > 1e-14:
        raise ShapeMismatch("kernel table was built for a different box height")


def volume_potential(g: SpectralField, table: KernelTable) -> SpectralField:
    """Convolution with the periodized kernel: out(j) = sqrt(4 pi rho)
    K_hat(j) g_hat(j).

    For sources supported in |x2| <= h this equals the free volume potential
    at every node with |x2| <= rho_box - h, up to spectral truncation.
    """
    _check_table(g.grid, table)
    scale = np.sqrt(4 * np.pi * table.rho)
    return g.replace(scale * table.coeffs * g.coeffs)


def div_potential(g: VectorSpectralField, table: KernelTable) -> SpectralField:
    """Divergence of the volume potential of a vector density."""
    _check_table(g.g1.grid, table)
    aj, mu = _wavenumbers(g.g1.grid, g.g1.alpha)
    scale = np.sqrt(4 * np.pi * table.rho)
    coeffs = scale * table.coeffs * (
        1j * aj * g.g1.coeffs + 1j * mu * g.g2.coeffs
    )
    return g.g1.replace(coeffs)


def pointwise_matrix_product(q: np.ndarray,
                             g: VectorSpectralField) -> VectorSpectralField:
    """Physical-space product Q(x) * grad(x) at the nodes; q broadcasts."""
    grid = g.g1.grid
    alpha = g.g1.alpha
    p1 = to_physical(g.g1)
    p2 = to_physical(g.g2)
    h1 = q[..., 0, 0] * p1 + q[..., 0, 1] * p2
    h2 = q[..., 1, 0] * p1 + q[..., 1, 1] * p2
    return VectorSpectralField(
        g1=to_spectral(h1, grid, alpha), g2=to_spectral(h2, grid, alpha)
    )


def _contrast_product(q: np.ndarray, y: np.ndarray):
    """y <- Q y in place; y is (2, ...), q a scalar field or (2, 2, ...)."""
    if q.ndim < y.ndim:
        y *= q
        return
    h0 = q[0, 0] * y[0] + q[0, 1] * y[1]
    y[1] *= q[1, 1]
    y[1] += q[1, 0] * y[0]
    y[0] = h0


def _check_point(problem: Problem, table: KernelTable, rows: int):
    """Raise ShapeMismatch unless ``table`` was built for the grid and the
    wave of ``problem`` and serves arrays of ``rows`` rows: the
    ``layout.n_rows`` rows the solve couples, or all N1 with the full
    kernel table."""
    grid, n_rows = problem.grid, problem.layout.n_rows
    _check_table(grid, table, sorted({n_rows, grid.n1}))
    if table.k != problem.k or table.alpha != problem.alpha:
        raise ShapeMismatch(
            f"kernel table was built for the wave k = {table.k}, alpha = "
            f"{table.alpha}; the problem has k = {problem.k}, alpha = "
            f"{problem.alpha}")
    if rows == n_rows:
        return
    if rows != grid.n1:
        raise ShapeMismatch(
            f"{rows} coefficient rows; expected {n_rows} or {grid.n1}")
    held = len(table.coeffs)
    if held != rows:
        raise ShapeMismatch(
            f"an array of all {rows} coefficient rows needs the full "
            f"kernel table; this one holds {held} row(s)")


def live_rows(c: np.ndarray, n_rows: int) -> np.ndarray:
    """The first ``n_rows`` rows of a coefficient array c when the rest
    vanish, else c."""
    return c if c[n_rows:].any() else c[:n_rows]


class _Nodes:
    """Where the packed densities of a stack of P points sit in its
    (2, P, rows, N2) work buffer: at the flat support nodes ``nodes`` of
    each (rows, N2) array.  A few runs of consecutive nodes, as the one or
    two of a layered contrast, are copied as slices; more go through one
    flat index, which is cheaper than many slices."""

    MAX_RUNS = 4

    def __init__(self, nodes: np.ndarray, points: int, size: int):
        self.n = len(nodes)
        bounds = [0, *(np.flatnonzero(np.diff(nodes) != 1) + 1).tolist(),
                  self.n]
        runs = list(zip(bounds[:-1], bounds[1:])) if self.n else []
        self.runs = self.index = None
        if 0 < len(runs) <= self.MAX_RUNS:
            self.runs = [(slice(nodes[a], nodes[b - 1] + 1), slice(a, b))
                         for a, b in runs]
        else:
            # component c of point p starts at (c P + p) size
            starts = np.arange(2) * points + np.arange(points)[:, None]
            self.index = (starts[..., None] * size + nodes).ravel()

    def scatter(self, z: np.ndarray, buf: np.ndarray):
        """Write the densities z (P, 2, n) at the nodes of ``buf``, and
        zeros at every other node."""
        buf.fill(0)
        if self.runs is None:
            buf.reshape(-1)[self.index] = z.reshape(-1)
            return
        flat = buf.reshape(2, len(z), -1).transpose(1, 0, 2)
        for at, of in self.runs:
            flat[..., at] = z[..., of]

    def gather(self, y: np.ndarray) -> np.ndarray:
        """The (P, 2, n) entries of the buffer y at the nodes."""
        points = y.shape[1]
        if self.runs is None:
            return np.take(y.reshape(-1), self.index).reshape(
                points, 2, self.n)
        flat = y.reshape(2, points, -1).transpose(1, 0, 2)
        return np.concatenate([flat[..., at] for at, _ in self.runs], axis=-1)


class OperatorStack:
    """The operators of P points of one contrast layout on one grid (one
    solve, or the points of a k or theta sweep) on arrays of ``rows``
    coefficient rows, ``layout.n_rows`` by default, each point with its
    ``problems`` entry and its kernel table ``tables`` entry.  One call
    applies them to a stack of P arrays: the density operators
    z - Q grad div V z with one forward and one inverse FFT over the
    stack, the field operators c - div V(Q grad c) likewise, and the x1
    rows of the densities with one FFT.  A point's stack of one serves its
    solve, its residual and its Rayleigh extraction.

    Physical samples live on the natural FFT layout: sample m sits half a
    box away from the centered node m, at (2 pi m1 / N1, 2 rho m2 / N2)
    modulo the box.  There the (-1)^(j1 + j2) signs of the centered basis
    become an index shift, and the exp(i alpha x1) phase cancels around
    every pointwise product, so a transform pair needs no other factor
    than the sample scale.

    An array of coefficients holds the leading Fourier rows of a field:
    all N1, or the one row j1 = 0 of a field whose other rows vanish.  The
    inverse FFT of an array of ``rows`` rows is the phase-stripped field
    times the sample scale sqrt(4 pi rho) / (rows N2).  All N1 rows
    transform in x1 and x2 (fftn); the samples of one row do not depend on
    x1, so it transforms in x2 alone (fft) and stands for every x1 row.
    The incident wave excites only the row j1 = 0, which a layered contrast
    maps to itself: ``layout.n_rows`` is 1 for a layered contrast and N1
    otherwise.  Each kernel table must hold the rows applied, and have
    been built for its point's wave and the grid's box.

    A density is packed component-major: its two components at the
    support nodes ``layout.nodes`` of ``n_rows`` rows, in the units of the
    scaled samples.  A stack of all N1 rows of a layered contrast holds
    its densities at the support nodes of every row.  The solve runs on
    the density; the field operator :meth:`apply_field` is the independent
    check of its residual.

    Each array's result is bit-identical to that of its point's stack of
    one: every step is elementwise, a copy or a per-slice FFT, and numpy's
    FFTs give the same bits with a leading batch axis.  The arrays sized
    by the points are built when first read: the kernel multiplier and the
    i alpha_j rows when an operator is applied, the incident densities
    :attr:`rhs` once.
    """

    def __init__(self, problems, tables, rows: int | None = None):
        first = problems[0]
        grid, layout = first.grid, first.layout
        if any(p.layout is not layout or p.grid != grid for p in problems):
            raise ShapeMismatch("a stack of operators needs one contrast "
                                "layout on one grid")
        rows = layout.n_rows if rows is None else rows
        for problem, table in zip(problems, tables, strict=True):
            _check_point(problem, table, rows)
        self.problems, self.tables = list(problems), list(tables)
        self.rows, self.grid, self.layout = rows, grid, layout
        self.imu = (1j * np.pi / grid.rho_box * grid.j2_modes())[None, :]
        self.scale = np.sqrt(4 * np.pi * grid.rho_box) / (rows * grid.n2)
        if rows == 1:
            self.fft = partial(np.fft.fft, axis=-1)
            self.ifft = partial(np.fft.ifft, axis=-1)
        else:
            self.fft = partial(np.fft.fftn, axes=(-2, -1))
            self.ifft = partial(np.fft.ifftn, axes=(-2, -1))
        nodes, self.q_nodes = layout.nodes, layout.q_nodes
        if rows != layout.n_rows:
            # every row of an x1-invariant layout
            nodes = (np.arange(rows)[:, None] * grid.n2 + nodes).ravel()
            self.q_nodes = np.tile(self.q_nodes, rows)
        self.node_index = nodes
        self.x2_nodes = layout.x2[nodes % grid.n2]

    def take(self, keep) -> "OperatorStack":
        """The stack of the points ``keep`` (indices, in order) of this
        one, unchecked: its multiplier and i alpha_j rows are rows of this
        stack's, and its work buffer is its own."""
        new = copy.copy(self)
        new.problems = [self.problems[i] for i in keep]
        new.tables = [self.tables[i] for i in keep]
        held = new.__dict__
        for name in ("rhs", "work", "nodes"):
            held.pop(name, None)
        for name in ("ia", "multiplier"):
            if name in held:
                held[name] = held[name][keep]
        return new

    @cached_property
    def ia(self) -> np.ndarray:
        """i alpha_j of every point's rows, (P, rows, 1)."""
        alphas = np.array([p.alpha for p in self.problems])
        ia = 1j * (self.grid.j1_modes()[:self.rows] + alphas[:, None])
        return ia[:, :, None]

    @cached_property
    def multiplier(self) -> np.ndarray:
        """The kernel multiplier sqrt(4 pi rho) K_hat of every point's
        rows, (P, rows, N2)."""
        tables = self.tables
        coeffs = (tables[0].coeffs[None, :self.rows] if len(tables) == 1 else
                  np.stack([t.coeffs[:self.rows] for t in tables]))
        return np.sqrt(4 * np.pi * self.grid.rho_box) * coeffs

    @cached_property
    def work(self) -> np.ndarray:
        """The (2, P, rows, N2) buffer every application works in."""
        return np.empty((2, len(self.problems), self.rows, self.grid.n2),
                        dtype=complex)

    @cached_property
    def nodes(self) -> _Nodes:
        return _Nodes(self.node_index, len(self.problems),
                      self.rows * self.grid.n2)

    @cached_property
    def rhs(self) -> np.ndarray:
        """The (P, 2n) packed incident densities Q grad u^i, the
        right-hand sides of the density equations, read-only: grad u^i of
        every wave at the heights of the nodes, stripped of exp(i alpha
        x1), which leaves it x1-invariant, times the sample scale."""
        kd = np.array([p.k * np.asarray(p.wave.d)
                       for p in self.problems])[:, :, None]
        y = (self.scale * 1j * kd) * np.exp(1j * kd[:, 1:] * self.x2_nodes)
        _contrast_product(self.q_nodes, y.transpose(1, 0, 2))
        y = y.reshape(len(self.problems), -1)
        y.setflags(write=False)
        return y

    def _packed(self, z) -> np.ndarray:
        """A stack of packed densities as (P, 2, n)."""
        return z.reshape(len(self.problems), 2, len(self.node_index))

    def _gradient(self, c: np.ndarray) -> np.ndarray:
        """Scaled gradient samples of a stack c of coefficient arrays,
        which may be ``work[0]``."""
        work = self.work
        np.multiply(self.imu, c, out=work[1])
        np.multiply(self.ia, c, out=work[0])
        # ifft2 ignores ``out`` in numpy 2.x; ifft and ifftn honour it
        return self.ifft(work, out=work)

    def _div_potential(self, y: np.ndarray) -> np.ndarray:
        """Coefficients of div V(y) for a stack of scaled samples y (the
        work buffer)."""
        f = self.fft(y, out=y)
        f[0] *= self.ia
        f[1] *= self.imu
        f[0] += f[1]
        f[0] *= self.multiplier
        return f[0]

    def _contrast_gradient(self, c: np.ndarray) -> np.ndarray:
        """Scaled samples of Q grad c at the nodes, (P, 2, n), for a stack
        c (P, rows, N2) of coefficient arrays."""
        g = self.nodes.gather(self._gradient(c))
        _contrast_product(self.q_nodes, g.transpose(1, 0, 2))
        return g

    def potential(self, z) -> np.ndarray:
        """The (P, rows, N2) coefficients of div V z for a stack z of P
        packed densities, a view of the work buffer."""
        self.nodes.scatter(self._packed(z), self.work)
        return self._div_potential(self.work)

    def apply(self, vectors) -> np.ndarray:
        """The (P, 2, n) products z - Q grad div V z of the P density
        operators with their P packed densities; the operator does not
        write its argument, so one array is applied uncopied."""
        z = self._packed(np.concatenate(vectors) if len(vectors) > 1
                         else vectors[0])
        g = self._contrast_gradient(self.potential(z))
        return np.subtract(z, g, out=g)

    def apply_field(self, c: np.ndarray) -> np.ndarray:
        """The (P, rows, N2) products c - div V(Q grad c) of the P field
        operators with a stack c of coefficient arrays."""
        y = self._gradient(c)
        _contrast_product(self.layout.q, y)
        return c - self._div_potential(y)

    def density(self, c: np.ndarray) -> np.ndarray:
        """The (P, 2n) packed total densities Q grad(u^s + u^i) of a stack
        c (P, rows, N2) of scattered fields."""
        return self.rhs + self._contrast_gradient(c).reshape(len(c), -1)

    def density_rows(self, z) -> np.ndarray:
        """x1 transform of the samples of a stack z of P packed densities
        on the support columns.

        Shape (2, P, rows, len(support)), node heights ``x2[support]``;
        row i is x1 frequency ``j1_modes()[i]`` of the unnormalized FFT.
        One row of x1-invariant samples, divided by the sample scale of all
        N1 rows, is N1 times the samples: the row j1 = 0 of their FFT,
        whose other rows vanish.
        """
        self.nodes.scatter(self._packed(z), self.work)
        y = self.work[..., self.layout.support] / (
            np.sqrt(4 * np.pi * self.grid.rho_box)
            / (self.grid.n1 * self.grid.n2))
        return y if self.rows == 1 else np.fft.fft(y, axis=2)


def apply_forward(u: SpectralField, problem: Problem,
                  table: KernelTable) -> SpectralField:
    """Forward operator u - div V(Q grad u) on the collocation grid."""
    stack = OperatorStack([problem], [table], len(u.coeffs))
    return u.replace(stack.apply_field(u.coeffs[None])[0])


def contrast_gradient_potential(
    u: SpectralField, problem: Problem, table: KernelTable,
) -> SpectralField:
    """The compact-candidate part alone: div V(Q grad u), composed from the
    reference transforms for any kernel table (oracle use)."""
    qg = pointwise_matrix_product(problem.layout.samples, grad_spectral(u))
    return div_potential(qg, table)


def assemble_dense(problem: Problem, table: KernelTable,
                   operator=apply_forward) -> np.ndarray:
    """Dense matrix of the operator in the spectral basis (oracle sizes only).

    Column m is the operator applied to the m-th basis vector; the flattening
    order is row-major over the FFT-ordered coefficient array.
    """
    n = problem.grid.n1 * problem.grid.n2
    if n > DENSE_GUARD:
        raise SizeGuard(f"dense assembly of size {n} exceeds guard {DENSE_GUARD}")
    out = np.zeros((n, n), dtype=complex)
    shape = (problem.grid.n1, problem.grid.n2)
    for m in range(n):
        e = np.zeros(n, dtype=complex)
        e[m] = 1.0
        u = SpectralField(e.reshape(shape), problem.grid, problem.alpha)
        out[:, m] = operator(u, problem, table).coeffs.reshape(-1)
    return out
