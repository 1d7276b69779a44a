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
is held there alone.  One application of the density operator on one
coefficient row (a layered grating), or on a large grid whose support is
wide, scatters it onto the grid, takes one batched forward FFT for div V
and one inverse FFT for the gradient, and gathers the product back.  On
more rows it runs, where :data:`BOX_RATIO` says it is cheaper, through DFT
matrices restricted to the box of rows and columns that hold the support,
with the derivative multipliers folded into them.  The field operator A,
one inverse and one forward FFT on all the coefficients, stays on the FFTs
whatever the route: it is the independent check of the solve's residual.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import ShapeMismatch, SizeGuard
from .kernel import KernelTable
from .problem import Grid, Problem

DENSE_GUARD = 4096

# The density operator of arrays of more than one row runs through DFT
# matrices on its support box, rows R and columns C, when
# |R| (|C| + N1) <= BOX_RATIO N1 log2(N1 N2), and through full-grid FFTs
# otherwise.  Box / FFT time per application of a q = -5 circle of radius
# r periods, at (count ratio), each case in one process on 2 vCPUs with
# numpy 2.4 and OpenBLAS 0.3.31: 64^2 r = 0.2, 0.58 (3.2); 128^2 r = 0.12
# (rho_box 0.3), 0.43 (3.1); 128^2 r = 0.1, 0.44 (2.7); 512^2 r = 0.05,
# 0.43 (4.3); 256^2 r = 0.1, 0.58 (4.8); 128^2 r = 0.2, 0.76 (5.5);
# 512^2 r = 0.1, 0.89 (8.6); 256^2 r = 0.2, 0.89 (9.7); 128^2 r = 0.4,
# 1.01 (11.1); 256^2 r = 0.3, 1.57 (14.4).  The crossover lies near 10;
# past 5 the box saves less than a quarter of the time and holds its
# matrices, 4 (|C| N2 + |R| N1) entries, besides, so wide supports on
# large grids keep the FFTs.
BOX_RATIO = 5.0


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


def support_box(nodes: np.ndarray, rows: int, n2: int):
    """The x1 rows R and x2 columns C (sorted) of the box that holds the
    flat support ``nodes`` of arrays of ``rows`` rows of ``n2``, when the
    density operator of such arrays runs through DFT matrices on that box
    (:data:`BOX_RATIO`), else None: one row, or a box too large."""
    if rows == 1:
        return None
    # np.unique would import numpy.ma
    r = np.flatnonzero(np.bincount(nodes // n2, minlength=rows))
    c = np.flatnonzero(np.bincount(nodes % n2, minlength=n2))
    if len(r) * (len(c) + rows) > BOX_RATIO * rows * math.log2(rows * n2):
        return None
    return r, c


def _box_sizes(box, rows: int, n2: int) -> tuple[int, int]:
    """The complex entries one point's stack holds to apply its density
    operator on the support ``box`` (None for the FFTs), as (buffer,
    matrices): the buffer is the (2, rows, N2) work buffer, or what the
    box products need if that is more; the matrices are the box route's
    DFT matrices."""
    work = 2 * rows * n2
    if box is None:
        return work, 0
    r, c = len(box[0]), len(box[1])
    buffer = max(work, max(rows * n2, 2 * r * c) + 2 * r * n2)
    return buffer, 4 * (c * n2 + r * rows)


def operator_entries(layout, grid: Grid) -> int:
    """The complex entries a solve's stack of one holds to apply its
    density operator: its buffer, and on the box route the DFT
    matrices."""
    rows = layout.n_rows
    return sum(_box_sizes(support_box(layout.nodes, rows, grid.n2), rows,
                          grid.n2))


def _dft(k: np.ndarray, m: np.ndarray, n: int, sign: float) -> np.ndarray:
    """exp(sign 2 pi i k m / n) for the integers k (rows) and m (columns),
    each entry the root of unity of the exact product k m mod n."""
    roots = np.exp(sign * 2j * np.pi / n * np.arange(n))
    return roots[np.outer(k, m) % n]


class _Nodes:
    """Where the packed densities of a stack of P points sit in its
    (2, P, rows, N2) work buffer: at the flat support nodes ``nodes`` of
    each (rows, N2) array, all reached through one flat index."""

    def __init__(self, nodes: np.ndarray, points: int, size: int):
        self.n = len(nodes)
        # component c of point p starts at (c P + p) size
        starts = np.arange(2) * points + np.arange(points)[:, None]
        self.index = (starts[..., None] * size + nodes).ravel()

    def scatter(self, z: np.ndarray, buf: np.ndarray):
        """Write the densities z (P, 2, n) at the nodes of ``buf``, and
        zeros at every other node."""
        buf.fill(0)
        buf.reshape(-1)[self.index] = z.reshape(-1)

    def gather(self, y: np.ndarray) -> np.ndarray:
        """The (P, 2, n) entries of the buffer y at the nodes."""
        return np.take(y.reshape(-1), self.index).reshape(
            y.shape[1], 2, self.n)


class OperatorStack:
    """The operators of P points of one contrast layout on one grid (one
    solve, or the points of a k or theta sweep) on arrays of ``rows``
    coefficient rows, ``layout.n_rows`` by default, each point with its
    ``problems`` entry and its kernel table ``tables`` entry.  One call
    applies them to a stack of P arrays: the density operators
    z - Q grad div V z with one forward and one inverse FFT over the
    stack, or on the support box (below), the field operators
    c - div V(Q grad c) with the FFTs, and the x1 rows of the densities
    with one FFT.  A point's stack of one serves its solve, its residual
    and its Rayleigh extraction.

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
    check of its residual, so it keeps the FFTs whichever route
    :meth:`apply` takes.

    The support box: on more than one row the density of a compact
    support sits inside the box of the x1 rows R and x2 columns C that
    hold its nodes (:attr:`box`, decided by :func:`support_box` from the
    shapes alone).  There :meth:`apply` runs the transforms as products
    with DFT matrices restricted to the box, in place of the FFTs of the
    whole grid: forward, the x2 transform of each component (times i mu
    for the second) and then one product with [diag(i alpha_j) A1 | A1];
    inverse, one product with [B1 diag(i alpha_j) ; B1] and then the x2
    transforms at the box columns, plain and times i mu.  The kernel
    multiplier stays one elementwise product on the (N1, N2) spectrum.

    Each array's result is bit-identical to that of its point's stack of
    one: every step is elementwise, a copy, a per-slice FFT or a per-slice
    matrix product, and numpy's FFTs and batched ``matmul`` give the same
    bits with a leading batch axis.  The arrays sized by the points are
    built when first read: the kernel multiplier, the i alpha_j rows and
    the x1 DFT matrices when an operator is applied, the incident densities
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
        self.box = support_box(nodes, rows, grid.n2)

    def take(self, keep) -> "OperatorStack":
        """The stack of the points ``keep`` (indices, in order) of this
        one, unchecked: its multiplier, i alpha_j rows and x1 DFT matrices
        are rows of this stack's, and its buffer is its own."""
        new = copy.copy(self)
        new.problems = [self.problems[i] for i in keep]
        new.tables = [self.tables[i] for i in keep]
        held = new.__dict__
        for name in ("rhs", "buffer", "work", "nodes", "box_nodes",
                     "box_views"):
            held.pop(name, None)
        for name in ("ia", "multiplier"):
            if name in held:
                held[name] = held[name][keep]
        if "x1_dft" in held:
            held["x1_dft"] = tuple(m[keep] for m in held["x1_dft"])
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
    def buffer(self) -> np.ndarray:
        """The flat buffer every application works in: the work buffer,
        and the products of the box route."""
        size, _ = _box_sizes(self.box, self.rows, self.grid.n2)
        return np.empty(len(self.problems) * size, dtype=complex)

    @cached_property
    def work(self) -> np.ndarray:
        """The (2, P, rows, N2) buffer every FFT application works in."""
        shape = (2, len(self.problems), self.rows, self.grid.n2)
        return self.buffer[:math.prod(shape)].reshape(shape)

    @cached_property
    def nodes(self) -> _Nodes:
        return _Nodes(self.node_index, len(self.problems),
                      self.rows * self.grid.n2)

    @cached_property
    def box_nodes(self) -> _Nodes:
        """The support nodes in the (R, C) arrays of the box."""
        rows, cols = self.box
        n2 = self.grid.n2
        at = (np.searchsorted(rows, self.node_index // n2) * len(cols)
              + np.searchsorted(cols, self.node_index % n2))
        return _Nodes(at, len(self.problems), len(rows) * len(cols))

    @cached_property
    def x2_dft(self) -> tuple[np.ndarray, np.ndarray]:
        """The x2 DFT matrices of the box columns C, which every point
        shares: the forward (2, C, N2), plain and times i mu, and the
        inverse (2, N2, C), plain and i mu times, with its 1 / N2."""
        n2, cols = self.grid.n2, self.box[1]
        k2 = np.arange(n2)
        forward = np.empty((2, len(cols), n2), dtype=complex)
        forward[0] = _dft(cols, k2, n2, -1.0)
        np.multiply(forward[0], self.imu, out=forward[1])
        inverse = np.empty((2, n2, len(cols)), dtype=complex)
        inverse[0] = _dft(k2, cols, n2, 1.0)
        inverse[0] /= n2
        np.multiply(self.imu.T, inverse[0], out=inverse[1])
        return forward, inverse

    @cached_property
    def x1_dft(self) -> tuple[np.ndarray, np.ndarray]:
        """Every point's x1 DFT matrices of the box rows R: the forward
        [diag(i alpha_j) A1 | A1], (P, N1, 2R), and the inverse
        [B1 diag(i alpha_j) ; B1], (P, 2R, N1), with its 1 / N1."""
        n1, rows = self.grid.n1, self.box[0]
        r, k1, ia = len(rows), np.arange(n1), self.ia
        forward = np.empty((len(ia), n1, 2 * r), dtype=complex)
        forward[:, :, r:] = _dft(k1, rows, n1, -1.0)
        np.multiply(ia, forward[:, :, r:], out=forward[:, :, :r])
        inverse = np.empty((len(ia), 2 * r, n1), dtype=complex)
        inverse[:, r:] = _dft(rows, k1, n1, 1.0)
        inverse[:, r:] /= n1
        np.multiply(inverse[:, r:], ia.transpose(0, 2, 1),
                    out=inverse[:, :r])
        return forward, inverse

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

    @cached_property
    def box_views(self) -> tuple[np.ndarray, ...]:
        """The views of the buffer the box products write: the (2, P, R,
        C) box samples and the (P, N1, N2) spectrum from its start, and
        past both the (P, 2R, N2) x1 rows, also as their (2, P, R, N2)
        component-major view."""
        points, (rows, cols) = len(self.problems), self.box
        r, c, n1, n2 = len(rows), len(cols), self.grid.n1, self.grid.n2
        at = points * max(n1 * n2, 2 * r * c)
        half = self.buffer[at:at + 2 * points * r * n2].reshape(
            points, 2 * r, n2)
        return (self.buffer[:2 * points * r * c].reshape(2, points, r, c),
                self.buffer[:points * n1 * n2].reshape(points, n1, n2),
                half, half.reshape(points, 2, r, n2).transpose(1, 0, 2, 3))

    def _box_gradient(self, z) -> np.ndarray:
        """Scaled samples of grad div V z at the nodes, (P, 2, n), for a
        stack z of P packed densities, by the DFT matrices of the box."""
        box, spectrum, half, halves = self.box_views
        forward2, inverse2 = self.x2_dft
        forward1, inverse1 = self.x1_dft
        self.box_nodes.scatter(z, box)
        np.matmul(box, forward2[:, None], out=halves)
        np.matmul(forward1, half, out=spectrum)
        spectrum *= self.multiplier
        np.matmul(inverse1, spectrum, out=half)
        np.matmul(halves, inverse2[:, None], out=box)
        return self.box_nodes.gather(box)

    def apply(self, vectors) -> np.ndarray:
        """The (P, 2, n) products z - Q grad div V z of the P density
        operators with their P packed densities, through the FFTs or on
        the support box; the operator does not write its argument, so one
        array is applied uncopied."""
        z = self._packed(np.concatenate(vectors) if len(vectors) > 1
                         else vectors[0])
        g = (self.nodes.gather(self._gradient(self.potential(z)))
             if self.box is None else self._box_gradient(z))
        _contrast_product(self.q_nodes, g.transpose(1, 0, 2))
        return np.subtract(z, g, out=g)

    def apply_field(self, c: np.ndarray) -> np.ndarray:
        """The (P, rows, N2) products c - div V(Q grad c) of the P field
        operators with a stack c of coefficient arrays: the gradient at
        the support nodes and the potential of the density there, both
        through the FFTs whichever route :meth:`apply` takes."""
        return c - self.potential(self._contrast_gradient(c))

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
