"""Matrix-free spectral application of the volume potential and the
strongly singular forward operator A: v -> v - div V(Q grad v).

All fields live on the quasi-periodic basis

    phi_j(x) = exp(i (j1 + alpha) x1 + i j2 pi x2 / rho) / sqrt(4 pi rho),

whose coefficients are reached from collocation samples by stripping the
exp(i alpha x1) phase and applying an FFT.  Convolution with the periodized
kernel is diagonal on this basis with multiplier sqrt(4 pi rho) * K_hat(j).

The functions on SpectralField are the reference transforms; the solve path
runs on a Discretization, which precomputes everything a solve applies
repeatedly and needs one batched inverse and one forward FFT per operator
application.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

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


def basis_field(grid: Grid, alpha: float, j1: int, j2: int) -> SpectralField:
    """Single basis function phi_(j1, j2) as a spectral field."""
    coeffs = np.zeros((grid.n1, grid.n2), dtype=complex)
    coeffs[j1 % grid.n1, j2 % grid.n2] = 1.0
    return SpectralField(coeffs=coeffs, grid=grid, alpha=alpha)


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


class _RowArrays(NamedTuple):
    """What a stack of P coefficient arrays of ``rows`` rows is applied
    with: i alpha_j (P, rows, 1), the multiplier sqrt(4 pi rho) K_hat
    (P, rows, N2), a (2, P, rows, N2) work buffer, the sample scale and
    the forward and inverse transforms over the last axis (one row) or
    the last two."""

    ia: np.ndarray
    multiplier: np.ndarray
    work: np.ndarray
    scale: float
    fft: object
    ifft: object


def _row_arrays(grid: Grid, alphas: np.ndarray,
                coeffs: np.ndarray) -> _RowArrays:
    """The :class:`_RowArrays` of a stack of P arrays of ``rows`` rows,
    from the P quasi-periodicity parameters ``alphas`` and the leading
    kernel table rows ``coeffs`` (P, rows, N2) of their waves."""
    rows = coeffs.shape[1]
    ia = 1j * (grid.j1_modes()[:rows] + alphas[:, None])
    if rows == 1:
        transforms = (partial(np.fft.fft, axis=-1),
                      partial(np.fft.ifft, axis=-1))
    else:
        transforms = (partial(np.fft.fftn, axes=(-2, -1)),
                      partial(np.fft.ifftn, axes=(-2, -1)))
    return _RowArrays(
        ia[:, :, None], np.sqrt(4 * np.pi * grid.rho_box) * coeffs,
        np.empty((2, len(coeffs), rows, grid.n2), dtype=complex),
        np.sqrt(4 * np.pi * grid.rho_box) / (rows * grid.n2), *transforms)


def _gradient(a: _RowArrays, imu: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Scaled gradient samples of a stack c of coefficient arrays."""
    np.multiply(a.ia, c, out=a.work[0])
    np.multiply(imu, c, out=a.work[1])
    # ifft2 ignores ``out`` in numpy 2.x; ifft and ifftn honour it
    return a.ifft(a.work, out=a.work)


def _div_potential(a: _RowArrays, imu: np.ndarray, y: np.ndarray):
    """Coefficients of div V(y) for a stack of scaled samples y (a view
    of the work buffer)."""
    f = a.fft(y, out=y)
    f[0] *= a.ia
    f[1] *= imu
    f[0] += f[1]
    f[0] *= a.multiplier
    return f[0]


def _forward(a: _RowArrays, imu: np.ndarray, q: np.ndarray, c: np.ndarray):
    """c - div V(Q grad c) on a stack c of coefficient arrays."""
    y = _gradient(a, imu, c)
    _contrast_product(q, y)
    return c - _div_potential(a, imu, y)


class Discretization:
    """The arrays one solve applies, for one problem and kernel table.

    Built once per solve and shared by the forward operator, the right-hand
    side, the residual and the scattered density.  Physical samples live on
    the natural FFT layout: sample m sits half a box away from the centered
    node m, at (2 pi m1 / N1, 2 rho m2 / N2) modulo the box.  There the
    (-1)^(j1 + j2) signs of the centered basis become an index shift, and
    the exp(i alpha x1) phase cancels around every pointwise product, so a
    transform pair needs no other factor than the sample scale.

    An array of coefficients holds the leading Fourier rows of a field:
    all N1, or the one row j1 = 0 of a field whose other rows vanish.  The
    inverse FFT of an array of ``rows`` rows is the phase-stripped field
    times the sample scale sqrt(4 pi rho) / (rows N2).  All N1 rows
    transform in x1 and x2 (fftn); the samples of one row do not depend on
    x1, so it transforms in x2 alone (fft) and stands for every x1 row.
    The incident wave excites only the row j1 = 0, which a layered contrast
    maps to itself: ``n_rows``, from ``problem.layout``, is 1 for a layered
    contrast and N1 otherwise.  The operator methods take ``n_rows`` or N1
    rows; the kernel table must hold the rows applied.  The operator and
    the right-hand side run on a stack of one array, the arithmetic
    :class:`OperatorStack` runs on a stack of many.
    """

    def __init__(self, problem: Problem, table: KernelTable):
        grid = problem.grid
        layout = problem.layout
        self.problem = problem
        self.table = table
        self.n_rows = layout.n_rows
        self.n1 = grid.n1
        self.q = layout.q
        self.support = layout.support
        self.x2 = layout.x2
        _check_table(grid, table, sorted({self.n_rows, grid.n1}))
        if table.k != problem.k or table.alpha != problem.alpha:
            raise ShapeMismatch(
                f"kernel table was built for the wave k = {table.k}, alpha = "
                f"{table.alpha}; the problem has k = {problem.k}, alpha = "
                f"{problem.alpha}")
        self.imu = (1j * np.pi / grid.rho_box * grid.j2_modes())[None, :]
        self._by_rows = {}

    def _check_rows(self, rows: int):
        """Raise ShapeMismatch unless arrays of ``rows`` rows can be
        applied: ``n_rows`` rows, or all N1 with the full kernel table."""
        if rows == self.n_rows:
            return
        if rows != self.n1:
            raise ShapeMismatch(
                f"{rows} coefficient rows; expected {self.n_rows} or "
                f"{self.n1}")
        held = len(self.table.coeffs)
        if held != rows:
            raise ShapeMismatch(
                f"an array of all {rows} coefficient rows needs the full "
                f"kernel table; this one holds {held} row(s)")

    def _rows(self, rows: int) -> _RowArrays:
        """The :func:`_row_arrays` of a stack of one array of ``rows``
        rows, built when first asked for."""
        arrays = self._by_rows.get(rows)
        if arrays is None:
            self._check_rows(rows)
            arrays = self._by_rows[rows] = _row_arrays(
                self.problem.grid, np.array([self.problem.alpha]),
                self.table.coeffs[None, :rows])
        return arrays

    def live_rows(self, c: np.ndarray) -> np.ndarray:
        """The first ``n_rows`` rows of c when the rest vanish, else c."""
        return c if c[self.n_rows:].any() else c[:self.n_rows]

    def apply(self, c: np.ndarray) -> np.ndarray:
        """Forward operator c - div V(Q grad c) on a coefficient array."""
        return _forward(self._rows(c.shape[0]), self.imu, self.q, c[None])[0]

    def rhs(self) -> np.ndarray:
        """The first ``n_rows`` coefficient rows of the right-hand side
        div V(Q grad u^i), shape (n_rows, N2); its other rows vanish.  The
        stack of one of :meth:`OperatorStack.rhs`."""
        return OperatorStack([self], self.n_rows).rhs()[0]


class OperatorStack:
    """The discretizations of one contrast layout (the points of a k or
    theta sweep), applied to a stack of P coefficient arrays of ``rows``
    rows in one call: the forward operators with one inverse and one
    forward FFT over the stack, the right-hand sides with one forward FFT
    and the scattered densities with one inverse one.

    Each array's result is bit-identical to that of a stack of its own
    discretization alone: every step is elementwise or a per-slice FFT,
    and numpy's FFTs give the same bits with a leading batch axis.
    """

    def __init__(self, discs, rows: int):
        first = discs[0]
        grid = first.problem.grid
        if any(d.problem.layout is not first.problem.layout
               or d.problem.grid != grid for d in discs):
            raise ShapeMismatch("a stack of operators needs one contrast "
                                "layout on one grid")
        self.discs, self.rows, self.grid = discs, rows, grid
        self.imu, self.q = first.imu, first.q
        self.support, self.x2 = first.support, first.x2
        if len(discs) == 1:
            # a stack of one shares its discretization's arrays
            self.arrays = first._rows(rows)
            return
        for d in discs:
            d._check_rows(rows)
        self.arrays = _row_arrays(
            grid, np.array([d.problem.alpha for d in discs]),
            np.stack([d.table.coeffs[:rows] for d in discs]))

    @cached_property
    def kd(self) -> np.ndarray:
        """k d of every wave, (2, P, 1, 1)."""
        return np.array([d.problem.k * np.asarray(d.problem.wave.d)
                         for d in self.discs]).T[:, :, None, None]

    def apply(self, vectors) -> np.ndarray:
        """The (P, rows, N2) products of the P operators with their P
        flattened arrays; the operator does not write its argument, so one
        array is applied uncopied."""
        c = np.stack(vectors) if len(vectors) > 1 else vectors[0][None]
        return _forward(self.arrays, self.imu, self.q,
                        c.reshape(self.arrays.multiplier.shape))

    def _incident_gradient(self, scale: float, x2: np.ndarray) -> np.ndarray:
        """grad u^i stripped of exp(i alpha x1), times ``scale``, of every
        wave at the heights ``x2``; shape (2, P, 1, len(x2)), the samples
        of every x1 row."""
        return (scale * 1j * self.kd) * np.exp(1j * self.kd[1] * x2)

    def rhs(self) -> np.ndarray:
        """The (P, rows, N2) right-hand sides div V(Q grad u^i); a stack
        of ``n_rows`` rows holds every row that does not vanish."""
        a = self.arrays
        y = a.work
        y[...] = self._incident_gradient(a.scale, self.x2)
        _contrast_product(self.q, y)
        return _div_potential(a, self.imu, y).copy()

    def density_rows(self, c: np.ndarray) -> np.ndarray:
        """x1 transform of the samples of w = Q grad(u^s + u^i), stripped
        of exp(i alpha x1), on the support columns, for a (P, rows, N2)
        stack c of scattered fields.

        Shape (2, P, rows, len(support)), node heights ``x2[support]``;
        row i is x1 frequency ``j1_modes()[i]`` of the unnormalized FFT.
        One row of x1-invariant samples, divided by the sample scale of all
        N1 rows, is N1 times the samples: the row j1 = 0 of their FFT,
        whose other rows vanish.
        """
        a, cols = self.arrays, self.support
        y = _gradient(a, self.imu, c)[..., cols]
        y += self._incident_gradient(a.scale, self.x2[cols])
        _contrast_product(self.q[..., cols], y)
        y /= (np.sqrt(4 * np.pi * self.grid.rho_box)
              / (self.grid.n1 * self.grid.n2))
        return y if self.rows == 1 else np.fft.fft(y, axis=2)


def apply_forward(u: SpectralField, problem: Problem,
                  table: KernelTable) -> SpectralField:
    """Forward operator u - div V(Q grad u) on the collocation grid."""
    return u.replace(Discretization(problem, table).apply(u.coeffs))


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
