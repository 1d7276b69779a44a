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
from functools import partial
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
    rows; the kernel table must hold the rows applied.  The operator runs
    on a stack of one array, the arithmetic :class:`OperatorStack` runs on
    a stack of many.
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
        self._by_rows = {self.n_rows: self._row_arrays(self.n_rows)}
        self._incident = None

    def _row_arrays(self, rows: int) -> _RowArrays:
        """The :class:`_RowArrays` of a stack of one array of ``rows``
        rows."""
        grid = self.problem.grid
        ia = 1j * (grid.j1_modes()[:rows] + self.problem.alpha)
        multiplier = (np.sqrt(4 * np.pi * grid.rho_box)
                      * self.table.coeffs[:rows])
        if rows == 1:
            transforms = (partial(np.fft.fft, axis=-1),
                          partial(np.fft.ifft, axis=-1))
        else:
            transforms = (partial(np.fft.fftn, axes=(-2, -1)),
                          partial(np.fft.ifftn, axes=(-2, -1)))
        return _RowArrays(
            ia[None, :, None], multiplier[None],
            np.empty((2, 1, rows, grid.n2), dtype=complex),
            np.sqrt(4 * np.pi * grid.rho_box) / (rows * grid.n2), *transforms)

    def _rows(self, rows: int) -> _RowArrays:
        """The arrays of :meth:`_row_arrays` for an array of ``rows`` rows."""
        arrays = self._by_rows.get(rows)
        if arrays is None:
            if rows != self.n1:
                raise ShapeMismatch(
                    f"{rows} coefficient rows; expected {self.n_rows} or "
                    f"{self.n1}")
            held = len(self.table.coeffs)
            if held != rows:
                raise ShapeMismatch(
                    f"an array of all {rows} coefficient rows needs the full "
                    f"kernel table; this one holds {held} row(s)")
            arrays = self._by_rows[rows] = self._row_arrays(rows)
        return arrays

    def live_rows(self, c: np.ndarray) -> np.ndarray:
        """The first ``n_rows`` rows of c when the rest vanish, else c."""
        return c if c[self.n_rows:].any() else c[:self.n_rows]

    def _incident_gradient(self, scale: float) -> np.ndarray:
        """grad u^i stripped of exp(i alpha x1), times ``scale``; shape
        (2, 1, N2), the samples of every x1 row."""
        kd = self.problem.k * np.asarray(self.problem.wave.d)
        if self._incident is None:
            self._incident = np.exp(1j * kd[1] * self.x2)
        return (scale * 1j * kd)[:, None, None] * self._incident

    def apply(self, c: np.ndarray) -> np.ndarray:
        """Forward operator c - div V(Q grad c) on a coefficient array."""
        return _forward(self._rows(c.shape[0]), self.imu, self.q, c[None])[0]

    def rhs(self) -> np.ndarray:
        """The first ``n_rows`` coefficient rows of the right-hand side
        div V(Q grad u^i), shape (n_rows, N2); its other rows vanish."""
        a = self._rows(self.n_rows)
        y = a.work
        y[...] = self._incident_gradient(a.scale)[:, None]
        _contrast_product(self.q, y)
        return _div_potential(a, self.imu, y)[0].copy()

    def density_rows(self, c: np.ndarray) -> np.ndarray:
        """x1 transform of the samples of w = Q grad(u^s + u^i), stripped
        of exp(i alpha x1), on the support columns.

        Shape (2, rows, len(support)), node heights ``x2[support]``; row i
        is x1 frequency ``j1_modes()[i]`` of the unnormalized FFT.  ``rows``
        is that of c with its vanishing rows past ``n_rows`` dropped.  One
        row of x1-invariant samples, divided by the sample scale of all N1
        rows, is N1 times the samples: the row j1 = 0 of their FFT, whose
        other rows vanish.
        """
        c = self.live_rows(c)
        a = self._rows(len(c))
        cols = self.support
        y = _gradient(a, self.imu, c[None])[:, 0][:, :, cols]
        y += self._incident_gradient(a.scale)[:, :, cols]
        _contrast_product(self.q[..., cols], y)
        grid = self.problem.grid
        y /= np.sqrt(4 * np.pi * grid.rho_box) / (grid.n1 * grid.n2)
        return y if len(c) == 1 else np.fft.fft(y, axis=1)


class OperatorStack:
    """The forward operators of the discretizations of one contrast layout
    (the points of a k or theta sweep), applied to a stack of their
    coefficient arrays in one call: one inverse and one forward FFT over
    the stack.

    Each array's product is bit-identical to that of its own
    :meth:`Discretization.apply`: both run :func:`_forward`, whose steps
    are elementwise, and numpy's FFTs give the same bits with a leading
    batch axis.  ``rows`` is the row count of the arrays applied.
    """

    def __init__(self, discs, rows: int):
        first = discs[0]
        if any(d.problem.layout is not first.problem.layout
               or d.problem.grid != first.problem.grid for d in discs):
            raise ShapeMismatch("a stack of operators needs one contrast "
                                "layout on one grid")
        parts = [d._rows(rows) for d in discs]
        self.imu, self.q = first.imu, first.q
        # a stack of one shares its discretization's arrays: no copy
        self.arrays = parts[0] if len(parts) == 1 else parts[0]._replace(
            ia=np.concatenate([p.ia for p in parts]),
            multiplier=np.concatenate([p.multiplier for p in parts]),
            work=np.empty((2, len(discs), rows, first.problem.grid.n2),
                          dtype=complex))

    def apply(self, vectors) -> np.ndarray:
        """The (P, rows, N2) products of the P operators with their P
        flattened arrays; the operator does not write its argument, so one
        array is applied uncopied."""
        c = np.stack(vectors) if len(vectors) > 1 else vectors[0][None]
        return _forward(self.arrays, self.imu, self.q,
                        c.reshape(self.arrays.multiplier.shape))


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
