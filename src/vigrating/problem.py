"""Scattering-problem definition: period-cell geometry, incident wave,
material contrast and the collocation grid.

Conventions (fixed throughout the library):

* the structure is 2*pi-periodic in x1 and bounded in x2;
* the incident plane wave u^i(x) = exp(i k x.d) travels downward, d2 < 0;
* alpha = k*d1 is the quasi-periodicity parameter, alpha_j = j + alpha;
* the contrast Q(x) is a complex symmetric 2x2 matrix field vanishing for
  |x2| > h.
"""

from __future__ import annotations

import logging
import math
import os
import struct
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    GeometryError,
    NonSymmetric,
    RayleighAnomaly,
    ShapeMismatch,
    Underresolved,
    UnresolvedOrder,
)

log = logging.getLogger(__name__)

ANOMALY_RTOL = 1e-8
# at or below this wavenumber k^2 <= ANOMALY_RTOL, so every wave would be
# within the anomaly tolerance of order 0
K_FLOOR = math.sqrt(ANOMALY_RTOL)

# nodes per material wavelength below which a grid is rejected, and below
# which a solve is warned that its efficiencies may be inaccurate
MIN_NODES_PER_WAVELENGTH = 2.0
WARN_NODES_PER_WAVELENGTH = 6.0


def at_cutoff(symbol, k_squared):
    """The Rayleigh-anomaly rule: whether ``symbol``, k^2 - alpha_j^2 or
    the Helmholtz symbol of a mode, vanishes, |symbol| <= ANOMALY_RTOL *
    max(1, |k^2|).  Elementwise on arrays, which broadcast together.

    The integral equation is posed away from the cutoffs k^2 = alpha_j^2,
    where the quasi-periodic kernel degenerates: a wave within this
    tolerance of one is rejected, and the kernel table takes the limit
    value at a mode (j1, j2 != 0) whose symbol vanishes.
    """
    return np.abs(symbol) <= ANOMALY_RTOL * np.maximum(1.0, np.abs(k_squared))


@dataclass(frozen=True)
class IncidentWave:
    """Downward plane wave exp(i k x.d) with |d| = 1 and d2 < 0."""

    k: float
    d: tuple[float, float]

    def __post_init__(self):
        if not np.all(np.isfinite((self.k, *self.d))):
            raise ValueError(
                f"wave must be finite, got k={self.k}, d={self.d}")
        if self.k <= 0:
            raise ValueError(f"wavenumber must be positive, got {self.k}")
        if self.k <= K_FLOOR:
            raise ValueError(
                f"wavenumber {self.k!r} is at or below the floor {K_FLOOR:g} "
                f"({2 * math.pi * K_FLOOR:.3g} per period), where k^2 lies "
                "within the Rayleigh-anomaly tolerance of every wave")
        d1, d2 = self.d
        if abs(np.hypot(d1, d2) - 1.0) > 1e-12:
            raise ValueError(f"direction must be a unit vector, got {self.d}")
        if d2 >= 0:
            raise ValueError("incidence is from above: d2 must be negative")

    @property
    def alpha(self) -> float:
        return self.k * self.d[0]

    def check_nonresonance(self):
        """Reject wavenumbers at a cutoff order (Wood anomaly).

        Raises RayleighAnomaly at the lowest order j at which
        :func:`at_cutoff` holds for k^2 - (j + alpha)^2.  Only the orders
        nearest the two cutoffs j + alpha = -k and j + alpha = k can: the
        tolerance band of a cutoff is less than max(1e-4, 5e-9 k) wide in
        |alpha_j|, far below the spacing 1 of the orders for any k below
        1e7.
        """
        k2 = self.k**2
        for j in sorted({round(-self.k - self.alpha),
                         round(self.k - self.alpha)}):
            if at_cutoff(k2 - (j + self.alpha) ** 2, k2):
                raise RayleighAnomaly(j, self.k, self.alpha)

    @classmethod
    def from_angle(cls, k: float, theta_deg: float) -> "IncidentWave":
        """Build from the incidence angle: d = (sin theta, -cos theta)."""
        th = np.deg2rad(theta_deg)
        return cls(k=k, d=(float(np.sin(th)), float(-np.cos(th))))


@dataclass(frozen=True)
class ContrastField:
    """Material contrast Q = eps_r^{-1} - I.

    ``sampler(x1, x2)`` returns the 2x2 complex matrix Q at a point and must
    accept numpy arrays broadcast to shape (..., 2, 2).  The sampler is
    2*pi-periodic in x1 and must return exactly zero for |x2| > h.
    ``x1_invariant`` declares that the sampler does not depend on x1 (a
    slab or a stack of layers), so :func:`sample_contrast` samples one x1
    row; the constructors set it.  Whether the contrast is a real scalar
    is read from its samples (:attr:`ContrastLayout.real_scalar`).
    """

    sampler: object
    h: float
    x1_invariant: bool = False

    def sample(self, x1, x2) -> np.ndarray:
        """Evaluate the sampler on broadcastable coordinate arrays."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        q = np.asarray(self.sampler(x1, x2), dtype=complex)
        want = np.broadcast_shapes(x1.shape, x2.shape) + (2, 2)
        if q.shape != want:
            raise ShapeMismatch(
                f"sampler returned shape {q.shape}, expected {want}"
            )
        return q


@dataclass(frozen=True)
class Grid:
    """Uniform collocation grid on the box (-pi, pi) x (-rho_box, rho_box).

    Mode counts must be even powers of two; physical nodes are
    x1 = -pi + 2*pi*m/N1 and x2 = -rho_box + 2*rho_box*m/N2, and the
    spectral index sets are j1 in [-N1/2, N1/2), j2 in [-N2/2, N2/2),
    stored in FFT-natural order.
    """

    n1: int
    n2: int
    rho_box: float

    def __post_init__(self):
        for n, name in ((self.n1, "n1"), (self.n2, "n2")):
            if n < 2 or (n & (n - 1)) != 0:
                raise ValueError(f"{name} must be a power of two >= 2, got {n}")
        if self.rho_box <= 0:
            raise GeometryError(f"rho_box must be positive, got {self.rho_box}")

    @property
    def cell_area(self) -> float:
        return (2 * np.pi / self.n1) * (2 * self.rho_box / self.n2)

    def x1_nodes(self) -> np.ndarray:
        return -np.pi + 2 * np.pi * np.arange(self.n1) / self.n1

    def x2_nodes(self) -> np.ndarray:
        return -self.rho_box + 2 * self.rho_box * np.arange(self.n2) / self.n2

    def j1_modes(self) -> np.ndarray:
        """Integer x1 frequencies in FFT storage order (read-only)."""
        return _modes(self.n1)

    def j2_modes(self) -> np.ndarray:
        """Integer x2 frequencies in FFT storage order (read-only)."""
        return _modes(self.n2)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Node coordinates as (N1, N2) arrays (x1 varies along axis 0)."""
        return np.meshgrid(self.x1_nodes(), self.x2_nodes(), indexing="ij")


@lru_cache(maxsize=None)
def _modes(n: int) -> np.ndarray:
    """The integer frequencies of n samples in FFT storage order, one
    read-only array per size."""
    modes = np.fft.fftfreq(n, 1.0 / n).astype(int)
    modes.setflags(write=False)
    return modes


class ContrastLayout:
    """The sampled contrast, held once at the nodes that carry it, built
    once per sampling and shared read-only by every solve and diagnostic
    of it.

    Built from the node-order samples, (rows, N2, 2, 2), of which it keeps
    the rows: all N1, or one when the rows are exactly equal, as the one
    sampled row of an x1-invariant contrast is.  ``n_rows`` counts them;
    it is also the number of leading Fourier rows a solve couples to the
    incident wave.  The nodes sit on the natural FFT layout of an (n_rows,
    N2) array, where a solve applies them (``operators.OperatorStack``):
    node (m1, m2) at (m1 + N1/2, m2 + N2/2), modulo the array.  ``nodes``
    are the sorted flat indices, in that array, of the nodes that carry
    contrast, where the density a solve runs on lives, and ``q_nodes``
    the samples there: (2, 2, len(nodes)), or (len(nodes),) for a scalar
    contrast field.  Q vanishes at every other node.  ``support`` lists
    the x2 columns that hold nodes and ``x2`` the rolled heights.
    ``real_scalar`` says whether the samples are real multiples of the
    identity, the isotropic lossless contrast of the Garding check;
    ``max_eig`` is the largest |eigenvalue| of I + Q over the nodes, at
    least 1, which :func:`check_resolution` reads.  No array held is
    sized by the grid: :attr:`samples` rebuilds the node-order samples
    when read.
    """

    def __init__(self, samples: np.ndarray, grid: Grid):
        n1, n2 = self.grid_shape = (grid.n1, grid.n2)
        if all(np.array_equal(row, samples[0]) for row in samples[1:]):
            samples = samples[:1]                   # equal x1 rows keep one
        self.n_rows = rows = len(samples)
        i1, i2 = np.nonzero(samples.any(axis=(2, 3)))
        rolled = (i1 + n1 // 2) % rows * n2 + (i2 + n2 // 2) % n2
        order = np.argsort(rolled)
        self.nodes = rolled[order]
        q = samples[i1[order], i2[order]]
        # a scalar contrast field: one product per sample instead of four
        if (not q[:, 0, 1].any() and not q[:, 1, 0].any()
                and np.array_equal(q[:, 0, 0], q[:, 1, 1])):
            self.q_nodes = q[:, 0, 0].copy()
        else:
            self.q_nodes = np.ascontiguousarray(q.transpose(1, 2, 0))
        self.support = np.flatnonzero(np.bincount(self.nodes % n2,
                                                  minlength=n2))
        self.x2 = np.roll(grid.x2_nodes(), n2 // 2)
        self.real_scalar = (self.q_nodes.ndim == 1
                            and not self.q_nodes.imag.any())
        self.max_eig = _max_eig(self.q_nodes)
        for a in (self.nodes, self.q_nodes, self.support, self.x2):
            a.setflags(write=False)

    def matrices(self) -> np.ndarray:
        """The 2x2 contrast at each node, (len(nodes), 2, 2)."""
        q = self.q_nodes
        return q[:, None, None] * np.eye(2) if q.ndim == 1 else np.moveaxis(
            q, -1, 0)

    @property
    def samples(self) -> np.ndarray:
        """The node-order samples, (n_rows, N2, 2, 2), read-only, which
        broadcast against (N1, N2) fields: built on every read, for the
        diagnostics and the reference operators."""
        (n1, n2), rows = self.grid_shape, self.n_rows
        m1, m2 = np.divmod(self.nodes, n2)
        out = np.zeros((rows, n2, 2, 2), dtype=complex)
        out[(m1 - n1 // 2) % rows, (m2 - n2 // 2) % n2] = self.matrices()
        out.setflags(write=False)
        return out


def _max_eig(q_nodes: np.ndarray) -> float:
    """The largest |eigenvalue| of I + Q over the nodes of ``q_nodes``
    and 1, the eigenvalue where Q vanishes; the largest float when it
    overflows."""
    with np.errstate(all="ignore"):
        if q_nodes.ndim == 1:
            eig = np.abs(1 + q_nodes)
        else:
            # scaled so that squares of entries up to the largest float
            # do not overflow
            scale = max(1.0, float(np.abs(q_nodes).max()))
            a = np.eye(2)[..., None] / scale + q_nodes / scale
            mean = (a[0, 0] + a[1, 1]) / 2
            root = np.sqrt(((a[0, 0] - a[1, 1]) / 2) ** 2 + a[0, 1] * a[1, 0])
            eig = scale * np.maximum(np.abs(mean + root), np.abs(mean - root))
        top = float(eig.max(initial=1.0))
    return top if math.isfinite(top) else sys.float_info.max


@dataclass(frozen=True)
class Problem:
    """Immutable solver input: wave, contrast, grid and the sampled contrast.

    ``rho_ref`` (h < rho_ref <= rho_box) is the reference height of the
    Rayleigh expansion; ``layout`` holds the samples.  A Problem is valid
    when it is built.  Its wave must be clear of the Rayleigh anomalies:
    :meth:`IncidentWave.check_nonresonance` raises RayleighAnomaly
    otherwise.  A contrast that couples x1 orders (``layout.n_rows > 1``)
    must have every propagating order among the ones the grid resolves:
    :func:`check_orders` raises UnresolvedOrder otherwise.  Then the grid
    must resolve the material wavelength (:func:`check_resolution`).
    """

    wave: IncidentWave
    contrast: ContrastField
    grid: Grid
    rho_ref: float
    layout: ContrastLayout = field(repr=False, compare=False)

    def __post_init__(self):
        self.wave.check_nonresonance()
        if self.layout.n_rows > 1:
            check_orders(self.wave, self.grid)
        check_resolution(self.wave, self.grid, self.layout)

    @property
    def alpha(self) -> float:
        return self.wave.alpha

    @property
    def k(self) -> float:
        return self.wave.k

    def is_lossless(self) -> bool:
        """No contrast sample has a nonzero imaginary part."""
        return not self.layout.q_nodes.imag.any()


def check_orders(wave: IncidentWave, grid: Grid):
    """Raise UnresolvedOrder when a propagating order j, (j + alpha)^2 <
    k^2, lies outside the orders |j| < N1/2 that the Rayleigh extraction
    of a contrast coupling x1 orders reads on the grid, naming the
    farthest such order and the smallest n1 that holds it."""
    k, alpha = wave.k, wave.alpha
    far = max(math.floor(-k - alpha) + 1, math.ceil(k - alpha) - 1,
              key=abs)
    if abs(far) >= grid.n1 // 2:
        raise UnresolvedOrder(far, grid.n1, 1 << (2 * abs(far)).bit_length())


def check_resolution(wave: IncidentWave, grid: Grid, layout: ContrastLayout):
    """Count the nodes per material wavelength lambda = 2 pi / (k
    sqrt(layout.max_eig)) on x2, and on x1 when the contrast couples x1
    orders (``layout.n_rows > 1``).  Raise Underresolved, naming the axis,
    the count and the smallest power-of-two n that holds
    :data:`MIN_NODES_PER_WAVELENGTH`, when an axis holds fewer; log a
    warning when it holds fewer than :data:`WARN_NODES_PER_WAVELENGTH`.
    """
    wavelength = 2 * math.pi / (wave.k * math.sqrt(layout.max_eig))
    axes = [("x2", "n2", grid.n2, 2 * grid.rho_box)]
    if layout.n_rows > 1:
        axes.insert(0, ("x1", "n1", grid.n1, 2 * math.pi))
    for axis, name, n, length in axes:
        count = wavelength * n / length
        if count < MIN_NODES_PER_WAVELENGTH:
            ratio = MIN_NODES_PER_WAVELENGTH * length / wavelength
            needed = 1 << max(1, math.ceil(math.log2(ratio)))
            raise Underresolved(axis, count, MIN_NODES_PER_WAVELENGTH,
                                f"{name} = {n}", f"{name} = {needed}")
        if count < WARN_NODES_PER_WAVELENGTH:
            log.warning("%s = %d holds %.3g nodes per material wavelength "
                        "on %s; below %g the efficiencies may be inaccurate",
                        name, n, count, axis, WARN_NODES_PER_WAVELENGTH)


def build_problem(
    wave: IncidentWave,
    contrast: ContrastField,
    grid: Grid,
    rho_ref: float | None = None,
) -> Problem:
    """Sample the contrast on the grid and build the Problem.

    Raises what :func:`sample_contrast` raises for the geometry, then what
    :class:`Problem` raises: RayleighAnomaly at a cutoff order,
    UnresolvedOrder when a contrast that couples x1 orders has a
    propagating order the grid cannot hold (:func:`check_orders`), and
    Underresolved when the grid cannot hold the material wavelength
    (:func:`check_resolution`).
    """
    rho_ref, layout = sample_contrast(contrast, grid, rho_ref)
    return Problem(wave=wave, contrast=contrast, grid=grid, rho_ref=rho_ref,
                   layout=layout)


def sample_contrast(
    contrast: ContrastField,
    grid: Grid,
    rho_ref: float | None = None,
) -> tuple[float, ContrastLayout]:
    """The wave-independent part of :func:`build_problem`: the reference
    height and the layout of the contrast samples.

    Raises GeometryError when the box is too small (rho_box >= 2h is
    required so that the periodized kernel agrees with the free
    quasi-periodic kernel on the support slab), when a sample is not
    finite (naming the first such node) and when the sampler returns
    contrast beyond h; NonSymmetric when Q12 != Q21.  Sampling is pointwise
    at the nodes, in a fixed deterministic order.  An x1-invariant contrast
    is sampled, checked and laid out on the first x1 row alone; any other
    contrast is sampled on the full mesh.  Nothing sized by the grid is
    kept but the sampler's own output, until the layout has taken the
    nodes that carry contrast from it.  A k or theta sweep samples once
    and gives each point its wave.
    """
    if grid.rho_box < 2 * contrast.h - 1e-14:
        raise GeometryError(
            f"rho_box = {grid.rho_box} violates rho_box >= 2h = {2 * contrast.h}"
        )
    if rho_ref is None:
        rho_ref = contrast.h + 0.1 * (grid.rho_box - contrast.h)
    if not (contrast.h < rho_ref <= grid.rho_box):
        raise GeometryError(
            f"rho_ref = {rho_ref} must satisfy h < rho_ref <= rho_box"
        )

    x1, x2 = grid.x1_nodes(), grid.x2_nodes()
    if contrast.x1_invariant:
        x1 = x1[:1]
    # the mesh as broadcast views: no (N1, N2) coordinate arrays
    q = contrast.sample(*np.meshgrid(x1, x2, indexing="ij", copy=False))
    finite = np.isfinite(q).all(axis=(2, 3))
    if not finite.all():
        m1, m2 = np.argwhere(~finite)[0]
        raise GeometryError(
            f"sampler returned a non-finite contrast {q[m1, m2].tolist()} at "
            f"node ({m1}, {m2}), (x1, x2) = ({x1[m1]:.6g}, {x2[m2]:.6g})")
    # tolerance admits interface nodes that land on |x2| = h through
    # rounding; the nodes within h are one run of columns
    inside = np.flatnonzero(np.abs(x2) <= contrast.h * (1 + 1e-10) + 1e-300)
    lo, hi = (inside[0], inside[-1] + 1) if inside.size else (0, 0)
    if q[:, :lo].any() or q[:, hi:].any():
        raise GeometryError(
            "sampler returned nonzero contrast beyond its declared half-height h"
        )
    layout = ContrastLayout(q, grid)
    # Q12 and Q21 vanish off the nodes, and on them for a scalar field
    qn = layout.q_nodes
    if qn.ndim == 3:
        asym = np.max(np.abs(qn[0, 1] - qn[1, 0]))
        if asym > 1e-12 * max(1.0, float(np.max(np.abs(qn)))):
            raise NonSymmetric(
                f"Q12 != Q21 on the grid (max deviation {asym:g})")
    return float(rho_ref), layout


def incident_field(wave: IncidentWave, points) -> tuple[np.ndarray, np.ndarray]:
    """Incident wave values and gradients at the given points.

    ``points`` is array-like of shape (..., 2).  Returns (u, grad) with
    grad[..., :] = i*k*d * u; u is alpha-quasi-periodic in x1.
    """
    pts = np.asarray(points, dtype=float)
    kd = wave.k * np.asarray(wave.d)
    u = np.exp(1j * (pts[..., 0] * kd[0] + pts[..., 1] * kd[1]))
    grad = 1j * kd * u[..., None]
    return u, grad


# ----------------------------------------------------------------------------
# contrast constructors


def _as_matrix(q) -> np.ndarray:
    """Accept a scalar or a 2x2 matrix and return the 2x2 contrast value."""
    q = np.asarray(q, dtype=complex)
    if q.ndim == 0:
        return q * np.eye(2)
    if q.shape != (2, 2):
        raise ValueError(f"contrast entry must be scalar or 2x2, got {q.shape}")
    if abs(q[0, 1] - q[1, 0]) > 1e-12 * max(1.0, float(np.max(np.abs(q)))):
        raise NonSymmetric("contrast matrix must be symmetric (Q12 == Q21)")
    return q


def _indicator_sampler(mat: np.ndarray, inside):
    """Pointwise sampler q(x) = mat * chi(x), half value on the boundary.

    ``inside(x1, x2)`` returns +1 inside, 0 outside, 0.5 on the interface;
    this keeps pointwise sampling while giving the jump its symmetric value
    when a node lands exactly on the interface.
    """

    def sampler(x1, x2):
        w = inside(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
        return w[..., None, None] * mat

    return sampler


def _interval_weight(t, lo, hi):
    """1 inside (lo, hi), 0 outside, 1/2 on the endpoints.

    Endpoint detection uses a relative tolerance so that grid nodes placed
    on an interface by construction are recognized through rounding; the
    midpoint value is what the trigonometric interpolant of a jump converges
    to, and sampling it keeps the collocation error second order.
    """
    t = np.asarray(t, dtype=float)
    scale = max(abs(lo), abs(hi), 1e-300)
    on_edge = (np.abs(t - lo) <= 1e-12 * scale) | (np.abs(t - hi) <= 1e-12 * scale)
    w = np.zeros(t.shape)
    w[(t > lo) & (t < hi)] = 1.0
    w[on_edge] = 0.5
    return w


def _check_size(name: str, value: float):
    """Raise GeometryError unless a shape size is positive and finite."""
    if not 0 < value < np.inf:                          # also rejects NaN
        raise GeometryError(f"{name} must be positive and finite, got {value}")


def slab_contrast(q, thickness: float) -> ContrastField:
    """Homogeneous slab |x2| < thickness/2 with contrast matrix (or scalar) q."""
    mat = _as_matrix(q)
    _check_size("slab thickness", thickness)
    h = thickness / 2.0

    def inside(x1, x2):
        return _interval_weight(x2, -h, h) * np.ones_like(np.asarray(x1, float))

    return ContrastField(sampler=_indicator_sampler(mat, inside), h=h,
                         x1_invariant=True)


def circle_contrast(q, radius: float, center_x2: float = 0.0) -> ContrastField:
    """Disk of given radius centered at (0, center_x2), repeated per period."""
    mat = _as_matrix(q)
    if not 0 < radius < np.pi:                          # also rejects NaN
        raise GeometryError("circle radius must lie in (0, pi)")
    h = abs(center_x2) + radius

    def inside(x1, x2):
        dx1 = (np.asarray(x1, float) + np.pi) % (2 * np.pi) - np.pi
        r = np.hypot(dx1, np.asarray(x2, float) - center_x2)
        w = np.zeros(r.shape)
        w[r < radius] = 1.0
        w[np.abs(r - radius) <= 1e-12 * radius] = 0.5
        return w

    return ContrastField(sampler=_indicator_sampler(mat, inside), h=h)


def rectangle_contrast(q, width: float, height: float) -> ContrastField:
    """Centered rectangle |x1| < width/2 (periodized), |x2| < height/2."""
    mat = _as_matrix(q)
    if not 0 < width <= 2 * np.pi:                      # also rejects NaN
        raise GeometryError("rectangle width must lie in (0, 2*pi]")
    _check_size("rectangle height", height)
    h = height / 2.0

    def inside(x1, x2):
        dx1 = (np.asarray(x1, float) + np.pi) % (2 * np.pi) - np.pi
        return _interval_weight(dx1, -width / 2, width / 2) * _interval_weight(
            x2, -h, h
        )

    return ContrastField(sampler=_indicator_sampler(mat, inside), h=h)


def two_layer_contrast(q_lower, q_upper, thickness_lower: float,
                       thickness_upper: float) -> ContrastField:
    """Two stacked homogeneous layers, centered so the stack spans |x2| < h."""
    m_lo = _as_matrix(q_lower)
    m_up = _as_matrix(q_upper)
    _check_size("lower layer thickness", thickness_lower)
    _check_size("upper layer thickness", thickness_upper)
    h = (thickness_lower + thickness_upper) / 2.0
    split = -h + thickness_lower

    def sampler(x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        w_lo = _interval_weight(x2, -h, split)
        w_up = _interval_weight(x2, split, h)
        ones = np.ones(np.broadcast_shapes(x1.shape, x2.shape))
        return (w_lo * ones)[..., None, None] * m_lo + (
            (w_up * ones)[..., None, None] * m_up
        )

    return ContrastField(sampler=sampler, h=h, x1_invariant=True)


# ----------------------------------------------------------------------------
# raster ingestion

_RASTER_MAGIC = b"VIGR"
_RASTER_HEADER = 36     # magic, N1, N2 (int64), h, rho (float64)


def write_raster(path, q_cells: np.ndarray, h: float, rho: float):
    """Write a contrast raster: per-cell 2x2 complex matrices, row-major.

    Header: magic, N1, N2 (little-endian int64), h, rho (little-endian
    float64); body: N1*N2*4 complex entries as little-endian float64 pairs.
    The raster covers (-pi, pi) x (-rho, rho) with N1 x N2 cells.
    """
    q = np.ascontiguousarray(q_cells, dtype=np.complex128)
    if q.ndim != 4 or q.shape[2:] != (2, 2):
        raise ShapeMismatch(f"raster array must be (N1, N2, 2, 2), got {q.shape}")
    with open(path, "wb") as fh:
        fh.write(_RASTER_MAGIC)
        fh.write(struct.pack("<qq", q.shape[0], q.shape[1]))
        fh.write(struct.pack("<dd", h, rho))
        fh.write(q.astype("<c16").tobytes())


def raster_contrast(path) -> ContrastField:
    """Load a contrast raster written by :func:`write_raster`.

    The header is checked against the file size before the body is read,
    so a malformed file raises :class:`GeometryError` naming the cause.
    Sampling is nearest-cell lookup (pointwise, no smoothing).
    """
    with open(path, "rb") as fh:
        header = fh.read(_RASTER_HEADER)
        if header[:4] != _RASTER_MAGIC:
            raise GeometryError(f"{path}: not a contrast raster file")
        if len(header) < _RASTER_HEADER:
            raise GeometryError(f"{path}: raster header is {len(header)} "
                                f"bytes, expected {_RASTER_HEADER}")
        n1, n2 = struct.unpack("<qq", header[4:20])
        h, rho = struct.unpack("<dd", header[20:])
        if n1 < 1 or n2 < 1:
            raise GeometryError(f"{path}: raster size {n1} x {n2} has no cells")
        if not (0 <= h <= rho and 0 < rho < np.inf):    # also rejects NaN
            raise GeometryError(f"{path}: raster extent needs 0 <= h <= rho "
                                f"and rho > 0, got h={h}, rho={rho}")
        body = os.fstat(fh.fileno()).st_size - _RASTER_HEADER
        if body != n1 * n2 * 64:
            raise GeometryError(f"{path}: raster body is {body} bytes, but "
                                f"{n1} x {n2} cells need {n1 * n2 * 64}")
        data = np.frombuffer(fh.read(body), dtype="<c16")
    cells = data.reshape(n1, n2, 2, 2).astype(np.complex128)

    def sampler(x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        i1 = np.floor((x1 + np.pi) / (2 * np.pi) * n1).astype(int) % n1
        i2 = np.floor((x2 + rho) / (2 * rho) * n2).astype(int)
        out = np.zeros(np.broadcast_shapes(x1.shape, x2.shape) + (2, 2),
                       dtype=complex)
        ok = (i2 >= 0) & (i2 < n2) & (np.abs(x2) <= h)
        i1b, i2b, _ = np.broadcast_arrays(i1, i2, x1 + x2)
        out[ok] = cells[i1b[ok], np.clip(i2b[ok], 0, n2 - 1)]
        return out

    return ContrastField(sampler=sampler, h=h)
