"""Closed-form Fourier multipliers of the periodized quasi-periodic kernel.

The free kernel of the quasi-periodic Helmholtz equation,

    G(x) = (i / 4 pi) * sum_j (1 / beta_j) exp(i alpha_j x1 + i beta_j |x2|),
    alpha_j = j + alpha,   beta_j = sqrt(k^2 - alpha_j^2),  Im beta_j >= 0,

is restricted to the strip |x2| < rho and extended 2*rho-periodically.  Its
Fourier coefficients with respect to the orthonormal quasi-periodic basis

    phi_j(x) = exp(i alpha_{j1} x1 + i j2 pi x2 / rho) / sqrt(4 pi rho)

are available in closed form, which is what makes the FFT-convolution path
of the volume potential exact on trigonometric polynomials.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import SlowConvergence
from .problem import Grid, IncidentWave, at_cutoff


def _beta_many(j1, k_squared: float, alpha: float) -> np.ndarray:
    """Vertical wavenumbers sqrt(k^2 - (j1 + alpha)^2) of the orders j1.

    Principal branch with Im >= 0: real positive for propagating orders,
    positive imaginary for evanescent ones.  No anomaly check: a wave is
    checked by :meth:`IncidentWave.check_nonresonance`.
    """
    aj = np.asarray(j1, dtype=float) + alpha
    b = np.sqrt((k_squared - aj**2).astype(complex))
    return np.where(b.imag < 0, -b, b)


def helmholtz_symbol(j1, j2, k_squared: float, alpha: float, rho: float):
    """Symbol of (Laplace + k^2) on the basis mode (j1, j2):
    k^2 - (j1 + alpha)^2 - (j2 pi / rho)^2."""
    aj = np.asarray(j1, dtype=float) + alpha
    mu = np.asarray(j2, dtype=float) * np.pi / rho
    return k_squared - aj**2 - mu**2


@dataclass(frozen=True)
class KernelTable:
    """Precomputed multiplier array K_hat(j) on a grid's index set.

    ``coeffs`` is stored in FFT order, aligned with SpectralField layouts;
    it holds all N1 rows, or the leading rows asked of :func:`kernel_table`.
    ``degenerate_modes`` lists the (j1, j2) pairs where the limit branch
    was taken.
    """

    k_squared: float
    k: float
    alpha: float
    rho: float
    coeffs: np.ndarray = field(repr=False)
    degenerate_modes: tuple = ()

    @property
    def shape(self):
        return self.coeffs.shape


def _build_tables(grid: Grid, alpha, k_squared, k,
                  rows: int | None = None) -> list:
    """The tables of P waves, given as sequences ``alpha``, ``k_squared``
    and ``k`` of P values each, from one (P, rows, N2) build.

    Generic branch: (cos(j2 pi) e^{i beta_{j1} rho} - 1) / (sqrt(4 pi rho)
    lambda_j) with lambda_j the Helmholtz symbol.  Where
    :func:`problem.at_cutoff` holds for lambda_j, the generic branch loses
    about eight digits in double precision, and the closed-form limit
    value (i / (4 |j2|)) (rho/pi)^{3/2} is used instead; it is even in j2
    because the kernel itself is even in x2.

    Each entry is the wave's :class:`KernelTable`, a read-only view of the
    stack.  Every step is elementwise, so a table is bit for bit the one
    its wave gets alone.  The waves must be clear of the Rayleigh
    anomalies (:meth:`IncidentWave.check_nonresonance`): only a mode with
    j2 != 0 may take the limit value.
    """
    rho = grid.rho_box
    j1 = grid.j1_modes()[:rows, None]
    j2 = grid.j2_modes()[None, :]
    alphas, k2s = np.array([alpha, k_squared], dtype=float)[:, :, None, None]
    lam = helmholtz_symbol(j1, j2, k2s, alphas, rho)
    b = _beta_many(j1, k2s, alphas)

    degenerate = at_cutoff(lam, k2s)
    lam_safe = np.where(degenerate, 1.0, lam)
    num = np.cos(j2 * np.pi) * np.exp(1j * b * rho) - 1.0
    coeffs = num / (np.sqrt(4 * np.pi * rho) * lam_safe)
    if np.any(degenerate):
        jj2 = np.broadcast_to(j2, degenerate.shape)
        vals = 0.25j / np.abs(np.where(degenerate, jj2, 1)) * (rho / np.pi) ** 1.5
        coeffs = np.where(degenerate, vals, coeffs)
    coeffs = np.ascontiguousarray(coeffs)
    coeffs.setflags(write=False)
    out = []
    for p in range(len(coeffs)):
        at = np.nonzero(degenerate[p])
        degs = tuple(zip(j1[at[0], 0].tolist(), j2[0, at[1]].tolist()))
        out.append(KernelTable(k_squared=k_squared[p], k=k[p], alpha=alpha[p],
                               rho=rho, coeffs=coeffs[p],
                               degenerate_modes=degs))
    return out


def kernel_table(grid: Grid, wave: IncidentWave | Sequence[IncidentWave],
                 rows: int | None = None) -> KernelTable | list:
    """Tabulate the N1 x N2 kernel coefficients for a wave, which raises
    RayleighAnomaly at a cutoff order.

    ``rows`` keeps only the first ``rows`` storage rows (x1 frequencies
    ``j1_modes()[:rows]``), with the same values as the full table; a
    layered solve needs only the row j1 = 0.  A wave is checked at every
    order, whether or not its row is kept.

    ``wave`` may also be a sequence of waves (the points of a sweep batch):
    each is checked, and the first RayleighAnomaly is raised, as the one
    wave's call raises it; then one (P, rows, N2) build tabulates them all,
    and the list returned holds each wave's table, bit for bit the one it
    gets alone.
    """
    waves = [wave] if isinstance(wave, IncidentWave) else list(wave)
    for w in waves:
        w.check_nonresonance()
    tables = _build_tables(grid, [w.alpha for w in waves],
                           [w.k**2 for w in waves], [w.k for w in waves], rows)
    return tables[0] if isinstance(wave, IncidentWave) else tables


def reference_table(grid: Grid, alpha: float) -> KernelTable:
    """Kernel table with k^2 = -1 (purely damped reference operator).

    All vertical wavenumbers are i*sqrt(1 + alpha_j^2); no cutoff orders and
    no degenerate modes exist, so no validation is needed.
    """
    table, = _build_tables(grid, [alpha], [-1.0], [float("nan")])
    return table


# ----------------------------------------------------------------------------
# truncated series evaluation (oracle use only; the production path never
# sums the kernel series pointwise)


def series_tail_bound(j_max: int, x2_abs: float, k: float, alpha: float) -> float:
    """Magnitude estimate of the first omitted terms of the kernel series.

    Both orders +-(j_max + 1) must already be evanescent; the tail of the
    series is dominated by these first omitted terms because the decay
    exponent grows with |j|.
    """
    total = 0.0
    for j in (j_max + 1, -(j_max + 1)):
        b = complex(_beta_many(np.array([j]), k**2, alpha)[0])
        if b.imag <= 0:
            raise ValueError(
                f"order {j} is not evanescent; increase the truncation"
            )
        total += np.exp(-b.imag * x2_abs) / (4 * np.pi * abs(b))
    return float(total)


def greens_series(point, k: float, alpha: float, j_max: int):
    """Truncated kernel series at one point; returns (value, tail_bound).

    Not usable on the singular line x2 = 0: raises SlowConvergence for
    |x2| < 1e-3 where the exponential decay of the tail is too weak.
    """
    x1, x2 = float(point[0]), float(point[1])
    if abs(x2) < 1e-3:
        raise SlowConvergence(
            f"series evaluation at |x2| = {abs(x2):g} < 1e-3 is unreliable"
        )
    val = greens_series_many(np.array([x1]), np.array([x2]), k, alpha, j_max)
    return complex(val[0]), series_tail_bound(j_max, abs(x2), k, alpha)


def greens_series_many(z1, z2, k: float, alpha: float, j_max: int) -> np.ndarray:
    """Vectorized truncated kernel series over offset arrays z1, z2."""
    z1, z2 = np.broadcast_arrays(
        np.asarray(z1, dtype=float), np.asarray(z2, dtype=float)
    )
    orders = np.arange(-j_max, j_max + 1)
    b = _beta_many(orders, k**2, alpha)
    aj = orders + alpha
    flat1 = z1.reshape(-1)
    flat2 = np.abs(z2.reshape(-1))
    # accumulate in chunks of orders to bound the temporary size
    out = np.zeros(flat1.shape, dtype=complex)
    chunk = max(1, int(4e6 // max(flat1.size, 1)))
    for start in range(0, orders.size, chunk):
        sl = slice(start, start + chunk)
        phase = np.exp(
            1j * np.outer(aj[sl], flat1) + 1j * np.outer(b[sl], flat2)
        )
        out += (1.0 / b[sl]) @ phase
    return (0.25j / np.pi) * out.reshape(z1.shape)
