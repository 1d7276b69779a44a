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

from .errors import DegenerateAtZeroJ2, RayleighAnomaly, SlowConvergence
from .problem import ANOMALY_RTOL, Grid, IncidentWave


def beta(j1, k: float, alpha: float) -> complex:
    """Vertical wavenumber of order j1: sqrt(k^2 - (j1 + alpha)^2).

    Principal branch with Im >= 0; real positive for propagating orders,
    positive imaginary for evanescent ones.  Raises RayleighAnomaly within
    relative tolerance 1e-10 of cutoff.
    """
    k2 = k**2
    aj = j1 + alpha
    if abs(k2 - aj**2) < ANOMALY_RTOL * max(1.0, abs(k2)):
        raise RayleighAnomaly(j1, k, alpha)
    return complex(np.sqrt(complex(k2 - aj**2)))


def _beta_many(j1, k_squared: float, alpha: float) -> np.ndarray:
    """Vectorized vertical wavenumbers from k^2 (no anomaly check)."""
    aj = np.asarray(j1, dtype=float) + alpha
    b = np.sqrt((k_squared - aj**2).astype(complex))
    return np.where(b.imag < 0, -b, b)


def helmholtz_symbol(j1, j2, k_squared: float, alpha: float, rho: float):
    """Symbol of (Laplace + k^2) on the basis mode (j1, j2):
    k^2 - (j1 + alpha)^2 - (j2 pi / rho)^2."""
    aj = np.asarray(j1, dtype=float) + alpha
    mu = np.asarray(j2, dtype=float) * np.pi / rho
    return k_squared - aj**2 - mu**2


def degenerate_coefficient(j2: int, rho: float) -> complex:
    """Kernel coefficient at a mode where the Helmholtz symbol vanishes.

    The limiting value of the generic formula is (i / (4 |j2|)) (rho/pi)^{3/2};
    it is even in j2 because the kernel itself is even in x2.
    """
    if j2 == 0:
        raise DegenerateAtZeroJ2(
            "symbol vanished at j2 == 0; non-resonance validation failed upstream"
        )
    return 0.25j / abs(j2) * (rho / np.pi) ** 1.5


def kernel_coefficient(
    j1: int,
    j2: int,
    k: float | None,
    alpha: float,
    rho: float,
    k_squared: float | None = None,
) -> complex:
    """Fourier coefficient of the periodized kernel at mode (j1, j2).

    Generic branch: (cos(j2 pi) e^{i beta_{j1} rho} - 1) / (sqrt(4 pi rho)
    lambda_j) with lambda_j the Helmholtz symbol; when |lambda_j| falls below
    1e-8 * max(1, |k^2|) the closed-form limit value is used instead (the
    generic branch loses about eight digits there in double precision).

    Pass ``k_squared=-1.0`` (with k=None) for the exponentially damped
    reference kernel used by the compactness diagnostics.
    """
    if k_squared is None:
        k_squared = float(k) ** 2
    lam = float(helmholtz_symbol(j1, j2, k_squared, alpha, rho))
    eps_lam = 1e-8 * max(1.0, abs(k_squared))
    if abs(lam) <= eps_lam:
        return degenerate_coefficient(j2, rho)
    b = complex(_beta_many(np.array([j1]), k_squared, alpha)[0])
    num = np.cos(j2 * np.pi) * np.exp(1j * b * rho) - 1.0
    return complex(num / (np.sqrt(4 * np.pi * rho) * lam))


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

    Each entry is the wave's :class:`KernelTable`, a read-only view of the
    stack, or the DegenerateAtZeroJ2 that rejects that wave alone.  Every
    step is elementwise, so a table is bit for bit the one its wave gets
    alone.
    """
    rho = grid.rho_box
    j1_all = grid.j1_modes()
    j1 = j1_all[:rows, None]
    j2 = grid.j2_modes()[None, :]
    eps = [1e-8 * max(1.0, abs(ks)) for ks in k_squared]
    waves = np.array([alpha, k_squared, eps], dtype=float)[:, :, None, None]
    # the j2 == 0 column of every row, tabulated or not
    zero = (np.abs(helmholtz_symbol(j1_all, 0, waves[1, :, 0],
                                    waves[0, :, 0], rho))
            <= waves[2, :, 0]).any(axis=1)
    out = [DegenerateAtZeroJ2("symbol vanished at a j2 == 0 mode; "
                              "non-resonance validation failed upstream")
           if bad else None for bad in zero.tolist()]
    built = np.flatnonzero(~zero)
    if not built.size:
        return out
    alphas, k2s, eps_lam = waves[:, built]
    lam = helmholtz_symbol(j1, j2, k2s, alphas, rho)
    b = _beta_many(j1, k2s, alphas)

    degenerate = np.abs(lam) <= eps_lam
    lam_safe = np.where(degenerate, 1.0, lam)
    num = np.cos(j2 * np.pi) * np.exp(1j * b * rho) - 1.0
    coeffs = num / (np.sqrt(4 * np.pi * rho) * lam_safe)
    if np.any(degenerate):
        jj2 = np.broadcast_to(j2, degenerate.shape)
        vals = 0.25j / np.abs(np.where(degenerate, jj2, 1)) * (rho / np.pi) ** 1.5
        coeffs = np.where(degenerate, vals, coeffs)
    coeffs = np.ascontiguousarray(coeffs)
    coeffs.setflags(write=False)
    for p, i in enumerate(built.tolist()):
        at = np.nonzero(degenerate[p])
        degs = tuple(zip(j1[at[0], 0].tolist(), j2[0, at[1]].tolist()))
        out[i] = KernelTable(k_squared=k_squared[i], k=k[i], alpha=alpha[i],
                             rho=rho, coeffs=coeffs[p], degenerate_modes=degs)
    return out


def _wave_tables(grid: Grid, waves, rows: int | None) -> list:
    """The tables of ``waves`` from one build, or the RayleighAnomaly or
    DegenerateAtZeroJ2 that rejects a wave alone."""
    out: list = [None] * len(waves)
    valid = []
    for i, wave in enumerate(waves):
        try:
            wave.check_nonresonance()
            valid.append(i)
        except RayleighAnomaly as exc:
            out[i] = exc
    tables = _build_tables(grid, [waves[i].alpha for i in valid],
                           [waves[i].k**2 for i in valid],
                           [waves[i].k for i in valid], rows)
    for i, table in zip(valid, tables):
        out[i] = table
    return out


def kernel_table(grid: Grid, wave: IncidentWave | Sequence[IncidentWave],
                 rows: int | None = None) -> KernelTable | list:
    """Tabulate the N1 x N2 kernel coefficients for a validated wave.

    ``rows`` keeps only the first ``rows`` storage rows (x1 frequencies
    ``j1_modes()[:rows]``), with the same values as the full table; a
    layered solve needs only the row j1 = 0.  Either way the table raises
    DegenerateAtZeroJ2 if the symbol vanishes at j2 == 0 in any row.

    ``wave`` may also be a sequence of waves (the points of a sweep batch):
    one (P, rows, N2) build tabulates them all, and the list returned holds
    each wave's table, bit for bit the one it gets alone, or the
    RayleighAnomaly or DegenerateAtZeroJ2 that rejects it alone.
    """
    if not isinstance(wave, IncidentWave):
        return _wave_tables(grid, wave, rows)
    table, = _wave_tables(grid, [wave], rows)
    if isinstance(table, Exception):
        raise table
    return table


def reference_table(grid: Grid, alpha: float) -> KernelTable:
    """Kernel table with k^2 = -1 (purely damped reference operator).

    All vertical wavenumbers are i*sqrt(1 + alpha_j^2); no cutoff orders and
    no degenerate modes exist, so no validation is needed.
    """
    table, = _build_tables(grid, [alpha], [-1.0], [float("nan")])
    return table


def decay_shell_stat(table: KernelTable, grid: Grid, shell: int) -> float:
    """max over |j|_inf == shell of |K_hat(j)| * (1 + alpha_j^2 + (j2 pi/rho)^2).

    The kernel coefficients decay quadratically, so this quantity is bounded
    by a single table-wide constant; comparing shells checks the bound.
    """
    j1 = grid.j1_modes()[:, None]
    j2 = grid.j2_modes()[None, :]
    ring = np.maximum(np.abs(j1), np.abs(j2)) == shell
    aj = j1 + table.alpha
    mu = j2 * np.pi / table.rho
    weight = 1.0 + aj**2 + mu**2
    return float(np.max(np.abs(table.coeffs[ring]) * weight[ring]))


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
