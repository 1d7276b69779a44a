import numpy as np
import pytest

from vigrating.errors import RayleighAnomaly, SlowConvergence
from vigrating.kernel import (
    _beta_many,
    _build_tables,
    greens_series,
    greens_series_many,
    helmholtz_symbol,
    kernel_table,
    reference_table,
    series_tail_bound,
)
from vigrating.problem import Grid, IncidentWave

# frozen arbitrary-precision value of the generic branch at
# k = 1, alpha = 0.5, rho = pi, j = (0, 0) (mpmath, 40 digits)
GENERIC_REFERENCE = -0.4058926811992577 + 0.0867025694892423j


def _wave(k, alpha):
    return IncidentWave(k=k, d=(alpha / k, -np.sqrt(1 - (alpha / k) ** 2)))


def _entries(k_squared, alpha, rho, j2s):
    """The row j1 = 0 entries at ``j2s`` of the table of k^2, alpha, rho."""
    grid = Grid(n1=4, n2=8, rho_box=rho)
    table, = _build_tables(grid, [alpha], [k_squared], [np.sqrt(k_squared)],
                           rows=1)
    j2 = grid.j2_modes().tolist()
    return [complex(table.coeffs[0, j2.index(m)]) for m in j2s]


def decay_shell_stat(table, grid, shell: int) -> float:
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


def test_beta_examples():
    assert _beta_many(0, 4.0, 0.0) == 2.0
    b = _beta_many(1, 1.0, 0.5)
    assert np.isclose(b, 1j * np.sqrt(1.25))
    # the anomaly rule lives in the wave, not in the wavenumber
    with pytest.raises(RayleighAnomaly):
        IncidentWave(k=1.0, d=(0.0, -1.0)).check_nonresonance()


def test_beta_branch():
    k, alpha = 2.3, 0.4
    n_real = 0
    for b in _beta_many(np.arange(-50, 51), k**2, alpha):
        assert b.imag >= 0
        if b.imag == 0:
            assert b.real > 0
            n_real += 1
    # exactly the orders with |j + alpha| < k propagate
    assert n_real == sum(1 for j in range(-50, 51) if (j + alpha) ** 2 < k**2)


def test_kernel_coefficient_generic_value():
    val, = _entries(1.0, 0.5, np.pi, [0])
    assert abs(val - GENERIC_REFERENCE) < 1e-15


def test_kernel_coefficient_degenerate_even_in_j2():
    # the kernel is even in x2, so the degenerate value carries 1/|j2|
    # and is identical at j2 = +1 and j2 = -1
    assert _entries(1.0, 0.0, np.pi, [1, -1]) == [0.25j, 0.25j]


def test_degenerate_value_against_quadrature():
    # independent check of the limit value: reduce the kernel series over
    # the x1 period analytically for j1 = 0 and integrate the remaining
    # x2 profile e^{i k |t|} against the vertical mode numerically
    k, rho = 1.0, np.pi
    t = np.linspace(-rho, rho, 200001)
    for j2 in (1, -1):
        integrand = np.exp(1j * k * np.abs(t)) * np.exp(-1j * j2 * np.pi * t / rho)
        integral = np.trapezoid(integrand, t)
        val = 0.5j / (np.sqrt(4 * np.pi * rho) * k) * integral
        assert abs(val - 0.25j) < 1e-8


def test_branch_continuity_through_symbol_zero():
    for eps in (1e-6, -1e-6):
        for val in _entries(1.0 + eps, 0.0, np.pi, [1, -1]):
            assert abs(val - 0.25j) / 0.25 < 1e-4


def test_degenerate_mode_locations():
    # k = 1, alpha = 0, rho = pi: the symbol vanishes exactly at (0, +-1)
    grid = Grid(n1=8, n2=8, rho_box=np.pi)
    j1 = grid.j1_modes()[:, None]
    j2 = grid.j2_modes()[None, :]
    lam = helmholtz_symbol(j1, j2, 1.0, 0.0, np.pi)
    hits = {(int(a), int(b)) for a, b in
            zip(np.broadcast_to(j1, lam.shape)[np.abs(lam) < 1e-12],
                np.broadcast_to(j2, lam.shape)[np.abs(lam) < 1e-12])
            if a == 0}
    assert hits == {(0, 1), (0, -1)}


def test_table_degenerate_entries_match_the_scalar_limit():
    # rho = 2 pi / 3 makes j2 pi / rho = 1.5 j2, so at k = 1.5, alpha = 0
    # the symbol vanishes exactly at (0, +-1) and nowhere else
    rho, k = 2 * np.pi / 3, 1.5
    grid = Grid(n1=16, n2=32, rho_box=rho)
    table = kernel_table(grid, _wave(k, 0.0))
    assert sorted(table.degenerate_modes) == [(0, -1), (0, 1)]
    closed_form = 0.25j * (rho / np.pi) ** 1.5
    j1 = list(grid.j1_modes())
    j2 = list(grid.j2_modes())
    for m1, m2 in table.degenerate_modes:
        entry = table.coeffs[j1.index(m1), j2.index(m2)]
        assert abs(entry - closed_form) <= 1e-15


def test_table_alpha_zero_symmetries():
    grid = Grid(n1=16, n2=16, rho_box=1.3)
    wave = IncidentWave(k=0.7, d=(0.0, -1.0))
    table = kernel_table(grid, wave)
    j1 = grid.j1_modes()
    j2 = grid.j2_modes()
    for a in range(1, 8):
        i_p, i_m = list(j1).index(a), list(j1).index(-a)
        assert np.allclose(table.coeffs[i_p], table.coeffs[i_m])
    # even in j2 always (the kernel depends on |x2|)
    for b in range(1, 8):
        i_p, i_m = list(j2).index(b), list(j2).index(-b)
        assert np.allclose(table.coeffs[:, i_p], table.coeffs[:, i_m])


def test_quadratic_decay_shells():
    grid = Grid(n1=64, n2=64, rho_box=2.0)
    table = kernel_table(grid, _wave(1.0, 0.3))
    outer = decay_shell_stat(table, grid, 32 - 1)
    inner = decay_shell_stat(table, grid, 16)
    assert outer <= 4.0 * inner


def test_summable_in_j2():
    # for each fixed j1 the coefficient column is absolutely summable
    grid = Grid(n1=8, n2=256, rho_box=1.5)
    table = kernel_table(grid, _wave(0.9, 0.2))
    sums = np.sum(np.abs(table.coeffs), axis=1)
    tail = np.sum(np.abs(table.coeffs[:, 64:128]), axis=1)
    assert np.all(sums < np.inf)
    assert np.all(tail < 0.05 * sums)


def test_reference_table_damped():
    grid = Grid(n1=8, n2=8, rho_box=1.0)
    table = reference_table(grid, 0.3)
    assert table.k_squared == -1.0
    assert table.degenerate_modes == ()
    lam = helmholtz_symbol(grid.j1_modes()[:, None], grid.j2_modes()[None, :],
                           -1.0, 0.3, 1.0)
    assert np.all(lam < 0)


@pytest.mark.parametrize("k, alpha, rho", [
    (1.1, 0.25, 1.7),
    (1.5, 0.0, 2 * np.pi / 3),      # symbol vanishes at (0, +-1)
], ids=["generic", "degenerate"])
def test_row_table_is_the_leading_rows_of_the_full_table(k, alpha, rho):
    grid = Grid(n1=16, n2=32, rho_box=rho)
    wave = _wave(k, alpha)
    full = kernel_table(grid, wave)
    for rows in (1, 5, 16):
        part = kernel_table(grid, wave, rows)
        assert part.shape == (rows, 32)
        assert np.array_equal(part.coeffs, full.coeffs[:rows])
        kept = set(grid.j1_modes()[:rows].tolist())
        assert part.degenerate_modes == tuple(
            m for m in full.degenerate_modes if m[0] in kept)
    assert (rho == 1.7) == (full.degenerate_modes == ())


def test_row_table_keeps_the_zero_j2_guard_of_every_row():
    # order -1 lies within 3e-9 k^2 of cutoff: the symbol vanishes at
    # (j1, j2) = (-1, 0), outside row 0, and the wave is rejected there
    wave = IncidentWave.from_angle(4.0 / (2 * np.pi), 34.805774833288794)
    grid = Grid(n1=16, n2=32, rho_box=3.0)
    for rows in (None, 1):
        with pytest.raises(RayleighAnomaly,
                           match="Rayleigh anomaly at order j=-1"):
            kernel_table(grid, wave, rows)


def test_greens_series_tail_bound():
    bound = series_tail_bound(40, 0.5, 1.0, 0.0)
    assert bound < 1e-8
    beta_41 = np.sqrt(41**2 - 1)
    single = np.exp(-beta_41 * 0.5) / (4 * np.pi * beta_41)
    assert bound < 4 * single
    with pytest.raises(ValueError):
        series_tail_bound(0, 0.5, 5.0, 0.0)     # first omitted not evanescent


def test_greens_series_point_checks():
    k, alpha = 1.0, 0.35
    val, bound = greens_series((0.4, 0.5), k, alpha, 60)
    val_hi, _ = greens_series((0.4, 0.5), k, alpha, 120)
    assert abs(val - val_hi) <= 10 * bound
    # quasi-periodicity in x1
    v1, _ = greens_series((0.4 + 2 * np.pi, 0.5), k, alpha, 60)
    assert abs(v1 - val * np.exp(2j * np.pi * alpha)) < 1e-12
    # even in x2
    v2, _ = greens_series((0.4, -0.5), k, alpha, 60)
    assert v2 == val
    with pytest.raises(SlowConvergence):
        greens_series((0.1, 1e-4), k, alpha, 60)


def test_greens_series_many_matches_scalar():
    z1 = np.array([0.3, -1.2])
    z2 = np.array([0.6, 0.9])
    many = greens_series_many(z1, z2, 1.2, 0.1, 50)
    for i in range(2):
        one, _ = greens_series((z1[i], z2[i]), 1.2, 0.1, 50)
        assert abs(many[i] - one) < 1e-14
