"""Rayleigh coefficients, far-field evaluation, diffraction efficiencies and
the energy-balance diagnostic.

Normalization (fixed; the single most bug-prone convention in the scheme):
the scattered field is expanded as

    u^s(x) = sum_j  c_j^+ exp(i alpha_j x1 + i beta_j (x2 - rho_ref)),  x2 >  rho_ref,
    u^s(x) = sum_j  c_j^- exp(i alpha_j x1 - i beta_j (x2 + rho_ref)),  x2 < -rho_ref,

so c_j^{+-} is the j-th Fourier coefficient of u^s on the line x2 = +-rho_ref.
In this normalization the incident wave exp(i alpha x1 - i beta_0 x2)
contributes exp(+i beta_0 rho_ref) to the zeroth below-side coefficient of
the total field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotConverged, ShapeMismatch, Unphysical
from .kernel import _beta_many
from .operators import OperatorStack, evaluate, live_rows
from .problem import Problem
from .solver import Solution

EVANESCENT_DROP = 40.0
# how far a solve's efficiencies may break physics before check_physics
# refuses them, with a wide margin: the largest energy defect of a bundled
# config, validate gate, benchmark run or test is 3.3e-4 (a q = -5 circle
# at 64 x 64), and every passive lossy one absorbs at least 2.7e-3
PHYSICS_TOL = 1e-2


@dataclass(frozen=True)
class RayleighData:
    """One-sided Rayleigh coefficients of the scattered field.

    ``coefficients[j]`` maps each order the density reaches to its
    amplitude: every order of a density on all N1 rows, the order 0 of the
    one-row density of a layered solve.  Every other order is an exact
    zero, which :meth:`order` returns; orders whose decay exponent
    Im(beta_j) * rho_ref exceeds the drop threshold are among them and
    listed in ``truncated``.
    """

    side: str                       # "+" above, "-" below
    coefficients: dict = field(repr=False)
    propagating: tuple
    rho_ref: float
    truncated: tuple = ()

    def order(self, j: int) -> complex:
        return self.coefficients.get(j, 0.0)


def rayleigh_both_sides(
    solution: Solution,
) -> tuple[RayleighData, RayleighData]:
    """Rayleigh coefficients above and below from moments of the density:
    the batch of one of :func:`rayleigh_batch`, on the solve's stack of
    one.  A Solution made from a field builds its density from that
    field."""
    if not solution.converged:
        raise NotConverged("Rayleigh extraction requires a converged solve")
    if solution.density is not None:
        stack, z = solution.stack, solution.density[None]
    else:
        problem = solution.problem
        c = live_rows(solution.rows, problem.layout.n_rows)
        stack = OperatorStack([problem], [solution.table], len(c))
        z = stack.density(c[None])
    return _rayleigh(stack, z)[0]


def rayleigh_batch(solutions) -> list[tuple[RayleighData, RayleighData]]:
    """The (above, below) Rayleigh coefficients of converged solves of
    one contrast layout, grid and reference height (the solved points of a
    sweep batch), each from its density on its problem and table.

    One density stack and one moment pass per side serve the batch; each
    solution's coefficients are bit for bit those of its own
    :func:`rayleigh_both_sides`.  The stack applies no operator, so it
    builds no kernel multiplier.
    """
    if not all(s.converged for s in solutions):
        raise NotConverged("Rayleigh extraction requires a converged solve")
    stack = OperatorStack([s.problem for s in solutions],
                          [s.table for s in solutions])
    return _rayleigh(stack, np.stack([s.density for s in solutions]))


def _rayleigh(stack: OperatorStack, densities: np.ndarray):
    """Rayleigh coefficients of the packed total densities ``densities``
    of the points of ``stack``.

    For a density w = Q grad(u^s + u^i) supported in the grating slab the
    scattered field above (below) is grad G * w summed over orders, which
    gives

        c_j^{+-} = -(e^{i beta_j rho_ref} / (4 pi beta_j))
                   integral_D e^{-i alpha_j y1 -+ i beta_j y2}
                              (alpha_j w_1 +- beta_j w_2) dy,

    evaluated by the trapezoidal rule on the grid (spectrally accurate in
    the periodic direction).  The densities are laid out on the support
    columns and transformed in x1 in one stack, which turns the y1 sums of
    all orders into row lookups, leaving one x2 dot product per order, side
    and point, all taken in one pass per side.  The density of a layered
    solve has one x1-invariant row, so every order but 0 has an exactly
    zero coefficient.
    """
    problems = stack.problems
    first = problems[0]
    grid, rho_ref = first.grid, first.rho_ref
    if any(p.rho_ref != rho_ref for p in problems):
        raise ShapeMismatch("a batch of Rayleigh extractions needs one "
                            "reference height")
    density = stack.density_rows(densities)         # (2, P, rows, x2)
    waves = np.array([[p.k**2, p.alpha] for p in problems])
    alpha = waves[:, 1:]

    orders = np.arange(1 - grid.n1 // 2, grid.n1 // 2)      # |j| < N1/2
    betas = _beta_many(orders, waves[:, :1], alpha)     # (P, orders)
    dropped = betas.imag * rho_ref > EVANESCENT_DROP
    # the y1 sum of order j is row j of the x1 transform of the density
    idx = orders % grid.n1
    point, kept = np.nonzero(~dropped & (idx < density.shape[2]))
    j, bj = orders[kept], betas[point, kept]
    rows = density[:, point, idx[kept]]                 # (2, kept, x2)
    aj = (j + alpha[point, 0])[:, None]
    x2 = first.layout.x2[stack.layout.support]
    prefactor = (-grid.cell_area * np.exp(1j * bj * rho_ref)
                 / (4 * np.pi * bj))
    bj = bj[:, None]
    moments = [
        (prefactor * np.sum(np.exp(-sgn * 1j * bj * x2)
                            * (aj * rows[0] + sgn * bj * rows[1]),
                            axis=1)).tolist()
        for sgn in (1.0, -1.0)]
    # each point's kept orders, in order, from its offset on
    ends = np.cumsum(np.bincount(point, minlength=len(problems))).tolist()
    j = j.tolist()
    out = []
    for p, end in enumerate(ends):
        start = ends[p - 1] if p else 0
        propagating = tuple(orders[betas[p].imag == 0.0].tolist())
        truncated = tuple(orders[dropped[p]].tolist())
        sides = []
        for side, values in zip(("+", "-"), moments):
            coeffs = dict(zip(j[start:end], values[start:end]))
            sides.append(RayleighData(side=side, coefficients=coeffs,
                                      propagating=propagating,
                                      rho_ref=rho_ref, truncated=truncated))
        out.append((sides[0], sides[1]))
    return out


def rayleigh_coefficients(solution: Solution, side: str) -> RayleighData:
    """One side ("+" above, "-" below) of :func:`rayleigh_both_sides`."""
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    above, below = rayleigh_both_sides(solution)
    return above if side == "+" else below


def rayleigh_line_integral(solution: Solution, side: str,
                           orders) -> dict[int, complex]:
    """Rayleigh coefficients from the line-integral definition.

    (1/2pi) * integral of u^s(x1, +-rho_ref) e^{-i alpha_j x1} dx1, with the
    box field reconstructed spectrally on the line.  Independent route used
    to pin the kernel and multiplier conventions.
    """
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    problem = solution.problem
    x2 = problem.rho_ref if side == "+" else -problem.rho_ref
    grid = problem.grid
    c = solution.u.coeffs
    mu = grid.j2_modes() * np.pi / grid.rho_box
    line = c @ np.exp(1j * mu * x2)         # per-j1 coefficient on the line
    line /= np.sqrt(4 * np.pi * grid.rho_box)
    out = {}
    j1 = grid.j1_modes()
    lookup = {int(j): i for i, j in enumerate(j1)}
    for j in orders:
        out[int(j)] = complex(line[lookup[int(j)]])
    return out


def scattered_field_at(
    solution: Solution,
    points,
    rayleigh_above: RayleighData | None = None,
    rayleigh_below: RayleighData | None = None,
) -> np.ndarray:
    """Scattered field anywhere: box evaluation inside |x2| <= rho_ref,
    Rayleigh series outside."""
    if not solution.converged:
        raise NotConverged("scattered_field_at requires a converged solve")
    problem = solution.problem
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    out = np.zeros(pts.shape[0], dtype=complex)
    inside = np.abs(pts[:, 1]) <= problem.rho_ref
    if inside.any():
        out[inside] = evaluate(solution.u, pts[inside])
    if (~inside).any() and (rayleigh_above is None or rayleigh_below is None):
        above, below = rayleigh_both_sides(solution)
        rayleigh_above = above if rayleigh_above is None else rayleigh_above
        rayleigh_below = below if rayleigh_below is None else rayleigh_below
    for upper in (True, False):
        mask = (~inside) & (pts[:, 1] > 0 if upper else pts[:, 1] < 0)
        if not mask.any():
            continue
        data = rayleigh_above if upper else rayleigh_below
        sgn = 1.0 if upper else -1.0
        for j, cj in data.coefficients.items():
            if cj == 0.0:
                continue
            bj = complex(_beta_many(np.array([j]), problem.k**2,
                                    problem.alpha)[0])
            arg = (j + problem.alpha) * pts[mask, 0] + sgn * bj * (
                pts[mask, 1] - sgn * data.rho_ref
            )
            out[mask] += cj * np.exp(1j * arg)
    return out


@dataclass(frozen=True)
class EfficiencyTable:
    """Per-order power budget of the solved problem.

    Efficiencies are normalized to unit incident flux (division by beta_0),
    so for a lossless grating reflected plus transmitted totals equal one.
    """

    orders: tuple
    alphas: tuple
    betas: tuple
    reflected: tuple
    transmitted: tuple

    @property
    def total_reflected(self) -> float:
        return float(sum(self.reflected))

    @property
    def total_transmitted(self) -> float:
        return float(sum(self.transmitted))

    @property
    def absorbed(self) -> float:
        return 1.0 - self.total_reflected - self.total_transmitted


def efficiencies(
    rayleigh_above: RayleighData,
    rayleigh_below: RayleighData,
    problem: Problem,
) -> EfficiencyTable:
    """Diffraction efficiencies over the propagating set.

    The zeroth transmitted amplitude carries the incident contribution
    exp(+i beta_0 rho_ref) of this normalization (see the module docstring);
    getting this phase wrong is the classic energy-balance bug.
    """
    k, alpha = problem.k, problem.alpha
    rho_ref = rayleigh_below.rho_ref
    orders = rayleigh_above.propagating
    beta0, *betas = _beta_many(np.array((0, *orders)), k**2, alpha).tolist()
    rows_r, rows_t, alphas = [], [], []
    for j, bj in zip(orders, betas):
        flux = bj.real / beta0.real
        up = rayleigh_above.order(j)
        down = rayleigh_below.order(j)
        if j == 0:
            down = down + np.exp(1j * beta0 * rho_ref)
        rows_r.append(max(flux * abs(up) ** 2, 0.0))
        rows_t.append(max(flux * abs(down) ** 2, 0.0))
        alphas.append(j + alpha)
    return EfficiencyTable(
        orders=tuple(int(j) for j in orders),
        alphas=tuple(alphas),
        betas=tuple(betas),
        reflected=tuple(rows_r),
        transmitted=tuple(rows_t),
    )


def energy_balance(table: EfficiencyTable, problem: Problem) -> float:
    """Energy-conservation defect (lossless) or absorbed fraction (lossy).

    For a lossless contrast returns |1 - sum of efficiencies|.  Otherwise
    returns the absorbed fraction, which :func:`check_physics` requires to
    be nonnegative: in the radiating convention of this library a
    dissipative contrast has Im Q negative semidefinite.
    """
    absorbed = table.absorbed
    return abs(absorbed) if problem.is_lossless() else absorbed


def check_physics(table: EfficiencyTable, problem: Problem) -> None:
    """Raise Unphysical naming the first rule ``table`` breaks by more than
    :data:`PHYSICS_TOL`: every efficiency is at most 1, a lossless grating
    conserves energy and a lossy one absorbs a nonnegative fraction."""
    tol = PHYSICS_TOL
    for side, values in (("reflected", table.reflected),
                         ("transmitted", table.transmitted)):
        for j, value in zip(table.orders, values):
            if not value <= 1 + tol:
                raise Unphysical(
                    f"unphysical answer: the {side} efficiency of order "
                    f"j={j} is {value:.4g}, above 1 + {tol:g}")
    absorbed = table.absorbed
    if problem.is_lossless():
        if not abs(absorbed) <= tol:
            raise Unphysical(
                f"unphysical answer: the energy defect {abs(absorbed):.3e} "
                f"of a lossless grating is above {tol:g}")
    elif not absorbed >= -tol:
        raise Unphysical(
            f"unphysical answer: the absorbed fraction {absorbed:.3e} is "
            f"below -{tol:g}, so the medium gains energy (a passive "
            "contrast has Im Q <= 0)")


# ----------------------------------------------------------------------------
# the rows and documents of the output files, which cli writes


EFFICIENCY_COLUMNS = ("j", "alpha_j", "beta_j_re", "beta_j_im",
                      "e_refl", "e_trans")


def efficiency_rows(table: EfficiencyTable) -> list[list]:
    """The CSV rows of :data:`EFFICIENCY_COLUMNS`, one per propagating
    order, floats as their repr."""
    return [
        [j] + [repr(float(v)) for v in (
            table.alphas[i], table.betas[i].real, table.betas[i].imag,
            table.reflected[i], table.transmitted[i])]
        for i, j in enumerate(table.orders)
    ]


def efficiency_doc(table: EfficiencyTable, problem: Problem,
                   metadata: dict | None = None) -> dict:
    """The document of per-order rows, totals and run metadata that
    ``result.json`` holds."""
    return {
        "orders": [
            {
                "j": int(j),
                "alpha_j": float(table.alphas[i]),
                "beta_j_re": float(table.betas[i].real),
                "beta_j_im": float(table.betas[i].imag),
                "e_refl": float(table.reflected[i]),
                "e_trans": float(table.transmitted[i]),
            }
            for i, j in enumerate(table.orders)
        ],
        "totals": {
            "reflected": table.total_reflected,
            "transmitted": table.total_transmitted,
            "absorbed": table.absorbed,
        },
        "metadata": {
            "k": problem.k,
            "alpha": problem.alpha,
            "n1": problem.grid.n1,
            "n2": problem.grid.n2,
            "rho_box": problem.grid.rho_box,
            "rho_ref": problem.rho_ref,
            **(metadata or {}),
        },
    }
