"""Right-hand-side assembly and the restarted-GMRES solve of the discrete
volume integral equation  u - div V(Q grad u) = div V(Q grad u^i).

The unknown is the scattered field on the whole computational box; since the
contrast vanishes off its support slab, the restriction to the slab solves
the same equation there and the exterior values are the potential extension.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import BreakdownDetected, NotConverged, SizeGuard
from .kernel import KernelTable
from .operators import Discretization, SpectralField
from .problem import Problem

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolveOptions:
    rel_tol: float = 1e-8
    max_iterations: int = 500
    restart: int = 50

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.restart < 1:
            raise ValueError("restart must be at least 1")


@dataclass(frozen=True)
class Solution:
    """Converged (or best-effort) scattered field with its residual history.

    ``discretization`` is the one the solve ran on; post-processing of the
    same problem and table reuses it.
    """

    u: SpectralField
    residual_history: tuple = field(repr=False)
    converged: bool = False
    iterations: int = 0
    discretization: Discretization | None = field(
        default=None, repr=False, compare=False)


def assemble_rhs(problem: Problem, table: KernelTable) -> SpectralField:
    """div V(Q grad u^i), the right-hand side of the scattering equation."""
    rhs = Discretization(problem, table).rhs()
    return SpectralField(rhs, problem.grid, problem.alpha)


def gmres(
    matvec,
    b: np.ndarray,
    rel_tol: float = 1e-8,
    restart: int = 50,
    max_iterations: int = 500,
    breakdown_rtol: float = 1e-14,
):
    """Restarted GMRES for complex systems, zero initial guess.

    Returns (x, history, converged, iterations).  ``history`` holds the
    relative residual estimate after every inner iteration (monotone within
    and across cycles).  A vanishing Hessenberg subdiagonal before reaching
    the tolerance raises BreakdownDetected: with a trivial null space the
    Krylov space can only stagnate this way if the operator is singular on
    it, which violates the unique-solvability hypothesis.
    """
    n = b.size
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n, dtype=complex), [], True, 0

    x = np.zeros(n, dtype=complex)
    history: list[float] = []
    iterations = 0
    converged = False

    while iterations < max_iterations and not converged:
        # the first cycle starts from the zero iterate: its residual is b
        r = b - matvec(x) if iterations else b
        beta0 = float(np.linalg.norm(r))
        if beta0 / bnorm <= rel_tol:
            converged = True
            break
        m = min(restart, max_iterations - iterations)
        v = np.empty((m + 1, n), dtype=complex)
        h = np.zeros((m + 1, m), dtype=complex)
        # rotations and the rotated right-hand side as Python scalars: the
        # per-iteration loop over them is cheaper than on numpy scalars.  A
        # division by a real multiplies by its reciprocal, which rounds as
        # numpy's complex division by a real does.
        cs: list[complex] = []
        sn: list[complex] = []
        g = [complex(beta0)] + [0j] * m
        v[0] = r / beta0

        j_used = 0
        for j in range(m):
            # w is never updated in place: matvec may hand back its argument
            w = np.asarray(matvec(v[j]), dtype=complex)
            # classical Gram-Schmidt run twice (CGS2), two BLAS-2 products
            # per pass; conj(V @ conj(w)) does not copy the conjugated basis
            basis = v[:j + 1]
            proj = np.conj(basis @ np.conj(w))
            w = w - basis.T @ proj
            again = np.conj(basis @ np.conj(w))
            w = w - basis.T @ again
            col = (proj + again).tolist()
            hsub = float(np.linalg.norm(w))
            iterations += 1
            for i in range(j):              # stored rotations on the new column
                c, s = cs[i], sn[i]
                col[i], col[i + 1] = (
                    c.conjugate() * col[i] + s.conjugate() * col[i + 1],
                    -s * col[i] + c * col[i + 1],
                )
            hjj = col[j]

            if hsub <= breakdown_rtol * bnorm:
                # invariant Krylov space: exact solve if the pivot survives
                if abs(hjj) <= breakdown_rtol * bnorm:
                    est = abs(g[j]) / bnorm
                    if est <= rel_tol:
                        j_used = j
                        converged = True
                        break
                    raise BreakdownDetected(
                        f"Krylov breakdown at iteration {iterations} with "
                        f"relative residual {est:.3e}; the discrete operator "
                        "may be singular (non-uniqueness)"
                    )
                cs.append(hjj * (1.0 / abs(hjj)))
                sn.append(0j)
                col[j] = complex(abs(hjj))
                h[:j + 1, j] = col
                g[j] = cs[j].conjugate() * g[j]
                g[j + 1] = 0j
                history.append(0.0)
                j_used = j + 1
                converged = True
                break

            v[j + 1] = w / hsub
            denom = float(np.hypot(abs(hjj), hsub))
            inv = 1.0 / denom
            cs.append(hjj * inv)
            sn.append(complex(hsub * inv))
            col[j] = complex(denom)
            h[:j + 1, j] = col
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j].conjugate() * g[j]
            history.append(abs(g[j + 1]) / bnorm)
            j_used = j + 1
            if history[-1] <= rel_tol or iterations >= max_iterations:
                break

        if j_used:
            # upper triangular: LU without row exchanges is back substitution
            y = np.linalg.solve(h[:j_used, :j_used], np.array(g[:j_used]))
            x = x + v[:j_used].T @ y
        if history and history[-1] <= rel_tol:
            converged = True
    return x, history, converged, iterations


def physical_memory_bytes() -> int | None:
    """Physical memory of the machine, or None where os.sysconf lacks it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def check_memory(problem: Problem, opts: SolveOptions):
    """Raise SizeGuard when the Krylov basis and the (2, rows, N2) work
    buffer of a solve would exceed physical memory."""
    rows, n2 = problem.layout.n_rows, problem.grid.n2
    vectors = min(opts.restart, opts.max_iterations) + 1
    need = (vectors + 2) * rows * n2 * 16
    memory = physical_memory_bytes()
    if memory is not None and need > memory:
        raise SizeGuard(
            f"the solve needs about {need} bytes ({vectors} Krylov vectors "
            f"of {rows * n2} unknowns and the work buffer), more than the "
            f"{memory} bytes of physical memory; lower restart or the grid")


def solve(problem: Problem, table: KernelTable,
          opts: SolveOptions | None = None) -> Solution:
    """Solve the discrete scattering equation; returns the scattered field.

    Always starts from the zero iterate for reproducibility.  GMRES runs on
    the coefficient rows the discretization couples to the incident wave
    (the j1 = 0 row alone for a layered contrast); the returned field holds
    them in the full (N1, N2) array with the other rows zero.  On stall the
    best iterate and its history are attached to the NotConverged error.
    Raises SizeGuard, before allocating, when the solve cannot fit in
    physical memory.
    """
    opts = opts or SolveOptions()
    check_memory(problem, opts)
    disc = Discretization(problem, table)
    rhs = disc.rhs()
    shape = (disc.n_rows, rhs.shape[1])
    matvecs = 0

    def matvec(vec: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        matvecs += 1
        return disc.apply(vec.reshape(shape)).reshape(-1)

    x, history, converged, iters = gmres(
        matvec,
        rhs[:disc.n_rows].reshape(-1),
        rel_tol=opts.rel_tol,
        restart=opts.restart,
        max_iterations=opts.max_iterations,
    )
    log.debug("solved %d of %d coefficient rows: %d iterations, %d matvecs",
              disc.n_rows, problem.grid.n1, iters, matvecs)
    u = np.zeros_like(rhs)
    u[:disc.n_rows] = x.reshape(shape)
    sol = Solution(
        u=SpectralField(u, problem.grid, problem.alpha),
        residual_history=tuple(history),
        converged=converged,
        iterations=iters,
        discretization=disc,
    )
    if not converged:
        raise NotConverged(
            f"GMRES stalled at relative residual "
            f"{history[-1] if history else float('nan'):.3e} after "
            f"{iters} iterations",
            solution=sol,
        )
    return sol


def residual(problem: Problem, table: KernelTable, u: SpectralField,
             disc: Discretization | None = None) -> float:
    """Relative residual ||A u - rhs|| / ||rhs||, recomputed from scratch.

    ``disc`` may pass the discretization of the solve.  Falls back to the
    absolute norm when the right-hand side vanishes.  The field of a
    layered solve has only the row j1 = 0, which is applied alone and which
    a one-row table serves.  Any other u is applied on all N1 rows, which
    needs the full table of ``kernel_table(grid, wave)``: a one-row table
    raises ShapeMismatch.
    """
    disc = disc or Discretization(problem, table)
    rhs = disc.rhs()
    # rows of u that vanish, past the solved ones, map to vanishing rows
    c = disc.live_rows(u.coeffs)
    num = float(np.linalg.norm(disc.apply(c) - rhs[:len(c)]))
    den = float(np.linalg.norm(rhs))
    return num / den if den > 0 else num
