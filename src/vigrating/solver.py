"""Right-hand-side assembly and the restarted-GMRES solve of the discrete
volume integral equation  u - div V(Q grad u) = div V(Q grad u^i).

The unknown is the scattered field on the whole computational box; since the
contrast vanishes off its support slab, the restriction to the slab solves
the same equation there and the exterior values are the potential extension.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import BreakdownDetected, NotConverged, SizeGuard, VigratingError
from .kernel import KernelTable
from .operators import Discretization, OperatorStack, SpectralField
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
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


class Solution:
    """Converged (or best-effort) scattered field with its residual history.

    ``rows`` are the leading coefficient rows the solve ran on: all N1, or
    the row j1 = 0 of a layered solve, whose other rows vanish.  ``u`` is
    the field on all N1 rows; a solve builds it from ``rows`` when it is
    first read, so that a sweep point, which reads only its rows, never
    allocates it.  A Solution made from a field ``u`` has its rows.
    ``discretization`` is the one the solve ran on; post-processing of the
    same problem and table reuses it.
    """

    def __init__(self, u: SpectralField | None = None,
                 residual_history: tuple = (), converged: bool = False,
                 iterations: int = 0,
                 discretization: Discretization | None = None,
                 rows: np.ndarray | None = None):
        self._u = u
        self.rows = u.coeffs if rows is None and u is not None else rows
        self.residual_history = residual_history
        self.converged = converged
        self.iterations = iterations
        self.discretization = discretization

    @property
    def u(self) -> SpectralField | None:
        if self._u is None and self.rows is not None:
            problem = self.discretization.problem
            grid = problem.grid
            coeffs = self.rows
            if len(coeffs) != grid.n1:
                coeffs = np.zeros((grid.n1, grid.n2), dtype=complex)
                coeffs[:len(self.rows)] = self.rows
            self._u = SpectralField(coeffs, grid, problem.alpha)
        return self._u


def assemble_rhs(problem: Problem, table: KernelTable) -> SpectralField:
    """div V(Q grad u^i), the right-hand side of the scattering equation,
    on all N1 rows."""
    rows = Discretization(problem, table).rhs()
    rhs = np.zeros((problem.grid.n1, problem.grid.n2), dtype=complex)
    rhs[:len(rows)] = rows
    return SpectralField(rhs, problem.grid, problem.alpha)


def gmres_steps(
    b: np.ndarray,
    rel_tol: float = 1e-8,
    restart: int = 50,
    max_iterations: int = 500,
    breakdown_rtol: float = 1e-14,
):
    """Restarted GMRES for complex systems, zero initial guess, as a
    generator: it yields each vector to multiply by the operator, takes
    the product through ``send`` in a one-item list, which it empties,
    and returns (x, history, converged, iterations, stop), which
    :func:`gmres` hands back.  (An argument of ``send`` stays referenced
    until the next yield; the emptied list frees the product as soon as
    the orthogonalization has used it.)  ``history`` holds
    the relative residual estimate after every inner iteration (monotone
    within and across cycles).  A vanishing Hessenberg subdiagonal before
    reaching the tolerance raises BreakdownDetected: with a trivial null
    space the Krylov space can only stagnate this way if the operator is
    singular on it, which violates the unique-solvability hypothesis.

    Each restart recomputes the relative residual rho = ||b - A x|| / ||b||
    and logs it at DEBUG with the cycle's reduction.  From the third cycle
    start on, gamma is the smallest reduction of a restarted cycle (the
    first cycle starts from zero and is left out) and L = (max_iterations
    - iterations) / restart the cycles left.  When gamma >= 1 or
    rho * gamma**L > rel_tol the budget cannot reach the tolerance at that
    rate: GMRES stops early, returns the iterate as not converged and
    ``stop`` says why.  ``stop`` is None otherwise.
    """
    n = b.size
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n, dtype=complex), [], True, 0, None

    x = np.zeros(n, dtype=complex)
    history: list[float] = []
    iterations = 0
    converged = False
    stop = None
    # relative residual at the last cycle start, and each cycle's reduction
    rho_start = 1.0
    reductions: list[float] = []

    while iterations < max_iterations and not converged:
        # the first cycle starts from the zero iterate: its residual is b
        r = b - (yield x).pop() if iterations else b
        beta0 = float(np.linalg.norm(r))
        rho = beta0 / bnorm
        if iterations:
            reductions.append(rho / rho_start)
            log.debug("GMRES(%d) cycle %d: %d iterations, relative residual "
                      "%.3e, reduction %.3g", restart, len(reductions),
                      iterations, rho, reductions[-1])
        rho_start = rho
        if rho <= rel_tol:
            converged = True
            break
        if len(reductions) > 1:
            gamma = min(reductions[1:])
            left = (max_iterations - iterations) / restart
            if gamma >= 1 or rho * gamma ** left > rel_tol:
                need = ("never" if gamma >= 1 else
                        f"{math.log(rel_tol / rho) / math.log(gamma):.1f}")
                stop = (f"relative residual {rho:.3e}; the best restarted "
                        f"cycle of GMRES({restart}) reduced it by {gamma:.3g}, "
                        f"a rate at which reaching rel_tol {rel_tol:.3g} "
                        f"takes {need} cycles against the {left:g} left; "
                        "raise restart or max_iterations")
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
            # w is never updated in place: the product may be its argument
            w = np.asarray((yield v[j]).pop(), dtype=complex)
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
    return x, history, converged, iterations, stop


def gmres(
    matvec,
    b: np.ndarray,
    rel_tol: float = 1e-8,
    restart: int = 50,
    max_iterations: int = 500,
    breakdown_rtol: float = 1e-14,
):
    """:func:`gmres_steps` with the operator ``matvec``: returns (x,
    history, converged, iterations, stop)."""
    steps = gmres_steps(b, rel_tol, restart, max_iterations, breakdown_rtol)
    try:
        vector = next(steps)
        while True:
            vector = steps.send([matvec(vector)])
    except StopIteration as done:
        return done.value


def physical_memory_bytes() -> int | None:
    """Physical memory of the machine, or None where os.sysconf lacks it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def check_memory(problem: Problem, opts: SolveOptions) -> int:
    """The bytes of the Krylov basis and the (2, rows, N2) work buffer of
    a solve; raises SizeGuard when they would exceed physical memory."""
    rows, n2 = problem.layout.n_rows, problem.grid.n2
    vectors = min(opts.restart, opts.max_iterations) + 1
    need = (vectors + 2) * rows * n2 * 16
    memory = physical_memory_bytes()
    if memory is not None and need > memory:
        raise SizeGuard(
            f"the solve needs about {need} bytes ({vectors} Krylov vectors "
            f"of {rows * n2} unknowns and the work buffer), more than the "
            f"{memory} bytes of physical memory; lower restart or the grid")
    return need


def solve(problem: Problem, table: KernelTable,
          opts: SolveOptions | None = None) -> Solution:
    """Solve the discrete scattering equation; returns the scattered field.

    Always starts from the zero iterate for reproducibility.  GMRES runs on
    the coefficient rows the discretization couples to the incident wave
    (the j1 = 0 row alone for a layered contrast); the Solution holds
    them as ``rows`` and builds the full (N1, N2) field, the other rows
    zero, when ``u`` is read.  On stall the best iterate and its history
    are attached to the NotConverged error.
    GMRES stops before ``max_iterations`` when its best restarted cycle
    shows that the iterations left cannot reach ``rel_tol``; the error
    then names that per-cycle rate, the cycles it would need and the
    cycles left.  Raises SizeGuard, before allocating, when the solve
    cannot fit in physical memory.
    """
    opts = opts or SolveOptions()
    check_memory(problem, opts)
    disc = Discretization(problem, table)
    rhs = disc.rhs()
    shape = rhs.shape
    matvecs = 0

    def matvec(vec: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        matvecs += 1
        return disc.apply(vec.reshape(shape)).reshape(-1)

    result = gmres(
        matvec,
        rhs.reshape(-1),
        rel_tol=opts.rel_tol,
        restart=opts.restart,
        max_iterations=opts.max_iterations,
    )
    return _finish(disc, result, matvecs)


def _finish(disc: Discretization, result, matvecs: int) -> Solution:
    """The Solution of a GMRES ``result`` on ``disc``'s rows; raises
    NotConverged, with it attached, when GMRES stopped short."""
    x, history, converged, iters, stop = result
    log.debug("solved %d of %d coefficient rows: %d iterations, %d matvecs",
              disc.n_rows, disc.n1, iters, matvecs)
    sol = Solution(
        rows=x.reshape(-1, disc.problem.grid.n2),
        residual_history=tuple(history),
        converged=converged,
        iterations=iters,
        discretization=disc,
    )
    if stop:
        raise NotConverged(
            f"GMRES stopped early after {iters} iterations: {stop}",
            solution=sol)
    if not converged:
        raise NotConverged(
            f"GMRES stalled at relative residual {history[-1]:.3e} after "
            f"{iters} iterations",
            solution=sol,
        )
    return sol


class _Pending:
    """A point of :func:`solve_lockstep`: its GMRES generator and the
    vector that waits for its product."""

    def __init__(self, key, problem: Problem, table: KernelTable,
                 opts: SolveOptions):
        self.key, self.matvecs = key, 0
        self.need = check_memory(problem, opts)
        self.disc = Discretization(problem, table)
        self.steps = gmres_steps(self.disc.rhs().reshape(-1), opts.rel_tol,
                                 opts.restart, opts.max_iterations)

    def advance(self, product: list | None, pending: list, ended: list):
        """Send GMRES ``product`` in a one-item list, or start it with
        None.  The point goes to ``pending`` while it waits for the
        product of ``vector``, its (key, outcome) pair to ``ended`` once
        GMRES ends."""
        try:
            self.vector = self.steps.send(product)
            pending.append(self)
            return
        except StopIteration as done:
            try:
                outcome = _finish(self.disc, done.value, self.matvecs)
            except NotConverged as exc:
                outcome = exc
        except (BreakdownDetected, MemoryError) as exc:
            outcome = exc
        ended.append((self.key, outcome))


def _take(points, opts: SolveOptions, pending: list, ended: list) -> bool:
    """Start the next point of ``points`` (see :meth:`_Pending.advance`);
    False when ``points`` is exhausted."""
    item = next(points, None)
    if item is None:
        return False
    try:
        point = _Pending(*item, opts)
    except (VigratingError, MemoryError) as exc:
        ended.append((item[0], exc))
        return True
    point.advance(None, pending, ended)
    return True


def _step(pending: list, stack: OperatorStack, ended: list) -> list:
    """Send every pending point the product of its vector, from one call
    of ``stack``; the points still pending."""
    products = list(stack.apply([p.vector for p in pending]))
    still = []
    for point in pending:
        point.matvecs += 1
        # popped: nothing here holds a product GMRES has used
        point.advance([products.pop(0).reshape(-1)], still, ended)
    return still


def solve_lockstep(points, opts: SolveOptions | None = None):
    """Solve ``points``, (key, problem, table) triples of one contrast
    layout on one grid, with the GMRES of every pending point in lockstep.

    Each point runs its own :func:`gmres_steps` from the zero iterate, so
    its iterations, history, stop rules and messages are those
    :func:`solve` gives it; only the operator is applied differently:
    each Krylov step multiplies the vectors of all pending points in one
    :class:`OperatorStack` call.  The next point is taken from ``points``
    only when it can join: while the pending rows and its own stay within
    one grid of N1 rows and their :func:`check_memory` estimates fit in
    physical memory.  The points share a layout and ``opts``, so the last
    point taken stands for the next: up to N1 one-row points run
    together, a 2-D point runs alone.

    A generator of (key, outcome) pairs in the order the points finish.
    The outcome is the point's Solution, or the NotConverged (with the
    solution attached), BreakdownDetected, SizeGuard, ShapeMismatch or
    MemoryError that ended that point alone.
    """
    opts = opts or SolveOptions()
    memory = physical_memory_bytes()
    points = iter(points)
    pending: list[_Pending] = []
    ended: list = []
    stack = None
    more = True

    def joins() -> bool:
        last, count = pending[-1], len(pending) + 1
        return count * last.disc.n_rows <= last.disc.n1 and (
            memory is None or count * last.need <= memory)

    while more or pending:
        while more and (not pending or joins()):
            more = _take(points, opts, pending, ended)
            stack = None
        if pending:
            stack = stack or OperatorStack([p.disc for p in pending],
                                           pending[0].disc.n_rows)
            still = _step(pending, stack, ended)
            if len(still) < len(pending):
                pending, stack = still, None
        while ended:
            yield ended.pop(0)


def residual(problem: Problem, table: KernelTable, u: SpectralField,
             disc: Discretization | None = None) -> float:
    """Relative residual ||A u - rhs|| / ||rhs||, recomputed from scratch.

    ``disc`` may pass the discretization of the solve.  Falls back to the
    absolute norm when the right-hand side vanishes.  The field of a
    layered solve has only the row j1 = 0, which is applied alone and which
    a one-row table serves.  Any other u is applied on all N1 rows, which
    needs the full table of ``kernel_table(grid, wave)``: a one-row table
    raises ShapeMismatch.  The right-hand side vanishes past its
    ``n_rows`` rows, so it is subtracted from the leading rows of A u
    alone.
    """
    disc = disc or Discretization(problem, table)
    rhs = disc.rhs()
    # rows of u that vanish, past the solved ones, map to vanishing rows
    r = disc.apply(disc.live_rows(u.coeffs))
    r[:len(rhs)] -= rhs
    num = float(np.linalg.norm(r))
    den = float(np.linalg.norm(rhs))
    return num / den if den > 0 else num
