"""The restarted-GMRES solve of the discrete volume integral equation

    u - div V(Q grad u) = div V(Q grad u^i)

for the scattered field u, run on the contrast density.  Q vanishes off
its support, so the total density w = Q grad(u + u^i) lives on the support
nodes alone, and it solves

    w - Q grad div V w = Q grad u^i,

from which u = div V w.  With D = div V, M = Q and T = grad the two
operators are I - DMT and I - MTD, which share their spectrum apart from
the eigenvalue 1, so the solvability of the field equation carries over.
A Krylov vector holds the two components of w at the support nodes, no
more; ``rel_tol`` bounds the density residual, and :func:`residual`
recomputes the field residual from scratch.
"""

from __future__ import annotations

import logging
import math
import operator
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import BreakdownDetected, NotConverged, SizeGuard
from .kernel import KernelTable, kernel_table
from .operators import OperatorStack, SpectralField, operator_entries
from .problem import Problem

log = logging.getLogger(__name__)

# a Hessenberg subdiagonal at or below this multiple of ||b|| is a breakdown
BREAKDOWN_RTOL = 1e-14


@dataclass(frozen=True)
class SolveOptions:
    """The GMRES options; their defaults are written here alone, and the
    config keys of [numerics] and :func:`gmres` read them."""

    rel_tol: float = 1e-8
    max_iterations: int = 500
    restart: int = 50

    def __post_init__(self):
        if not 0 < self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be positive and finite, got "
                             f"{self.rel_tol!r}")
        for name in ("restart", "max_iterations"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got "
                                 f"{value!r}") from None
            if value < 1:
                raise ValueError(f"{name} must be at least 1")


class Solution:
    """Converged (or best-effort) solution with its residual history.

    ``density`` is the packed total density Q grad(u^s + u^i) GMRES solved
    for (see :class:`operators.OperatorStack`), on ``problem`` with the
    kernel table ``table``.  ``stack`` is the stack of one the solve ran
    on, which its residual and Rayleigh extraction reuse; a point of a
    lockstep batch builds it when it is first read.  ``rows`` are the
    ``layout.n_rows`` leading coefficient rows of the scattered field
    div V(density): all N1, or the row j1 = 0 of a layered solve, whose
    other rows vanish.  ``u`` is the field on all N1 rows.  Both are built
    when first read, so that a sweep point, which reads only its density,
    never allocates them.
    """

    def __init__(self, density: np.ndarray, problem: Problem,
                 table: KernelTable, residual_history: tuple = (),
                 converged: bool = False, iterations: int = 0,
                 stack: OperatorStack | None = None):
        self.density, self.problem, self.table = density, problem, table
        self.residual_history = residual_history
        self.converged = converged
        self.iterations = iterations
        if stack is not None:
            self.stack = stack

    @cached_property
    def stack(self) -> OperatorStack:
        return OperatorStack([self.problem], [self.table])

    @cached_property
    def rows(self) -> np.ndarray:
        return self.stack.potential(self.density)[0].copy()

    @cached_property
    def u(self) -> SpectralField:
        grid, coeffs = self.problem.grid, self.rows
        if len(coeffs) != grid.n1:
            coeffs = np.zeros((grid.n1, grid.n2), dtype=complex)
            coeffs[:len(self.rows)] = self.rows
        return SpectralField(coeffs, grid, self.problem.alpha)


def assemble_rhs(problem: Problem, table: KernelTable) -> SpectralField:
    """div V(Q grad u^i), the right-hand side of the field equation
    u - div V(Q grad u) = div V(Q grad u^i), on all N1 rows."""
    stack = OperatorStack([problem], [table])
    rows = stack.potential(stack.rhs)[0]
    rhs = np.zeros((problem.grid.n1, problem.grid.n2), dtype=complex)
    rhs[:len(rows)] = rows
    return SpectralField(rhs, problem.grid, problem.alpha)


def _norm(w: np.ndarray) -> float:
    """The 2-norm of a complex vector from one BLAS dot product, without
    the argument handling of ``np.linalg.norm``, which GMRES would pay at
    every iteration."""
    return math.sqrt(np.vdot(w, w).real)


def gmres_steps(b: np.ndarray, rel_tol: float, restart: int,
                max_iterations: int):
    """Restarted GMRES for complex systems, zero initial guess, as a
    generator: it yields each vector to multiply by the operator, takes
    the product through ``send`` and returns (x, history, converged,
    iterations, stop), which :func:`gmres` hands back.  ``history`` holds
    the relative residual estimate after every inner iteration (monotone
    within and across cycles).  A vanishing Hessenberg subdiagonal
    (:data:`BREAKDOWN_RTOL`) before reaching the tolerance raises
    BreakdownDetected: with a trivial null space the Krylov space can only
    stagnate this way if the operator is singular on it, which violates
    the unique-solvability hypothesis.

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
    bnorm = _norm(b)
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
        r = b - (yield x) if iterations else b
        beta0 = _norm(r)
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
        # the rotated Hessenberg columns, rotations and rotated right-hand
        # side as Python scalars: the per-iteration loop over them is
        # cheaper than on numpy scalars, and no (m + 1, m) array is cleared
        # for a cycle that may end after a few columns.  A division by a
        # real is a product with its reciprocal, which rounds as numpy's
        # complex division by a real does and writes a basis row in place.
        h: list[list[complex]] = []
        cs: list[complex] = []
        sn: list[complex] = []
        g = [complex(beta0)] + [0j] * m
        np.multiply(r, 1.0 / beta0, out=v[0])

        j_used = 0
        for j in range(m):
            # the product, which may be its argument, is not written
            w = np.asarray((yield v[j]), dtype=complex)
            # classical Gram-Schmidt run twice (CGS2), two BLAS-2 products
            # per pass; conj(V @ conj(w)) does not copy the conjugated basis
            basis = v[:j + 1]
            proj = np.conj(basis @ np.conj(w))
            w = w - basis.T @ proj
            again = np.conj(basis @ np.conj(w))
            w -= basis.T @ again
            col = (proj + again).tolist()
            hsub = _norm(w)
            iterations += 1
            for i in range(j):              # stored rotations on the new column
                c, s = cs[i], sn[i]
                col[i], col[i + 1] = (
                    c.conjugate() * col[i] + s.conjugate() * col[i + 1],
                    -s * col[i] + c * col[i + 1],
                )
            hjj = col[j]

            if hsub <= BREAKDOWN_RTOL * bnorm:
                # invariant Krylov space: exact solve if the pivot survives
                if abs(hjj) <= BREAKDOWN_RTOL * bnorm:
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
                h.append(col)
                g[j] = cs[j].conjugate() * g[j]
                g[j + 1] = 0j
                history.append(0.0)
                j_used = j + 1
                converged = True
                break

            np.multiply(w, 1.0 / hsub, out=v[j + 1])
            # the hypot of libm, as np.hypot takes it
            denom = abs(complex(abs(hjj), hsub))
            inv = 1.0 / denom
            cs.append(hjj * inv)
            sn.append(complex(hsub * inv))
            col[j] = complex(denom)
            h.append(col)
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j].conjugate() * g[j]
            history.append(abs(g[j + 1]) / bnorm)
            j_used = j + 1
            if history[-1] <= rel_tol or iterations >= max_iterations:
                break

        if j_used:
            # back substitution on the rotated Hessenberg columns, column
            # by column
            y = g[:j_used]
            for k in range(j_used - 1, -1, -1):
                col = h[k]
                y[k] = yk = y[k] / col[k]
                for i in range(k):
                    y[i] -= yk * col[i]
            x = x + v[:j_used].T @ np.array(y)
        if history and history[-1] <= rel_tol:
            converged = True
    return x, history, converged, iterations, stop


def _lockstep(bs, apply, rel_tol: float, restart: int,
              max_iterations: int):
    """Run :func:`gmres_steps` on every right-hand side of ``bs`` in
    lockstep, the one place that sends GMRES its products: each step makes
    one call ``apply(live, vectors)``, with the indices into ``bs`` of the
    points still running and the vectors they wait on, which returns their
    products in that order.  A generator of each point's (index, outcome)
    as it ends: the (x, history, converged, iterations, stop) of
    :func:`gmres_steps`, or the BreakdownDetected or MemoryError that
    ended that point alone; a MemoryError of ``apply`` ends every point
    still running."""
    steps = [gmres_steps(b, rel_tol, restart, max_iterations) for b in bs]
    live, products = range(len(steps)), [None] * len(steps)
    while True:
        running, vectors = [], []
        for i, product in zip(live, products):
            try:
                vectors.append(steps[i].send(product))
                running.append(i)
                continue
            except StopIteration as done:
                outcome = done.value
            except (BreakdownDetected, MemoryError) as exc:
                outcome = exc
            yield i, outcome
        live = running
        if not live:
            return
        try:
            products = apply(live, vectors)
        except MemoryError as exc:
            for i in live:
                yield i, exc
            return


def gmres(
    matvec,
    b: np.ndarray,
    rel_tol: float = SolveOptions.rel_tol,
    restart: int = SolveOptions.restart,
    max_iterations: int = SolveOptions.max_iterations,
):
    """:func:`gmres_steps` with the operator ``matvec``, the one-point run
    of :func:`_lockstep`: returns (x, history, converged, iterations,
    stop)."""
    (_, result), = _lockstep([b], lambda live, vectors: [matvec(vectors[0])],
                             rel_tol, restart, max_iterations)
    if isinstance(result, Exception):
        raise result
    return result


def physical_memory_bytes() -> int | None:
    """Physical memory of the machine, or None where os.sysconf lacks it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def check_memory(problem: Problem, opts: SolveOptions) -> int:
    """The bytes of the Krylov basis, (restart + 1) vectors of the 2
    |support| density unknowns, and of what the solve's stack holds to
    apply its operator: the (2, rows, N2) work buffer, and on the support
    box route its DFT matrices (:func:`operators.operator_entries`);
    raises SizeGuard when they would exceed physical memory."""
    layout = problem.layout
    unknowns = 2 * len(layout.nodes)
    vectors = min(opts.restart, opts.max_iterations) + 1
    need = (vectors * unknowns + operator_entries(layout, problem.grid)) * 16
    memory = physical_memory_bytes()
    if memory is not None and need > memory:
        raise SizeGuard(
            f"the solve needs about {need} bytes ({vectors} Krylov vectors "
            f"of {unknowns} density unknowns and the work buffer, with any "
            f"DFT matrices), more than the {memory} bytes of physical "
            "memory; lower restart or the grid")
    return need


def _operators(problems) -> tuple[list[KernelTable], OperatorStack]:
    """The kernel tables of ``problems``, points of one contrast layout on
    one grid, and their stack: the tables hold the ``layout.n_rows`` rows
    a solve couples (the j1 = 0 row alone for a layered contrast) and are
    built in one :func:`kernel.kernel_table` call."""
    first = problems[0]
    tables = kernel_table(first.grid, [p.wave for p in problems],
                          first.layout.n_rows)
    return tables, OperatorStack(problems, tables)


def solve(problem: Problem, opts: SolveOptions | None = None) -> Solution:
    """Solve the discrete scattering equation; returns its Solution.

    Always starts from the zero iterate for reproducibility.  The solve
    builds its kernel table and its stack of one as a sweep batch does
    (:func:`_operators`), and GMRES runs on the packed density at the
    support nodes of the rows the layout couples to the incident wave (the
    j1 = 0 row alone for a layered contrast); the Solution holds it as
    ``density``, with that table and stack, and builds the field from it
    when ``rows`` or ``u`` is read.  On stall the best iterate and its
    history are attached to the NotConverged error.
    GMRES stops before ``max_iterations`` when its best restarted cycle
    shows that the iterations left cannot reach ``rel_tol``; the error
    then names that per-cycle rate, the cycles it would need and the
    cycles left.  Raises SizeGuard, before allocating, when the solve
    cannot fit in physical memory.
    """
    opts = opts or SolveOptions()
    check_memory(problem, opts)
    (table,), stack = _operators([problem])
    matvecs = 0

    def matvec(vec: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        matvecs += 1
        return stack.apply([vec]).reshape(-1)

    result = gmres(
        matvec,
        stack.rhs[0],
        rel_tol=opts.rel_tol,
        restart=opts.restart,
        max_iterations=opts.max_iterations,
    )
    return _finish(problem, table, stack, result, matvecs)


def _finish(problem: Problem, table: KernelTable, stack, result,
            matvecs: int) -> Solution:
    """The Solution of a GMRES ``result`` on ``problem`` and ``table``,
    solved on the stack of one ``stack`` or, for a batch point, None;
    raises NotConverged, with it attached, when GMRES stopped short."""
    x, history, converged, iters, stop = result
    log.debug("solved %d of %d coefficient rows: %d iterations, %d matvecs",
              problem.layout.n_rows, problem.grid.n1, iters, matvecs)
    sol = Solution(
        density=x,
        residual_history=tuple(history),
        converged=converged,
        iterations=iters,
        problem=problem,
        table=table,
        stack=stack,
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


def _solve_batch(batch: list, opts: SolveOptions) -> list:
    """The (key, outcome) pairs of one batch of (key, problem) pairs,
    solved together, in the order the points end: one kernel table build
    (:func:`_operators`) and one right-hand-side stack for the batch, then
    GMRES in lockstep (:func:`_lockstep`) on the stack of the points still
    running."""
    keys, problems = zip(*batch)
    try:
        tables, stack = _operators(problems)
        bs = stack.rhs
    except MemoryError as exc:
        return [(key, exc) for key in keys]
    held = list(range(len(batch)))
    matvecs = [0] * len(batch)

    def apply(live: list, vectors: list) -> np.ndarray:
        nonlocal stack, held
        if len(live) < len(held):
            # the stack of the points still running, from the rows of this
            # one's arrays
            alive = set(live)
            stack = stack.take([j for j, i in enumerate(held) if i in alive])
            held = live
        products = stack.apply(vectors)
        for i in live:
            matvecs[i] += 1
        return products.reshape(len(live), -1)

    ended = []
    for i, outcome in _lockstep(bs, apply, opts.rel_tol, opts.restart,
                                opts.max_iterations):
        if not isinstance(outcome, Exception):
            try:
                outcome = _finish(problems[i], tables[i], None, outcome,
                                  matvecs[i])
            except NotConverged as exc:
                outcome = exc
        ended.append((keys[i], outcome))
    return ended


def solve_lockstep(points, opts: SolveOptions | None = None):
    """Solve ``points``, (key, problem) pairs of one contrast layout on one
    grid, in batches whose points run GMRES in lockstep.

    A batch takes the next points of ``points`` and starts them together:
    up to one grid of N1 rows (up to N1 one-row points of a layered
    contrast, one 2-D point), as many as their :func:`check_memory`
    estimates fit in physical memory.  The batch builds the kernel tables
    of its waves in one :func:`kernel.kernel_table` call and its
    right-hand sides in one :meth:`OperatorStack.rhs` call, and each
    Krylov step multiplies the densities of all its running points in one
    :meth:`OperatorStack.apply` call.  Each point runs its own
    :func:`gmres_steps` from the zero iterate, sent its products by
    :func:`_lockstep` as :func:`gmres` is, so its table, right-hand side,
    density, iterations, history, stop rules and messages are, bit for
    bit, those :func:`solve` gives it.  A Problem is clear of the Rayleigh anomalies
    when it is built, so every point's table can be built.

    A generator of one list per batch, of the (key, outcome) pairs of its
    points in the order they finish.  The outcome is the point's
    Solution, or the NotConverged (with the solution attached),
    BreakdownDetected, SizeGuard or MemoryError that ended that point
    alone; a MemoryError of a stacked Krylov step ends every point still
    running in the batch, and the points it already ended keep their
    outcomes.
    """
    opts = opts or SolveOptions()
    memory = physical_memory_bytes()
    points = iter(points)
    for key, problem in points:
        try:
            need = check_memory(problem, opts)
        except SizeGuard as exc:
            yield [(key, exc)]
            continue
        size = problem.grid.n1 // problem.layout.n_rows
        if memory is not None:
            size = min(size, memory // need)
        yield _solve_batch([(key, problem), *islice(points, size - 1)], opts)


def residual(solution: Solution) -> float:
    """Relative residual ||A u - rhs|| / ||rhs|| of the field equation for
    the field u of ``solution``, recomputed from scratch with the field
    operator A.

    A and the right-hand side run on the solution's stack, whose incident
    density a solve has already built, over the ``layout.n_rows`` rows the
    solve couples: the row j1 = 0 of a layered solve, on its one-row
    table, whose other rows vanish in u and in the right-hand side.  Falls
    back to the absolute norm when the right-hand side vanishes.
    """
    stack = solution.stack
    rhs = stack.potential(stack.rhs)[0].copy()
    r = stack.apply_field(solution.rows[None])[0]
    r -= rhs
    num = float(np.linalg.norm(r))
    den = float(np.linalg.norm(rhs))
    return num / den if den > 0 else num
