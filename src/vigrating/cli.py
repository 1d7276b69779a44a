"""Command-line front end: solve, sweep, diagnose, validate.

Exit codes: 0 success, 1 a failed gate of ``validate``, 2 solver did not
converge (including a Krylov breakdown) or its efficiencies break the
physics rule of :func:`postprocess.check_physics`, 3 a usage error,
invalid input (configuration, geometry, an unreadable input file, a
Rayleigh anomaly or any other rejected problem), a grid that exhausts
memory, or an output that cannot be written.  A sweep with no successful
point exits 2 if a point failed with code 2, else 3.  :func:`_failure`
maps every failure to its code and cause.  Each command computes
everything under one guard before it writes anything, so a failed command
writes nothing but the partial ``result.json`` of a solve that did not
converge, or the outputs of a solve whose efficiencies break the physics
rule.

A sweep samples the contrast once and solves its points in the batches of
:func:`solver.solve_lockstep`: up to N1 points of a layered grating, or
one 2-D point, at a time.  The points of a batch start together; the batch
builds its kernel tables and right-hand sides in one stacked call each and
finishes with one stacked Rayleigh extraction.  A point that fails is
skipped alone.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import gc
import io
import json
import logging
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import analysis as an
from . import postprocess as pp
from .config import SWEEP_PARAMETERS, RunConfig, load_config
from .errors import (
    BreakdownDetected,
    ConfigError,
    NotConverged,
    Unphysical,
    VigratingError,
)
from .kernel import kernel_table
from .problem import Problem, sample_contrast
from .solver import residual, solve, solve_lockstep

# the objects these imports leave live until exit: freezing them spares later
# collections and shutdown's; collect(1) first keeps a host's garbage unfrozen
gc.collect(1)
gc.freeze()

log = logging.getLogger("vigrating")

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_INVALID = 3

# what a command or a sweep point may fail with; anything else is a bug
FAILURES = (VigratingError, OSError, ValueError, MemoryError)


def _failure(exc: BaseException, cfg: RunConfig | None = None,
             invalid: str = "invalid problem: {}") -> tuple[int, str]:
    """The exit code of the failure ``exc`` of a command or a sweep point,
    and its cause: 2 and the message for a solve that did not converge,
    broke down or gave an unphysical answer; 3 for any other failure, its
    message set in ``invalid``.  A MemoryError is named by ``cfg``'s
    n1 x n2 grid."""
    if isinstance(exc, (NotConverged, BreakdownDetected, Unphysical)):
        return EXIT_NOT_CONVERGED, str(exc)
    if isinstance(exc, MemoryError):
        grid = f" on the {cfg.n1} x {cfg.n2} grid" if cfg else ""
        exc = f"out of memory{grid}: {str(exc) or 'MemoryError'}"
    return EXIT_INVALID, invalid.format(exc)


def _failed(exc: BaseException, cfg: RunConfig | None = None,
            invalid: str = "invalid problem: {}") -> int:
    """Log the failure ``exc`` of a command; its exit code."""
    code, cause = _failure(exc, cfg, invalid)
    log.error("%s", cause)
    return code


def _write(out_dir: Path, files: dict[str, str]) -> int:
    """Write ``files``, name to text, into ``out_dir``; EXIT_OK, or
    EXIT_INVALID naming the output that cannot be written."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out_dir / name).write_text(text, encoding="utf-8")
    except OSError as exc:
        log.error("cannot write output %s: %s", out_dir, exc)
        return EXIT_INVALID
    return EXIT_OK


def _json(doc: dict) -> str:
    """``doc`` as the text of an output file: a 2-space indent, sorted
    keys and a trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv(rows) -> str:
    """``rows`` as the text of an RFC-4180 output file, CRLF line ends."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerows(rows)
    return buf.getvalue()


def _solve_config(cfg: RunConfig):
    """Solve ``cfg``: its problem, solution and efficiencies, the
    recomputed relative residual and the energy defect (None for a lossy
    grating)."""
    problem = cfg.build()
    # a layered solve and its Rayleigh extraction read only the coupled rows
    table = kernel_table(problem.grid, problem.wave, problem.layout.n_rows)
    solution = solve(problem, table, cfg.options())
    above, below = pp.rayleigh_both_sides(solution, problem, table)
    eff = pp.efficiencies(above, below, problem)
    true_residual = residual(problem, table, solution.u, solution.stack)
    defect = pp.energy_balance(eff, problem) if problem.is_lossless() else None
    return problem, solution, eff, true_residual, defect


def _write_solution(out_dir: Path, cfg: RunConfig, problem, solution, eff,
                    true_residual: float, defect: float | None) -> int:
    meta = {
        "converged": solution.converged,
        "iterations": solution.iterations,
        "relative_residual": true_residual,
        "lossless": defect is not None,
        "energy_defect": defect,
        "absorbed_fraction": eff.absorbed,
        "k_per_period": cfg.k_period,
        "theta_deg": cfg.theta_deg,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    doc = pp.efficiency_doc(eff, problem, metadata=meta)
    doc["residual_history"] = list(solution.residual_history)
    rows = [pp.EFFICIENCY_COLUMNS, *pp.efficiency_rows(eff)]
    return _write(out_dir, {"efficiencies.csv": _csv(rows),
                            "result.json": _json(doc)})


def cmd_solve(config_path: str, output: str | None = None) -> int:
    cfg = None
    try:
        cfg = load_config(config_path)
        out_dir = Path(output) if output else Path(cfg.output_directory)
        solved = _solve_config(cfg)
    except FAILURES as exc:
        code = _failed(exc, cfg)
        if isinstance(exc, NotConverged) and exc.solution is not None:
            # a solve that did not converge leaves its history; an output
            # that cannot be written makes its exit 3
            sol = exc.solution
            code = _write(out_dir, {"result.json": _json({
                "converged": False,
                "iterations": sol.iterations,
                "residual_history": list(sol.residual_history),
            })}) or code
        return code
    code = _write_solution(out_dir, cfg, *solved)
    if code == EXIT_OK:
        log.info("wrote %s", out_dir / "efficiencies.csv")
    problem, _, eff, _, _ = solved
    try:
        pp.check_physics(eff, problem)
    except Unphysical as exc:
        # the outputs stay, as the history of a stalled solve does
        return code or _failed(exc, cfg)
    return code


def _sweep_values(start: float, stop: float, steps: int) -> np.ndarray:
    """The ``steps`` evenly spaced sweep values from ``start`` to ``stop``;
    raises ConfigError naming the flag when they cannot be held or when
    the span overflows."""
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    for flag, bound in (("--from", start), ("--to", stop)):
        if not np.isfinite(bound):
            raise ConfigError(f"sweep {flag} must be finite, got {bound!r}")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.linspace(start, stop, steps)
    except MemoryError:
        raise ConfigError(f"sweep --steps {steps} is more points than "
                          "memory holds") from None
    if not np.isfinite(values).all():
        raise ConfigError(f"sweep --from {start!r} to --to {stop!r} spans "
                          "more than the largest float")
    return values


def _sweep_points(base: RunConfig, param: str, values) -> list:
    """The (value, efficiencies, or the exit code of the failure that
    skipped it) of every sweep point.  k and theta change only the wave:
    the options are checked and the contrast is sampled once."""
    opts = base.options()
    contrast = base.contrast()
    grid = base.grid(contrast)
    rho_ref, layout = sample_contrast(contrast, grid)
    points = []

    def skip(value: float, exc: BaseException) -> int:
        """Log why the point ``value`` is skipped; its exit code."""
        code, cause = _failure(exc, base, "invalid problem ({})")
        log.warning("skipping %s = %g: %s", param, value, cause)
        return code

    def problems():
        """The (value, problem) of each point, built only when the solver
        takes it; a point whose wave is rejected, at a Rayleigh anomaly
        among others, or whose propagating orders the grid cannot hold,
        is skipped."""
        for value in values:
            try:
                wave = base.replace_parameter(param, float(value)).wave()
                problem = Problem(wave=wave, contrast=contrast, grid=grid,
                                  rho_ref=rho_ref, layout=layout)
            except FAILURES as exc:
                points.append((value, skip(value, exc)))
                continue
            yield value, problem

    def finish(batch: list) -> list:
        """The (value, efficiencies or exit code) of a solved batch: one
        Rayleigh extraction for its solved points, each checked against
        the physics rule."""
        done = [(value, skip(value, outcome)) for value, outcome in batch
                if isinstance(outcome, Exception)]
        solved = [(value, sol) for value, sol in batch
                  if not isinstance(sol, Exception)]
        if not solved:
            return done
        try:
            data = pp.rayleigh_batch([sol for _, sol in solved])
        except FAILURES as exc:
            return done + [(value, skip(value, exc)) for value, _ in solved]
        for (value, sol), (above, below) in zip(solved, data):
            eff = pp.efficiencies(above, below, sol.problem)
            try:
                pp.check_physics(eff, sol.problem)
            except Unphysical as exc:
                eff = skip(value, exc)
            done.append((value, eff))
        return done

    # map holds no solved batch while the solver runs the next one
    for done in map(finish, solve_lockstep(problems(), opts)):
        points += done
    return points


def cmd_sweep(config_path: str, param: str, start: float, stop: float,
              steps: int, output: str | None = None) -> int:
    base = None
    try:
        base = load_config(config_path)
        if param not in SWEEP_PARAMETERS:
            raise ConfigError("sweep parameter must be "
                              + " or ".join(map(repr, SWEEP_PARAMETERS)))
        values = _sweep_values(start, stop, steps)
    except FAILURES as exc:
        # the sweep's own input errors are logged as they are
        return _failed(exc, base, "{}")
    try:
        points = _sweep_points(base, param, values)
    except FAILURES as exc:
        return _failed(exc, base)
    # a skipped point holds its exit code in place of the efficiencies
    skipped = [eff for _, eff in points if isinstance(eff, int)]
    if len(skipped) == len(points):
        log.error("no sweep point succeeded")
        return (EXIT_NOT_CONVERGED if EXIT_NOT_CONVERGED in skipped
                else EXIT_INVALID)

    rows = [(param, *pp.EFFICIENCY_COLUMNS)]
    for value, eff in sorted(points, key=lambda p: p[0]):
        if not isinstance(eff, int):
            rows += ([repr(float(value))] + row
                     for row in pp.efficiency_rows(eff))
    out_dir = Path(output) if output else Path(base.output_directory)
    code = _write(out_dir, {"sweep.csv": _csv(rows)})
    if code == EXIT_OK:
        log.info("wrote %s", out_dir / "sweep.csv")
    return code


def cmd_diagnose(config_path: str, output: str | None = None,
                 estimate_extension: bool = False) -> int:
    cfg = None
    try:
        cfg = load_config(config_path)
        problem = cfg.build()
        spectra = an.decompose_reQ(problem)
        geometry = None
        if problem.contrast.x1_invariant:
            h = problem.contrast.h
            geometry = an.GraphGeometry(
                zeta_plus=lambda x1: np.full_like(np.asarray(x1, float), h),
                zeta_minus=lambda x1: np.full_like(np.asarray(x1, float), -h),
                rho=1.2 * h,
            )
        report = an.garding_check(problem, spectra, geometry=geometry,
                                  estimate_extension=estimate_extension)
    except FAILURES as exc:
        return _failed(exc, cfg)
    out_dir = Path(output) if output else Path(cfg.output_directory)
    code = _write(out_dir, {"garding_report.json": _json(report.doc())})
    if code == EXIT_OK:
        log.info("wrote %s", out_dir / "garding_report.json")
    return code


def cmd_validate(level: str, tmp_dir: str | None = None) -> int:
    # the kernel-formula gate's 30-digit reference needs the optional
    # extra; nothing else does
    try:
        import mpmath  # noqa: F401
    except ImportError:
        log.error("validate needs the package 'mpmath', which is not "
                  "installed: pip install 'vigrating[validate]'")
        return EXIT_INVALID
    from .validate import run_gates

    if tmp_dir is None:
        import tempfile

        with tempfile.TemporaryDirectory() as td:
            results = run_gates(level, tmp_dir=td)
    else:
        results = run_gates(level, tmp_dir=tmp_dir)
    for res in results:
        print(res.line())
    return EXIT_OK if all(r.passed for r in results) else 1


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="vigrating",
        description="TM-polarized scattering from periodic anisotropic "
        "gratings via a spectral volume integral equation",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one configuration")
    p_solve.add_argument("config")
    p_solve.add_argument("--output", help="output directory override")

    p_sweep = sub.add_parser("sweep", help="solve over a parameter range")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMETERS)
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--output", help="output directory override")

    p_diag = sub.add_parser("diagnose", help="solvability diagnostics only")
    p_diag.add_argument("config")
    p_diag.add_argument("--output", help="output directory override")
    p_diag.add_argument("--estimate-extension", action="store_true",
                        help="add the numerical extension-norm estimate")

    p_val = sub.add_parser("validate", help="run the oracle gate suite")
    p_val.add_argument("--level", choices=("quick", "full"), default="quick")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which is
        # the code of a solve that did not converge
        return EXIT_OK if exc.code == 0 else EXIT_INVALID
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    # basicConfig configures a process's first call alone: -v sets the
    # package logger for its own call, whichever call of the process it is
    level = log.level
    log.setLevel(logging.DEBUG if args.verbose else level)
    try:
        if args.command == "solve":
            return cmd_solve(args.config, output=args.output)
        if args.command == "sweep":
            return cmd_sweep(args.config, args.param, args.start, args.stop,
                             args.steps, output=args.output)
        if args.command == "diagnose":
            return cmd_diagnose(args.config, output=args.output,
                                estimate_extension=args.estimate_extension)
        return cmd_validate(args.level)
    finally:
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
