"""Command-line front end: solve, sweep, diagnose, validate.

Exit codes: 0 success, 1 a failed gate of ``validate``, 2 solver did not
converge (including a Krylov breakdown), 3 invalid input (configuration,
geometry, an unreadable input file, a Rayleigh anomaly or any other
rejected problem), a grid that exhausts memory, or an output that cannot be
written.  A sweep with no successful point exits 2 if a point failed to
converge, else 3.

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
import io
import json
import logging
import sys
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import analysis as an
from . import postprocess as pp
from .config import RunConfig, load_config
from .errors import (
    BreakdownDetected,
    ConfigError,
    NotConverged,
    SizeGuard,
    VigratingError,
)
from .kernel import kernel_table
from .problem import Problem, sample_contrast
from .solver import SolveOptions, residual, solve, solve_lockstep

log = logging.getLogger("vigrating")

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_INVALID = 3


def _out_of_memory(cfg: RunConfig, exc: MemoryError) -> SizeGuard:
    """The SizeGuard, naming ``cfg``'s grid, that a MemoryError while
    sampling or solving on it becomes; the commands report it as exit 3."""
    return SizeGuard(f"out of memory on the {cfg.n1} x {cfg.n2} grid: "
                     f"{str(exc) or 'MemoryError'}")


@contextmanager
def _grid_memory(cfg: RunConfig):
    """Raise :func:`_out_of_memory` for a MemoryError of the block."""
    try:
        yield
    except MemoryError as exc:
        raise _out_of_memory(cfg, exc) from None


def _solve_options(cfg: RunConfig) -> SolveOptions:
    return SolveOptions(rel_tol=cfg.rel_tol,
                        max_iterations=cfg.max_iterations,
                        restart=cfg.restart)


def _solve_config(cfg: RunConfig):
    """Solve ``cfg``: its problem, kernel table, solution and
    efficiencies."""
    problem = cfg.build()
    # a layered solve and its Rayleigh extraction read only the coupled rows
    table = kernel_table(problem.grid, problem.wave, problem.layout.n_rows)
    solution = solve(problem, table, _solve_options(cfg))
    above, below = pp.rayleigh_both_sides(solution, problem, table)
    eff = pp.efficiencies(above, below, problem)
    return problem, table, solution, eff


def _write_solution(out_dir: Path, problem, table, solution, eff,
                    cfg: RunConfig):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "efficiencies.csv").write_text(pp.efficiency_csv(eff),
                                              encoding="utf-8")
    true_residual = residual(problem, table, solution.u,
                             solution.discretization)
    lossless = problem.is_lossless()
    meta = {
        "converged": solution.converged,
        "iterations": solution.iterations,
        "relative_residual": true_residual,
        "lossless": lossless,
        "energy_defect": (pp.energy_balance(eff, problem) if lossless else None),
        "absorbed_fraction": eff.absorbed,
        "k_per_period": cfg.k_period,
        "theta_deg": cfg.theta_deg,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    doc = json.loads(pp.efficiency_json(eff, problem, metadata=meta))
    doc["residual_history"] = list(solution.residual_history)
    (out_dir / "result.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _cannot_write(out_dir: Path, exc: OSError) -> int:
    log.error("cannot write output %s: %s", out_dir, exc)
    return EXIT_INVALID


def cmd_solve(config_path: str, output: str | None = None) -> int:
    try:
        cfg = load_config(config_path)
        out_dir = Path(output) if output else Path(cfg.output_directory)
        with _grid_memory(cfg):
            problem, table, solution, eff = _solve_config(cfg)
    except BreakdownDetected as exc:
        log.error("%s", exc)
        return EXIT_NOT_CONVERGED
    except NotConverged as exc:
        log.error("%s", exc)
        sol = exc.solution
        if sol is not None:
            try:
                out_dir.mkdir(parents=True, exist_ok=True)
                (out_dir / "result.json").write_text(json.dumps({
                    "converged": False,
                    "iterations": sol.iterations,
                    "residual_history": list(sol.residual_history),
                }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            except OSError as err:
                return _cannot_write(out_dir, err)
        return EXIT_NOT_CONVERGED
    except (VigratingError, OSError, ValueError) as exc:
        log.error("invalid problem: %s", exc)
        return EXIT_INVALID
    try:
        _write_solution(out_dir, problem, table, solution, eff, cfg)
    except OSError as exc:
        return _cannot_write(out_dir, exc)
    log.info("wrote %s", out_dir / "efficiencies.csv")
    return EXIT_OK


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


def cmd_sweep(config_path: str, param: str, start: float, stop: float,
              steps: int, output: str | None = None) -> int:
    try:
        base = load_config(config_path)
        if param not in ("k", "theta"):
            raise ConfigError("sweep parameter must be 'k' or 'theta'")
        values = _sweep_values(start, stop, steps)
    except ConfigError as exc:
        log.error("%s", exc)
        return EXIT_INVALID
    # k and theta change only the wave: the options are checked and the
    # contrast is sampled once
    try:
        opts = _solve_options(base)
        with _grid_memory(base):
            contrast = base.contrast()
            grid = base.grid(contrast)
            rho_ref, layout = sample_contrast(contrast, grid)
    except (VigratingError, OSError, ValueError) as exc:
        log.error("invalid problem: %s", exc)
        return EXIT_INVALID

    points = []

    def skip(value: float, exc: Exception) -> int:
        """Log why the point ``value`` is skipped; its exit code."""
        if isinstance(exc, (NotConverged, BreakdownDetected)):
            log.warning("skipping %s = %g: %s", param, value, exc)
            return EXIT_NOT_CONVERGED
        if isinstance(exc, MemoryError):
            exc = _out_of_memory(base, exc)
        log.warning("skipping %s = %g: invalid problem (%s)", param, value,
                    exc)
        return EXIT_INVALID

    def problems():
        """The (value, problem) of each point, built only when the solver
        takes it; a point whose wave is rejected is skipped."""
        for value in values:
            try:
                wave = base.replace_parameter(param, float(value)).wave()
            except (VigratingError, ValueError) as exc:
                points.append((value, skip(value, exc)))
                continue
            yield value, Problem(wave=wave, contrast=contrast, grid=grid,
                                 rho_ref=rho_ref, layout=layout)

    def finish(batch: list) -> list:
        """The (value, efficiencies or exit code) of a solved batch: one
        Rayleigh extraction for its solved points."""
        done = [(value, skip(value, outcome)) for value, outcome in batch
                if isinstance(outcome, Exception)]
        solved = [(value, sol) for value, sol in batch
                  if not isinstance(sol, Exception)]
        if not solved:
            return done
        try:
            with _grid_memory(base):
                data = pp.rayleigh_batch([sol for _, sol in solved])
        except (VigratingError, ValueError) as exc:
            return done + [(value, skip(value, exc)) for value, _ in solved]
        return done + [
            (value, pp.efficiencies(above, below, sol.discretization.problem))
            for (value, sol), (above, below) in zip(solved, data)]

    # map holds no solved batch while the solver runs the next one
    for done in map(finish, solve_lockstep(problems(), opts)):
        points += done

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow((param,) + pp.EFFICIENCY_COLUMNS)
    # a skipped point holds its exit code in place of the efficiencies
    skipped = []
    for value, eff in sorted(points, key=lambda p: p[0]):
        if isinstance(eff, int):
            skipped.append(eff)
        else:
            writer.writerows([repr(float(value))] + row
                             for row in pp.efficiency_rows(eff))
    out_dir = Path(output) if output else Path(base.output_directory)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "sweep.csv").write_text(buf.getvalue(), encoding="utf-8")
    except OSError as exc:
        return _cannot_write(out_dir, exc)
    log.info("wrote %s", out_dir / "sweep.csv")
    if len(skipped) < len(points):
        return EXIT_OK
    log.error("no sweep point succeeded")
    return (EXIT_NOT_CONVERGED if EXIT_NOT_CONVERGED in skipped
            else EXIT_INVALID)


def cmd_diagnose(config_path: str, output: str | None = None,
                 estimate_extension: bool = False) -> int:
    try:
        cfg = load_config(config_path)
        with _grid_memory(cfg):
            problem = cfg.build()
            spectra = an.decompose_reQ(problem)
    except (VigratingError, OSError, ValueError) as exc:
        log.error("invalid problem: %s", exc)
        return EXIT_INVALID

    geometry = None
    if cfg.shape in ("slab", "two_layer"):
        h = problem.contrast.h
        geometry = an.GraphGeometry(
            zeta_plus=lambda x1, h=h: np.full_like(np.asarray(x1, float), h),
            zeta_minus=lambda x1, h=h: np.full_like(np.asarray(x1, float), -h),
            rho=1.2 * h,
        )
    report = an.garding_check(problem, spectra, geometry=geometry,
                              estimate_extension=estimate_extension)
    out_dir = Path(output) if output else Path(cfg.output_directory)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "garding_report.json").write_text(report.to_json(),
                                                     encoding="utf-8")
    except OSError as exc:
        return _cannot_write(out_dir, exc)
    log.info("wrote %s", out_dir / "garding_report.json")
    return EXIT_OK


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


def write_slab_example_config(path, n: int = 256, q: float = 3.0,
                              k: float = 1.0):
    """Write the bundled slab configuration (lengths in period units).

    The box ratio puts the slab faces midway between grid rows, which keeps
    the pointwise-sampled interface error at its measured minimum.
    """
    m = round(n / 2.2555 - 0.5)
    rho_box = 0.5 * n / (m + 0.5)
    Path(path).write_text(
        "[problem]\n"
        f"k = {k}\n"
        "theta_deg = 0.0\n"
        "shape = slab\n"
        f"q_re = {q}\n"
        "thickness = 1.0\n"
        "\n"
        "[numerics]\n"
        f"n1 = {n}\n"
        f"n2 = {n}\n"
        f"rho_box = {rho_box!r}\n"
        "rel_tol = 1e-10\n"
        "\n"
        "[output]\n"
        "directory = out\n",
        encoding="utf-8",
    )


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
    p_sweep.add_argument("--param", required=True, choices=("k", "theta"))
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
    parser = _parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )

    if args.command == "solve":
        return cmd_solve(args.config, output=args.output)
    if args.command == "sweep":
        return cmd_sweep(args.config, args.param, args.start, args.stop,
                         args.steps, output=args.output)
    if args.command == "diagnose":
        return cmd_diagnose(args.config, output=args.output,
                            estimate_extension=args.estimate_extension)
    if args.command == "validate":
        return cmd_validate(args.level)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
