"""Command-line front end: solve, sweep, diagnose, validate.

Exit codes: 0 success, 2 solver did not converge (including a Krylov
breakdown), 3 invalid input (configuration, geometry, a Rayleigh anomaly or
any other rejected problem).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import analysis as an
from . import postprocess as pp
from .config import RunConfig, load_config
from .errors import (
    BreakdownDetected,
    ConfigError,
    NotConverged,
    VigratingError,
)
from .kernel import kernel_table
from .problem import Problem, sample_contrast
from .solver import SolveOptions, residual, solve

log = logging.getLogger("vigrating")

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_INVALID = 3


def _solve_config(cfg: RunConfig, problem: Problem | None = None):
    """Solve ``cfg``; ``problem`` may pass its already sampled problem."""
    if problem is None:
        problem = cfg.build()
    # a layered solve and its Rayleigh extraction read only the coupled rows
    table = kernel_table(problem.grid, problem.wave, problem.layout.n_rows)
    opts = SolveOptions(
        rel_tol=cfg.rel_tol,
        max_iterations=cfg.max_iterations,
        restart=cfg.restart,
    )
    solution = solve(problem, table, opts)
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


def cmd_solve(config_path: str, output: str | None = None) -> int:
    try:
        cfg = load_config(config_path)
        out_dir = Path(output) if output else Path(cfg.output_directory)
        problem, table, solution, eff = _solve_config(cfg)
    except BreakdownDetected as exc:
        log.error("%s", exc)
        return EXIT_NOT_CONVERGED
    except NotConverged as exc:
        log.error("%s", exc)
        sol = exc.solution
        if sol is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "result.json").write_text(json.dumps({
                "converged": False,
                "iterations": sol.iterations,
                "residual_history": list(sol.residual_history),
            }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return EXIT_NOT_CONVERGED
    except (VigratingError, FileNotFoundError, ValueError) as exc:
        log.error("invalid problem: %s", exc)
        return EXIT_INVALID
    _write_solution(out_dir, problem, table, solution, eff, cfg)
    log.info("wrote %s", out_dir / "efficiencies.csv")
    return EXIT_OK


def cmd_sweep(config_path: str, param: str, start: float, stop: float,
              steps: int, output: str | None = None) -> int:
    try:
        base = load_config(config_path)
        if param not in ("k", "theta"):
            raise ConfigError("sweep parameter must be 'k' or 'theta'")
        if steps < 1:
            raise ConfigError("steps must be >= 1")
        threads_env = os.environ.get("GRATING_THREADS", "1")
        try:
            threads = max(1, int(threads_env))
        except ValueError:
            raise ConfigError(
                f"GRATING_THREADS must be an integer, got {threads_env!r}"
            ) from None
    except ConfigError as exc:
        log.error("%s", exc)
        return EXIT_INVALID
    # k and theta change only the wave: the contrast is sampled once
    try:
        contrast = base.contrast()
        grid = base.grid(contrast)
        q_grid, rho_ref, layout = sample_contrast(contrast, grid)
    except (VigratingError, FileNotFoundError, ValueError) as exc:
        log.error("invalid problem: %s", exc)
        return EXIT_INVALID

    values = np.linspace(start, stop, steps)

    def run_point(value: float):
        cfg = base.replace_parameter(param, float(value))
        try:
            wave = cfg.wave()
            problem = Problem(wave=wave, contrast=contrast, grid=grid,
                              q_grid=q_grid, rho_ref=rho_ref, layout=layout)
            problem, _, _, eff = _solve_config(cfg, problem)
        except (NotConverged, BreakdownDetected) as exc:
            log.warning("skipping %s = %g: %s", param, value, exc)
            return value, None
        except (VigratingError, ValueError) as exc:
            log.warning("skipping %s = %g: invalid problem (%s)", param,
                        value, exc)
            return value, None
        return value, eff

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            points = list(pool.map(run_point, values))
    else:
        points = [run_point(v) for v in values]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow((param,) + pp.EFFICIENCY_COLUMNS)
    for value, eff in sorted(points, key=lambda p: p[0]):
        if eff is not None:
            writer.writerows([repr(float(value))] + row
                             for row in pp.efficiency_rows(eff))
    out_dir = Path(output) if output else Path(base.output_directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "sweep.csv").write_text(buf.getvalue(), encoding="utf-8")
    log.info("wrote %s", out_dir / "sweep.csv")
    return EXIT_OK


def cmd_diagnose(config_path: str, output: str | None = None,
                 estimate_extension: bool = False) -> int:
    try:
        cfg = load_config(config_path)
        problem = cfg.build()
        spectra = an.decompose_reQ(problem)
    except (VigratingError, FileNotFoundError, ValueError) as exc:
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
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "garding_report.json").write_text(report.to_json(),
                                                 encoding="utf-8")
    log.info("wrote %s", out_dir / "garding_report.json")
    return EXIT_OK


def cmd_validate(level: str, tmp_dir: str | None = None) -> int:
    import importlib

    # the gates' oracles need the optional extra; nothing else does
    for name in ("scipy", "mpmath"):
        try:
            importlib.import_module(name)
        except ImportError:
            log.error("validate needs the package %r, which is not "
                      "installed: pip install 'vigrating[validate]'", name)
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


def main(argv=None) -> int:
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
