"""Benchmark of the vigrating solver: end-to-end metrics, or per-layer
metrics from a traced run, for one workload.

    python3 perfbench/run.py --workload cli-mix --seed 0 --seconds 25 --trace 0

Run it from anywhere inside a source checkout; it uses the package under
``src/`` of that checkout and writes only under ``.perfbench_work/``.

Workloads (closed loops: each call starts when the previous one returned):

* ``cli-mix``: a fresh ``vigrating`` process per call, cycling through
  ``solve`` on the four bundled configs and ``diagnose`` on the negative
  slab.  This is how users run the tool; cold start dominates it.
* ``theta-sweep``: the 21-point theta sweep of ``configs/slab_q3.ini`` at
  ``GRATING_THREADS=1``, in process after one untimed warm-up solve.  Warm,
  repeated 256x256 work, checked point by point against the slab transfer
  matrix.
* ``neg-circle``: a circle with q = -5 at 64x64, solved in process once with
  ``restart = 1000`` (converges) and once with the default GMRES(50)
  (stalls at the iteration cap today, exit code 2), after one untimed call
  of each.  Krylov-bound.

The seed only shuffles the ``cli-mix`` call order and nudges the incidence
angles of the other two workloads by less than half a degree; seed 0 runs
the cases exactly as written above.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it
give every metric by name with its unit, the checks that failed and the
environment.
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import SPAN_METRICS, Tracer, span_metrics
from stats import Tally, describe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PERIOD = 2 * math.pi

WORKLOADS = ("cli-mix", "theta-sweep", "neg-circle")
# cold imports before the workload, then between cycles one per this many
# seconds of run time
SETUP_SAMPLES = 1
SETUP_EVERY_S = 3.0
# a child process that takes longer is killed; a cli-mix call then fails
CALL_TIMEOUT_S = 60
# the console script entry point, run in a fresh interpreter
CONSOLE = "import sys; from vigrating.cli import main; sys.exit(main())"

CLI_MIX = (
    ("solve", "configs/slab_q3.ini"),
    ("solve", "configs/slab_negative.ini"),
    ("solve", "configs/slab_lossy.ini"),
    ("solve", "configs/circle_anisotropic.ini"),
    ("diagnose", "configs/slab_negative.ini"),
)
SWEEP_CONFIG = "configs/slab_q3.ini"
SWEEP_FROM, SWEEP_TO, SWEEP_STEPS = 0.0, 40.0, 21

NEG_CIRCLE = """\
[problem]
k = 1.0
theta_deg = {theta!r}
shape = circle
radius = 0.2
q_re = -5.0

[numerics]
n1 = 64
n2 = 64
rel_tol = 1e-10
{restart}
[output]
directory = out
"""
NEG_CIRCLE_RUNS = (("restart-1000", "restart = 1000\n"), ("default-restart", ""))

# the lossless energy bound of the slab-physics gate; a loose bound on
# |R - R_TM| that only a broken solve exceeds (these slabs reach about 2e-3);
# the relative residual the converged neg-circle solve must reach
ENERGY_DEFECT_MAX = 1e-6
REFL_ERR_SANITY = 1e-2
TIME_TO_TOL = 1e-10

# counts that must repeat exactly from cycle to cycle
COUNT_UNITS = ("count", "bytes")
# per-layer metrics also shown for each command of a traced cycle
BREAKDOWN = ("solver.gmres_self_s", "operators.apply_forward_s",
             "postprocess.rayleigh_coefficients_s", "solver.iterations")


# ----------------------------------------------------------------------------
# inputs derived from the seed


def cli_mix_order(seed: int, cycle: int) -> list[tuple[str, str]]:
    """The cli-mix commands of one cycle, shuffled unless the seed is 0."""
    commands = list(CLI_MIX)
    if seed:
        random.Random(f"{seed}:{cycle}").shuffle(commands)
    return commands


def theta_nudge(seed: int) -> float:
    """Offset in degrees added to every incidence angle; 0 for seed 0."""
    return random.Random(seed).uniform(0.0, 0.5) if seed else 0.0


def sweep_range(seed: int) -> tuple[float, float]:
    nudge = theta_nudge(seed)
    return SWEEP_FROM + nudge, SWEEP_TO + nudge


def neg_circle_configs(seed: int) -> dict[str, str]:
    theta = 10.0 + theta_nudge(seed)
    return {name: NEG_CIRCLE.format(theta=theta, restart=line)
            for name, line in NEG_CIRCLE_RUNS}


# ----------------------------------------------------------------------------
# correctness checks


def slab_reflectance(config: Path, theta_deg: float | None = None):
    """Transfer-matrix reflectance of a slab config, None for other shapes.

    The order-0 reflectance |r|^2 does not depend on the reference height,
    so the oracle's default ``rho_ref`` serves every solve."""
    parser = configparser.ConfigParser()
    parser.read(config, encoding="utf-8")
    prob = parser["problem"]
    if prob.get("shape") != "slab":
        return None
    from vigrating.oracle import SlabSpec, slab_reference

    k = float(prob["k"]) / PERIOD
    theta = float(prob["theta_deg"]) if theta_deg is None else theta_deg
    h = PERIOD * float(prob["thickness"]) / 2
    q = complex(float(prob.get("q_re", 0.0)), float(prob.get("q_im", 0.0)))
    spec = SlabSpec(q=q, a=-h, b=h, k=k, alpha=k * math.sin(math.radians(theta)))
    return slab_reference(spec).reflectance


def output_fingerprint(out_dir: Path):
    """Output bytes two runs of one command must share: every file, with the
    timestamp line of result.json left out as the determinism gate does."""
    prints = {}
    for path in sorted(out_dir.iterdir()):
        lines = path.read_bytes().splitlines(keepends=True)
        if path.name == "result.json":
            lines = [ln for ln in lines if b'"timestamp"' not in ln]
        prints[path.name] = b"".join(lines)
    return prints


def check_solve(out_dir: Path, config: Path, refl_errs: list,
                max_residual: float | None = None) -> list[str]:
    """Checks on a finished solve: convergence (to ``max_residual`` when
    given) and, for slabs, the lossless energy defect and the reflectance
    against the transfer matrix."""
    try:
        doc = json.loads((out_dir / "result.json").read_text(encoding="utf-8"))
        meta = doc["metadata"]
        e_refl = next(o["e_refl"] for o in doc["orders"] if o["j"] == 0)
        residual = meta["relative_residual"]
        (out_dir / "efficiencies.csv").stat()
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        return [f"unreadable output ({exc!r})"]
    problems = []
    if meta.get("converged") is not True:
        problems.append("result.json does not report convergence")
    if max_residual is not None and not residual <= max_residual:
        problems.append(f"relative residual {residual:.2e}")
    reference = slab_reflectance(config, meta.get("theta_deg"))
    if reference is not None:
        if meta.get("lossless") and not meta["energy_defect"] <= ENERGY_DEFECT_MAX:
            problems.append(f"energy defect {meta['energy_defect']:.2e}")
        err = abs(e_refl - reference)
        refl_errs.append(err)
        if not err <= REFL_ERR_SANITY:
            problems.append(f"|R - R_TM| = {err:.2e}")
    return problems


# ----------------------------------------------------------------------------
# measurement helpers


def child_env() -> dict:
    """The caller's environment, with only this checkout's package importable."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def cold_import_s() -> float:
    """Wall time of a fresh interpreter running ``import vigrating.cli``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import vigrating.cli"], cwd=ROOT,
                   env=child_env(), check=True, timeout=CALL_TIMEOUT_S)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def traced_cycle(cycle: int) -> bool:
    """Trace runs alternate one untraced cycle with two traced ones."""
    return cycle % 3 != 0


class Run:
    """State of one benchmark run: timings per command, the tally, the
    traced cycles' span lists and the untraced and traced cycle walls."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.work = WORK / workload
        self.latency: dict[str, list[float]] = {}
        self.tally = Tally()
        self.refl_errs: list[float] = []
        self.cycle_walls = {False: [], True: []}
        # per traced cycle: (command, spans of that command) pairs
        self.cycle_spans: list[list[tuple[str, list[dict]]]] = []
        self.missing: set[str] = set()
        self.extra: dict[str, object] = {}
        self.setup: list[float] = []

    def sample_setup(self):
        self.setup.append(cold_import_s())

    def loop(self, run_cycle, min_cycles: int):
        """Closed loop over cycles until ``seconds`` have passed.

        Between cycles it takes one set-up sample per SETUP_EVERY_S of
        elapsed time.  Spread over the run, set-up sees the slow drifts of
        the machine as the workload does; the sampling time is not counted.
        """
        min_cycles = max(min_cycles, 3 if self.trace else 1)
        start = last_setup = time.perf_counter()
        paused = 0.0
        cycle = 0
        while (cycle < min_cycles
               or time.perf_counter() - start - paused < self.seconds):
            traced = self.trace and traced_cycle(cycle)
            spans: list[tuple[str, list[dict]]] = []
            wall = run_cycle(cycle, traced, spans)
            self.cycle_walls[traced].append(wall)
            if traced:
                self.cycle_spans.append(spans)
            cycle += 1
            owed = int((time.perf_counter() - last_setup) // SETUP_EVERY_S)
            if owed:
                t0 = time.perf_counter()
                for _ in range(owed):
                    self.sample_setup()
                last_setup = time.perf_counter()
                paused += last_setup - t0

    def timed(self, key: str, wall: float):
        self.latency.setdefault(key, []).append(wall)

    @property
    def cli_latency_s(self) -> float:
        """Mean over the workload's commands of each one's median wall time."""
        return statistics.fmean(statistics.median(v)
                                for v in self.latency.values())


def run_in_process(run: Run, argv: list[str], tracer: Tracer | None):
    """One call of ``vigrating.cli.main``.  Returns (exit code, wall
    seconds); an exception escaping the program takes the exit code's place
    as a string, so the caller counts the call as failed."""
    import vigrating.cli

    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    try:
        code = vigrating.cli.main(argv)
    except Exception as exc:  # the program crashed: record, keep measuring
        logging.getLogger("perfbench").exception("%s raised", argv[0])
        code = f"raised {type(exc).__name__}"
    wall = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()
        run.missing |= tracer.missing
    return code, wall


# ----------------------------------------------------------------------------
# workloads


def run_cli_mix(run: Run):
    fingerprints: dict[tuple[str, str], dict] = {}

    def cycle_fn(cycle, traced, spans):
        cycle_wall = 0.0
        for command, config in cli_mix_order(run.seed, cycle):
            key = f"{command} {Path(config).stem}"
            out = run.work / key.replace(" ", "-") / str(cycle)
            argv = [command, config, "--output", str(out)]
            span_file = out.parent / f"spans-{cycle}.json"
            if traced:
                cmd = [sys.executable, str(HERE / "traced_cli.py"),
                       str(span_file), *argv]
            else:
                cmd = [sys.executable, "-c", CONSOLE, *argv]
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                                      stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, text=True,
                                      timeout=CALL_TIMEOUT_S)
                code, stderr = proc.returncode, proc.stderr
            except subprocess.TimeoutExpired:
                code, stderr = "timeout", f"killed after {CALL_TIMEOUT_S} s"
            wall = time.perf_counter() - t0
            cycle_wall += wall
            if not traced:
                run.timed(key, wall)
            problems = []
            if code != 0:
                problems.append(f"exit code {code}: {stderr.strip()[-300:]}")
            else:
                if command == "solve":
                    problems += check_solve(out, ROOT / config, run.refl_errs)
                elif not (out / "garding_report.json").is_file():
                    problems.append("no garding_report.json")
                if not problems:
                    current = output_fingerprint(out)
                    first = fingerprints.setdefault((command, config), current)
                    if current != first:
                        problems.append("output differs from the first call")
            if traced and span_file.is_file():
                doc = json.loads(span_file.read_text(encoding="utf-8"))
                spans.append((key, doc["spans"]))
                run.missing |= set(doc["missing"])
            run.tally.operation(f"cycle {cycle} {key}", problems)
        return cycle_wall

    # two calls per config are needed for the determinism check
    run.loop(cycle_fn, min_cycles=2)


def run_theta_sweep(run: Run):
    import numpy as np

    os.environ["GRATING_THREADS"] = "1"
    lo, hi = sweep_range(run.seed)
    expected = [repr(float(v)) for v in np.linspace(lo, hi, SWEEP_STEPS)]
    config = ROOT / SWEEP_CONFIG
    references = {t: slab_reflectance(config, float(t)) for t in expected}
    run_in_process(run, ["solve", SWEEP_CONFIG, "--output",
                         str(run.work / "warm-up")], None)
    cpu = {"wall": 0.0, "cpu": 0.0, "points": 0}
    tracer = Tracer()

    def cycle_fn(cycle, traced, spans):
        out = run.work / f"sweep-{cycle}"
        c0 = time.process_time()
        code, wall = run_in_process(
            run, ["sweep", SWEEP_CONFIG, "--param", "theta", "--from", repr(lo),
                  "--to", repr(hi), "--steps", str(SWEEP_STEPS),
                  "--output", str(out)], tracer if traced else None)
        if traced:
            spans.append(("sweep", tracer.take()))
        else:
            run.timed("sweep", wall)
            cpu["wall"] += wall
            cpu["cpu"] += time.process_time() - c0
        rows: dict[str, list[list[str]]] = {}
        if code == 0:
            lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
            for line in lines[1:]:
                cells = line.split(",")
                rows.setdefault(cells[0], []).append(cells)
        for theta in expected:
            label = f"cycle {cycle} theta {theta}"
            if code != 0:
                run.tally.operation(label, [f"sweep exit code {code}"])
                continue
            if theta not in rows:
                run.tally.operation(label, ["sweep point missing"])
                continue
            e_refl = sum(float(r[5]) for r in rows[theta] if r[1] == "0")
            total = sum(float(r[5]) + float(r[6]) for r in rows[theta])
            err = abs(e_refl - references[theta])
            run.refl_errs.append(err)
            ok = run.tally.operation(label, [
                None if abs(1.0 - total) <= ENERGY_DEFECT_MAX
                else f"energy defect {abs(1.0 - total):.2e}",
                None if err <= REFL_ERR_SANITY else f"|R - R_TM| = {err:.2e}",
            ])
            if ok and not traced:
                cpu["points"] += 1
        return wall

    run.loop(cycle_fn, min_cycles=1)
    run.extra["sweep_points_per_s"] = cpu["points"] / cpu["wall"]
    run.extra["sweep_cpu_per_wall"] = cpu["cpu"] / cpu["wall"]


def run_neg_circle(run: Run):
    configs = {}
    run.work.mkdir(parents=True, exist_ok=True)
    for name, text in neg_circle_configs(run.seed).items():
        configs[name] = run.work / f"neg_circle_{name}.ini"
        configs[name].write_text(text, encoding="utf-8")
    # one untimed call of each command: the first GMRES(50) solve of a
    # process is slower than the rest, which would skew the first cycle
    for name, config in configs.items():
        run_in_process(run, ["solve", str(config), "--output",
                             str(run.work / "warm-up" / name)], None)
    run.extra["stalled"] = 0
    tracer = Tracer()

    def cycle_fn(cycle, traced, spans):
        cycle_wall = 0.0
        for name, config in configs.items():
            out = run.work / name / str(cycle)
            code, wall = run_in_process(
                run, ["solve", str(config), "--output", str(out)],
                tracer if traced else None)
            cycle_wall += wall
            if traced:
                spans.append((name, tracer.take()))
            else:
                run.timed(name, wall)
            problems = []
            if code == 2 and name == "default-restart":
                # documented non-convergence exit; counted as a stall
                run.extra["stalled"] += 1
            elif code != 0:
                problems.append(f"exit code {code}")
            else:
                problems += check_solve(out, config, run.refl_errs,
                                        max_residual=TIME_TO_TOL)
            run.tally.operation(f"cycle {cycle} {name}", problems)
        return cycle_wall

    run.loop(cycle_fn, min_cycles=1)


RUNNERS = {"cli-mix": run_cli_mix, "theta-sweep": run_theta_sweep,
           "neg-circle": run_neg_circle}


# ----------------------------------------------------------------------------
# reporting


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout.split()
    except (OSError, ValueError, subprocess.CalledProcessError):
        top = None
    if top is None or Path(top).resolve() != ROOT:
        commit = "unknown (not a git checkout)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "GRATING_THREADS": os.environ.get("GRATING_THREADS", "unset"),
        "commit": commit,
    }


def metric_line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"{name:<20} {value:<12.6g} {unit:<5} {note}".rstrip()


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    metrics = {
        "setup_s": (statistics.median(run.setup), "s"),
        "cli_latency_s": (run.cli_latency_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    lines = [f"  call {key:<24} {describe(samples)} s"
             for key, samples in run.latency.items()]
    lines += [
        metric_line("setup_s", *metrics["setup_s"],
                    f"cold import of vigrating.cli: {describe(run.setup)}"),
        metric_line("cli_latency_s", *metrics["cli_latency_s"],
                    "mean over commands of each command's median wall time"),
        metric_line("peak_rss_mb", *metrics["peak_rss_mb"],
                    "benchmark process or its largest child"),
    ]
    if run.workload == "theta-sweep":
        lines.append(metric_line(
            "sweep_points_per_s", run.extra["sweep_points_per_s"], "1/s",
            f"sweep cpu/wall {run.extra['sweep_cpu_per_wall']:.2f}"))
    if run.workload == "neg-circle":
        converged = run.latency["restart-1000"]
        lines.append(metric_line("time_to_tol_s", statistics.median(converged),
                                 "s", describe(converged)))
        runs = len(run.latency["default-restart"])
        lines.append(metric_line(
            "stall_frac", run.extra["stalled"] / runs, "1",
            f"GMRES(50) solves stopped at the iteration cap: "
            f"{run.extra['stalled']} of {runs}"))
    if run.refl_errs:
        lines.append(metric_line("refl_err_max", max(run.refl_errs), "1",
                                 "|R - R_TM| over the slab solves"))
    return metrics, lines


def per_layer(run: Run) -> tuple[dict, list[str]]:
    probe = run_scipy_probe(run)
    metrics = {"import.cold_s": (statistics.median(run.setup), "s"),
               "import.scipy_loaded": (int(probe), "flag")}
    per_cycle = [span_metrics([s for _, s in pairs], run.missing)
                 for pairs in run.cycle_spans]
    lines = []
    for key in dict.fromkeys(k for pairs in run.cycle_spans for k, _ in pairs):
        each = [span_metrics([s for k, s in pairs if k == key], run.missing)
                for pairs in run.cycle_spans]
        shown = [f"{name} {statistics.median(m.get(name, 0) for m in each):.4g}"
                 for name in BREAKDOWN]
        lines.append(f"  {key:<26} " + ", ".join(shown))
    for name, (unit, *_) in SPAN_METRICS.items():
        values = [m[name] for m in per_cycle if name in m]
        if len(values) < len(per_cycle) or not values:
            lines.append(f"{name:<40} missing")
            continue
        if unit in COUNT_UNITS:
            run.tally.operation(f"{name} repeats", [
                None if len(set(values)) == 1 else f"differs between cycles {values}"])
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = (value, unit)
    untraced = statistics.median(run.cycle_walls[False])
    traced = statistics.median(run.cycle_walls[True])
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    for name, (value, unit) in metrics.items():
        share = ""
        if name.endswith(".self_s"):
            share = f"  ({100 * value / traced:.1f}% of traced cycle wall)"
        lines.append(f"{name:<40} {value:.6g} {unit}{share}")
    lines.append(f"traced cycle wall {traced:.4f} s, untraced {untraced:.4f} s "
                 f"(values are per cycle; medians for times)")
    return metrics, lines


def run_scipy_probe(run: Run) -> bool:
    """Whether a cold ``solve`` imports scipy (a small slab solve)."""
    config = run.work / "probe.ini"
    config.write_text(
        "[problem]\nk = 1.0\ntheta_deg = 0.0\nshape = slab\nq_re = 3.0\n"
        "thickness = 1.0\n\n[numerics]\nn1 = 16\nn2 = 32\n"
        "rho_box = 1.1277533039647578\n\n[output]\ndirectory = out\n",
        encoding="utf-8")
    spans = run.work / "probe-spans.json"
    subprocess.run([sys.executable, str(HERE / "traced_cli.py"), str(spans),
                    "solve", str(config), "--output", str(run.work / "probe")],
                   cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True, timeout=CALL_TIMEOUT_S)
    return json.loads(spans.read_text(encoding="utf-8"))["scipy_loaded"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vigrating" / "cli.py").is_file():
        print(f"perfbench: no vigrating package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vigrating

    if Path(vigrating.__file__).resolve().parent != SRC / "vigrating":
        print(f"perfbench: imported vigrating from {vigrating.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    # quiet the per-call "wrote ..." lines of in-process calls
    logging.basicConfig(level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")

    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    (WORK / args.workload).mkdir(parents=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    for _ in range(SETUP_SAMPLES):
        run.sample_setup()
    RUNNERS[args.workload](run)

    report = per_layer if args.trace else end_to_end
    metrics, lines = report(run)
    env = environment()
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(run.cycle_walls[False]) + len(run.cycle_walls[True])} cycles")
    for line in lines:
        print(line)
    print(metric_line("fail_frac", run.tally.fail_frac, "1",
                      f"{run.tally.failed} of {run.tally.attempted} "
                      "operations failed"))
    for problem in run.tally.problems:
        print(f"FAILED {problem}")
    print("environment " + json.dumps(env, sort_keys=True))
    result = {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "environment": env, "lines": lines,
                    "problems": run.tally.problems}, indent=2) + "\n",
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
