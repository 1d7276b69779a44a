"""Oracle gate suite: the checks behind `vigrating validate` and the
acceptance tests.

Each gate pins one structural property of the scheme against an independent
reference (arbitrary-precision re-evaluation, series quadrature, finite
differences, the 1D tensor transfer matrix, dense SVD).  Gate
configurations are frozen here so the numbers are reproducible; tolerances
come from the measured convergence behavior with explicit margin.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis as an
from . import kernel as kn
from . import postprocess as pp
from .kernel import kernel_table
from .operators import evaluate, to_physical, to_spectral, volume_potential
from .oracle import (
    SlabSpec,
    bump,
    compactness_indicator,
    dense_quadrature_potential,
    helmholtz_residual,
    slab_reference,
)
from .problem import (
    Grid,
    IncidentWave,
    build_problem,
    circle_contrast,
    slab_contrast,
)
from .solver import SolveOptions, solve

PERIOD = 2 * np.pi


@dataclass(frozen=True)
class GateResult:
    name: str
    passed: bool
    details: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.details} ({self.elapsed:.1f}s)"


def _result(name, t0, passed, details) -> GateResult:
    return GateResult(name=name, passed=bool(passed), details=details,
                      elapsed=time.time() - t0)


def gate_kernel_formula(n: int = 64) -> GateResult:
    """Every table entry vs an arbitrary-precision re-evaluation; the
    degenerate branch of the table exactly; the table's branch continuity
    through the symbol zero."""
    from mpmath import mp, mpf, exp as mexp, sqrt as msqrt, pi as mpi

    t0 = time.time()
    k, alpha, rho = 1.0, 0.3, 2.0
    grid = Grid(n1=n, n2=n, rho_box=rho)
    wave = IncidentWave(k=k, d=(alpha / k, -np.sqrt(1 - (alpha / k) ** 2)))
    table = kernel_table(grid, wave)

    mp.dps = 30
    worst = 0.0
    j1m = grid.j1_modes()
    j2m = grid.j2_modes()
    for i1, j1 in enumerate(j1m):
        for i2, j2 in enumerate(j2m):
            aj = mpf(int(j1)) + mpf("0.3")
            lam = mpf(k) ** 2 - aj**2 - (mpf(int(j2)) * mpi / mpf(rho)) ** 2
            b = msqrt(mpf(k) ** 2 - aj**2)
            num = (-1) ** int(j2) * mexp(1j * b * mpf(rho)) - 1
            ref = complex(num / (msqrt(4 * mpi * mpf(rho)) * lam))
            got = table.coeffs[i1, i2]
            worst = max(worst, abs(got - ref) / abs(ref))
    ok_table = worst < 1e-13

    # k = 1, alpha = 0, rho = pi: the symbol vanishes at (0, +-1); orders
    # +-1 are at cutoff, so only the row j1 = 0 is built
    row = Grid(n1=n, n2=n, rho_box=np.pi)
    at = [row.j2_modes().tolist().index(j2) for j2 in (1, -1)]
    degenerate, = kn._build_tables(row, [0.0], [1.0], [1.0], rows=1)
    ok_degenerate = all(degenerate.coeffs[0, i] == 0.25j for i in at)

    # perturb k^2 so the symbol sits at +-1e-6 around the (0, +-1) zeros
    k2s = [1.0 + 1e-6, 1.0 - 1e-6]
    near = kn._build_tables(row, [0.0, 0.0], k2s, np.sqrt(k2s), rows=1)
    worst_branch = max(abs(t.coeffs[0, i] - 0.25j) / 0.25
                       for t in near for i in at)
    ok_branch = worst_branch < 1e-4

    passed = ok_table and ok_degenerate and ok_branch
    return _result(
        "kernel-formula", t0, passed,
        f"table vs mp rel {worst:.2e}; degenerate exact {ok_degenerate}; "
        f"branch continuity {worst_branch:.2e}",
    )


def gate_multiplier() -> GateResult:
    """Spectral convolution vs series quadrature on a 16x16 source.

    Targets sit on the midline x2 = 0, where the periodized and free kernels
    coincide for every source in the box, so the comparison isolates the
    multiplier constant.
    """
    t0 = time.time()
    rho, k, alpha = 1.0, 0.9, 0.2
    grid = Grid(n1=16, n2=16, rho_box=rho)
    wave = IncidentWave(k=k, d=(alpha / k, -np.sqrt(1 - (alpha / k) ** 2)))
    xx1, xx2 = grid.mesh()
    g = (bump((xx2 - 0.5) / 0.32) * np.exp(1j * alpha * xx1)
         * np.exp(np.sin(xx1)))
    g[np.abs(g) < 1e-13 * np.abs(g).max()] = 0.0

    out = volume_potential(to_spectral(g, grid, alpha), kernel_table(grid, wave))
    rng = np.random.default_rng(7)
    targets = np.stack(
        [-np.pi + 2 * np.pi * rng.random(20), np.zeros(20)], axis=1
    )
    spec_vals = evaluate(out, targets)
    quad_vals = dense_quadrature_potential(g, grid, alpha, k, targets,
                                           refine=(16, 16))
    rel = float(np.max(np.abs(spec_vals - quad_vals) / np.abs(quad_vals)))
    return _result("multiplier-constant", t0, rel < 1e-6,
                   f"max relative deviation {rel:.2e} over 20 targets")


def gate_pde(level: str = "full") -> GateResult:
    """Finite-difference Helmholtz residual of the volume potential must
    shrink with observed order >= 1.9 under step halving."""
    t0 = time.time()
    sizes = (128, 256, 512) if level == "full" else (128, 256)
    rho, h, k, alpha = 1.0, 0.45, 1.0, 0.3
    wave = IncidentWave(k=k, d=(alpha / k, -np.sqrt(1 - (alpha / k) ** 2)))
    residuals = []
    for n in sizes:
        grid = Grid(n1=n, n2=n, rho_box=rho)
        xx1, xx2 = grid.mesh()
        g = bump(xx2 / h) * np.exp(1j * alpha * xx1) * np.exp(np.sin(xx1))
        w = to_physical(
            volume_potential(to_spectral(g, grid, alpha), kernel_table(grid, wave))
        )
        residuals.append(helmholtz_residual(w, g, k, alpha, grid, margin=h + 0.06))
    orders = [float(np.log2(residuals[i] / residuals[i + 1]))
              for i in range(len(residuals) - 1)]
    passed = all(o >= 1.9 for o in orders)
    return _result("pde-residual", t0, passed,
                   f"residuals {['%.2e' % r for r in residuals]}, "
                   f"orders {['%.3f' % o for o in orders]}")


# frozen acceptance slab: q = 3, thickness one period, k = one per period,
# normal incidence; box sized so the faces sit midway between grid rows
SLAB_K = 1.0 / PERIOD
SLAB_H = np.pi


def slab_box_ratio(n: int) -> float:
    """rho_box / SLAB_H that puts the slab faces midway between the rows of
    an n-row grid, which keeps the pointwise-sampled interface error at its
    measured minimum: 256 / 113.5 at n = 256."""
    return n / (round(n / 2.2555 - 0.5) + 0.5)


SLAB_RATIO_256 = slab_box_ratio(256)


def _solve_slab(q, n1, n2, ratio, rel_tol=1e-10, theta_deg=0.0):
    wave = IncidentWave.from_angle(SLAB_K, theta_deg)
    contrast = slab_contrast(q, 2 * SLAB_H)
    grid = Grid(n1=n1, n2=n2, rho_box=ratio * SLAB_H)
    problem = build_problem(wave, contrast, grid)
    table = kernel_table(grid, wave)
    solution = solve(problem, table, SolveOptions(rel_tol=rel_tol))
    above, below = pp.rayleigh_both_sides(solution, problem, table)
    eff = pp.efficiencies(above, below, problem)
    return problem, table, solution, above, below, eff


def gate_slab(level: str = "full") -> GateResult:
    """Efficiencies of the lossless slab vs the transfer matrix, and the
    energy defects of the positive and negative contrast cases."""
    t0 = time.time()
    if level == "full":
        n, ratio, tol_eff = 256, SLAB_RATIO_256, 1e-3
    else:
        n, ratio, tol_eff = 128, slab_box_ratio(128), 4e-3
    problem, _, sol, _, _, eff = _solve_slab(3.0, n, n, ratio)
    ref = slab_reference(SlabSpec(q=3.0, a=-SLAB_H, b=SLAB_H, k=SLAB_K),
                         rho_ref=problem.rho_ref)
    d_r = abs(eff.reflected[0] - ref.reflectance)
    d_t = abs(eff.transmitted[0] - ref.transmittance)
    defect = pp.energy_balance(eff, problem)
    problem_n, _, _, _, _, eff_n = _solve_slab(-5.0, n, n, ratio)
    defect_n = pp.energy_balance(eff_n, problem_n)
    passed = (d_r < tol_eff and d_t < tol_eff and defect < 1e-6
              and defect_n < 1e-4)
    return _result(
        "slab-physics", t0, passed,
        f"dR={d_r:.2e} dT={d_t:.2e} defect={defect:.1e} "
        f"negative-contrast defect={defect_n:.1e} "
        f"(iterations {sol.iterations})",
    )


# frozen tensor slabs at oblique incidence: tilted positive, negative
# definite, lossy negative definite; each bound is about twice the error
# measured at n2 = 256 (1.5e-4, 2.3e-3, 2.5e-3), which is first order in
# 1/n2 for pointwise sampling
TENSOR_SLABS = (
    ("tilted", np.array([[3.0, 0.8], [0.8, 2.0]]), 4e-4),
    ("negative", np.array([[-3.0, 0.8], [0.8, -5.0]]), 5e-3),
    ("lossy", np.array([[-3.0, 0.4], [0.4, -2.5]]) - 0.3j * np.eye(2), 5e-3),
)


def gate_tensor_slab() -> GateResult:
    """Efficiencies of x1-invariant slabs with full contrast tensors at
    theta = 20 deg vs the tensor transfer matrix, and the energy defects of
    the lossless ones."""
    t0 = time.time()
    passed = True
    parts = []
    for name, q, tol_eff in TENSOR_SLABS:
        problem, _, sol, _, _, eff = _solve_slab(
            q, 16, 256, SLAB_RATIO_256, rel_tol=1e-11, theta_deg=20.0
        )
        ref = slab_reference(SlabSpec(q=q, a=-SLAB_H, b=SLAB_H, k=SLAB_K,
                                      alpha=problem.alpha),
                             rho_ref=problem.rho_ref)
        d_eff = max(abs(eff.reflected[0] - ref.reflectance),
                    abs(eff.transmitted[0] - ref.transmittance))
        passed &= d_eff < tol_eff
        part = f"{name} d={d_eff:.1e}"
        if problem.is_lossless():
            defect = pp.energy_balance(eff, problem)
            passed &= defect < 1e-6
            part += f" defect={defect:.1e}"
        parts.append(f"{part} ({sol.iterations} it)")
    return _result("tensor-slab", t0, passed, "; ".join(parts))


# frozen reciprocal gratings: a tensor circle of radius 0.6 with k = 2.5,
# theta = 15 deg and rho_box 1.3 (box units), where five orders propagate.
# A symmetric Q is reciprocal, so order m reflects as much at alpha as at
# -(alpha + m) (Petit, Electromagnetic Theory of Gratings, ch. 1); the
# discrete problem is not mirror symmetric, so the pair agrees only to the
# discretization error.  Bounds are about twice the error measured for the
# positive and the lossy tensor: 4.2e-5 and 3.8e-5 at 32 x 32 (quick),
# 1.1e-5 and 9.8e-6 at 64 x 64 (full)
RECIPROCAL_Q = np.array([[1.2, 0.4], [0.4, 2.0]])
RECIPROCAL_TENSORS = (("positive", RECIPROCAL_Q),
                      ("lossy", RECIPROCAL_Q - 0.1j * np.eye(2)))
RECIPROCITY_BOUNDS = {"quick": (32, 1e-4), "full": (64, 2.5e-5)}
# reported, not bounded: pointwise sampling leaves the negative-definite
# tensor a first-order error (1.2e-1 at 32 x 32, 2.5e-2 at 64 x 64)
RECIPROCAL_NEGATIVE = np.array([[-3.0, 0.8], [0.8, -5.0]])


def _reflected(q, n: int, alpha: float) -> tuple[float, dict]:
    """The alpha and the reflected efficiency of each propagating order of
    the reciprocity gate's circle of contrast ``q`` on the n x n grid."""
    k = 2.5
    wave = IncidentWave.from_angle(k, np.degrees(np.arcsin(alpha / k)))
    problem = build_problem(wave, circle_contrast(q, 0.6),
                            Grid(n1=n, n2=n, rho_box=1.3))
    table = kernel_table(problem.grid, problem.wave)
    # full GMRES: the negative-definite tensor needs up to 185 iterations
    solution = solve(problem, table, SolveOptions(rel_tol=1e-12,
                                                  restart=500))
    eff = pp.efficiencies(*pp.rayleigh_both_sides(solution, problem, table),
                          problem)
    return problem.alpha, dict(zip(eff.orders, eff.reflected))


def _reciprocity_error(q, n: int) -> float:
    """max over the propagating orders m of |e_m(alpha) - e_m(-alpha - m)|
    for the reciprocity gate's circle of contrast ``q``."""
    alpha, eff = _reflected(q, n, 2.5 * np.sin(np.radians(15.0)))
    return max(abs(e - _reflected(q, n, -alpha - m)[1][m])
               for m, e in eff.items())


def gate_reciprocity(level: str = "full") -> GateResult:
    """Reflected efficiencies of 2-D tensor gratings at alpha and at
    -(alpha + m), for a positive and a lossy tensor; the negative-definite
    tensor is reported alone."""
    t0 = time.time()
    n, bound = RECIPROCITY_BOUNDS[level]
    errors = [(name, _reciprocity_error(q, n))
              for name, q in RECIPROCAL_TENSORS]
    negative = _reciprocity_error(RECIPROCAL_NEGATIVE, n)
    return _result(
        "reciprocity", t0, all(err < bound for _, err in errors),
        f"max |e_m(alpha) - e_m(-alpha-m)| at {n}x{n}: "
        + " ".join(f"{name}={err:.1e}" for name, err in errors)
        + f" (bound {bound:.1e}); negative-definite={negative:.1e} "
        "(reported, not bounded)",
    )


def gate_zero_contrast() -> GateResult:
    """No contrast: zero scattered field and all power in direct transmission."""
    t0 = time.time()
    problem, table, sol, above, below, eff = _solve_slab(
        0.0, 16, 64, SLAB_RATIO_256
    )
    u_norm = sol.u.norm()
    coeff_max = max(
        max(abs(v) for v in above.coefficients.values()),
        max(abs(v) for v in below.coefficients.values()),
    )
    t0_val = eff.transmitted[eff.orders.index(0)]
    others = eff.total_reflected + eff.total_transmitted - t0_val
    passed = (u_norm == 0.0 and coeff_max == 0.0
              and abs(t0_val - 1.0) < 1e-14 and abs(others) < 1e-14)
    return _result(
        "zero-contrast", t0, passed,
        f"|u|={u_norm:.1e} max coeff={coeff_max:.1e} "
        f"|e_t0 - 1|={abs(t0_val - 1.0):.1e}",
    )


def gate_compactness() -> GateResult:
    """Difference of the physical and damped operators must shed singular
    values faster than the physical operator itself."""
    t0 = time.time()
    prof = compactness_indicator(16)
    d_ratio, o_ratio = prof.ratio(15)
    return _result(
        "compactness-indicator", t0, d_ratio < o_ratio,
        f"sigma16/sigma1: difference {d_ratio:.3e} vs operator {o_ratio:.3e}",
    )


def gate_diagnostics() -> GateResult:
    """Exact diagnostic constants: positive-contrast verdict, reflection
    bounds, the Im/Re domination constant."""
    t0 = time.time()
    wave = IncidentWave.from_angle(0.5 / PERIOD, 0.0)
    grid = Grid(n1=16, n2=32, rho_box=2.0)

    prob_pos = build_problem(wave, slab_contrast(3.0, 1.6), grid)
    spec_pos = an.decompose_reQ(prob_pos)
    rep = an.garding_check(prob_pos, spec_pos)
    ok_pos = (rep.conditions[0].name == "positive_definite_contrast"
              and rep.conditions[0].status == "satisfied")

    ok_bounds = (an.reflected_part_bound(1.0) == 2.0 * np.sqrt(2.0)
                 and an.reflected_part_bound(0.0) == np.sqrt(3.0))

    prob_im = build_problem(wave, slab_contrast(3.0 + 4.0j, 1.6), grid)
    c_im = an.im_bound_constant(prob_im)
    ok_im = abs(c_im - 4.0 / 3.0) < 1e-12

    passed = ok_pos and ok_bounds and ok_im
    return _result(
        "diagnostics", t0, passed,
        f"positive verdict {rep.conditions[0].status}; reflection bounds "
        f"exact {ok_bounds}; C - 4/3 = {c_im - 4/3:.2e}",
    )


def gate_rayleigh_routes() -> GateResult:
    """Moment-formula vs line-integral Rayleigh coefficients on the slab.

    Resolution chosen high in x2 so the interface ringing seen differently
    by the two quadratures drops below the target; the box keeps the
    reference line inside the region where the periodized and free kernels
    agree.
    """
    t0 = time.time()
    problem, table, sol, above, below, _ = _solve_slab(
        3.0, 16, 32768, 2.56, rel_tol=1e-12
    )
    worst = 0.0
    for side, data in (("+", above), ("-", below)):
        line = pp.rayleigh_line_integral(sol, problem, side, data.propagating)
        for j in data.propagating:
            worst = max(worst, abs(line[j] - data.order(j)) / abs(data.order(j)))
    return _result("rayleigh-routes", t0, worst < 1e-8,
                   f"max relative route difference {worst:.2e}")


def write_slab_example_config(path, n: int = 256, q: float = 3.0,
                              k: float = 1.0):
    """Write the bundled slab configuration (lengths in period units), its
    box sized by :func:`slab_box_ratio`."""
    rho_box = 0.5 * slab_box_ratio(n)
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


def gate_determinism(tmp_dir) -> GateResult:
    """Two CLI solves of the same config produce byte-identical outputs
    (timestamp metadata excluded)."""
    from .cli import main as cli_main

    t0 = time.time()
    tmp = Path(tmp_dir)
    cfg = tmp / "slab.ini"
    write_slab_example_config(cfg, n=64)
    outputs = []
    for run in ("a", "b"):
        out = tmp / run
        rc = cli_main(["solve", str(cfg), "--output", str(out)])
        if rc != 0:
            return _result("determinism", t0, False, f"solve exited {rc}")
        csv_bytes = (out / "efficiencies.csv").read_bytes()
        json_lines = [
            ln for ln in (out / "result.json").read_text().splitlines()
            if '"timestamp"' not in ln
        ]
        outputs.append((csv_bytes, json_lines))
    passed = outputs[0] == outputs[1]
    return _result("determinism", t0, passed,
                   "byte-identical outputs" if passed else "outputs differ")


def run_gates(level: str = "quick", tmp_dir=None) -> list[GateResult]:
    """The oracle gate suite; `full` runs acceptance-grade sizes."""
    results = [
        gate_kernel_formula(16 if level == "quick" else 64),
        gate_multiplier(),
        gate_pde(level),
        gate_slab(level),
        gate_zero_contrast(),
        gate_compactness(),
        gate_diagnostics(),
        gate_tensor_slab(),
        gate_reciprocity(level),
    ]
    if level == "full":
        results.append(gate_rayleigh_routes())
        if tmp_dir is not None:
            results.append(gate_determinism(tmp_dir))
    return results
