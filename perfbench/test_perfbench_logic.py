"""Tests of the benchmark's own logic on tiny inputs (no solver runs).

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import TARGETS, Tracer, self_times, span_metrics  # noqa: E402
from stats import Tally, tail_percentile  # noqa: E402


# -- tail percentile: highest percentile with >= 10 samples beyond it -------

@pytest.mark.parametrize("n, p", [(21, 52), (25, 60), (100, 90), (1000, 99),
                                  (100000, 99)])
def test_tail_percentile_leaves_ten_samples_beyond(n, p):
    samples = [float(i) for i in range(n)][::-1]
    got_p, value = tail_percentile(samples)
    assert got_p == p
    assert sum(1 for x in samples if x > value) >= 10
    assert sum(1 for x in samples if x >= value) > 10


@pytest.mark.parametrize("n", [1, 10, 20])
def test_tail_percentile_needs_more_than_twenty_samples(n):
    assert tail_percentile([1.0] * n) is None


# -- self time --------------------------------------------------------------

def _span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_children_once():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("solver.gmres", 1.0, 7.0, 0),
        _span("operators.apply_forward", 2.0, 3.0, 1),
        _span("operators.apply_forward", 4.0, 6.0, 1),
        _span("postprocess.rayleigh_coefficients", 8.0, 9.5, 0),
    ]
    assert self_times(spans) == pytest.approx([2.5, 3.0, 1.0, 2.0, 1.5])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [_span("a.f", 0.0, 10.0), _span("b.g", 1.0, 5.0, 0),
             _span("b.g", 3.0, 8.0, 0), _span("b.g", 9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_span_metrics_sum_layers_and_counts():
    spans = [
        _span("solver.gmres", 0.0, 5.0),
        _span("operators.apply_forward", 1.0, 2.0, 0),
        _span("operators.to_physical", 1.2, 1.5, 1),
    ]
    spans[0].update(iterations=7, restarts=1, basis_bytes=160)
    m = span_metrics([spans, spans])
    assert m["solver.gmres_self_s"] == pytest.approx(8.0)
    assert m["operators.self_s"] == pytest.approx(2.0)
    assert m["operators.matvecs"] == 2
    assert m["operators.fft_calls"] == 2
    assert m["solver.iterations"] == 14
    assert m["solver.krylov_basis_bytes"] == 160
    assert m["analysis.garding_check_s"] == 0


def test_missing_function_removes_only_its_metrics():
    m = span_metrics([[]], missing={"operators.to_spectral"})
    assert "operators.fft_s" not in m and "operators.fft_calls" not in m
    assert "operators.matvecs" in m and "operators.self_s" in m
    m = span_metrics([[]], missing={"analysis.garding_check",
                                    "analysis.decompose_reQ"})
    assert "analysis.self_s" not in m


def test_tracer_wraps_every_binding_and_reads_counts(monkeypatch):
    def gmres(matvec, b, rel_tol=1e-8, restart=50, max_iterations=500):
        return None, [], True, 120

    solver = types.ModuleType("pkg.solver")
    solver.gmres = gmres
    cli = types.ModuleType("pkg.cli")
    cli.gmres = gmres          # a name bound by "from .solver import gmres"
    for name, module in (("pkg", types.ModuleType("pkg")),
                         ("pkg.solver", solver), ("pkg.cli", cli)):
        monkeypatch.setitem(sys.modules, name, module)

    hook = next(h for m, f, h in TARGETS if (m, f) == ("solver", "gmres"))
    tracer = Tracer()
    tracer.install("pkg", targets=(("solver", "gmres", hook),
                                   ("solver", "renamed", None)))
    assert cli.gmres is solver.gmres is not gmres
    cli.gmres(None, types.SimpleNamespace(size=4))
    tracer.uninstall()
    assert cli.gmres is gmres
    (span,) = tracer.take()
    assert (span["iterations"], span["restarts"]) == (120, 2)
    assert span["basis_bytes"] == 51 * 4 * 16
    assert tracer.missing == {"solver.renamed"}


# -- failure counting -------------------------------------------------------

def test_tally_counts_an_operation_once_however_many_checks_fail():
    tally = Tally()
    assert tally.operation("a", [None, None])
    assert not tally.operation("b", ["exit code 3", "no output"])
    assert not tally.operation("c", ["sweep point missing"])
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.fail_frac == pytest.approx(2 / 3)
    assert len(tally.problems) == 3


def test_check_solve_flags_a_wrong_slab(tmp_path):
    config = tmp_path / "slab.ini"
    config.write_text("[problem]\nk = 1.0\ntheta_deg = 0.0\nshape = slab\n"
                      "q_re = 3.0\nthickness = 1.0\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    (out / "efficiencies.csv").write_text("", encoding="utf-8")
    reference = run.slab_reflectance(config)

    def write(e_refl, defect, converged=True, residual=1e-11):
        (out / "result.json").write_text(json.dumps({
            "metadata": {"converged": converged, "lossless": True,
                         "energy_defect": defect, "theta_deg": 0.0,
                         "relative_residual": residual},
            "orders": [{"j": 0, "e_refl": e_refl}],
        }), encoding="utf-8")

    errs = []
    write(reference + 1e-4, 1e-11)
    assert run.check_solve(out, config, errs, max_residual=1e-10) == []
    write(reference + 0.1, 1e-3, converged=False, residual=1e-9)
    assert len(run.check_solve(out, config, errs)) == 3
    assert len(run.check_solve(out, config, errs, max_residual=1e-10)) == 4
    assert errs == pytest.approx([1e-4, 0.1, 0.1])


# -- the seed's effect on the inputs ----------------------------------------

def test_seed_zero_runs_the_cases_as_written():
    assert run.cli_mix_order(0, 3) == list(run.CLI_MIX)
    assert run.sweep_range(0) == (0.0, 40.0)
    configs = run.neg_circle_configs(0)
    assert "theta_deg = 10.0\n" in configs["restart-1000"]
    assert "restart = 1000" in configs["restart-1000"]
    assert "restart" not in configs["default-restart"]


def test_other_seeds_shuffle_and_nudge_reproducibly():
    orders = {tuple(run.cli_mix_order(s, c)) for s in range(1, 6) for c in range(3)}
    assert len(orders) > 1
    assert all(sorted(o) == sorted(run.CLI_MIX) for o in orders)
    assert run.cli_mix_order(4, 2) == run.cli_mix_order(4, 2)
    for seed in range(1, 20):
        nudge = run.theta_nudge(seed)
        assert 0.0 < nudge < 0.5
        assert run.theta_nudge(seed) == nudge
        assert run.sweep_range(seed) == (nudge, 40.0 + nudge)
    assert run.theta_nudge(1) != run.theta_nudge(2)
