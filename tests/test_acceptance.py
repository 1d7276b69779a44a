"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every gate encapsulates its frozen configuration and tolerance.
"""

import dataclasses
import inspect

import vigrating.kernel
import vigrating.validate
from vigrating.validate import (
    gate_compactness,
    gate_determinism,
    gate_diagnostics,
    gate_kernel_formula,
    gate_multiplier,
    gate_pde,
    gate_rayleigh_routes,
    gate_reciprocity,
    gate_slab,
    gate_tensor_slab,
    gate_zero_contrast,
)


def _check(result, runtime_budget):
    print(result.line())
    assert result.passed, result.details
    assert result.elapsed < runtime_budget, (
        f"{result.name} took {result.elapsed:.1f}s, budget {runtime_budget}s"
    )


def test_criterion_1_kernel_formula():
    _check(gate_kernel_formula(64), runtime_budget=1.0)


def test_the_kernel_formula_gate_checks_the_table_the_solver_runs(
        monkeypatch):
    # a table whose limit branch is off by 1e-3 must fail the gate
    build = vigrating.kernel._build_tables

    def off_limit(grid, alpha, k_squared, k, rows=None):
        j1 = grid.j1_modes()[:rows].tolist()
        j2 = grid.j2_modes().tolist()
        tables = []
        for table in build(grid, alpha, k_squared, k, rows):
            coeffs = table.coeffs.copy()
            for m1, m2 in table.degenerate_modes:
                coeffs[j1.index(m1), j2.index(m2)] *= 1 + 1e-3
            tables.append(dataclasses.replace(table, coeffs=coeffs))
        return tables

    monkeypatch.setattr(vigrating.kernel, "_build_tables", off_limit)
    result = gate_kernel_formula(16)
    assert not result.passed
    assert "degenerate exact False" in result.details


def test_criterion_2_multiplier_constant():
    _check(gate_multiplier(), runtime_budget=30.0)


def test_criterion_3_pde_residual():
    _check(gate_pde("full"), runtime_budget=120.0)


def test_criterion_4_slab_physics():
    _check(gate_slab("full"), runtime_budget=240.0)


def test_criterion_5_zero_contrast():
    _check(gate_zero_contrast(), runtime_budget=5.0)


def test_criterion_6_compactness_indicator():
    _check(gate_compactness(), runtime_budget=60.0)


def test_criterion_7_diagnostics():
    _check(gate_diagnostics(), runtime_budget=5.0)


def test_criterion_8_rayleigh_routes():
    _check(gate_rayleigh_routes(), runtime_budget=30.0)


def test_criterion_9_determinism(tmp_path):
    result = gate_determinism(tmp_path)
    print(result.line())
    assert result.passed, result.details


def test_criterion_10_tensor_slab():
    _check(gate_tensor_slab(), runtime_budget=10.0)


def test_criterion_11_reciprocity():
    _check(gate_reciprocity("full"), runtime_budget=10.0)


def test_every_gate_has_a_criterion():
    # by name only: a gate defined in validate but not imported here has no
    # acceptance test
    defined = {
        name for name, fn in inspect.getmembers(vigrating.validate,
                                                inspect.isfunction)
        if name.startswith("gate_") and fn.__module__ == "vigrating.validate"
    }
    imported = {name for name in globals() if name.startswith("gate_")}
    assert defined - imported == set()
