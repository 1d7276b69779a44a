"""The README's "Library use" example is the user-facing form of the
library API, so it must run as written."""

import re
from pathlib import Path

import numpy as np

from vigrating.oracle import SlabSpec, slab_reference
from vigrating.postprocess import energy_balance
from vigrating.solver import residual

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    """The first ``python`` block of the README's "Library use" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under '## Library use'"
    return block.group(1)


def test_the_library_example_runs(capsys):
    names: dict = {}
    exec(compile(_library_example(), str(README), "exec"), names)
    problem, solution, eff = names["problem"], names["solution"], names["eff"]
    assert solution.converged
    assert len(capsys.readouterr().out.splitlines()) == 2
    # the one-period q = 3 slab against its transfer matrix, to the
    # accuracy of the 256-row grid, with lossless energy balance
    ref = slab_reference(SlabSpec(q=3.0, a=-np.pi, b=np.pi,
                                  k=1.0 / (2 * np.pi)),
                         rho_ref=problem.rho_ref)
    assert abs(eff.reflected[0] - ref.reflectance) < 2e-3
    assert energy_balance(eff, problem) < 1e-6
    assert residual(solution) < 1e-8
