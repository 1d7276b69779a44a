"""Every message a bad config fails with, in its documented precedence."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vigrating.config import load_config
from vigrating.errors import ConfigError
from vigrating.problem import write_raster

SLAB = "k = 1.0\ntheta_deg = 0.0\nshape = slab\nq_re = 3.0\nthickness = 1.0\n"
NUMERICS = "n1 = 32\nn2 = 64\nrho_box = 1.1277533039647577\n"


def _text(problem=SLAB, numerics=NUMERICS, output="directory = o\n",
          extra=""):
    """A config of the given section bodies; a section given as None is
    left out."""
    sections = (("problem", problem), ("numerics", numerics),
                ("output", output))
    return "".join(f"[{name}]\n{body}\n" for name, body in sections
                   if body is not None) + extra


def _problem(shape_lines):
    return "k = 1.0\ntheta_deg = 0.0\n" + shape_lines


# (config text, message); {path} is the config file, {raster} a raster of
# zero height
CASES = {
    "not-a-key-line": (_text(SLAB + "just words\n"),
                       "malformed config file {path}, line 7: neither a "
                       "[section] header nor a 'key = value' line"),
    "unreadable": (None, "cannot read config file {path}"),
    "unknown-section": (_text(extra="[mystery]\nx = 1\n"),
                        "unknown config sections: ['mystery']"),
    "missing-problem": (_text(problem=None), "missing [problem] section"),
    "missing-numerics": (_text(numerics=None), "missing [numerics] section"),
    "unknown-shape": (_text(_problem("shape = hexagon\nq_re = 3.0\n")),
                      "shape must be one of ['circle', 'raster', "
                      "'rectangle', 'slab', 'two_layer'], got 'hexagon'"),
    "no-shape": (_text(_problem("q_re = 3.0\n")),
                 "shape must be one of ['circle', 'raster', 'rectangle', "
                 "'slab', 'two_layer'], got None"),
    "unknown-problem-key": (_text(SLAB + "typo_key = 1\n"),
                            "unknown keys in [problem]: ['typo_key']"),
    "layer-key-on-a-slab": (_text(SLAB + "q1_re = 2.0\n"),
                            "unknown keys in [problem]: ['q1_re']"),
    "contrast-on-a-raster": (_text(_problem(
        "shape = raster\npath = r.bin\nq_re = 2.0\n")),
        "unknown keys in [problem]: ['q_re']"),
    "unknown-numerics-key": (_text(numerics=NUMERICS + "dealias = true\n"),
                             "unknown keys in [numerics]: ['dealias']"),
    "unknown-output-key": (_text(output="directory = o\ncolour = red\n"),
                           "unknown keys in [output]: ['colour']"),
    "scalar-and-matrix": (_text(SLAB + "q11_re = 1.0\n"),
                          "give either scalar q_re/q_im or the matrix "
                          "q11_*/q12_*/q22_*"),
    "no-contrast": (_text(_problem("shape = slab\nthickness = 1.0\n")),
                    "missing contrast entries (q_re or q11_re/...)"),
    "matrix-without-q22": (_text(_problem(
        "shape = slab\nq11_re = 1.0\nthickness = 1.0\n")),
        "missing key 'q22_re' in [problem]"),
    "layer-without-q2": (_text(_problem(
        "shape = two_layer\nq1_re = 1.0\nthickness1 = 0.1\n"
        "thickness2 = 0.2\n")), "missing key 'q2_re' in [problem]"),
    "raster-without-path": (_text(_problem("shape = raster\n")),
                            "raster shape requires 'path'"),
    "missing-size": (_text(_problem("shape = slab\nq_re = 3.0\n")),
                     "missing key 'thickness' in [problem]"),
    "missing-k": (_text("theta_deg = 0.0\nshape = slab\nq_re = 3.0\n"
                        "thickness = 1.0\n"),
                  "missing key 'k' in [problem]"),
    "missing-n1": (_text(numerics="n2 = 64\n"),
                   "missing key 'n1' in [numerics]"),
    "size-not-a-number": (_text(SLAB.replace("1.0\n", "thick\n")),
                          "key 'thickness' in [problem] is not a number"),
    "contrast-not-a-number": (_text(SLAB.replace("3.0", "three")),
                              "key 'q_re' in [problem] is not a number"),
    "k-not-a-number": (_text(SLAB.replace("k = 1.0", "k = one")),
                       "key 'k' in [problem] is not a number"),
    "rel-tol-not-a-number": (_text(numerics=NUMERICS + "rel_tol = tiny\n"),
                             "key 'rel_tol' in [numerics] is not a number"),
    "n1-not-an-integer": (_text(numerics=NUMERICS.replace("32", "32.5")),
                          "key 'n1' in [numerics] is not an integer"),
    "restart-not-an-integer": (_text(numerics=NUMERICS + "restart = many\n"),
                               "key 'restart' in [numerics] is not an "
                               "integer"),
    "zero-height-without-rho-box": (
        _text(_problem("shape = raster\npath = {raster}\n"),
              numerics="n1 = 8\nn2 = 8\n"),
        "rho_box must be given explicitly for a zero-height contrast"),
    # the precedence: [problem] keys, contrast entries, sizes, then the
    # [numerics] and [output] keys, then the wave and the numbers
    "contrast-before-size": (
        _text(_problem("shape = slab\nq_re = three\nthickness = thick\n")),
        "key 'q_re' in [problem] is not a number"),
    "size-before-numerics": (
        _text(SLAB.replace("1.0\n", "thick\n"),
              numerics=NUMERICS + "dealias = true\n"),
        "key 'thickness' in [problem] is not a number"),
    "numerics-before-output": (
        _text(numerics=NUMERICS + "dealias = true\n",
              output="colour = red\n"),
        "unknown keys in [numerics]: ['dealias']"),
    "output-before-k": (
        _text(SLAB.replace("k = 1.0", "k = one"), output="colour = red\n"),
        "unknown keys in [output]: ['colour']"),
}


@pytest.mark.parametrize("case", CASES)
def test_every_config_error_message(tmp_path, case):
    text, message = CASES[case]
    raster = tmp_path / "flat.bin"
    write_raster(raster, np.zeros((1, 1, 2, 2), complex), h=0.0, rho=1.0)
    path = tmp_path / "c.ini"
    if text is not None:
        path.write_text(text.format(raster=raster), encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(path).build()
    assert str(err.value) == message.format(path=path)


@pytest.mark.parametrize("shape, lines, first", [
    ("rectangle", "q_re = 3.0\nwidth = abc\nheight = xyz", "width"),
    ("circle", "q_re = 3.0\nradius = abc\ncenter_x2 = xyz", "radius"),
    ("two_layer", "q1_re = 1.0\nq2_re = 2.0\nthickness1 = abc\n"
     "thickness2 = xyz", "thickness1"),
], ids=["rectangle", "circle", "two_layer"])
def test_the_first_bad_size_is_named_under_every_hash_seed(tmp_path, shape,
                                                           lines, first):
    path = tmp_path / "c.ini"
    path.write_text(_text(_problem(f"shape = {shape}\n{lines}\n")),
                    encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    for seed in ("0", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-m", "vigrating.cli", "solve", str(path),
             "--output", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 3
        assert f"key '{first}' in [problem] is not a number" in run.stderr
