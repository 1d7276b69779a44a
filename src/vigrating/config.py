"""Run-configuration files: strict INI parsing and unit conversion.

Configs use human units: angles in degrees and all lengths (slab thickness,
box heights, 1/wavenumber) in units of the grating period.  The math core
works on the 2*pi-periodic cell, so lengths scale by 2*pi and wavenumbers
by 1/(2*pi) on the way in.  A config is read as UTF-8.

``[problem]`` holds ``k``, ``theta_deg``, ``shape`` and the keys of that
shape (``_SHAPE_KEYS``): ``thickness`` (slab), ``radius`` and optional
``center_x2`` (circle), ``width`` and ``height`` (rectangle), each with a
scalar ``q_re``/``q_im`` or a matrix ``q11_*``/``q12_*``/``q22_*``;
``thickness1``, ``thickness2``, ``q1_*`` and ``q2_*`` (two_layer); ``path``
(raster; a relative path is read from the config file's directory).
:func:`load_config` parses a shape's keys in that order and binds the one
call that builds its contrast, which :meth:`RunConfig.contrast` makes.

Unknown keys and missing required keys are rejected before any
computation starts.  Whatever the hash seed, the first failing check
names the error, in this order: the file (unreadable, not UTF-8 or not
INI), its sections, the shape, unknown [problem] keys, the contrast
entries, the sizes, unknown [numerics] and [output] keys, then ``k``,
``theta_deg`` and the numerics in the order written in :func:`load_config`.
"""

from __future__ import annotations

import configparser
import os
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import ConfigError
from .problem import (
    ContrastField,
    Grid,
    IncidentWave,
    Problem,
    build_problem,
    circle_contrast,
    raster_contrast,
    rectangle_contrast,
    slab_contrast,
    two_layer_contrast,
)
from .solver import SolveOptions

PERIOD = 2 * np.pi

_SCALAR_Q = {"q_re", "q_im"}
_MATRIX_Q = {"q11_re", "q11_im", "q12_re", "q12_im", "q22_re", "q22_im"}
_LAYER_Q = {"q1_re", "q1_im", "q2_re", "q2_im"}
# the [problem] keys of each shape besides k, theta_deg and shape
_SHAPE_KEYS = {
    "slab": {"thickness", *_SCALAR_Q, *_MATRIX_Q},
    "circle": {"radius", "center_x2", *_SCALAR_Q, *_MATRIX_Q},
    "rectangle": {"width", "height", *_SCALAR_Q, *_MATRIX_Q},
    "two_layer": {"thickness1", "thickness2", *_LAYER_Q},
    "raster": {"path"},
}
_PROBLEM_BASE = {"k", "theta_deg", "shape"}
_NUMERICS_KEYS = {"n1", "n2", "rho_box", "rel_tol", "max_iterations",
                  "restart"}
_OUTPUT_KEYS = {"directory"}

# the parameters a sweep varies, each with the RunConfig field it sets
SWEEP_PARAMETERS = {"k": "k_period", "theta": "theta_deg"}


@dataclass(frozen=True)
class RunConfig:
    k_period: float
    theta_deg: float
    # builds the contrast on each call, so that loading a config reads no
    # raster and checks no geometry
    make_contrast: Callable[[], ContrastField]
    n1: int
    n2: int
    rho_box_period: float | None
    # builds the GMRES options where a command first solves, so that a
    # bad option fails as that command's problem does
    options: Callable[[], SolveOptions]
    output_directory: str

    def wave(self) -> IncidentWave:
        return IncidentWave.from_angle(self.k_period / PERIOD, self.theta_deg)

    def contrast(self) -> ContrastField:
        return self.make_contrast()

    def grid(self, contrast: ContrastField) -> Grid:
        if self.rho_box_period is not None:
            rho = PERIOD * self.rho_box_period
        elif contrast.h > 0:
            rho = 2 * contrast.h
        else:
            raise ConfigError(
                "rho_box must be given explicitly for a zero-height contrast"
            )
        return Grid(n1=self.n1, n2=self.n2, rho_box=rho)

    def build(self) -> Problem:
        contrast = self.contrast()
        return build_problem(self.wave(), contrast, self.grid(contrast))

    def replace_parameter(self, name: str, value: float) -> "RunConfig":
        """New config with the sweep parameter ``name`` replaced."""
        if name not in SWEEP_PARAMETERS:
            raise ConfigError(
                "sweep parameter must be "
                + " or ".join(map(repr, SWEEP_PARAMETERS)) + f", got {name!r}")
        return replace(self, **{SWEEP_PARAMETERS[name]: value})


def _getfloat(sec, key, where, default=None):
    """A finite float; ``default`` (when given) stands in for a missing key."""
    if key not in sec and default is not None:
        return default
    try:
        value = float(sec[key])
    except KeyError:
        raise ConfigError(f"missing key {key!r} in [{where}]") from None
    except ValueError:
        raise ConfigError(f"key {key!r} in [{where}] is not a number") from None
    if not np.isfinite(value):
        raise ConfigError(f"key {key!r} in [{where}] must be finite, "
                          f"got {sec[key]!r}")
    return value


def _getcomplex(sec, name, where, default=None):
    """``name_re`` + i ``name_im``; ``default`` stands in for a missing
    ``name_re`` and 0 for a missing ``name_im``."""
    return complex(_getfloat(sec, f"{name}_re", where, default),
                   _getfloat(sec, f"{name}_im", where, 0.0))


def _getint(sec, key, where, default=None):
    if key not in sec:
        if default is None:
            raise ConfigError(f"missing key {key!r} in [{where}]")
        return default
    try:
        return int(sec[key])
    except ValueError:
        raise ConfigError(f"key {key!r} in [{where}] is not an integer") from None


def _one_contrast(prob):
    """The scalar q, or the symmetric matrix of q11, q12 and q22, of a
    shape of one material."""
    has_scalar = any(k in prob for k in _SCALAR_Q)
    has_matrix = any(k in prob for k in _MATRIX_Q)
    if has_scalar and has_matrix:
        raise ConfigError(
            "give either scalar q_re/q_im or the matrix q11_*/q12_*/q22_*"
        )
    if has_scalar:
        return _getcomplex(prob, "q", "problem")
    if not has_matrix:
        raise ConfigError("missing contrast entries (q_re or q11_re/...)")
    q11 = _getcomplex(prob, "q11", "problem")
    q12 = _getcomplex(prob, "q12", "problem", 0.0)
    q22 = _getcomplex(prob, "q22", "problem")
    return np.array([[q11, q12], [q12, q22]])


def _read(parser: configparser.ConfigParser, path) -> list:
    """``parser.read(path)`` as UTF-8; a malformed file raises ConfigError
    naming the file and the offending line or byte."""
    line = None
    try:
        return parser.read(path, encoding="utf-8")
    except UnicodeDecodeError as exc:
        cause = str(exc)                        # the byte and its position
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        if isinstance(exc, configparser.DuplicateOptionError):
            cause = f"key {exc.option!r} given twice in [{exc.section}]"
        elif isinstance(exc, configparser.DuplicateSectionError):
            cause = f"section [{exc.section}] given twice"
        elif isinstance(exc, configparser.MissingSectionHeaderError):
            cause = "a key before the first [section] header"
        elif isinstance(exc, configparser.ParsingError):
            line = exc.errors[0][0]
            cause = "neither a [section] header nor a 'key = value' line"
        else:
            cause = str(exc)
    where = f"{path}, line {line}" if line else f"{path}"
    raise ConfigError(f"malformed config file {where}: {cause}")


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";", "#"))
    read = _read(parser, path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    unknown_sections = set(parser.sections()) - {"problem", "numerics", "output"}
    if unknown_sections:
        raise ConfigError(f"unknown config sections: {sorted(unknown_sections)}")
    for required in ("problem", "numerics"):
        if not parser.has_section(required):
            raise ConfigError(f"missing [{required}] section")

    prob = parser["problem"]
    shape = prob.get("shape")
    if shape not in _SHAPE_KEYS:
        raise ConfigError(
            f"shape must be one of {sorted(_SHAPE_KEYS)}, got {shape!r}"
        )
    unknown = set(prob.keys()) - _PROBLEM_BASE - _SHAPE_KEYS[shape]
    if unknown:
        raise ConfigError(f"unknown keys in [problem]: {sorted(unknown)}")

    def size(key, default=None):
        return PERIOD * _getfloat(prob, key, "problem", default)

    # the contrast entries, then the sizes in the order they are written
    if shape == "raster":
        if "path" not in prob:
            raise ConfigError("raster shape requires 'path'")
        # a relative path is read from the config file's directory
        make_contrast = partial(raster_contrast, os.path.join(
            os.path.dirname(path), prob["path"]))
    elif shape == "two_layer":
        q1 = _getcomplex(prob, "q1", "problem")
        q2 = _getcomplex(prob, "q2", "problem")
        make_contrast = partial(two_layer_contrast, q1, q2,
                                size("thickness1"), size("thickness2"))
    elif shape == "slab":
        make_contrast = partial(slab_contrast, _one_contrast(prob),
                                size("thickness"))
    elif shape == "circle":
        make_contrast = partial(circle_contrast, _one_contrast(prob),
                                size("radius"),
                                center_x2=size("center_x2", 0.0))
    else:
        make_contrast = partial(rectangle_contrast, _one_contrast(prob),
                                size("width"), size("height"))

    num = parser["numerics"]
    unknown = set(num.keys()) - _NUMERICS_KEYS
    if unknown:
        raise ConfigError(f"unknown keys in [numerics]: {sorted(unknown)}")

    out_dir = "out"
    if parser.has_section("output"):
        out = parser["output"]
        unknown = set(out.keys()) - _OUTPUT_KEYS
        if unknown:
            raise ConfigError(f"unknown keys in [output]: {sorted(unknown)}")
        out_dir = out.get("directory", "out")

    return RunConfig(
        k_period=_getfloat(prob, "k", "problem"),
        theta_deg=_getfloat(prob, "theta_deg", "problem"),
        make_contrast=make_contrast,
        n1=_getint(num, "n1", "numerics"),
        n2=_getint(num, "n2", "numerics"),
        rho_box_period=(_getfloat(num, "rho_box", "numerics")
                        if "rho_box" in num else None),
        options=partial(
            SolveOptions,
            rel_tol=_getfloat(num, "rel_tol", "numerics",
                              SolveOptions.rel_tol),
            max_iterations=_getint(num, "max_iterations", "numerics",
                                   SolveOptions.max_iterations),
            restart=_getint(num, "restart", "numerics", SolveOptions.restart)),
        output_directory=out_dir,
    )
