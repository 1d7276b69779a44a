"""Run-configuration files: strict INI parsing and unit conversion.

Configs use human units: angles in degrees and all lengths (slab thickness,
box heights, 1/wavenumber) in units of the grating period.  The math core
works on the 2*pi-periodic cell, so lengths scale by 2*pi and wavenumbers
by 1/(2*pi) on the way in.  Unknown keys and missing required keys are
rejected before any computation starts.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace

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

PERIOD = 2 * np.pi

_SHAPE_KEYS = {
    "slab": {"thickness"},
    "circle": {"radius", "center_x2"},
    "rectangle": {"width", "height"},
    "two_layer": {"thickness1", "thickness2"},
    "raster": {"path"},
}
_SCALAR_Q = {"q_re", "q_im"}
_MATRIX_Q = {"q11_re", "q11_im", "q12_re", "q12_im", "q22_re", "q22_im"}
_LAYER_Q = {"q1_re", "q1_im", "q2_re", "q2_im"}
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
    shape: str
    shape_params: dict
    contrast_values: dict
    n1: int
    n2: int
    rho_box_period: float | None
    rel_tol: float
    max_iterations: int
    restart: int
    output_directory: str

    def wave(self) -> IncidentWave:
        return IncidentWave.from_angle(self.k_period / PERIOD, self.theta_deg)

    def contrast(self) -> ContrastField:
        q = self.contrast_values
        if self.shape == "slab":
            return slab_contrast(
                q["matrix"], PERIOD * self.shape_params["thickness"]
            )
        if self.shape == "circle":
            return circle_contrast(
                q["matrix"], PERIOD * self.shape_params["radius"],
                center_x2=PERIOD * self.shape_params.get("center_x2", 0.0),
            )
        if self.shape == "rectangle":
            return rectangle_contrast(
                q["matrix"], PERIOD * self.shape_params["width"],
                PERIOD * self.shape_params["height"],
            )
        if self.shape == "two_layer":
            return two_layer_contrast(
                q["q1"], q["q2"],
                PERIOD * self.shape_params["thickness1"],
                PERIOD * self.shape_params["thickness2"],
            )
        if self.shape == "raster":
            return raster_contrast(self.shape_params["path"])
        raise ConfigError(f"unknown shape {self.shape!r}")

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


def _getint(sec, key, where, default=None):
    if key not in sec:
        if default is None:
            raise ConfigError(f"missing key {key!r} in [{where}]")
        return default
    try:
        return int(sec[key])
    except ValueError:
        raise ConfigError(f"key {key!r} in [{where}] is not an integer") from None


def _read(parser: configparser.ConfigParser, path) -> list:
    """``parser.read(path)``; a malformed file raises ConfigError naming the
    file and the offending line."""
    try:
        return parser.read(path)
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
        raise ConfigError(f"malformed config file {where}: {cause}") from None


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

    if shape == "two_layer":
        q_allowed = _LAYER_Q
    elif shape == "raster":
        q_allowed = set()
    else:
        q_allowed = _SCALAR_Q | _MATRIX_Q
    allowed = _PROBLEM_BASE | _SHAPE_KEYS[shape] | q_allowed
    unknown = set(prob.keys()) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in [problem]: {sorted(unknown)}")

    contrast_values: dict = {}
    if shape == "two_layer":
        contrast_values["q1"] = complex(
            _getfloat(prob, "q1_re", "problem"),
            _getfloat(prob, "q1_im", "problem", 0.0),
        )
        contrast_values["q2"] = complex(
            _getfloat(prob, "q2_re", "problem"),
            _getfloat(prob, "q2_im", "problem", 0.0),
        )
    elif shape != "raster":
        has_scalar = any(k in prob for k in _SCALAR_Q)
        has_matrix = any(k in prob for k in _MATRIX_Q)
        if has_scalar and has_matrix:
            raise ConfigError(
                "give either scalar q_re/q_im or the matrix q11_*/q12_*/q22_*"
            )
        if has_scalar:
            contrast_values["matrix"] = complex(
                _getfloat(prob, "q_re", "problem"),
                _getfloat(prob, "q_im", "problem", 0.0),
            )
        elif has_matrix:
            m = np.zeros((2, 2), dtype=complex)
            m[0, 0] = complex(_getfloat(prob, "q11_re", "problem"),
                              _getfloat(prob, "q11_im", "problem", 0.0))
            m[0, 1] = m[1, 0] = complex(
                _getfloat(prob, "q12_re", "problem", 0.0),
                _getfloat(prob, "q12_im", "problem", 0.0),
            )
            m[1, 1] = complex(_getfloat(prob, "q22_re", "problem"),
                              _getfloat(prob, "q22_im", "problem", 0.0))
            contrast_values["matrix"] = m
        else:
            raise ConfigError("missing contrast entries (q_re or q11_re/...)")

    shape_params = {}
    for key in _SHAPE_KEYS[shape]:
        if key == "path":
            if "path" not in prob:
                raise ConfigError("raster shape requires 'path'")
            shape_params["path"] = prob["path"]
        elif key == "center_x2":
            shape_params[key] = _getfloat(prob, key, "problem", 0.0)
        else:
            shape_params[key] = _getfloat(prob, key, "problem")

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
        shape=shape,
        shape_params=shape_params,
        contrast_values=contrast_values,
        n1=_getint(num, "n1", "numerics"),
        n2=_getint(num, "n2", "numerics"),
        rho_box_period=(_getfloat(num, "rho_box", "numerics")
                        if "rho_box" in num else None),
        rel_tol=_getfloat(num, "rel_tol", "numerics", 1e-8),
        max_iterations=_getint(num, "max_iterations", "numerics", 500),
        restart=_getint(num, "restart", "numerics", 50),
        output_directory=out_dir,
    )
