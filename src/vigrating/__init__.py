"""TM-polarized scattering from 2*pi-periodic anisotropic gratings via a
quasi-periodic volume integral equation with FFT-accelerated operators."""

from .errors import (
    BreakdownDetected,
    ConfigError,
    GeometryError,
    GeometryNotGraph,
    NonSymmetric,
    NotConverged,
    RayleighAnomaly,
    ShapeMismatch,
    SingularReQ,
    SizeGuard,
    SlowConvergence,
    VigratingError,
)
from .kernel import (
    KernelTable,
    greens_series,
    helmholtz_symbol,
    kernel_table,
    reference_table,
)
from .operators import (
    SpectralField,
    VectorSpectralField,
    apply_forward,
    assemble_dense,
    div_potential,
    evaluate,
    grad_spectral,
    to_physical,
    to_spectral,
    volume_potential,
)
from .postprocess import (
    EfficiencyTable,
    RayleighData,
    efficiencies,
    energy_balance,
    rayleigh_both_sides,
    rayleigh_coefficients,
    rayleigh_line_integral,
    scattered_field_at,
)
from .problem import (
    ContrastField,
    ContrastLayout,
    Grid,
    IncidentWave,
    Problem,
    build_problem,
    circle_contrast,
    incident_field,
    raster_contrast,
    rectangle_contrast,
    slab_contrast,
    two_layer_contrast,
)
from .solver import SolveOptions, Solution, assemble_rhs, gmres, residual, solve

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
