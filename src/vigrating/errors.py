"""Exception types raised by the solver library."""


class VigratingError(Exception):
    """Base class for all library errors."""


class ConfigError(VigratingError):
    """Invalid or incomplete run configuration."""


class GeometryError(VigratingError):
    """Inconsistent period-cell geometry (box too small, bad support, ...)."""


class RayleighAnomaly(VigratingError):
    """A diffraction order sits at cutoff (k^2 == alpha_j^2), to the
    tolerance of :func:`problem.at_cutoff`.

    The quasi-periodic Green's function degenerates there, so the problem
    is rejected rather than silently perturbed.
    """

    def __init__(self, order, k, alpha):
        self.order = order
        self.k = k
        self.alpha = alpha
        super().__init__(
            f"Rayleigh anomaly at order j={order}: k^2 == (j + alpha)^2 "
            f"for k={k!r}, alpha={alpha!r}"
        )


class UnresolvedOrder(VigratingError):
    """A propagating diffraction order lies outside the x1 orders
    |j| < N1/2 the grid resolves, so its efficiency would be lost."""

    def __init__(self, order, n1, needed):
        self.order = order
        self.n1 = n1
        self.needed = needed
        super().__init__(
            f"propagating order j={order} lies outside the orders "
            f"|j| < {n1 // 2} that n1 = {n1} resolves; n1 = {needed} is the "
            "smallest grid that holds it")


class Underresolved(VigratingError):
    """An axis of the grid holds fewer nodes per material wavelength than
    the minimum, so the grid cannot represent the wave."""

    def __init__(self, axis, count, minimum, grid, needed):
        self.axis = axis
        self.count = count
        super().__init__(
            f"{grid} holds {count:.3g} nodes per material wavelength on "
            f"{axis}, fewer than {minimum:g}; {needed} is the smallest grid "
            f"that holds {minimum:g}")


class NonSymmetric(VigratingError):
    """Contrast matrix is not (complex) symmetric."""


class ShapeMismatch(VigratingError):
    """Array shape does not match the discretization grid."""


class SizeGuard(VigratingError):
    """Requested dense assembly exceeds the oracle size limit, or a solve
    would exceed physical memory."""


class SlowConvergence(VigratingError):
    """Green's function series cannot reach the requested tail bound."""


class NotConverged(VigratingError):
    """Krylov solve stopped without reaching the target residual."""

    def __init__(self, message, solution=None):
        self.solution = solution
        super().__init__(message)


class BreakdownDetected(VigratingError):
    """Krylov breakdown before convergence; possible non-uniqueness."""


class Unphysical(VigratingError):
    """The efficiencies of a solve break the unit bound, energy
    conservation or passivity by more than the tolerance of
    :func:`postprocess.check_physics`: the discrete answer is not a
    physical one."""


class SingularReQ(VigratingError):
    """Re(Q) numerically singular at one or more grid nodes."""

    def __init__(self, nodes):
        self.nodes = list(nodes)
        shown = ", ".join(str(n) for n in self.nodes[:8])
        more = "" if len(self.nodes) <= 8 else f" (+{len(self.nodes) - 8} more)"
        super().__init__(f"Re(Q) singular at nodes: {shown}{more}")


class GeometryNotGraph(VigratingError):
    """Scatterer support is not a vertical graph region; extension-operator
    diagnostics are not applicable."""
