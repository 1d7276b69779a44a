"""Solvability diagnostics for the volume integral equation.

The operator I - div V(Q grad .) is not compact, so plain Riesz theory does
not apply; solvability rests on coercivity-up-to-compact estimates whose
hypotheses are checkable numbers: the sign and extreme eigenvalues of Re(Q),
an Im/Re domination constant, and (for negative contrast) the norm of a
reflection-based extension operator compared against inf |Re Q|^{1/2}.
This module evaluates those numbers and reports tri-state verdicts; it
proves nothing, it checks hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import GeometryNotGraph, SingularReQ
from .operators import SpectralField, grad_spectral, to_physical
from .problem import Problem

DET_TOL = 1e-12


@dataclass(frozen=True)
class ContrastSpectra:
    """Pointwise eigenstructure of Re(Q) over the support nodes.

    Arrays are per node, with ``mask`` marking the support; ``angles``
    holds the rotation of the orthogonal eigenbasis, ``signs`` is +1 / -1
    per node or 0 for a node with mixed-sign eigenvalues.
    """

    mask: np.ndarray = field(repr=False)
    eig_lo: np.ndarray = field(repr=False)      # signed, eig_lo <= eig_hi
    eig_hi: np.ndarray = field(repr=False)
    angles: np.ndarray = field(repr=False)
    signs: np.ndarray = field(repr=False)

    def head(self, rows: int) -> ContrastSpectra:
        """The spectra of the first ``rows`` node rows."""
        return ContrastSpectra(*(getattr(self, f.name)[:rows]
                                 for f in fields(self)))

    @property
    def abs_min(self) -> np.ndarray:
        return np.minimum(np.abs(self.eig_lo), np.abs(self.eig_hi))

    @property
    def abs_max(self) -> np.ndarray:
        return np.maximum(np.abs(self.eig_lo), np.abs(self.eig_hi))

    @property
    def sign_verdict(self) -> str:
        s = self.signs[self.mask]
        if s.size == 0:
            return "empty"
        if np.all(s == 1):
            return "positive"
        if np.all(s == -1):
            return "negative"
        return "mixed"


def _symmetric_eig(a, b, c):
    """Eigenvalues and rotation angle of [[a, b], [b, c]] (vectorized)."""
    mean = 0.5 * (a + c)
    disc = np.sqrt((0.5 * (a - c)) ** 2 + b**2)
    theta = 0.5 * np.arctan2(2 * b, a - c)
    return mean - disc, mean + disc, theta


def decompose_reQ(problem: Problem) -> ContrastSpectra:
    """Closed-form eigendecomposition of Re(Q) at every support node, as
    read-only (N1, N2) broadcasts of that of the rows of ``layout.samples``.

    Raises SingularReQ listing the nodes where |det Re(Q)| <= 1e-12, since
    the weighted norm and the Im/Re constant need the inverse.
    """
    samples = problem.layout.samples
    mask = samples.any(axis=(2, 3))
    req = samples.real
    a, b, c = req[..., 0, 0], req[..., 0, 1], req[..., 1, 1]
    lo, hi, theta = _symmetric_eig(a, b, c)
    det = a * c - b * b
    bad = mask & (np.abs(det) <= DET_TOL)
    nodes = (problem.grid.n1, problem.grid.n2)
    if bad.any():
        raise SingularReQ(map(tuple, np.argwhere(
            np.broadcast_to(bad, nodes)).tolist()))
    signs = np.zeros(mask.shape, dtype=int)
    signs[(lo > 0) & (hi > 0)] = 1
    signs[(lo < 0) & (hi < 0)] = -1
    return ContrastSpectra(*(np.broadcast_to(x, nodes)
                             for x in (mask, lo, hi, theta, signs)))


def _rotations(spectra: ContrastSpectra) -> np.ndarray:
    ct, st = np.cos(spectra.angles), np.sin(spectra.angles)
    u = np.empty(spectra.angles.shape + (2, 2))
    u[..., 0, 0] = ct
    u[..., 0, 1] = -st
    u[..., 1, 0] = st
    u[..., 1, 1] = ct
    return u


def _eigen_function(spectra: ContrastSpectra, f) -> np.ndarray:
    """U diag(f(eigs)) U^T per node."""
    u = _rotations(spectra)
    d = np.zeros(u.shape)
    # the rotation angle diagonalizes with the larger eigenvalue first
    d[..., 0, 0] = f(spectra.eig_hi)
    d[..., 1, 1] = f(spectra.eig_lo)
    return u @ d @ np.swapaxes(u, -1, -2)


def sqrt_abs_reQ(spectra: ContrastSpectra) -> np.ndarray:
    """|Re(Q)|^{1/2} per node: rotate, take |.|^{1/2} of the eigenvalues,
    rotate back."""
    return _eigen_function(spectra, lambda e: np.sqrt(np.abs(e)))


def reconstruct_reQ(spectra: ContrastSpectra) -> np.ndarray:
    """U diag(eigs) U^T; must reproduce Re(Q) to rounding."""
    return _eigen_function(spectra, lambda e: e)


def weighted_norm(u: SpectralField, problem: Problem,
                  spectra: ContrastSpectra) -> float:
    """Contrast-weighted H1 norm:
    (|| |Re Q|^{1/2} grad u ||_{L2(D)}^2 + ||u||_{L2(D)}^2)^{1/2},
    integrals by the trapezoidal rule over the support nodes."""
    g = grad_spectral(u)
    g1 = to_physical(g.g1)
    g2 = to_physical(g.g2)
    vals = to_physical(u)
    w = sqrt_abs_reQ(spectra)
    wg1 = w[..., 0, 0] * g1 + w[..., 0, 1] * g2
    wg2 = w[..., 1, 0] * g1 + w[..., 1, 1] * g2
    cell = problem.grid.cell_area
    m = spectra.mask
    grad_part = cell * float(np.sum(np.abs(wg1[m]) ** 2 + np.abs(wg2[m]) ** 2))
    l2_part = cell * float(np.sum(np.abs(vals[m]) ** 2))
    return float(np.sqrt(grad_part + l2_part))


def contrast_form(u: SpectralField, v: SpectralField, problem: Problem,
                  spectra: ContrastSpectra) -> complex:
    """Sign-weighted sesquilinear form
    integral_D [ sign(Re Q) Q grad u . conj(grad v) + u conj(v) ].

    Its real part at u = v reproduces the squared weighted norm; exposed
    read-only for the property suite.
    """
    if spectra.sign_verdict not in ("positive", "negative"):
        raise ValueError("the form needs a constant sign of Re(Q) on D")
    sgn = 1.0 if spectra.sign_verdict == "positive" else -1.0
    gu = grad_spectral(u)
    gv = grad_spectral(v)
    u1, u2 = to_physical(gu.g1), to_physical(gu.g2)
    v1, v2 = to_physical(gv.g1), to_physical(gv.g2)
    q = problem.layout.samples
    qu1 = q[..., 0, 0] * u1 + q[..., 0, 1] * u2
    qu2 = q[..., 1, 0] * u1 + q[..., 1, 1] * u2
    m = spectra.mask
    cell = problem.grid.cell_area
    grad_term = np.sum(sgn * (qu1[m] * np.conj(v1[m]) + qu2[m] * np.conj(v2[m])))
    l2_term = np.sum(to_physical(u)[m] * np.conj(to_physical(v)[m]))
    return complex(cell * (grad_term + l2_term))


def im_bound_constant(problem: Problem) -> float:
    """Smallest C with |Im(Q) xi| <= C |Re(Q) xi| pointwise on D.

    Substituting eta = Re(Q) xi turns the bound into the spectral norm of
    Im(Q) Re(Q)^{-1}, maximized over the support nodes.  It is exactly 0,
    with no inverse taken, when Im(Q) vanishes on the support.
    """
    q = problem.layout.matrices()
    imq = q.imag
    if not imq.any():
        return 0.0
    prod = imq @ np.linalg.inv(q.real)
    return float(np.max(np.linalg.norm(prod, ord=2, axis=(1, 2))))


# ----------------------------------------------------------------------------
# reflection extension across graph boundaries


def smoothstep_cutoff(x2, rho: float):
    """C^3 plateau cutoff: 1 on |x2| <= rho, degree-7 smoothstep down to 0
    at |x2| = 2 rho."""
    t = np.clip((np.abs(np.asarray(x2, dtype=float)) - rho) / rho, 0.0, 1.0)
    s = 35 * t**4 - 84 * t**5 + 70 * t**6 - 20 * t**7
    return 1.0 - s


def smoothstep_slope_max(rho: float) -> float:
    """sup |d/dx2| of the cutoff: the degree-7 smoothstep has max slope
    35/16 on the unit interval."""
    return 35.0 / 16.0 / rho


@dataclass(frozen=True)
class GraphGeometry:
    """Support bounded by 2*pi-periodic Lipschitz graphs zeta- < zeta+."""

    zeta_plus: object
    zeta_minus: object
    rho: float

    def validate(self, n_probe: int = 64):
        x1 = -np.pi + 2 * np.pi * np.arange(n_probe) / n_probe
        zp = np.asarray(self.zeta_plus(x1), dtype=float)
        zm = np.asarray(self.zeta_minus(x1), dtype=float)
        if not (np.all(zp < self.rho) and np.all(zm > -self.rho)):
            raise GeometryNotGraph("graphs must stay inside (-rho, rho)")
        if not (np.all(zp > 2 * self.rho / 3) and np.all(zm < -2 * self.rho / 3)):
            raise GeometryNotGraph(
                "graphs must satisfy zeta- < -2 rho/3 < 2 rho/3 < zeta+"
            )

    def lipschitz_constant(self, refine: int = 10, n_base: int = 64) -> float:
        """Max absolute finite-difference slope over a refined x1 grid."""
        n = refine * n_base
        x1 = -np.pi + 2 * np.pi * np.arange(n + 1) / n
        out = 0.0
        for zeta in (self.zeta_plus, self.zeta_minus):
            z = np.asarray(zeta(x1), dtype=float)
            out = max(out, float(np.max(np.abs(np.diff(z) / np.diff(x1)))))
        return out


def extend_field(u, geometry: GraphGeometry, points) -> np.ndarray:
    """Reflection-plus-cutoff extension of a field off its support.

    ``u(x1, x2)`` is any callable defined on the graph region; the returned
    values agree with u there exactly, continue it by reflection across each
    graph, and vanish for |x2| >= 2 rho after the smooth cutoff.
    """
    geometry.validate()
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    x1, x2 = pts[:, 0], pts[:, 1]
    zp = np.asarray(geometry.zeta_plus(x1), dtype=float)
    zm = np.asarray(geometry.zeta_minus(x1), dtype=float)
    out = np.zeros(pts.shape[0], dtype=complex)

    inside = (x2 >= zm) & (x2 <= zp)
    above = (x2 > zp) & (x2 < 2 * zp - zm)
    below = (x2 < zm) & (x2 > 2 * zm - zp)
    if inside.any():
        out[inside] = u(x1[inside], x2[inside])
    if above.any():
        out[above] = u(x1[above], 2 * zp[above] - x2[above])
    if below.any():
        out[below] = u(x1[below], 2 * zm[below] - x2[below])
    return out * smoothstep_cutoff(x2, geometry.rho)


@dataclass(frozen=True)
class ExtensionNorm:
    """Operator-norm bound of the extension, with its ingredients.

    ``reflected_part`` is the exact reflection bound max(sqrt(3),
    2 sqrt(2) M); the cutoff multiplies it by sqrt(2 + sup|chi'|^2)
    (Cauchy-Schwarz on the product rule), and the full bound composes as
    sqrt(1 + off_support^2) because the extension restricts to the
    identity on the support.
    """

    lipschitz: float
    reflected_part: float
    cutoff_factor: float
    bound: float
    recipe: str

    @property
    def off_support(self) -> float:
        return self.reflected_part * self.cutoff_factor


def reflected_part_bound(lipschitz: float) -> float:
    """Norm bound of the bare reflection step: max(sqrt(3), 2 sqrt(2) M)."""
    return max(np.sqrt(3.0), 2.0 * np.sqrt(2.0) * lipschitz)


def extension_norm(geometry: GraphGeometry) -> ExtensionNorm:
    geometry.validate()
    m = geometry.lipschitz_constant()
    reflected = reflected_part_bound(m)
    slope = smoothstep_slope_max(geometry.rho)
    cutoff = float(np.sqrt(2.0 + slope**2))
    bound = float(np.sqrt(1.0 + (reflected * cutoff) ** 2))
    return ExtensionNorm(
        lipschitz=m,
        reflected_part=float(reflected),
        cutoff_factor=cutoff,
        bound=bound,
        recipe=(
            "bound = sqrt(1 + (max(sqrt(3), 2*sqrt(2)*M)"
            " * sqrt(2 + sup|chi'|^2))^2)"
        ),
    )


def extension_norm_estimate(
    geometry: GraphGeometry,
    n1: int = 24,
    n2: int = 16,
    n_fields: int = 50,
    seed: int = 1234,
) -> float:
    """Numerical lower estimate of the extension norm.

    Discretizes the operator on a small graph-region grid, assembles the
    H1 Gram matrices by finite differences, and takes the largest Rayleigh
    quotient reached by power iteration started from random fields.
    """
    geometry.validate()
    rng = np.random.default_rng(seed)
    x1 = -np.pi + 2 * np.pi * np.arange(n1) / n1
    zp = np.asarray(geometry.zeta_plus(x1), dtype=float)
    zm = np.asarray(geometry.zeta_minus(x1), dtype=float)
    # domain grid: per-column vertical lines between the graphs
    frac = (np.arange(n2) + 0.5) / n2
    xx2 = zm[:, None] + (zp - zm)[:, None] * frac[None, :]
    xx1 = np.broadcast_to(x1[:, None], xx2.shape)

    # target grid covering the extension support
    m2 = 4 * n2
    rho2 = 2 * geometry.rho
    y2 = -rho2 + 2 * rho2 * (np.arange(m2) + 0.5) / m2
    yy2 = np.broadcast_to(y2[None, :], (n1, m2))
    yy1 = np.broadcast_to(x1[:, None], (n1, m2))

    def h1_sq(values, dx2_per_col, periodic_dx1):
        g1 = (np.roll(values, -1, axis=0) - np.roll(values, 1, axis=0)) / (
            2 * periodic_dx1
        )
        g2 = np.gradient(values, axis=1) / dx2_per_col
        area = periodic_dx1 * dx2_per_col
        return float(np.sum((np.abs(values) ** 2 + np.abs(g1) ** 2
                             + np.abs(g2) ** 2) * area))

    dx1 = 2 * np.pi / n1
    best = 0.0
    for _ in range(n_fields):
        coef = rng.standard_normal((5, 5, 2)) @ np.array([1.0, 1.0j])
        modes1 = np.arange(-2, 3)
        modes2 = np.arange(1, 6)

        def field(a, b, c=coef):
            acc = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
            for i, m1 in enumerate(modes1):
                for jj, m2_ in enumerate(modes2):
                    acc += c[i, jj] * np.exp(1j * m1 * a) * np.sin(
                        m2_ * (b + geometry.rho) / geometry.rho
                    )
            return acc

        u_dom = field(xx1, xx2)
        num = extend_field(field, geometry, np.stack(
            [yy1.ravel(), yy2.ravel()], axis=1)).reshape(n1, m2)
        n_dom = h1_sq(u_dom, (zp - zm)[:, None] / n2, dx1)
        n_ext = h1_sq(num, 2 * rho2 / m2, dx1)
        if n_dom > 0:
            best = max(best, np.sqrt(n_ext / n_dom))
    return float(best)


# ----------------------------------------------------------------------------
# the assembled report


@dataclass(frozen=True)
class ConditionVerdict:
    name: str
    status: str                 # satisfied | violated | not-applicable
    details: dict


@dataclass(frozen=True)
class GardingReport:
    sign_verdict: str
    inf_abs_min: float
    sup_abs_max: float
    im_re_constant: float
    lipschitz: float | None
    extension_bound: float | None
    extension_estimate: float | None
    conditions: tuple
    interpretation: str
    smoothness_note: str

    def doc(self) -> dict:
        """The document ``garding_report.json`` holds."""
        return {
            "sign_verdict": self.sign_verdict,
            "inf_abs_min_eigenvalue": self.inf_abs_min,
            "sup_abs_max_eigenvalue": self.sup_abs_max,
            "im_re_domination_constant": self.im_re_constant,
            "boundary_lipschitz_constant": self.lipschitz,
            "extension_norm_bound": self.extension_bound,
            "extension_norm_estimate": self.extension_estimate,
            "conditions": [
                {"name": c.name, "status": c.status, "details": c.details}
                for c in self.conditions
            ],
            "interpretation": self.interpretation,
            "smoothness_note": self.smoothness_note,
        }


def garding_check(
    problem: Problem,
    spectra: ContrastSpectra,
    geometry: GraphGeometry | None = None,
    estimate_extension: bool = False,
) -> GardingReport:
    """Evaluate the solvability-condition verdicts for the given contrast.

    Positive definite Re(Q) passes unconditionally; negative definite
    contrast (all eigenvalues below -1) additionally needs the extension
    norm below sqrt(inf |eigenvalues|), which requires graph geometry; a
    scalar real negative contrast gets the unweighted-space variant of the
    same comparison.  Mixed-sign contrast yields no certificate.
    """
    # the sampled rows of the layout hold every node's value
    spectra = spectra.head(problem.layout.n_rows)
    sign = spectra.sign_verdict
    m = spectra.mask
    inf_min = float(np.min(spectra.abs_min[m])) if m.any() else 0.0
    sup_max = float(np.max(spectra.abs_max[m])) if m.any() else 0.0
    c_im = im_bound_constant(problem)

    lip = ext_bound = ext_est = None
    ext_details: dict = {"geometry": "not graph-given"}
    if geometry is not None:
        try:
            norm_info = extension_norm(geometry)
            lip = norm_info.lipschitz
            ext_bound = norm_info.bound
            ext_details = {
                "lipschitz": lip,
                "reflected_part_bound": norm_info.reflected_part,
                "cutoff_factor": norm_info.cutoff_factor,
                "bound": ext_bound,
                "recipe": norm_info.recipe,
            }
            if estimate_extension:
                ext_est = extension_norm_estimate(geometry)
                ext_details["estimate"] = ext_est
                ext_details["estimate_vs_bound_flag"] = (
                    "disagree>2x" if ext_est * 2.0 < ext_bound
                    or ext_est > ext_bound else "consistent"
                )
        except GeometryNotGraph as exc:
            ext_details = {"geometry": f"not applicable: {exc}"}

    def extension_verdict(name: str, threshold_key: str) -> ConditionVerdict:
        """The condition ``name``: not applicable without an extension
        bound, else satisfied iff the bound lies below sqrt(inf |eig|)."""
        if ext_bound is None:
            return ConditionVerdict(name, "not-applicable", ext_details)
        need = float(np.sqrt(inf_min))
        return ConditionVerdict(
            name, "satisfied" if ext_bound < need else "violated",
            {**ext_details, threshold_key: need, "margin": need - ext_bound})

    conditions = []

    if sign == "positive":
        status = "satisfied" if inf_min > 0 else "violated"
        conditions.append(ConditionVerdict(
            "positive_definite_contrast", status,
            {"inf_abs_min_eigenvalue": inf_min},
        ))
    else:
        conditions.append(ConditionVerdict(
            "positive_definite_contrast", "not-applicable",
            {"sign_verdict": sign},
        ))

    if sign != "negative":
        conditions.append(ConditionVerdict(
            "negative_contrast_extension", "not-applicable",
            {"sign_verdict": sign},
        ))
    elif float(np.max(spectra.eig_hi[m])) < -1.0:
        conditions.append(extension_verdict(
            "negative_contrast_extension", "threshold_sqrt_inf_abs_min"))
    else:
        conditions.append(ConditionVerdict(
            "negative_contrast_extension", "violated",
            {"reason": "eigenvalues must lie below -1",
             "sup_eigenvalue": float(np.max(spectra.eig_hi[m]))},
        ))

    if problem.layout.real_scalar and sign == "negative":
        conditions.append(extension_verdict(
            "isotropic_negative_contrast", "threshold_sqrt_inf_abs_q"))
    else:
        conditions.append(ConditionVerdict(
            "isotropic_negative_contrast", "not-applicable",
            {"isotropic": problem.layout.real_scalar,
             "lossless": problem.is_lossless(), "sign_verdict": sign},
        ))

    if sign == "mixed":
        interpretation = "indefinite: no certificate"
    elif any(c.status == "satisfied" for c in conditions):
        interpretation = (
            "coercive up to a compact perturbation; together with a trivial "
            "null space, the discrete equation is uniquely solvable for "
            "every right-hand side"
        )
    else:
        interpretation = "no solvability certificate from the checked conditions"

    return GardingReport(
        sign_verdict=sign,
        inf_abs_min=inf_min,
        sup_abs_max=sup_max,
        im_re_constant=c_im,
        lipschitz=lip,
        extension_bound=ext_bound,
        extension_estimate=ext_est,
        conditions=tuple(conditions),
        interpretation=interpretation,
        smoothness_note=(
            "isotropic verdicts assume C^{2,1} smoothness of the domain and "
            "of sqrt(|q|); smoothness of user samplers is asserted, not "
            "verified"
        ),
    )
