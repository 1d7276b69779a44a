"""Independent brute-force references used to validate the spectral path.

Nothing here touches the closed-form multiplier table: the quadrature oracle
sums the kernel series term by term, the slab oracle is a closed-form 1D
tensor transfer matrix with a finite-element check of its own, and the PDE
oracle applies finite differences.  These are the provenance chain for
every physics tolerance in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonSymmetric, SizeGuard, SlowConvergence
from .kernel import (
    KernelTable,
    kernel_table,
    reference_table,
    series_tail_bound,
    _beta_many,
)
from .operators import (
    DENSE_GUARD,
    SpectralField,
    assemble_dense,
    contrast_gradient_potential,
    to_physical,
    to_spectral,
)
from .problem import (
    ContrastField,
    Grid,
    IncidentWave,
    _as_matrix,
    build_problem,
)


# ----------------------------------------------------------------------------
# dense quadrature of the kernel series


def upsample(values: np.ndarray, grid: Grid, alpha: float,
             factor1: int, factor2: int) -> tuple[np.ndarray, Grid]:
    """Trigonometric upsampling of collocation samples (zero padding).

    Returns the samples of the unique band-limited interpolant on the
    refined grid; this is plain resampling, the convolution multiplier under
    test never enters.
    """
    fine = Grid(n1=factor1 * grid.n1, n2=factor2 * grid.n2,
                rho_box=grid.rho_box)
    c = to_spectral(values, grid, alpha).coeffs
    cf = np.zeros((fine.n1, fine.n2), dtype=complex)
    cf[np.ix_(grid.j1_modes(), grid.j2_modes())] = c
    return to_physical(SpectralField(cf, fine, alpha)), fine


def dense_quadrature_potential(
    g_samples: np.ndarray,
    grid: Grid,
    alpha: float,
    k: float,
    targets,
    delta: float = 0.1,
    refine: tuple[int, int] = (16, 16),
    tail_tol: float = 1e-10,
) -> np.ndarray:
    """Trapezoidal quadrature of the volume potential with series kernel values.

    The coarse samples are trigonometrically upsampled (the same function the
    spectral path acts on) and integrated against the truncated kernel series
    on the refined grid.  All targets must keep vertical separation >= delta
    from every nonzero source row; the truncation order is chosen so the
    series tail bound stays below ``tail_tol``.
    """
    targets = np.asarray(targets, dtype=float).reshape(-1, 2)
    gf, fine = upsample(np.asarray(g_samples, dtype=complex), grid, alpha,
                        *refine)

    src_rows = np.abs(g_samples).max(axis=0) > 0
    if src_rows.any():
        seps = np.abs(targets[:, 1][:, None] - grid.x2_nodes()[None, src_rows])
        sep_min = float(seps.min())
        if sep_min < delta:
            raise SlowConvergence(
                f"target-source separation {sep_min:g} below delta = {delta}"
            )
    else:
        return np.zeros(targets.shape[0], dtype=complex)

    j_max = 8
    while True:
        try:
            if series_tail_bound(j_max, sep_min, k, alpha) < tail_tol:
                break
        except ValueError:
            pass
        j_max *= 2
        if j_max > 1 << 20:
            raise SlowConvergence(
                "cannot reach the requested series tail bound"
            )

    orders = np.arange(-j_max, j_max + 1)
    aj = orders + alpha
    b = _beta_many(orders, k**2, alpha)

    y1 = fine.x1_nodes()
    y2 = fine.x2_nodes()
    # the x1 sum is target independent:  W[n, m2] = sum_m1 e^{-i a_n y1} g
    w = np.exp(-1j * np.outer(aj, y1)) @ gf
    out = np.empty(targets.shape[0], dtype=complex)
    for t, (x1t, x2t) in enumerate(targets):
        vert = np.exp(1j * np.outer(b, np.abs(x2t - y2)))
        horiz = np.exp(1j * aj * x1t) / b
        out[t] = horiz @ (vert * w).sum(axis=1)
    return (0.25j / np.pi) * fine.cell_area * out


# ----------------------------------------------------------------------------
# finite-difference Helmholtz residual


def helmholtz_residual(
    w_samples: np.ndarray,
    source: np.ndarray,
    k: float,
    alpha: float,
    grid: Grid,
    margin: float,
) -> float:
    """max |Laplace_h w + k^2 w + s| over nodes with |x2| <= rho_box - margin.

    The five-point Laplacian wraps in x1 with the quasi-periodic phase
    factor; x2 stays one-sided away from the tested band, so only interior
    rows are evaluated.
    """
    h1 = 2 * np.pi / grid.n1
    h2 = 2 * grid.rho_box / grid.n2
    phase = np.exp(2j * np.pi * alpha)
    up = np.roll(w_samples, -1, axis=0)
    dn = np.roll(w_samples, 1, axis=0)
    up[-1, :] *= phase          # crossing x1 = +pi picks up the phase
    dn[0, :] *= np.conj(phase)
    lap1 = (up - 2 * w_samples + dn) / h1**2
    lap2 = np.full_like(w_samples, np.nan)
    lap2[:, 1:-1] = (
        w_samples[:, 2:] - 2 * w_samples[:, 1:-1] + w_samples[:, :-2]
    ) / h2**2
    resid = lap1 + lap2 + k**2 * w_samples + source
    rows = np.abs(grid.x2_nodes()) <= grid.rho_box - margin
    rows[[0, -1]] = False
    return float(np.max(np.abs(resid[:, rows])))


# ----------------------------------------------------------------------------
# 1D slab reference (closed-form tensor transfer matrix)


@dataclass(frozen=True)
class SlabSpec:
    """Homogeneous slab: contrast q on a < x2 < b.

    ``q`` is a scalar (standing for q I) or a complex symmetric 2x2 matrix;
    A = I + Q must be finite, and A22 must not vanish.
    """

    q: complex | np.ndarray
    a: float
    b: float
    k: float
    alpha: float = 0.0

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("slab interval requires b > a")
        if not np.all(np.isfinite(np.asarray(self.q, dtype=complex))):
            raise ValueError(f"slab contrast must be finite, got {self.q!r}")
        if self.tensor()[1, 1] == 0:
            raise ValueError("A22 = 1 + q22 must not vanish: the slab "
                             "medium is degenerate")

    def tensor(self) -> np.ndarray:
        """A = I + Q, the slab's constant coefficient matrix."""
        try:
            return np.eye(2) + _as_matrix(self.q)
        except NonSymmetric as exc:
            raise ValueError(str(exc)) from None


@dataclass(frozen=True)
class SlabResult:
    r: complex          # reflection amplitude, e^{i b0 (x2 - rho_ref)} mode
    t: complex          # total transmission amplitude, e^{-i b0 (x2 + rho_ref)}
    reflectance: float
    transmittance: float
    rho_ref: float


def _sinc_ratio(z: complex, thickness: float) -> complex:
    """sin(z * T) / z, stable through z -> 0."""
    zt = z * thickness
    if abs(zt) < 1e-8:
        return thickness * (1.0 - zt**2 / 6.0)
    return np.sin(zt) / z


def slab_reference(spec: SlabSpec, rho_ref: float | None = None) -> SlabResult:
    """Closed-form reflection/transmission of the 1D slab reduction.

    With A = I + Q, the field of order zero solves
    A22 v'' + 2 i alpha A12 v' + (k^2 - alpha^2 A11) v = 0 with v and the
    co-normal flux F = i alpha A12 v + A22 v' continuous at the faces.  The
    state (v, F) obeys (v, F)' = M (v, F) with
    M = -(i alpha A12 / A22) I + N and N = [[0, 1/A22], [-A22 gamma^2, 0]],
    gamma^2 = ((alpha A12)^2 + A22 (k^2 - alpha^2 A11)) / A22^2.  Since
    N^2 = -gamma^2 I, the transfer matrix over the thickness T is

        e^{-i alpha A12 T / A22} [[cos gamma T, s / A22],
                                  [-A22 gamma^2 s, cos gamma T]]

    with s = sin(gamma T) / gamma.  Both are even in gamma, so no branch is
    chosen, and the stable sinc form keeps the double root gamma = 0 finite.
    For real A the returned efficiencies satisfy R + T = 1 to rounding.
    """
    k, alpha = spec.k, spec.alpha
    if rho_ref is None:
        rho_ref = max(abs(spec.a), abs(spec.b))
    b0 = complex(np.sqrt(complex(k**2 - alpha**2)))
    mat = spec.tensor()
    a11, a12, a22 = mat[0, 0], mat[0, 1], mat[1, 1]
    gamma2 = ((alpha * a12) ** 2 + a22 * (k**2 - alpha**2 * a11)) / a22**2
    gamma = complex(np.sqrt(gamma2))
    thick = spec.b - spec.a

    # transfer of (v, F) across the slab, bottom face -> top face
    phase = np.exp(-1j * alpha * a12 * thick / a22)
    sg = _sinc_ratio(gamma, thick)
    t11 = phase * np.cos(gamma * thick)
    t12 = phase * sg / a22
    t21 = -phase * a22 * gamma2 * sg
    t22 = t11

    # below: v = A_tr e^{-i b0 x2}; above: v = e^{-i b0 x2} + A_ref e^{+i b0 x2}
    va = np.exp(-1j * b0 * spec.a)
    state_a = np.array([va, -1j * b0 * va])
    top = np.array([t11 * state_a[0] + t12 * state_a[1],
                    t21 * state_a[0] + t22 * state_a[1]])
    # match [e^{-i b0 b} + A_ref e^{i b0 b}, -i b0 e^{-i b0 b} + i b0 A_ref e^{i b0 b}]
    eb_m = np.exp(-1j * b0 * spec.b)
    eb_p = np.exp(1j * b0 * spec.b)
    m = np.array([[eb_p, -top[0]], [1j * b0 * eb_p, -top[1]]])
    rhs = np.array([-eb_m, 1j * b0 * eb_m])
    a_ref, a_tr = np.linalg.solve(m, rhs)

    r = a_ref * np.exp(1j * b0 * rho_ref)
    t = a_tr * np.exp(1j * b0 * rho_ref)
    return SlabResult(
        r=complex(r), t=complex(t),
        reflectance=float(abs(r) ** 2),
        transmittance=float(abs(t) ** 2),
        rho_ref=float(rho_ref),
    )


def _two_sum(a: complex, b: complex) -> tuple[complex, complex]:
    """a + b rounded, and its rounding error (Knuth's TwoSum; exact in each
    component of a complex sum)."""
    total = a + b
    part = total - a
    return total, (a - (total - part)) + (b - part)


def slab_reference_fd(spec: SlabSpec, n: int = 2000,
                      pad: float = 2.0,
                      rho_ref: float | None = None) -> tuple[complex, complex]:
    """Independent fine-grid 1D finite-element solve of the slab problem.

    P1 elements on the weak form

        int A22 v' conj(psi') + i alpha A12 (v conj(psi') - v' conj(psi))
            + (alpha^2 A11 - k^2) v conj(psi) dx2

    with A = I outside the slab and the slab faces on nodes.  The radiation
    conditions enter as the boundary terms -i b0 on the two end nodes, the
    incident wave as the load of the top node.  Richardson extrapolation
    over n and 2n cells in the slab removes the leading quadratic error;
    both meshes pad the slab by the same length, a whole number of the
    coarse cells, so that they differ in nothing but h.  No closed form
    enters.  Returns (r, t) in the same normalization as
    :func:`slab_reference`.

    The tridiagonal system is solved by elimination on the deviations
    e_i = d_i - s_i of the pivots d_i from the stiffness s_i = A22 / h of
    the element right of node i, and the back substitution on the ratios
    v_i / v_{i+1} = 1 + q_i.  Eliminating on d_i itself, which is s_i plus
    a quantity of order one, rounds that quantity at the scale 1/h on
    every node, an error that grows with the mesh.  e_i and v_i change by
    O(h) from node to node; those changes are summed with compensated
    (TwoSum) additions, so the rounding stays at a few ulp on any mesh.
    """
    if rho_ref is None:
        rho_ref = max(abs(spec.a), abs(spec.b))
    k, alpha = spec.k, spec.alpha
    b0 = complex(np.sqrt(complex(k**2 - alpha**2)))
    mat = spec.tensor()

    def solve_once(m_cells: int, p: int) -> tuple[complex, complex]:
        """(r, t) on m_cells cells in the slab and p padding cells on
        each side."""
        h = (spec.b - spec.a) / m_cells
        lo = spec.a - p * h
        hi = spec.b + p * h
        npts = m_cells + 2 * p + 1

        # per-element coefficients: the slab's tensor on its m_cells
        # elements, the identity on the padding
        inside = np.zeros(npts - 1, dtype=bool)
        inside[p:p + m_cells] = True
        a11, a12, a22 = (np.where(inside, mat[i, j], float(i == j))
                         for i, j in ((0, 0), (0, 1), (1, 1)))
        stiff = a22 / h
        skew = 1j * alpha * a12
        mass = (alpha**2 * a11 - k**2) * (h / 6)

        # element i couples nodes i and i + 1: diagonal s + 2m on both,
        # s + sk - m = -(row i, column i + 1), s - sk - m = -(row i + 1,
        # column i); the end nodes add -i b0
        s, sk, m = (np.broadcast_to(x, npts - 1).astype(complex).tolist()
                    for x in (stiff, skew, mass))
        # forward elimination, d_i = s_{i-1} + 2 m_{i-1} + s_i + 2 m_i
        # - ((s_{i-1} - m_{i-1})^2 - sk_{i-1}^2) / d_{i-1}, written for e_i;
        # the load sits on the last node alone, which it leaves unchanged
        e, err = 2 * m[0] - 1j * b0, 0j
        pivots = [e]
        for i in range(1, npts):
            si, ski, mi = s[i - 1], sk[i - 1], m[i - 1]
            step = ((4 * mi * si + 2 * mi * e - mi * mi + ski * ski - e * e)
                    / (si + e) + (2 * m[i] if i < npts - 1 else -1j * b0))
            e, err = _two_sum(e, step + err)
            pivots.append(e)
        # back substitution, v_i = v_{i+1} (s_i + sk_i - m_i) / (s_i + e_i);
        # the last pivot is e itself
        top = -2j * b0 * complex(np.exp(-1j * b0 * hi)) / (e + err)
        v, err = top, 0j
        for i in range(npts - 2, -1, -1):
            q = (sk[i] - m[i] - pivots[i]) / (s[i] + pivots[i])
            v, err = _two_sum(v, v * q + err * (1 + q))
        bottom = v + err

        r = (top - np.exp(-1j * b0 * hi)) * np.exp(-1j * b0 * (hi - rho_ref))
        t = bottom * np.exp(1j * b0 * (lo + rho_ref))
        return complex(r), complex(t)

    p = int(np.ceil(pad / ((spec.b - spec.a) / n)))
    r1, t1 = solve_once(n, p)
    r2, t2 = solve_once(2 * n, 2 * p)
    return (4 * r2 - r1) / 3, (4 * t2 - t1) / 3


# ----------------------------------------------------------------------------
# compactness indicator


@dataclass(frozen=True)
class CompactnessProfile:
    """Normalized singular values of the dense operators at oracle size."""

    sv_difference: np.ndarray
    sv_operator: np.ndarray

    def ratio(self, index: int) -> tuple[float, float]:
        """(difference, operator) singular-value ratios sigma_i / sigma_0."""
        return (
            float(self.sv_difference[index] / self.sv_difference[0]),
            float(self.sv_operator[index] / self.sv_operator[0]),
        )


def smooth_test_contrast(h: float = 0.5) -> ContrastField:
    """Fixed smooth positive isotropic contrast for operator diagnostics."""

    def profile(x2):
        t = np.clip(np.abs(np.asarray(x2, float)) / h, 0.0, 1.0)
        out = np.zeros(t.shape)
        inside = t < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
        return out

    def sampler(x1, x2):
        x1 = np.asarray(x1, dtype=float)
        q = 0.8 * (0.55 + 0.45 * np.cos(x1)) * profile(x2)
        return q[..., None, None] * np.eye(2)

    return ContrastField(sampler=sampler, h=h, isotropic=True)


def compactness_indicator(n: int, k: float = 1.0, alpha: float = 0.3,
                          weighted: bool = True) -> CompactnessProfile:
    """Singular-value profiles of the dense compact-candidate operators.

    Assembles v -> div V(Q grad v) densely for the physical wavenumber and
    for the damped reference kernel (k^2 = -1) on an n x n grid with the
    fixed smooth contrast, similarity-transformed into the discrete
    H1-weighted norm, and returns the singular values of the difference and
    of the physical operator itself.
    """
    if n * n > DENSE_GUARD:
        raise SizeGuard(f"{n}x{n} exceeds the dense oracle guard")
    contrast = smooth_test_contrast()
    grid = Grid(n1=n, n2=n, rho_box=2 * contrast.h)
    wave = IncidentWave(k=k, d=(alpha / k, -np.sqrt(1 - (alpha / k) ** 2)))
    problem = build_problem(wave, contrast, grid)
    table_k = kernel_table(grid, wave)
    table_i = reference_table(grid, alpha)

    def lk_op(table: KernelTable):
        def apply(u, prob, _tab):
            return contrast_gradient_potential(u, prob, table)
        return apply

    m_k = assemble_dense(problem, table_k, operator=lk_op(table_k))
    m_i = assemble_dense(problem, table_i, operator=lk_op(table_i))

    if weighted:
        j1 = grid.j1_modes()[:, None]
        j2 = grid.j2_modes()[None, :]
        w = np.sqrt(1.0 + j1**2 + j2**2).reshape(-1)
        m_k = w[:, None] * m_k / w[None, :]
        m_i = w[:, None] * m_i / w[None, :]

    sv_diff = np.linalg.svd(m_k - m_i, compute_uv=False)
    sv_op = np.linalg.svd(m_k, compute_uv=False)
    return CompactnessProfile(sv_difference=sv_diff, sv_operator=sv_op)
