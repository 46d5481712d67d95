"""Velocity field on the fiber cross-section from patient hydraulic data.

The reduced consistent flow model: Poiseuille-type axial profiles in each
channel scaled to the prescribed flow rates, Darcy radial flux across the
membrane driven by the interface pressure difference, and channel radial
velocities reconstructed from the axisymmetric continuity equation.  With
interface pressures linear in x, every piece below is divergence-free in the
pointwise sense, which is what the transport solver relies on.

Orientation is counter-current: blood flows in +x (inlet at x = 0), dialysate
in -x (inlet at x = L).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .exceptions import CalibrationError, ConfigurationError
from .linalg import solve_linear  # noqa: F401  (bench/tracing.py wraps flow.solve_linear)
from .mesh import AxiGeometry, Mesh, Subdomain

# Gauss rule of the divergence edge integrals and the transmembrane flux.  The
# model's log terms need 8 points: on one-cell meshes 4 points miss them by up
# to about 6e-8 * max|U_x|, past _DIV_TOL.
_GAUSS8_T, _GAUSS8_W = np.polynomial.legendre.leggauss(8)
_DIV_TOL = 1e-8   # divergence residual allowed, relative to max|U_x|
_REL_TOL = 1e-6   # calibrated flux error allowed, relative to the flux scale


@dataclass(frozen=True)
class HydraulicState:
    """Nondimensional pressures, membrane mobility and prescribed flow rates."""

    p_in_b: float
    p_out_b: float
    p_in_d: float
    p_out_d: float
    K_over_mu: float
    Q_b: float
    Q_d: float

    def __post_init__(self):
        bad = [f"{f.name}={getattr(self, f.name)}" for f in fields(self)
               if not np.isfinite(getattr(self, f.name))]
        if bad:
            raise ConfigurationError(f"hydraulic values must be finite, got {', '.join(bad)}")
        if not (self.Q_b > 0 and self.Q_d > 0):
            raise ConfigurationError(
                f"flow rates must be positive, got Q_b={self.Q_b}, Q_d={self.Q_d}")
        if self.K_over_mu < 0:
            raise ConfigurationError(f"membrane mobility must be >= 0, got {self.K_over_mu}")


class VelocityField:
    """The closed-form velocity ``model`` sampled at the nodes of ``mesh``:
    nodal (u_x, u_r), with the model kept in ``model``.

    ``model(x, r, region)`` returns (U_x, U_r) at points of one ``Subdomain``.
    Each node takes the model of its region by radial level
    (``Mesh.r_index``), interface nodes that of their channel with its
    no-slip u_x = 0; u_r = 0 on the axis and the outer wall.

    The divergence residual checked by the constructor is the largest
    per-triangle axisymmetric divergence integral of the model

        | oint_{dT} r U . n ds | / (area_T * rbar_T)

    i.e. a local mean of  d_x U_x + (1/r) d_r (r U_r),  evaluated with
    8-point Gauss quadrature once per edge and region: the two triangles of
    an edge share its integral with opposite signs.
    """

    def __init__(self, mesh: Mesh, model):
        self.mesh = mesh
        self.model = model
        x, r = mesh.vertices[:, 0], mesh.vertices[:, 1]
        j, jb, jm = mesh.r_index, mesh.nr_b, mesh.nr_b + mesh.nr_m
        self.u_x = np.zeros(mesh.n_vertices)
        self.u_r = np.zeros(mesh.n_vertices)
        for region, at in ((Subdomain.BLOOD, j <= jb), (Subdomain.MEMBRANE, (j > jb) & (j < jm)),
                           (Subdomain.DIALYSATE, j >= jm)):
            self.u_x[at], self.u_r[at] = model(x[at], r[at], region)
        self.u_x[(j == jb) | (j == jm)] = 0.0
        self.u_r[(j == 0) | (j == mesh.nr)] = 0.0
        self.max_abs_ux = float(np.max(np.abs(self.u_x)))
        self.div_residual = self._divergence_residual()
        scale = self.max_abs_ux if self.max_abs_ux > 0 else 1.0
        if self.div_residual > _DIV_TOL * scale:
            raise ConfigurationError(
                f"velocity field violates the divergence invariant: "
                f"residual {self.div_residual:.3e} > {_DIV_TOL:.1e} * max|U_x|={scale:.3e}")

    def _edge_flux(self, pa, pb, region):
        # int_edge r U.n ds of the model of one region with 8-point Gauss; n is
        # the -90deg rotation of (pb - pa), outward for CCW triangles
        t = 0.5 * (_GAUSS8_T + 1.0)
        e = pb - pa
        xs = pa[:, 0, None] + t * e[:, 0, None]
        rs = pa[:, 1, None] + t * e[:, 1, None]
        ux, ur = self.model(xs, rs, region)
        return 0.5 * (rs * (ux * e[:, 1, None] - ur * e[:, 0, None])) @ _GAUSS8_W

    def _divergence_residual(self):
        # each (edge, region) pair is evaluated once, from its lower to its
        # higher vertex index, and scattered with its sign into the triangles
        # of that region on either side; an interface edge is evaluated in
        # each region's model
        mesh = self.mesh
        tri, region = mesh.triangles, mesh.subdomain_of_triangle
        a = tri.ravel()
        b = tri[:, [1, 2, 0]].ravel()
        owner = np.repeat(np.arange(mesh.n_triangles), 3)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keys = (lo * mesh.n_vertices + hi) * len(Subdomain) + region[owner]
        _, first, pair = np.unique(keys, return_index=True, return_inverse=True)
        lo, hi, edge_region = lo[first], hi[first], region[owner[first]]
        flux = np.empty(first.size)
        for reg in Subdomain:
            at = edge_region == reg
            flux[at] = self._edge_flux(mesh.vertices[lo[at]], mesh.vertices[hi[at]], reg)
        sign = np.where(a < b, 1.0, -1.0)
        total = np.bincount(owner, weights=sign * flux[pair], minlength=mesh.n_triangles)
        rbar = np.maximum(mesh.fem.rbar, 1e-30)
        return float(np.max(np.abs(total) / (mesh.fem.area * rbar)))


# -- reduced consistent velocity model -----------------------------------------

class _ReducedFlow:
    """Closed forms for the reduced model; every region is divergence-free."""

    def __init__(self, geom: AxiGeometry, hyd: HydraulicState):
        self.geom = geom
        self.hyd = hyd
        R1, R2, R, L = geom.R1, geom.R2, geom.R, geom.L
        # interface pressures p = p0 + p1*x (Poiseuille drop along each channel)
        pb0, self.pb1 = hyd.p_in_b, (hyd.p_out_b - hyd.p_in_b) / L
        pd0, self.pd1 = hyd.p_out_d, (hyd.p_in_d - hyd.p_out_d) / L
        self.lnrho = np.log(R2 / R1)
        k = hyd.K_over_mu / self.lnrho
        # membrane radial volume-flux density: r*u_r = w(x) = w0 + w1*x
        self.w0 = k * (pb0 - pd0)
        self.w1 = k * (self.pb1 - self.pd1)
        # annular Poiseuille shape in the dialysate channel, unit 2*pi*r flux
        self.A = (R**2 - R2**2) / np.log(R / R2)
        half_flux = ((R**2 - R2**2) ** 2 / 4.0
                     + self.A * (-(R**2 - R2**2) / 4.0 + (R2**2 / 2.0) * np.log(R / R2)))
        self.N = 2.0 * np.pi * half_flux

    def w(self, x):
        return self.w0 + self.w1 * x

    def W(self, x):
        """int_0^x w."""
        return self.w0 * x + 0.5 * self.w1 * x * x

    def flux_blood(self, x):
        return self.hyd.Q_b - 2.0 * np.pi * self.W(x)

    def flux_dialysate(self, x):
        """Signed axial flux (negative: flowing toward x = 0)."""
        return -self.hyd.Q_d - 2.0 * np.pi * (self.W(self.geom.L) - self.W(x))

    def psi(self, r):
        R = self.geom.R
        return R**2 - r**2 + self.A * np.log(r / R)

    def _int_spsi(self, r):
        """int_r^R s*psi(s) ds (closed form)."""
        R = self.geom.R
        at_R = R**4 / 4.0 - self.A * R**2 / 4.0
        at_r = (R**2 * r**2 / 2.0 - r**4 / 4.0
                + self.A * (r**2 / 2.0 * np.log(r / R) - r**2 / 4.0))
        return at_R - at_r

    def __call__(self, x, r, region):
        x = np.asarray(x, float)
        r = np.asarray(r, float)
        geom, hyd = self.geom, self.hyd
        R1 = geom.R1
        if region == Subdomain.BLOOD:
            C = 2.0 * self.flux_blood(x) / (np.pi * R1**4)
            ux = C * (R1**2 - r**2)
            ur = self.w(x) * r * (2.0 * R1**2 - r**2) / R1**4
            return ux, ur
        if region == Subdomain.MEMBRANE:
            pb1, pd1 = self.pb1, self.pd1
            ux = -hyd.K_over_mu * (pb1 + (pd1 - pb1) * np.log(r / R1) / self.lnrho)
            ux = ux + 0.0 * x  # broadcast to the common shape
            ur = self.w(x) / r
            return ux, ur
        if region == Subdomain.DIALYSATE:
            ux = self.flux_dialysate(x) * self.psi(r) / self.N
            ur = 2.0 * np.pi * self.w(x) * self._int_spsi(r) / (self.N * r)
            return ux, ur
        raise ConfigurationError(f"unknown region {region!r}")


def compute_velocity_field(mesh: Mesh, hyd: HydraulicState) -> VelocityField:
    """The reduced model of ``hyd`` on the geometry ``mesh.geom``, sampled at
    the nodes of ``mesh`` (see ``VelocityField``).

    Axial profiles are Poiseuille-type scaled so the cross-sectional flux of
    blood matches Q_b (+x) and of dialysate matches Q_d (-x, counter-current);
    the membrane Darcy radial flux follows the interface pressure difference,
    and the channel radial velocities close the continuity equation, so the
    model is pointwise divergence-free and its per-triangle residual stays
    far below ``_DIV_TOL`` down to one cell per region.
    """
    return VelocityField(mesh, _ReducedFlow(mesh.geom, hyd))


def transmembrane_flux(model: _ReducedFlow) -> float:
    """2*pi int_0^L R1 u_r(x, R1) dx of the closed-form model, by 8-point Gauss."""
    geom = model.geom
    xs = 0.5 * geom.L * (_GAUSS8_T + 1.0)
    _, ur = model(xs, np.full_like(xs, geom.R1), Subdomain.MEMBRANE)
    return float(2.0 * np.pi * geom.R1 * 0.5 * geom.L * np.dot(_GAUSS8_W, ur))


def calibrate_hydraulics(geom: AxiGeometry, hyd0: HydraulicState,
                         target_flux: float) -> HydraulicState:
    """Shift the blood/dialysate pressure levels so the net transmembrane
    flux of the closed-form model matches ``target_flux``.

    The flux is affine in the mean blood-dialysate pressure difference, so
    two probes and one secant step land the answer; the step's flux is then
    checked against the target.  Raises CalibrationError when the target is
    unreachable (zero membrane mobility), reporting the achievable range, or
    when the checked flux misses it.
    """
    if not np.isfinite(target_flux):
        raise CalibrationError("target transmembrane flux must be finite")

    def shifted(delta):
        return replace(hyd0,
                       p_in_b=hyd0.p_in_b + delta / 2.0,
                       p_out_b=hyd0.p_out_b + delta / 2.0,
                       p_in_d=hyd0.p_in_d - delta / 2.0,
                       p_out_d=hyd0.p_out_d - delta / 2.0)

    def flux_at(delta):
        return transmembrane_flux(_ReducedFlow(geom, shifted(delta)))

    d0, d1 = 0.0, 1.0
    f0 = flux_at(d0)
    scale = max(abs(target_flux), abs(f0), 1e-30)
    if abs(f0 - target_flux) <= _REL_TOL * scale:
        return shifted(d0)
    f1 = flux_at(d1)
    if abs(f1 - f0) < 1e-300:
        raise CalibrationError(
            f"target flux {target_flux!r} unreachable: model range is "
            f"[{f0!r}, {f0!r}] (zero membrane mobility?)",
            achievable_range=(f0, f0))
    scale = max(scale, abs(f1))
    d2 = d1 + (target_flux - f1) * (d1 - d0) / (f1 - f0)
    f2 = flux_at(d2)
    if not abs(f2 - target_flux) <= _REL_TOL * scale:
        raise CalibrationError(
            f"hydraulic calibration missed {target_flux!r}: the secant step "
            f"gives flux {f2!r}")
    return shifted(d2)
