from dataclasses import fields, replace

import numpy as np
import pytest

from fiberdialysis import flow
from fiberdialysis.cohort import CohortTable, generate_cohort, records_from_cohort
from fiberdialysis.config import load_profile, packaged_data_path
from fiberdialysis.exceptions import CalibrationError, ConfigurationError
from fiberdialysis.flow import (HydraulicState, VelocityField, _ReducedFlow,
                                calibrate_hydraulics, compute_velocity_field,
                                transmembrane_flux)
from fiberdialysis.mesh import AxiGeometry, Subdomain, build_structured_mesh

GEOM = AxiGeometry(L=1.0, R1=0.4, R2=0.6, R=1.0)
HYD = HydraulicState(p_in_b=2.0, p_out_b=1.6, p_in_d=0.6, p_out_d=0.4,
                     K_over_mu=1e-3, Q_b=0.25, Q_d=0.5)


def mesh(nx=8, nr=(3, 4, 3)):
    return build_structured_mesh(GEOM, nx, *nr)


# -- velocity field ---------------------------------------------------------------

def test_no_driving_force_limit():
    m = mesh()
    hyd = HydraulicState(p_in_b=1.0, p_out_b=1.0, p_in_d=1.0, p_out_d=1.0,
                         K_over_mu=0.0, Q_b=1e-12, Q_d=1e-12)
    U = compute_velocity_field(m, hyd)
    assert np.max(np.abs(U.u_x)) < 1e-11
    assert np.max(np.abs(U.u_r)) < 1e-11


def test_blood_flux_matches_prescription_at_every_station():
    # analytic Poiseuille flux integral as oracle, evaluated by Gauss quadrature
    m = mesh()
    hyd = HydraulicState(p_in_b=1.0, p_out_b=1.0, p_in_d=1.0, p_out_d=1.0,
                         K_over_mu=0.0, Q_b=1.0, Q_d=0.5)
    U = compute_velocity_field(m, hyd)
    t, w = np.polynomial.legendre.leggauss(12)
    r = 0.5 * GEOM.R1 * (t + 1.0)
    for x in (0.0, 0.31, 0.77, GEOM.L):
        ux, _ = U.model(np.full_like(r, x), r, Subdomain.BLOOD)
        flux = 2 * np.pi * 0.5 * GEOM.R1 * np.dot(w, r * ux)
        assert flux == pytest.approx(1.0, abs=1e-8)


def test_dialysate_flux_counter_current():
    m = mesh()
    hyd = HydraulicState(p_in_b=1.0, p_out_b=1.0, p_in_d=1.0, p_out_d=1.0,
                         K_over_mu=0.0, Q_b=1.0, Q_d=0.5)
    U = compute_velocity_field(m, hyd)
    t, w = np.polynomial.legendre.leggauss(12)
    r = GEOM.R2 + 0.5 * (GEOM.R - GEOM.R2) * (t + 1.0)
    ux, _ = U.model(np.full_like(r, 0.4), r, Subdomain.DIALYSATE)
    flux = 2 * np.pi * 0.5 * (GEOM.R - GEOM.R2) * np.dot(w, r * ux)
    assert flux == pytest.approx(-0.5, abs=1e-8)  # flowing toward x = 0


def test_ultrafiltration_sign():
    m = mesh()
    U = compute_velocity_field(m, HYD)  # blood pressure above dialysate
    mem = (m.vertices[:, 1] > GEOM.R1 - 1e-12) & (m.vertices[:, 1] < GEOM.R2 + 1e-12)
    assert np.all(U.u_r[mem] >= 0.0)


def test_divergence_invariant():
    m = mesh(nx=12, nr=(4, 4, 4))
    U = compute_velocity_field(m, HYD)
    assert U.div_residual <= 1e-8 * U.max_abs_ux
    assert U.div_residual < 1e-10  # construction is pointwise divergence-free


@pytest.mark.parametrize("res", [(1, 1, 1, 1), (2, 1, 1, 1), (4, 2, 2, 2), (8, 4, 4, 4),
                                 (10, 3, 2, 3), (40, 6, 4, 5)])
@pytest.mark.parametrize("geom", [load_profile().geometry, AxiGeometry(1.0, 0.1, 0.2, 1.0),
                                  AxiGeometry(2.0, 0.3, 0.45, 1.1),
                                  AxiGeometry(3.0, 0.35, 0.5, 1.2), GEOM,
                                  AxiGeometry(5.0, 0.2, 0.25, 0.6)])
def test_divergence_check_accepts_valid_geometries_down_to_one_cell(geom, res):
    # nested iteration halves even meshes down to one cell per region; the
    # edge quadrature must resolve the model's log terms there too
    U = compute_velocity_field(build_structured_mesh(geom, *res),
                               load_profile().base_hydraulics())
    assert U.div_residual <= 1e-10


def _per_triangle_divergence_residual(U):
    """Oracle of ``div_residual``: every triangle integrates its three edges
    in its own region's model, so an interior edge is evaluated twice."""
    mesh = U.mesh
    tri, verts = mesh.triangles, mesh.vertices
    total = np.zeros(mesh.n_triangles)
    for region in Subdomain:
        at = mesh.subdomain_of_triangle == region
        for a, b in ((0, 1), (1, 2), (2, 0)):
            total[at] += U._edge_flux(verts[tri[at, a]], verts[tri[at, b]], region)
    return float(np.max(np.abs(total) / (mesh.fem.area * mesh.fem.rbar)))


def _divergent_model(x, r, region):
    # d_x U_x + (1/r) d_r (r U_r) = 2x + 3r (1 + region): the residual is O(1)
    return x * x + r, r * r * (1.0 + region)


@pytest.mark.parametrize("res", [(40, 6, 4, 5), (80, 12, 8, 10)])
def test_divergence_residual_evaluates_each_edge_once_per_region(res):
    m = build_structured_mesh(load_profile().geometry, *res)
    U = compute_velocity_field(m, load_profile().base_hydraulics())
    # the model is divergence-free: both sums are roundoff, next to max|U_x|
    assert abs(U.div_residual - _per_triangle_divergence_residual(U)) <= 1e-12 * U.max_abs_ux
    # a model the constructor would reject, so its residual is computed directly
    points = [0]

    def counted(x, r, region):
        points[0] += np.size(x)
        return _divergent_model(x, r, region)

    divergent = object.__new__(VelocityField)
    divergent.mesh, divergent.model = m, counted
    residual = divergent._divergence_residual()
    # horizontal, vertical and diagonal grid edges, the two interfaces twice
    nx, nr = m.nx, m.nr
    edges = nx * (nr + 1) + (nx + 1) * nr + nx * nr + 2 * nx
    assert points[0] == 8 * edges
    assert residual == pytest.approx(_per_triangle_divergence_residual(divergent), rel=1e-12)


def test_radial_velocity_vanishes_on_axis_and_outer():
    m = mesh()
    U = compute_velocity_field(m, HYD)
    on_axis = m.vertices[:, 1] == 0.0
    on_outer = m.vertices[:, 1] == GEOM.R
    assert np.all(U.u_x[on_axis] != 0)  # axis carries the peak axial speed
    assert np.all(U.u_r[on_axis] == 0.0)
    assert np.all(U.u_r[on_outer] == 0.0)


def test_global_fluid_mass_conservation():
    m = mesh()
    U = compute_velocity_field(m, HYD)
    model = U.model
    flux_in = model.flux_blood(0.0)
    flux_out = model.flux_blood(GEOM.L)
    net = transmembrane_flux(model)
    assert flux_in == pytest.approx(flux_out + net, rel=1e-6)


def test_velocity_bit_reproducible():
    m = mesh()
    U1 = compute_velocity_field(m, HYD)
    U2 = compute_velocity_field(m, HYD)
    assert np.array_equal(U1.u_x, U2.u_x)
    assert np.array_equal(U1.u_r, U2.u_r)


def test_uniform_blood_flow_field_accepts_divergence_free_data():
    def blood_plug(x, r, region):   # uniform axial flow in the blood channel only
        return np.full_like(x, 1.0 if region == Subdomain.BLOOD else 0.0), 0.0 * x

    m = mesh()
    U = VelocityField(m, blood_plug)
    assert U.div_residual < 1e-12
    assert U.max_abs_ux == 1.0
    assert np.all(U.u_x[m.r_index == m.nr_b] == 0.0)  # no slip on the interface


def test_invalid_hydraulics_rejected():
    with pytest.raises(ConfigurationError):
        HydraulicState(p_in_b=1, p_out_b=1, p_in_d=1, p_out_d=1,
                       K_over_mu=1e-3, Q_b=0.0, Q_d=0.5)
    with pytest.raises(ConfigurationError):
        HydraulicState(p_in_b=1, p_out_b=1, p_in_d=1, p_out_d=1,
                       K_over_mu=-1e-3, Q_b=0.1, Q_d=0.5)


@pytest.mark.parametrize("name, value", [("p_in_b", np.nan), ("Q_b", np.inf),
                                         ("K_over_mu", np.inf), ("p_out_d", -np.inf)])
def test_non_finite_hydraulics_rejected(name, value):
    values = dict(p_in_b=1, p_out_b=1, p_in_d=1, p_out_d=1, K_over_mu=1e-3, Q_b=0.1, Q_d=0.5)
    values[name] = value
    with pytest.raises(ConfigurationError, match=f"must be finite, got {name}="):
        HydraulicState(**values)


# -- hydraulic calibration ----------------------------------------------------------

def model_flux(hyd, geom=GEOM):
    return transmembrane_flux(_ReducedFlow(geom, hyd))


def secant_oracle(geom, hyd0, target_flux, rel_tol=1e-6, max_iter=50):
    """The iterated secant on the model flux, stepping until the flux is
    within rel_tol of the target (at most max_iter steps)."""
    def shifted(delta):
        return replace(hyd0,
                       p_in_b=hyd0.p_in_b + delta / 2.0,
                       p_out_b=hyd0.p_out_b + delta / 2.0,
                       p_in_d=hyd0.p_in_d - delta / 2.0,
                       p_out_d=hyd0.p_out_d - delta / 2.0)

    d0, d1 = 0.0, 1.0
    f0 = model_flux(shifted(d0), geom)
    scale = max(abs(target_flux), abs(f0), 1e-30)
    if abs(f0 - target_flux) <= rel_tol * scale:
        return shifted(d0)
    f1 = model_flux(shifted(d1), geom)
    scale = max(scale, abs(f1))
    for _ in range(max_iter):
        d2 = d1 + (target_flux - f1) * (d1 - d0) / (f1 - f0)
        f2 = model_flux(shifted(d2), geom)
        if abs(f2 - target_flux) <= rel_tol * scale:
            return shifted(d2)
        d0, f0, d1, f1 = d1, f1, d2, f2
    raise AssertionError("oracle secant did not converge")


def test_zero_target_gives_zero_mean_pressure_difference():
    hyd = calibrate_hydraulics(GEOM, HYD, 0.0)
    mean_b = 0.5 * (hyd.p_in_b + hyd.p_out_b)
    mean_d = 0.5 * (hyd.p_in_d + hyd.p_out_d)
    assert mean_b - mean_d == pytest.approx(0.0, abs=1e-9)
    assert model_flux(hyd) == pytest.approx(0.0, abs=1e-12)


def test_secant_matches_two_probe_closed_form():
    # the flux is affine in the pressure shift: two probes determine the answer
    f0 = model_flux(HYD)
    shifted = replace(HYD, p_in_b=HYD.p_in_b + 0.5, p_out_b=HYD.p_out_b + 0.5,
                      p_in_d=HYD.p_in_d - 0.5, p_out_d=HYD.p_out_d - 0.5)
    f1 = model_flux(shifted)
    slope = (f1 - f0) / 1.0

    target = 0.037
    expected_delta = (target - f0) / slope
    hyd = calibrate_hydraulics(GEOM, HYD, target)
    assert hyd.p_in_b - HYD.p_in_b == pytest.approx(expected_delta / 2, rel=1e-9)
    assert model_flux(hyd) == pytest.approx(target, rel=1e-6)
    # the field's model is the one calibration worked on
    m = mesh()
    assert transmembrane_flux(compute_velocity_field(m, hyd).model) == model_flux(hyd)


def test_calibration_monotonicity():
    deltas = []
    for target in (0.005, 0.01, 0.02):
        hyd = calibrate_hydraulics(GEOM, HYD, target)
        mean_b = 0.5 * (hyd.p_in_b + hyd.p_out_b)
        mean_d = 0.5 * (hyd.p_in_d + hyd.p_out_d)
        deltas.append(mean_b - mean_d)
    assert deltas[0] < deltas[1] < deltas[2]


def test_unreachable_target_reports_range():
    sealed = replace(HYD, K_over_mu=0.0)
    with pytest.raises(CalibrationError) as exc:
        calibrate_hydraulics(GEOM, sealed, 0.05)
    assert exc.value.achievable_range == (0.0, 0.0)


def test_calibration_matches_iterated_secant_bit_for_bit():
    profile = load_profile()
    geom = profile.geometry
    real = CohortTable.from_csv(packaged_data_path("sample_cohort.csv"))
    records = records_from_cohort(generate_cohort(real, ns=40, seed=7),
                                  profile.base_hydraulics())
    assert len(records) == 40
    for rec in records:
        for target in (rec.extras["Q_uf"], 0.0, 1e-9, -0.3, 10.0, 1e6):
            got = calibrate_hydraulics(geom, rec.hydraulics, target)
            want = secant_oracle(geom, rec.hydraulics, target)
            for f in fields(HydraulicState):
                assert getattr(got, f.name) == getattr(want, f.name), (rec.id, target, f.name)


def test_calibration_builds_no_velocity_field(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("calibration built a velocity field")

    monkeypatch.setattr(flow, "compute_velocity_field", refuse)
    monkeypatch.setattr(flow, "VelocityField", refuse)
    hyd = calibrate_hydraulics(GEOM, HYD, 0.037)
    assert model_flux(hyd) == pytest.approx(0.037, rel=1e-6)


def test_calibration_rejects_a_missed_secant_step(monkeypatch):
    # a flux that is not affine in the shift: one secant step cannot land it
    monkeypatch.setattr(flow, "transmembrane_flux",
                        lambda model: (model.hyd.p_in_b - HYD.p_in_b) ** 3)
    with pytest.raises(CalibrationError, match="missed"):
        calibrate_hydraulics(GEOM, HYD, 0.5)
