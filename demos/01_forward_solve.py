"""Forward solve walkthrough: mesh, velocity field, Newton transport solve.

Builds the axisymmetric fiber section, computes the reduced velocity field
from the default hydraulics, solves the five-species stationary system for
the shipped example patient, and prints the outlet observables.
"""

from dataclasses import replace

from fiberdialysis import (BoundaryData, TransportSolver, build_structured_mesh,
                           compute_velocity_field, outlet_concentration,
                           transmembrane_flux)
from fiberdialysis.config import load_patient_csv, load_profile, packaged_data_path

profile = load_profile()
geom = profile.geometry
mesh = build_structured_mesh(geom, 40, 6, 4, 5)
print(f"mesh: {mesh.n_vertices} vertices, {mesh.n_triangles} triangles")

# velocity from the default hydraulics: counter-current, small ultrafiltration
hyd = profile.base_hydraulics()
velocity = compute_velocity_field(mesh, geom, hyd)
print(f"velocity: max |U_x| = {velocity.max_abs_ux:.3f}, "
      f"divergence residual = {velocity.div_residual:.2e}")
print(f"net transmembrane flux = {transmembrane_flux(velocity.model):.4f} "
      f"({100 * transmembrane_flux(velocity.model) / hyd.Q_b:.1f}% of blood flow)")

# stationary transport for the example patient at beta = (d_Ca, d_Ci) = (0.5, 0.5)
patient = load_patient_csv(packaged_data_path("patient1.csv"), hyd)
cfg = profile.transport_config()
cfg = replace(cfg, species=cfg.species.with_beta(0.5, 0.5))
bd = BoundaryData(inlet_blood=tuple(patient.inlet_blood),
                  inlet_dialysate=tuple(patient.inlet_dialysate))
field, result = TransportSolver(mesh, velocity, cfg, bd).solve()
print(f"Newton: {result.n_solves} solves, update norms "
      f"{['%.2e' % v for v in result.trace]}")

outlet = outlet_concentration(field, mesh, geom)
names = ["Ca", "Alb", "Ca-Alb", "Cit", "Ca-Cit"]
print("\nblood outlet averages (flow-section weighted):")
for name, inlet, out in zip(names, patient.inlet_blood, outlet):
    print(f"  {name:7s} {inlet:8.4f} -> {out:8.4f}")
