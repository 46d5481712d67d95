"""Forward and inverse modeling of solute transport in hollow-fiber dialyzers."""

from .mesh import (AxiGeometry, Boundary, Mesh, Subdomain, boundary_vertices,
                   build_structured_mesh)
from .linalg import SparseMatrix, solve_linear
from .flow import (HydraulicState, VelocityField, calibrate_hydraulics,
                   compute_velocity_field, transmembrane_flux)
from .transport import (BoundaryData, NewtonResult, ReactionParams, SpeciesConfig,
                        TransportConfig, TransportSolver, export_field_csv,
                        outlet_concentration, reaction_jacobian, reaction_source)
from .optim import (GridResult, OptimResult, fd_gradient, grid_search,
                    levenberg_marquardt, powell_minimize, projected_gradient)
from .cohort import (CohortTable, NoiseSpec, PatientRecord, add_measurement_noise,
                     derive_seed, generate_cohort, make_reference_targets)
from .inverse import (ForwardContext, MultiCostConfig,
                      context_from_profile, default_weights, identify_multi,
                      identify_single, landscape_scan, multi_patient_cost,
                      sensitivity_study, single_patient_cost)
from .config import ConstantsProfile, RunConfig, load_patient_csv, load_profile

__version__ = "0.1.0"
