"""Structured triangulation of the axisymmetric fiber cross-section.

The computational domain is the rectangle (0, L) x (0, R) in (x, r)
coordinates, split radially into the blood channel (0, R1), the porous
membrane (R1, R2) and the dialysate channel (R2, R).  Grid lines are placed
exactly on r = R1 and r = R2 so that no triangle straddles an interface, and
each rectangular cell is split along its bottom-left to top-right diagonal.
Radial level nr_b is r = R1 and nr_b + nr_m is r = R2, so this module places
every vertex, boundary segment and triangle by grid index alone.

Orientation is counter-current: blood enters at x = 0, dialysate at x = L.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .exceptions import ConfigurationError, UsageError


class Subdomain(IntEnum):
    BLOOD = 0
    MEMBRANE = 1
    DIALYSATE = 2


class Boundary(Enum):
    """Boundary and interface segment tags.

    The two MEMBRANE_* tags cover the lateral membrane ends (x = 0 and
    x = L between R1 and R2), which carry no inlet/outlet semantics but are
    part of the domain boundary; BLOOD_MEMBRANE and DIALYSATE_MEMBRANE are
    interior interfaces.
    """

    INLET_BLOOD = "inlet_blood"            # x = 0, 0 <= r <= R1
    OUTLET_BLOOD = "outlet_blood"          # x = L, 0 <= r <= R1
    INLET_DIALYSATE = "inlet_dialysate"    # x = L, R2 <= r <= R
    OUTLET_DIALYSATE = "outlet_dialysate"  # x = 0, R2 <= r <= R
    AXIS = "axis"                          # r = 0
    OUTER = "outer"                        # r = R
    MEMBRANE_LEFT = "membrane_left"        # x = 0, R1 <= r <= R2
    MEMBRANE_RIGHT = "membrane_right"      # x = L, R1 <= r <= R2
    BLOOD_MEMBRANE = "blood_membrane"      # r = R1 (interior)
    DIALYSATE_MEMBRANE = "dialysate_membrane"  # r = R2 (interior)


@dataclass(frozen=True)
class AxiGeometry:
    """Nondimensional fiber geometry: 0 < R1 < R2 < R, L > 0."""

    L: float
    R1: float
    R2: float
    R: float = 1.0

    def __post_init__(self):
        if not (self.L > 0):
            raise ConfigurationError(f"fiber length must be positive, got L={self.L}")
        if not (0 < self.R1 < self.R2 < self.R):
            raise ConfigurationError(
                f"radii must satisfy 0 < R1 < R2 < R, got "
                f"R1={self.R1}, R2={self.R2}, R={self.R}"
            )


class Mesh:
    """Immutable structured triangulation with subdomain and boundary tags.

    Vertices lie on the tensor grid of ``x_levels`` x ``r_levels`` and are
    numbered row-major by radial level: ``index = j * (nx + 1) + i``;
    ``r_index`` holds each vertex's level j.
    """

    def __init__(self, geom: AxiGeometry, nx: int, nr_b: int, nr_m: int, nr_d: int):
        for name, n in (("nx", nx), ("nr_b", nr_b), ("nr_m", nr_m), ("nr_d", nr_d)):
            if int(n) < 1:
                raise ConfigurationError(f"resolution count {name} must be >= 1, got {n}")
        self.geom = geom
        self.nx = int(nx)
        self.nr_b = int(nr_b)
        self.nr_m = int(nr_m)
        self.nr_d = int(nr_d)

        self.x_levels = np.linspace(0.0, geom.L, self.nx + 1)
        self.r_levels = np.concatenate([
            np.linspace(0.0, geom.R1, self.nr_b + 1),
            np.linspace(geom.R1, geom.R2, self.nr_m + 1)[1:],
            np.linspace(geom.R2, geom.R, self.nr_d + 1)[1:],
        ])
        self.nr = self.nr_b + self.nr_m + self.nr_d

        xi, rj = np.meshgrid(self.x_levels, self.r_levels)
        self.vertices = np.column_stack([xi.ravel(), rj.ravel()])
        self.n_vertices = self.vertices.shape[0]

        self.triangles = self._build_triangles()
        self.n_triangles = self.triangles.shape[0]
        self.subdomain_of_triangle = self._label_subdomains()
        self.r_index = np.repeat(np.arange(self.nr + 1), self.nx + 1)

        # read-only views; the mesh is shared across concurrent solves
        for arr in (self.vertices, self.triangles, self.subdomain_of_triangle,
                    self.r_index, self.x_levels, self.r_levels):
            arr.flags.writeable = False

    # -- construction helpers -------------------------------------------------

    def node_index(self, i, j):
        """Grid node (i, j) -> global vertex index (vectorizes)."""
        return np.asarray(j) * (self.nx + 1) + np.asarray(i)

    def _build_triangles(self):
        i = np.arange(self.nx)
        j = np.arange(self.nr)
        ii, jj = np.meshgrid(i, j)
        v00 = self.node_index(ii, jj).ravel()
        v10 = self.node_index(ii + 1, jj).ravel()
        v01 = self.node_index(ii, jj + 1).ravel()
        v11 = self.node_index(ii + 1, jj + 1).ravel()
        lower = np.column_stack([v00, v10, v11])
        upper = np.column_stack([v00, v11, v01])
        return np.vstack([lower, upper]).astype(np.int64)

    def _label_subdomains(self):
        # cell row j (levels j to j + 1) is blood for j < nr_b, membrane for
        # j < nr_b + nr_m; lower and upper triangles list the cells alike
        row_label = np.repeat(np.array([Subdomain.BLOOD, Subdomain.MEMBRANE,
                                        Subdomain.DIALYSATE], dtype=np.int64),
                              [self.nr_b, self.nr_m, self.nr_d])
        return np.tile(np.repeat(row_label, self.nx), 2)

    # -- per-mesh data ---------------------------------------------------------

    @cached_property
    def fem(self) -> "FemData":
        """P1 geometric quantities shared by every assembly on this mesh."""
        return FemData(self)

    @cached_property
    def newton_pattern(self):
        """Fixed structure of the transport Newton system on this mesh
        (``transport.NewtonPattern``), built on the first solver that needs it."""
        from .transport import NewtonPattern  # transport builds on this module
        return NewtonPattern(self)

    # -- queries ---------------------------------------------------------------

    def edges_with_tag(self, tag: Boundary):
        """(E, 2) vertex-index pairs of the edges of segment ``tag``: its
        consecutive vertices, in ``boundary_vertices`` order."""
        v = boundary_vertices(self, tag)
        return np.column_stack([v[:-1], v[1:]])


class FemData:
    """Per-mesh P1 quantities: element areas and r-weights, basis gradients,
    midedge quadrature, r-weighted element masses and their vertex lumps."""

    def __init__(self, mesh: Mesh):
        tri = mesh.triangles
        p = mesh.vertices[tri]
        x1, r1 = p[:, 0, 0], p[:, 0, 1]
        x2, r2 = p[:, 1, 0], p[:, 1, 1]
        x3, r3 = p[:, 2, 0], p[:, 2, 1]
        det = (x2 - x1) * (r3 - r1) - (x3 - x1) * (r2 - r1)
        self.area = 0.5 * det
        self.rbar = (r1 + r2 + r3) / 3.0
        self.bx = np.stack([(r2 - r3), (r3 - r1), (r1 - r2)], axis=1) / det[:, None]
        self.br = np.stack([(x3 - x2), (x1 - x3), (x2 - x1)], axis=1) / det[:, None]
        # int_T r phi_a dA = area * (2 r_a + r_b + r_c) / 12 (exact)
        rloc = p[:, :, 1]
        self.mass_tri = self.area[:, None] * (rloc + rloc.sum(axis=1, keepdims=True)) / 12.0
        # midedge quadrature (degree-2 exact): points opposite each vertex
        self.phi_q = np.array([[0.5, 0.5, 0.0],
                               [0.0, 0.5, 0.5],
                               [0.5, 0.0, 0.5]])  # (q, a)
        self.r_q = rloc @ self.phi_q.T  # (T, q)

        self.is_blood = mesh.subdomain_of_triangle == Subdomain.BLOOD
        self.is_membrane = mesh.subdomain_of_triangle == Subdomain.MEMBRANE

        lump = np.zeros(mesh.n_vertices)
        np.add.at(lump, tri.ravel(), self.mass_tri.ravel())
        self.lump_all = lump
        lump_b = np.zeros(mesh.n_vertices)
        bt = tri[self.is_blood]
        np.add.at(lump_b, bt.ravel(), self.mass_tri[self.is_blood].ravel())
        self.lump_blood = lump_b


def build_structured_mesh(geom: AxiGeometry, nx: int, nr_b: int, nr_m: int, nr_d: int) -> Mesh:
    """Build the tagged structured triangulation of (0,L) x (0,R)."""
    return Mesh(geom, nx, nr_b, nr_m, nr_d)


def prolongation(coarse: Mesh, fine: Mesh) -> sp.csr_matrix:
    """P1 interpolation from ``coarse`` to ``fine``, the mesh with twice each
    of its resolution counts: the (fine.n_vertices, coarse.n_vertices) matrix
    P with ``fine_values = P @ coarse_values``.

    Fine node (i, j) copies coarse node (i/2, j/2) when both indices are even,
    takes the mean of the two ends of the coarse edge it halves when one is
    odd, and, at a coarse cell's center, the mean of the ends of the cell's
    bottom-left to top-right diagonal (the split ``Mesh`` uses).  Built from
    grid indices alone: the two meshes' levels may differ in the last bit.
    """
    counts = ("nx", "nr_b", "nr_m", "nr_d")
    if fine.geom != coarse.geom or any(getattr(fine, n) != 2 * getattr(coarse, n)
                                       for n in counts):
        raise UsageError("prolongation needs a fine mesh with twice each resolution "
                         "count of the coarse mesh on the same geometry")
    jj, ii = np.divmod(np.arange(fine.n_vertices), fine.nx + 1)
    # ends of the coarse segment through each fine node; the same node twice
    # on a coarse node, whose two halves add up to an exact 1.0
    ends = [coarse.node_index(ii // 2, jj // 2),
            coarse.node_index((ii + 1) // 2, (jj + 1) // 2)]
    rows = np.tile(np.arange(fine.n_vertices), 2)
    return sp.csr_matrix((np.full(rows.size, 0.5), (rows, np.concatenate(ends))),
                         shape=(fine.n_vertices, coarse.n_vertices))


def boundary_vertices(mesh: Mesh, tag: Boundary) -> np.ndarray:
    """Vertex indices on a tagged segment, ordered by increasing r (vertical
    segments) or increasing x (horizontal ones), which is increasing index
    in the row-major numbering.  Segment endpoints are included."""
    if not isinstance(tag, Boundary):
        raise UsageError(f"unknown boundary tag: {tag!r}")
    nx, jb, jm, J = mesh.nx, mesh.nr_b, mesh.nr_b + mesh.nr_m, mesh.nr
    # (x index range, r index range) of each segment, both inclusive
    (i0, i1), (j0, j1) = {
        Boundary.INLET_BLOOD: ((0, 0), (0, jb)),
        Boundary.OUTLET_BLOOD: ((nx, nx), (0, jb)),
        Boundary.INLET_DIALYSATE: ((nx, nx), (jm, J)),
        Boundary.OUTLET_DIALYSATE: ((0, 0), (jm, J)),
        Boundary.AXIS: ((0, nx), (0, 0)),
        Boundary.OUTER: ((0, nx), (J, J)),
        Boundary.MEMBRANE_LEFT: ((0, 0), (jb, jm)),
        Boundary.MEMBRANE_RIGHT: ((nx, nx), (jb, jm)),
        Boundary.BLOOD_MEMBRANE: ((0, nx), (jb, jb)),
        Boundary.DIALYSATE_MEMBRANE: ((0, nx), (jm, jm)),
    }[tag]
    # one of the two ranges is a single index, so the grid is one run
    return mesh.node_index(np.arange(i0, i1 + 1), np.arange(j0, j1 + 1)[:, None]).ravel()
