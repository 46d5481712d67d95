"""Structured triangulation of the axisymmetric fiber cross-section.

The computational domain is the rectangle (0, L) x (0, R) in (x, r)
coordinates, split radially into the blood channel (0, R1), the porous
membrane (R1, R2) and the dialysate channel (R2, R).  Grid lines are placed
exactly on r = R1 and r = R2 so that no triangle straddles an interface, and
each rectangular cell is split along its bottom-left to top-right diagonal.

Orientation is counter-current: blood enters at x = 0, dialysate at x = L.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property

import numpy as np

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
    numbered row-major by radial level: ``index = j * (nx + 1) + i``.
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
        self.boundary_edges, self.edge_tags = self._tag_edges()

        # read-only views; the mesh is shared across concurrent solves
        for arr in (self.vertices, self.triangles, self.subdomain_of_triangle,
                    self.boundary_edges, self.edge_tags, self.x_levels, self.r_levels):
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
        r_c = self.vertices[self.triangles, 1].mean(axis=1)
        labels = np.full(self.n_triangles, Subdomain.DIALYSATE, dtype=np.int64)
        labels[r_c < self.geom.R2] = Subdomain.MEMBRANE
        labels[r_c < self.geom.R1] = Subdomain.BLOOD
        return labels

    def _tag_edges(self):
        geom = self.geom
        nx, J = self.nx, self.nr
        jb = self.nr_b            # r-level index of R1
        jm = self.nr_b + self.nr_m  # r-level index of R2
        edges, tags = [], []

        def add(v0, v1, tag):
            edges.append((v0, v1))
            tags.append(tag)

        for i in range(nx):  # horizontal runs
            add(self.node_index(i, 0), self.node_index(i + 1, 0), Boundary.AXIS)
            add(self.node_index(i, J), self.node_index(i + 1, J), Boundary.OUTER)
            add(self.node_index(i, jb), self.node_index(i + 1, jb), Boundary.BLOOD_MEMBRANE)
            add(self.node_index(i, jm), self.node_index(i + 1, jm), Boundary.DIALYSATE_MEMBRANE)
        for j in range(J):  # vertical runs on x = 0 and x = L
            if j < jb:
                left, right = Boundary.INLET_BLOOD, Boundary.OUTLET_BLOOD
            elif j < jm:
                left, right = Boundary.MEMBRANE_LEFT, Boundary.MEMBRANE_RIGHT
            else:
                left, right = Boundary.OUTLET_DIALYSATE, Boundary.INLET_DIALYSATE
            add(self.node_index(0, j), self.node_index(0, j + 1), left)
            add(self.node_index(nx, j), self.node_index(nx, j + 1), right)

        edge_arr = np.array(edges, dtype=np.int64)
        tag_arr = np.array([t.value for t in tags], dtype=object)
        return edge_arr, tag_arr

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
        """(E, 2) vertex-index pairs of all edges carrying ``tag``."""
        mask = self.edge_tags == tag.value
        return self.boundary_edges[mask]

    def triangle_areas(self):
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def dump_text(self, path):
        """Debug dump: vertex table, triangle table with subdomain, edge tags."""
        with open(path, "w") as fh:
            fh.write(f"# mesh nx={self.nx} nr_b={self.nr_b} nr_m={self.nr_m} nr_d={self.nr_d}\n")
            fh.write(f"vertices {self.n_vertices}\n")
            for k, (x, r) in enumerate(self.vertices):
                fh.write(f"{k} {x!r} {r!r}\n")
            fh.write(f"triangles {self.n_triangles}\n")
            for k in range(self.n_triangles):
                a, b, c = self.triangles[k]
                fh.write(f"{k} {a} {b} {c} {Subdomain(self.subdomain_of_triangle[k]).name}\n")
            fh.write(f"edges {len(self.boundary_edges)}\n")
            for (a, b), t in zip(self.boundary_edges, self.edge_tags):
                fh.write(f"{a} {b} {t}\n")


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


def boundary_vertices(mesh: Mesh, tag: Boundary) -> np.ndarray:
    """Vertex indices on a tagged segment, ordered by increasing r (vertical
    segments) or increasing x (horizontal ones).  Segment endpoints are
    included."""
    if not isinstance(tag, Boundary):
        raise UsageError(f"unknown boundary tag: {tag!r}")
    geom = mesh.geom
    x = mesh.vertices[:, 0]
    r = mesh.vertices[:, 1]
    tol = 1e-12 * max(geom.L, geom.R)

    def on_vertical(x0, r_lo, r_hi):
        return (np.abs(x - x0) <= tol) & (r >= r_lo - tol) & (r <= r_hi + tol)

    if tag is Boundary.INLET_BLOOD:
        mask = on_vertical(0.0, 0.0, geom.R1)
    elif tag is Boundary.OUTLET_BLOOD:
        mask = on_vertical(geom.L, 0.0, geom.R1)
    elif tag is Boundary.INLET_DIALYSATE:
        mask = on_vertical(geom.L, geom.R2, geom.R)
    elif tag is Boundary.OUTLET_DIALYSATE:
        mask = on_vertical(0.0, geom.R2, geom.R)
    elif tag is Boundary.MEMBRANE_LEFT:
        mask = on_vertical(0.0, geom.R1, geom.R2)
    elif tag is Boundary.MEMBRANE_RIGHT:
        mask = on_vertical(geom.L, geom.R1, geom.R2)
    elif tag is Boundary.AXIS:
        mask = np.abs(r) <= tol
    elif tag is Boundary.OUTER:
        mask = np.abs(r - geom.R) <= tol
    elif tag is Boundary.BLOOD_MEMBRANE:
        mask = np.abs(r - geom.R1) <= tol
    elif tag is Boundary.DIALYSATE_MEMBRANE:
        mask = np.abs(r - geom.R2) <= tol
    else:  # pragma: no cover - enum is exhaustive
        raise UsageError(f"unknown boundary tag: {tag!r}")

    idx = np.flatnonzero(mask)
    key = r[idx] if tag.value.startswith(("inlet", "outlet", "membrane")) else x[idx]
    return idx[np.argsort(key, kind="stable")]
