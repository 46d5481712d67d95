import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberdialysis.exceptions import ConfigurationError, UsageError
from fiberdialysis.mesh import (AxiGeometry, Boundary, Subdomain, boundary_vertices,
                                build_structured_mesh, prolongation)

GEOM = AxiGeometry(L=1.0, R1=0.4, R2=0.6, R=1.0)


def test_minimal_mesh_counts():
    mesh = build_structured_mesh(GEOM, 1, 1, 1, 1)
    assert mesh.n_vertices == 8
    assert mesh.n_triangles == 6


def test_vertex_and_triangle_count_formula():
    mesh = build_structured_mesh(GEOM, 5, 3, 2, 4)
    nr = 3 + 2 + 4
    assert mesh.n_vertices == 6 * (nr + 1)
    assert mesh.n_triangles == 2 * 5 * nr


def test_all_triangles_positively_oriented():
    mesh = build_structured_mesh(GEOM, 4, 2, 2, 3)
    assert np.all(mesh.fem.area > 0)


def test_areas_sum_to_rectangle():
    mesh = build_structured_mesh(GEOM, 7, 3, 2, 5)
    total = mesh.fem.area.sum()
    assert total == pytest.approx(GEOM.L * GEOM.R, rel=1e-12)


def test_blood_label_from_centroid():
    mesh = build_structured_mesh(GEOM, 3, 2, 1, 2)
    r_c = mesh.vertices[mesh.triangles, 1].mean(axis=1)
    blood = mesh.subdomain_of_triangle == Subdomain.BLOOD
    assert np.array_equal(blood, r_c < GEOM.R1)


def test_interface_gridline_alignment():
    geom = AxiGeometry(L=1.0, R1=0.5, R2=0.7, R=1.0)
    mesh = build_structured_mesh(geom, 2, 2, 1, 2)
    assert 0.5 in mesh.r_levels
    assert 0.7 in mesh.r_levels


def test_refinement_quadruples_triangles():
    coarse = build_structured_mesh(GEOM, 3, 2, 1, 2)
    fine = build_structured_mesh(GEOM, 6, 4, 2, 4)
    assert fine.n_triangles == 4 * coarse.n_triangles


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(1, 6), nr_b=st.integers(1, 4),
       nr_m=st.integers(1, 3), nr_d=st.integers(1, 4))
def test_counting_invariants_hold(nx, nr_b, nr_m, nr_d):
    mesh = build_structured_mesh(GEOM, nx, nr_b, nr_m, nr_d)
    nr = nr_b + nr_m + nr_d
    assert mesh.n_vertices == (nx + 1) * (nr + 1)
    assert mesh.n_triangles == 2 * nx * nr
    assert mesh.fem.area.sum() == pytest.approx(GEOM.L * GEOM.R, rel=1e-12)


def test_interface_vertices_touch_two_subdomains():
    mesh = build_structured_mesh(GEOM, 3, 2, 2, 2)
    for tag, pair in [(Boundary.BLOOD_MEMBRANE, {Subdomain.BLOOD, Subdomain.MEMBRANE}),
                      (Boundary.DIALYSATE_MEMBRANE, {Subdomain.MEMBRANE, Subdomain.DIALYSATE})]:
        for v in boundary_vertices(mesh, tag):
            touching = {Subdomain(mesh.subdomain_of_triangle[t])
                        for t in np.flatnonzero((mesh.triangles == v).any(axis=1))}
            assert touching == pair


def test_boundary_cover_is_exact():
    mesh = build_structured_mesh(GEOM, 3, 2, 1, 2)
    # every domain-boundary edge of the triangulation carries exactly one tag
    exterior = [Boundary.INLET_BLOOD, Boundary.OUTLET_BLOOD, Boundary.INLET_DIALYSATE,
                Boundary.OUTLET_DIALYSATE, Boundary.AXIS, Boundary.OUTER,
                Boundary.MEMBRANE_LEFT, Boundary.MEMBRANE_RIGHT]
    tagged = [tuple(sorted(e)) for tag in exterior for e in mesh.edges_with_tag(tag).tolist()]
    assert len(tagged) == len(set(tagged))
    # the domain boundary: the edges of exactly one triangle
    count = {}
    for t in mesh.triangles.tolist():
        for a, b in ((0, 1), (1, 2), (2, 0)):
            key = tuple(sorted((t[a], t[b])))
            count[key] = count.get(key, 0) + 1
    assert set(tagged) == {e for e, n in count.items() if n == 1}
    assert len(tagged) == 2 * mesh.nx + 2 * mesh.nr
    # the two interfaces run along edges shared by two triangles
    for tag in (Boundary.BLOOD_MEMBRANE, Boundary.DIALYSATE_MEMBRANE):
        assert all(count[tuple(sorted(e))] == 2 for e in mesh.edges_with_tag(tag).tolist())


def test_outlet_blood_vertices_minimal():
    mesh = build_structured_mesh(GEOM, 1, 1, 1, 1)
    idx = boundary_vertices(mesh, Boundary.OUTLET_BLOOD)
    assert idx.size == 2
    assert np.allclose(mesh.vertices[idx, 0], GEOM.L)
    assert sorted(mesh.vertices[idx, 1]) == [0.0, GEOM.R1]


def test_axis_vertices():
    mesh = build_structured_mesh(GEOM, 4, 2, 1, 2)
    idx = boundary_vertices(mesh, Boundary.AXIS)
    assert np.all(mesh.vertices[idx, 1] == 0.0)
    assert idx.size == mesh.nx + 1
    # ordered by increasing x
    assert np.all(np.diff(mesh.vertices[idx, 0]) > 0)


def test_blood_membrane_vertex_count():
    mesh = build_structured_mesh(GEOM, 6, 2, 1, 2)
    idx = boundary_vertices(mesh, Boundary.BLOOD_MEMBRANE)
    assert idx.size == mesh.nx + 1
    assert np.allclose(mesh.vertices[idx, 1], GEOM.R1)


def _vertices_by_coordinates(mesh, tag):
    """The vertices of a tagged segment selected by their coordinates, sorted
    by r (vertical segments) or x (horizontal ones)."""
    g = mesh.geom
    x, r = mesh.vertices[:, 0], mesh.vertices[:, 1]
    tol = 1e-12 * max(g.L, g.R)
    horizontal = {Boundary.AXIS: 0.0, Boundary.OUTER: g.R,
                  Boundary.BLOOD_MEMBRANE: g.R1, Boundary.DIALYSATE_MEMBRANE: g.R2}
    vertical = {Boundary.INLET_BLOOD: (0.0, 0.0, g.R1),
                Boundary.OUTLET_BLOOD: (g.L, 0.0, g.R1),
                Boundary.INLET_DIALYSATE: (g.L, g.R2, g.R),
                Boundary.OUTLET_DIALYSATE: (0.0, g.R2, g.R),
                Boundary.MEMBRANE_LEFT: (0.0, g.R1, g.R2),
                Boundary.MEMBRANE_RIGHT: (g.L, g.R1, g.R2)}
    if tag in horizontal:
        mask, key = np.abs(r - horizontal[tag]) <= tol, x
    else:
        x0, lo, hi = vertical[tag]
        mask, key = (np.abs(x - x0) <= tol) & (r >= lo - tol) & (r <= hi + tol), r
    idx = np.flatnonzero(mask)
    return idx[np.argsort(key[idx], kind="stable")]


@pytest.mark.parametrize("geom", [GEOM, AxiGeometry(L=3.0, R1=0.35, R2=0.5, R=1.2)])
@pytest.mark.parametrize("res", [(1, 1, 1, 1), (24, 4, 3, 4), (40, 6, 4, 5),
                                 (80, 12, 8, 10), (7, 3, 2, 5)])
def test_boundary_vertices_match_coordinate_selection(geom, res):
    mesh = build_structured_mesh(geom, *res)
    for tag in Boundary:
        assert np.array_equal(boundary_vertices(mesh, tag),
                              _vertices_by_coordinates(mesh, tag))


@pytest.mark.parametrize("geom", [GEOM, AxiGeometry(L=3.0, R1=0.35, R2=0.5, R=1.2)])
@pytest.mark.parametrize("res", [(1, 1, 1, 1), (24, 4, 3, 4), (40, 6, 4, 5),
                                 (80, 12, 8, 10), (7, 3, 2, 5)])
def test_subdomains_and_levels_match_coordinate_rules(geom, res):
    """Grid-index answers against the coordinate rules they replace: a
    triangle's subdomain from its centroid radius, a vertex's radial level
    as the level its r coordinate equals."""
    mesh = build_structured_mesh(geom, *res)
    r_c = mesh.vertices[mesh.triangles, 1].mean(axis=1)
    by_centroid = np.full(mesh.n_triangles, Subdomain.DIALYSATE, dtype=np.int64)
    by_centroid[r_c < geom.R2] = Subdomain.MEMBRANE
    by_centroid[r_c < geom.R1] = Subdomain.BLOOD
    assert mesh.subdomain_of_triangle.dtype == by_centroid.dtype
    assert np.array_equal(mesh.subdomain_of_triangle, by_centroid)
    r = mesh.vertices[:, 1]
    level = np.searchsorted(mesh.r_levels, r)
    assert np.array_equal(mesh.r_levels[level], r)
    assert np.array_equal(mesh.r_index, level)


def test_invalid_geometry_rejected():
    with pytest.raises(ConfigurationError):
        AxiGeometry(L=1.0, R1=0.7, R2=0.6, R=1.0)
    with pytest.raises(ConfigurationError):
        AxiGeometry(L=-1.0, R1=0.4, R2=0.6, R=1.0)


def test_zero_resolution_rejected():
    with pytest.raises(ConfigurationError):
        build_structured_mesh(GEOM, 0, 1, 1, 1)


def test_unknown_tag_rejected():
    mesh = build_structured_mesh(GEOM, 1, 1, 1, 1)
    with pytest.raises(UsageError):
        boundary_vertices(mesh, "not-a-tag")


def test_mesh_is_immutable():
    mesh = build_structured_mesh(GEOM, 2, 1, 1, 1)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 99.0
    with pytest.raises(ValueError):
        mesh.r_index[0] = 1



# -- prolongation to the refined mesh ------------------------------------------------

NESTED = [(2, 2, 2, 2), (16, 4, 4, 4), (80, 12, 8, 10)]


def _mesh_pair(res):
    """(coarse, fine): the mesh with half of each count in ``res``, and ``res``."""
    return (build_structured_mesh(GEOM, *(n // 2 for n in res)),
            build_structured_mesh(GEOM, *res))


def _barycentric(coarse, values, points):
    """Oracle: locate each point's coarse cell by its coordinates and
    interpolate linearly on the cell's lower (s >= t) or upper triangle."""
    x, r = points[:, 0], points[:, 1]
    i = np.clip(np.searchsorted(coarse.x_levels, x, side="right") - 1, 0, coarse.nx - 1)
    j = np.clip(np.searchsorted(coarse.r_levels, r, side="right") - 1, 0, coarse.nr - 1)
    s = (x - coarse.x_levels[i]) / (coarse.x_levels[i + 1] - coarse.x_levels[i])
    t = (r - coarse.r_levels[j]) / (coarse.r_levels[j + 1] - coarse.r_levels[j])
    v00, v10 = values[coarse.node_index(i, j)], values[coarse.node_index(i + 1, j)]
    v01, v11 = values[coarse.node_index(i, j + 1)], values[coarse.node_index(i + 1, j + 1)]
    lower = (1 - s) * v00 + (s - t) * v10 + t * v11
    upper = (1 - t) * v00 + (t - s) * v01 + s * v11
    return np.where(s >= t, lower, upper)


@pytest.mark.parametrize("res", NESTED)
def test_prolongation_copies_coarse_nodes_and_sums_rows_to_one(res):
    coarse, fine = _mesh_pair(res)
    P = prolongation(coarse, fine)
    assert P.shape == (fine.n_vertices, coarse.n_vertices)
    assert np.all(np.asarray(P.sum(axis=1)).ravel() == 1.0)
    v = np.random.default_rng(3).normal(size=coarse.n_vertices)
    ii, jj = np.meshgrid(np.arange(coarse.nx + 1), np.arange(coarse.nr + 1))
    on_coarse = fine.node_index(2 * ii, 2 * jj).ravel()
    assert np.array_equal((P @ v)[on_coarse], v[coarse.node_index(ii, jj).ravel()])


@pytest.mark.parametrize("res", NESTED)
def test_prolongation_reproduces_linear_functions(res):
    coarse, fine = _mesh_pair(res)
    P = prolongation(coarse, fine)

    def linear(pts):
        return 0.7 - 1.3 * pts[:, 0] + 2.1 * pts[:, 1]

    assert np.max(np.abs(P @ linear(coarse.vertices) - linear(fine.vertices))) <= 1e-14


@pytest.mark.parametrize("res", NESTED)
def test_prolongation_matches_barycentric_interpolation(res):
    coarse, fine = _mesh_pair(res)
    v = np.random.default_rng(11).uniform(-1.0, 1.0, size=coarse.n_vertices)
    expected = _barycentric(coarse, v, fine.vertices)
    assert np.max(np.abs(prolongation(coarse, fine) @ v - expected)) <= 1e-12


def test_prolongation_rejects_meshes_that_do_not_nest():
    coarse = build_structured_mesh(GEOM, 2, 2, 2, 2)
    with pytest.raises(UsageError):
        prolongation(coarse, build_structured_mesh(GEOM, 4, 4, 4, 3))
    other = AxiGeometry(L=2.0, R1=0.4, R2=0.6, R=1.0)
    with pytest.raises(UsageError):
        prolongation(coarse, build_structured_mesh(other, 4, 4, 4, 4))
