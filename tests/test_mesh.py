import json

import numpy as np
import pytest
from scipy import sparse
from scipy.spatial import Delaunay as ScipyDelaunay

from meshtomo.core import FormatError, Grid, Image, Seed
from meshtomo.mesh import (StackedBasis, SubspaceBasis, TriMesh, delaunay_triangulate,
                           delaunay_violations, gaussian_subspace_projector, load_basis,
                           load_mesh, mesh_with_k_triangles, rasterize,
                           sample_poisson_points, save_basis, save_mesh)

CORNERS = {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}


def brute_force_violations(mesh, tol=1e-9):
    """Independent empty-circumcircle check via explicit circumcenters."""
    count = 0
    v = mesh.vertices
    for a, b, c in mesh.triangles:
        pa, pb, pc = v[a], v[b], v[c]
        d = 2 * (pa[0] * (pb[1] - pc[1]) + pb[0] * (pc[1] - pa[1]) + pc[0] * (pa[1] - pb[1]))
        ux = ((pa @ pa) * (pb[1] - pc[1]) + (pb @ pb) * (pc[1] - pa[1])
              + (pc @ pc) * (pa[1] - pb[1])) / d
        uy = ((pa @ pa) * (pc[0] - pb[0]) + (pb @ pb) * (pa[0] - pc[0])
              + (pc @ pc) * (pb[0] - pa[0])) / d
        r = np.hypot(pa[0] - ux, pa[1] - uy)
        for vi in range(len(v)):
            if vi in (a, b, c):
                continue
            if np.hypot(v[vi, 0] - ux, v[vi, 1] - uy) < r - tol:
                count += 1
    return count


def test_empty_square_is_two_corner_triangles():
    mesh = delaunay_triangulate([])
    assert mesh.triangle_count == 2
    assert {tuple(v) for v in mesh.vertices} == CORNERS
    # both triangles share the (0,0)-(1,1) diagonal
    edges = set()
    for t in mesh.triangles:
        for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            edges.add(tuple(sorted(e)))
    i00 = next(i for i, v in enumerate(mesh.vertices) if tuple(v) == (0.0, 0.0))
    i11 = next(i for i, v in enumerate(mesh.vertices) if tuple(v) == (1.0, 1.0))
    assert tuple(sorted((i00, i11))) in edges
    assert np.all(mesh.areas() > 0)  # CCW orientation
    assert mesh.areas().sum() == pytest.approx(1.0)


def test_delaunay_matches_scipy_oracle():
    for trial in range(20):
        rng = Seed(100 + trial).rng()
        pts = rng.random((12, 2))
        mesh = delaunay_triangulate(pts)
        ours = {frozenset(t) for t in mesh.triangles}
        theirs = {frozenset(t) for t in ScipyDelaunay(mesh.vertices).simplices}
        assert ours == theirs


def test_delaunay_no_violations_and_tiles_square():
    point_sets = [Seed(7 * trial + 1).rng().random((30, 2)) for trial in range(10)]
    # co-circular and collinear inputs: the centre, three points on the
    # diagonal, the four edge midpoints and the lattice i/4
    point_sets += [
        [(0.5, 0.5)],
        [(0.25, 0.25), (0.5, 0.5), (0.75, 0.75)],
        [(0.5, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 0.5)],
        [(i / 4, j / 4) for i in range(5) for j in range(5)],
    ]
    for pts in point_sets:
        mesh = delaunay_triangulate(pts)
        assert delaunay_violations(mesh) == 0
        assert brute_force_violations(mesh) == 0
        assert mesh.areas().sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(mesh.areas() > 0)
        # Euler: i interior and b non-corner boundary vertices give 2i + b + 2
        on_boundary = np.any((mesh.vertices == 0.0) | (mesh.vertices == 1.0), axis=1)
        interior = int((~on_boundary).sum())
        boundary = int(on_boundary.sum()) - 4
        assert mesh.triangle_count == 2 * interior + boundary + 2


def test_delaunay_violations_flags_bad_mesh():
    # (0.2, 0.8) lies inside the circumcircle of the first triangle
    bad = TriMesh(np.array([[0, 0], [1, 0], [1, 1], [0.2, 0.8]], dtype=float),
                  np.array([[0, 1, 2], [0, 2, 3]]))
    assert delaunay_violations(bad) > 0
    assert brute_force_violations(bad) > 0


def test_delaunay_rejects_outside_points():
    with pytest.raises(ValueError, match="outside"):
        delaunay_triangulate([(1.5, 0.5)])


def test_delaunay_rejects_near_coincident_points():
    # closer to another vertex than Qhull can separate: rejected, never left
    # out of the triangulation as an orphan vertex
    for pts in ([(1e-16, 0.0)], [(0.0, 1e-15)], [(0.3, 0.4), (0.3 + 1e-15, 0.4)]):
        with pytest.raises(ValueError, match="cannot be separated"):
            delaunay_triangulate(pts)


def test_delaunay_dedupes_exact_copies():
    pts = [(0.3, 0.4), (0.3, 0.4), (0.7, 0.6)]
    mesh = delaunay_triangulate(pts)
    assert len(mesh.vertices) == 2 + 4


def test_mesh_with_k_triangles_exact():
    for k in (2, 3, 5, 10, 17, 24, 40, 51):
        for s in (0, 1, 2):
            mesh = mesh_with_k_triangles(k, Seed(k * 10 + s))
            assert mesh.triangle_count == k
            assert delaunay_violations(mesh) == 0
            assert mesh.areas().sum() == pytest.approx(1.0, abs=1e-12)
            verts = {tuple(v) for v in mesh.vertices}
            assert CORNERS <= verts
            # canonical rows: CCW, lowest vertex index first, rows sorted
            tri = mesh.triangles
            assert np.all(mesh.areas() > 0)
            assert np.all(tri[:, 0] < tri[:, 1:].min(axis=1))
            assert [tuple(t) for t in tri] == sorted(tuple(t) for t in tri)


def test_odd_k_uses_one_boundary_point():
    # interior points change the count by 2; odd counts need a boundary vertex
    mesh = mesh_with_k_triangles(9, Seed(5))
    on_edge = [
        (x, y) for x, y in map(tuple, mesh.vertices)
        if ((x in (0.0, 1.0)) != (y in (0.0, 1.0)))
    ]
    assert len(on_edge) == 1


def test_mesh_with_k_rejects_bad_k():
    with pytest.raises(ValueError):
        mesh_with_k_triangles(1, Seed(0))
    with pytest.raises(ValueError):
        mesh_with_k_triangles(2.5, Seed(0))


def test_mesh_json_round_trip(tmp_path):
    mesh = mesh_with_k_triangles(12, Seed(3))
    p = tmp_path / "mesh.json"
    save_mesh(mesh, p)
    back = load_mesh(p)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    obj = json.loads(p.read_text())
    assert set(obj) == {"vertices", "triangles"}


def test_load_mesh_rejects_meshes_that_do_not_tile(tmp_path):
    square = [[0, 0], [1, 0], [0, 1], [1, 1]]
    cases = {
        "outside": ([[0, 0], [1, 0], [0, 1], [1, 1.5]], [[0, 1, 3], [0, 3, 2]]),
        "CCW": (square, [[0, 3, 1], [0, 3, 2]]),
        "sum": (square, [[0, 1, 3]]),  # covers half the square
    }
    for match, (verts, tris) in cases.items():
        obj = {"vertices": verts, "triangles": tris}
        with pytest.raises(FormatError, match=match):
            TriMesh.from_dict(obj)
        mesh_path = tmp_path / f"{match}-mesh.json"
        mesh_path.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match=match):
            load_mesh(mesh_path)
        basis_path = tmp_path / f"{match}-basis.json"
        basis_path.write_text(json.dumps({"grid_side": 4, "mesh": obj}))
        with pytest.raises(FormatError, match=match):
            load_basis(basis_path)


def test_sample_poisson_points_statistics():
    counts = [len(sample_poisson_points(12.0, Seed(0).derive(i))) for i in range(400)]
    mean = np.mean(counts)
    # Poisson(12): SE of the mean over 400 draws is sqrt(12/400) ~ 0.17
    assert abs(mean - 12.0) < 4 * np.sqrt(12.0 / 400)
    pts = sample_poisson_points(30.0, Seed(8))
    assert pts.shape[1] == 2
    assert pts.min() >= 0.0 and pts.max() <= 1.0
    with pytest.raises(ValueError):
        sample_poisson_points(0.0, Seed(0))


def test_rasterize_two_by_two_example():
    mesh = delaunay_triangulate([])
    basis = rasterize(mesh, Grid(2))
    # centers on the (0,0)-(1,1) diagonal tie-break to the lowest triangle index
    assert np.array_equal(basis.assignment, [0, 0, 1, 0])
    assert np.array_equal(basis.counts, [3, 1])


def test_rasterize_partitions_all_pixels():
    grid = Grid(16)
    for trial in range(10):
        mesh = mesh_with_k_triangles(14 + trial, Seed(trial))
        basis = rasterize(mesh, grid)
        assert basis.assignment.shape == (grid.n_pixels,)
        assert basis.assignment.min() >= 0
        assert basis.counts.sum() == grid.n_pixels
        assert np.all(basis.counts > 0)
        assert len(basis.kept) == basis.k <= mesh.triangle_count
        # every assigned pixel center is inside (or on the edge of) its triangle
        v = mesh.vertices
        for p_idx in range(0, grid.n_pixels, 23):
            t = mesh.triangles[basis.kept[basis.assignment[p_idx]]]
            px, py = grid.centers()[p_idx]
            a, b, c = v[t[0]], v[t[1]], v[t[2]]
            signs = []
            for (x1, y1), (x2, y2) in ((a, b), (b, c), (c, a)):
                signs.append((x2 - x1) * (py - y1) - (y2 - y1) * (px - x1))
            assert min(signs) >= -1e-9


def test_basis_columns_orthonormal():
    grid = Grid(12)
    mesh = mesh_with_k_triangles(10, Seed(2))
    basis = rasterize(mesh, grid)
    mat = basis.to_sparse().toarray()
    gram = mat.T @ mat
    assert np.allclose(gram, np.eye(basis.k), atol=1e-12)


def test_projector_properties():
    grid = Grid(12)
    for trial in range(20):
        mesh = mesh_with_k_triangles(8 + (trial % 7), Seed(trial + 50))
        basis = rasterize(mesh, grid)
        rng = Seed(trial).rng()
        x = Image(grid, rng.standard_normal(grid.n_pixels))
        px = basis.project(x)
        # idempotent
        assert np.allclose(basis.project(px).values, px.values, atol=1e-10)
        # self-adjoint: <Px, y> == <x, Py>
        y = Image(grid, rng.standard_normal(grid.n_pixels))
        assert np.isclose(px.values @ y.values, x.values @ basis.project(y).values,
                          atol=1e-10)
        # Parseval: ||B^T x|| == ||Px||
        assert np.isclose(np.linalg.norm(basis.coeffs(x)),
                          np.linalg.norm(px.values), atol=1e-10)
        # constants are piecewise constant on any mesh
        ones = Image(grid, np.ones(grid.n_pixels))
        assert np.allclose(basis.project(ones).values, 1.0, atol=1e-12)


def test_synthesize_coeffs_round_trip():
    grid = Grid(8)
    basis = rasterize(mesh_with_k_triangles(6, Seed(4)), grid)
    rng = Seed(9).rng()
    q = rng.standard_normal(basis.k)
    img = basis.synthesize(q)
    assert np.allclose(basis.coeffs(img), q, atol=1e-12)
    with pytest.raises(ValueError):
        basis.synthesize(np.zeros(basis.k + 1))
    with pytest.raises(ValueError):
        basis.coeffs(Image.zeros(Grid(9)))


def test_stacked_basis_layout():
    grid = Grid(10)
    bases = [rasterize(mesh_with_k_triangles(6 + i, Seed(20 + i)), grid) for i in range(3)]
    stack = StackedBasis(bases)
    assert stack.total_k == sum(b.k for b in bases)
    x = Image(grid, Seed(1).rng().standard_normal(100))
    q = stack.coeffs(x)
    parts = stack.split(q)
    assert len(parts) == 3
    for part, b in zip(parts, bases):
        assert np.array_equal(part, b.coeffs(x))
    # synthesize is the sum of the per-basis syntheses
    total = sum(b.synthesize(p).values for b, p in zip(bases, parts))
    assert np.allclose(stack.synthesize(q).values, total, atol=1e-12)
    dense = stack.to_sparse().toarray()
    assert dense.shape == (100, stack.total_k)
    # the direct CSR build equals hstack over per-mesh matrices built from
    # (row, column) pairs, for one and three meshes, one of them with
    # triangles that hold no pixel centre
    holed = rasterize(mesh_with_k_triangles(40, Seed(23)), grid)
    assert holed.k < holed.mesh.triangle_count
    for members in ([holed], [bases[0], holed, bases[2]]):
        got = StackedBasis(members).to_sparse()
        ref = sparse.hstack([sparse.csr_matrix((1.0 / np.sqrt(b.counts)[b.assignment],
                                                (np.arange(100), b.assignment)),
                                               shape=(100, b.k)) for b in members],
                            format="csr")
        for attr in ("indices", "indptr", "data"):
            assert getattr(got, attr).dtype == getattr(ref, attr).dtype
            assert np.array_equal(getattr(got, attr), getattr(ref, attr))
        assert got.shape == ref.shape
        assert got.has_sorted_indices and ref.has_sorted_indices
        if len(members) == 1:
            one = members[0].to_sparse()
            assert all(np.array_equal(getattr(one, a), getattr(ref, a))
                       for a in ("indices", "indptr", "data"))
    with pytest.raises(ValueError):
        StackedBasis([])
    with pytest.raises(ValueError):
        StackedBasis([bases[0], rasterize(bases[0].mesh, Grid(11))])


def test_basis_save_load(tmp_path):
    grid = Grid(9)
    basis = rasterize(mesh_with_k_triangles(7, Seed(6)), grid)
    p = tmp_path / "basis.json"
    save_basis(basis, p)
    back = load_basis(p)
    assert back.grid == grid
    assert np.array_equal(back.assignment, basis.assignment)
    assert np.array_equal(back.counts, basis.counts)
    assert np.array_equal(back.kept, basis.kept)


def test_gaussian_subspace_projector_shape_and_idempotence():
    p = gaussian_subspace_projector(16, 4, Seed(11))
    assert p.shape == (16, 16)
    assert np.allclose(p, p.T, atol=1e-12)
    assert np.allclose(p @ p, p, atol=1e-10)
    assert np.trace(p) == pytest.approx(4.0, abs=1e-9)
    with pytest.raises(ValueError):
        gaussian_subspace_projector(16, 16, Seed(0))
    with pytest.raises(ValueError):
        gaussian_subspace_projector(16, 0, Seed(0))


def test_gaussian_subspace_energy_ratio():
    # E ||Px||^2 / ||x||^2 = k/n for x uniform on the sphere
    n, k, draws = 16, 4, 300
    ratios = np.empty(draws)
    for i in range(draws):
        s = Seed(1000).derive(i)
        p = gaussian_subspace_projector(n, k, s)
        x = s.derive(1).rng().standard_normal(n)
        ratios[i] = (x @ p @ x) / (x @ x)
    se = ratios.std(ddof=1) / np.sqrt(draws)
    assert abs(ratios.mean() - k / n) < 4 * se
