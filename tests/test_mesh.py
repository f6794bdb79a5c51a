import json
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.spatial import Delaunay as ScipyDelaunay

from meshtomo.core import FormatError, Grid, Image, Seed
from meshtomo.mesh import (StackedBasis, SubspaceBasis, TriMesh, delaunay_triangulate,
                           delaunay_violations, gaussian_subspace_projector, load_mesh,
                           mesh_with_k_triangles, rasterize, save_mesh)

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


def reference_worst_edge(mesh, grid):
    """(N, T) smallest edge function of every triangle at every pixel center."""
    centers = grid.centers()
    v = mesh.vertices
    tri = mesh.triangles
    a, b, c = v[tri[:, 0]], v[tri[:, 1]], v[tri[:, 2]]  # (T, 2) each
    px = centers[:, 0][:, None]
    py = centers[:, 1][:, None]
    s0 = (b[:, 0] - a[:, 0]) * (py - a[:, 1]) - (b[:, 1] - a[:, 1]) * (px - a[:, 0])
    s1 = (c[:, 0] - b[:, 0]) * (py - b[:, 1]) - (c[:, 1] - b[:, 1]) * (px - b[:, 0])
    s2 = (a[:, 0] - c[:, 0]) * (py - c[:, 1]) - (a[:, 1] - c[:, 1]) * (px - c[:, 0])
    return np.minimum(np.minimum(s0, s1), s2)


def reference_rasterize(mesh, grid):
    """Every pixel center against every triangle: the N x T edge-function test.

    Returns (assignment, counts, kept) as ``rasterize`` builds them.
    """
    worst = reference_worst_edge(mesh, grid)
    inside = worst >= -1e-12
    assign = np.argmax(inside, axis=1)  # first (lowest-index) containing triangle
    stragglers = ~inside.any(axis=1)
    if stragglers.any():
        assign[stragglers] = np.argmax(worst[stragglers], axis=1)
    present = np.unique(assign)
    col_of = np.full(mesh.triangle_count, -1, dtype=np.int64)
    col_of[present] = np.arange(len(present))
    assignment = col_of[assign]
    counts = np.bincount(assignment, minlength=len(present))
    return assignment, counts.astype(np.int64), present


def assert_matches_reference(basis):
    assignment, counts, kept = reference_rasterize(basis.mesh, basis.grid)
    for got, want in ((basis.assignment, assignment), (basis.counts, counts),
                      (basis.kept, kept)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


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


def test_load_mesh_rejects_malformed_files(tmp_path):
    mesh = mesh_with_k_triangles(4, Seed(1)).to_dict()
    bad_index = {"vertices": mesh["vertices"],
                 "triangles": [[0, 1, len(mesh["vertices"])]] + mesh["triangles"][1:]}
    cases = {
        "index": (json.dumps(bad_index).encode(), "out of range"),
        "scalar": (b"7", "JSON object"),
        "keys": (json.dumps({"vertices": mesh["vertices"]}).encode(), "must contain"),
        "syntax": (b'{"vertices": [', "unparseable"),
        "byte": (json.dumps(mesh).encode().replace(b"[", b"\xff[", 1), "ASCII"),
    }
    for name, (blob, match) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=match) as info:
            load_mesh(path)
        assert str(path) in str(info.value)


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


def test_rasterize_matches_reference_on_random_meshes():
    for k in (2, 3, 10, 50, 200):
        for s in range(10):
            mesh = mesh_with_k_triangles(k, Seed(9000 + 100 * k + s))
            for side in (2, 11, 32, 64):
                assert_matches_reference(rasterize(mesh, Grid(side)))


def test_rasterize_matches_reference_on_loaded_meshes(tmp_path):
    for k, side in ((10, 11), (50, 32), (200, 64)):
        mesh = mesh_with_k_triangles(k, Seed(k))
        mesh_path = tmp_path / f"mesh{k}.json"
        save_mesh(mesh, mesh_path)
        assert_matches_reference(rasterize(load_mesh(mesh_path), Grid(side)))


def test_rasterize_matches_reference_on_lattice_edges_and_vertices():
    # at these sides many centers fall exactly on the lattice's edges and
    # vertices, where the lowest-index rule decides
    lattice = delaunay_triangulate([(i / 4, j / 4) for i in range(5) for j in range(5)])
    for side, shared in ((2, 3), (4, 2), (8, 2)):
        containing = (reference_worst_edge(lattice, Grid(side)) >= 0).sum(axis=1)
        assert containing.max() >= shared  # 3 or more at a vertex, 2 on an edge
        assert_matches_reference(rasterize(lattice, Grid(side)))


def test_rasterize_matches_reference_on_centre_vertices():
    # vertices on pixel centres put centres on vertices, and on edges
    # through collinear centres, where round-off leaves edge functions just
    # below 0 and the -1e-12 tolerance decides
    grid = Grid(10)
    rounded = 0
    for s in range(10):
        picks = Seed(300 + s).rng().choice(grid.n_pixels, 12, replace=False)
        mesh = delaunay_triangulate(grid.centers()[picks])
        worst = reference_worst_edge(mesh, grid)
        rounded += int(np.any((worst < 0) & (worst >= -1e-12)))
        assert_matches_reference(rasterize(mesh, grid))
    assert rounded >= 5


def test_rasterize_matches_reference_on_straggler_fallback():
    # half the square: centers above the diagonal lie in no triangle, so
    # they all take the fallback's best worst-edge triangle
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.0]]
    gap = TriMesh(np.array(verts), np.array([[0, 4, 3], [4, 1, 3]]))
    for side in (2, 5, 8):
        grid = Grid(side)
        px, py = grid.centers().T
        assert np.any(py > px + 1e-9)  # uncovered centers exist
        assert_matches_reference(rasterize(gap, grid))


def test_rasterize_allocates_no_pixel_by_triangle_array():
    grid = Grid(64)
    mesh = mesh_with_k_triangles(200, Seed(4))
    rasterize(mesh, grid)  # fill the pixel-center cache
    tracemalloc.start()
    try:
        rasterize(mesh, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grid.n_pixels * mesh.triangle_count * 8  # one (N, T) float array


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
