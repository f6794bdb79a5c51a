"""Random Delaunay meshes on the unit square and piecewise-constant subspaces.

Qhull (``scipy.spatial.Delaunay``) triangulates; the triangles are then put
in a canonical order, so a seed always gives the same mesh. Points too close
to another vertex for Qhull to separate are rejected. The four square
corners are always part of the vertex set, so every mesh tiles the full
domain. Rasterizing a mesh on a pixel grid yields an orthonormal basis of
normalized triangle indicators; the linear span is the model subspace used
throughout the package. ``rasterize`` does its own point-in-triangle test
rather than Qhull's point location, because it accepts any ``TriMesh``,
including meshes read from disk. It tests each triangle only against the
pixel centers in its bounding box padded by one pixel (Pineda's edge
functions, SIGGRAPH 1988), gives a center on a shared edge or vertex to the
lowest-index triangle, and gives a center that no tested triangle contains
to the triangle, among all of them, whose worst edge test is best.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from .core import FormatError, Grid, Image, Seed

__all__ = [
    "StackedBasis",
    "SubspaceBasis",
    "TriMesh",
    "delaunay_triangulate",
    "delaunay_violations",
    "gaussian_subspace_projector",
    "load_basis",
    "load_mesh",
    "mesh_with_k_triangles",
    "rasterize",
    "save_basis",
    "save_mesh",
]

_CORNERS = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))


# ---------------------------------------------------------------------------
# geometric predicates

def _incircle_stat(a, b, c, d):
    """(det, permanent) of the in-circle determinant in floating point.

    det > 0 means d strictly inside the circumcircle of CCW (a, b, c); the
    permanent bounds the magnitude of the terms, for normalization.
    """
    adx, ady = a[0] - d[0], a[1] - d[1]
    bdx, bdy = b[0] - d[0], b[1] - d[1]
    cdx, cdy = c[0] - d[0], c[1] - d[1]
    ad = adx * adx + ady * ady
    bd = bdx * bdx + bdy * bdy
    cd = cdx * cdx + cdy * cdy
    t1 = adx * (bdy * cd - cdy * bd)
    t2 = ady * (bdx * cd - cdx * bd)
    t3 = ad * (bdx * cdy - cdx * bdy)
    det = t1 - t2 + t3
    perm = abs(t1) + abs(t2) + abs(t3)
    return det, perm


# ---------------------------------------------------------------------------
# mesh type

@dataclass
class TriMesh:
    """Triangulation of the unit square: vertices (V, 2) and CCW triangles (T, 3)."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 2)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices)
        ):
            raise ValueError("triangle indices out of range")

    @property
    def triangle_count(self) -> int:
        return len(self.triangles)

    def areas(self) -> np.ndarray:
        v = self.vertices
        a, b, c = (v[self.triangles[:, i]] for i in range(3))
        return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                      - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))

    def to_dict(self) -> dict:
        return {
            "vertices": [[float(x), float(y)] for x, y in self.vertices],
            "triangles": [[int(a), int(b), int(c)] for a, b, c in self.triangles],
        }

    @staticmethod
    def from_dict(obj: dict) -> "TriMesh":
        """Mesh from its JSON form, checked to tile the unit square.

        Raises ``FormatError`` for a vertex outside [0, 1]^2, a triangle that
        is not CCW with positive area, or areas that do not sum to 1.
        """
        if not isinstance(obj, dict) or "vertices" not in obj or "triangles" not in obj:
            raise FormatError("mesh JSON must contain 'vertices' and 'triangles'")
        mesh = TriMesh(np.array(obj["vertices"], dtype=np.float64),
                       np.array(obj["triangles"], dtype=np.int64))
        v = mesh.vertices
        outside = ~np.all((v >= 0.0) & (v <= 1.0), axis=1)
        if outside.any():
            raise FormatError(f"vertex {int(np.argmax(outside))} lies outside the unit square")
        areas = mesh.areas()
        if not np.all(areas > 0.0):
            raise FormatError(f"triangle {int(np.argmin(areas))} is not CCW "
                              "with positive area")
        if abs(areas.sum() - 1.0) > 1e-9:
            raise FormatError(f"triangle areas sum to {areas.sum()!r}, not 1: the mesh "
                              "does not tile the unit square")
        return mesh


def save_mesh(mesh: TriMesh, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(mesh.to_dict(), fh, separators=(",", ":"))
        fh.write("\n")


def load_mesh(path) -> TriMesh:
    with open(path, "r", encoding="ascii") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: unparseable mesh JSON: {exc}") from exc
    try:
        return TriMesh.from_dict(obj)
    except (ValueError, TypeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Delaunay triangulation

def _prepare_vertices(points):
    """Deduplicated vertex list in input order, then any absent square corners."""
    verts = []
    seen = set()
    for p in points:
        x, y = float(p[0]), float(p[1])
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise ValueError(f"point ({x}, {y}) lies outside the unit square")
        if (x, y) not in seen:
            seen.add((x, y))
            verts.append((x, y))
    verts.extend(c for c in _CORNERS if c not in seen)
    return verts


def delaunay_triangulate(points) -> TriMesh:
    """Delaunay triangulation of ``points`` plus the four square corners.

    Qhull triangulates. Points are deduplicated exactly and keep the input
    order, followed by any absent corners. Every triangle is CCW with its
    lowest vertex index first, and the rows are sorted, so the result does
    not depend on Qhull's output order. The triangulation tiles the unit
    square. A point that Qhull cannot separate from another vertex (closer
    than its round-off, e.g. 1e-15 apart) raises ``ValueError`` rather than
    being left out of the triangulation.
    """
    # Imported here rather than at module top: scipy.spatial adds about 0.1 s
    # (python -X importtime) to importing the CLI, which every command pays.
    from scipy.spatial import Delaunay

    verts = np.array(_prepare_vertices(points), dtype=np.float64)
    qhull = Delaunay(verts)
    if len(qhull.coplanar):
        point, _, vertex = qhull.coplanar[0]
        raise ValueError(f"point {tuple(verts[point].tolist())} cannot be separated "
                         f"from vertex {tuple(verts[vertex].tolist())}")
    tri = qhull.simplices.astype(np.int64)
    cw = TriMesh(verts, tri).areas() < 0
    tri[cw] = tri[cw][:, ::-1]
    first = np.argmin(tri, axis=1)[:, None]
    tri = np.take_along_axis(tri, (first + np.arange(3)) % 3, axis=1)
    tri = tri[np.lexsort(tri.T[::-1])]
    return TriMesh(verts, tri)


def delaunay_violations(mesh: TriMesh, tol: float = 1e-9) -> int:
    """Number of (triangle, vertex) pairs violating the empty-circumcircle property.

    A violation is a vertex strictly inside a circumcircle by more than
    ``tol`` in the normalized in-circle determinant.
    """
    count = 0
    verts = [tuple(v) for v in mesh.vertices]
    for a, b, c in mesh.triangles:
        ta, tb, tc = verts[a], verts[b], verts[c]
        for vi, v in enumerate(verts):
            if vi in (a, b, c):
                continue
            det, perm = _incircle_stat(ta, tb, tc, v)
            if perm > 0 and det / perm > tol:
                count += 1
    return count


def mesh_with_k_triangles(k: int, seed: Seed) -> TriMesh:
    """Random Delaunay mesh with exactly ``k`` triangles.

    Poisson points of intensity k/2 seed the mesh; uniform points are then
    appended (or the most recently added non-corner points dropped) until the
    triangle count is exactly k. Odd k needs one point on the square boundary,
    since interior insertions change the count in steps of two.
    """
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
    k = int(k)
    rng = seed.rng()
    history = []
    if k % 2 == 1:
        edge = int(rng.integers(4))
        u = float(rng.random())
        x, y = {0: (u, 0.0), 1: (1.0, u), 2: (u, 1.0), 3: (0.0, u)}[edge]
        history.append((x, y))
    count = int(rng.poisson(k / 2.0))
    for _ in range(count):
        pt = rng.random(2)
        history.append((float(pt[0]), float(pt[1])))
    # With b boundary points and i interior points the square triangulates into
    # 2i + b + 2 triangles, so trim or extend the history to the exact target.
    interior_target = (k - 2 - (k % 2)) // 2
    base = k % 2
    while len(history) - base > interior_target:
        history.pop()
    while len(history) - base < interior_target:
        pt = rng.random(2)
        history.append((float(pt[0]), float(pt[1])))
    mesh = delaunay_triangulate(history)
    # Degenerate configurations (points exactly on edges) can shift the count;
    # adjust one point at a time.
    guard = 0
    while mesh.triangle_count != k:
        if mesh.triangle_count < k:
            pt = rng.random(2)
            history.append((float(pt[0]), float(pt[1])))
        else:
            history.pop()
        mesh = delaunay_triangulate(history)
        guard += 1
        if guard > 10_000:
            raise RuntimeError(f"failed to reach {k} triangles")
    return mesh


# ---------------------------------------------------------------------------
# rasterized subspace bases

@dataclass
class SubspaceBasis:
    """Orthonormal basis of normalized triangle indicators on a pixel grid.

    Column k is the indicator of the pixels assigned to (kept) triangle k,
    scaled by 1/sqrt(pixel count). Triangles that received no pixel center
    are dropped; ``kept`` maps columns back to mesh triangle indices.
    """

    mesh: TriMesh
    grid: Grid
    assignment: np.ndarray  # (N,) column index per pixel
    counts: np.ndarray      # (K,) pixels per column
    kept: np.ndarray        # (K,) original triangle index per column

    @property
    def k(self) -> int:
        return len(self.counts)

    def coeffs(self, img: Image) -> np.ndarray:
        """B^T x: per-triangle pixel sums scaled by 1/sqrt(count)."""
        self._check_grid(img)
        sums = np.bincount(self.assignment, weights=img.values, minlength=self.k)
        return sums / np.sqrt(self.counts)

    def synthesize(self, q: np.ndarray) -> Image:
        """B q: the piecewise-constant image with the given coefficients."""
        q = np.asarray(q, dtype=np.float64).reshape(-1)
        if q.size != self.k:
            raise ValueError(f"expected {self.k} coefficients, got {q.size}")
        values = (q / np.sqrt(self.counts))[self.assignment]
        return Image(self.grid, values)

    def project(self, img: Image) -> Image:
        """B B^T x: replace each pixel by the mean over its triangle."""
        self._check_grid(img)
        sums = np.bincount(self.assignment, weights=img.values, minlength=self.k)
        means = sums / self.counts
        return Image(self.grid, means[self.assignment])

    def to_sparse(self) -> sparse.csr_matrix:
        """B as an N x K CSR matrix: the one-mesh case of StackedBasis.to_sparse."""
        return StackedBasis([self]).to_sparse()

    @cached_property
    def fingerprint(self) -> str:
        """Stable hash of (mesh, grid side), used to bind estimators to their basis.

        Computed on first use and kept: a basis's mesh and grid are not
        reassigned after construction.
        """
        payload = json.dumps(
            {"grid_side": self.grid.side, "mesh": self.mesh.to_dict()},
            separators=(",", ":"), sort_keys=True,
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]

    def _check_grid(self, img: Image) -> None:
        if img.grid != self.grid:
            raise ValueError(
                f"image grid side {img.grid.side} != basis grid side {self.grid.side}"
            )


def _worst_edge(px, py, a, b, c):
    """Smallest of the three edge functions of CCW triangle (a, b, c) at (px, py).

    ``a``, ``b`` and ``c`` are (x, y) pairs of arrays. The result is >= 0
    where the point lies inside or on the triangle. Everything broadcasts
    elementwise, so a (pixel, triangle) pair gives the same bits however the
    pairs are laid out.
    """
    s0 = (b[0] - a[0]) * (py - a[1]) - (b[1] - a[1]) * (px - a[0])
    s1 = (c[0] - b[0]) * (py - b[1]) - (c[1] - b[1]) * (px - b[0])
    s2 = (a[0] - c[0]) * (py - c[1]) - (a[1] - c[1]) * (px - c[0])
    return np.minimum(np.minimum(s0, s1), s2)


def rasterize(mesh: TriMesh, grid: Grid) -> SubspaceBasis:
    """Assign each pixel center to a triangle and build the indicator basis.

    Each triangle is tested only against the centers inside its bounding box,
    padded by one pixel on each side. The padding is far wider than the
    ``-1e-12`` tolerance of the inside test reaches outside a triangle,
    unless the triangle is a sliver with an edge or angle below about 1e-9.
    A center inside (or on the boundary of) several triangles, as on a
    shared edge or vertex, goes to the lowest-index one. A center that no
    tested triangle contains (round-off, or a gap in a hand-built mesh) goes
    to the triangle, among all triangles, whose worst edge test is best.
    Triangles containing no center are dropped from the basis.
    """
    side, n_tri = grid.side, mesh.triangle_count
    coords = grid.centers()[:side, 0]  # (j + 0.5) / side: x of column j, y of row j
    corners = mesh.vertices[mesh.triangles].transpose(1, 2, 0)  # (3, 2, T): a, b, c
    # Candidate columns and rows: centers within one pixel of the triangle's
    # bounding box, clipped to the grid.
    first = np.maximum(np.ceil(corners.min(axis=0) * side - 1.5), 0).astype(np.int64)
    last = np.minimum(np.floor(corners.max(axis=0) * side + 0.5), side - 1).astype(np.int64)
    extent = np.maximum(last - first + 1, 0)  # (2, T): columns, rows
    sizes = extent[0] * extent[1]
    # One (pixel, triangle) pair per candidate, triangle by triangle.
    tri = np.repeat(np.arange(n_tri), sizes)
    local = np.arange(len(tri)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    row, col = np.divmod(local, extent[0].take(tri))
    row += first[1].take(tri)
    col += first[0].take(tri)
    a, b, c = corners.take(tri, axis=2)
    inside = _worst_edge(coords.take(col), coords.take(row), a, b, c) >= -1e-12
    assign = np.full(grid.n_pixels, n_tri, dtype=np.int64)
    # lowest-index containing triangle
    np.minimum.at(assign, (row * side + col)[inside], tri[inside])
    stragglers = assign == n_tri
    if stragglers.any():
        # Round-off stragglers and gaps: the triangle whose worst edge test is best.
        p = grid.centers()[stragglers]
        worst = _worst_edge(p[:, 0, None], p[:, 1, None], *corners)  # (S, T)
        assign[stragglers] = np.argmax(worst, axis=1)
    hits = np.bincount(assign, minlength=n_tri)
    present = np.flatnonzero(hits)
    col_of = np.full(n_tri, -1, dtype=np.int64)
    col_of[present] = np.arange(len(present))
    return SubspaceBasis(mesh, grid, col_of[assign], hits[present], present)


@dataclass
class StackedBasis:
    """Horizontal stack [B_1 ... B_L] of per-mesh bases on a common grid."""

    bases: list

    def __post_init__(self):
        if not self.bases:
            raise ValueError("stacked basis needs at least one basis")
        g = self.bases[0].grid
        for b in self.bases:
            if b.grid != g:
                raise ValueError("all stacked bases must share one grid")

    @property
    def grid(self) -> Grid:
        return self.bases[0].grid

    @property
    def total_k(self) -> int:
        return sum(b.k for b in self.bases)

    @property
    def offsets(self) -> list:
        """Start offset of each basis's coefficient block."""
        out, acc = [], 0
        for b in self.bases:
            out.append(acc)
            acc += b.k
        return out

    def coeffs(self, img: Image) -> np.ndarray:
        return np.concatenate([b.coeffs(img) for b in self.bases])

    def split(self, q: np.ndarray) -> list:
        q = np.asarray(q, dtype=np.float64).reshape(-1)
        if q.size != self.total_k:
            raise ValueError(f"expected {self.total_k} coefficients, got {q.size}")
        out, acc = [], 0
        for b in self.bases:
            out.append(q[acc : acc + b.k])
            acc += b.k
        return out

    def synthesize(self, q: np.ndarray) -> Image:
        parts = self.split(q)
        values = np.zeros(self.grid.n_pixels)
        for b, qb in zip(self.bases, parts):
            values += b.synthesize(qb).values
        return Image(self.grid, values)

    def to_sparse(self) -> sparse.csr_matrix:
        """[B_1 ... B_L] as an N x sum(K) CSR matrix, built directly.

        Every pixel lies in exactly one column of each mesh, so row p holds one
        entry per mesh, in mesh order: column offset_l + assignment_l[p] with
        value 1/sqrt(count). The column indices of each row are sorted.
        """
        n, n_meshes = self.grid.n_pixels, len(self.bases)
        indices = np.empty((n, n_meshes), dtype=np.int64)
        data = np.empty((n, n_meshes))
        for i, (b, off) in enumerate(zip(self.bases, self.offsets)):
            indices[:, i] = b.assignment + off
            data[:, i] = 1.0 / np.sqrt(b.counts)[b.assignment]
        indptr = np.arange(0, n * n_meshes + 1, n_meshes)
        return sparse.csr_matrix((data.ravel(), indices.ravel(), indptr),
                                 shape=(n, self.total_k))

    @cached_property
    def csr_pair(self) -> tuple:
        """(B, B^T) as CSR matrices, built on first use and kept.

        The stack's bases are not reassigned after construction. Callers must
        not modify the matrices; :meth:`to_sparse` gives a fresh copy.
        """
        b = self.to_sparse()
        return b, b.T.tocsr()

    @cached_property
    def _gram_eig(self) -> tuple:
        """(pixel_side, vectors, inverse eigenvalues) of the smaller Gram matrix.

        G = B B^T (N x N) when N <= sum(K), else M = B^T B (sum(K) x sum(K)).
        One ``eigh`` of the m x m Gram costs O(m^3) once and keeps O(m^2)
        floats, m = min(N, sum(K)); m^2 <= N sum(K), so it never exceeds a
        dense B. Eigenvalues at or below lambda_max * m * eps (the cut
        ``numpy.linalg.lstsq`` makes) are dropped: G is singular whenever two
        pixels share a triangle in every mesh, and M for two or more meshes,
        since every mesh subspace holds the constant image.
        """
        b, bt = self.csr_pair
        pixel_side = self.grid.n_pixels <= self.total_k
        gram = (b @ bt if pixel_side else bt @ b).toarray()
        lam, vecs = np.linalg.eigh(gram)
        keep = lam > lam[-1] * len(lam) * np.finfo(np.float64).eps
        return pixel_side, vecs[:, keep], 1.0 / lam[keep]

    def minnorm_lstsq(self, q: np.ndarray) -> np.ndarray:
        """pinv(B^T) q: the minimum-norm least-squares solution x of B^T x = q.

        Uses pinv(B^T) = pinv(B B^T) B = B pinv(B^T B), on whichever Gram
        matrix is smaller. The Gram's eigendecomposition is computed on the
        first call and kept, so later calls cost two dense products with the
        kept eigenvectors.
        """
        q = np.asarray(q, dtype=np.float64).reshape(-1)
        if q.size != self.total_k:
            raise ValueError(f"expected {self.total_k} coefficients, got {q.size}")
        pixel_side, vecs, inv_lam = self._gram_eig
        b = self.csr_pair[0]
        if pixel_side:
            return vecs @ (inv_lam * (vecs.T @ (b @ q)))
        return b @ (vecs @ (inv_lam * (vecs.T @ q)))


def save_basis(basis: SubspaceBasis, path) -> None:
    """Persist a basis as mesh + grid side; the assignment is recomputed on load."""
    obj = {"grid_side": basis.grid.side, "mesh": basis.mesh.to_dict()}
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")


def load_basis(path) -> SubspaceBasis:
    with open(path, "r", encoding="ascii") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: unparseable basis JSON: {exc}") from exc
    if not isinstance(obj, dict) or "grid_side" not in obj or "mesh" not in obj:
        raise FormatError(f"{path}: basis JSON must contain 'grid_side' and 'mesh'")
    try:
        mesh = TriMesh.from_dict(obj["mesh"])
        grid = Grid(obj["grid_side"])
    except (ValueError, TypeError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return rasterize(mesh, grid)


def gaussian_subspace_projector(n: int, k: int, seed: Seed) -> np.ndarray:
    """Orthogonal projector onto the span of an n x k iid standard Gaussian matrix.

    Dense n x n output; intended for small comparison experiments (n <= 256).
    """
    if not (isinstance(n, (int, np.integer)) and isinstance(k, (int, np.integer))):
        raise ValueError("n and k must be integers")
    if n > 256:
        raise ValueError(f"n must be <= 256 (dense projector), got {n}")
    if not (1 <= k < n):
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    w = seed.rng().standard_normal((int(n), int(k)))
    q, _ = np.linalg.qr(w)
    return q @ q.T
