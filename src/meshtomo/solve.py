"""Solvers: box-constrained least squares and TV-regularized inversion
(iterative), and minimum-norm coefficient synthesis (a direct block factor).

All solvers are deterministic: the power-iteration step-size estimate starts
from a fixed internal seed, and no other randomness is used.

The iterative loops make thousands of small products (8-12 us each for a
300-ray matrix at 32 x 32), so their speed is set by per-product overhead.
Each solve binds every sparse operator once (:func:`_product`) to scipy's
compiled CSR kernel, and works on its vectors in place. A stack keeps its
Chambolle-Pock operator and step (:attr:`StackedBasis.tv_operator`), and a
RayMatrix keeps those of FISTA and direct TV on all its rows
(:attr:`RayMatrix.fista_operator`, :attr:`RayMatrix.tv_operator`), each
built on first use, whatever the erasure mask: the loops hold erased rays at
zero in the residual, at the step of all rows (admissible: ||A_kept|| <=
||A||). Every result is bitwise what ``mat @ v`` and fresh temporaries give
on the kept rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .core import Grid, Image, Seed, SolverError
from .mesh import StackedBasis, SubspaceBasis
from .tomo import Measurement, RayMatrix

__all__ = [
    "SolveOptions",
    "SolveResult",
    "SolverError",
    "minnorm_prefixes",
    "minnorm_solve",
    "nnls",
    "power_norm",
    "solve_reformulated",
    "tv_direct",
]

_POWER_ITERS = 20
_POWER_TOL = 1e-6
_POWER_SEED = Seed(0x5EED)
# every iterate is clipped to this box: every phantom's values lie in it
_BOX = (0.0, 1.0)
_MINNORM_TOL = 1e-8


@dataclass
class SolveOptions:
    """Common iterative-solver options.

    tol is a relative objective-change threshold: iteration stops once the
    best objective fails to improve by tol * max(1, |best|) over a short
    window. Every iterate is clipped to the box [0, 1]. max_iters must be a
    whole number >= 1, tol and tv_weight finite and >= 0 (else ValueError).
    """

    max_iters: int = 500
    tol: float = 1e-9
    tv_weight: float = 0.0

    def __post_init__(self):
        if (isinstance(self.max_iters, bool) or not float(self.max_iters).is_integer()
                or self.max_iters < 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        self.max_iters = int(self.max_iters)
        for name in ("tol", "tv_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass
class SolveResult:
    image: Image
    objective: float
    converged: bool
    iterations: int
    objectives: np.ndarray = field(default_factory=lambda: np.zeros(0))


def power_norm(apply_normal, n: int) -> float:
    """Largest eigenvalue of an SPD operator by power iteration (fixed start)."""
    v = _POWER_SEED.rng().standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(_POWER_ITERS):
        w = apply_normal(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        new_lam = float(v @ w)
        v = w / nw
        if abs(new_lam - lam) <= _POWER_TOL * max(abs(new_lam), 1.0):
            lam = new_lam
            break
        lam = new_lam
    return abs(lam)


def _coerce_system(a, y):
    """Normalize (operator, data) inputs to (RayMatrix, values, keep).

    A plain matrix is wrapped in a RayMatrix of its own. ``keep`` is 0.0 at
    the erased rays and 1.0 elsewhere, or None when no ray is erased. Raises
    :class:`SolverError` when every ray is erased.
    """
    if isinstance(a, RayMatrix):
        rm = a
    else:
        mat = a if sparse.issparse(a) else np.asarray(a, dtype=np.float64)
        n = mat.shape[1]
        side = math.isqrt(n)
        if side * side != n:
            raise ValueError(f"cannot infer a square grid from {n} columns")
        rm = RayMatrix(mat, Grid(side))
    if isinstance(y, Measurement):
        values, mask = y.values, y.mask
    else:
        values = np.asarray(y, dtype=np.float64).reshape(-1)
        mask = np.zeros(values.size, dtype=bool)
    if values.size != rm.m:
        raise ValueError(f"operator has {rm.m} rows but y has {values.size}")
    if mask.all():
        raise SolverError("operator is zero; no step size exists")
    return rm, values, ((~mask).astype(np.float64) if mask.any() else None)


def _product(mat):
    """The callable v -> mat @ v, bitwise, bound once per solve.

    A sparse operator is converted to CSR once (a CSC view such as ``A.T``
    included), and each call runs ``csr_matvec``, the compiled kernel that
    ``csr_matrix @ v`` runs, with the same arguments, without scipy's
    per-product dispatch: 6.1 against 8.8 us for the 300 x 1024 ray matrix.
    A dense operator keeps numpy's ``@``. The kernel trusts its lengths, so
    a ``v`` whose shape is not (columns,) raises ValueError before the call.
    """
    if not sparse.issparse(mat):
        return mat.__matmul__
    csr = mat.tocsr()
    rows, cols = csr.shape
    args = (rows, cols, csr.indptr, csr.indices, csr.data)

    def product(v):
        if v.shape != (cols,):
            raise ValueError(f"operator has {cols} columns but v has shape {v.shape}")
        out = np.zeros(rows)
        _sparsetools.csr_matvec(*args, v, out)
        return out

    return product


def _finite(obj, it):
    """``obj``, or :class:`SolverError` when it is not finite."""
    if not math.isfinite(obj):
        raise SolverError(f"objective diverged (non-finite) at iteration {it}")
    return obj


class _Tracker:
    """Stop rule of an iterative solve: objective trace, best iterate, stall count.

    :meth:`step` returns True, and the solve counts as converged, once
    ``window`` iterations in a row fail to beat the best objective by
    tol * max(1, |best|). The result is the iterate of lowest objective.
    Iterates are kept without a copy: the loops hand it arrays they never
    write again.
    """

    def __init__(self, grid, x, obj, tol, window):
        self.grid, self.tol, self.window = grid, tol, window
        self.trace = [obj]
        self.best_obj, self.best_x = obj, x
        self.stall = self.iterations = 0
        self.converged = False

    def step(self, it, x, obj):
        self.iterations = it
        self.trace.append(obj)
        if obj < self.best_obj - self.tol * max(1.0, abs(self.best_obj)):
            self.stall = 0
        else:
            self.stall += 1
        if obj < self.best_obj:
            self.best_obj, self.best_x = obj, x
        self.converged = self.stall >= self.window
        return self.converged

    def result(self):
        return SolveResult(Image(self.grid, self.best_x), self.best_obj, self.converged,
                           self.iterations, np.array(self.trace))


def nnls(a, y, opts: SolveOptions = None, *, return_info: bool = False):
    """Box-constrained least squares min 0.5 ||A x - y||^2 via FISTA with restart.

    ``a`` may be a RayMatrix or any (sparse) matrix; ``y`` a Measurement or a
    vector. Rays flagged erased are masked (:func:`_fista`). Every iterate
    is clipped to [0, 1]. A RayMatrix keeps its bound operators and step
    (:attr:`RayMatrix.fista_operator`), so only its first call runs
    :func:`power_norm`.
    """
    opts = opts or SolveOptions()
    rm, target, keep = _coerce_system(a, y)
    res = _fista(rm.fista_operator, target, rm.grid, opts, keep)
    return (res.image, res) if return_info else res.image


def _fista_operator(mat):
    """(A product, A^T product, step 1 / ||A||^2) of ``mat``, for :func:`_fista`.

    Both operators are bound once (:func:`_product`); ||A||^2 comes from
    :func:`power_norm`. A RayMatrix keeps its own
    (:attr:`RayMatrix.fista_operator`). Raises :class:`SolverError` when
    ``mat`` is zero.
    """
    mat_t = mat.T if sparse.issparse(mat) else np.ascontiguousarray(mat.T)
    a, a_t = _product(mat), _product(mat_t)
    lip = power_norm(lambda v: a_t(a(v)), mat.shape[1])
    if lip == 0.0:
        raise SolverError("operator is zero; no step size exists")
    return a, a_t, 1.0 / lip


def _fista(operator, target, grid, opts, keep=None):
    """FISTA with restart on min 0.5 ||A x - target||^2 over [0, 1], from zero.

    Runs on the bound products of A and A^T and the step of
    :func:`_fista_operator`. An iteration applies A^T once and A once, to
    the new iterate; A z for the momentum point z = x1 + beta (x1 - x0) is
    taken by linearity from the kept products A x1 and A x0. A restart steps
    from the last accepted iterate, whose product is kept too, so it costs
    one more product of each operator. The residual and the momentum point
    live in buffers written in place, and each iterate is the array the A^T
    product returned, in the order of operations of
    ``np.clip(z - step * (A^T @ (A z - target)), 0, 1)``. Rays where
    ``keep`` is 0 are held at zero in the residual and left out of the
    objective's sum, so the result is bitwise that of A's kept rows.
    """
    a, a_t, step = operator
    lo, hi = _BOX
    r = np.empty(target.size)  # residual buffer
    kept = None if keep is None else np.flatnonzero(keep)

    def objective(ax):
        np.subtract(ax, target, out=r)
        data = r if kept is None else r[kept]
        return 0.5 * float(data @ data)

    def descend(point, a_point):
        """Projected gradient step from ``point``: (x, A x, objective)."""
        np.subtract(a_point, target, out=r)
        if keep is not None:
            np.multiply(r, keep, out=r)
        x_new = a_t(r)
        x_new *= step
        np.subtract(point, x_new, out=x_new)
        x_new.clip(lo, hi, out=x_new)
        ax_new = a(x_new)
        return x_new, ax_new, objective(ax_new)

    x = np.zeros(grid.n_pixels)
    ax = a(x)
    z, az = x.copy(), ax.copy()  # momentum point and its product
    t = 1.0
    obj = objective(ax)
    track = _Tracker(grid, x, obj, opts.tol, window=10)
    for it in range(1, opts.max_iters + 1):
        x_new, ax_new, obj_new = descend(z, az)
        if _finite(obj_new, it) > obj:
            # restart the momentum sequence from the last accepted iterate
            t = 1.0
            x_new, ax_new, obj_new = descend(x, ax)
            _finite(obj_new, it)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        for mom, new, old in ((z, x_new, x), (az, ax_new, ax)):
            np.subtract(new, old, out=mom)
            mom *= beta
            mom += new
        x, ax, t, obj = x_new, ax_new, t_new, obj_new
        if track.step(it, x, obj):
            break
    return track.result()


def _stacked_operator(data_mat, side):
    """K = [data_mat; D] and K^T as CSR, D the forward differences of a side x side image.

    Row r of D is -1 at pixel left[r] and +1 at right[r]: the horizontal pairs
    in row-major order, then the vertical ones, so D v is bitwise ``np.diff``
    along each axis ((-a) + b rounds as b - a). D is built as CSR so that
    ``sparse.vstack`` joins CSR blocks without a COO round trip.
    """
    pix = np.arange(side * side).reshape(side, side)
    left = np.concatenate([pix[:, :-1].ravel(), pix[:-1, :].ravel()])
    right = np.concatenate([pix[:, 1:].ravel(), pix[1:, :].ravel()])
    d = sparse.csr_matrix((np.tile([-1.0, 1.0], left.size), np.column_stack([left, right]).ravel(),
                           np.arange(0, 2 * left.size + 1, 2)), shape=(left.size, side * side))
    k = sparse.vstack([data_mat, d], format="csr")
    return k, k.T.tocsr()


def _tv_operator(data_mat, side):
    """(K product, K^T product, step 0.99 / ||K||) of K = [data_mat; D] (:func:`_stacked_operator`).

    ||K|| comes from :func:`power_norm` on the bound products. Everything
    here depends on ``data_mat`` alone, so a stack and a RayMatrix build it
    once and keep it (:attr:`StackedBasis.tv_operator`,
    :attr:`RayMatrix.tv_operator`).
    """
    k, k_t = (_product(op) for op in _stacked_operator(data_mat, side))
    lip = math.sqrt(max(power_norm(lambda v: k_t(k(v)), side * side), 1e-30))
    return k, k_t, 0.99 / lip


def _chambolle_pock(operator, target, grid, opts, x0, keep=None):
    """Primal-dual solve of min_x ||data x - target||^2 + w * TV(x) over [0, 1].

    Runs on the bound products of K = [data; D] and K^T and the step of
    :func:`_tv_operator`, with one dual vector z over K's rows: the data block
    z[:m] takes the proximal step of the squared residual, the TV block z[m:]
    is clipped to [-w, w] (held at 0 when w = 0). An iteration applies K^T
    once and K once, to the new iterate. The kept K x - [target; 0] gives the
    objective and, since xbar = 2 x1 - x0 is not clipped, K xbar - [target; 0]
    by linearity. Steps: 0.99 / ||K||. The extrapolated residual and |D x|
    live in buffers written in place, and each iterate is the array the K^T
    product returned; the order of every operation is that of the
    expressions with temporaries, so the result is bitwise the same. Erased
    rays are held at zero in the residual's data block, as in :func:`_fista`.
    ``x0`` is not written.
    """
    k, k_t, sigma = operator
    tau = sigma
    m = target.size
    n_h = grid.side * (grid.side - 1)  # horizontal difference rows
    w = opts.tv_weight
    lo, hi = _BOX
    shrink = 1.0 + 0.5 * sigma
    tv = np.empty(2 * n_h)  # |D x|
    kept = None if keep is None else np.flatnonzero(keep)

    def residual(x):
        """K x - [target; 0]: the residual, then D x."""
        kr = k(x)
        kr[:m] -= target
        if keep is not None:
            kr[:m] *= keep
        return kr

    def objective(kr):
        data = kr[:m] if kept is None else kr[kept]
        np.abs(kr[m:], out=tv)
        return float(data @ data) + w * float(tv[:n_h].sum() + tv[n_h:].sum())

    x = x0
    kr = residual(x)
    krbar = kr.copy()
    z = np.zeros(kr.size)
    z_data, z_tv = z[:m], z[m:]
    z_data += 2.0 * kr[:m]
    track = _Tracker(grid, x, objective(kr), opts.tol, window=25)
    for it in range(1, opts.max_iters + 1):
        krbar *= sigma
        z += krbar
        z_data /= shrink
        z_tv.clip(-w, w, out=z_tv)
        x_new = k_t(z)
        x_new *= tau
        np.subtract(x, x_new, out=x_new)
        x_new.clip(lo, hi, out=x_new)
        kr_new = residual(x_new)
        np.multiply(kr_new, 2.0, out=krbar)
        krbar -= kr
        x, kr = x_new, kr_new
        if track.step(it, x, _finite(objective(kr), it)):
            break
    return track.result()


def _as_stack(basis):
    if isinstance(basis, SubspaceBasis):
        return StackedBasis([basis])
    if isinstance(basis, StackedBasis):
        return basis
    raise ValueError(f"expected a basis or stacked basis, got {type(basis).__name__}")


def solve_reformulated(basis, q, opts: SolveOptions = None) -> SolveResult:
    """Recombine subspace coefficients into an image.

    Solves min_x ||q - B^T x||^2 + tv_weight * TV(x) over x in [0, 1] (every
    iterate is clipped), by Chambolle-Pock on the stacked operator
    [B^T; D] built from the stack's CSR B^T, warm started from the clipped
    minimum-norm least-squares solution pinv(B^T) q, consistent or not. Every
    image recombined on one stack shares B, so the start comes from the
    stack's Gram eigendecomposition (:meth:`StackedBasis.minnorm_lstsq`): its
    one-off O(m^3) cost, m = min(N, sum(K)), is paid by the first call on a
    stack and each later start costs two dense products. The stacked
    operator, its transpose and its step 0.99 / ||K|| are kept on the stack
    too (:attr:`StackedBasis.tv_operator`), so only the first call on a
    stack builds K and runs :func:`power_norm`. The returned image is the
    iterate of lowest objective. TV is anisotropic: the sum of absolute
    horizontal and vertical neighbor differences.
    """
    stack = _as_stack(basis)
    opts = opts or SolveOptions()
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    if q.size != stack.total_k:
        raise ValueError(f"expected {stack.total_k} coefficients, got {q.size}")
    return _chambolle_pock(stack.tv_operator, q, stack.grid, opts,
                           np.clip(stack.minnorm_lstsq(q), *_BOX))


def tv_direct(a, y, opts: SolveOptions = None) -> SolveResult:
    """TV-regularized direct inversion min ||A x - y||^2 + tv_weight * TV(x) over [0, 1].

    Same Chambolle-Pock machinery as :func:`solve_reformulated`, on the
    stacked operator [A; D] (a dense A is converted to CSR), warm started
    from :func:`nnls` run for max(200, max_iters) iterations at the same
    tol. A RayMatrix keeps both solves' operators, so only its first call
    builds K and runs :func:`power_norm`. Erased rays are masked as in
    :func:`nnls`, and every iterate is clipped to [0, 1]. With tv_weight = 0
    this reduces to :func:`nnls` up to tolerance. Raises
    :class:`SolverError` when every ray is erased or A is zero.
    """
    opts = opts or SolveOptions()
    rm, target, keep = _coerce_system(a, y)
    if opts.tv_weight == 0.0:
        # The problem is plain box-constrained least squares.
        info = _fista(rm.fista_operator, target, rm.grid, opts, keep)
        return SolveResult(info.image, 2.0 * info.objective, info.converged,
                           info.iterations, 2.0 * info.objectives)
    warm_opts = SolveOptions(max_iters=max(200, opts.max_iters), tol=opts.tol)
    start = _fista(rm.fista_operator, target, rm.grid, warm_opts, keep).image.values
    return _chambolle_pock(rm.tv_operator, target, rm.grid, opts, start, keep)


def minnorm_prefixes(basis, q, counts) -> dict:
    """Minimum-norm solutions of B_L^T x = q_L for the first L meshes, each L in ``counts``.

    Returns {L: Image}. One block factor of M = B^T B serves every L. Mesh j
    is orthogonalised against the earlier meshes in M's inner product: with
    C = T_{<j}^T M_{<j,j}, its Schur complement S_j = I - C^T C (K_j x K_j,
    eigenvalues in [0, 1]) is taken apart by ``eigh``, eigenvalues at or below
    j * sum(K_{<=j}) * eps are dropped (the constant image, which every mesh
    repeats, and any other dependency), and the block
    T_j = (E_j - T_{<j} C) V Lambda^{-1/2} is appended, so that B T has
    orthonormal columns. Then x_L = B T_{<=L} T_{<=L}^T q_L, the projection
    onto range(B_L) when q is consistent. A block depends only on the meshes
    before it, so each x_L is bitwise what a stack of L meshes gives alone.

    Cost: one sparse product for M, one K x K ``eigh`` per mesh and
    O(sum(K)^2 r) dense flops, with r <= min(N, sum(K)) kept columns; memory
    is M and T, O(sum(K)^2) floats. Raises :class:`SolverError` when
    ||B_L^T x - q_L|| > 1e-8 ||q_L||: q_L is not in range(B_L^T).
    """
    stack = _as_stack(basis)
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    if q.size != stack.total_k:
        raise ValueError(f"expected {stack.total_k} coefficients, got {q.size}")
    counts = sorted(set(int(c) for c in counts))
    if not counts or counts[0] < 1 or counts[-1] > len(stack.bases):
        raise ValueError(f"mesh counts must lie in [1, {len(stack.bases)}], got {counts}")
    b, bt = stack.csr_pair
    ends = np.cumsum([0] + [mesh_basis.k for mesh_basis in stack.bases[:counts[-1]]])
    gram = (bt @ b).toarray()
    t = np.zeros((ends[-1], min(ends[-1], stack.grid.n_pixels)))
    y = np.zeros(stack.total_k)
    rank = 0
    out = {}
    for j, (lo, hi) in enumerate(zip(ends[:-1], ends[1:]), start=1):
        c = t[:lo, :rank].T @ gram[:lo, lo:hi]
        lam, vecs = np.linalg.eigh(np.eye(hi - lo) - c.T @ c)
        keep = lam > j * hi * np.finfo(np.float64).eps
        w = vecs[:, keep] / np.sqrt(lam[keep])
        new = slice(rank, rank + w.shape[1])
        t[:lo, new] = -(t[:lo, :rank] @ c) @ w
        t[lo:hi, new] = w
        y[:hi] += t[:hi, new] @ (t[:hi, new].T @ q[:hi])
        rank = new.stop
        if j in counts:
            x = b @ y
            res = np.linalg.norm((bt @ x)[:hi] - q[:hi])
            if res > _MINNORM_TOL * np.linalg.norm(q[:hi]):
                raise SolverError(
                    f"relative residual {res / np.linalg.norm(q[:hi]):.3e} exceeds tol "
                    f"{_MINNORM_TOL:.1e} at {j} meshes; the coefficient vector is inconsistent")
            out[j] = Image(stack.grid, x)
    return out


def minnorm_solve(basis, q) -> Image:
    """Minimum-norm solution of B^T x = q: the whole-stack case of :func:`minnorm_prefixes`.

    Raises :class:`SolverError` when q is inconsistent (relative residual above
    1e-8). Unlike :func:`solve_reformulated`, this does not keep the stack's
    Gram eigendecomposition: the block factor costs one K x K ``eigh`` per
    mesh and is not kept.
    """
    stack = _as_stack(basis)
    return minnorm_prefixes(stack, q, [len(stack.bases)])[len(stack.bases)]
