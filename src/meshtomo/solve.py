"""Iterative solvers: box-constrained least squares, TV-regularized inversion,
and minimum-norm coefficient synthesis.

All solvers are deterministic: the power-iteration step-size estimate starts
from a fixed internal seed, and no other randomness is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .core import Grid, Image, Seed
from .mesh import StackedBasis, SubspaceBasis
from .tomo import Measurement, RayMatrix

__all__ = [
    "SolveOptions",
    "SolveResult",
    "SolverError",
    "minnorm_solve",
    "nnls",
    "power_norm",
    "solve_reformulated",
    "tv_direct",
]

_POWER_ITERS = 20
_POWER_TOL = 1e-6
_POWER_SEED = Seed(0x5EED)


class SolverError(RuntimeError):
    """An iterative solver diverged or stagnated."""


@dataclass
class SolveOptions:
    """Common iterative-solver options.

    tol is a relative objective-change threshold: iteration stops once the
    best objective fails to improve by tol * max(1, |best|) over a short
    window. box is an inclusive (lo, hi) constraint or None for unconstrained.
    """

    max_iters: int = 500
    tol: float = 1e-9
    box: tuple = (0.0, 1.0)
    tv_weight: float = 0.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (self.tol >= 0):
            raise ValueError(f"tol must be >= 0, got {self.tol}")
        if self.box is not None:
            lo, hi = self.box
            if not (lo < hi):
                raise ValueError(f"box must satisfy lo < hi, got {self.box}")
            self.box = (float(lo), float(hi))
        if not (self.tv_weight >= 0):
            raise ValueError(f"tv_weight must be >= 0, got {self.tv_weight}")


@dataclass
class SolveResult:
    image: Image
    objective: float
    converged: bool
    iterations: int
    objectives: np.ndarray = field(default_factory=lambda: np.zeros(0))


def power_norm(apply_normal, n: int, iters: int = _POWER_ITERS, tol: float = _POWER_TOL) -> float:
    """Largest eigenvalue of an SPD operator by power iteration (fixed start)."""
    v = _POWER_SEED.rng().standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = apply_normal(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        new_lam = float(v @ w)
        v = w / nw
        if abs(new_lam - lam) <= tol * max(abs(new_lam), 1.0):
            lam = new_lam
            break
        lam = new_lam
    return abs(lam)


def _coerce_system(a, y, drop_erased):
    """Normalize (operator, data) inputs to (matrix, values, grid)."""
    if isinstance(a, RayMatrix):
        mat, grid = a.matrix, a.grid
    else:
        mat = a if sparse.issparse(a) else np.asarray(a, dtype=np.float64)
        n = mat.shape[1]
        side = math.isqrt(n)
        if side * side != n:
            raise ValueError(f"cannot infer a square grid from {n} columns")
        grid = Grid(side)
    if isinstance(y, Measurement):
        values, mask = y.values, y.mask
    else:
        values = np.asarray(y, dtype=np.float64).reshape(-1)
        mask = np.zeros(values.size, dtype=bool)
    if values.size != mat.shape[0]:
        raise ValueError(f"operator has {mat.shape[0]} rows but y has {values.size}")
    if drop_erased and mask.any():
        keep = ~mask
        mat = mat[keep] if sparse.issparse(mat) else mat[keep, :]
        values = values[keep]
    return mat, values, grid


def _clip(values, box):
    if box is None:
        return values
    return np.clip(values, box[0], box[1])


def nnls(a, y, opts: SolveOptions = None, *, drop_erased: bool = True,
         return_info: bool = False):
    """Box-constrained least squares min 0.5 ||A x - y||^2 via FISTA with restart.

    ``a`` may be a RayMatrix or any (sparse) matrix; ``y`` a Measurement or a
    vector. Rows flagged erased are dropped before solving unless
    ``drop_erased`` is False (then their zeros are fit like data). The default
    box is [0, 1].
    """
    opts = opts or SolveOptions()
    mat, target, grid = _coerce_system(a, y, drop_erased)
    mat_t = mat.T if sparse.issparse(mat) else mat.T.copy()
    res = _fista(mat, mat_t, target, grid, opts)
    return (res.image, res) if return_info else res.image


def _fista(mat, mat_t, target, grid, opts):
    """FISTA with restart on min 0.5 ||mat x - target||^2 + box, from the clipped zero.

    An iteration applies ``mat_t`` once and ``mat`` once, to the new iterate;
    A z for the momentum point z = x1 + beta (x1 - x0) is taken by linearity
    from the kept products A x1 and A x0. A restart steps from the last
    accepted iterate, whose product is kept too, so it costs one more product
    of each operator.
    """
    lip = power_norm(lambda v: mat_t @ (mat @ v), grid.n_pixels)
    if lip == 0.0:
        raise SolverError("operator is zero; no step size exists")
    step = 1.0 / lip

    def half_sq(r):
        return 0.5 * float(r @ r)

    x = _clip(np.zeros(grid.n_pixels), opts.box)
    ax = mat @ x
    z, az = x, ax
    t = 1.0
    obj = half_sq(ax - target)
    trace = [obj]
    best_obj, best_x = obj, x.copy()
    stall = 0
    it = 0
    converged = False
    for it in range(1, opts.max_iters + 1):
        x_new = _clip(z - step * (mat_t @ (az - target)), opts.box)
        ax_new = mat @ x_new
        obj_new = half_sq(ax_new - target)
        if not np.isfinite(obj_new):
            raise SolverError(f"objective diverged (non-finite) at iteration {it}")
        if obj_new > obj:
            # restart the momentum sequence from the last accepted iterate
            t = 1.0
            x_new = _clip(x - step * (mat_t @ (ax - target)), opts.box)
            ax_new = mat @ x_new
            obj_new = half_sq(ax_new - target)
            if not np.isfinite(obj_new):
                raise SolverError(f"objective diverged (non-finite) at iteration {it}")
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        z = x_new + beta * (x_new - x)
        az = ax_new + beta * (ax_new - ax)
        x, ax, t, obj = x_new, ax_new, t_new, obj_new
        trace.append(obj)
        if obj < best_obj - opts.tol * max(1.0, abs(best_obj)):
            best_obj, best_x = obj, x.copy()
            stall = 0
        else:
            if obj < best_obj:
                best_obj, best_x = obj, x.copy()
            stall += 1
            if stall >= 10:
                converged = True
                break
    return SolveResult(Image(grid, best_x), best_obj, converged, it, np.array(trace))


def _grad(v, side):
    """Forward differences of a flat image: (horizontal, vertical) pair."""
    v2 = v.reshape(side, side)
    return v2[:, 1:] - v2[:, :-1], v2[1:, :] - v2[:-1, :]


def _div_adjoint(gh, gv, side):
    """Adjoint of :func:`_grad`: maps a dual pair back to an image."""
    out = np.zeros((side, side))
    out[:, :-1] -= gh
    out[:, 1:] += gh
    out[:-1, :] -= gv
    out[1:, :] += gv
    return out


def _chambolle_pock(data_mat, data_t, target, grid, opts, x0):
    """Primal-dual solve of min_x ||data_mat x - target||^2 + w * TV(x) + box.

    An iteration applies ``data_t`` once and ``data_mat`` once, to the new
    iterate, and takes one gradient of it. The products and gradient of the
    iterate give its objective, and, since the extrapolated point
    xbar = 2 x1 - x0 is not clipped, A xbar and grad xbar by linearity for the
    next dual step.
    """
    side = grid.side
    n = grid.n_pixels
    w = opts.tv_weight

    def normal_op(v):
        return data_t @ (data_mat @ v) + _div_adjoint(*_grad(v, side), side).ravel()

    lip = math.sqrt(max(power_norm(normal_op, n), 1e-30))
    sigma = tau = 0.99 / lip

    def objective(ax, gh, gv):
        r = ax - target
        return float(r @ r) + w * float(np.abs(gh).sum() + np.abs(gv).sum())

    x = x0.copy()
    ax = data_mat @ x
    gh, gv = _grad(x, side)
    axbar, ghbar, gvbar = ax, gh, gv
    z1 = 2.0 * (ax - target)
    zh = np.zeros((side, side - 1))
    zv = np.zeros((side - 1, side))
    obj = objective(ax, gh, gv)
    trace = [obj]
    best_obj, best_x = obj, x.copy()
    stall = 0
    converged = False
    it = 0
    for it in range(1, opts.max_iters + 1):
        z1 = (z1 + sigma * (axbar - target)) / (1.0 + 0.5 * sigma)
        if w > 0.0:
            zh = np.clip(zh + sigma * ghbar, -w, w)
            zv = np.clip(zv + sigma * gvbar, -w, w)
            div = _div_adjoint(zh, zv, side).ravel()
        else:
            div = 0.0
        x_new = _clip(x - tau * (data_t @ z1 + div), opts.box)
        ax_new = data_mat @ x_new
        gh_new, gv_new = _grad(x_new, side)
        axbar = 2.0 * ax_new - ax
        ghbar = 2.0 * gh_new - gh
        gvbar = 2.0 * gv_new - gv
        x, ax, gh, gv = x_new, ax_new, gh_new, gv_new
        obj = objective(ax, gh, gv)
        if not np.isfinite(obj):
            raise SolverError(f"objective diverged (non-finite) at iteration {it}")
        trace.append(obj)
        if obj < best_obj - opts.tol * max(1.0, abs(best_obj)):
            best_obj, best_x = obj, x.copy()
            stall = 0
        else:
            if obj < best_obj:
                best_obj, best_x = obj, x.copy()
            stall += 1
            if stall >= 25:
                converged = True
                break
    return SolveResult(Image(grid, best_x), best_obj, converged, it, np.array(trace))


def _as_stack(basis):
    if isinstance(basis, SubspaceBasis):
        return StackedBasis([basis])
    if isinstance(basis, StackedBasis):
        return basis
    raise ValueError(f"expected a basis or stacked basis, got {type(basis).__name__}")


def _stack_norm(stack):
    """||B|| = sqrt(L) for L stacked meshes.

    Every pixel lies in one column of each mesh, so the constant image is in
    every mesh subspace and G 1 = L 1 for G = B B^T, the sum of L orthogonal
    projectors; no eigenvalue of G exceeds L.
    """
    return math.sqrt(len(stack.bases))


def solve_reformulated(basis, q, opts: SolveOptions = None, *, x0: Image = None) -> SolveResult:
    """Recombine subspace coefficients into an image.

    Solves min_x ||q - B^T x||^2 + tv_weight * TV(x) subject to the box, by
    Chambolle-Pock, warm started from the (clipped) minimum-norm least-squares
    solution of B^T x = q. CGLS reaches that start by either of its two stop
    rules: "residual" when q is consistent, "least_squares" when it is not
    (learned or oblique coefficients). The returned image is the iterate of
    lowest objective. TV is anisotropic: the sum of absolute horizontal and
    vertical neighbor differences.
    """
    stack = _as_stack(basis)
    opts = opts or SolveOptions()
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    if q.size != stack.total_k:
        raise ValueError(f"expected {stack.total_k} coefficients, got {q.size}")
    bs = stack.to_sparse()
    if x0 is None:
        start, _, _ = _cgls(bs, q, 1e-8, 4 * stack.total_k + 100, _stack_norm(stack))
        start = _clip(start, opts.box)
    else:
        if x0.grid != stack.grid:
            raise ValueError("warm-start grid does not match basis grid")
        start = _clip(x0.values.copy(), opts.box)
    return _chambolle_pock(bs.T.tocsr(), bs, q, stack.grid, opts, start)


def tv_direct(a, y, opts: SolveOptions = None, *, drop_erased: bool = True,
              x0: Image = None) -> SolveResult:
    """TV-regularized direct inversion min ||A x - y||^2 + tv_weight * TV(x) + box.

    Same Chambolle-Pock machinery as :func:`solve_reformulated`, warm started
    from the box-constrained least-squares solution. With tv_weight = 0 this
    reduces to :func:`nnls` up to tolerance.
    """
    opts = opts or SolveOptions()
    mat, target, grid = _coerce_system(a, y, drop_erased)
    if opts.tv_weight == 0.0:
        # The problem is plain box-constrained least squares.
        img, info = nnls(mat, target, opts, return_info=True)
        return SolveResult(img, 2.0 * info.objective, info.converged,
                           info.iterations, 2.0 * info.objectives)
    if x0 is None:
        warm_opts = SolveOptions(max_iters=max(200, opts.max_iters), tol=opts.tol,
                                 box=opts.box)
        start = nnls(mat, target, warm_opts).values
    else:
        if x0.grid != grid:
            raise ValueError("warm-start grid does not match data grid")
        start = _clip(x0.values.copy(), opts.box)
    mat_t = mat.T if sparse.issparse(mat) else np.ascontiguousarray(mat.T)
    return _chambolle_pock(mat, mat_t, target, grid, opts, start)


def _cgls(bs, q, tol, max_iters, b_norm):
    """CGLS on B^T x = q with iterates in range(B); returns (x, rel_residual, reason).

    Stops with reason "residual" once ||r|| <= tol ||q|| for r = q - B^T x: x
    solves the system. Stops with reason "least_squares" once the
    normal-equation residual ||B r|| <= tol ||B|| ||r|| (Paige & Saunders,
    ACM TOMS 8, 1982): x is a least-squares solution of an inconsistent system.
    Otherwise stops with reason "max_iters". ``b_norm`` is ||B||.
    """
    bt = bs.T.tocsr()
    qn = np.linalg.norm(q)
    x = np.zeros(bs.shape[0])
    r = q.copy()
    p = None
    for it in range(max_iters + 1):
        rn = np.linalg.norm(r)
        if rn <= tol * qn:
            return x, float(rn / qn) if qn else 0.0, "residual"
        s = bs @ r
        gamma_new = float(s @ s)
        if math.sqrt(gamma_new) <= tol * b_norm * rn:
            return x, float(rn / qn), "least_squares"
        if it == max_iters:
            return x, float(rn / qn), "max_iters"
        p = s if p is None else s + (gamma_new / gamma) * p
        gamma = gamma_new
        u = bt @ p
        alpha = gamma / float(u @ u)
        x += alpha * p
        r -= alpha * u


def minnorm_solve(basis, q, tol: float = 1e-8, max_iters: int = None) -> Image:
    """Minimum-norm solution of B^T x = q by conjugate gradients (CGLS).

    Iterates stay in range(B), so the converged solution is the minimum-norm
    one. CGLS stops for one of two named reasons: "residual" (the relative
    residual reached ``tol``) or "least_squares" (x is the minimum-norm
    least-squares solution and q is inconsistent), or else at ``max_iters``.
    Raises :class:`SolverError` unless the reason is "residual".
    """
    stack = _as_stack(basis)
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    if q.size != stack.total_k:
        raise ValueError(f"expected {stack.total_k} coefficients, got {q.size}")
    bs = stack.to_sparse()
    if max_iters is None:
        max_iters = 4 * stack.total_k + 100
    x, rel, reason = _cgls(bs, q, tol, max_iters, _stack_norm(stack))
    if reason != "residual":
        raise SolverError(
            f"CGLS stagnated at relative residual {rel:.3e} (tol {tol:.1e}); "
            "the coefficient vector may be inconsistent"
        )
    return Image(stack.grid, x)
