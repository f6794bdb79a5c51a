"""Subspace-coefficient estimators.

Three routes from data to the coefficients q = B^T x of an image in a mesh
basis: the oracle (ground truth projection), a consistent linear operator
built from the ray matrix (oblique back-projection), and trained estimators
that map a warm-start reconstruction to coefficients by empirical risk
minimization in coefficient space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from .core import FormatError, Image, Seed, pack_f32, unpack_f32
from .mesh import StackedBasis, SubspaceBasis
from .solve import SolverError
from .tomo import Measurement, RayMatrix

__all__ = [
    "Estimator",
    "ObliqueOperator",
    "TrainConfig",
    "TrainHistory",
    "build_oblique",
    "estimate_coeffs",
    "load_estimator",
    "oblique_coeffs",
    "oracle_coeffs",
    "pooled_features",
    "save_estimator",
    "train_ensemble",
    "train_estimator",
]

_KINDS = ("per-mesh-affine", "shared-pooled")
_N_POOLED_FEATURES = 5


def oracle_coeffs(basis: SubspaceBasis, x: Image) -> np.ndarray:
    """Ground-truth coefficients B^T x."""
    return basis.coeffs(x)


# ---------------------------------------------------------------------------
# oblique (consistent linear) estimator

@dataclass
class ObliqueOperator:
    """The oblique estimator as its coefficient map C = (A B)^+ (K x M).

    F = B C is the reconstruction consistent on the subspace: F A b = b for
    every basis column b; generic images land obliquely in the subspace.
    ``basis_matrix`` is B as given (CSR for a SubspaceBasis); the dense N x M
    F is formed only when ``operator`` is read.
    """

    coeff_map: np.ndarray      # (K, M)
    basis_matrix: object       # (N, K), CSR or dense

    @cached_property
    def operator(self) -> np.ndarray:
        """F = B C (N x M), built on first use and kept."""
        return np.asarray(self.basis_matrix @ self.coeff_map)


def build_oblique(a, basis) -> ObliqueOperator:
    """Build C = (A B)^+ and verify subspace consistency, C A B = I_K.

    ``a`` is a RayMatrix or plain matrix; ``basis`` a SubspaceBasis (or raw
    N x K matrix for test harnesses). Raises ValueError if A B is column-rank
    deficient, and SolverError if C A B departs from I_K by more than 1e-8.
    """
    a_mat = a.matrix if isinstance(a, RayMatrix) else (
        a if sparse.issparse(a) else np.asarray(a, dtype=np.float64))
    b_mat = (basis.to_sparse() if isinstance(basis, SubspaceBasis)
             else np.asarray(basis, dtype=np.float64))
    if b_mat.ndim != 2:
        raise ValueError("basis must be a 2-D matrix")
    if a_mat.shape[1] != b_mat.shape[0]:
        raise ValueError(
            f"operator has {a_mat.shape[1]} columns but basis has {b_mat.shape[0]} rows")
    ab = a_mat @ b_mat
    ab = np.asarray(ab.todense()) if sparse.issparse(ab) else np.asarray(ab)
    k = ab.shape[1]
    # a column that no ray sees already proves rank < K; most rejected draws
    # stop here without paying for the SVD
    empty = np.flatnonzero(~ab.any(axis=0))
    if empty.size:
        raise ValueError(
            f"A B is rank deficient: columns {empty.tolist()} of A B are zero; "
            "the subspace is not identifiable from these rays")
    u, s, vt = np.linalg.svd(ab, full_matrices=False)
    rank = int(np.sum(s > s[0] * 1e-10)) if s.size else 0
    if rank < k:
        raise ValueError(
            f"A B is rank deficient: rank {rank} < K = {k}; "
            "the subspace is not identifiable from these rays")
    pinv = (vt.T / s) @ u.T
    # consistency on the basis columns: C A B = I_K, so F A b = b
    worst = float(np.abs(pinv @ ab - np.eye(k)).max())
    if worst > 1e-8:
        raise SolverError(f"oblique consistency check failed: max residual {worst:.2e}")
    return ObliqueOperator(pinv, b_mat)


def oblique_coeffs(op: ObliqueOperator, y) -> np.ndarray:
    """Coefficients C y of the oblique reconstruction F y = B C y; F is never formed.

    C y equals B^T F y whenever B^T B = I, which holds for every SubspaceBasis;
    for a non-orthonormal B, C y is still the coefficient vector of F y.
    Erased entries enter as zeros; the map itself is mask-agnostic.
    """
    values = y.values if isinstance(y, Measurement) else np.asarray(y, dtype=np.float64)
    if values.size != op.coeff_map.shape[1]:
        raise ValueError(f"expected {op.coeff_map.shape[1]} measurements, got {values.size}")
    return op.coeff_map @ values


# ---------------------------------------------------------------------------
# trained estimators

@dataclass
class TrainConfig:
    """Settings of the closed-form estimator fit.

    ``validation_fraction``, ``weight_decay`` and ``seed`` set the fit: the
    seed draws the one train/validation split every mesh shares, and the
    finite ``weight_decay`` is the ridge penalty of the per-entry MSE.
    ``epochs``, ``batch_size`` and ``lr`` are still range-checked so existing
    configs keep loading, but they do not change the fit.
    """

    epochs: int = 80
    batch_size: int = 32
    lr: float = 1e-3
    validation_fraction: float = 0.2
    weight_decay: float = 0.0
    seed: Seed = field(default_factory=Seed)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (self.lr > 0):
            raise ValueError("lr must be positive")
        if not (0.0 <= self.validation_fraction < 1.0):
            raise ValueError("validation_fraction must be in [0, 1)")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")


@dataclass
class TrainHistory:
    """Coefficient MSE of the zero map and of the fitted map, per split.

    For per-mesh-affine these are residual MSEs above the subspace projection.
    ``val_loss`` is NaN when the validation split is empty.
    """

    train_loss: np.ndarray
    val_loss: np.ndarray


@dataclass
class Estimator:
    """Affine coefficient estimator.

    kind "per-mesh-affine": q_hat = weight @ warm + bias, with weight (K, N)
    bound to one basis via ``fingerprint``. kind "shared-pooled": one weight
    vector over per-triangle pooled features, reusable across meshes and
    equivariant to triangle reindexing.
    """

    kind: str
    weight: np.ndarray
    bias: np.ndarray
    fingerprint: str = ""
    history: TrainHistory = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.kind == "shared-pooled":
            want = ((_N_POOLED_FEATURES,), (1,))
        else:  # weight (K, N), bias (K,)
            w = self.weight.shape
            want = (w, w[:1]) if len(w) == 2 else ("(K, N)", "(K,)")
        if (self.weight.shape, self.bias.shape) != want:
            raise ValueError(f"{self.kind} needs weight {want[0]} and bias {want[1]}, "
                             f"got {self.weight.shape} and {self.bias.shape}")

    @staticmethod
    def zero_affine(basis: SubspaceBasis) -> "Estimator":
        return Estimator("per-mesh-affine", np.zeros((basis.k, basis.grid.n_pixels)),
                         np.zeros(basis.k), basis.fingerprint)

    @staticmethod
    def zero_pooled() -> "Estimator":
        return Estimator("shared-pooled", np.zeros(_N_POOLED_FEATURES), np.zeros(1))


def pooled_features(basis: SubspaceBasis, warm_values: np.ndarray) -> np.ndarray:
    """(K, 5) per-triangle features of a warm start: mean, mean*sqrt(count),
    area fraction, centroid x, centroid y.

    The second feature equals the oracle coefficient when the warm start is
    exact, so the identity map is representable. Rows follow triangle order,
    which makes any shared map equivariant to triangle reindexing.
    """
    counts = basis.counts.astype(np.float64)
    sums = np.bincount(basis.assignment, weights=warm_values, minlength=basis.k)
    means = sums / counts
    centers = basis.grid.centers()
    cx = np.bincount(basis.assignment, weights=centers[:, 0], minlength=basis.k) / counts
    cy = np.bincount(basis.assignment, weights=centers[:, 1], minlength=basis.k) / counts
    return np.column_stack([means, means * np.sqrt(counts), counts / basis.grid.n_pixels,
                            cx, cy])


def estimate_coeffs(est: Estimator, basis: SubspaceBasis, y_warm: Image) -> np.ndarray:
    """Apply a trained (or zero-initialized) estimator to a warm start."""
    if y_warm.grid != basis.grid:
        raise ValueError("warm-start grid does not match basis grid")
    if est.kind == "per-mesh-affine":
        if est.fingerprint and est.fingerprint != basis.fingerprint:
            raise ValueError(
                f"estimator is bound to basis {est.fingerprint}, got {basis.fingerprint}")
        if est.weight.shape != (basis.k, basis.grid.n_pixels):
            raise ValueError(
                f"estimator weight shape {est.weight.shape} does not match "
                f"(K={basis.k}, N={basis.grid.n_pixels})")
        return est.weight @ y_warm.values + est.bias
    feats = pooled_features(basis, y_warm.values)
    return feats @ est.weight + est.bias[0]


def _ridge_fit(xmat, blocks, cfg):
    """Exact affine ridge fit of each (J, ..., K_l) target block T_l by xmat.

    The first axis of xmat and of every block indexes the J samples the
    seeded train/validation split draws from. A sample may hold several rows
    (a 3-D array); the rows are laid out after the split, so all of a
    sample's rows fall in one split. Minimises
    mean((X W^T + b - T_l)^2) + weight_decay * ||W||^2 over the train rows,
    with the bias unpenalised. Centring X and T_l on the train
    rows removes the bias, and multiplying through by T_l's train size gives
    ||X_c W^T - T_c||^2 + lam_l ||W||^2, lam_l = weight_decay * (rows * K_l).
    One seeded train/validation split and one thin SVD X_c = U S V^T serve
    every block, W_l^T = V diag(s / (s^2 + lam_l)) U^T T_c, so each block's fit
    is exactly its fit alone on that split. Singular values below the cutoff
    of ``numpy.linalg.lstsq`` are dropped: weight_decay = 0 gives the
    minimum-norm least-squares map. Returns one (W, b, history) per block,
    whose loss curves are the MSE of the zero map and of the fit per split.
    """
    n_samples = xmat.shape[0]
    perm = cfg.seed.rng().permutation(n_samples)
    n_val = int(round(cfg.validation_fraction * n_samples))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if train_idx.size == 0:
        raise ValueError("no training samples left after the validation split")

    def rows(a, idx):
        return a[idx].reshape(-1, a.shape[-1])

    x_tr = rows(xmat, train_idx)
    x_mean = x_tr.mean(axis=0)
    u, s, vt = np.linalg.svd(x_tr - x_mean, full_matrices=False)
    keep = s > s[0] * max(x_tr.shape) * np.finfo(np.float64).eps
    u, s, vt = u[:, keep], s[keep], vt[keep]
    fits = []
    for tmat in blocks:
        t_tr = rows(tmat, train_idx)
        t_mean = t_tr.mean(axis=0)
        gain = s / (s ** 2 + cfg.weight_decay * t_tr.size)
        wt = vt.T @ (gain[:, None] * (u.T @ (t_tr - t_mean)))
        b = t_mean - x_mean @ wt
        losses = [[np.mean(rows(tmat, idx) ** 2),
                   np.mean((rows(xmat, idx) @ wt + b - rows(tmat, idx)) ** 2)]
                  if idx.size else [np.nan, np.nan] for idx in (train_idx, val_idx)]
        fits.append((wt.T, b, TrainHistory(*map(np.array, losses))))
    return fits


def train_estimator(dataset, basis, cfg: TrainConfig, kind: str = "per-mesh-affine") -> Estimator:
    """Fit an estimator to (image, warm start) pairs by coefficient-space ridge.

    ``dataset`` is a list of (x, y_warm) Image pairs. Targets are the oracle
    coefficients B^T x. per-mesh-affine requires a single SubspaceBasis and is
    the one-mesh case of :func:`train_ensemble`. shared-pooled accepts a
    SubspaceBasis or a StackedBasis, pools the per-triangle feature rows of
    every member basis and fits them as one block of :func:`_ridge_fit`; its
    split is drawn over images, each image one sample of all its rows.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    if kind not in _KINDS:
        raise ValueError(f"unknown estimator kind {kind!r}")
    if kind == "per-mesh-affine":
        if not isinstance(basis, SubspaceBasis):
            raise ValueError("per-mesh-affine trains against one SubspaceBasis; "
                             "use train_ensemble for a stacked basis")
        return train_ensemble(dataset, StackedBasis([basis]), cfg)[0]
    bases = basis.bases if isinstance(basis, StackedBasis) else [basis]
    # (images, sum K, 5) features and (images, sum K, 1) targets
    xmat = np.stack([np.concatenate([pooled_features(bb, warm.values) for bb in bases])
                     for _, warm in dataset])
    tmat = np.stack([np.concatenate([oracle_coeffs(bb, x) for bb in bases])
                     for x, _ in dataset])[..., None]
    [(w, b, history)] = _ridge_fit(xmat, [tmat], cfg)
    return Estimator(kind, w.ravel(), b, "", history)


def train_ensemble(dataset, stack: StackedBasis, cfg: TrainConfig) -> list:
    """One per-mesh-affine estimator per member of ``stack``, all from one fit.

    Mesh l's map fits the residual B_l^T (x - warm) above the warm start's
    own projection (the zero map; weight decay shrinks toward it, and the loss
    curves are residual MSEs) and is returned folded, B_l^T + W_l. One product
    with the stack's B^T gives every residual, and :func:`_ridge_fit` fits
    them on one split from ``cfg.seed`` with one SVD. At weight_decay = 0
    every map is B_l^T (I + R) for one pixel-space R, so the stacked
    coefficients are those of one image; lam_l scales with K_l, so a positive
    weight_decay leaves them only close to consistent.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    xmat = np.stack([warm.values for _, warm in dataset])
    truth = np.stack([x.values for x, _ in dataset])
    bt = stack.csr_pair[1]
    tres = (bt @ (truth - xmat).T).T
    fits = _ridge_fit(xmat, np.split(tres, stack.offsets[1:], axis=1), cfg)
    return [Estimator("per-mesh-affine", bt[lo:lo + bb.k].toarray() + w, b,
                      bb.fingerprint, history)
            for bb, lo, (w, b, history) in zip(stack.bases, stack.offsets, fits)]


# ---------------------------------------------------------------------------
# persistence: one-line JSON header + little-endian float32 parameter blob

def save_estimator(est: Estimator, path) -> None:
    header = {"bias_shape": list(est.bias.shape), "fingerprint": est.fingerprint,
              "kind": est.kind, "weight_shape": list(est.weight.shape)}  # sorted keys
    with open(path, "wb") as fh:
        fh.write(pack_f32(header, np.concatenate([est.weight.ravel(), est.bias.ravel()])))


def _shape(header, key):
    shape = header[key]
    if not (isinstance(shape, list)
            and all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in shape)):
        raise FormatError(f"header field {key!r} must be a list of "
                          f"non-negative integers, got {shape!r}")
    return tuple(shape)


def _param_count(header):
    for key in ("kind", "weight_shape", "bias_shape"):
        if key not in header:
            raise FormatError(f"header missing field {key!r}")
    if header["kind"] not in _KINDS:
        raise FormatError(f"unknown estimator kind {header['kind']!r}")
    if not isinstance(header.get("fingerprint", ""), str):
        raise FormatError("header field 'fingerprint' must be a string")
    return math.prod(_shape(header, "weight_shape")) + math.prod(_shape(header, "bias_shape"))


def load_estimator(path) -> Estimator:
    with open(path, "rb") as fh:
        header, params = unpack_f32(fh.read(), path, _param_count)
    w_shape, b_shape = _shape(header, "weight_shape"), _shape(header, "bias_shape")
    n_weight = math.prod(w_shape)
    try:
        return Estimator(header["kind"], params[:n_weight].reshape(w_shape),
                         params[n_weight:].reshape(b_shape), header.get("fingerprint", ""))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
