"""Subspace-coefficient estimators.

Three routes from data to the coefficients q = B^T x of an image in a mesh
basis: the oracle (ground truth projection), a consistent linear operator
built from the ray matrix (oblique back-projection), and trained estimators
that map a warm-start reconstruction to coefficients by empirical risk
minimization in coefficient space.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import sparse

from .core import FormatError, Grid, Image, Seed
from .mesh import StackedBasis, SubspaceBasis
from .solve import SolverError
from .tomo import Measurement, RayMatrix

__all__ = [
    "Estimator",
    "ObliqueOperator",
    "TrainConfig",
    "TrainHistory",
    "basis_fingerprint",
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


def basis_fingerprint(basis: SubspaceBasis) -> str:
    """Stable hash of (mesh, grid side), used to bind estimators to their basis.

    The hash is ``SubspaceBasis.fingerprint``, computed once per basis.
    """
    return basis.fingerprint


# ---------------------------------------------------------------------------
# oblique (consistent linear) estimator

@dataclass
class ObliqueOperator:
    """F = B (A B)^+, the linear reconstruction consistent on the subspace.

    F A b = b for every basis column b, so measurements of a subspace image
    reproduce it exactly; generic images land obliquely in the subspace.
    """

    operator: np.ndarray       # (N, M)
    basis_matrix: np.ndarray   # (N, K), dense or sparse
    fingerprint: str = ""

    @property
    def k(self) -> int:
        return self.basis_matrix.shape[1]


def _basis_matrix(basis):
    if isinstance(basis, (SubspaceBasis, StackedBasis)):
        return basis.to_sparse()
    mat = np.asarray(basis, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError("basis must be a 2-D matrix")
    return mat


def build_oblique(a, basis) -> ObliqueOperator:
    """Build F = B (A B)^+ and verify subspace consistency.

    ``a`` is a RayMatrix or plain matrix; ``basis`` a SubspaceBasis (or raw
    N x K matrix for test harnesses). Raises if A B is column-rank deficient.
    """
    a_mat = a.matrix if isinstance(a, RayMatrix) else (
        a if sparse.issparse(a) else np.asarray(a, dtype=np.float64))
    b_mat = _basis_matrix(basis)
    if a_mat.shape[1] != b_mat.shape[0]:
        raise ValueError(
            f"operator has {a_mat.shape[1]} columns but basis has {b_mat.shape[0]} rows")
    ab = a_mat @ b_mat
    ab = np.asarray(ab.todense()) if sparse.issparse(ab) else np.asarray(ab)
    k = ab.shape[1]
    u, s, vt = np.linalg.svd(ab, full_matrices=False)
    rank = int(np.sum(s > s[0] * 1e-10)) if s.size else 0
    if rank < k:
        raise ValueError(
            f"A B is rank deficient: rank {rank} < K = {k}; "
            "the subspace is not identifiable from these rays")
    pinv = (vt.T / s) @ u.T
    f = b_mat @ pinv
    f = np.asarray(f.todense()) if sparse.issparse(f) else np.asarray(f)
    # consistency check on the basis columns: F A b = b
    bb = b_mat.toarray() if sparse.issparse(b_mat) else b_mat
    resid = f @ (a_mat @ bb) - bb
    worst = float(np.abs(resid).max())
    if worst > 1e-8:
        raise SolverError(f"oblique consistency check failed: max residual {worst:.2e}")
    # hashed only now, so rank-deficient draws skip it
    fp = basis_fingerprint(basis) if isinstance(basis, SubspaceBasis) else ""
    return ObliqueOperator(f, bb, fp)


def oblique_coeffs(op: ObliqueOperator, y) -> np.ndarray:
    """Coefficients B^T F y of the oblique reconstruction.

    Erased entries enter as zeros; the operator itself is mask-agnostic.
    """
    values = y.values if isinstance(y, Measurement) else np.asarray(y, dtype=np.float64)
    if values.size != op.operator.shape[1]:
        raise ValueError(f"expected {op.operator.shape[1]} measurements, got {values.size}")
    return op.basis_matrix.T @ (op.operator @ values)


# ---------------------------------------------------------------------------
# trained estimators

@dataclass
class TrainConfig:
    epochs: int = 80
    batch_size: int = 32
    lr: float = 1e-3
    optimizer: str = "adam"
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
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        if not (0.0 <= self.validation_fraction < 1.0):
            raise ValueError("validation_fraction must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")


@dataclass
class TrainHistory:
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

    @staticmethod
    def zero_affine(basis: SubspaceBasis) -> "Estimator":
        n = basis.grid.n_pixels
        return Estimator("per-mesh-affine", np.zeros((basis.k, n)), np.zeros(basis.k),
                         basis_fingerprint(basis))

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
        fp = basis_fingerprint(basis)
        if est.fingerprint and est.fingerprint != fp:
            raise ValueError(
                f"estimator is bound to basis {est.fingerprint}, got {fp}")
        if est.weight.shape != (basis.k, basis.grid.n_pixels):
            raise ValueError(
                f"estimator weight shape {est.weight.shape} does not match "
                f"(K={basis.k}, N={basis.grid.n_pixels})")
        return est.weight @ y_warm.values + est.bias
    feats = pooled_features(basis, y_warm.values)
    return feats @ est.weight + est.bias[0]


def _adam_sgd_fit(xmat, tmat, cfg, zero_params):
    """Mini-batch fit of an affine map xmat @ W.T + b to tmat.

    Returns (W, b, train_curve, val_curve). Works for both estimator kinds:
    per-mesh uses (J, N) inputs and (J, K) targets; shared-pooled uses pooled
    rows (J*K, 5) and scalar targets reshaped to (J*K, 1).
    """
    n_samples = xmat.shape[0]
    rng = cfg.seed.rng()
    perm = rng.permutation(n_samples)
    n_val = int(round(cfg.validation_fraction * n_samples))
    val_idx = perm[:n_val]
    train_idx = perm[n_val:]
    if train_idx.size == 0:
        raise ValueError("no training samples left after the validation split")
    w, b = zero_params
    mw = np.zeros_like(w); vw = np.zeros_like(w)
    mb = np.zeros_like(b); vb = np.zeros_like(b)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    train_curve, val_curve = [], []

    def mse(idx):
        if idx.size == 0:
            return np.nan
        pred = xmat[idx] @ w.T + b
        return float(np.mean((pred - tmat[idx]) ** 2))

    for epoch in range(cfg.epochs):
        order = rng.permutation(train_idx)
        batch_losses = []
        for lo in range(0, order.size, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            xb = xmat[idx]
            err = xb @ w.T + b - tmat[idx]
            loss = float(np.mean(err**2))
            if not np.isfinite(loss):
                raise SolverError(f"training loss became non-finite at epoch {epoch}")
            batch_losses.append(loss)
            scale = 2.0 / err.size
            gw = scale * (err.T @ xb)
            gb = scale * err.sum(axis=0)
            if cfg.weight_decay > 0.0:
                gw = gw + 2.0 * cfg.weight_decay * w
            if cfg.optimizer == "sgd":
                w = w - cfg.lr * gw
                b = b - cfg.lr * gb
            else:
                step += 1
                mw = beta1 * mw + (1 - beta1) * gw
                vw = beta2 * vw + (1 - beta2) * gw**2
                mb = beta1 * mb + (1 - beta1) * gb
                vb = beta2 * vb + (1 - beta2) * gb**2
                c1 = 1 - beta1**step
                c2 = 1 - beta2**step
                w = w - cfg.lr * (mw / c1) / (np.sqrt(vw / c2) + eps)
                b = b - cfg.lr * (mb / c1) / (np.sqrt(vb / c2) + eps)
        train_curve.append(float(np.mean(batch_losses)))
        val_curve.append(mse(val_idx))
    return w, b, np.array(train_curve), np.array(val_curve)


def train_estimator(dataset, basis, cfg: TrainConfig, kind: str = "per-mesh-affine") -> Estimator:
    """Fit an estimator to (image, warm start) pairs by coefficient-space MSE.

    ``dataset`` is a list of (x, y_warm) Image pairs. Targets are the oracle
    coefficients B^T x. per-mesh-affine requires a single SubspaceBasis and
    optimizes the residual above the warm start's own subspace projection
    (its loss curves therefore report residual MSE); the returned weight is
    the folded full map. shared-pooled accepts a SubspaceBasis or a
    StackedBasis (pooling samples across all member bases).
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    if kind not in _KINDS:
        raise ValueError(f"unknown estimator kind {kind!r}")
    if kind == "per-mesh-affine":
        if not isinstance(basis, SubspaceBasis):
            raise ValueError(
                "per-mesh-affine trains against one SubspaceBasis; "
                "use train_ensemble for a stacked basis")
        xmat = np.stack([warm.values for _, warm in dataset])
        tmat = np.stack([oracle_coeffs(basis, x) for x, _ in dataset])
        # Train anchored at the subspace projection: fit a residual map on
        # top of B^T so the zero-initialized optimizer starts from the
        # projection of the warm start and weight decay shrinks toward that
        # projection instead of toward the zero map.
        bt = basis.to_sparse().T.tocsr()
        tres = tmat - (bt @ xmat.T).T
        w0 = np.zeros((basis.k, basis.grid.n_pixels))
        b0 = np.zeros(basis.k)
        w, b, tr, va = _adam_sgd_fit(xmat, tres, cfg, (w0, b0))
        w = bt.toarray() + w
        return Estimator(kind, w, b, basis_fingerprint(basis), TrainHistory(tr, va))
    bases = basis.bases if isinstance(basis, StackedBasis) else [basis]
    rows, targets = [], []
    for x, warm in dataset:
        for bb in bases:
            rows.append(pooled_features(bb, warm.values))
            targets.append(oracle_coeffs(bb, x))
    xmat = np.concatenate(rows)
    tmat = np.concatenate(targets)[:, None]
    w0 = np.zeros((1, _N_POOLED_FEATURES))
    b0 = np.zeros(1)
    w, b, tr, va = _adam_sgd_fit(xmat, tmat, cfg, (w0, b0))
    return Estimator(kind, w.ravel(), b, "", TrainHistory(tr, va))


def train_ensemble(dataset, stack: StackedBasis, cfg: TrainConfig) -> list:
    """One per-mesh-affine estimator per member of ``stack`` (derived seeds)."""
    out = []
    for i, bb in enumerate(stack.bases):
        out.append(train_estimator(dataset, bb, replace(cfg, seed=cfg.seed.derive(i))))
    return out


# ---------------------------------------------------------------------------
# persistence: one-line JSON header + little-endian float32 parameter blob

def save_estimator(est: Estimator, path) -> None:
    header = {
        "kind": est.kind,
        "weight_shape": list(est.weight.shape),
        "bias_shape": list(est.bias.shape),
        "fingerprint": est.fingerprint,
    }
    blob = np.concatenate([est.weight.ravel(), est.bias.ravel()]).astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":"), sort_keys=True).encode("ascii"))
        fh.write(b"\n")
        fh.write(blob)


def load_estimator(path) -> Estimator:
    with open(path, "rb") as fh:
        blob = fh.read()
    newline = blob.find(b"\n")
    if newline < 0:
        raise FormatError(f"{path}: missing header line")
    try:
        header = json.loads(blob[:newline].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unparseable JSON header: {exc}") from exc
    for key in ("kind", "weight_shape", "bias_shape"):
        if key not in header:
            raise FormatError(f"{path}: header missing field {key!r}")
    if header["kind"] not in _KINDS:
        raise FormatError(f"{path}: unknown estimator kind {header['kind']!r}")
    w_shape = tuple(int(v) for v in header["weight_shape"])
    b_shape = tuple(int(v) for v in header["bias_shape"])
    n_params = int(np.prod(w_shape)) + int(np.prod(b_shape))
    payload = blob[newline + 1 :]
    if len(payload) != 4 * n_params:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, expected {4 * n_params}")
    params = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    w = params[: int(np.prod(w_shape))].reshape(w_shape)
    b = params[int(np.prod(w_shape)) :].reshape(b_shape)
    return Estimator(header["kind"], w, b, header.get("fingerprint", ""))
