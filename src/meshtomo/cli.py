"""Command-line pipeline around the library.

Ten subcommands cover the full experimental loop: phantom generation, mesh
generation, forward projection, measurement corruption, warm-start inversion,
estimator training, coefficient estimation (oracle / oblique / learned),
reconstruction (subspace recombination or direct TV), Monte Carlo kernel
studies, and SNR evaluation reports.

Every command accepts ``--config FILE`` (a JSON object whose keys are the
long flag names with underscores) and long-form flags that override the file.
Each output directory receives a ``manifest.json`` echoing the resolved
configuration and its SHA-256 hash; identical configurations produce
byte-identical outputs. The commands that draw random numbers (gen-data,
gen-mesh, corrupt, train, kernel-mc) take ``--seed``, so it is part of
their configuration.

Exit codes: 0 success, 2 configuration error, 3 an input that is missing, not
a regular file, unreadable or undecodable, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from .core import FormatError, Grid, Image, Seed, load_image, save_image, write_json
from .data import (ShapesConfig, gen_checkerboard, gen_shapes, load_dataset,
                   output_snr, save_dataset, shapes_manifest)
from .estimate import (Estimator, TrainConfig, build_oblique, estimate_coeffs,
                       load_estimator, oblique_coeffs, oracle_coeffs,
                       save_estimator, train_ensemble, train_estimator)
from .kernel import mc_expected_recon, save_radial_profile
from .mesh import (StackedBasis, load_mesh, mesh_with_k_triangles, rasterize,
                   save_mesh)
from .solve import SolveOptions, SolverError, nnls, solve_reformulated, tv_direct
from .tomo import (Measurement, add_gaussian_noise, build_ray_matrix, erase,
                   forward, load_measurement, place_sensors, save_measurement)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    """Configuration schema violation; message names the offending field."""


# ---------------------------------------------------------------------------
# options and config resolution

def _label_dirs(value):
    """LABEL -> directory: an object in a config file, or the list of
    ``LABEL=DIR`` strings that repeated ``--recon`` flags give."""
    if isinstance(value, list):
        pairs = {}
        for spec in value:
            label, _, path = str(spec).partition("=")
            if not (label and path):
                raise ValueError(f"expected LABEL=DIR, got {spec!r}")
            pairs[label] = path
        value = pairs
    if not (isinstance(value, dict) and value
            and all(isinstance(path, str) for path in value.values())):
        raise ValueError("expected a non-empty object label -> directory path")
    return dict(value)


# Each option's type and help, declared once. Flags are parsed as strings and
# converted by ``_coerce`` exactly like config-file values.
_OPTIONS = {
    "count": (int, "number of images"),
    "grid_side": (int, "pixels per image side"),
    "kind": (str, "dataset kind: shapes | checkerboard"),
    "shapes_min": (int, "minimum shapes per image"),
    "shapes_max": (int, "maximum shapes per image"),
    "intensity_min": (float, "lower intensity bound"),
    "intensity_max": (float, "upper intensity bound"),
    "cells": (int, "checkerboard cells per side"),
    "seed": (int, "RNG seed (recorded in the manifest)"),
    "out": (str, "output directory"),
    "triangles": (int, "triangles per mesh (K)"),
    "subspaces": (int, "number of meshes"),
    "data": (str, "dataset directory"),
    "sensors": (int, "sensors on the boundary circle"),
    "measurements": (str, "measurement directory"),
    "snr_db": (float, "input SNR in dB, or 'inf' for noiseless"),
    "erasure_p": (float, "independent erasure probability"),
    "max_iters": (int, "solver iteration cap"),
    "tol": (float, "solver tolerance"),
    "warm": (str, "warm-start image directory"),
    "meshes": (str, "mesh directory"),
    "estimator_kind": (str, "per-mesh-affine | shared-pooled"),
    "epochs": (int, "accepted for old configs; the closed-form fit ignores it"),
    "batch_size": (int, "accepted for old configs; the closed-form fit ignores it"),
    "lr": (float, "accepted for old configs; the closed-form fit ignores it"),
    "validation_fraction": (float, "held-out fraction during training"),
    "weight_decay": (float, "ridge penalty on weights (per-entry MSE scale)"),
    "backend": (str, "oracle | oblique | learned"),
    "estimators": (str, "trained estimator directory"),
    "method": (str, "recombine | tv-direct"),
    "coeffs": (str, "coefficient directory"),
    "tv_weight": (float, "TV regularization weight"),
    "trials": (int, "Monte Carlo trials"),
    "pixel": (str, "'center' or 'i,j' test pixel"),
    "recons": (_label_dirs, "reconstruction directory to score (repeatable)"),
}

REQUIRED = object()  # field default meaning "must be given"; None means optional


def _coerce(field, typ, value):
    """Convert a flag string or a config-file value to the field's type."""
    try:
        if typ in (int, float) and isinstance(value, bool):
            raise ValueError(f"expected a number, got {value!r}")
        if typ is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"expected an integer, got {value!r}")
        value = typ(value)
        if typ is float and math.isnan(value):
            raise ValueError("expected a number, got nan")
        return value
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field '{field}': {exc}") from exc


def _resolve(args, fields):
    """Merge file config and CLI flags; CLI wins, then file, then default.

    A missing required value or an unknown file key raises ConfigError naming
    the field.
    """
    file_cfg = {}
    if args.config:
        path = args.config
        with open(path, "r", encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {path}: top level must be an object")
        for key in file_cfg:
            if key not in fields:
                raise ConfigError(f"unknown config field '{key}'")
    cfg = {}
    for name, default in fields.items():
        value = getattr(args, name)
        if value is None:
            value = file_cfg.get(name, default)
        if value is None or value is REQUIRED:
            if default is not None:
                raise ConfigError(f"missing required field '{name}'")
            cfg[name] = None
        else:
            cfg[name] = _coerce(name, _OPTIONS[name][0], value)
    return cfg


def _jsonable(cfg):
    out = {}
    for key, value in cfg.items():
        if isinstance(value, float) and math.isinf(value):
            out[key] = "inf" if value > 0 else "-inf"
        else:
            out[key] = value
    return out


def _manifest_payload(command, cfg, extra=None):
    payload = {"command": command, "config": _jsonable(cfg)}
    canonical = json.dumps(payload["config"], sort_keys=True,
                           separators=(",", ":")).encode("ascii")
    payload["config_sha256"] = hashlib.sha256(canonical).hexdigest()
    if extra:
        payload.update(extra)
    return payload


def _write_manifest(out_dir, command, cfg, extra=None):
    payload = _manifest_payload(command, cfg, extra)
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "manifest.json"), payload)


def _require_dir(path, field):
    if path is None:
        raise ConfigError(f"missing required field '{field}'")
    if not os.path.isdir(path):
        raise FileNotFoundError(path)
    return path


def _listed(dirpath, suffix):
    names = sorted(n for n in os.listdir(dirpath)
                   if n.endswith(suffix) and n != "manifest.json")
    if not names:
        raise FileNotFoundError(f"{dirpath}: no {suffix} files")
    return [os.path.join(dirpath, n) for n in names]


def _load_meshes(dirpath):
    return [load_mesh(p) for p in _listed(dirpath, ".json")]


def _load_images_dir(dirpath):
    return [load_image(p) for p in _listed(dirpath, ".f32raw")]


# ---------------------------------------------------------------------------
# subcommands

def _cmd_gen_data(cfg):
    if cfg["kind"] == "shapes":
        scfg = ShapesConfig(cfg["count"], cfg["grid_side"],
                            (cfg["shapes_min"], cfg["shapes_max"]),
                            intensity_range=(cfg["intensity_min"], cfg["intensity_max"]),
                            seed=Seed(cfg["seed"]))
        images = gen_shapes(scfg)
        extra = shapes_manifest(scfg)
    elif cfg["kind"] == "checkerboard":
        if cfg["cells"] is None:
            raise ConfigError("missing required field 'cells' for kind=checkerboard")
        try:
            images = [gen_checkerboard(cfg["grid_side"], cfg["cells"])] * cfg["count"]
        except ValueError as exc:
            raise ConfigError(f"field 'cells': {exc}") from exc
        extra = {"kind": "checkerboard", "cells": cfg["cells"]}
    else:
        raise ConfigError(f"field 'kind': expected 'shapes' or 'checkerboard', "
                          f"got {cfg['kind']!r}")
    save_dataset(images, cfg["out"], _manifest_payload("gen-data", cfg, extra))
    print(f"wrote {len(images)} images to {cfg['out']}")
    return EXIT_OK


def _cmd_gen_mesh(cfg):
    if cfg["triangles"] < 2:
        raise ConfigError("field 'triangles': need at least 2")
    if cfg["subspaces"] < 1:
        raise ConfigError("field 'subspaces': need at least 1")
    os.makedirs(cfg["out"], exist_ok=True)
    seed = Seed(cfg["seed"])
    counts = []
    for lam in range(cfg["subspaces"]):
        mesh = mesh_with_k_triangles(cfg["triangles"], seed.derive(lam))
        save_mesh(mesh, os.path.join(cfg["out"], f"mesh_{lam:03d}.json"))
        counts.append(mesh.triangle_count)
    _write_manifest(cfg["out"], "gen-mesh", cfg, {"triangle_counts": counts})
    print(f"wrote {cfg['subspaces']} meshes ({cfg['triangles']} triangles) to {cfg['out']}")
    return EXIT_OK


def _cmd_forward(cfg):
    _require_dir(cfg["data"], "data")
    images, man = load_dataset(cfg["data"])
    side = images[0].grid.side
    if cfg["grid_side"] is not None and cfg["grid_side"] != side:
        raise ConfigError(f"field 'grid_side': dataset is {side}x{side}, "
                          f"got {cfg['grid_side']}")
    cfg["grid_side"] = side
    rm = build_ray_matrix(place_sensors(cfg["sensors"]), Grid(side))
    os.makedirs(cfg["out"], exist_ok=True)
    for i, img in enumerate(images):
        save_measurement(forward(rm, img), os.path.join(cfg["out"], f"y_{i:05d}.csv"))
    _write_manifest(cfg["out"], "forward", cfg,
                    {"count": len(images), "rows": rm.m})
    print(f"projected {len(images)} images through {rm.m} rays to {cfg['out']}")
    return EXIT_OK


def _cmd_corrupt(cfg):
    if not (0.0 <= cfg["erasure_p"] <= 1.0):
        raise ConfigError("field 'erasure_p': must be in [0, 1]")
    if cfg["snr_db"] == -math.inf:
        raise ConfigError("field 'snr_db': must be finite or inf, got -inf")
    _require_dir(cfg["measurements"], "measurements")
    paths = _listed(cfg["measurements"], ".csv")
    seed = Seed(cfg["seed"])
    os.makedirs(cfg["out"], exist_ok=True)
    for i, path in enumerate(paths):
        y = load_measurement(path)
        branch = seed.derive(i)
        if math.isfinite(cfg["snr_db"]):
            y = add_gaussian_noise(y, cfg["snr_db"], branch.derive(0))
        if cfg["erasure_p"] > 0.0:
            y = erase(y, cfg["erasure_p"], branch.derive(1))
        save_measurement(y, os.path.join(cfg["out"], f"y_{i:05d}.csv"))
    _write_manifest(cfg["out"], "corrupt", cfg, {"count": len(paths)})
    print(f"corrupted {len(paths)} measurement files to {cfg['out']}")
    return EXIT_OK


def _solve_record(results):
    """Manifest fields of a command's solves: count, per-image iterations and stops."""
    return {"count": len(results), "iterations": [r.iterations for r in results],
            "converged": [r.converged for r in results]}


def _cmd_nnls(cfg):
    _require_dir(cfg["measurements"], "measurements")
    paths = _listed(cfg["measurements"], ".csv")
    rm = build_ray_matrix(place_sensors(cfg["sensors"]), Grid(cfg["grid_side"]))
    opts = SolveOptions(max_iters=cfg["max_iters"], tol=cfg["tol"])
    os.makedirs(cfg["out"], exist_ok=True)
    results = []
    for i, path in enumerate(paths):
        img, info = nnls(rm, load_measurement(path), opts, return_info=True)
        save_image(img, os.path.join(cfg["out"], f"warm_{i:05d}.f32raw"), "f32raw")
        results.append(info)
    _write_manifest(cfg["out"], "nnls", cfg, _solve_record(results))
    print(f"solved {len(paths)} warm starts to {cfg['out']}")
    return EXIT_OK


def _cmd_train(cfg):
    _require_dir(cfg["data"], "data")
    _require_dir(cfg["warm"], "warm")
    _require_dir(cfg["meshes"], "meshes")
    images, _ = load_dataset(cfg["data"])
    warms = _load_images_dir(cfg["warm"])
    if len(images) != len(warms):
        raise ConfigError(f"field 'warm': {len(warms)} warm starts for "
                          f"{len(images)} images")
    grid = Grid(cfg["grid_side"])
    bases = [rasterize(m, grid) for m in _load_meshes(cfg["meshes"])]
    dataset = list(zip(images, warms))
    tcfg = TrainConfig(epochs=cfg["epochs"], batch_size=cfg["batch_size"],
                       lr=cfg["lr"], validation_fraction=cfg["validation_fraction"],
                       weight_decay=cfg["weight_decay"], seed=Seed(cfg["seed"]))
    os.makedirs(cfg["out"], exist_ok=True)
    if cfg["estimator_kind"] == "per-mesh-affine":
        ests = train_ensemble(dataset, StackedBasis(bases), tcfg)
    elif cfg["estimator_kind"] == "shared-pooled":
        ests = [train_estimator(dataset, StackedBasis(bases), tcfg, "shared-pooled")]
    else:
        raise ConfigError(f"field 'estimator_kind': expected 'per-mesh-affine' or "
                          f"'shared-pooled', got {cfg['estimator_kind']!r}")
    val_losses = []
    for i, est in enumerate(ests):
        save_estimator(est, os.path.join(cfg["out"], f"estimator_{i:03d}.est"))
        val_losses.append(float(est.history.val_loss[-1]))
    # an empty validation split gives NaN, which strict JSON cannot hold
    _write_manifest(cfg["out"], "train", cfg,
                    {"count": len(ests), "final_val_loss":
                     [v if math.isfinite(v) else None for v in val_losses]})
    print(f"trained {len(ests)} estimator(s) to {cfg['out']} "
          f"(final val loss {', '.join(f'{v:.3e}' for v in val_losses)})")
    return EXIT_OK


def _cmd_estimate(cfg):
    _require_dir(cfg["meshes"], "meshes")
    grid = Grid(cfg["grid_side"])
    bases = [rasterize(m, grid) for m in _load_meshes(cfg["meshes"])]
    backend = cfg["backend"]
    if backend == "oracle":
        _require_dir(cfg["data"], "data")
        images, _ = load_dataset(cfg["data"])
        rows = [[oracle_coeffs(b, x) for b in bases] for x in images]
    elif backend == "oblique":
        if cfg["sensors"] is None:
            raise ConfigError("missing required field 'sensors' for backend=oblique")
        _require_dir(cfg["measurements"], "measurements")
        ys = [load_measurement(p) for p in _listed(cfg["measurements"], ".csv")]
        rm = build_ray_matrix(place_sensors(cfg["sensors"]), grid)
        try:
            ops = [build_oblique(rm, b) for b in bases]
        except ValueError as exc:
            raise SolverError(str(exc)) from exc
        rows = [[oblique_coeffs(op, y) for op in ops] for y in ys]
    elif backend == "learned":
        _require_dir(cfg["warm"], "warm")
        _require_dir(cfg["estimators"], "estimators")
        warms = _load_images_dir(cfg["warm"])
        ests = [load_estimator(p) for p in _listed(cfg["estimators"], ".est")]
        if len(ests) == 1 and ests[0].kind == "shared-pooled":
            ests = ests * len(bases)
        if len(ests) != len(bases):
            raise ConfigError(f"field 'estimators': {len(ests)} estimators for "
                              f"{len(bases)} meshes")
        rows = [[estimate_coeffs(e, b, w) for e, b in zip(ests, bases)] for w in warms]
    else:
        raise ConfigError(f"field 'backend': expected oracle|oblique|learned, "
                          f"got {backend!r}")
    os.makedirs(cfg["out"], exist_ok=True)
    for i, per_mesh in enumerate(rows):
        for lam, q in enumerate(per_mesh):
            save_measurement(Measurement(q),
                             os.path.join(cfg["out"], f"q_{i:05d}_{lam:03d}.csv"))
    _write_manifest(cfg["out"], "estimate", cfg,
                    {"count": len(rows), "subspaces": len(bases)})
    print(f"estimated {len(rows)} x {len(bases)} coefficient files to {cfg['out']}")
    return EXIT_OK


def _cmd_reconstruct(cfg):
    grid = Grid(cfg["grid_side"])
    opts = SolveOptions(max_iters=cfg["max_iters"], tol=cfg["tol"],
                        tv_weight=cfg["tv_weight"])
    os.makedirs(cfg["out"], exist_ok=True)
    results = []
    if cfg["method"] == "recombine":
        _require_dir(cfg["coeffs"], "coeffs")
        _require_dir(cfg["meshes"], "meshes")
        bases = [rasterize(m, grid) for m in _load_meshes(cfg["meshes"])]
        stack = StackedBasis(bases)
        paths = _listed(cfg["coeffs"], ".csv")
        by_image = {}
        for path in paths:
            stem = os.path.basename(path)[:-4]
            try:
                _, img_id, lam_id = stem.split("_")
                by_image.setdefault(int(img_id), {})[int(lam_id)] = path
            except ValueError:
                raise FormatError(f"{path}: expected name q_IIIII_LLL.csv") from None
        for i in sorted(by_image):
            per_mesh = by_image[i]
            if sorted(per_mesh) != list(range(len(bases))):
                raise FormatError(f"{cfg['coeffs']}: image {i} has coefficient files "
                                  f"for meshes {sorted(per_mesh)}, expected "
                                  f"0..{len(bases) - 1}")
            q = []
            for lam, basis in enumerate(bases):
                values = load_measurement(per_mesh[lam]).values
                if values.size != basis.k:
                    raise FormatError(f"{per_mesh[lam]}: expected {basis.k} coefficients "
                                      f"for mesh {lam}, got {values.size}")
                q.append(values)
            q = np.concatenate(q)
            res = solve_reformulated(stack, q, opts)
            save_image(res.image, os.path.join(cfg["out"], f"recon_{i:05d}.f32raw"),
                       "f32raw")
            results.append(res)
    elif cfg["method"] == "tv-direct":
        if cfg["sensors"] is None:
            raise ConfigError("missing required field 'sensors' for method=tv-direct")
        _require_dir(cfg["measurements"], "measurements")
        rm = build_ray_matrix(place_sensors(cfg["sensors"]), grid)
        paths = _listed(cfg["measurements"], ".csv")
        for i, path in enumerate(paths):
            res = tv_direct(rm, load_measurement(path), opts)
            save_image(res.image, os.path.join(cfg["out"], f"recon_{i:05d}.f32raw"),
                       "f32raw")
            results.append(res)
    else:
        raise ConfigError(f"field 'method': expected 'recombine' or 'tv-direct', "
                          f"got {cfg['method']!r}")
    _write_manifest(cfg["out"], "reconstruct", cfg, _solve_record(results))
    print(f"reconstructed {len(results)} images ({cfg['method']}) to {cfg['out']}")
    return EXIT_OK


def _cmd_kernel_mc(cfg):
    grid = Grid(cfg["grid_side"])
    if cfg["pixel"] == "center":
        i = j = grid.side // 2
    else:
        try:
            i, j = (int(v) for v in cfg["pixel"].split(","))
        except ValueError:
            raise ConfigError("field 'pixel': expected 'center' or 'i,j'") from None
    if not (0 <= i < grid.side and 0 <= j < grid.side):
        raise ConfigError(f"field 'pixel': ({i},{j}) outside {grid.side}x{grid.side}")
    x = Image.zeros(grid)
    x.values[i * grid.side + j] = 1.0
    est = mc_expected_recon(x, cfg["triangles"], cfg["subspaces"], cfg["trials"],
                            Seed(cfg["seed"]))
    os.makedirs(cfg["out"], exist_ok=True)
    save_image(est.mean_image, os.path.join(cfg["out"], "mean.f32raw"), "f32raw")
    save_image(est.mean_image, os.path.join(cfg["out"], "mean.pgm"), "pgm16")
    save_radial_profile(est.radial_profile, os.path.join(cfg["out"], "profile.csv"))
    max_stderr = None
    if est.stderr_image is not None:
        save_image(est.stderr_image, os.path.join(cfg["out"], "stderr.f32raw"), "f32raw")
        max_stderr = float(est.stderr_image.values.max())
    _write_manifest(cfg["out"], "kernel-mc", cfg,
                    {"peak": float(est.mean_image.values.max()), "max_stderr": max_stderr})
    print(f"kernel study (K={cfg['triangles']}, subspaces={cfg['subspaces']}, "
          f"T={cfg['trials']}) written to {cfg['out']}")
    return EXIT_OK


def _write_panel(mats, path):
    """Side-by-side 16-bit PGM of equally sized matrices, one separator column."""
    side = mats[0].shape[0]
    lo = min(float(m.min()) for m in mats)
    hi = max(float(m.max()) for m in mats)
    scale = 65535.0 / (hi - lo) if hi > lo else 0.0
    sep = np.full((side, 1), 65535, dtype=np.uint16)
    cols = []
    for idx, m in enumerate(mats):
        if idx:
            cols.append(sep)
        cols.append(np.round((m - lo) * scale).astype(np.uint16))
    panel = np.flipud(np.hstack(cols))
    with open(path, "wb") as fh:
        fh.write(f"P5 {panel.shape[1]} {panel.shape[0]} 65535\n".encode("ascii"))
        fh.write(panel.astype(">u2").tobytes())


def _cmd_evaluate(cfg):
    recons = cfg["recons"]
    _require_dir(cfg["data"], "data")
    truth, _ = load_dataset(cfg["data"])
    labels = sorted(recons)
    columns = {}
    for label in labels:
        imgs = _load_images_dir(_require_dir(recons[label], f"recon '{label}'"))
        if len(imgs) != len(truth):
            raise ConfigError(f"field 'recons': '{label}' has {len(imgs)} images, "
                              f"dataset has {len(truth)}")
        columns[label] = imgs
    os.makedirs(cfg["out"], exist_ok=True)
    snrs = {label: [] for label in labels}
    for i, x in enumerate(truth):
        for label in labels:
            snrs[label].append(output_snr(x, columns[label][i]))
        _write_panel([x.as_matrix()] + [columns[label][i].as_matrix() for label in labels],
                     os.path.join(cfg["out"], f"panel_{i:05d}.pgm"))
    report = os.path.join(cfg["out"], "report.csv")
    with open(report, "w", encoding="ascii", newline="\n") as fh:
        fh.write("image," + ",".join(labels) + "\n")
        for i in range(len(truth)):
            fh.write(f"{i:05d}," + ",".join(f"{snrs[label][i]:.6f}" for label in labels) + "\n")
        fh.write("mean," + ",".join(f"{float(np.mean(snrs[label])):.6f}" for label in labels) + "\n")
    _write_manifest(cfg["out"], "evaluate", cfg,
                    {"count": len(truth),
                     "mean_snr_db": {label: float(np.mean(snrs[label])) for label in labels}})
    for label in labels:
        print(f"{label}: mean output SNR {float(np.mean(snrs[label])):.2f} dB "
              f"over {len(truth)} images")
    print(f"report written to {report}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

# Each command's handler, help line and field defaults, declared once.
_COMMANDS = {
    "gen-data": (_cmd_gen_data, "generate a phantom dataset",
        dict(count=1, grid_side=REQUIRED, kind="shapes", shapes_min=2, shapes_max=6,
             intensity_min=0.2, intensity_max=1.0, cells=None, seed=0, out=REQUIRED)),
    "gen-mesh": (_cmd_gen_mesh, "generate random Delaunay meshes",
        dict(triangles=REQUIRED, subspaces=1, seed=0, out=REQUIRED)),
    "forward": (_cmd_forward, "project a dataset through the ray matrix",
        dict(data=REQUIRED, sensors=REQUIRED, grid_side=None, out=REQUIRED)),
    "corrupt": (_cmd_corrupt, "add noise and erasures to measurements",
        dict(measurements=REQUIRED, snr_db=math.inf, erasure_p=0.0, seed=0, out=REQUIRED)),
    "nnls": (_cmd_nnls, "box-constrained least-squares warm starts",
        dict(measurements=REQUIRED, sensors=REQUIRED, grid_side=REQUIRED, max_iters=500, tol=1e-9,
             out=REQUIRED)),
    "train": (_cmd_train, "fit coefficient estimators",
        dict(data=REQUIRED, warm=REQUIRED, meshes=REQUIRED, grid_side=REQUIRED,
             estimator_kind="per-mesh-affine", epochs=80, batch_size=32, lr=1e-3,
             validation_fraction=0.2, weight_decay=0.0, seed=0, out=REQUIRED)),
    "estimate": (_cmd_estimate, "estimate subspace coefficients",
        dict(backend=REQUIRED, meshes=REQUIRED, grid_side=REQUIRED, data=None, measurements=None,
             sensors=None, warm=None, estimators=None, out=REQUIRED)),
    "reconstruct": (_cmd_reconstruct, "recombine coefficients or invert directly",
        dict(method="recombine", coeffs=None, meshes=None, measurements=None, sensors=None,
             grid_side=REQUIRED, tv_weight=0.0, max_iters=500, tol=1e-9, out=REQUIRED)),
    "kernel-mc": (_cmd_kernel_mc, "Monte Carlo expected-reconstruction study",
        dict(triangles=REQUIRED, subspaces=REQUIRED, trials=REQUIRED, grid_side=32, pixel="center",
             seed=0, out=REQUIRED)),
    "evaluate": (_cmd_evaluate, "output-SNR report and inspection panels",
        dict(data=REQUIRED, out=REQUIRED, recons=REQUIRED)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshtomo",
        description="Random-mesh subspace tomography pipeline.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, fields) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        sub.add_argument("--config", help="JSON config file (flags override it)")
        for name in fields:
            if name == "recons":
                sub.add_argument("--recon", dest=name, action="append",
                                 metavar="LABEL=DIR", help=_OPTIONS[name][1])
            else:
                sub.add_argument("--" + name.replace("_", "-"), dest=name,
                                 help=_OPTIONS[name][1])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    handler, _, fields = _COMMANDS[args.command]
    try:
        return handler(_resolve(args, fields))
    except OSError as exc:  # an input or output path that cannot be opened
        print(f"cannot read an input or write an output: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except FormatError as exc:
        print(f"unreadable input: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # ConfigError and the library's own argument checks
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
