"""``cli`` workload: the ten-stage command-line walk, run in-process.

Each round runs every stage through ``meshtomo.cli.main`` into the same
directory: gen-data, gen-mesh, forward, corrupt, nnls, train (from a config
file with a flag override), estimate (oracle, learned, oblique), reconstruct
(recombine on oracle coefficients, then tv-direct), evaluate and a small
kernel-mc. One operation is one command.

``estimate --backend oblique`` exits 4 (``EXIT_NUMERIC``) on every run: the
meshes come from a fixed ``gen-mesh`` seed, and one of their triangles covers
only pixels that no ray reaches. That exit is counted as a failed operation
that leaves the run correct, and the step is kept out of the walk time, so
mending it lowers the failure count without a spurious slowdown. Any other
non-zero exit of that step, as of every other, makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np

import checks
from harness import KnownFault, median, mean, require, spread_setups, timed_rounds
from meshtomo import cli, core

SIDE = 32
SENSORS = 25
IMAGES = 8
MESH_K = 20
MESHES = 4
# Fixed like the evaluation phantoms of the other workloads; the seed varies
# the corruption, training and kernel-mc draws.
DATA_SEED = 1000
MESH_SEED = 7100
KNOWN_FAULT = "estimate_oblique"
SETUP_REPEATS = 7


def _commands(d, cfg_path, root):
    corrupt_seed, kmc_seed = (int(root.derive(i).rng().integers(1 << 31)) for i in (11, 12))
    return [
        ("gen_data", ["gen-data", "--count", IMAGES, "--grid-side", SIDE, "--kind", "shapes",
                      "--seed", DATA_SEED, "--out", d("data")]),
        ("gen_mesh", ["gen-mesh", "--triangles", MESH_K, "--subspaces", MESHES,
                      "--seed", MESH_SEED, "--out", d("meshes")]),
        ("forward", ["forward", "--data", d("data"), "--sensors", SENSORS, "--out", d("meas")]),
        ("corrupt", ["corrupt", "--measurements", d("meas"), "--snr-db", 20,
                     "--erasure-p", 0.125, "--seed", corrupt_seed, "--out", d("bad")]),
        ("nnls", ["nnls", "--measurements", d("bad"), "--sensors", SENSORS,
                  "--grid-side", SIDE, "--max-iters", 300, "--out", d("warm")]),
        ("train", ["train", "--config", cfg_path, "--data", d("data"), "--warm", d("warm"),
                   "--meshes", d("meshes"), "--epochs", 20, "--out", d("est")]),
        ("estimate_oracle", ["estimate", "--backend", "oracle", "--meshes", d("meshes"),
                             "--grid-side", SIDE, "--data", d("data"), "--out", d("q_oracle")]),
        ("estimate_learned", ["estimate", "--backend", "learned", "--meshes", d("meshes"),
                              "--grid-side", SIDE, "--warm", d("warm"),
                              "--estimators", d("est"), "--out", d("q_learned")]),
        ("estimate_oblique", ["estimate", "--backend", "oblique", "--meshes", d("meshes"),
                              "--grid-side", SIDE, "--measurements", d("meas"),
                              "--sensors", SENSORS, "--out", d("q_oblique")]),
        ("reconstruct_recombine", ["reconstruct", "--method", "recombine",
                                   "--coeffs", d("q_oracle"), "--meshes", d("meshes"),
                                   "--grid-side", SIDE, "--tv-weight", 0.03,
                                   "--max-iters", 600, "--out", d("recon_sub")]),
        ("reconstruct_tv_direct", ["reconstruct", "--method", "tv-direct",
                                   "--measurements", d("bad"), "--sensors", SENSORS,
                                   "--grid-side", SIDE, "--tv-weight", 2e-4,
                                   "--max-iters", 600, "--out", d("recon_tv")]),
        ("evaluate", ["evaluate", "--data", d("data"), "--recon", f"sub={d('recon_sub')}",
                      "--recon", f"tv={d('recon_tv')}", "--out", d("eval")]),
        ("kernel_mc", ["kernel-mc", "--triangles", 10, "--subspaces", 2, "--trials", 10,
                       "--grid-side", SIDE, "--pixel", "center", "--seed", kmc_seed,
                       "--out", d("kmc")]),
    ]


def command(kind, argv):
    """Run one CLI command in-process; a non-zero exit fails the operation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main([str(a) for a in argv])
    message = f"exit {code}: {out.getvalue().strip()[-300:]}"
    if kind == KNOWN_FAULT and code == cli.EXIT_NUMERIC:
        raise KnownFault(message)
    require(code == 0, message)
    return code


def read_f32raw(path):
    """Values of an f32raw image, parsed without the package's reader."""
    with open(path, "rb") as fh:
        blob = fh.read()
    newline = blob.index(b"\n")
    side = json.loads(blob[:newline])["side"]
    values = np.frombuffer(blob[newline + 1:], dtype="<f4").astype(np.float64)
    require(values.size == side * side, f"{path}: payload size {values.size} != {side}^2")
    return values


def _dir_images(path):
    names = sorted(n for n in os.listdir(path) if n.endswith(".f32raw"))
    return [read_f32raw(os.path.join(path, n)) for n in names]


def check_evaluate(d, snr_out):
    """Recompute every reported mean SNR from the images on disk."""
    truth = _dir_images(d("data"))
    for label in ("sub", "tv"):
        recons = _dir_images(d("recon_" + label))
        require(len(recons) == len(truth), f"{label}: {len(recons)} images for {len(truth)}")
        snrs = []
        for x, xhat in zip(truth, recons):
            require(xhat.min() >= 0.0 and xhat.max() <= 1.0, f"{label}: image leaves [0, 1]")
            snrs.append(checks.lstsq_snr(x, xhat))
        checks.check_report_mean(os.path.join(d("eval"), "report.csv"), label, mean(snrs))
        snr_out[label] = mean(snrs)


def _tree_size(root):
    files = total = 0
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            files += 1
            total += os.path.getsize(os.path.join(dirpath, name))
    return files, total


def _setup(base, src_dir, root):
    """The CLI's start-up in a fresh interpreter, plus its config file."""
    env = dict(os.environ, PYTHONPATH=src_dir)
    subprocess.run([sys.executable, "-c", "import meshtomo.cli as c; c.build_parser()"],
                   env=env, check=True, stdout=subprocess.DEVNULL, timeout=60)
    os.makedirs(base, exist_ok=True)
    cfg_path = os.path.join(base, "train.json")
    cfg = {"grid_side": SIDE, "estimator_kind": "per-mesh-affine", "epochs": 50,
           "batch_size": 8, "lr": 1e-3, "weight_decay": 1e-4,
           "seed": int(root.derive(13).rng().integers(1 << 31))}
    with open(cfg_path, "w", encoding="ascii") as fh:
        json.dump(cfg, fh)
    return cfg_path


def run(state, tracer, seed, seconds, out_dir, src_dir):
    root = core.Seed(seed)
    base = os.path.join(out_dir, f"cli-{os.getpid()}")
    walk = os.path.join(base, "walk")
    cfg_path, later_setups, setup_times = spread_setups(lambda i: _setup(base, src_dir, root),
                                                        SETUP_REPEATS)

    def d(name):
        return os.path.join(walk, name)

    commands = _commands(d, cfg_path, root)
    walk_seconds, digests, snr, written = [], [], {}, {}

    def one(r):
        if tracer is not None:
            tracer.counting = r == 0
        shutil.rmtree(walk, ignore_errors=True)
        os.makedirs(walk)
        total, evaluated = 0.0, False
        for kind, argv in commands:
            span = tracer.span("cli." + kind) if tracer is not None else contextlib.nullcontext()
            with span:
                done, seconds_used = state.op(kind, command, kind, argv)
            if kind != KNOWN_FAULT:
                total += seconds_used
            if kind == "evaluate":
                evaluated = done is not None
        walk_seconds.append(total)
        if evaluated:
            state.check("evaluate", check_evaluate, d, snr if r == 0 else {})
        digests.append(checks.tree_digest(walk))
        if r == 0:
            written["files"], written["bytes"] = _tree_size(walk)
        else:
            state.check("walk", checks.check_digests, digests[0], digests[-1],
                        ops=len(commands))

    timed_rounds(seconds, 2, one, later_setups)
    if tracer is not None:
        tracer.counting = False
    shutil.rmtree(base, ignore_errors=True)

    walk_s = median(walk_seconds)
    steady = len(commands) - 1
    e2e = {"setup_s": median(setup_times), "ops_per_s": steady / walk_s,
           "quality_db": mean(list(snr.values()))}
    details = {"cli_walk_s": walk_s, "cli.files_written": written.get("files", 0),
               "cli.bytes_written": written.get("bytes", 0)}
    return e2e, details
