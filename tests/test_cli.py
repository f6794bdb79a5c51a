import hashlib
import json
import math
import re
import shutil

import numpy as np
import pytest

from meshtomo import cli, kernel
from meshtomo.cli import main
from meshtomo.core import Grid, Image, load_image, save_image
from meshtomo.data import load_dataset, output_snr
from meshtomo.estimate import estimate_coeffs, load_estimator
from meshtomo.kernel import load_radial_profile
from meshtomo.mesh import load_mesh, rasterize
from meshtomo.solve import SolveOptions, nnls, tv_direct
from meshtomo.tomo import build_ray_matrix, load_measurement, place_sensors


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipe(tmp_path_factory):
    """One full pipeline at miniature scale, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("pipeline")
    d = {name: root / name for name in
         ("data", "meshes", "meas", "noisy", "warm", "est", "q_oracle",
          "q_learn", "q_obl", "recon_sub", "recon_tv", "kmc", "eval")}
    assert run("gen-data", "--count", 6, "--grid-side", 12, "--kind", "shapes",
               "--seed", 42, "--out", d["data"]) == 0
    assert run("gen-mesh", "--triangles", 8, "--subspaces", 2, "--seed", 7,
               "--out", d["meshes"]) == 0
    assert run("forward", "--data", d["data"], "--sensors", 10,
               "--out", d["meas"]) == 0
    assert run("corrupt", "--measurements", d["meas"], "--snr-db", 25,
               "--erasure-p", 0.1, "--seed", 3, "--out", d["noisy"]) == 0
    assert run("nnls", "--measurements", d["noisy"], "--sensors", 10,
               "--grid-side", 12, "--max-iters", 300, "--out", d["warm"]) == 0
    assert run("train", "--data", d["data"], "--warm", d["warm"],
               "--meshes", d["meshes"], "--grid-side", 12, "--epochs", 25,
               "--batch-size", 4, "--lr", 0.01, "--seed", 11,
               "--out", d["est"]) == 0
    assert run("estimate", "--backend", "oracle", "--meshes", d["meshes"],
               "--grid-side", 12, "--data", d["data"], "--out", d["q_oracle"]) == 0
    assert run("estimate", "--backend", "learned", "--meshes", d["meshes"],
               "--grid-side", 12, "--warm", d["warm"], "--estimators", d["est"],
               "--out", d["q_learn"]) == 0
    assert run("estimate", "--backend", "oblique", "--meshes", d["meshes"],
               "--grid-side", 12, "--measurements", d["meas"], "--sensors", 10,
               "--out", d["q_obl"]) == 0
    assert run("reconstruct", "--method", "recombine", "--coeffs", d["q_oracle"],
               "--meshes", d["meshes"], "--grid-side", 12, "--tv-weight", 0.01,
               "--max-iters", 300, "--out", d["recon_sub"]) == 0
    assert run("reconstruct", "--method", "tv-direct", "--measurements", d["noisy"],
               "--sensors", 10, "--grid-side", 12, "--tv-weight", 0.05,
               "--max-iters", 300, "--out", d["recon_tv"]) == 0
    assert run("kernel-mc", "--triangles", 6, "--subspaces", 2, "--trials", 4,
               "--grid-side", 12, "--pixel", "center", "--seed", 5,
               "--out", d["kmc"]) == 0
    assert run("evaluate", "--data", d["data"], "--recon", f"sub={d['recon_sub']}",
               "--recon", f"tv={d['recon_tv']}", "--out", d["eval"]) == 0
    return d


def test_pipeline_file_layout(pipe):
    assert sorted(p.name for p in pipe["data"].iterdir()) == \
        [f"{i:05d}.f32raw" for i in range(6)] + ["manifest.json"]
    assert sorted(p.name for p in pipe["meshes"].iterdir()) == \
        ["manifest.json", "mesh_000.json", "mesh_001.json"]
    assert sorted(p.name for p in pipe["meas"].iterdir()) == \
        ["manifest.json"] + [f"y_{i:05d}.csv" for i in range(6)]
    assert sorted(p.name for p in pipe["warm"].iterdir()) == \
        ["manifest.json"] + [f"warm_{i:05d}.f32raw" for i in range(6)]
    assert sorted(p.name for p in pipe["est"].iterdir()) == \
        ["estimator_000.est", "estimator_001.est", "manifest.json"]
    q_names = sorted(p.name for p in pipe["q_oracle"].iterdir())
    assert q_names == ["manifest.json"] + [f"q_{i:05d}.csv" for i in range(6)]
    assert sorted(p.name for p in pipe["recon_sub"].iterdir()) == \
        ["manifest.json"] + [f"recon_{i:05d}.f32raw" for i in range(6)]


def test_manifest_schema_and_hash(pipe):
    for name, command in (("data", "gen-data"), ("meshes", "gen-mesh"),
                          ("meas", "forward"), ("noisy", "corrupt"),
                          ("warm", "nnls"), ("est", "train"),
                          ("q_oracle", "estimate"), ("recon_sub", "reconstruct"),
                          ("kmc", "kernel-mc"), ("eval", "evaluate")):
        man = json.loads((pipe[name] / "manifest.json").read_text())
        assert man["command"] == command
        canonical = json.dumps(man["config"], sort_keys=True,
                               separators=(",", ":")).encode()
        assert man["config_sha256"] == hashlib.sha256(canonical).hexdigest()
    man = json.loads((pipe["noisy"] / "manifest.json").read_text())
    assert man["config"]["snr_db"] == 25.0
    assert man["config"]["erasure_p"] == 0.1


def test_dataset_and_measurements(pipe):
    images, man = load_dataset(pipe["data"])
    assert len(images) == 6 and images[0].grid.side == 12
    assert len(man["per_image_seeds"]) == 6
    clean = [load_measurement(pipe["meas"] / f"y_{i:05d}.csv") for i in range(6)]
    noisy = [load_measurement(pipe["noisy"] / f"y_{i:05d}.csv") for i in range(6)]
    assert all(y.values.size == 45 for y in clean)     # C(10, 2) rays
    assert not any(y.mask.any() for y in clean)
    total_erased = sum(int(y.mask.sum()) for y in noisy)
    assert 1 <= total_erased <= 100                    # p = 0.1 over 270 entries
    assert any(not np.array_equal(a.values, b.values) for a, b in zip(clean, noisy))


def test_oracle_recombination_reasonable(pipe):
    images, _ = load_dataset(pipe["data"])
    for i, x in enumerate(images):
        rec = load_image(pipe["recon_sub"] / f"recon_{i:05d}.f32raw")
        assert rec.grid.side == 12
        assert rec.values.min() >= -1e-6 and rec.values.max() <= 1.0 + 1e-6


def test_solve_manifests_record_iterations_and_stops(pipe, tmp_path):
    rm = build_ray_matrix(place_sensors(10), Grid(12))
    y = load_measurement(pipe["noisy"] / "y_00000.csv")
    solved = {"warm": nnls(rm, y, SolveOptions(max_iters=300), return_info=True)[1],
              "recon_tv": tv_direct(rm, y, SolveOptions(max_iters=300, tv_weight=0.05))}
    for name in ("warm", "recon_sub", "recon_tv"):
        man = json.loads((pipe[name] / "manifest.json").read_text())
        assert man["count"] == len(man["iterations"]) == len(man["converged"]) == 6
        assert all(isinstance(v, int) and 1 <= v <= 300 for v in man["iterations"])
        assert all(isinstance(v, bool) for v in man["converged"])
        if name in solved:
            assert (man["iterations"][0], man["converged"][0]) == \
                (solved[name].iterations, solved[name].converged)
    trees = []
    for _ in range(2):
        assert run("reconstruct", "--method", "tv-direct", "--measurements", pipe["noisy"],
                   "--sensors", 10, "--grid-side", 12, "--tv-weight", 0.05,
                   "--max-iters", 300, "--out", tmp_path / "tv") == 0
        trees.append({p.name: p.read_bytes() for p in (tmp_path / "tv").iterdir()})
    assert trees[0] == trees[1]


def test_evaluate_report(pipe):
    lines = (pipe["eval"] / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "image,sub,tv"
    assert len(lines) == 8  # header + 6 images + mean
    assert lines[-1].startswith("mean,")
    images, _ = load_dataset(pipe["data"])
    for label, col in (("sub", 1), ("tv", 2)):
        recon_dir = pipe["recon_sub"] if label == "sub" else pipe["recon_tv"]
        expect = [output_snr(x, load_image(recon_dir / f"recon_{i:05d}.f32raw"))
                  for i, x in enumerate(images)]
        got_mean = float(lines[-1].split(",")[col])
        assert got_mean == pytest.approx(float(np.mean(expect)), abs=1e-5)
    panels = sorted(p.name for p in pipe["eval"].iterdir() if p.suffix == ".pgm")
    assert panels == [f"panel_{i:05d}.pgm" for i in range(6)]
    first = (pipe["eval"] / "panel_00000.pgm").read_bytes()
    assert first.startswith(b"P5\n38 12\n65535\n")  # three 12-wide tiles + 2 separators
    # the separator columns sit at the panel's maximum
    panel = np.frombuffer(first[len(b"P5\n38 12\n65535\n"):], dtype=">u2").reshape(12, 38)
    assert (panel[:, [12, 25]] == 65535).all()
    man = json.loads((pipe["eval"] / "manifest.json").read_text())
    assert set(man["mean_snr_db"]) == {"sub", "tv"}


def test_evaluate_recons_from_config_file(pipe, tmp_path):
    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps({"data": str(pipe["data"]), "out": str(tmp_path / "from-file"),
                               "recons": {"sub": str(pipe["recon_sub"]),
                                          "tv": str(pipe["recon_tv"])}}))
    assert run("evaluate", "--config", cfg) == 0
    assert (tmp_path / "from-file" / "report.csv").read_bytes() == \
        (pipe["eval"] / "report.csv").read_bytes()
    man = json.loads((tmp_path / "from-file" / "manifest.json").read_text())
    assert man["config"]["recons"] == {"sub": str(pipe["recon_sub"]),
                                       "tv": str(pipe["recon_tv"])}
    for i, recons in enumerate(([str(pipe["recon_sub"])], {}, {"sub": 3})):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps({"recons": recons}))
        assert run("evaluate", "--config", bad, "--data", pipe["data"],
                   "--out", tmp_path / "x") == 2


def test_kernel_mc_outputs(pipe):
    mean = load_image(pipe["kmc"] / "mean.f32raw")
    assert mean.grid.side == 12
    assert np.argmax(mean.values) == 6 * 12 + 6  # peak at the test pixel
    assert (pipe["kmc"] / "mean.pgm").read_bytes().startswith(b"P5")
    profile = load_radial_profile(pipe["kmc"] / "profile.csv")
    assert profile[0].n == 1 and profile[0].radius == 0.0
    man = json.loads((pipe["kmc"] / "manifest.json").read_text())
    assert man["peak"] == pytest.approx(mean.values.max())
    stderr = load_image(pipe["kmc"] / "stderr.f32raw")
    assert stderr.grid.side == 12 and (stderr.values >= 0).all()
    assert man["max_stderr"] == pytest.approx(stderr.values.max(), rel=1e-6)
    assert man["max_stderr"] > 0


def test_kernel_mc_reruns_identical_and_single_trial(tmp_path):
    trees = []
    for _ in range(2):
        assert run("kernel-mc", "--triangles", 6, "--subspaces", 2, "--trials", 3,
                   "--grid-side", 10, "--pixel", "5,4", "--seed", 8,
                   "--out", tmp_path / "kmc") == 0
        trees.append({p.name: p.read_bytes() for p in (tmp_path / "kmc").iterdir()})
    assert trees[0] == trees[1]
    assert sorted(trees[0]) == ["manifest.json", "mean.f32raw", "mean.pgm",
                                "profile.csv", "stderr.f32raw"]
    assert run("kernel-mc", "--triangles", 6, "--subspaces", 2, "--trials", 1,
               "--grid-side", 10, "--pixel", "center", "--seed", 8,
               "--out", tmp_path / "one") == 0
    assert not (tmp_path / "one" / "stderr.f32raw").exists()
    man = json.loads((tmp_path / "one" / "manifest.json").read_text())
    assert man["max_stderr"] is None


def test_kernel_mc_tree_does_not_depend_on_cpu_count(tmp_path, monkeypatch):
    trees = []
    for cpus in (2, 1):
        monkeypatch.setattr(kernel, "_cpu_count", lambda cpus=cpus: cpus)
        assert run("kernel-mc", "--triangles", 7, "--subspaces", 3, "--trials", 7,
                   "--grid-side", 10, "--pixel", "4,6", "--seed", 9,
                   "--out", tmp_path / "kmc") == 0
        trees.append({p.name: p.read_bytes() for p in (tmp_path / "kmc").iterdir()})
    assert trees[0] == trees[1] and len(trees[0]) == 5


def test_kernel_mc_bad_triangles_writes_nothing(tmp_path):
    assert run("kernel-mc", "--triangles", 1, "--subspaces", 2, "--trials", 3,
               "--out", tmp_path / "kmc") == 2
    assert not (tmp_path / "kmc").exists()


def test_gen_data_rerun_is_byte_identical(pipe, tmp_path):
    before_manifest = (pipe["data"] / "manifest.json").read_bytes()
    before_img = (pipe["data"] / "00000.f32raw").read_bytes()
    assert run("gen-data", "--count", 6, "--grid-side", 12, "--kind", "shapes",
               "--seed", 42, "--out", pipe["data"]) == 0
    assert (pipe["data"] / "manifest.json").read_bytes() == before_manifest
    assert (pipe["data"] / "00000.f32raw").read_bytes() == before_img
    other = tmp_path / "other-seed"
    assert run("gen-data", "--count", 6, "--grid-side", 12, "--kind", "shapes",
               "--seed", 43, "--out", other) == 0
    assert (other / "00000.f32raw").read_bytes() != before_img


def test_config_file_merge_and_override(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"count": 3, "grid_side": 8, "kind": "shapes",
                               "seed": 5, "out": str(tmp_path / "from-file")}))
    assert run("gen-data", "--config", cfg) == 0
    assert len(list((tmp_path / "from-file").glob("*.f32raw"))) == 3
    # a flag beats the file
    assert run("gen-data", "--config", cfg, "--count", 5,
               "--out", tmp_path / "override") == 0
    assert len(list((tmp_path / "override").glob("*.f32raw"))) == 5
    man = json.loads((tmp_path / "override" / "manifest.json").read_text())
    assert man["config"]["count"] == 5 and man["config"]["grid_side"] == 8

    bad_key = tmp_path / "bad-key.json"
    bad_key.write_text(json.dumps({"cnt": 3}))
    assert run("gen-data", "--config", bad_key, "--grid-side", 8,
               "--out", tmp_path / "x1") == 2
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert run("gen-data", "--config", bad_json, "--grid-side", 8,
               "--out", tmp_path / "x2") == 2
    assert run("gen-data", "--config", tmp_path / "nope.json",
               "--grid-side", 8, "--out", tmp_path / "x3") == 3


def test_checkerboard_generation(tmp_path):
    out = tmp_path / "board"
    assert run("gen-data", "--kind", "checkerboard", "--count", 2,
               "--grid-side", 8, "--cells", 4, "--out", out) == 0
    imgs, man = load_dataset(out)
    assert len(imgs) == 2
    assert np.array_equal(imgs[0].values, imgs[1].values)
    assert set(np.unique(imgs[0].values)) == {0.0, 1.0}
    assert man["cells"] == 4
    assert run("gen-data", "--kind", "checkerboard", "--count", 1,
               "--grid-side", 8, "--out", tmp_path / "no-cells") == 2
    assert run("gen-data", "--kind", "checkerboard", "--count", 1,
               "--grid-side", 8, "--cells", 3, "--out", tmp_path / "bad-cells") == 2


def test_corrupt_inf_is_identity(pipe, tmp_path):
    out = tmp_path / "clean-copy"
    assert run("corrupt", "--measurements", pipe["meas"], "--snr-db", "inf",
               "--erasure-p", 0.0, "--out", out) == 0
    for i in range(6):
        assert (out / f"y_{i:05d}.csv").read_bytes() == \
            (pipe["meas"] / f"y_{i:05d}.csv").read_bytes()
    man = json.loads((out / "manifest.json").read_text())
    assert man["config"]["snr_db"] == "inf"


def test_corrupt_rejects_negative_infinite_snr(pipe, tmp_path, capsys):
    # infinite noise cannot be drawn; it must not run as noiseless
    out = tmp_path / "minus-inf"
    assert run("corrupt", "--measurements", pipe["meas"], "--snr-db=-inf",
               "--out", out) == 2
    assert "field 'snr_db'" in capsys.readouterr().err
    assert not out.exists()
    assert cli._jsonable({"lo": -math.inf, "hi": math.inf}) == {"lo": "-inf", "hi": "inf"}


def test_config_error_exit_codes(pipe, tmp_path):
    assert run("gen-data", "--count", 1, "--kind", "shapes",
               "--out", tmp_path / "a") == 2          # missing grid_side
    assert run("gen-data", "--count", 1, "--grid-side", 8, "--kind", "mandelbrot",
               "--out", tmp_path / "b") == 2
    assert run("gen-mesh", "--triangles", 1, "--out", tmp_path / "c") == 2
    assert run("corrupt", "--measurements", pipe["meas"], "--erasure-p", 1.5,
               "--out", tmp_path / "d") == 2
    assert run("estimate", "--backend", "psychic", "--meshes", pipe["meshes"],
               "--grid-side", 12, "--out", tmp_path / "e") == 2
    assert run("reconstruct", "--method", "hologram", "--grid-side", 12,
               "--out", tmp_path / "f") == 2
    assert run("kernel-mc", "--triangles", 6, "--subspaces", 2, "--trials", 2,
               "--grid-side", 12, "--pixel", "nowhere", "--out", tmp_path / "g") == 2
    assert run("kernel-mc", "--triangles", 6, "--subspaces", 2, "--trials", 2,
               "--grid-side", 12, "--pixel", "40,40", "--out", tmp_path / "h") == 2
    assert run("not-a-command") == 2
    assert run("gen-data", "--no-such-flag", 1) == 2
    assert run("evaluate", "--data", pipe["data"], "--out", tmp_path / "i") == 2
    assert run("evaluate", "--data", pipe["data"], "--recon", "label-no-eq",
               "--out", tmp_path / "j") == 2
    # the ridge penalty must be finite; nothing is written
    assert run("train", "--data", pipe["data"], "--warm", pipe["warm"],
               "--meshes", pipe["meshes"], "--grid-side", 12, "--weight-decay", "inf",
               "--out", tmp_path / "k") == 2
    assert not (tmp_path / "k").exists()


def test_missing_input_exit_codes(pipe, tmp_path, capsys):
    assert run("forward", "--data", tmp_path / "ghost", "--sensors", 10,
               "--out", tmp_path / "a") == 3
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run("nnls", "--measurements", empty, "--sensors", 10,
               "--grid-side", 12, "--out", tmp_path / "b") == 3
    assert run("evaluate", "--data", pipe["data"],
               "--recon", f"x={tmp_path / 'ghost2'}", "--out", tmp_path / "c") == 3
    # a coefficient file one value short or long of the meshes' total K = 16
    for i, change in enumerate((lambda lines: lines[:-1], lambda lines: lines + lines[-1:])):
        bad_q = tmp_path / f"bad-q{i}"
        shutil.copytree(pipe["q_oracle"], bad_q)
        target = bad_q / "q_00002.csv"
        target.write_text("".join(change(target.read_text().splitlines(keepends=True))))
        assert run("reconstruct", "--method", "recombine", "--coeffs", bad_q,
                   "--meshes", pipe["meshes"], "--grid-side", 12,
                   "--out", tmp_path / f"d{i}") == 3
        assert f"{target}: expected 16 coefficients" in capsys.readouterr().err
    no_manifest = tmp_path / "no-manifest-q"
    shutil.copytree(pipe["q_oracle"], no_manifest)
    (no_manifest / "manifest.json").unlink()
    assert run("reconstruct", "--method", "recombine", "--coeffs", no_manifest,
               "--meshes", pipe["meshes"], "--grid-side", 12, "--out", tmp_path / "m") == 3
    half = tmp_path / "half-mesh"
    half.mkdir()
    (half / "mesh_000.json").write_text(json.dumps(
        {"vertices": [[0, 0], [1, 0], [1, 1]], "triangles": [[0, 1, 2]]}))
    assert run("estimate", "--backend", "oracle", "--meshes", half,
               "--grid-side", 12, "--data", pipe["data"], "--out", tmp_path / "e") == 3


def test_unreadable_input_exit_codes(pipe, tmp_path, capsys):
    # a directory where a measurement file should be, a byte outside ASCII
    # in a measurement file, and one in a mesh file
    for name in ("dir", "byte"):
        meas = tmp_path / f"{name}-meas"
        shutil.copytree(pipe["noisy"], meas)
        target = meas / "y_00001.csv"
        if name == "dir":
            target.unlink()
            target.mkdir()
        else:
            target.write_bytes(target.read_bytes() + b"\xff\n")
        assert run("nnls", "--measurements", meas, "--sensors", 10, "--grid-side", 12,
                   "--out", tmp_path / f"{name}-warm") == 3
        assert "y_00001.csv" in capsys.readouterr().err
    meshes = tmp_path / "byte-meshes"
    shutil.copytree(pipe["meshes"], meshes)
    (meshes / "mesh_001.json").write_bytes(b"\xff" + (meshes / "mesh_001.json").read_bytes())
    assert run("estimate", "--backend", "oracle", "--meshes", meshes, "--grid-side", 12,
               "--data", pipe["data"], "--out", tmp_path / "q") == 3
    assert "mesh_001.json" in capsys.readouterr().err
    # an output directory that is an existing regular file cannot be written
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run("gen-data", "--count", 1, "--grid-side", 8, "--out", taken) == 3
    err = capsys.readouterr().err
    assert err.startswith("cannot read an input or write an output:")
    assert "File exists" in err


def test_numeric_failure_exit_code(pipe, tmp_path):
    # two sensors give a single ray; an 8-triangle subspace cannot be
    # identified from it, so the oblique build must fail numerically
    assert run("estimate", "--backend", "oblique", "--meshes", pipe["meshes"],
               "--grid-side", 12, "--measurements", pipe["meas"], "--sensors", 2,
               "--out", tmp_path / "a") == 4


def test_oblique_consistency_failure_exits_4(pipe, tmp_path, inflated_svd):
    assert run("estimate", "--backend", "oblique", "--meshes", pipe["meshes"],
               "--grid-side", 12, "--measurements", pipe["meas"], "--sensors", 10,
               "--out", tmp_path / "a") == 4


def test_malformed_estimator_file_exits_3(pipe, tmp_path):
    # a NaN parameter, a non-string fingerprint and a flattened weight each
    # make a well-framed .est file that is not an estimator
    path = pipe["est"] / "estimator_000.est"
    header, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    nan_payload = np.array([np.nan], dtype="<f4").tobytes() + payload[4:]
    flat = {"weight_shape": [int(np.prod(header["weight_shape"]))]}
    for i, (fields, body) in enumerate([({}, nan_payload), ({"fingerprint": 123}, payload),
                                        (flat, payload)]):
        est_dir = tmp_path / f"est{i}"
        shutil.copytree(pipe["est"], est_dir)
        (est_dir / "estimator_000.est").write_bytes(
            json.dumps({**header, **fields}).encode() + b"\n" + body)
        assert run("estimate", "--backend", "learned", "--meshes", pipe["meshes"],
                   "--grid-side", 12, "--warm", pipe["warm"], "--estimators", est_dir,
                   "--out", tmp_path / f"q{i}") == 3, fields


def grid12_bases(mesh_dir):
    return [rasterize(load_mesh(p), Grid(12)) for p in sorted(mesh_dir.glob("mesh_*.json"))]


def test_shared_pooled_pipeline(pipe, tmp_path):
    est_dir, q_dir = tmp_path / "est-pooled", tmp_path / "q-pooled"
    assert run("train", "--data", pipe["data"], "--warm", pipe["warm"],
               "--meshes", pipe["meshes"], "--grid-side", 12,
               "--estimator-kind", "shared-pooled", "--seed", 11, "--out", est_dir) == 0
    assert sorted(p.name for p in est_dir.iterdir()) == ["estimator_000.est", "manifest.json"]
    man = json.loads((est_dir / "manifest.json").read_text())
    assert man["count"] == 1 and len(man["final_val_loss"]) == 1
    # the one estimator serves every mesh; one stacked file per image
    assert run("estimate", "--backend", "learned", "--meshes", pipe["meshes"],
               "--grid-side", 12, "--warm", pipe["warm"], "--estimators", est_dir,
               "--out", q_dir) == 0
    est = load_estimator(est_dir / "estimator_000.est")
    bases = grid12_bases(pipe["meshes"])
    for i in range(6):
        warm = load_image(pipe["warm"] / f"warm_{i:05d}.f32raw")
        q = load_measurement(q_dir / f"q_{i:05d}.csv").values
        assert np.array_equal(q, np.concatenate([estimate_coeffs(est, b, warm)
                                                 for b in bases]))
    assert run("reconstruct", "--method", "recombine", "--coeffs", q_dir,
               "--meshes", pipe["meshes"], "--grid-side", 12, "--max-iters", 50,
               "--out", tmp_path / "recon") == 0
    assert len(list((tmp_path / "recon").glob("recon_*.f32raw"))) == 6


def test_recombine_on_other_meshes_exits_3(pipe, tmp_path, capsys):
    # meshes from another seed with the same triangle counts: every K
    # matches, but the coefficients were estimated on the fixture's meshes
    other = tmp_path / "other-meshes"
    assert run("gen-mesh", "--triangles", 8, "--subspaces", 2, "--seed", 12,
               "--out", other) == 0
    ours, theirs = grid12_bases(pipe["meshes"]), grid12_bases(other)
    assert [b.k for b in ours] == [b.k for b in theirs]
    assert run("reconstruct", "--method", "recombine", "--coeffs", pipe["q_oracle"],
               "--meshes", other, "--grid-side", 12, "--out", tmp_path / "a") == 3
    assert "not on the --meshes stack" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()
    # the manifest's list is in --meshes file order
    man = json.loads((pipe["q_oracle"] / "manifest.json").read_text())
    assert man["fingerprints"] == [b.fingerprint for b in ours]


def test_learned_estimator_count_mismatch(pipe, tmp_path):
    partial = tmp_path / "partial-est"
    shutil.copytree(pipe["est"], partial)
    (partial / "estimator_001.est").unlink()
    assert run("estimate", "--backend", "learned", "--meshes", pipe["meshes"],
               "--grid-side", 12, "--warm", pipe["warm"], "--estimators", partial,
               "--out", tmp_path / "a") == 2


def test_evaluate_count_mismatch(pipe, tmp_path):
    short = tmp_path / "short"
    short.mkdir()
    for i in range(3):
        shutil.copy(pipe["recon_tv"] / f"recon_{i:05d}.f32raw", short)
    assert run("evaluate", "--data", pipe["data"], "--recon", f"tv={short}",
               "--out", tmp_path / "a") == 2


def test_help_exits_zero():
    assert run("--help") == 0
    assert run("gen-data", "--help") == 0


def test_numeric_fields_reject_bools_fractions_and_nan(pipe, tmp_path, capsys):
    for i, bad in enumerate(({"count": 2.7, "grid_side": 8}, {"count": 2, "grid_side": 8.9},
                             {"count": True, "grid_side": 8})):
        cfg = tmp_path / f"bad{i}.json"
        cfg.write_text(json.dumps({**bad, "out": str(tmp_path / f"bad{i}")}))
        assert run("gen-data", "--config", cfg) == 2
        field = "count" if i != 1 else "grid_side"
        assert f"field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / f"bad{i}").exists()
    assert run("gen-data", "--count", 2.5, "--grid-side", 8, "--out", tmp_path / "flag") == 2
    assert run("corrupt", "--measurements", pipe["meas"], "--snr-db", "nan",
               "--out", tmp_path / "nan") == 2
    assert "field 'snr_db'" in capsys.readouterr().err
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"count": 3.0, "grid_side": "8", "out": str(tmp_path / "ok")}))
    assert run("gen-data", "--config", ok) == 0
    images, man = load_dataset(tmp_path / "ok")
    assert len(images) == 3 and images[0].grid.side == 8
    assert man["config"]["count"] == 3 and man["config"]["grid_side"] == 8


def test_solver_flags_reject_infinite_values(pipe, tmp_path, capsys):
    tv = ("reconstruct", "--method", "tv-direct", "--measurements", pipe["noisy"],
          "--sensors", 10, "--grid-side", 12, "--max-iters", 20)
    warm = ("nnls", "--measurements", pipe["noisy"], "--sensors", 10, "--grid-side", 12)
    cases = (tv + ("--tv-weight", "inf"), tv + ("--tv-weight", 0.05, "--tol", "inf"),
             warm + ("--tol", "inf"))
    for i, argv in enumerate(cases):
        out = tmp_path / f"inf{i}"
        assert run(*argv, "--out", out) == 2
        field = "tv_weight" if i == 0 else "tol"
        assert f"config error: {field} must be finite" in capsys.readouterr().err
        assert not out.exists()


def test_forward_on_malformed_dataset_manifest_exits_3(pipe, tmp_path):
    bad = tmp_path / "list-manifest"
    shutil.copytree(pipe["data"], bad)
    (bad / "manifest.json").write_text(json.dumps(["00000.f32raw"]))
    assert run("forward", "--data", bad, "--sensors", 10, "--out", tmp_path / "a") == 3


def test_forward_on_dataset_of_mixed_sides_exits_3(pipe, tmp_path, capsys):
    # one 8x8 image among 12x12 ones, with and without the manifest's side;
    # then every image 8x8 against the manifest's side 12
    man = json.loads((pipe["data"] / "manifest.json").read_text())
    no_side = {k: v for k, v in man.items() if k != "side"}
    for i, (manifest, small) in enumerate(((man, ["00003"]), (no_side, ["00003"]),
                                           (man, [f"{j:05d}" for j in range(6)]))):
        bad = tmp_path / f"mixed{i}"
        shutil.copytree(pipe["data"], bad)
        (bad / "manifest.json").write_text(json.dumps(manifest))
        for stem in small:
            save_image(Image.zeros(Grid(8)), bad / f"{stem}.f32raw", "f32raw")
        assert run("forward", "--data", bad, "--sensors", 10, "--out", tmp_path / "a") == 3
        assert f"{small[0]}.f32raw: image side 8, dataset side 12" in capsys.readouterr().err


def test_train_without_validation_writes_strict_json(pipe, tmp_path):
    out = tmp_path / "est-noval"
    assert run("train", "--data", pipe["data"], "--warm", pipe["warm"],
               "--meshes", pipe["meshes"], "--grid-side", 12,
               "--validation-fraction", 0, "--out", out) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    man = json.loads((out / "manifest.json").read_text(), parse_constant=reject)
    assert man["final_val_loss"] == [None, None]


# the commands that draw no random numbers take no --seed
_UNSEEDED = ("forward", "nnls", "estimate", "reconstruct", "evaluate")


def test_help_flags_match_declared_fields(capsys):
    from meshtomo.cli import _COMMANDS
    assert len(_COMMANDS) == 10
    for command, (_, _, fields) in _COMMANDS.items():
        capsys.readouterr()
        assert run(command, "--help") == 0
        shown = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M))
        expected = {"--" + name.replace("_", "-") for name in fields if name != "recons"}
        expected |= {"--config"} | ({"--recon"} if command == "evaluate" else set())
        assert shown == expected, command
        assert ("seed" in fields) == (command not in _UNSEEDED), command


def test_unseeded_commands_reject_seed(pipe, tmp_path, capsys):
    argvs = {
        "forward": ["--data", pipe["data"], "--sensors", 10],
        "nnls": ["--measurements", pipe["noisy"], "--sensors", 10, "--grid-side", 12],
        "estimate": ["--backend", "oracle", "--meshes", pipe["meshes"], "--grid-side", 12,
                     "--data", pipe["data"]],
        "reconstruct": ["--method", "tv-direct", "--measurements", pipe["noisy"],
                        "--sensors", 10, "--grid-side", 12, "--max-iters", 5],
        "evaluate": ["--data", pipe["data"], "--recon", f"tv={pipe['recon_tv']}"],
    }
    assert set(argvs) == set(_UNSEEDED)
    for command, argv in argvs.items():
        out = tmp_path / command
        assert run(command, *argv, "--seed", 1, "--out", out) == 2
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps({"seed": 1}))
        assert run(command, "--config", cfg, *argv, "--out", out) == 2
        assert "unknown config field 'seed'" in capsys.readouterr().err
        assert run(command, *argv, "--out", out) == 0
