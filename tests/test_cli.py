import hashlib
import json
import shutil

import numpy as np
import pytest

from meshtomo.cli import main
from meshtomo.core import load_image
from meshtomo.data import load_dataset, output_snr
from meshtomo.kernel import load_radial_profile
from meshtomo.tomo import load_measurement


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
    assert q_names == ["manifest.json"] + \
        [f"q_{i:05d}_{lam:03d}.csv" for i in range(6) for lam in range(2)]
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
    assert first.startswith(b"P5 38 12 65535\n")  # three 12-wide tiles + 2 separators
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
    not_object = tmp_path / "list.json"
    not_object.write_text(json.dumps({"recons": [str(pipe["recon_sub"])]}))
    assert run("evaluate", "--config", not_object, "--data", pipe["data"],
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


def test_missing_input_exit_codes(pipe, tmp_path):
    assert run("forward", "--data", tmp_path / "ghost", "--sensors", 10,
               "--out", tmp_path / "a") == 3
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run("nnls", "--measurements", empty, "--sensors", 10,
               "--grid-side", 12, "--out", tmp_path / "b") == 3
    assert run("evaluate", "--data", pipe["data"],
               "--recon", f"x={tmp_path / 'ghost2'}", "--out", tmp_path / "c") == 3
    broken = tmp_path / "broken-q"
    shutil.copytree(pipe["q_oracle"], broken)
    (broken / "q_00002_001.csv").unlink()
    assert run("reconstruct", "--method", "recombine", "--coeffs", broken,
               "--meshes", pipe["meshes"], "--grid-side", 12,
               "--out", tmp_path / "d") == 3
    half = tmp_path / "half-mesh"
    half.mkdir()
    (half / "mesh_000.json").write_text(json.dumps(
        {"vertices": [[0, 0], [1, 0], [1, 1]], "triangles": [[0, 1, 2]]}))
    assert run("estimate", "--backend", "oracle", "--meshes", half,
               "--grid-side", 12, "--data", pipe["data"], "--out", tmp_path / "e") == 3


def test_numeric_failure_exit_code(pipe, tmp_path):
    # two sensors give a single ray; an 8-triangle subspace cannot be
    # identified from it, so the oblique build must fail numerically
    assert run("estimate", "--backend", "oblique", "--meshes", pipe["meshes"],
               "--grid-side", 12, "--measurements", pipe["meas"], "--sensors", 2,
               "--out", tmp_path / "a") == 4


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
