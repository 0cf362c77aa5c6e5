"""End-to-end command-line flows and the exit-code contract."""

import dataclasses
import json
import os
import struct

import numpy as np
import pytest

from slotsurv.cli import main
from slotsurv.train import Checkpoint, load_checkpoint, save_checkpoint


SYNTH_CFG = {"n_patients": 12, "m_hist_lo": 6, "m_hist_hi": 10, "m_gen": 8,
             "dim": 8, "n_motifs": 2, "censor_fraction": 0.25, "seed": 4}
TRAIN_CFG = {"epochs": 1, "batch_size": 6, "n_slots_h": 4, "n_slots_g": 4,
             "t_iters": 2, "l_iters": 2, "k_fraction": 0.5, "n_bins": 3,
             "patch_subsample": 8, "n_folds": 3, "seed": 1}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synth -> discretize -> train -> eval pipeline shared by tests."""
    root = tmp_path_factory.mktemp("cli")
    synth_cfg = root / "synth.json"
    synth_cfg.write_text(json.dumps(SYNTH_CFG))
    cohort_dir = root / "cohort"
    assert main(["synth", "--config", str(synth_cfg),
                 "--out", str(cohort_dir)]) == 0
    manifest = cohort_dir / "manifest.json"
    assert main(["discretize", "--manifest", str(manifest),
                 "--bins", "3"]) == 0

    train_cfg = root / "train.json"
    train_cfg.write_text(json.dumps(TRAIN_CFG))
    runs = root / "runs"
    assert main(["train", "--manifest", str(manifest),
                 "--config", str(train_cfg), "--fold", "0",
                 "--out", str(runs)]) == 0
    ckpt = runs / "fold_0.ckpt"
    assert ckpt.exists()
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--manifest", str(manifest), "--fold", "0",
                 "--out", str(runs)]) == 0
    return {"root": root, "manifest": manifest, "ckpt": ckpt, "runs": runs,
            "cohort_dir": cohort_dir}


def test_usage_errors_exit_1():
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["train", "--manifest"]) == 1
    assert main(["--help"]) == 0


def test_thread_env_configures_blas(monkeypatch, tmp_path):
    monkeypatch.setenv("SLOTSURV_THREADS", "2")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"n_patients": 1, "m_hist_lo": 4,
                               "m_hist_hi": 4, "m_gen": 4, "dim": 4,
                               "n_motifs": 1}))
    assert main(["synth", "--config", str(cfg),
                 "--out", str(tmp_path / "c")]) == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_thread_env_rejects_garbage(monkeypatch):
    monkeypatch.setenv("SLOTSURV_THREADS", "lots")
    assert main(["--help"]) == 1
    monkeypatch.setenv("SLOTSURV_THREADS", "0")
    assert main(["--help"]) == 1


def test_missing_files_exit_2(workdir, tmp_path):
    assert main(["discretize", "--manifest",
                 str(tmp_path / "nope.json")]) == 2
    assert main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt"),
                 "--manifest", str(workdir["manifest"]), "--fold", "0"]) == 2
    assert main(["report", "--runs", str(tmp_path),
                 "--out", str(tmp_path / "r")]) == 2


def test_bad_config_values_exit_2(workdir, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"learning_rate": -1.0}))
    assert main(["train", "--manifest", str(workdir["manifest"]),
                 "--config", str(cfg), "--fold", "0",
                 "--out", str(tmp_path)]) == 2
    cfg.write_text("{not json")
    assert main(["synth", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 2


def test_divergence_exits_3(workdir, tmp_path):
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps({**TRAIN_CFG, "learning_rate": 1e6,
                               "epochs": 6}))
    # the diverging logits overflow exp before the finite guard rejects them
    with np.errstate(over="ignore"):
        code = main(["train", "--manifest", str(workdir["manifest"]),
                     "--config", str(cfg), "--fold", "0",
                     "--out", str(tmp_path / "runs")])
    assert code == 3


def test_corrupt_checkpoint_exits_2(workdir, tmp_path):
    bad = tmp_path / "trailing.ckpt"
    bad.write_bytes(workdir["ckpt"].read_bytes() + b"\0" * 8)
    code = main(["eval", "--checkpoint", str(bad),
                 "--manifest", str(workdir["manifest"]), "--fold", "0",
                 "--out", str(tmp_path / "runs")])
    assert code == 2


def test_eval_writes_metrics_json(workdir):
    path = workdir["runs"] / "eval_fold_0.json"
    metrics = json.loads(path.read_text())
    assert metrics["fold"] == 0
    assert 0.0 <= metrics["c_index"] <= 1.0
    assert metrics["missing_genomics"] is False


def test_eval_missing_genomics_flag(workdir):
    assert main(["eval", "--checkpoint", str(workdir["ckpt"]),
                 "--manifest", str(workdir["manifest"]), "--fold", "0",
                 "--missing-genomics", "--out", str(workdir["runs"])]) == 0
    metrics = json.loads(
        (workdir["runs"] / "eval_fold_0_missing.json").read_text())
    assert metrics["missing_genomics"] is True
    assert np.isfinite(metrics["c_index"])


def test_infer_outputs_and_determinism(workdir, tmp_path):
    records = json.loads(workdir["manifest"].read_text())["patients"]
    bag_h = os.path.join(str(workdir["cohort_dir"]),
                         records[0]["histology_path"])
    bag_g = os.path.join(str(workdir["cohort_dir"]),
                         records[0]["genomic_path"])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["infer", "--checkpoint", str(workdir["ckpt"]),
                     "--histology", bag_h, "--genomic", bag_g,
                     "--out", str(out)]) == 0
    p1 = (out1 / "prediction.json").read_bytes()
    assert p1 == (out2 / "prediction.json").read_bytes()
    pred = json.loads(p1)
    assert pred["imputed_genomic"] is False
    assert len(pred["hazards"]) == 3
    surv = pred["survival"]
    assert all(a >= b for a, b in zip(surv, surv[1:]))
    for name in ("assignment_histology.csv", "assignment_genomic.csv",
                 "gates_histology.csv", "gates_genomic.csv"):
        assert (out1 / name).exists(), name
    assert not (out1 / "imputed_genomic.json").exists()


def test_infer_imputes_when_genomic_missing(workdir, tmp_path):
    records = json.loads(workdir["manifest"].read_text())["patients"]
    bag_h = os.path.join(str(workdir["cohort_dir"]),
                         records[1]["histology_path"])
    out = tmp_path / "imp"
    assert main(["infer", "--checkpoint", str(workdir["ckpt"]),
                 "--histology", bag_h, "--out", str(out)]) == 0
    pred = json.loads((out / "prediction.json").read_text())
    assert pred["imputed_genomic"] is True
    sidecar = json.loads((out / "imputed_genomic.json").read_text())
    assert sidecar["imputed"] is True


def test_bag_of_the_wrong_modality_exits_2(workdir, tmp_path, capsys):
    """A genomic bag given as histology is a data error: infer names the
    role it was given in, train names the file as well."""
    doc = json.loads(workdir["manifest"].read_text())
    bag_g = os.path.join(str(workdir["cohort_dir"]),
                         doc["patients"][0]["genomic_path"])
    assert main(["infer", "--checkpoint", str(workdir["ckpt"]),
                 "--histology", bag_g, "--out", str(tmp_path / "x")]) == 2
    assert "expected a histology bag, got 'genomic'" in capsys.readouterr().err
    for row in doc["patients"]:
        row["histology_path"] = row["genomic_path"]
    swapped = workdir["cohort_dir"] / "swapped.json"
    swapped.write_text(json.dumps(doc))
    assert main(["train", "--manifest", str(swapped),
                 "--config", str(workdir["root"] / "train.json"),
                 "--fold", "0", "--out", str(tmp_path / "runs")]) == 2
    assert "_g.bag: expected a histology bag, got 'genomic'" in \
        capsys.readouterr().err


def test_report_aggregates_runs(workdir, tmp_path):
    out = tmp_path / "report"
    assert main(["report", "--runs", str(workdir["runs"]),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "c_index_mean" in summary and "delta" in summary
    assert (out / "folds.csv").exists()
    assert (out / "km.svg").exists()


def _corrupt(blob: bytes, case: int, rng) -> bytes:
    """One malformed variant of a valid bag file."""
    kind = case % 8
    if kind == 0:
        return blob[:rng.integers(0, len(blob))]          # truncated
    if kind == 1:
        return b"XXXX" + blob[4:]                          # bad magic
    if kind == 2:
        return blob[:4] + struct.pack("<H", 99) + blob[6:]  # bad version
    if kind == 3:
        return blob[:6] + b"\x07" + blob[7:]               # bad modality
    if kind == 4:
        return blob + b"\x00" * int(rng.integers(1, 16))   # trailing bytes
    if kind == 5:
        bad = bytearray(blob)
        bad[16:20] = struct.pack("<f", np.nan)             # nan payload
        return bytes(bad)
    if kind == 6:
        return blob[:8] + struct.pack("<I", 10 ** 6) + blob[12:]  # huge M
    return bytes(rng.integers(0, 256, size=64, dtype=np.uint8))   # noise


def test_malformed_bag_fuzz_always_data_error(workdir, tmp_path):
    records = json.loads(workdir["manifest"].read_text())["patients"]
    bag_h = os.path.join(str(workdir["cohort_dir"]),
                         records[0]["histology_path"])
    blob = open(bag_h, "rb").read()
    rng = np.random.default_rng(0)
    for case in range(24):
        bad = tmp_path / f"bad_{case}.bag"
        bad.write_bytes(_corrupt(blob, case, rng))
        code = main(["infer", "--checkpoint", str(workdir["ckpt"]),
                     "--histology", str(bad),
                     "--out", str(tmp_path / f"out_{case}")])
        assert code == 2, f"case {case} exited {code}"


def test_infer_rejects_non_finite_checkpoint_as_data_error(workdir, tmp_path,
                                                           capsys):
    """A checkpoint with an infinite parameter exits with the data-error
    code at load, naming the tensor."""
    ckpt = load_checkpoint(workdir["ckpt"])
    slots_h = dataclasses.replace(
        ckpt.params.slots_h,
        gru_bz=np.full_like(ckpt.params.slots_h.gru_bz, np.inf))
    bad = tmp_path / "inf.ckpt"
    save_checkpoint(dataclasses.replace(
        ckpt, params=dataclasses.replace(ckpt.params, slots_h=slots_h)), bad)
    records = json.loads(workdir["manifest"].read_text())["patients"]
    bag_h = os.path.join(str(workdir["cohort_dir"]),
                         records[0]["histology_path"])
    code = main(["infer", "--checkpoint", str(bad), "--histology", bag_h,
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "slots_h.gru_bz has non-finite entries" in capsys.readouterr().err


def test_infer_rejects_checkpoint_with_unknown_tensor(workdir, tmp_path,
                                                      capsys, monkeypatch):
    """A checkpoint holding a tensor the model does not have, such as the
    gate bias of earlier models, exits with the data-error code at load,
    naming the tensor."""
    full = Checkpoint.named_tensors
    monkeypatch.setattr(Checkpoint, "named_tensors", lambda self: {
        **full(self), "gate_h.b": np.zeros((1, 1), dtype=np.float32)})
    bad = tmp_path / "extra.ckpt"
    save_checkpoint(load_checkpoint(workdir["ckpt"]), bad)
    monkeypatch.undo()
    records = json.loads(workdir["manifest"].read_text())["patients"]
    bag_h = os.path.join(str(workdir["cohort_dir"]),
                         records[0]["histology_path"])
    code = main(["infer", "--checkpoint", str(bad), "--histology", bag_h,
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "gate_h.b" in capsys.readouterr().err
