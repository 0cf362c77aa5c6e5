"""Optimizer arithmetic, checkpoint round-trips, the fold harness and the
evaluation metrics."""

import dataclasses
import json
import logging
import os
import struct
import subprocess
import sys
import weakref

import numpy as np
import pytest

from slotsurv import data as data_mod
from slotsurv import fusion as fusion_mod
from slotsurv import model as model_mod
from slotsurv.data import SynthConfig, discretize_times, synth_cohort
from slotsurv import recon as recon_mod
from slotsurv import reporting
from slotsurv import survival as surv_mod
from slotsurv import train as train_mod
from slotsurv.autodiff import OP_KINDS, Graph, GraphError
from slotsurv.train import (
    AdamState,
    Checkpoint,
    CheckpointError,
    DivergenceError,
    TrainConfig,
    adam_step,
    evaluate,
    fold_indices,
    k_from_fraction,
    load_checkpoint,
    predict_patient,
    save_checkpoint,
    train,
)

from oracles import group_of, unfused_cross_attention, unfused_decode


# A cohort small enough for whole-suite runtimes: 12 patients, micro bags.
SMALL_SYNTH = SynthConfig(n_patients=12, m_hist_lo=6, m_hist_hi=10, m_gen=8,
                          dim=8, n_motifs=2, censor_fraction=0.25, seed=4)
SMALL_TRAIN = dict(epochs=1, batch_size=6, n_slots_h=4, n_slots_g=4,
                   t_iters=2, l_iters=2, k_fraction=0.5, n_bins=3,
                   patch_subsample=8, n_folds=3, seed=1)


@pytest.fixture(scope="module")
def small_cohort(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    return synth_cohort(SMALL_SYNTH, out)


@pytest.fixture(scope="module")
def trained(small_cohort):
    cfg = TrainConfig(**SMALL_TRAIN)
    return train(cfg, small_cohort, fold=0)


# ---------------------------------------------------------------------- config


def test_config_defaults_match_reference_recipe():
    cfg = TrainConfig()
    assert cfg.learning_rate == 5e-4
    assert cfg.epochs == 30
    assert cfg.batch_size == 32
    assert cfg.lam == 0.1
    assert cfg.n_slots_h == cfg.n_slots_g == 16
    assert cfg.t_iters == 3
    assert cfg.l_iters == 1
    assert cfg.k_fraction == 0.25
    assert cfg.temperature == 0.01
    assert cfg.patch_subsample == 4096
    assert recon_mod.RECON_ROWS == 512
    assert cfg.n_bins == 4
    cfg.validate()


@pytest.mark.parametrize("bad", [
    dict(learning_rate=0.0), dict(learning_rate=-1e-4), dict(epochs=-1),
    dict(batch_size=0), dict(n_slots_h=0), dict(t_iters=0), dict(l_iters=0),
    dict(k_fraction=0.0), dict(k_fraction=1.5), dict(temperature=0.0),
    dict(patch_subsample=0), dict(n_bins=0), dict(precision="float16"),
    dict(n_folds=1), dict(lam=-0.1), dict(lam=float("nan")),
    dict(lam=float("inf")), dict(learning_rate=float("inf")),
    dict(temperature=float("inf")), dict(temperature=-0.5),
    dict(k_fraction=-0.25),
])
def test_config_rejects_nonpositive_fields(bad):
    with pytest.raises(ValueError):
        TrainConfig(**bad).validate()


def test_config_dict_round_trip():
    cfg = TrainConfig(**SMALL_TRAIN)
    assert TrainConfig.from_dict(cfg.as_dict()) == cfg
    with pytest.raises(ValueError):
        TrainConfig.from_dict({"learning_rte": 1e-3})


def test_k_from_fraction():
    assert k_from_fraction(0.25, 16) == 4
    assert k_from_fraction(0.25, 4) == 1
    assert k_from_fraction(0.05, 4) == 1        # never below one slot
    assert k_from_fraction(1.0, 7) == 7
    for bad in (0.0, -0.25, 1.01, float("nan")):
        with pytest.raises(ValueError, match="k_fraction"):
            k_from_fraction(bad, 8)


# ------------------------------------------------------------------- optimizer


def test_adam_first_step_on_square():
    # f(x) = x^2 at x=1: bias correction makes the first step exactly lr
    arrays = {"x": np.array([1.0])}
    state = AdamState.zeros_like(arrays)
    out = adam_step(arrays, {"x": np.array([2.0])}, state, lr=0.1)
    assert out["x"][0] == pytest.approx(0.9, abs=1e-7)
    assert state.t == 1 and state.skipped == 0


def test_adam_zero_gradient_decays_moments_only():
    arrays = {"x": np.array([1.5])}
    state = AdamState.zeros_like(arrays)
    adam_step(arrays, {"x": np.array([4.0])}, state, lr=0.1)
    m1, v1 = state.m["x"][0], state.v["x"][0]
    out = adam_step(arrays, {"x": np.array([0.0])}, state, lr=0.1)
    assert np.array_equal(out["x"], arrays["x"] -
                          0.1 * (state.m["x"] / (1 - 0.9 ** 2)) /
                          (np.sqrt(state.v["x"] / (1 - 0.999 ** 2)) + 1e-8))
    assert state.m["x"][0] == pytest.approx(0.9 * m1)
    assert state.v["x"][0] == pytest.approx(0.999 * v1)


def test_adam_skips_nonfinite_gradient(caplog):
    arrays = {"x": np.array([1.0]), "y": np.array([2.0])}
    state = AdamState.zeros_like(arrays)
    with caplog.at_level(logging.WARNING):
        out = adam_step(arrays, {"x": np.array([np.nan]),
                                 "y": np.array([1.0])}, state, lr=0.1)
    assert out is arrays
    assert state.t == 0 and state.skipped == 1
    assert np.all(state.m["y"] == 0.0)
    assert any("non-finite" in rec.message for rec in caplog.records)


def test_adam_missing_gradient_counts_as_zero():
    arrays = {"x": np.array([1.0]), "y": np.array([2.0])}
    state = AdamState.zeros_like(arrays)
    out = adam_step(arrays, {"x": np.array([2.0])}, state, lr=0.1)
    assert out["x"][0] != 1.0
    assert out["y"][0] == 2.0          # zero grad: no first-step movement


def test_adam_deterministic():
    def run():
        arrays = {"x": np.linspace(-1, 1, 8).reshape(2, 4).copy()}
        state = AdamState.zeros_like(arrays)
        for t in range(5):
            arrays = adam_step(arrays, {"x": 2.0 * arrays["x"]}, state,
                               lr=0.05)
        return arrays["x"]
    assert np.array_equal(run(), run())


# ----------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_byte_identical(trained, tmp_path):
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(trained.checkpoint, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_restores_every_field(trained, tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(trained.checkpoint, path)
    got = load_checkpoint(path)
    want = trained.checkpoint
    assert got.config == want.config
    assert got.steps_trained == want.steps_trained
    assert got.adam.t == want.adam.t
    assert got.adam.skipped == want.adam.skipped
    for name, arr in model_mod.named_parameters(want.params).items():
        back = model_mod.named_parameters(got.params)[name]
        assert np.array_equal(back, arr) and back.dtype == arr.dtype
    for name, arr in want.adam.m.items():
        assert np.array_equal(got.adam.m[name], arr)
        assert np.array_equal(got.adam.v[name], want.adam.v[name])


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\0" * 64)
    with pytest.raises(ValueError):
        load_checkpoint(path)
    path.write_bytes(b"\x01")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def _index_and_payload(path):
    blob = path.read_bytes()
    _, _, _, doc_len = struct.unpack_from("<4sHHI", blob)
    return json.loads(blob[12:12 + doc_len]), blob[12 + doc_len:]


def _write_raw(path, index, payload):
    doc = json.dumps(index, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(struct.pack("<4sHHI", b"SSCK", 1, 0, len(doc))
                     + doc + payload)


def test_checkpoint_rejects_trailing_bytes(trained, tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(trained.checkpoint, path)
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


@pytest.mark.parametrize("shift", ["negative", "overlap"])
def test_checkpoint_rejects_bad_offsets(trained, tmp_path, shift):
    path = tmp_path / "c.ckpt"
    save_checkpoint(trained.checkpoint, path)
    index, payload = _index_and_payload(path)
    rows = index["tensors"]
    if shift == "negative":
        rows[0]["offset"] = -8
    else:
        rows[1]["offset"] = rows[0]["offset"]
    _write_raw(path, index, payload)
    with pytest.raises(CheckpointError, match="offset"):
        load_checkpoint(path)


def test_checkpoint_rejects_nbytes_disagreeing_with_shape(trained, tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(trained.checkpoint, path)
    index, payload = _index_and_payload(path)
    index["tensors"][-1]["nbytes"] -= 4
    _write_raw(path, index, payload[:-4])
    with pytest.raises(CheckpointError, match="declares"):
        load_checkpoint(path)


def test_checkpoint_rejects_missing_parameter(trained, tmp_path, monkeypatch):
    full = Checkpoint.named_tensors
    monkeypatch.setattr(Checkpoint, "named_tensors", lambda self: {
        k: v for k, v in full(self).items() if k != "risk.w1"})
    path = tmp_path / "c.ckpt"
    save_checkpoint(trained.checkpoint, path)
    with pytest.raises(CheckpointError, match="risk.w1"):
        load_checkpoint(path)


@pytest.mark.parametrize("name", ["gate_h.b", "risk.w3"])
def test_checkpoint_rejects_unknown_parameter(trained, tmp_path, monkeypatch,
                                              name):
    """A tensor the model does not have fails at load, naming it, instead
    of being dropped: e.g. the gate bias that earlier models carried."""
    full = Checkpoint.named_tensors
    monkeypatch.setattr(Checkpoint, "named_tensors", lambda self: {
        **full(self), name: np.zeros((1, 1), dtype=np.float32)})
    path = tmp_path / "c.ckpt"
    save_checkpoint(trained.checkpoint, path)
    with pytest.raises(CheckpointError, match=name):
        load_checkpoint(path)


def test_checkpoint_rejects_orphan_adam_moments(trained, tmp_path):
    ckpt = trained.checkpoint
    ghost = {"ghost.w": np.zeros((2, 2))}
    adam = AdamState(m={**ckpt.adam.m, **ghost}, v={**ckpt.adam.v, **ghost},
                     t=ckpt.adam.t, skipped=ckpt.adam.skipped)
    path = tmp_path / "c.ckpt"
    save_checkpoint(dataclasses.replace(ckpt, adam=adam), path)
    with pytest.raises(CheckpointError, match="ghost.w"):
        load_checkpoint(path)


@pytest.mark.parametrize("name, value", [
    ("slots_h.gru_bz", np.inf), ("risk.w1", np.nan),
    ("adam.v.slots_g.w_q", -np.inf)])
def test_checkpoint_rejects_non_finite_tensor(trained, tmp_path, name, value):
    """A non-finite tensor fails at load, naming the tensor, instead of at
    the first forward pass that binds it."""
    tensors = trained.checkpoint.named_tensors()
    bad = tensors[name].copy()
    bad.flat[0] = value
    path = tmp_path / "c.ckpt"
    save_checkpoint(trained.checkpoint, path)
    index, payload = _index_and_payload(path)
    row = next(r for r in index["tensors"] if r["name"] == name)
    payload = (payload[:row["offset"]] + bad.astype(row["dtype"]).tobytes()
               + payload[row["offset"] + row["nbytes"]:])
    _write_raw(path, index, payload)
    with pytest.raises(CheckpointError, match=f"{name} has non-finite"):
        load_checkpoint(path)


def _served_bytes(ckpt, bag_h, bag_g) -> list:
    """Every array ``predict_patient`` serves, with its dtype and shape."""
    def leaves(obj):
        if dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                yield from leaves(getattr(obj, f.name))
        else:
            yield np.asarray(obj)

    out, imputed = predict_patient(ckpt, bag_h, bag_g)
    return [imputed] + [(a.dtype, a.shape, a.tobytes()) for a in leaves(out)]


def test_checkpoint_from_before_k_fraction_was_the_one_knob(
        trained, small_cohort, tmp_path):
    """A checkpoint whose config still holds the retired ``selective``
    switch loads: ``false`` reads as ``k_fraction = 1.0`` and serves what
    a ``k_fraction = 1.0`` checkpoint serves, bit for bit; ``true`` is
    dropped; any other value is refused.  Only the checkpoint reader
    knows the old key."""
    full = dataclasses.replace(trained.checkpoint, config=dataclasses.replace(
        trained.checkpoint.config, k_fraction=1.0))
    path = tmp_path / "full.ckpt"
    save_checkpoint(full, path)
    index, payload = _index_and_payload(path)
    assert "selective" not in index["config"]
    legacy = tmp_path / "legacy.ckpt"
    _write_raw(legacy, {**index, "config": {**index["config"],
                                            "k_fraction": 0.25,
                                            "selective": False}}, payload)
    old = load_checkpoint(legacy)
    assert old.config.k_fraction == 1.0
    assert old.config == load_checkpoint(path).config
    rec = small_cohort.records[0]
    bag_h = data_mod.load_bag(rec.histology_path)
    bag_g = data_mod.load_bag(rec.genomic_path)
    for bag in (bag_g, None):
        assert (_served_bytes(old, bag_h, bag)
                == _served_bytes(load_checkpoint(path), bag_h, bag))

    save_checkpoint(trained.checkpoint, path)
    index, payload = _index_and_payload(path)
    _write_raw(legacy, {**index, "config": {**index["config"],
                                            "selective": True}}, payload)
    assert load_checkpoint(legacy).config == trained.checkpoint.config
    _write_raw(legacy, {**index, "config": {**index["config"],
                                            "selective": "no"}}, payload)
    with pytest.raises(CheckpointError, match="selective"):
        load_checkpoint(legacy)
    with pytest.raises(ValueError, match="unknown config keys"):
        TrainConfig.from_dict({**index["config"], "selective": False})


def test_checkpoint_written_with_epoch_and_rng_state_still_serves(
        trained, small_cohort, tmp_path):
    """Files written before the checkpoint dropped the ``epoch`` and
    ``rng_state`` index keys, which nothing read, load and serve what the
    same file without them serves, bit for bit, in both modes; saved
    again, they lose the two keys."""
    path = tmp_path / "new.ckpt"
    save_checkpoint(trained.checkpoint, path)
    index, payload = _index_and_payload(path)
    assert not {"epoch", "rng_state"} & set(index)
    old = tmp_path / "old.ckpt"
    state = np.random.default_rng([1, 0]).bit_generator.state
    _write_raw(old, {**index, "epoch": 1, "rng_state": state}, payload)
    rec = small_cohort.records[0]
    bag_h = data_mod.load_bag(rec.histology_path)
    bag_g = data_mod.load_bag(rec.genomic_path)
    for bag in (bag_g, None):
        assert (_served_bytes(load_checkpoint(old), bag_h, bag)
                == _served_bytes(load_checkpoint(path), bag_h, bag))
    again = tmp_path / "again.ckpt"
    save_checkpoint(load_checkpoint(old), again)
    assert again.read_bytes() == path.read_bytes()


def test_failed_checkpoint_save_keeps_previous_file(trained, tmp_path,
                                                    monkeypatch):
    path = tmp_path / "c.ckpt"
    save_checkpoint(trained.checkpoint, path)
    before = path.read_bytes()

    def fail(*args):
        raise OSError("disk full")
    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(dataclasses.replace(trained.checkpoint,
                                            steps_trained=99),
                        path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["c.ckpt"]


# -------------------------------------------------------------------- training


def test_fold_indices_partition(small_cohort):
    cfg = TrainConfig(**SMALL_TRAIN)
    seen = []
    for fold in range(cfg.n_folds):
        tr, va = fold_indices(small_cohort, cfg, fold)
        assert np.intersect1d(tr, va).size == 0
        assert np.union1d(tr, va).size == small_cohort.n_patients
        seen.append(va)
    assert np.concatenate(seen).size == small_cohort.n_patients
    with pytest.raises(ValueError):
        fold_indices(small_cohort, cfg, cfg.n_folds)


def test_zero_epochs_returns_initialization(small_cohort):
    cfg = TrainConfig(**{**SMALL_TRAIN, "epochs": 0})
    res = train(cfg, small_cohort, fold=0)
    ck = res.checkpoint
    assert ck.steps_trained == 0 and res.epoch_reports == []
    # parameters equal a fresh draw from the same stream
    cohort = discretize_times(small_cohort, cfg.n_bins)
    tr, _ = fold_indices(cohort, cfg, 0)
    bag = data_mod.load_bag(cohort.records[tr[0]].histology_path)
    gen = data_mod.load_bag(cohort.records[tr[0]].genomic_path)
    rng = np.random.default_rng([cfg.seed, 0])
    init = model_mod.init_model(rng, dim=bag.d, n_slots_h=cfg.n_slots_h,
                                n_slots_g=cfg.n_slots_g, m_gen=gen.m,
                                n_bins=cohort.n_bins)
    for name, arr in model_mod.named_parameters(init).items():
        assert np.array_equal(model_mod.named_parameters(ck.params)[name],
                              arr)


def test_training_is_deterministic(small_cohort, tmp_path):
    cfg = TrainConfig(**SMALL_TRAIN)
    a = train(cfg, small_cohort, fold=1)
    b = train(cfg, small_cohort, fold=1)
    save_checkpoint(a.checkpoint, tmp_path / "a.ckpt")
    save_checkpoint(b.checkpoint, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == \
           (tmp_path / "b.ckpt").read_bytes()
    pa = model_mod.named_parameters(a.checkpoint.params)
    pb = model_mod.named_parameters(b.checkpoint.params)
    for name in pa:
        assert np.array_equal(pa[name], pb[name])
    assert [r.as_dict() for r in a.epoch_reports] == \
           [r.as_dict() for r in b.epoch_reports]


def test_training_moves_parameters_and_spares_the_frozen_map(
        trained, small_cohort):
    ck = trained.checkpoint
    cfg = ck.config
    cohort = discretize_times(small_cohort, cfg.n_bins)
    tr, _ = fold_indices(cohort, cfg, 0)
    bag = data_mod.load_bag(cohort.records[tr[0]].histology_path)
    gen = data_mod.load_bag(cohort.records[tr[0]].genomic_path)
    rng = np.random.default_rng([cfg.seed, 0])
    init = model_mod.init_model(rng, dim=bag.d, n_slots_h=cfg.n_slots_h,
                                n_slots_g=cfg.n_slots_g, m_gen=gen.m,
                                n_bins=cohort.n_bins)
    init_flat = model_mod.named_parameters(init)
    final_flat = model_mod.named_parameters(ck.params)
    moved = {name for name in init_flat
             if not np.array_equal(init_flat[name], final_flat[name])}
    moved_groups = {group_of(n) for n in moved}
    # every trainable group saw an update in one epoch; the frozen map not
    assert set(model_mod.TRAINABLE_GROUPS) <= moved_groups
    for name in init_flat:
        if name.startswith("qmap."):
            assert np.array_equal(init_flat[name], final_flat[name])


def test_epoch_reports_satisfy_accounting_identity(trained):
    for rep in trained.epoch_reports:
        surv = rep.surv_fused + rep.surv_hist + rep.surv_gen
        recon = rep.recon_g + rep.recon_h + rep.recon_cross
        assert rep.total == pytest.approx(surv + rep.lam * recon, rel=1e-12)


def test_zero_reconstruction_weight_trains_without_recon_terms(
        small_cohort):
    """lam = 0 is documented to disable reconstruction: the config must
    accept it and the recon terms must read 0 in every epoch report."""
    cfg = TrainConfig(**{**SMALL_TRAIN, "lam": 0.0, "epochs": 2})
    reports = train(cfg, small_cohort, fold=0).epoch_reports
    assert len(reports) == 2
    for rep in reports:
        assert (rep.recon_g, rep.recon_h, rep.recon_cross) == (0.0, 0.0, 0.0)


def test_train_rejects_a_cohort_binned_to_another_count(small_cohort,
                                                        tmp_path):
    """The model takes its bin count from the cohort and the checkpoint
    records the config's, so a mismatch would save a checkpoint that
    cannot be loaded; train refuses it up front, naming both counts."""
    cfg = TrainConfig(**SMALL_TRAIN)
    with pytest.raises(ValueError, match="5 time bins .* 3"):
        train(cfg, discretize_times(small_cohort, 5), fold=0)
    ckpt = train(cfg, discretize_times(small_cohort, 3), fold=0).checkpoint
    save_checkpoint(ckpt, tmp_path / "c.ckpt")
    assert load_checkpoint(tmp_path / "c.ckpt").params.pred_h.w2.shape[1] == 3


def test_train_rejects_event_starved_split(tmp_path):
    synth = SynthConfig(n_patients=6, m_hist_lo=4, m_hist_hi=6, m_gen=4,
                        dim=6, n_motifs=1, censor_fraction=0.0, seed=9)
    cohort = synth_cohort(synth, tmp_path)
    # censor everyone -> no events anywhere
    records = tuple(
        data_mod.SurvivalRecord(
            patient_id=r.patient_id, time_months=r.time_months, censor=1,
            histology_path=r.histology_path, genomic_path=r.genomic_path,
            time_bin=r.time_bin)
        for r in cohort.records)
    censored_all = data_mod.Cohort(records=records,
                                   bin_edges=cohort.bin_edges)
    cfg = TrainConfig(**{**SMALL_TRAIN, "n_folds": 2})
    with pytest.raises(ValueError, match="uncensored"):
        train(cfg, censored_all, fold=0)


def test_divergence_aborts_with_diagnostics(small_cohort):
    cfg = TrainConfig(**{**SMALL_TRAIN, "learning_rate": 1e6, "epochs": 4})
    # the diverging logits overflow exp before the finite guard rejects them
    with np.errstate(over="ignore"), \
            pytest.raises(DivergenceError, match="epoch"):
        train(cfg, small_cohort, fold=0)


def test_one_failed_batch_is_skipped_and_training_finishes(
        small_cohort, monkeypatch, caplog):
    """A batch whose graph fails to build is skipped and counted; one bad
    batch between good ones does not end the run."""
    cfg = TrainConfig(**{**SMALL_TRAIN, "epochs": 2})
    clean = train(cfg, small_cohort, fold=0).checkpoint
    build = train_mod.build_cohort_loss
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise GraphError("non-finite output at node 7 (exp)")
        return build(*args, **kwargs)

    monkeypatch.setattr(train_mod, "build_cohort_loss", flaky)
    with caplog.at_level(logging.WARNING, logger="slotsurv.train"):
        ck = train(cfg, small_cohort, fold=0).checkpoint
    assert len(calls) > 2
    assert ck.adam.skipped == 1 and clean.adam.skipped == 0
    assert ck.steps_trained == clean.steps_trained - 1 == ck.adam.t
    assert "non-finite batch at epoch 0" in caplog.text


def test_training_holds_one_batch_graph_at_a_time(small_cohort, monkeypatch):
    """Each batch graph, with its values and saved intermediates, is freed
    before the next batch is built."""
    cfg = TrainConfig(**{**SMALL_TRAIN, "epochs": 2, "batch_size": 3})
    build = train_mod.build_cohort_loss
    built = []

    def tracked(*args, **kwargs):
        alive = [k for k, ref in enumerate(built) if ref() is not None]
        assert alive == [], f"graphs of batches {alive} still held"
        cg = build(*args, **kwargs)
        built.append(weakref.ref(cg.graph))
        return cg

    monkeypatch.setattr(train_mod, "build_cohort_loss", tracked)
    ck = train(cfg, small_cohort, fold=0).checkpoint
    assert len(built) == ck.steps_trained == 6


# ------------------------------------------------- the histology head's budget


def _tensor_bytes(ckpt) -> dict:
    return {k: (v.dtype, v.shape, v.tobytes())
            for k, v in ckpt.named_tensors().items()}


def test_bags_within_the_row_budget_train_the_bits_of_no_budget(
        trained, small_cohort, monkeypatch):
    """Where no subsampled bag has more than ``recon.RECON_ROWS`` rows
    nothing is drawn: the default budget trains every tensor and loss bit
    for bit as a budget of ``patch_subsample`` does, which never binds."""
    monkeypatch.setattr(recon_mod, "RECON_ROWS",
                        SMALL_TRAIN["patch_subsample"])
    unbound = train(TrainConfig(**SMALL_TRAIN), small_cohort, fold=0)
    assert (_tensor_bytes(unbound.checkpoint)
            == _tensor_bytes(trained.checkpoint))
    assert ([r.as_dict() for r in unbound.epoch_reports]
            == [r.as_dict() for r in trained.epoch_reports])


def _head_inputs(monkeypatch) -> list:
    """Per training batch: (the rows and instance mask the histology head
    reads, the rows and mask the cross-modal encode reads, the shapes of
    every batched query node a decode reads)."""
    seen = []
    head, encode = (recon_mod.build_recon_histology,
                    recon_mod.build_cross_modal_encode)
    decode = recon_mod.build_decode

    def recorded_head(g, head_p, qmap, bag, slots, mask):
        seen.append({"head": (bag.value.copy(), np.asarray(mask)),
                     "queries": []})
        return head(g, head_p, qmap, bag, slots, mask)

    def recorded_encode(g, params, bag, t_iters, mask=None):
        seen[-1]["encode"] = (bag.value.copy(), np.asarray(mask))
        return encode(g, params, bag, t_iters, mask=mask)

    def recorded_decode(g, head_p, queries, slots):
        if seen and queries.value.ndim == 3:
            seen[-1]["queries"].append(queries.shape)
        return decode(g, head_p, queries, slots)

    monkeypatch.setattr(recon_mod, "build_recon_histology", recorded_head)
    monkeypatch.setattr(recon_mod, "build_cross_modal_encode",
                        recorded_encode)
    monkeypatch.setattr(recon_mod, "build_decode", recorded_decode)
    return seen


def test_over_the_budget_the_head_reads_a_sorted_draw_of_the_bag(
        small_cohort, monkeypatch):
    """Over the budget the histology head reads ``RECON_ROWS`` of a
    patient's subsampled rows, in their order, as its decode queries
    (through the frozen map) and cosine targets, while the cross-modal
    encode reads every subsampled row.  A batch mixing bags under and over
    the budget pads the head's rows with their own mask, which marks the
    real rows only: a bag of no more rows keeps them all."""
    seen = _head_inputs(monkeypatch)
    budget = 7        # subsampled bags hold 6, 7 or 8 rows
    monkeypatch.setattr(recon_mod, "RECON_ROWS", budget)
    train(TrainConfig(**SMALL_TRAIN), small_cohort, fold=0)
    assert len(seen) == 2
    sizes = set()
    for batch in seen:
        (rows, mask), (bag, bag_mask) = batch["head"], batch["encode"]
        n_bag = bag_mask.sum(axis=1).astype(int)
        sizes.update(n_bag.tolist())
        assert rows.shape == (len(n_bag), budget, bag.shape[2])
        assert batch["queries"] == [rows.shape]
        assert mask.shape == rows.shape[:2]
        for b, n in enumerate(n_bag):
            kept = min(n, budget)
            assert mask[b].tolist() == [1.0] * kept + [0.0] * (budget - kept)
            assert not rows[b, kept:].any()
            # every row the head reads is a row of the bag, in its order
            at = [next(i for i in range(n)
                       if np.array_equal(bag[b, i], row))
                  for row in rows[b, :kept]]
            assert at == sorted(set(at))
    assert min(sizes) <= budget < max(sizes)


def test_the_budget_draws_nothing_when_lam_builds_no_head(small_cohort,
                                                         monkeypatch):
    """lam = 0 builds no reconstruction head, so a binding budget draws
    nothing and trains the bits of one that does not bind."""
    def run(budget):
        monkeypatch.setattr(recon_mod, "RECON_ROWS", budget)
        cfg = TrainConfig(**{**SMALL_TRAIN, "lam": 0.0})
        return _tensor_bytes(train(cfg, small_cohort, fold=0).checkpoint)
    assert run(4) == run(8)


# ------------------------------------------------------------------ evaluation


def test_evaluate_schema_and_determinism(trained, small_cohort):
    m1 = evaluate(trained.checkpoint, small_cohort, fold=0, n_boot=50)
    m2 = evaluate(trained.checkpoint, small_cohort, fold=0, n_boot=50)
    assert json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)
    for key in ("c_index", "median_risk", "logrank_p", "rmst_high",
                "rmst_low", "rmst_tau", "risks", "times", "events"):
        assert key in m1
    assert 0.0 <= m1["c_index"] <= 1.0
    assert len(m1["risks"]) == m1["n_patients"]


def test_evaluation_runs_rmst_to_the_one_tau(trained, small_cohort):
    """``evaluate`` reports RMSTs to ``survival.RMST_TAU`` over
    ``survival.N_BOOT`` = 1000 replicates by default, and a summary of
    folds that carry no ``rmst_tau`` runs to the same tau."""
    every = range(len(small_cohort.records))
    m = evaluate(trained.checkpoint, small_cohort, fold=0, indices=every)
    assert surv_mod.N_BOOT == 1000
    assert m["rmst_tau"] == surv_mod.RMST_TAU and m["n_boot"] == 1000
    folds = [{k: v for k, v in dict(m, fold=f).items() if k != "rmst_tau"}
             for f in (0, 1)]
    assert reporting.summarize(folds, n_boot=20)["rmst_tau"] == \
        surv_mod.RMST_TAU


def test_evaluate_rejects_empty_fold(trained, small_cohort):
    with pytest.raises(ValueError, match="empty"):
        evaluate(trained.checkpoint, small_cohort, fold=0, indices=[])


@pytest.mark.parametrize("indices, message", [
    ([-1, 2], "index -1 is outside"),
    ([0, 12, 1], "index 12 is outside"),
    ([3, 5, 3, -2], "index 3 is repeated"),
])
def test_evaluate_rejects_bad_indices(trained, small_cohort, indices,
                                      message):
    """A negative, out-of-range or repeated patient index raises, naming
    the first bad one, instead of scoring a patient from the end, failing
    on a bare IndexError or counting a patient twice."""
    assert len(small_cohort.records) == 12
    with pytest.raises(ValueError, match=message):
        evaluate(trained.checkpoint, small_cohort, fold=0, indices=indices,
                 n_boot=50)


def test_missing_genomics_never_opens_genomic_files(
        trained, small_cohort, monkeypatch):
    real = data_mod.load_bag

    def guarded(path):
        bag = real(path)
        assert bag.modality == "histology", f"opened genomic file {path}"
        return bag

    monkeypatch.setattr(data_mod, "load_bag", guarded)
    m = evaluate(trained.checkpoint, small_cohort, fold=0,
                 missing_genomics=True, n_boot=10)
    assert m["missing_genomics"] is True
    assert np.isfinite(m["c_index"])


def test_predict_patient_deterministic_and_flagged(trained, small_cohort):
    rec = small_cohort.records[0]
    bag_h = data_mod.load_bag(rec.histology_path)
    bag_g = data_mod.load_bag(rec.genomic_path)
    a, ia = predict_patient(trained.checkpoint, bag_h, bag_g)
    b, ib = predict_patient(trained.checkpoint, bag_h, bag_g)
    assert ia is False and ib is False
    assert a.risk == b.risk
    c, ic = predict_patient(trained.checkpoint, bag_h, None)
    assert ic is True and np.isfinite(c.risk)
    with pytest.raises(data_mod.BagError, match="histology"):
        predict_patient(trained.checkpoint, bag_g, bag_g)


def test_unequal_slot_counts_train_and_serve_the_per_op_chains_bits(
        small_cohort, monkeypatch):
    """With n_slots_h != n_slots_g, which the reference recipe never runs,
    a checkpoint trained through the cross_attend node holds the bits the
    per-op cross-attention chain trains, and serves its risks bit for
    bit: every ``predict_patient`` risk and hazard curve in both modes,
    and ``evaluate`` with the genomic bags present and imputed."""
    cfg = TrainConfig(**{**SMALL_TRAIN, "n_slots_h": 6, "n_slots_g": 3,
                         "l_iters": 3})
    bags = [(data_mod.load_bag(rec.histology_path),
             data_mod.load_bag(rec.genomic_path))
            for rec in small_cohort.records]

    def run():
        ckpt = train(cfg, small_cohort, fold=0).checkpoint
        served = [predict_patient(ckpt, bag_h, bag_g)[0].curve.h.tobytes()
                  for bag_h, bag_g in bags for bag_g in (bag_g, None)]
        scores = [json.dumps(evaluate(ckpt, small_cohort, fold=0, n_boot=20,
                                      missing_genomics=missing),
                             sort_keys=True) for missing in (False, True)]
        return model_mod.named_parameters(ckpt.params), served, scores

    fused = run()
    chains = []
    monkeypatch.setattr(fusion_mod, "build_iterative_cross_attention",
                        lambda *args: chains.append(args[2].shape) or
                        unfused_cross_attention(*args))
    chain = run()
    assert chains and all(shape[-2] == 6 for shape in chains)
    assert fused[0].keys() == chain[0].keys()
    for name, arr in fused[0].items():
        assert arr.tobytes() == chain[0][name].tobytes(), name
    assert fused[1] == chain[1]
    assert fused[2] == chain[2]


def test_serving_runs_the_checkpoints_t_not_the_default(trained,
                                                        small_cohort,
                                                        tmp_path,
                                                        monkeypatch):
    """A checkpoint serves with the T it was trained with: after a save
    and a load, every encoder that ``predict_patient`` (genomics present
    and imputed) and ``evaluate`` build runs ``ckpt.config.t_iters``, so a
    checkpoint trained before the default changed serves as it did."""
    from slotsurv import slots as slot_mod

    assert SMALL_TRAIN["t_iters"] != TrainConfig().t_iters
    path = tmp_path / "fold.ckpt"
    save_checkpoint(trained.checkpoint, path)
    ckpt = load_checkpoint(path)
    assert ckpt.config.t_iters == SMALL_TRAIN["t_iters"]

    seen = []
    build_encode = slot_mod.build_encode

    def spy(g, p, bag, t_iters, *args, **kwargs):
        seen.append(t_iters)
        return build_encode(g, p, bag, t_iters, *args, **kwargs)

    monkeypatch.setattr(slot_mod, "build_encode", spy)
    rec = small_cohort.records[0]
    bag_h = data_mod.load_bag(rec.histology_path)
    bag_g = data_mod.load_bag(rec.genomic_path)
    # two encoders with genomics present, a third when it imputes
    for bag, encoders in ((bag_g, 2), (None, 3)):
        seen.clear()
        predict_patient(ckpt, bag_h, bag)
        assert seen == [SMALL_TRAIN["t_iters"]] * encoders
    for missing in (False, True):
        seen.clear()
        evaluate(ckpt, small_cohort, 0, missing_genomics=missing, n_boot=10)
        _, val = fold_indices(small_cohort, ckpt.config, 0)
        assert seen == [SMALL_TRAIN["t_iters"]] * ((3 if missing else 2)
                                                   * len(val))


def test_serving_runs_the_checkpoints_l_not_the_default(trained,
                                                        small_cohort,
                                                        tmp_path,
                                                        monkeypatch):
    """A checkpoint serves with the L it was trained with: after a save
    and a load, the one cross-attention exchange that ``predict_patient``
    (genomics present and imputed) and ``evaluate`` build per patient
    runs ``ckpt.config.l_iters`` rounds, so a checkpoint trained before
    the default changed serves as it did."""
    assert SMALL_TRAIN["l_iters"] != TrainConfig().l_iters
    path = tmp_path / "fold.ckpt"
    save_checkpoint(trained.checkpoint, path)
    ckpt = load_checkpoint(path)
    assert ckpt.config.l_iters == SMALL_TRAIN["l_iters"]

    seen = []
    build = fusion_mod.build_iterative_cross_attention

    def spy(g, p, slots_h, slots_g, l_iters):
        seen.append(l_iters)
        return build(g, p, slots_h, slots_g, l_iters)

    monkeypatch.setattr(fusion_mod, "build_iterative_cross_attention", spy)
    rec = small_cohort.records[0]
    bag_h = data_mod.load_bag(rec.histology_path)
    for bag_g in (data_mod.load_bag(rec.genomic_path), None):
        seen.clear()
        predict_patient(ckpt, bag_h, bag_g)
        assert seen == [SMALL_TRAIN["l_iters"]]
    _, val = fold_indices(small_cohort, ckpt.config, 0)
    for missing in (False, True):
        seen.clear()
        evaluate(ckpt, small_cohort, 0, missing_genomics=missing, n_boot=10)
        assert seen == [SMALL_TRAIN["l_iters"]] * len(val)


@pytest.mark.parametrize("delta", [1, -1])
def test_predict_patient_rejects_a_genomic_bag_of_another_panel(
        trained, small_cohort, monkeypatch, delta):
    """A genomic bag must have one row per pathway of the checkpoint; the
    mismatch is reported before any graph is built."""
    rec = small_cohort.records[0]
    bag_h = data_mod.load_bag(rec.histology_path)
    bag_g = data_mod.load_bag(rec.genomic_path)
    m = SMALL_SYNTH.m_gen
    rows = np.resize(bag_g.matrix, (m + delta, bag_g.d))
    other = data_mod.FeatureBag("genomic", rows)

    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(train_mod, "patient_forward", no_graph)
    with pytest.raises(data_mod.BagError,
                       match=f"{m + delta} pathway rows .* trained on {m}"):
        predict_patient(trained.checkpoint, bag_h, other)


@pytest.mark.parametrize("wide, genomic", [("histology", True),
                                           ("histology", False),
                                           ("genomic", True)])
def test_predict_patient_rejects_a_bag_of_another_width(
        trained, small_cohort, monkeypatch, wide, genomic):
    """Both bags must have the checkpoint's feature width, with genomics
    given and imputed; the mismatch is a bag error naming both widths,
    reported before imputation or any graph."""
    rec = small_cohort.records[0]
    bags = {"histology": data_mod.load_bag(rec.histology_path),
            "genomic": data_mod.load_bag(rec.genomic_path)}
    d = SMALL_SYNTH.dim
    bags[wide] = data_mod.FeatureBag(wide, np.resize(bags[wide].matrix,
                                                     (bags[wide].m, d + 2)))

    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(train_mod, "patient_forward", no_graph)
    monkeypatch.setattr(recon_mod, "impute_genomic", no_graph)
    with pytest.raises(data_mod.BagError,
                       match=f"{wide} bag has width {d + 2} but the "
                             f"checkpoint was trained on width {d}"):
        predict_patient(trained.checkpoint, bags["histology"],
                        bags["genomic"] if genomic else None)


@pytest.mark.parametrize("genomic", [True, False])
def test_predict_patient_rejects_a_histology_bag_without_rows(
        trained, small_cohort, genomic):
    """A histology bag of zero rows is refused as a bag error, with or
    without its genomic bag, before any kernel divides by its size."""
    rec = small_cohort.records[0]
    empty = data_mod.FeatureBag("histology",
                                np.zeros((0, SMALL_SYNTH.dim), np.float32))
    bag_g = data_mod.load_bag(rec.genomic_path) if genomic else None
    with pytest.raises(data_mod.BagValueError, match="M>=1 x d>=1"):
        predict_patient(trained.checkpoint, empty, bag_g)


def test_float64_checkpoint_imputes_and_scores_in_float64(small_cohort):
    cfg = TrainConfig(**{**SMALL_TRAIN, "precision": "float64"})
    ckpt = train(cfg, small_cohort, fold=0).checkpoint
    bag_h = data_mod.load_bag(small_cohort.records[0].histology_path)
    assert recon_mod.impute_genomic(
        bag_h, ckpt.params.slots_g, ckpt.params.positions,
        ckpt.params.recon_cross, t_iters=cfg.t_iters,
        steps_trained=ckpt.steps_trained).matrix.dtype == np.float64
    out, imputed = predict_patient(ckpt, bag_h, None)
    assert imputed
    assert out.slots_h.slots.dtype == out.slots_g.slots.dtype == np.float64
    sset = recon_mod.cross_modal_encode(bag_h, ckpt.params.slots_g,
                                        cfg.t_iters)
    assert sset.slots.dtype == np.float64
    x_hat = recon_mod.reconstruct_genomic(
        sset.slots, ckpt.params.positions, ckpt.params.recon_cross)
    assert x_hat.dtype == np.float64


def test_prediction_ignores_cross_recon_params_when_genomics_present(
        trained, small_cohort):
    rec = small_cohort.records[1]
    bag_h = data_mod.load_bag(rec.histology_path)
    bag_g = data_mod.load_bag(rec.genomic_path)
    ck = trained.checkpoint
    out1, _ = predict_patient(ck, bag_h, bag_g)
    flat = {k: v.copy() for k, v in
            model_mod.named_parameters(ck.params).items()}
    for name in flat:
        if group_of(name) in ("recon_g", "recon_h", "recon_cross",
                              "positions"):
            flat[name] += 7.5
    bent = Checkpoint(params=model_mod.params_from_arrays(flat),
                      adam=ck.adam, config=ck.config,
                      steps_trained=ck.steps_trained)
    out2, _ = predict_patient(bent, bag_h, bag_g)
    assert out1.risk == out2.risk
    assert np.array_equal(out1.curve.h, out2.curve.h)


def _output_arrays(out) -> list:
    """Every array of a ``PatientOutput``, the risks as 0-d arrays."""
    return [np.asarray(a) for a in (
        out.curve.h, out.curve.S, out.curve.risk, out.curve_h.h,
        out.curve_h.S, out.curve_h.risk, out.curve_g.h, out.curve_g.S,
        out.curve_g.risk, out.slots_h.slots, out.slots_h.attention,
        out.slots_g.slots, out.slots_g.attention, out.mask_h.hard,
        out.mask_h.scores, out.mask_g.hard, out.mask_g.scores,
        out.weights_h, out.weights_g)]


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_fused_decode_trains_and_imputes_with_the_chains_bits(
        small_cohort, tmp_path, monkeypatch, precision):
    """One epoch of training writes the same checkpoint bytes, and imputed
    predictions have the same bits, whether each reconstruction head is
    one decode node or the per-op chain it replaces."""
    cfg = TrainConfig(**{**SMALL_TRAIN, "precision": precision})
    bags = [data_mod.load_bag(rec.histology_path)
            for rec in small_cohort.records[:4]]

    def run(tag):
        ckpt = train(cfg, small_cohort, fold=0).checkpoint
        save_checkpoint(ckpt, tmp_path / f"{tag}.ckpt")
        outs = [predict_patient(ckpt, bag_h, None) for bag_h in bags]
        assert all(imputed for _, imputed in outs)
        return ((tmp_path / f"{tag}.ckpt").read_bytes(),
                [_output_arrays(out) for out, _ in outs])

    fused = run("fused")
    chains = []

    def chain(*args):
        chains.append(args)
        return unfused_decode(*args)

    monkeypatch.setattr(recon_mod, "build_decode", chain)
    unfused = run("chain")
    assert len(chains) > len(bags)
    assert fused[0] == unfused[0]
    for got, want in zip(fused[1], unfused[1], strict=True):
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_the_program_emits_every_op_kind(trained, small_cohort,
                                         monkeypatch):
    """Training (K < S and K = S) and evaluation (genomics present and
    imputed) record every op kind the engine lists, and no other."""
    emitted = set()
    append = Graph._append

    def recording(self, op, *args, **kwargs):
        emitted.add(op)
        return append(self, op, *args, **kwargs)

    monkeypatch.setattr(Graph, "_append", recording)
    for k_fraction in (0.5, 1.0):
        train(TrainConfig(**{**SMALL_TRAIN, "k_fraction": k_fraction}),
              small_cohort, fold=0)
    for missing in (False, True):
        evaluate(trained.checkpoint, small_cohort, fold=0,
                 missing_genomics=missing, n_boot=10)
    assert emitted == set(OP_KINDS)


# Run in a fresh interpreter whose path holds src/ and no test module.
_PROGRAM_ALONE = """
import math, os, sys
assert not any(os.path.exists(os.path.join(p or ".", "oracles.py"))
               for p in sys.path), sys.path
from slotsurv import autodiff, data, train
cohort = data.synth_cohort(data.SynthConfig(
    n_patients=6, m_hist_lo=4, m_hist_hi=6, m_gen=4, dim=4, n_motifs=2,
    seed=5), "cohort")
result = train.train(train.TrainConfig(
    epochs=1, batch_size=4, n_slots_h=2, n_slots_g=2, t_iters=1, l_iters=1,
    k_fraction=0.5, n_bins=2, patch_subsample=4, n_folds=3, seed=2),
    cohort, fold=0)
assert result.checkpoint.steps_trained == 1
rec = cohort.records[0]
bag_h = data.load_bag(rec.histology_path)
for bag_g in (data.load_bag(rec.genomic_path), None):
    out, imputed = train.predict_patient(result.checkpoint, bag_h, bag_g)
    assert imputed == (bag_g is None) and math.isfinite(out.risk)
assert {"input", "const"} | set(autodiff._FORWARD) == set(autodiff.OP_KINDS)
assert set(autodiff._BACKWARD) <= set(autodiff._FORWARD)
assert autodiff._ALWAYS_FINITE <= set(autodiff.OP_KINDS)
assert "oracles" not in sys.modules and "fd" not in sys.modules
print("ok")
"""


def test_the_program_needs_nothing_from_the_tests(tmp_path):
    """With only src/ on the path, one training step and one served
    patient, with genomics and imputed, run, and the engine's tables list
    the program's op kinds alone: the per-op chain vocabulary that
    tests/oracles.py adds in a test process is not there."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _PROGRAM_ALONE],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_overfit_tiny_cohort_reaches_high_c_index(tmp_path):
    """An eight-patient training split memorized by long training."""
    synth = SynthConfig(n_patients=10, m_hist_lo=6, m_hist_hi=8, m_gen=8,
                        dim=8, n_motifs=2, censor_fraction=0.0, seed=2)
    cohort = synth_cohort(synth, tmp_path)
    # one time bin per training patient, so memorized hazards can express
    # the full risk ranking that the C-index grades
    cfg = TrainConfig(epochs=120, batch_size=8, n_slots_h=4, n_slots_g=4,
                      t_iters=2, l_iters=2, k_fraction=0.5, n_bins=8,
                      patch_subsample=8, n_folds=5, seed=0,
                      learning_rate=5e-3)
    res = train(cfg, cohort, fold=0)
    cohort = discretize_times(cohort, cfg.n_bins)
    tr, _ = fold_indices(cohort, cfg, 0)
    assert tr.size == 8
    metrics = evaluate(res.checkpoint, cohort, fold=0, indices=tr, n_boot=10)
    assert metrics["c_index"] >= 0.95
    assert res.epoch_reports[-1].total < res.epoch_reports[0].total
