"""Bag file format, manifests, discretization, folds, and the synthetic
cohort generator."""

import json
import os
import struct

import numpy as np
import pytest

from slotsurv.data import (
    BagError,
    BagMagicError,
    BagTruncatedError,
    BagValueError,
    BagVersionError,
    Cohort,
    FeatureBag,
    ManifestError,
    SurvivalRecord,
    SynthConfig,
    assign_bins,
    atomic_write,
    config_from_dict,
    discretize_times,
    kfold_split,
    load_bag,
    load_manifest,
    save_manifest,
    synth_cohort,
    write_bag,
)
from slotsurv.train import TrainConfig

# ------------------------------------------------------------------- bag files


def test_bag_round_trip_identity(tmp_path):
    path = tmp_path / "a.bag"
    matrix = np.array([[1, 2], [3, 4], [5, 6]], dtype=np.float32)
    write_bag(FeatureBag("histology", matrix), path)
    loaded = load_bag(path)
    assert loaded.modality == "histology"
    assert np.array_equal(loaded.matrix, matrix)
    assert loaded.matrix.dtype == np.float32
    assert (loaded.m, loaded.d) == (3, 2)


def test_bag_bytes_match_documented_layout(tmp_path):
    path = tmp_path / "a.bag"
    matrix = np.array([[1, 2], [3, 4], [5, 6]], dtype=np.float32)
    write_bag(FeatureBag("genomic", matrix), path)
    blob = path.read_bytes()
    assert blob[:4] == b"SSPE"
    version, modality, reserved, m, d = struct.unpack_from("<HBBII", blob, 4)
    assert (version, modality, reserved, m, d) == (1, 1, 0, 3, 2)
    assert blob[16:] == struct.pack("<6f", 1, 2, 3, 4, 5, 6)
    assert len(blob) == 16 + 4 * 6


def test_bag_round_trip_random_bags_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    for i in range(100):
        m = int(rng.integers(1, 40))
        d = int(rng.integers(1, 20))
        matrix = rng.normal(scale=10.0 ** rng.integers(-3, 4),
                            size=(m, d)).astype(np.float32)
        modality = "histology" if i % 2 else "genomic"
        path = tmp_path / f"b{i}.bag"
        write_bag(FeatureBag(modality, matrix), path)
        loaded = load_bag(path)
        assert loaded.modality == modality
        assert loaded.matrix.tobytes() == matrix.tobytes()


def _valid_blob():
    matrix = np.arange(6, dtype=np.float32).reshape(3, 2) + 1
    return (struct.pack("<4sHBBII", b"SSPE", 1, 0, 0, 3, 2)
            + matrix.tobytes())


def test_bag_load_rejections_are_distinct(tmp_path):
    blob = _valid_blob()

    def load_bytes(raw, name):
        p = tmp_path / name
        p.write_bytes(raw)
        return load_bag(p)

    with pytest.raises(BagMagicError):
        load_bytes(b"XXXX" + blob[4:], "magic.bag")
    with pytest.raises(BagVersionError):
        load_bytes(blob[:4] + struct.pack("<H", 9) + blob[6:], "ver.bag")
    with pytest.raises(BagTruncatedError):
        load_bytes(blob[:-4], "trunc.bag")
    with pytest.raises(BagTruncatedError):
        load_bytes(blob[:10], "header.bag")
    with pytest.raises(BagError):
        load_bytes(blob + b"\x00", "trailing.bag")
    with pytest.raises(BagValueError):
        load_bytes(blob[:6] + b"\x07" + blob[7:], "modality.bag")
    bad_payload = blob[:16] + struct.pack("<6f", 1, 2, np.inf, 4, 5, 6)
    with pytest.raises(BagValueError):
        load_bytes(bad_payload, "inf.bag")
    zero_m = struct.pack("<4sHBBII", b"SSPE", 1, 0, 0, 0, 2)
    with pytest.raises(BagValueError):
        load_bytes(zero_m, "zerom.bag")


def test_bag_write_rejects_bad_content(tmp_path):
    path = tmp_path / "x.bag"
    with pytest.raises(BagValueError):
        write_bag(FeatureBag("histology", np.array([[np.nan]])), path)
    with pytest.raises(BagValueError):
        write_bag(FeatureBag("histology", np.empty((0, 3))), path)
    with pytest.raises(BagValueError):
        write_bag(FeatureBag("radiology", np.ones((2, 2))), path)


# ------------------------------------------------------------------- manifests


def _toy_cohort(tmp_path, with_edges=False):
    bags = tmp_path / "bags"
    bags.mkdir(exist_ok=True)
    records = []
    for i, (t, c) in enumerate([(12.0, 0), (30.5, 1), (8.25, 0)]):
        hp = bags / f"p{i}_h.bag"
        gp = bags / f"p{i}_g.bag"
        write_bag(FeatureBag("histology", np.ones((2, 3), np.float32)), hp)
        write_bag(FeatureBag("genomic", np.ones((4, 3), np.float32)), gp)
        records.append(SurvivalRecord(f"p{i}", t, c, str(hp),
                                      str(gp) if i != 1 else None))
    edges = np.array([10.0, 20.0]) if with_edges else None
    return Cohort(records=tuple(records), bin_edges=edges)


def test_atomic_write_failing_partway_keeps_previous_file(tmp_path):
    path = tmp_path / "a.bag"
    write_bag(FeatureBag("histology", np.ones((2, 3), np.float32)), path)
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write(b"half a bag")
            raise RuntimeError("writer died")
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["a.bag"]


def test_failed_bag_and_manifest_writes_keep_previous_files(tmp_path,
                                                            monkeypatch):
    cohort = _toy_cohort(tmp_path, with_edges=True)
    manifest = tmp_path / "manifest.json"
    save_manifest(cohort, manifest)
    bag = tmp_path / "bags" / "p0_h.bag"
    before = {p: p.read_bytes() for p in (manifest, bag)}
    listing = sorted(os.listdir(tmp_path / "bags"))

    def fail(*args):
        raise OSError("disk full")
    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write_bag(FeatureBag("histology", np.zeros((5, 3), np.float32)), bag)
    with pytest.raises(OSError, match="disk full"):
        save_manifest(Cohort(records=cohort.records[:1], bin_edges=None),
                      manifest)
    for p, data in before.items():
        assert p.read_bytes() == data
    assert sorted(os.listdir(tmp_path / "bags")) == listing
    assert sorted(os.listdir(tmp_path)) == ["bags", "manifest.json"]


def test_manifest_round_trip(tmp_path):
    cohort = _toy_cohort(tmp_path, with_edges=True)
    path = tmp_path / "manifest.json"
    save_manifest(cohort, path)
    loaded = load_manifest(path)
    assert loaded.n_patients == 3
    assert np.array_equal(loaded.bin_edges, [10.0, 20.0])
    for a, b in zip(loaded.records, cohort.records):
        assert a.patient_id == b.patient_id
        assert a.time_months == b.time_months
        assert a.censor == b.censor
        assert os.path.samefile(a.histology_path, b.histology_path)
        assert (a.genomic_path is None) == (b.genomic_path is None)
    # second patient's genomic bag is deliberately missing
    assert loaded.records[1].genomic_path is None
    # stored paths are relative to the manifest directory
    assert load_bag(loaded.records[0].histology_path).m == 2


def test_manifest_rejects_bad_documents(tmp_path):
    p = tmp_path / "m.json"
    p.write_text("{not json")
    with pytest.raises(ManifestError):
        load_manifest(p)
    p.write_text("{}")
    with pytest.raises(ManifestError):
        load_manifest(p)
    p.write_text('{"patients": [{"id": "a", "time_months": 1.0, '
                 '"censor": 2, "histology_path": "x.bag"}]}')
    with pytest.raises(ManifestError):
        load_manifest(p)
    p.write_text('{"patients": [{"id": "a", "time_months": 1.0, '
                 '"censor": 0, "histology_path": null}]}')
    with pytest.raises(ManifestError):
        load_manifest(p)


@pytest.mark.parametrize("blob", [
    pytest.param(b'{"patients": [\xff]}', id="invalid_utf8"),
    pytest.param(b'{"patients": 5}', id="patients_not_a_list"),
    pytest.param(b'{"patients": [], "bin_edges": ["a"]}',
                 id="bin_edges_not_numbers"),
    pytest.param(b'{"patients": [], "bin_edges": [1.0, NaN]}',
                 id="bin_edges_not_finite"),
    pytest.param(b'{"patients": [{"id": "a", "time_months": 1.0, '
                 b'"censor": 1e999, "histology_path": "a.bag"}]}',
                 id="censor_overflows_int"),
    pytest.param(b'{"patients": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
                 id="nesting_too_deep"),
])
def test_malformed_manifest_raises_manifest_error(tmp_path, blob):
    p = tmp_path / "m.json"
    p.write_bytes(blob)
    with pytest.raises(ManifestError):
        load_manifest(p)


@pytest.mark.parametrize("time_bin", [0, 4, 9])
def test_manifest_rejects_time_bin_outside_bin_edges(tmp_path, time_bin):
    """Two edges make three bins: a time_bin outside [1, 3] fails at load,
    not when training builds its first batch."""
    p = tmp_path / "m.json"
    doc = {"patients": [{"id": "a", "time_months": 1.0, "censor": 0,
                         "histology_path": "a.bag", "time_bin": b}
                        for b in (1, 3, time_bin)],
           "bin_edges": [10.0, 20.0]}
    p.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="time_bin"):
        load_manifest(p)
    doc["patients"].pop()
    p.write_text(json.dumps(doc))
    assert [r.time_bin for r in load_manifest(p).records] == [1, 3]


@pytest.mark.parametrize("key, value", [
    ("censor", 0.7), ("censor", True), ("censor", False),
    ("time_bin", 1.9), ("time_bin", True), ("time_bin", float("nan"))])
def test_manifest_rejects_a_non_integral_censor_or_time_bin(tmp_path, key,
                                                            value):
    """int() would read censor 0.7 as 0, an observed event, time_bin 1.9
    as bin 1 and true as 1; the loader refuses a bool or a non-integral
    number, and still reads an integral one written as a float."""
    p = tmp_path / "m.json"
    row = {"id": "a", "time_months": 1.0, "censor": 1, "time_bin": 2,
           "histology_path": "a.bag"}
    doc = {"patients": [{**row, key: value}], "bin_edges": [10.0, 20.0]}
    p.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match=f"{key} .* is not an integer"):
        load_manifest(p)
    doc["patients"] = [{**row, key: 1.0}]
    p.write_text(json.dumps(doc))
    (rec,) = load_manifest(p).records
    assert getattr(rec, key) == 1 and type(getattr(rec, key)) is int


def test_record_validation():
    with pytest.raises(ManifestError):
        SurvivalRecord("p", -1.0, 0, "h.bag")
    with pytest.raises(ManifestError):
        SurvivalRecord("p", 1.0, 7, "h.bag")


# -------------------------------------------------------------- discretization


def _label_cohort(times, censor):
    records = tuple(
        SurvivalRecord(f"p{i}", float(t), int(c), f"p{i}_h.bag")
        for i, (t, c) in enumerate(zip(times, censor)))
    return Cohort(records=records)


def test_discretize_golden_eight_patients():
    cohort = _label_cohort(range(1, 9), [0] * 8)
    out = discretize_times(cohort, n_bins=4)
    assert np.allclose(out.bin_edges, [2.75, 4.5, 6.25])
    assert [r.time_bin for r in out.records] == [1, 1, 2, 2, 3, 3, 4, 4]
    assert out.n_bins == 4


def test_discretize_golden_median_split():
    cohort = _label_cohort([1, 2, 3, 4], [0] * 4)
    out = discretize_times(cohort, n_bins=2)
    assert np.allclose(out.bin_edges, [2.5])
    assert [r.time_bin for r in out.records] == [1, 1, 2, 2]


def test_discretize_rejections():
    with pytest.raises(ValueError):
        discretize_times(_label_cohort([5.0] * 8, [0] * 8), 4)   # degenerate
    with pytest.raises(ValueError):
        discretize_times(_label_cohort([1, 2, 3], [0, 1, 1]), 4)  # too few events
    with pytest.raises(ValueError):
        discretize_times(_label_cohort([1, 2, 3, 4], [0] * 4), 1)


def test_discretize_censored_use_same_edges():
    times = [1, 2, 3, 4, 5, 6, 7, 8, 0.5, 100.0]
    censor = [0] * 8 + [1, 1]
    out = discretize_times(_label_cohort(times, censor), 4)
    # censored before the first edge -> bin 1; beyond the last edge -> bin 4
    assert out.records[8].time_bin == 1
    assert out.records[9].time_bin == 4


def test_discretize_time_equal_to_edge_stays_low():
    # "strictly below" rule: t == edge counts zero edges below it
    assert assign_bins([2.75], [2.75, 4.5, 6.25]).tolist() == [1]


def test_discretize_bins_in_range_and_balanced():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(12, 60))
        n_bins = int(rng.integers(2, 7))
        times = rng.permutation(np.arange(1, n + 1)).astype(float)  # distinct
        censor = (rng.random(n) < 0.25).astype(int)
        if (censor == 0).sum() < n_bins:
            continue
        out = discretize_times(_label_cohort(times, censor), n_bins)
        bins = np.array([r.time_bin for r in out.records])
        assert bins.min() >= 1 and bins.max() <= n_bins
        event_bins = bins[np.array(censor) == 0]
        counts = np.bincount(event_bins, minlength=n_bins + 1)[1:]
        assert counts.max() - counts.min() <= 1


# ----------------------------------------------------------------------- folds


def test_kfold_even_split():
    folds = kfold_split(_label_cohort(range(1, 11), [0] * 10), k=5, seed=0)
    assert [len(f) for f in folds] == [2, 2, 2, 2, 2]


def test_kfold_remainder_goes_to_early_folds():
    folds = kfold_split(_label_cohort(range(1, 12), [0] * 11), k=5, seed=0)
    assert sorted(len(f) for f in folds) == [2, 2, 2, 2, 3]


def test_kfold_partitions_exactly():
    cohort = _label_cohort(range(1, 24), [0] * 23)
    folds = kfold_split(cohort, k=5, seed=42)
    joined = np.concatenate(folds)
    assert len(joined) == 23
    assert np.array_equal(np.sort(joined), np.arange(23))


def test_kfold_deterministic_per_seed():
    cohort = _label_cohort(range(1, 30), [0] * 29)
    a = kfold_split(cohort, k=4, seed=7)
    b = kfold_split(cohort, k=4, seed=7)
    c = kfold_split(cohort, k=4, seed=8)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_kfold_rejections():
    cohort = _label_cohort(range(1, 5), [0] * 4)
    with pytest.raises(ValueError):
        kfold_split(cohort, k=5, seed=0)
    with pytest.raises(ValueError):
        kfold_split(cohort, k=1, seed=0)


# ------------------------------------------------------------------- synthesis


def _small_config(**kw):
    base = dict(n_patients=40, m_hist_lo=8, m_hist_hi=16, m_gen=8,
                dim=8, n_motifs=3, strength=2.0, noise=1.0,
                censor_fraction=0.25, seed=12)
    base.update(kw)
    return SynthConfig(**base)


def test_synth_reproducible_bitwise(tmp_path):
    c1 = synth_cohort(_small_config(), tmp_path / "run1")
    c2 = synth_cohort(_small_config(), tmp_path / "run2")
    assert [r.patient_id for r in c1.records] == [r.patient_id for r in c2.records]
    for a, b in zip(c1.records, c2.records):
        assert a.time_months == b.time_months
        assert a.censor == b.censor
        with open(a.histology_path, "rb") as fa, open(b.histology_path, "rb") as fb:
            assert fa.read() == fb.read()
        with open(a.genomic_path, "rb") as fa, open(b.genomic_path, "rb") as fb:
            assert fa.read() == fb.read()


def test_synth_writes_loadable_cohort(tmp_path):
    cohort = synth_cohort(_small_config(), tmp_path)
    loaded = load_manifest(tmp_path / "manifest.json")
    assert loaded.n_patients == 40
    for rec in loaded.records:
        hist = load_bag(rec.histology_path)
        gen = load_bag(rec.genomic_path)
        assert hist.modality == "histology"
        assert gen.modality == "genomic"
        assert 8 <= hist.m <= 16
        assert (gen.m, gen.d) == (8, 8)
        assert 0.0 < rec.time_months <= 96.0


def test_synth_censor_fraction_exact(tmp_path):
    cohort = synth_cohort(_small_config(censor_fraction=0.25), tmp_path / "a")
    assert cohort.censor_flags().sum() == 10
    cohort0 = synth_cohort(_small_config(censor_fraction=0.0), tmp_path / "b")
    assert cohort0.censor_flags().sum() == 0


def test_synth_strength_zero_keeps_labels_but_removes_signal(tmp_path):
    flat = synth_cohort(_small_config(strength=0.0), tmp_path / "flat")
    loud = synth_cohort(_small_config(strength=4.0), tmp_path / "loud")
    assert [r.time_months for r in flat.records] == [r.time_months
                                                     for r in loud.records]
    assert [r.censor for r in flat.records] == [r.censor for r in loud.records]
    diffs = 0
    for a, b in zip(flat.records, loud.records):
        ma = load_bag(a.genomic_path).matrix
        mb = load_bag(b.genomic_path).matrix
        if not np.array_equal(ma, mb):
            diffs += 1
    assert diffs > 0   # injection is the only difference between the runs


def test_synth_cross_modal_coupling_rate(tmp_path):
    # recover presence bits from the bags and measure cross-modal agreement
    cfg = _small_config(n_patients=150, strength=6.0, coupling_flip=0.1,
                        seed=77)
    cohort = synth_cohort(cfg, tmp_path)
    rng = np.random.default_rng(cfg.seed)
    dirs_g = rng.normal(size=(cfg.n_motifs, cfg.dim))
    dirs_g /= np.linalg.norm(dirs_g, axis=1, keepdims=True)
    dirs_h = rng.normal(size=(cfg.n_motifs, cfg.dim))
    dirs_h /= np.linalg.norm(dirs_h, axis=1, keepdims=True)
    agree, total = 0, 0
    for rec in cohort.records:
        gen = load_bag(rec.genomic_path).matrix
        hist = load_bag(rec.histology_path).matrix
        for j in range(cfg.n_motifs):
            g_on = gen[j::cfg.n_motifs] @ dirs_g[j] > cfg.strength / 2
            bit_g = g_on.mean() > 0.5
            bit_h = (hist @ dirs_h[j] > cfg.strength / 2).mean() > 0.1
            agree += bit_g == bit_h
            total += 1
    assert agree / total > 0.8


def test_synth_config_validation():
    with pytest.raises(ValueError):
        _small_config(censor_fraction=1.0).validate()
    with pytest.raises(ValueError):
        _small_config(n_motifs=0).validate()
    with pytest.raises(ValueError):
        _small_config(m_gen=2, n_motifs=3).validate()
    with pytest.raises(ValueError):
        _small_config(n_motifs=5).validate()   # would push times negative
    with pytest.raises(ValueError):
        _small_config(m_hist_lo=20, m_hist_hi=10).validate()
    # JSON's NaN and Infinity parse as floats
    for bad in (dict(strength=float("nan")), dict(noise=float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            _small_config(**bad).validate()


def test_synth_default_config_is_valid():
    SynthConfig().validate()


@pytest.mark.parametrize("cls, bad", [
    (SynthConfig, {"n_motifs": 0}),
    (TrainConfig, {"temperature": -1.0}),
], ids=["synth", "train"])
def test_config_from_dict_checks_keys_and_values(cls, bad):
    """Either config class built from a dict rejects a key that names no
    field, and passes the class's ``validate`` before it is returned."""
    assert config_from_dict(cls, {}) == cls()
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict(cls, {"no_such_field": 1})
    with pytest.raises(ValueError):
        config_from_dict(cls, bad)
