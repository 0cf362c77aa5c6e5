"""Random truncation and byte flips of valid bag, manifest and checkpoint
files: every rejection is the loader's own typed error, and whatever still
loads has the shapes its file declares."""

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slotsurv.data import (
    BagError,
    ManifestError,
    SynthConfig,
    load_bag,
    load_manifest,
    save_manifest,
    synth_cohort,
)
from slotsurv.model import named_parameters
from slotsurv.train import (
    CheckpointError,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)

_BAG_HEADER = 16


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Valid files written by the program itself, as bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    cohort = synth_cohort(
        SynthConfig(n_patients=12, m_hist_lo=6, m_hist_hi=10, m_gen=8, dim=8,
                    n_motifs=2, censor_fraction=0.25, seed=4), root / "bags")
    manifest = root / "manifest.json"
    save_manifest(cohort, manifest)
    config = TrainConfig(epochs=1, batch_size=6, n_slots_h=4, n_slots_g=4,
                         t_iters=2, l_iters=2, k_fraction=0.5, n_bins=3,
                         patch_subsample=8, n_folds=3, seed=1)
    checkpoint = root / "ckpt.bin"
    save_checkpoint(train(config, cohort, fold=1).checkpoint, checkpoint)
    return {
        "dir": root,
        "bag": pathlib.Path(cohort.records[0].histology_path).read_bytes(),
        "manifest": manifest.read_bytes(),
        "checkpoint": checkpoint.read_bytes(),
        "params": named_parameters(load_checkpoint(checkpoint).params),
    }


def _corrupt(blob: bytes):
    """Strategy for a changed copy of ``blob``: up to three bytes xor-ed
    with a nonzero mask, then a cut to a random length."""
    n = len(blob)
    flips = st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 255)),
                     max_size=3, unique_by=lambda f: f[0])

    def apply(args):
        cut, flipped = args
        out = bytearray(blob)
        for pos, mask in flipped:
            out[pos] ^= mask
        return bytes(out[:cut])

    return st.tuples(st.integers(0, n), flips).filter(
        lambda a: a[0] < n or a[1]).map(apply)


def _fuzz(blob, check):
    settings(max_examples=150, deadline=None)(given(_corrupt(blob))(check))()


def test_corrupt_bags_raise_bag_error_or_load_declared_shape(originals):
    path = originals["dir"] / "fuzz.bag"

    def check(blob):
        path.write_bytes(blob)
        try:
            bag = load_bag(path)
        except BagError:
            return
        m, d = np.frombuffer(blob, dtype="<u4", count=2, offset=8)
        assert bag.matrix.shape == (m, d)
        assert bag.matrix.dtype == np.float32
        assert len(blob) == _BAG_HEADER + 4 * bag.matrix.size
        assert np.isfinite(bag.matrix).all()

    _fuzz(originals["bag"], check)


def test_corrupt_manifests_raise_manifest_error_or_load_valid_cohort(originals):
    path = originals["dir"] / "fuzz.json"

    def check(blob):
        path.write_bytes(blob)
        try:
            cohort = load_manifest(path)
        except ManifestError:
            return
        for rec in cohort.records:
            assert rec.censor in (0, 1)
            assert isinstance(rec.histology_path, str)
        if cohort.bin_edges is not None:
            edges = cohort.bin_edges
            assert edges.ndim == 1 and np.isfinite(edges).all()
            assert (np.diff(edges) > 0).all()

    _fuzz(originals["manifest"], check)


def test_corrupt_checkpoints_raise_checkpoint_error_or_keep_shapes(originals):
    path = originals["dir"] / "fuzz.ckpt"
    want = {k: (v.shape, v.dtype) for k, v in originals["params"].items()}

    def check(blob):
        path.write_bytes(blob)
        try:
            ckpt = load_checkpoint(path)
        except CheckpointError:
            return
        got = named_parameters(ckpt.params)
        assert {k: (v.shape, v.dtype) for k, v in got.items()} == want
        assert ckpt.params.risk.w2.shape[1] == ckpt.config.n_bins
        assert ckpt.params.n_slots_h == ckpt.config.n_slots_h
        assert ckpt.params.n_slots_g == ckpt.config.n_slots_g

    _fuzz(originals["checkpoint"], check)


def test_checkpoint_sizes_must_match_its_config(originals, tmp_path):
    # one digit of the stored config changed: the tensors still tile the
    # payload, but the model they form has another number of time bins
    blob = originals["checkpoint"]
    assert blob.count(b'"n_bins":3') == 1
    path = tmp_path / "ckpt.bin"
    path.write_bytes(blob.replace(b'"n_bins":3', b'"n_bins":5'))
    with pytest.raises(CheckpointError, match="needs"):
        load_checkpoint(path)
