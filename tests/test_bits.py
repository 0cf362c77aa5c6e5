"""tools/bits.py, the bits harness: on the tiny configs it prints one
sha256 per artefact, and two runs of one tree, each in its own process,
agree on every digest.  On the machine ``BITS.json`` was recorded on, a
full run reproduces every digest recorded there.  When the other side's
copy of a harness file (``tools/bits.py``, ``tools/common.py``) is
another file, ``--against`` names it, says that both sides ran the
tree's and lists the recorded digests that differ.  A checkpoint's
``params/`` digest follows its tensors, not its config."""

import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@pytest.fixture(scope="module")
def bits():
    spec = importlib.util.spec_from_file_location(
        "bits", os.path.join(ROOT, "tools", "bits.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_runs_agree_on_one_sha256_per_artefact(bits):
    report = bits.compare(SRC, SRC, tiny=True)
    assert report["differ"] == report["only_tree"] == \
        report["only_against"] == []
    digests = report["tree"]
    runs = ("ref_float32", "ref_float64", "ref_nonselective", "ref_lam0")
    modes = ("present", "imputed")
    files = ["assignment_genomic.csv", "assignment_histology.csv",
             "gates_genomic.csv", "gates_histology.csv", "prediction.json"]
    want = {f"{kind}/{r}" for kind in ("checkpoint", "params")
            for r in runs}
    want |= {f"{kind}/{r}/{m}" for kind in ("evaluate", "predict")
             for r in runs for m in modes}
    # the untrained checkpoint serves with the genomic bags present only
    want |= {"checkpoint/untrained_ref", "params/untrained_ref",
             "predict/untrained_ref/present"}
    want |= {f"infer/{pid}/{m}/{f}" for pid in ("P0000", "P0001", "P0002")
             for m in modes for f in files}
    assert set(digests) == want
    assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in digests.values())
    # the two modes serve different genomic bags
    assert digests["predict/ref_float32/present"] != \
        digests["predict/ref_float32/imputed"]


def test_a_changed_config_moves_the_checkpoint_digest_not_the_params_one(
        bits, tmp_path):
    """The ``params/`` digest hashes a checkpoint's named tensors, so the
    same tensors under another config keep it while the file, whose index
    holds the config, moves its ``checkpoint/`` digest; a moved tensor
    moves both."""
    from slotsurv import data, train

    cohort = data.synth_cohort(data.SynthConfig(**bits.COHORTS["reference"]),
                               tmp_path / "cohort")
    ckpt = train.train(train.TrainConfig(**bits._REFERENCE_TRAIN), cohort,
                       1).checkpoint
    before = bits.checkpoint_digests(ckpt, str(tmp_path / "a.ckpt"))
    assert before == bits.checkpoint_digests(ckpt, str(tmp_path / "b.ckpt"))
    relabelled = dataclasses.replace(ckpt, config=dataclasses.replace(
        ckpt.config, epochs=ckpt.config.epochs + 1))
    after = bits.checkpoint_digests(relabelled, str(tmp_path / "c.ckpt"))
    assert after["params"] == before["params"]
    assert after["checkpoint"] != before["checkpoint"]
    arrays = {**ckpt.adam.v}
    name = sorted(arrays)[0]
    arrays[name] = arrays[name] + 1.0
    moved = dataclasses.replace(ckpt, adam=dataclasses.replace(ckpt.adam,
                                                               v=arrays))
    moved_digests = bits.checkpoint_digests(moved, str(tmp_path / "d.ckpt"))
    assert moved_digests["params"] != before["params"]
    assert moved_digests["checkpoint"] != before["checkpoint"]


def test_an_evaluate_dict_with_a_nan_log_rank_p_is_refused(bits,
                                                           monkeypatch):
    """A NaN log-rank p-value means a risk group held fewer than 2
    events, so the dict's stratified statistics are NaN whatever the code
    computes: ``digests`` raises instead of hashing it."""
    from slotsurv import train

    evaluate = train.evaluate

    def nan_logrank(*args, **kwargs):
        return {**evaluate(*args, **kwargs), "logrank_p": float("nan")}

    monkeypatch.setattr(train, "evaluate", nan_logrank)
    with pytest.raises(RuntimeError, match="logrank_p is NaN"):
        bits.digests(tiny=True)


def test_record_writes_the_digests_with_the_machine_facts(tmp_path):
    """``--record PATH`` writes the digests it prints, the machine facts
    and whether the run was tiny."""
    path = tmp_path / "BITS.json"
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "bits.py"), "--tiny",
         "--record", str(path)], capture_output=True, text=True, check=True)
    recorded = json.loads(path.read_text(encoding="utf-8"))
    assert set(recorded) == {"digests", "machine", "tiny"}
    assert recorded["digests"] == json.loads(done.stdout)
    assert recorded["tiny"] is True
    assert {"nproc", "cpu", "python", "numpy", "blas", "blas_threads"} <= \
        set(recorded["machine"])


# the machine facts that decide the bits: a run on the machine BITS.json
# was recorded on must reproduce every digest it holds
PINNED_FACTS = ("cpu", "blas", "blas_threads", "numpy", "python")


def test_full_run_reproduces_the_recorded_digests_on_their_machine(bits):
    """On a machine whose CPU, BLAS, BLAS threads, numpy and Python equal
    those ``BITS.json`` was recorded with, a full run of this tree gives
    every recorded digest (about 6 s on a 2-vCPU VM).  Elsewhere it skips,
    naming the first fact that differs."""
    with open(os.path.join(ROOT, "BITS.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert recorded["tiny"] is False
    # the facts of a process set up as a bits run sets itself up
    probe = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
             "import common; print(json.dumps(common.machine_facts()))")
    done = subprocess.run(
        [sys.executable, "-c", probe, os.path.join(ROOT, "tools")],
        capture_output=True, text=True, check=True)
    facts = json.loads(done.stdout)
    for key in PINNED_FACTS:
        if facts[key] != recorded["machine"][key]:
            pytest.skip(f"{key} is {facts[key]!r} here, "
                        f"{recorded['machine'][key]!r} in BITS.json")
    got = bits.common.run_side("bits.py", SRC)
    assert bits.diff(got, recorded["digests"]) == {
        "differ": [], "only_tree": [], "only_against": []}


def test_diff_names_changed_and_one_sided_artefacts(bits):
    ours = {"a": "1", "b": "2", "c": "3"}
    theirs = {"a": "1", "b": "9", "d": "4"}
    assert bits.diff(ours, theirs) == {
        "differ": ["b"], "only_tree": ["c"], "only_against": ["d"]}


def _tree(root, harness: str, digests=None, shared="# shared\n"):
    """A repo tree holding ``tools/bits.py`` (``harness``),
    ``tools/common.py`` (``shared``) and, unless ``digests`` is None, a
    ``BITS.json`` that records them."""
    os.makedirs(root / "tools")
    (root / "tools" / "bits.py").write_text(harness, encoding="utf-8")
    (root / "tools" / "common.py").write_text(shared, encoding="utf-8")
    if digests is not None:
        (root / "BITS.json").write_text(
            json.dumps({"machine": {}, "tiny": False, "digests": digests}),
            encoding="utf-8")
    return str(root)


def test_a_changed_harness_is_named_with_the_recorded_digests_it_moved(
        bits, tmp_path):
    """Both sides of ``--against`` run the tree's harness.  With REV's
    ``tools/bits.py`` and ``tools/common.py`` the same files, nothing is
    noted, even where the recorded digests differ; with another copy of
    either, the note names it and lists every digest that differs between
    the two ``BITS.json``."""
    recorded = {"checkpoint/a": "1", "evaluate/a/present": "2"}
    moved = {"checkpoint/a": "1", "evaluate/a/present": "9",
             "evaluate/b/present": "3"}
    tree = _tree(tmp_path / "tree", "# harness\n", moved)
    same = _tree(tmp_path / "same", "# harness\n", recorded)
    assert bits.harness_note(tree, same, "REV") == ""
    other = _tree(tmp_path / "other", "# older harness\n", recorded)
    assert bits.harness_note(tree, other, "REV").splitlines() == [
        "tools/bits.py differs at REV: both sides ran this tree's harness",
        "BITS.json digests that differ between REV and this tree: 2",
        "  differ evaluate/a/present",
        "  only_tree evaluate/b/present"]
    shared = _tree(tmp_path / "shared", "# harness\n", recorded,
                   shared="# older shared\n")
    assert bits.harness_note(tree, shared, "REV").splitlines()[:2] == [
        "tools/common.py differs at REV: both sides ran this tree's harness",
        "BITS.json digests that differ between REV and this tree: 2"]
    # both files differ, and REV records no digests
    unrecorded = _tree(tmp_path / "unrecorded", "# older harness\n",
                       shared="# older shared\n")
    lines = bits.harness_note(tree, unrecorded, "REV").splitlines()
    assert [line.split()[0] for line in lines[:2]] == [
        "tools/bits.py", "tools/common.py"]
    assert lines[2:] == [
        "BITS.json digests that differ between REV and this tree: 3",
        "  only_tree checkpoint/a",
        "  only_tree evaluate/a/present",
        "  only_tree evaluate/b/present"]
