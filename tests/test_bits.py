"""tools/bits.py, the bits harness: on the tiny configs it prints one
sha256 per artefact, and two runs of one tree, each in its own process,
agree on every digest.  On the machine ``BITS.json`` was recorded on, a
full run reproduces every digest recorded there."""

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
    want = {f"checkpoint/{r}" for r in runs}
    want |= {f"{kind}/{r}/{m}" for kind in ("evaluate", "predict")
             for r in runs for m in modes}
    for pid in ("P0000", "P0001", "P0002"):
        want |= {f"infer/{pid}/present/{f}" for f in files}
        want |= {f"infer/{pid}/imputed/{f}"
                 for f in files + ["imputed_genomic.json"]}
    assert set(digests) == want
    assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in digests.values())
    # the two modes serve different genomic bags
    assert digests["predict/ref_float32/present"] != \
        digests["predict/ref_float32/imputed"]


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
    probe = ("import importlib.util, json, sys; "
             "spec = importlib.util.spec_from_file_location("
             "'bits', sys.argv[1]); bits = importlib.util.module_from_spec("
             "spec); spec.loader.exec_module(bits); "
             "print(json.dumps(bits.machine_facts()))")
    done = subprocess.run(
        [sys.executable, "-c", probe, os.path.join(ROOT, "tools", "bits.py")],
        capture_output=True, text=True, check=True)
    facts = json.loads(done.stdout)
    for key in PINNED_FACTS:
        if facts[key] != recorded["machine"][key]:
            pytest.skip(f"{key} is {facts[key]!r} here, "
                        f"{recorded['machine'][key]!r} in BITS.json")
    got = bits.run_side(SRC, tiny=False)
    assert bits.diff(got, recorded["digests"]) == {
        "differ": [], "only_tree": [], "only_against": []}


def test_diff_names_changed_and_one_sided_artefacts(bits):
    ours = {"a": "1", "b": "2", "c": "3"}
    theirs = {"a": "1", "b": "9", "d": "4"}
    assert bits.diff(ours, theirs) == {
        "differ": ["b"], "only_tree": ["c"], "only_against": ["d"]}
