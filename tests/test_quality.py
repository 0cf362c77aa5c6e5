"""tools/quality.py, the quality harness: on one tiny cohort, 2 folds of
1 epoch, the report it records has the shape the harness documents.  The
paired verdict of two hand-made reports reads as the harness documents,
and a report whose seeds, folds, epochs or synth fields do not pair is
refused.  A run records the tree it imported, which pairing ignores."""

import importlib.util
import io
import json
import os
import subprocess

import numpy as np
import pytest

from slotsurv.data import SynthConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = dict(n_patients=16, m_hist_lo=6, m_hist_hi=10, m_gen=8, dim=8,
            n_motifs=2)
FOLD_KEYS = {"seed", "fold", "c_index_present", "c_index_imputed",
             "skipped_steps", "adam_v_above_1e6", "adam_v_max", "wall_s"}
SUMMARY_KEYS = {"present", "imputed", "skipped_steps", "adam_v_above_1e6",
                "adam_v_max", "wall_s"}


def _quality():
    spec = importlib.util.spec_from_file_location(
        "quality", os.path.join(ROOT, "tools", "quality.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorded_report_has_one_row_per_fold_and_the_spreads(tmp_path):
    quality = _quality()
    printed = io.StringIO()
    report = quality.quality([0], folds=2, epochs=1, n_boot=20, synth=TINY,
                             train={"t_iters": 2}, out=printed)
    path = tmp_path / "BENCH_quality.json"
    quality.record(str(path), "tree", report)
    quality.record(str(path), "other", report)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert set(doc) == {"runs"} and set(doc["runs"]) == {"tree", "other"}
    run = doc["runs"]["tree"]
    assert set(run) == {"config", "folds", "seeds", "pooled", "machine"}
    assert run["config"] == {"seeds": [0], "folds": 2, "epochs": 1,
                             "n_boot": 20, "synth": TINY,
                             "train": {"t_iters": 2}}
    assert [(r["seed"], r["fold"]) for r in run["folds"]] == [(0, 0), (0, 1)]
    assert all(set(r) == FOLD_KEYS for r in run["folds"])
    assert set(run["seeds"]) == {"0"}
    for summary in (run["seeds"]["0"], run["pooled"]):
        assert set(summary) == SUMMARY_KEYS
        for mode in ("present", "imputed"):
            assert set(summary[mode]) == {"mean", "std"}
    # one line per fold, one per seed and the pooled line
    assert len(printed.getvalue().splitlines()) == 4


def _report(seeds, folds, present, imputed):
    """A report of ``seeds`` x ``folds`` whose folds score ``present`` and
    ``imputed`` in order."""
    pairs = [(s, f) for s in seeds for f in range(folds)]
    return {"config": {"seeds": seeds, "folds": folds},
            "folds": [{"seed": s, "fold": f, "c_index_present": p,
                       "c_index_imputed": i}
                      for (s, f), p, i in zip(pairs, present, imputed)]}


def test_verdict_pairs_folds_and_reads_mean_se_wins_and_largest_loss():
    quality = _quality()
    base = _report([0, 1], 2, [0.70, 0.80, 0.60, 0.75],
                   [0.60, 0.60, 0.60, 0.60])
    change = _report([0, 1], 2, [0.72, 0.84, 0.66, 0.73],
                     [0.70, 0.65, 0.60, 0.65])
    v = quality.verdict(change, base)
    # present: differences 0.02, 0.04, 0.06, -0.02
    assert v["present"]["mean"] == pytest.approx(0.025)
    assert v["present"]["se"] == pytest.approx(
        float(np.std([0.02, 0.04, 0.06, -0.02], ddof=1)) / 2)
    assert (v["present"]["wins"], v["present"]["n"]) == (3, 4)
    assert v["present"]["largest_loss"] == pytest.approx(0.02)
    # imputed: differences 0.1, 0.05, 0, 0.05; a tie is not a win
    assert v["imputed"]["mean"] == pytest.approx(0.05)
    assert (v["imputed"]["wins"], v["imputed"]["n"]) == (3, 4)
    assert v["imputed"]["largest_loss"] == 0.0
    line = quality._verdict_line("base", v)
    assert line.startswith("against base: present +0.025 ± ")
    assert "(wins 3/4, largest loss 0.020)" in line


def test_a_report_whose_seeds_or_folds_do_not_pair_is_refused(tmp_path,
                                                              monkeypatch):
    quality = _quality()
    base = _report([0, 1], 2, [0.7] * 4, [0.6] * 4)
    for other in (_report([0, 2], 2, [0.7] * 4, [0.6] * 4),
                  _report([0, 1, 2], 2, [0.7] * 6, [0.6] * 6),
                  _report([0, 1], 3, [0.7] * 6, [0.6] * 6)):
        with pytest.raises(ValueError, match="do not pair"):
            quality.verdict(other, base)
    # the same seeds and folds, but a fold missing from the recorded rows
    short = {**base, "folds": base["folds"][:3]}
    with pytest.raises(ValueError, match="holds folds"):
        quality.verdict(base, short)
    # the command line refuses before it trains anything
    path = tmp_path / "BENCH_quality.json"
    path.write_text(json.dumps({"runs": {"base": base}}), encoding="utf-8")
    for argv in (["--seeds", "0", "2"], ["--seeds", "0", "1", "--folds", "3"]):
        with pytest.raises(SystemExit) as exit_:
            quality.main(argv + ["--against", "base", "--record", str(path)])
        assert exit_.value.code == 2
    with pytest.raises(SystemExit):
        quality.main(["--against", "missing", "--record", str(path)])
    # folds of the same seeds pair only when they trained as many epochs
    # on cohorts drawn with the same synth fields
    base["config"].update(epochs=30, synth={})
    for key, value in (("epochs", 10), ("synth", {"m_hist_lo": 100})):
        other = {**base, "config": {**base["config"], key: value}}
        with pytest.raises(ValueError, match=f"ran {key} .* do not pair"):
            quality.verdict(other, base)
    # a synth field set to its default draws the cohorts of none
    default = SynthConfig().m_hist_lo
    quality.check_pairable({**base["config"],
                            "synth": {"m_hist_lo": default}}, base, "base")

    class Trained(Exception):
        pass

    def trained(*args, **kwargs):
        raise Trained
    monkeypatch.setattr(quality, "quality", trained)
    path.write_text(json.dumps({"runs": {"base": base}}), encoding="utf-8")
    argv = ["--seeds", "0", "1", "--folds", "2", "--against", "base",
            "--record", str(path)]
    for extra in (["--epochs", "10"], ["--synth", "m_hist_lo=100"]):
        with pytest.raises(SystemExit) as exit_:
            quality.main(argv + extra)
        assert exit_.value.code == 2
    # the same epochs on the same cohort pair, and go on to train
    for extra in ([], ["--synth", f"m_hist_lo={default}"]):
        with pytest.raises(Trained):
            quality.main(argv + ["--epochs", "30"] + extra)


def test_train_fields_are_checked_before_any_training():
    quality = _quality()
    assert quality.train_config(1, 2, {"t_iters": 2}).t_iters == 2
    for fields in ({"t_iters": 2.5}, {"epochs": 3}, {"no_such_field": 1}):
        with pytest.raises((TypeError, ValueError)):
            quality.train_config(1, 2, fields)
    assert quality._field_value("precision=float64") == \
        ("precision", "float64")
    assert quality._field_value("k_fraction=1.0") == ("k_fraction", 1.0)


def test_synth_fields_are_recorded_in_the_report(tmp_path):
    """Each ``--synth FIELD=VALUE`` sets one field of the cohorts the run
    draws, and the recorded report's ``config.synth`` holds them."""
    quality = _quality()
    path = tmp_path / "BENCH_quality.json"
    argv = ["--seeds", "0", "--folds", "2", "--epochs", "1", "--n-boot",
            "20", "--record", str(path)]
    for name, value in TINY.items():
        argv += ["--synth", f"{name}={value}"]
    assert quality.main(argv) == 0
    run = json.loads(path.read_text(encoding="utf-8"))["runs"]["tree"]
    assert run["config"]["synth"] == TINY
    assert len(run["folds"]) == 2


def test_an_invalid_synth_field_is_refused_before_any_training(
        monkeypatch):
    """``--synth`` fields pass ``SynthConfig.validate`` before a cohort is
    drawn; an unknown field, or the seed, which ``--seeds`` sets, is
    refused too."""
    quality = _quality()

    def no_run(*args, **kwargs):
        raise AssertionError("trained with an invalid cohort")
    monkeypatch.setattr(quality, "quality", no_run)
    for field in ("m_hist_lo=4096", "no_such_field=1", "seed=3",
                  "n_patients=1.5"):
        with pytest.raises(SystemExit) as exit_:
            quality.main(["--synth", field])
        assert exit_.value.code == 2
    assert quality.synth_config({"m_hist_lo": 100}, seed=2).seed == 2
    with pytest.raises(ValueError, match="m_hist_lo"):
        quality.synth_config({"m_hist_lo": 4096})


def test_an_invalid_train_field_is_refused_before_any_training(monkeypatch):
    """``--train`` fields pass ``TrainConfig.validate``, as any config
    built from a dict does, before a cohort is drawn."""
    quality = _quality()

    def no_run(*args, **kwargs):
        raise AssertionError("trained with an invalid config")
    monkeypatch.setattr(quality, "quality", no_run)
    with pytest.raises(SystemExit) as exit_:
        quality.main(["--train", "temperature=-1"])
    assert exit_.value.code == 2
    with pytest.raises(ValueError, match="temperature"):
        quality.train_config(1, 2, {"temperature": -1.0})



def test_a_run_records_the_tree_it_imported(tmp_path, monkeypatch):
    """``config.src`` holds ``--src`` relative to the repo root, with the
    revision and state of the git work tree holding it."""
    quality = _quality()
    monkeypatch.setattr(quality, "quality", lambda *args, **kwargs: {
        "config": {"seeds": [0], "folds": 2}, "folds": []})
    path = tmp_path / "BENCH_quality.json"
    src = os.path.join(ROOT, "src")
    assert quality.main(["--src", src, "--record", str(path)]) == 0
    run = json.loads(path.read_text(encoding="utf-8"))["runs"]["tree"]
    assert run["config"]["src"]["dir"] == "src"
    assert run["config"]["src"] == quality.source(src)


def test_the_tree_record_reads_the_git_work_tree(tmp_path, monkeypatch):
    """Outside a git work tree the revision and state are null; inside
    one, the revision of HEAD and whether the directory has changes."""
    quality = _quality()
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    tree = tmp_path / "tree"
    src = tree / "src"
    src.mkdir(parents=True)
    (src / "a.py").write_text("x = 1\n", encoding="utf-8")
    assert quality.source(str(src)) == {"dir": str(src), "rev": None,
                                        "dirty": None}

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(tree), "-c", "user.name=t",
             "-c", "user.email=t@example.com", *args],
            capture_output=True, text=True, check=True).stdout.strip()
    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "one")
    rev = git("rev-parse", "HEAD")
    assert quality.source(str(src)) == {"dir": str(src), "rev": rev,
                                        "dirty": False}
    (src / "a.py").write_text("x = 2\n", encoding="utf-8")
    assert quality.source(str(src)) == {"dir": str(src), "rev": rev,
                                        "dirty": True}


def test_reports_of_other_trees_or_of_none_recorded_pair():
    """Pairing two trees is what ``--against`` is for: a report that
    records another tree, or none, as those recorded before the key, pairs
    with this run's."""
    quality = _quality()
    base = _report([0, 1], 2, [0.7] * 4, [0.6] * 4)
    change = _report([0, 1], 2, [0.8] * 4, [0.6] * 4)
    change["config"]["src"] = {"dir": "src", "rev": "0" * 40, "dirty": True}
    assert "src" not in base["config"]
    assert quality.verdict(change, base)["present"]["wins"] == 4
    other = {**base, "config": {**base["config"], "src": {
        "dir": "/elsewhere/src", "rev": None, "dirty": None}}}
    assert quality.verdict(change, other)["present"]["wins"] == 4
