"""tools/quality.py, the quality harness: on one tiny cohort, 2 folds of
1 epoch, the report it records has the shape the harness documents."""

import importlib.util
import io
import json
import os

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
                             out=printed)
    path = tmp_path / "BENCH_quality.json"
    quality.record(str(path), "tree", report)
    quality.record(str(path), "other", report)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert set(doc) == {"runs"} and set(doc["runs"]) == {"tree", "other"}
    run = doc["runs"]["tree"]
    assert set(run) == {"config", "folds", "seeds", "pooled", "machine"}
    assert run["config"] == {"seeds": [0], "folds": 2, "epochs": 1,
                             "n_boot": 20, "synth": TINY}
    assert [(r["seed"], r["fold"]) for r in run["folds"]] == [(0, 0), (0, 1)]
    assert all(set(r) == FOLD_KEYS for r in run["folds"])
    assert set(run["seeds"]) == {"0"}
    for summary in (run["seeds"]["0"], run["pooled"]):
        assert set(summary) == SUMMARY_KEYS
        for mode in ("present", "imputed"):
            assert set(summary[mode]) == {"mean", "std"}
    # one line per fold, one per seed and the pooled line
    assert len(printed.getvalue().splitlines()) == 4
