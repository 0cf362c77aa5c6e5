"""Cross-fold aggregation, the CSV/JSON artifacts and the KM SVG contract."""

import csv
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from slotsurv import reporting
from slotsurv import slots as slot_mod
from slotsurv.data import write_json
from slotsurv.moe import GateMask, write_gate_csv
from slotsurv.reporting import (
    FOLD_CSV_COLUMNS,
    annotations_lines,
    km_svg,
    mean_std,
    summarize,
    write_fold_csv,
    write_km_svg,
    write_report,
)


def _fold(fold, c_index, risks, times, events, tau=60.0):
    risks = list(map(float, risks))
    return {
        "fold": fold, "n_patients": len(risks), "missing_genomics": False,
        "c_index": c_index, "median_risk": float(np.median(risks)),
        "rmst_tau": tau, "logrank_p": 0.04, "rmst_high": 30.0,
        "rmst_low": 45.0, "rmst_delta": -15.0, "rmst_ratio": 0.67,
        "risks": risks, "times": list(map(float, times)),
        "events": list(map(bool, events)),
    }


@pytest.fixture()
def folds():
    rng = np.random.default_rng(3)
    out = []
    for k, c in enumerate([0.70, 0.71, 0.72, 0.73, 0.74]):
        n = 20
        risks = rng.normal(size=n)
        # high risk (above median) dies early, low risk late
        times = np.where(risks >= np.median(risks),
                         rng.uniform(5, 40, n), rng.uniform(40, 90, n))
        events = rng.random(n) < 0.8
        out.append(_fold(k, c, risks, times, events))
    return out


def test_mean_std_golden():
    mean, std = mean_std([0.7, 0.71, 0.72, 0.73, 0.74])
    assert mean == pytest.approx(0.72)
    assert std == pytest.approx(0.0141, abs=5e-5)


def test_mean_std_single_and_empty():
    assert mean_std([0.5]) == (0.5, 0.0)
    with pytest.raises(ValueError):
        mean_std([])


def test_summarize_schema(folds):
    s = summarize(folds, n_boot=40)
    for key in ("c_index_mean", "c_index_std", "logrank_p", "rmst_high",
                "rmst_low", "delta", "delta_ci", "ratio", "ratio_ci"):
        assert key in s, key
    assert s["c_index_mean"] == pytest.approx(0.72)
    assert s["c_index_std"] == pytest.approx(0.0141, abs=5e-5)
    assert "population" in s["std_convention"]
    assert s["n_folds"] == 5
    # planted separation: high risk group dies earlier
    assert s["rmst_high"] < s["rmst_low"]
    assert s["logrank_p"] < 0.05
    assert s["delta"] == pytest.approx(s["rmst_high"] - s["rmst_low"])


def test_summarize_rejects_empty_and_mixed_tau(folds):
    with pytest.raises(ValueError):
        summarize([])
    folds[1] = dict(folds[1], rmst_tau=50.0)
    with pytest.raises(ValueError, match="tau"):
        summarize(folds, n_boot=10)


def test_single_fold_reports_zero_std(folds):
    s = summarize(folds[:1], n_boot=40)
    assert s["c_index_std"] == 0.0
    assert s["n_folds"] == 1


def test_km_svg_exactly_two_paths_and_annotations(folds):
    s = summarize(folds, n_boot=40)
    times = np.concatenate([f["times"] for f in folds])
    events = np.concatenate([f["events"] for f in folds]).astype(bool)
    high = np.concatenate(
        [np.asarray(f["risks"]) >= f["median_risk"] for f in folds])
    root = km_svg(times[high], events[high], times[~high], events[~high],
                  annotations=s)
    blob = ET.tostring(root, encoding="unicode")
    reparsed = ET.fromstring(blob)          # well-formed XML
    paths = [el for el in reparsed.iter() if el.tag.endswith("path")]
    assert len(paths) == 2
    texts = " | ".join(el.text or "" for el in reparsed.iter()
                       if el.tag.endswith("text"))
    assert "log-rank p" in texts
    assert "RMST" in texts and "ratio" in texts


def test_km_svg_rejects_empty_group():
    with pytest.raises(ValueError):
        km_svg([], [], [1.0, 2.0], [True, True], annotations={})


def test_annotation_lines_formatting():
    lines = annotations_lines(
        {"logrank_p": 0.0123, "delta": -12.5, "ratio": 0.62,
         "rmst_tau": 60.0})
    assert lines[0] == "log-rank p = 0.0123"
    assert "60" in lines[1] and "-12.50" in lines[1]
    assert lines[2] == "RMST ratio = 0.620"


def test_write_report_artifacts(folds, tmp_path):
    out = tmp_path / "report"
    summary = write_report(folds, out, n_boot=40)
    with open(out / "summary.json", encoding="utf-8") as fh:
        loaded = json.load(fh)
    assert loaded == json.loads(json.dumps(summary))
    with open(out / "folds.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert tuple(rows[0]) == FOLD_CSV_COLUMNS
    assert [float(r["c_index"]) for r in rows] == \
        pytest.approx([0.70, 0.71, 0.72, 0.73, 0.74])
    tree = ET.parse(out / "km.svg")
    paths = [el for el in tree.getroot().iter() if el.tag.endswith("path")]
    assert len(paths) == 2


def test_write_report_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        write_report([], tmp_path)


class _Unprintable:
    def __str__(self):
        raise RuntimeError("cannot format")


def _fail_json(folds, path, monkeypatch):
    write_json({"a": 1, "b": object()}, path)        # TypeError at "b"


def _fail_fold_csv(folds, path, monkeypatch):
    write_fold_csv([folds[0], {**folds[1], "c_index": _Unprintable()}], path)


def _fail_km_svg(folds, path, monkeypatch):
    def tree(*args, **kwargs):
        root = ET.Element("svg")
        ET.SubElement(root, "path", {"d": 1})       # not serializable
        return root
    monkeypatch.setattr(reporting, "km_svg", tree)
    write_km_svg(folds, {}, path)


def _fail_assignment_csv(folds, path, monkeypatch):
    monkeypatch.setattr(slot_mod, "assignment_map", lambda s: [0, "x"])
    sset = slot_mod.SlotSet(slots=np.zeros((2, 3)),
                            attention=np.full((2, 2), 0.5))
    slot_mod.write_assignment_csv(sset, path)


def _fail_gate_csv(folds, path, monkeypatch):
    mask = GateMask(hard=np.ones(3), scores=np.zeros(3))
    write_gate_csv(mask, np.ones(1), path)          # no weight for slot 1


@pytest.mark.parametrize("write", [
    _fail_json, _fail_fold_csv, _fail_km_svg, _fail_assignment_csv,
    _fail_gate_csv], ids=lambda f: f.__name__[6:])
def test_a_write_failing_partway_leaves_no_file(folds, tmp_path, monkeypatch,
                                                write):
    """Each output writer fails after some output was formed; the target
    never appears, and nothing is left beside it."""
    path = tmp_path / "out"
    with pytest.raises(Exception):
        write(folds, path, monkeypatch)
    assert list(tmp_path.iterdir()) == []
