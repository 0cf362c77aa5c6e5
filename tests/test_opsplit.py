"""tools/opsplit.py, the per-op time split: on a tiny config it reports
every op kind a training step runs, forward and backward, and the
serving scopes, with no negative time and no training step charged with
the cohort's loading; the paired ratios of
``--against`` are this tree's time over the other's."""

import importlib.util
import os
import time

import pytest

from slotsurv import autodiff
from slotsurv import train as train_mod
from slotsurv.data import SynthConfig, synth_cohort

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY_SYNTH = SynthConfig(n_patients=12, m_hist_lo=6, m_hist_hi=10, m_gen=8,
                         dim=8, n_motifs=2, censor_fraction=0.25, seed=4)
TINY_TRAIN = dict(batch_size=6, n_slots_h=4, n_slots_g=4, t_iters=2,
                  k_fraction=0.5, n_bins=3, patch_subsample=8, n_folds=3)


@pytest.fixture(scope="module")
def opsplit():
    spec = importlib.util.spec_from_file_location(
        "opsplit", os.path.join(ROOT, "tools", "opsplit.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _times(report):
    for s in report.values():
        yield from (s["total_ms"], s["rest_ms"], s.get("adam_ms", 0.0))
        for side in (s["forward"], s["backward"]):
            yield from (entry["ms"] for entry in side.values())


def test_every_op_kind_a_step_runs_is_reported(opsplit, tmp_path,
                                               monkeypatch):
    cohort = synth_cohort(TINY_SYNTH, tmp_path)
    graphs = []
    backward = train_mod.backward

    def spy(graph, loss):
        graphs.append(graph)
        return backward(graph, loss)

    monkeypatch.setattr(train_mod, "backward", spy)
    # 0.8 s of loading per training run, which no figure may count
    load = train_mod._load_patient

    def slow_load(record):
        time.sleep(0.1)
        return load(record)

    monkeypatch.setattr(train_mod, "_load_patient", slow_load)
    report = opsplit.measure(cohort, epochs=2, patients=3,
                             train_fields=TINY_TRAIN)
    assert set(report) == {"train", "serve_present", "serve_imputed"}
    step = report["train"]
    # the timed run alone: two epochs of 8 training patients, batches of 6
    assert step["units"] == 4 and len(graphs) == 2 + 4
    assert step["units"] * step["total_ms"] < 800
    ran = {op for g in graphs for op in g._ops} - {"input", "const"}
    assert set(step["forward"]) == ran
    assert set(step["backward"]) == {
        op for g in graphs for i, op in enumerate(g._ops)
        if g._needs_grad[i] and op in autodiff._BACKWARD}
    assert {"slot_encode", "cross_attend", "decode"} <= set(step["backward"])
    for entry in step["forward"].values():
        assert entry["calls"] > 0
    assert step["adam_ms"] > 0
    for scope in ("serve_present", "serve_imputed"):
        assert report[scope]["units"] == 3
        assert report[scope]["backward"] == {}
        assert "adam_ms" not in report[scope]
        assert "cross_attend" in report[scope]["forward"]
    # only an imputing patient decodes a genomic bag
    assert "decode" in report["serve_imputed"]["forward"]
    assert "decode" not in report["serve_present"]["forward"]
    assert all(t >= 0 for t in _times(report))
    # the timers are gone again
    assert all(not fn.__qualname__.startswith("OpTimer")
               for fn in autodiff._FORWARD.values())
    assert train_mod.adam_step.__module__ == "slotsurv.train"


def test_paired_ratios_are_this_tree_over_the_other(opsplit):
    def report(ms):
        return {"c": {"train": {
            "units": 1, "total_ms": 10 * ms, "adam_ms": ms, "rest_ms": ms,
            "forward": {"cross_attend": {"ms": ms, "calls": 1.0}},
            "backward": {}}}}

    rows = opsplit.paired([report(1.0), report(2.0), report(3.0)],
                          [report(2.0), report(2.0), report(2.0)])
    assert set(rows) == {"c.train.total", "c.train.adam", "c.train.rest",
                         "c.train.fwd", "c.train.fwd.cross_attend"}
    entry = rows["c.train.fwd.cross_attend"]
    assert entry["tree_ms"] == entry["against_ms"] == 2.0
    assert entry["ratio"] == [0.75, 1.0, 1.25]
    one_side = opsplit.paired([report(1.0)], [{"c": {"train": {
        "units": 1, "total_ms": 1.0, "rest_ms": 1.0, "forward": {},
        "backward": {}}}}])
    assert one_side["c.train.fwd.cross_attend"] == {"tree_ms": 1.0,
                                                    "against_ms": None}
    assert one_side["c.train.adam"]["against_ms"] is None
