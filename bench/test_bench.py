"""Tests of the benchmark itself, on tiny configurations of each workload.

    python3 -m pytest bench

They check that every metric of interactions.json is emitted with its unit,
that the tracer's stage accounting adds up, and that its counts repeat
exactly from run to run.
"""

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest

import tracer as tr
import workloads as W
from slotsurv import model as M
from slotsurv import train as T

TINY_SYNTH = {"n_patients": 40, "m_hist_lo": 12, "m_hist_hi": 24,
              "m_gen": 8, "dim": 8, "n_motifs": 2}
TINY_TRAIN = {"batch_size": 8, "n_slots_h": 4, "n_slots_g": 4, "t_iters": 2,
              "l_iters": 1, "patch_subsample": 16}

with open(os.path.join(HERE, "interactions.json"), encoding="utf-8") as fh:
    INTERACTIONS = json.load(fh)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def tiny(name: str) -> W.Workload:
    return dataclasses.replace(W.WORKLOADS[name], synth=TINY_SYNTH,
                               train=TINY_TRAIN)


def expected(section: str, workload: str) -> dict:
    groups = INTERACTIONS["groups"]
    return {name: row["unit"]
            for name, row in INTERACTIONS[section].items()
            if workload in groups[row["on"]]}


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(name, trace, tmp_path):
    res = W.run(tiny(name), seed=3, seconds=0.01, trace=trace,
                workdir=str(tmp_path))
    assert res.correct, res.gate_errors
    section = "per_layer" if trace else "end_to_end"
    want = expected(section, name)
    got = {k: m["unit"] for k, m in res.metrics.items()}
    assert got == want
    for spec in SPEC[section]:
        assert res.metrics[spec["name"]]["unit"] == spec["unit"]
    if not trace:
        assert res.metrics["failed_frac"]["value"] == 0.0


def test_benchmark_json_metrics_are_mapped_for_every_workload():
    for section in ("end_to_end", "per_layer"):
        for spec in SPEC[section]:
            row = INTERACTIONS[section][spec["name"]]
            assert row["on"] == "all", spec["name"]
            assert row["unit"] == spec["unit"], spec["name"]
    assert ({w["name"] for w in SPEC["workloads"]}
            == set(W.WORKLOADS) == set(INTERACTIONS["groups"]["all"]))


def _cohort(tmp_path, seed=5):
    wl = tiny("train_small_bags")
    return wl, W._synth(wl, seed, str(tmp_path / "cohort"))


def _count_train(wl, cohort, seed=5) -> tr.Tracer:
    counter = tr.Tracer(count_madds=True)
    with tr.installed(counter):
        T.train(W._train_config(wl, seed), cohort, 0)
    return counter


def self_nodes_by_gaps(tracer: tr.Tracer, span_index: int) -> int:
    """Nodes a span created outside every child span, from node-index
    ranges (independent of ``totals``).  Children must not overlap."""
    span = tracer.spans[span_index]
    graph = None
    ranges = []
    for s in tracer.spans[span_index + 1:]:
        if s.start >= span.end:
            break
        if s.parent == span_index:
            if s.gid is None:
                raise AssertionError(f"child {s.name} has no graph")
            graph = graph or s.gid
            if s.gid != graph:
                raise AssertionError("children span several graphs")
            ranges.append((s.n0, s.n0 + s.nodes))
    ranges.sort()
    covered, last = 0, 0
    for lo, hi in ranges:
        if lo < last:
            raise AssertionError(f"child spans overlap at node {lo}")
        covered += hi - lo
        last = hi
    if last > span.nodes:
        raise AssertionError("child spans run past their parent")
    return span.nodes - covered


def _model_accounting(counter: tr.Tracer, stages) -> None:
    totals = counter.totals()
    self_nodes = self_madds = 0
    for i, span in enumerate(counter.spans):
        if span.name != "model":
            continue
        self_nodes += self_nodes_by_gaps(counter, i)
        children = [s for s in counter.spans if s.parent == i]
        self_madds += span.madds - sum(s.madds for s in children)
    in_stages = [s for s in stages if s in totals]
    assert (sum(totals[s]["nodes"] for s in in_stages) + self_nodes
            == totals["model"]["nodes"])
    assert (sum(totals[s]["madds"] for s in in_stages) + self_madds
            == totals["model"]["madds"])
    assert self_nodes > 0 and self_madds >= 0


def test_training_stage_accounting_adds_up(tmp_path):
    wl, cohort = _cohort(tmp_path)
    counter = _count_train(wl, cohort)
    totals = counter.totals()
    assert set(tr.FORWARD_STAGES) <= set(totals)
    # the cross-modal encode runs the genomic encoder inside recon.cross
    assert totals["recon.cross"]["s"] > totals["recon.cross"]["self_s"]
    _model_accounting(counter, tr.FORWARD_STAGES)


def test_inference_stage_accounting_adds_up(tmp_path):
    wl, cohort = _cohort(tmp_path)
    out = T.train(W._train_config(wl, 5), cohort, 0)
    bag_h = W.D.load_bag(cohort.records[0].histology_path)
    counter = tr.Tracer(count_madds=True)
    with tr.installed(counter):
        T.predict_patient(out.checkpoint, bag_h, None)
    totals = counter.totals()
    assert {"predict", "recon.impute", "recon.cross", "model"} <= set(totals)
    assert "recon.g" not in totals and "recon.h" not in totals
    # imputation runs recon.cross before patient_forward, outside the model
    trunk = [s for s in tr.FORWARD_STAGES if s != "recon.cross"]
    _model_accounting(counter, trunk)


def test_counts_repeat_exactly(tmp_path):
    wl, cohort = _cohort(tmp_path)

    def counts():
        return {k: (v["nodes"], v["madds"], v["calls"])
                for k, v in _count_train(wl, cohort).totals().items()}
    assert counts() == counts()


def test_tracer_restores_every_wrapped_function(tmp_path):
    before = (T.train, T.backward, T.adam_step, T.build_cohort_loss,
              M.build_patient_trunk, W.D.load_bag)
    wl, cohort = _cohort(tmp_path)
    _count_train(wl, cohort)
    after = (T.train, T.backward, T.adam_step, T.build_cohort_loss,
             M.build_patient_trunk, W.D.load_bag)
    assert all(a is b for a, b in zip(before, after))
