"""Workloads of the slotsurv benchmark.

Every workload builds its inputs with ``data.synth_cohort`` from the workload
seed, runs the public API of ``slotsurv.train`` in one process, checks the
outputs and returns a ``Result``.  ``trace=False`` measures the end-to-end
metrics on the reference clock of ``pace``; ``trace=True`` measures the
per-layer metrics with ``tracer`` and reports how much the tracing itself
costs.

* ``train_small_bags``: the default synthetic cohort (histology bags of 64-128
  rows) through ``train()``.  One step is ~33.5k graph nodes, so per-node
  Python overhead dominates.
* ``train_large_bags``: the same recipe on 10 patients (one step of 8) with
  WSI-sized histology bags (3584-4608 rows; about half exceed
  ``patch_subsample``, so the subsampling path runs).  Arithmetic and memory
  take a much larger share.
* ``serve_fold``: a closed loop with one caller, serving a model trained once
  for one epoch before the timed set-ups.  Each round scores a block of
  50 patients with ``predict_patient``, with and without the genomic bag, then
  scores fold 0 with ``evaluate``; rounds repeat until every patient has been
  scored and the time is up.  No backward pass, no Adam step and no
  training-only reconstruction head runs here.
"""

from __future__ import annotations

import contextlib
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from slotsurv import data as D
from slotsurv import train as T

import pace as pc
import tracer as tr

FOLD = 0
SETUP_REPEATS = 3
ROUND_SIZE = 50       # serve: patients per round
WARM_PATIENTS = 10    # serve: patients in the warm-up round


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                        # "train" or "serve"
    synth: dict = field(default_factory=dict)    # SynthConfig overrides
    train: dict = field(default_factory=dict)    # TrainConfig overrides
    pace: str = "graph"              # reference unit, see pace.py


WORKLOADS = {w.name: w for w in (
    Workload("train_small_bags", "train"),
    Workload("train_large_bags", "train",
             synth={"n_patients": 10, "m_hist_lo": 3584, "m_hist_hi": 4608},
             pace="arrays"),
    Workload("serve_fold", "serve"),
)}


@dataclass
class Result:
    """What one run measured.  ``metrics`` maps a name to
    {"value", "unit", "n" (samples behind it), "note"}."""

    workload: str
    attempted: int = 0
    failed: int = 0
    gate_errors: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.gate_errors and self.attempted > 0

    def put(self, name, value, unit, n=None, note=None):
        self.metrics[name] = {"value": float(value), "unit": unit, "n": n,
                              "note": note}

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        self.gate_errors.append(why)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(wl: Workload, seed: int, seconds: float, trace: bool,
        workdir: str) -> Result:
    """Untraced runs time work on the reference clock of ``pace``; traced
    runs on the wall clock."""
    res = Result(workload=wl.name)
    body = _run_train if wl.kind == "train" else _run_serve
    if trace:
        body(wl, seed, seconds, trace, workdir, res, time.perf_counter)
        return res
    pace = pc.Pace(wl.pace)
    with tr.installed(pace):
        body(wl, seed, seconds, trace, workdir, res, pace.clock)
    res.put("pace.slowdown", pace.slowdown(), "1", n=len(pace.unit_s),
            note="wall s of work per reference s; reference units run")
    res.put("pace.share_pct",
            100.0 * sum(pace.unit_s) / (sum(pace.unit_s) + pace.work_s), "%",
            note="wall time spent in reference units")
    res.put("peak_rss_mb", _peak_rss_mb(), "MB")
    res.put("failed_frac", res.failed / max(res.attempted, 1), "1",
            note=f"{res.failed}/{res.attempted} operations")
    return res


def _timed_setups(workdir: str, make, clock) -> tuple:
    """Run the set-up ``SETUP_REPEATS`` times; returns (products,
    times)."""
    products, walls = [], []
    for k in range(SETUP_REPEATS):
        root = os.path.join(workdir, f"setup{k}")
        t0 = clock()
        products.append(make(root))
        walls.append(clock() - t0)
    return products, walls


def _synth(wl: Workload, seed: int, root: str):
    return D.synth_cohort(D.SynthConfig(seed=seed, **wl.synth), root)


# ------------------------------------------------------------------ training


def _train_config(wl: Workload, seed: int) -> T.TrainConfig:
    return T.TrainConfig(**{"epochs": 1, "seed": seed, **wl.train})


class _StepClock:
    """Timestamps every optimizer step by wrapping ``train.adam_step``."""

    def __init__(self, clock):
        self.clock = clock
        self.marks = []

    def __enter__(self):
        self._orig = orig = T.adam_step

        def clocked(*args, **kwargs):
            out = orig(*args, **kwargs)
            self.marks.append(self.clock())
            return out
        T.adam_step = clocked
        return self

    def __exit__(self, *exc):
        T.adam_step = self._orig


def _checkpoint_roundtrip_identical(ckpt, workdir: str) -> bool:
    first = os.path.join(workdir, "ckpt_a.bin")
    second = os.path.join(workdir, "ckpt_b.bin")
    T.save_checkpoint(ckpt, first)
    T.save_checkpoint(T.load_checkpoint(first), second)
    with open(first, "rb") as fa, open(second, "rb") as fb:
        return fa.read() == fb.read()


class _TrainCalls:
    """Runs ``train()`` once per call and applies the correctness gates."""

    def __init__(self, wl, seed, workdir, res: Result, clock):
        self.cfg = _train_config(wl, seed)
        self.clock = clock
        self.workdir = workdir
        self.res = res
        self.loss_final = None

    def use(self, cohort) -> None:
        self.cohort = cohort
        self.n_train = len(T.fold_indices(cohort, self.cfg, FOLD)[0])
        self.steps = math.ceil(self.n_train / self.cfg.batch_size)
        self.steps *= self.cfg.epochs

    def run(self) -> tuple:
        """One train() call on the run's clock: (time, step durations,
        TrainResult)."""
        steps = _StepClock(self.clock)
        t0 = self.clock()
        with steps:
            out = T.train(self.cfg, self.cohort, FOLD)
        wall = self.clock() - t0
        return wall, np.diff([t0] + steps.marks).tolist(), out

    def __call__(self) -> tuple:
        """A counted call: ``run`` and ``check``."""
        wall, steps, out = self.run()
        self.res.attempted += self.steps
        self.check(out, self.steps)
        return wall, steps, out

    def check(self, out, ops: int) -> None:
        """Gate one TrainResult; a failure counts ``ops`` failed steps."""
        ckpt = out.checkpoint
        if ckpt.steps_trained != self.steps:
            self.res.fail(ops, f"steps_trained {ckpt.steps_trained} != "
                               f"{self.steps} attempted")
            return
        last = out.epoch_reports[-1].as_dict()
        if not all(math.isfinite(v) for v in last.values()):
            self.res.fail(ops, f"non-finite loss term in {last}")
            return
        if not _checkpoint_roundtrip_identical(ckpt, self.workdir):
            self.res.fail(ops, "save-load-save checkpoint bytes differ")
            return
        if self.loss_final is None:
            self.loss_final = last["total"]
        elif last["total"] != self.loss_final:
            self.res.fail(ops, f"loss_final {last['total']!r} != "
                               f"{self.loss_final!r} of the first call")


def _run_train(wl, seed, seconds, trace, workdir, res: Result,
               clock) -> None:
    calls = _TrainCalls(wl, seed, workdir, res, clock)

    def setup(root):
        # The first train() of a process is the slowest (fresh memory), so
        # it belongs to set-up; the later set-ups are the warm-up, and the
        # median of the set-ups is a warm one.
        calls.use(_synth(wl, seed, root))
        return calls.run()[2]
    outs, setup_walls = _timed_setups(workdir, setup, clock)
    for out in outs:
        calls.check(out, 0)
    if not trace:
        walls, steps = [], []
        t0 = time.perf_counter()
        while not walls or time.perf_counter() - t0 < seconds:
            wall, step_walls, _ = calls()
            walls.append(wall)
            steps.extend(step_walls)
        res.put("setup_s", statistics.median(setup_walls), "s",
                n=len(setup_walls),
                note="synth_cohort + one train() call, median")
        res.put("samples_per_s", calls.n_train * len(walls) / sum(walls),
                "1/s", n=len(walls),
                note="train_samples_per_s: patients / train() wall, "
                     "over all calls")
        _put_latencies(res, "latency_ms", steps, (50,),
                       "optimizer step, Adam to Adam")
        res.put("loss_final", calls.loss_final, "nat",
                note="total of the last epoch report")
        return

    counter = tr.Tracer(count_madds=True)
    with tr.installed(counter):
        counted = calls.run()[2]               # count pass
    calls.check(counted, 0)
    timer = tr.Tracer()
    plain, traced = [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        if len(plain) <= len(traced):
            plain.append(calls()[0])
        else:
            with tr.installed(timer):
                traced.append(calls()[0])
    n_steps = calls.steps * len(traced)
    _put_stage_metrics(res, timer.totals(), counter.totals(), n_steps,
                       calls.steps)
    t_tot, c_tot = timer.totals(), counter.totals()
    bwd = t_tot["autodiff.bwd"]["s"]
    adam = t_tot["train.adam"]["s"]
    model = t_tot["model"]
    res.put("autodiff.bwd_s", bwd / n_steps, "s", n=n_steps)
    res.put("autodiff.bwd_us_per_node", 1e6 * bwd / model["nodes"], "us")
    step_s = [m + b + a for m, b, a in zip(timer.durations("model"),
                                           timer.durations("autodiff.bwd"),
                                           timer.durations("train.adam"))]
    res.put("train.step_s_p50", statistics.median(step_s), "s",
            n=len(step_s))
    res.put("train.adam_s", adam / n_steps, "s", n=n_steps)
    res.put("train.steps", counted.checkpoint.steps_trained, "count")
    res.put("train.skipped_steps", counted.checkpoint.adam.skipped, "count")
    other = t_tot["train"]["s"] - model["s"] - bwd - adam
    res.put("train.loop_other_s", other / n_steps, "s", n=n_steps)
    _put_data_metrics(res, t_tot, c_tot, n_steps, calls.steps)
    _put_overhead(res, [calls.n_train / w for w in plain],
                  [calls.n_train / w for w in traced])
    res.spans = timer.records()


# ------------------------------------------------------------------- serving


def _serve_prepare(wl, seed, root) -> tuple:
    """Cohort and one training epoch: the model every set-up serves.  Runs
    once; training speed is what the train workloads measure."""
    cohort = _synth(wl, seed, root)
    return cohort, T.train(_train_config(wl, seed), cohort, FOLD).checkpoint


def _serve_setup(cohort, ckpt, root, res: Result, clock) -> "_ServeLoop":
    """Checkpoint round trip and bag loading, then a warm-up round of the
    serving loop."""
    os.makedirs(root)
    path = os.path.join(root, "ckpt.bin")
    T.save_checkpoint(ckpt, path)
    bags = [(D.load_bag(r.histology_path), D.load_bag(r.genomic_path))
            for r in cohort.records]
    loop = _ServeLoop(T.load_checkpoint(path), cohort, bags, res, clock)
    loop.round(range(min(WARM_PATIENTS, len(bags))), count=False)
    return loop


class _ServeLoop:
    """Closed loop, one caller: each round scores a block of patients with
    and without genomics (alternating per patient), then evaluates fold 0.
    Every output is checked; evaluate results are checked in ``finish``."""

    def __init__(self, ckpt, cohort, bags, res: Result, clock):
        self.ckpt = ckpt
        self.clock = clock
        self.cohort = cohort
        self.bags = bags
        self.res = res
        self.lat = {False: [], True: []}   # imputed -> latencies
        self.evals = []
        self.pending = []                  # (evaluate result, counted)
        self.risks = {}                    # (patient, imputed) -> risk
        self.next = 0

    def block(self, size: int) -> list:
        n = len(self.bags)
        out = [(self.next + j) % n for j in range(size)]
        self.next = (self.next + size) % n
        return out

    def round(self, patients, count: bool = True,
              predict_tracer=None, eval_tracer=None) -> float:
        """One round; returns patients scored per second of call time."""
        busy, scored = 0.0, 0
        with _maybe(predict_tracer):
            for i in patients:
                bag_h, bag_g = self.bags[i]
                for imputed in (False, True):
                    t0 = self.clock()
                    out, flag = T.predict_patient(
                        self.ckpt, bag_h, None if imputed else bag_g)
                    dt = self.clock() - t0
                    busy += dt
                    scored += 1
                    if count:
                        self.lat[imputed].append(dt)
                    self._check_patient(i, imputed, out, flag, count)
        with _maybe(eval_tracer):
            t0 = self.clock()
            ev = T.evaluate(self.ckpt, self.cohort, FOLD)
            dt = self.clock() - t0
        busy += dt
        scored += ev["n_patients"]
        if count:
            self.evals.append(dt)
            self.res.attempted += 1
        self.pending.append((ev, count))
        return scored / busy

    def _check_patient(self, i, imputed, out, flag, count) -> None:
        ops = 1 if count else 0
        if count:
            self.res.attempted += 1
        c = out.curve
        if flag != imputed:
            self.res.fail(ops, f"patient {i}: imputed flag {flag}")
        elif not math.isfinite(out.risk):
            self.res.fail(ops, f"patient {i}: risk {out.risk!r}")
        elif not (np.all(c.h > 0) and np.all(c.h < 1)):
            self.res.fail(ops, f"patient {i}: hazards outside (0, 1)")
        elif np.any(np.diff(c.S) > 0):
            self.res.fail(ops, f"patient {i}: survival increases")
        elif self.risks.setdefault((i, imputed), out.risk) != out.risk:
            self.res.fail(ops, f"patient {i}: risk changed between calls")

    def finish(self) -> None:
        """Every evaluate result must carry the full bootstrap and risks
        bitwise equal to predict_patient's."""
        index = {r.patient_id: i for i, r in enumerate(self.cohort.records)}
        for ev, count in self.pending:
            ops = 1 if count else 0
            if ev.get("n_boot") != 1000:
                self.res.fail(ops, f"evaluate n_boot {ev.get('n_boot')!r}")
                continue
            for pid, risk in zip(ev["patient_ids"], ev["risks"]):
                i = index[pid]
                if (i, False) not in self.risks:
                    bag_h, bag_g = self.bags[i]
                    self.risks[(i, False)] = T.predict_patient(
                        self.ckpt, bag_h, bag_g)[0].risk
                if self.risks[(i, False)] != risk:
                    self.res.fail(ops, f"evaluate risk of {pid} differs "
                                       "from predict_patient")
                    break
        self.pending.clear()


def _maybe(tracer):
    """Install a tracer if one is given."""
    return contextlib.nullcontext() if tracer is None else tr.installed(tracer)


def _run_serve(wl, seed, seconds, trace, workdir, res: Result,
               clock) -> None:
    setup_tracer = tr.Tracer() if trace else None
    with _maybe(setup_tracer):
        t0 = clock()
        cohort, ckpt = _serve_prepare(wl, seed,
                                      os.path.join(workdir, "cohort"))
        prepare_s = clock() - t0
        loops, setup_walls = _timed_setups(
            workdir, lambda root: _serve_setup(cohort, ckpt, root, res, clock),
            clock)
    loop = loops[-1]
    n_patients = len(loop.bags)
    if not trace:
        t0 = time.perf_counter()
        while (len(loop.lat[False]) < n_patients
               or time.perf_counter() - t0 < seconds):
            loop.round(loop.block(ROUND_SIZE))
        loop.finish()
        busy = sum(loop.lat[False]) + sum(loop.lat[True]) + sum(loop.evals)
        scored = (len(loop.lat[False]) + len(loop.lat[True])
                  + len(loop.evals) * len(T.fold_indices(
                      loop.cohort, loop.ckpt.config, FOLD)[1]))
        res.put("prepare_s", prepare_s, "s", n=1,
                note="synth_cohort + one training epoch, once")
        res.put("setup_s", statistics.median(setup_walls), "s",
                n=len(setup_walls),
                note="checkpoint save/load + bag load + warm-up round, "
                     "median")
        res.put("samples_per_s", scored / busy, "1/s", n=scored,
                note="patients scored per second, both modes and evaluate")
        _put_latencies(res, "latency_ms", loop.lat[False], (50, 95),
                       "predict_ms: predict_patient with genomics")
        _put_latencies(res, "predict_imputed_ms", loop.lat[True], (50, 95),
                       "predict_patient without genomics")
        res.put("eval_fold_s", statistics.median(loop.evals), "s",
                n=len(loop.evals), note="evaluate fold 0, 1000 bootstraps")
        return

    predict_counter, eval_counter = tr.Tracer(True), tr.Tracer(True)
    first = list(range(min(ROUND_SIZE, n_patients)))
    loop.round(first, count=False, predict_tracer=predict_counter,
               eval_tracer=eval_counter)
    predict_timer, eval_timer = tr.Tracer(), tr.Tracer()
    plain, traced = [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        patients = loop.block(ROUND_SIZE)     # same block both ways
        plain.append(loop.round(patients))
        traced.append(loop.round(patients, predict_tracer=predict_timer,
                                 eval_tracer=eval_timer))
    loop.finish()
    p_tot, e_tot = predict_timer.totals(), eval_timer.totals()
    p_cnt = predict_counter.totals()
    n_calls = p_tot["predict"]["calls"]
    _put_stage_metrics(res, p_tot, p_cnt, n_calls, p_cnt["predict"]["calls"])
    res.put("recon.impute_s", p_tot["recon.impute"]["s"] / n_calls, "s",
            n=n_calls, note="per predict_patient call, both modes")
    n_evals = e_tot["evaluate"]["calls"]
    for stage in ("cindex", "logrank", "km", "bootstrap"):
        res.put(f"survival.{stage}_s",
                e_tot[f"survival.{stage}"]["s"] / n_evals, "s", n=n_evals,
                note="per evaluate call")
    _put_data_metrics(res, e_tot, eval_counter.totals(), n_evals, 1)
    s_tot = setup_tracer.totals()
    for op in ("save", "load"):
        row = s_tot[f"train.ckpt_{op}"]
        res.put(f"train.ckpt_{op}_s", row["s"] / row["calls"], "s",
                n=row["calls"])
    _put_overhead(res, plain, traced)
    res.spans = predict_timer.records() + eval_timer.records()


def _put_latencies(res, name, seconds, percentiles, note) -> None:
    for q in percentiles:
        res.put(f"{name}_p{q}", 1e3 * float(np.percentile(seconds, q)), "ms",
                n=len(seconds), note=note)


# ------------------------------------------------------- per-layer metrics


def _put_stage_metrics(res, timed, counted, n_timed, n_counted) -> None:
    """Forward-stage and model metrics per unit (optimizer step or
    predict_patient call).  Times come from the timed pass, counts from the
    count pass."""
    for stage in tr.FORWARD_STAGES + ("model",):
        if stage not in timed:
            continue
        res.put(f"{stage}.fwd_s", timed[stage]["s"] / n_timed, "s",
                n=n_timed)
        res.put(f"{stage}.nodes", counted[stage]["nodes"] / n_counted,
                "count")
        res.put(f"{stage}.madds", counted[stage]["madds"] / n_counted,
                "count")
    res.put("recon.cross.self_fwd_s", timed["recon.cross"]["self_s"] / n_timed,
            "s", n=n_timed, note="without its nested slot encode")
    res.put("model.self_fwd_s", timed["model"]["self_s"] / n_timed, "s",
            n=n_timed, note="parameter binding and loss summation")
    res.put("autodiff.fwd_us_per_node",
            1e6 * timed["model"]["s"] / timed["model"]["nodes"], "us")


def _put_data_metrics(res, timed, counted, n_timed, n_counted) -> None:
    row = counted["data.load_bag"]
    res.put("data.load_bag_s", timed["data.load_bag"]["s"] / n_timed, "s",
            n=n_timed)
    res.put("data.load_bag_calls", row["calls"] / n_counted, "count")
    res.put("data.bytes_read", row["bytes"] / n_counted, "B")


def _put_overhead(res, plain_rates, traced_rates) -> None:
    plain = statistics.median(plain_rates)
    traced = statistics.median(traced_rates)
    res.put("trace.overhead_pct", 100.0 * (plain - traced) / plain, "%",
            n=len(traced_rates),
            note=f"untraced {plain:.4g}/s vs traced {traced:.4g}/s")
