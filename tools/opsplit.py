"""Per-op time split: the forward and backward milliseconds of each op
kind, per training step and per served patient, on the wall clock.

It wraps every entry of ``autodiff._FORWARD`` (the kernels) and
``autodiff._BACKWARD`` (the adjoint rules) with a timer, and
``train.adam_step``.  On each of ``tools/census.py``'s cohorts
(``default`` and ``large``) it:

* trains fold 0 with ``TrainConfig(epochs=1, seed=3)`` untimed, as a
  warm-up; that checkpoint is the one served;
* trains fold 0 again with ``TrainConfig(epochs=3, seed=3)`` under the
  timers, and divides by the optimizer steps: ``total`` is the wall
  time of a step, ``adam`` the optimizer's, and ``rest`` what no kernel,
  rule or Adam took (graph building, batching).  The clock starts at
  the first batch graph's build, so the one-off loading of the cohort
  and initialising of the parameters stay out of every figure;
* serves the first 40 patients with ``predict_patient``, genomics
  present and imputed, after one untimed pass, and divides by the
  patients.

Usage::

    python tools/opsplit.py [--src DIR] [--json]
    python tools/opsplit.py --against REV

The first form prints, per cohort and scope (``train``,
``serve_present``, ``serve_imputed``), each op kind's forward and
backward ms and calls, largest first, for the package under ``DIR``
(default: this tree's ``src``); ``--json`` prints the same as one JSON
object.  ``--against REV`` extracts ``git archive REV`` into a temporary
directory and runs the first form ``PAIRS`` (10) times on each tree,
in alternating processes (the side that goes first alternates too), both
with this tree's harness.  It prints, per entry, both sides' median ms
and the median and quartiles over the pairs of the ratio this tree
/ REV.  An op with a bag-sized fresh output swings between sets of
pairs of the same code (the large-bag ``affine`` forward read x1.51,
then x0.96): read its ratio over two sets.  So does the large cohort's
whole step: against a tree whose training code was the same,
``large.train.total`` read x1.032 [1.004, 1.060], quartiles excluding
1, so a whole-step ratio there under about 5% needs a second set of
pairs before it is read as a change.  BLAS runs on one thread
unless the environment says otherwise, as ``bench/run.py`` pins it.
Standard library and numpy only.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402  (pins BLAS before numpy loads)
import numpy as np  # noqa: E402
from census import COHORTS  # noqa: E402

TRAIN_SEED = 3
EPOCHS = 3          # of the timed training run
PATIENTS = 40       # served per mode
PAIRS = 10          # alternating pairs of processes of --against


class OpTimer:
    """Seconds and calls per (direction, op kind), summed while
    ``timing()`` is open; direction is ``forward``, ``backward`` or
    ``adam`` (the one op ``adam_step``)."""

    def __init__(self):
        self.seconds, self.calls = {}, {}

    def _timed(self, key, fn):
        def run(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.seconds[key] = self.seconds.get(key, 0.0) + \
                    time.perf_counter() - start
                self.calls[key] = self.calls.get(key, 0) + 1
        return run

    @contextlib.contextmanager
    def timing(self):
        from slotsurv import autodiff, train

        tables = (("forward", autodiff._FORWARD),
                  ("backward", autodiff._BACKWARD))
        kept = [(table, dict(table)) for _, table in tables]
        adam_step = train.adam_step
        for direction, table in tables:
            for op, fn in list(table.items()):
                table[op] = self._timed((direction, op), fn)
        train.adam_step = self._timed(("adam", "adam_step"), adam_step)
        try:
            yield self
        finally:
            for table, original in kept:
                table.update(original)
            train.adam_step = adam_step

    def split(self, seconds: float, per: int) -> dict:
        """ms per unit (``per`` steps or patients) of the wall time
        ``seconds`` and of each timed entry, and the calls per unit."""
        out = {"units": per, "total_ms": 1e3 * seconds / per}
        for direction in ("forward", "backward"):
            keys = sorted((op for d, op in self.seconds if d == direction),
                          key=lambda op: -self.seconds[direction, op])
            out[direction] = {op: {
                "ms": 1e3 * self.seconds[direction, op] / per,
                "calls": self.calls[direction, op] / per} for op in keys}
        if ("adam", "adam_step") in self.seconds:
            out["adam_ms"] = 1e3 * self.seconds["adam", "adam_step"] / per
        timed = sum(self.seconds.values())
        out["rest_ms"] = 1e3 * (seconds - timed) / per
        return out


def _timed(fn) -> dict:
    """Run ``fn()``, which returns the wall seconds it timed and the units
    (steps or patients) it ran, under a fresh ``OpTimer``; its split per
    unit."""
    timer = OpTimer()
    with timer.timing():
        seconds, units = fn()
    return timer.split(seconds, units)


def _train_steps(config, cohort) -> tuple:
    """Train fold 0: the seconds from the first batch graph's build to the
    end of ``train()``, and the optimizer steps."""
    from slotsurv import train

    started = []
    build = train.build_cohort_loss

    def first_build(*args, **kwargs):
        if not started:
            started.append(time.perf_counter())
        return build(*args, **kwargs)

    train.build_cohort_loss = first_build
    try:
        steps = train.train(config, cohort, 0).checkpoint.steps_trained
    finally:
        train.build_cohort_loss = build
    return time.perf_counter() - started[0], steps


def measure(cohort, epochs: int = EPOCHS, patients: int = PATIENTS,
            train_fields=None) -> dict:
    """The split of one cohort: ``train`` per optimizer step, and
    ``serve_present`` and ``serve_imputed`` per patient.  ``train_fields``
    holds ``TrainConfig`` fields beside the epochs and the seed."""
    from slotsurv import data, train

    fields = {"seed": TRAIN_SEED, **(train_fields or {})}
    ckpt = train.train(train.TrainConfig(**fields, epochs=1), cohort,
                       0).checkpoint
    config = train.TrainConfig(**fields, epochs=epochs)
    out = {"train": _timed(lambda: _train_steps(config, cohort))}
    bags = [(data.load_bag(rec.histology_path),
             data.load_bag(rec.genomic_path))
            for rec in cohort.records[:patients]]
    for mode, missing in common.MODES:
        def serve():
            start = time.perf_counter()
            for bag_h, bag_g in bags:
                train.predict_patient(ckpt, bag_h, None if missing else bag_g)
            return time.perf_counter() - start, len(bags)
        serve()
        out[f"serve_{mode}"] = _timed(serve)
    return out


def run_cohorts() -> dict:
    """``measure`` on each census cohort, synthesized afresh."""
    from slotsurv import data

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, fields in COHORTS.items():
            cohort = data.synth_cohort(data.SynthConfig(**fields),
                                       os.path.join(tmp, name))
            out[name] = measure(cohort)
    return out


def flatten(report: dict) -> dict:
    """``{"<cohort>.<scope>.<entry>": ms}``: the step or patient total,
    ``adam`` (training only), ``rest``, ``fwd`` and ``bwd`` (all kernels
    or all adjoint rules, where any ran), and ``fwd.<op>`` and
    ``bwd.<op>`` per op kind."""
    out = {}
    for cohort, scopes in report.items():
        for scope, s in scopes.items():
            key = f"{cohort}.{scope}."
            out[key + "total"] = s["total_ms"]
            if "adam_ms" in s:
                out[key + "adam"] = s["adam_ms"]
            out[key + "rest"] = s["rest_ms"]
            for direction, short in (("forward", "fwd"), ("backward", "bwd")):
                if s[direction]:
                    out[key + short] = sum(e["ms"]
                                           for e in s[direction].values())
                for op, entry in s[direction].items():
                    out[f"{key}{short}.{op}"] = entry["ms"]
    return out


def table(report: dict) -> str:
    """The report as text: per cohort and scope the totals, then one line
    per op kind, largest forward + backward first."""
    def cells(entry):
        return (f"{entry['ms']:>10.3f}{entry['calls']:>8.1f}" if entry
                else f"{'-':>10}{'-':>8}")

    lines = []
    for cohort, scopes in report.items():
        for scope, s in scopes.items():
            unit = "step" if scope == "train" else "patient"
            adam = f", adam {s['adam_ms']:.3f}" if "adam_ms" in s else ""
            lines.append(f"{cohort} {scope}: {s['total_ms']:.3f} ms per "
                         f"{unit} ({s['units']} {unit}s){adam}, rest "
                         f"{s['rest_ms']:.3f}")
            fwd, bwd = s["forward"], s["backward"]
            ops = sorted(set(fwd) | set(bwd), key=lambda op: -sum(
                side[op]["ms"] for side in (fwd, bwd) if op in side))
            lines.append(f"  {'op':<14}{'fwd ms':>10}{'calls':>8}"
                         f"{'bwd ms':>10}{'calls':>8}")
            lines += [f"  {op:<14}{cells(fwd.get(op))}{cells(bwd.get(op))}"
                      for op in ops]
            lines.append(f"  {'all ops':<14}"
                         f"{sum(e['ms'] for e in fwd.values()):>18.3f}"
                         f"{sum(e['ms'] for e in bwd.values()):>18.3f}")
    return "\n".join(lines)


def paired(ours: list, theirs: list) -> dict:
    """Per flattened entry on both sides: each side's median ms and the
    quartiles and median of the per-pair ratio ours / theirs; entries on
    one side only get that side's median alone."""
    a = [flatten(r) for r in ours]
    b = [flatten(r) for r in theirs]
    keys = sorted(set().union(*a, *b))
    out = {}
    for key in keys:
        mine = [r[key] for r in a if key in r]
        other = [r[key] for r in b if key in r]
        entry = {"tree_ms": float(np.median(mine)) if mine else None,
                 "against_ms": float(np.median(other)) if other else None}
        both = [(x[key], y[key]) for x, y in zip(a, b)
                if key in x and key in y and y[key] > 0]
        if both:
            q1, med, q3 = np.percentile([x / y for x, y in both],
                                        [25, 50, 75])
            entry["ratio"] = [float(q1), float(med), float(q3)]
        out[key] = entry
    return out


def _paired_table(rows: dict, rev: str) -> str:
    lines = [f"{PAIRS} alternating pairs, ratio = this tree / {rev} "
             "(median [quartiles])",
             f"{'entry':<40}{'tree ms':>10}{rev[:10]:>12}  ratio"]
    def fmt(ms):
        return "-" if ms is None else f"{ms:.3f}"

    for key, e in rows.items():
        ratio = ("{1:.3f} [{0:.3f}, {2:.3f}]".format(*e["ratio"])
                 if "ratio" in e else "-")
        lines.append(f"{key:<40}{fmt(e['tree_ms']):>10}"
                     f"{fmt(e['against_ms']):>12}  {ratio}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = common.parser(__doc__)
    parser.add_argument("--json", action="store_true",
                        help="print the report as one JSON object")
    parser.add_argument("--against", metavar="REV",
                        help="also run REV's source, in alternating "
                             "processes, and print the per-entry ratios")
    args = parser.parse_args(argv)

    if args.against:
        with common.extracted(args.against) as tmp:
            ours, theirs = common.run_sides(
                "opsplit.py", args.src, os.path.join(tmp, "src"), PAIRS,
                "--json")
        print(_paired_table(paired(ours, theirs), args.against))
        return 0

    if not common.import_slotsurv(args.src):
        return 2
    report = run_cohorts()
    print(json.dumps(report, indent=1) if args.json else table(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
