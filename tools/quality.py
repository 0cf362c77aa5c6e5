"""Quality harness: the cross-validated C-index of the reference recipe on
the synthetic cohort, with the genomic bags present and imputed, so that
a change to training (a gradient, the optimizer, a gate rule) shows what
it does to the model it trains.

For each synth seed s (``SynthConfig(seed=s)``, 200 patients) and each of
the folds it trains ``TrainConfig(epochs=E, n_folds=F)`` on the fold's
training split and scores the fold's validation split with ``evaluate``
(``--n-boot`` bootstrap replicates), genomics present and imputed.  It
prints one line per fold: the two C-indices, the optimizer steps skipped
for a non-finite gradient, the Adam second-moment entries above 1e6 at
the end of training, the largest of them, and the fold's wall time
(training and both evaluations).  Then, per seed and pooled over every
fold, the mean and the population standard deviation (ddof 0) over folds
of each C-index, as ``slotsurv.reporting`` states its spread.

Usage::

    python tools/quality.py [--src DIR] [--seeds 0 1 2] [--folds 5]
        [--epochs 10] [--n-boot 200] [--record [PATH]] [--label NAME]

runs the package under ``DIR`` (default: this tree's ``src``).  With
``--record`` it also writes the report, under ``NAME`` (default
``tree``), to ``PATH`` (default: ``BENCH_quality.json`` in the repo
root), with the machine facts ``bench/run.py`` reports; the reports the
file holds under other names stay, so one file can hold a parent's and a
change's runs side by side.  BLAS runs on one thread unless the
environment says otherwise.  The default protocol, 3 seeds x 5 folds of
10 epochs, takes a few minutes on a 2-vCPU VM.  Standard library and
numpy only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
import tempfile
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread pins)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BIG_MOMENT = 1e6
MODES = (("present", False), ("imputed", True))


def run_fold(cohort, fold: int, folds: int, epochs: int, n_boot: int) -> dict:
    """Train one fold and score it in both modes."""
    from slotsurv import train

    start = time.perf_counter()
    config = train.TrainConfig(epochs=epochs, n_folds=folds)
    ckpt = train.train(config, cohort, fold).checkpoint
    row = {f"c_index_{mode}": train.evaluate(
        ckpt, cohort, fold, missing_genomics=missing,
        n_boot=n_boot)["c_index"] for mode, missing in MODES}
    moments = list(ckpt.adam.v.values())
    row.update({
        "skipped_steps": int(ckpt.adam.skipped),
        "adam_v_above_1e6": int(sum((v > BIG_MOMENT).sum() for v in moments)),
        "adam_v_max": float(max(v.max() for v in moments)),
        "wall_s": time.perf_counter() - start,
    })
    return row


def _summary(rows) -> dict:
    """Mean and population std over folds of each mode's C-index, and the
    folds' totals."""
    out = {}
    for mode, _ in MODES:
        values = np.array([r[f"c_index_{mode}"] for r in rows])
        out[mode] = {"mean": float(values.mean()),
                     "std": float(values.std(ddof=0))}
    return {**out,
            "skipped_steps": sum(r["skipped_steps"] for r in rows),
            "adam_v_above_1e6": sum(r["adam_v_above_1e6"] for r in rows),
            "adam_v_max": max(r["adam_v_max"] for r in rows),
            "wall_s": sum(r["wall_s"] for r in rows)}


def _fold_line(row) -> str:
    return (f"seed {row['seed']} fold {row['fold']}: "
            f"C-index present {row['c_index_present']:.3f} "
            f"imputed {row['c_index_imputed']:.3f}  "
            f"skipped {row['skipped_steps']}  "
            f"v>1e6 {row['adam_v_above_1e6']} (max {row['adam_v_max']:.3g})  "
            f"{row['wall_s']:.1f} s")


def _summary_line(name: str, s: dict) -> str:
    return (f"{name}: C-index present {s['present']['mean']:.3f} ± "
            f"{s['present']['std']:.3f}, imputed {s['imputed']['mean']:.3f} "
            f"± {s['imputed']['std']:.3f}  skipped {s['skipped_steps']}  "
            f"v>1e6 {s['adam_v_above_1e6']} (max {s['adam_v_max']:.3g})  "
            f"{s['wall_s']:.1f} s")


def quality(seeds, folds: int, epochs: int, n_boot: int, synth=None,
            out=sys.stdout) -> dict:
    """The report of ``seeds`` x ``folds`` runs, printed as it goes to
    ``out``; ``synth`` holds ``SynthConfig`` fields besides the seed
    (default: none, the default cohort)."""
    from slotsurv import data

    rows, per_seed = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            cohort = data.synth_cohort(
                data.SynthConfig(**(synth or {}), seed=seed),
                os.path.join(tmp, f"seed{seed}"))
            seed_rows = []
            for fold in range(folds):
                row = {"seed": seed, "fold": fold,
                       **run_fold(cohort, fold, folds, epochs, n_boot)}
                print(_fold_line(row), file=out, flush=True)
                seed_rows.append(row)
            per_seed[str(seed)] = _summary(seed_rows)
            print(_summary_line(f"seed {seed}", per_seed[str(seed)]),
                  file=out, flush=True)
            rows += seed_rows
    pooled = _summary(rows)
    print(_summary_line(f"pooled over {len(rows)} folds", pooled), file=out,
          flush=True)
    return {"config": {"seeds": list(seeds), "folds": folds,
                       "epochs": epochs, "n_boot": n_boot,
                       "synth": dict(synth or {})},
            "folds": rows, "seeds": per_seed, "pooled": pooled}


def machine_facts() -> dict:
    """The machine facts ``bench/run.py`` prints with a benchmark run."""
    spec = importlib.util.spec_from_file_location(
        "bench_run", os.path.join(ROOT, "bench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.machine_facts()


def record(path: str, label: str, report: dict) -> None:
    """Write ``report`` under ``label`` into the JSON file at ``path``,
    keeping the reports it holds under other labels."""
    runs = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            runs = json.load(fh)["runs"]
    runs[label] = {**report, "machine": machine_facts()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the slotsurv package")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2],
                        help="synth cohort seeds")
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--n-boot", type=int, default=200,
                        help="evaluate's bootstrap replicates")
    parser.add_argument("--record", nargs="?", metavar="PATH",
                        const=os.path.join(ROOT, "BENCH_quality.json"),
                        help="also write the report to PATH (default: "
                             "BENCH_quality.json in the repo root)")
    parser.add_argument("--label", default="tree",
                        help="the name the report is recorded under")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    report = quality(args.seeds, args.folds, args.epochs, args.n_boot)
    if args.record:
        record(args.record, args.label, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
