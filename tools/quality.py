"""Quality harness: the cross-validated C-index of the reference recipe on
the synthetic cohort, with the genomic bags present and imputed, so that
a change to training (a gradient, the optimizer, a gate rule) shows what
it does to the model it trains.

For each synth seed s (``SynthConfig(seed=s)``, 200 patients) and each of
the folds it trains ``TrainConfig(epochs=E, n_folds=F)``, with the fields
that ``--train`` sets, on the fold's training split and scores the fold's
validation split with ``evaluate`` (``--n-boot`` bootstrap replicates),
genomics present and imputed.  It prints one line per fold: the two
C-indices, the optimizer steps skipped for a non-finite gradient, the
Adam second-moment entries above 1e6 at the end of training, the largest
of them, and the fold's wall time (training and both evaluations).  Then,
per seed and pooled over every fold, the mean and the population
standard deviation (ddof 0) over folds of each C-index, as
``slotsurv.reporting`` states its spread.

Usage::

    python tools/quality.py [--src DIR] [--seeds 0 1 2] [--folds 5]
        [--epochs E] [--synth FIELD=VALUE ...] [--train FIELD=VALUE ...]
        [--n-boot 200] [--record [PATH]] [--label NAME] [--against LABEL]

runs the package under ``DIR`` (default: this tree's ``src``), and exits
2 when ``slotsurv`` imports from elsewhere.  ``E`` defaults to the
reference ``TrainConfig``'s epochs, so the harness runs the reference
recipe unless told otherwise.  Each ``--train FIELD=VALUE``
sets one other ``TrainConfig`` field (VALUE is read as JSON, else kept as
a string: ``t_iters=3``, ``k_fraction=1.0``, ``precision=float64``); the
report's ``config`` records them.  Each ``--synth FIELD=VALUE`` sets one
``SynthConfig`` field other than the seed in the same way
(``m_hist_lo=1024``), and the report's ``config.synth`` records them.  A
config ``TrainConfig.validate`` or ``SynthConfig.validate`` refuses is
refused before any training.

``--against LABEL`` pairs each fold with the same seed and fold of the
report recorded under ``LABEL`` and prints, per mode, the paired verdict:
the mean of this run's C-index minus the recorded one, its standard
error (fold std, ddof 1, over the square root of the folds), the folds
this run wins and the largest loss on one fold.  It refuses, before any
training, a recorded report whose seeds, folds, epochs or synth fields
are not this run's: its folds would pair models of another length or
cohorts of another kind.

With ``--record`` it also writes the report, under ``NAME`` (default
``tree``), to ``PATH`` (default: ``BENCH_quality.json`` in the repo
root), with the machine facts ``bench/run.py`` reports; the reports the
file holds under other names stay, so one file can hold a parent's and a
change's runs side by side.  ``--against`` reads the same file.  BLAS
runs on one thread unless the environment says otherwise.  The default
protocol, 3 seeds x 5 folds of 30 epochs, takes 2.5-4 minutes on a 2-vCPU
VM.  Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402  (pins BLAS before numpy loads)
import numpy as np  # noqa: E402

DEFAULT_RECORD = os.path.join(common.ROOT, "BENCH_quality.json")
BIG_MOMENT = 1e6
MODES = (("present", False), ("imputed", True))


def run_fold(cohort, fold: int, config, n_boot: int) -> dict:
    """Train one fold with ``config`` and score it in both modes."""
    from slotsurv import train

    start = time.perf_counter()
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


def train_config(epochs: int, folds: int, fields=None):
    """The validated ``TrainConfig`` of a run: ``epochs`` and ``folds``
    over the reference recipe, with the other ``fields`` set."""
    from slotsurv import train

    fields = dict(fields or {})
    own = {"epochs", "n_folds"} & set(fields)
    if own:
        raise ValueError(f"set {sorted(own)} with --epochs and --folds, "
                         "not --train")
    return train.TrainConfig.from_dict(
        {**fields, "epochs": epochs, "n_folds": folds})


def synth_config(fields=None, seed: int = 0):
    """The validated ``SynthConfig`` of seed ``seed`` with the other
    ``fields`` set."""
    from slotsurv import data

    fields = dict(fields or {})
    if "seed" in fields:
        raise ValueError("set the seed with --seeds, not --synth")
    return data.config_from_dict(data.SynthConfig, {**fields, "seed": seed})


def quality(seeds, folds: int, epochs: int, n_boot: int, synth=None,
            train=None, out=sys.stdout) -> dict:
    """The report of ``seeds`` x ``folds`` runs, printed as it goes to
    ``out``; ``synth`` holds ``SynthConfig`` fields besides the seed and
    ``train`` ``TrainConfig`` fields besides the epochs and folds
    (default: none, the default cohort and the reference recipe)."""
    from slotsurv import data

    config = train_config(epochs, folds, train)
    rows, per_seed = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            cohort = data.synth_cohort(synth_config(synth, seed),
                                       os.path.join(tmp, f"seed{seed}"))
            seed_rows = []
            for fold in range(folds):
                row = {"seed": seed, "fold": fold,
                       **run_fold(cohort, fold, config, n_boot)}
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
                       "synth": dict(synth or {}),
                       "train": dict(train or {})},
            "folds": rows, "seeds": per_seed, "pooled": pooled}


def _pairs(report: dict) -> list:
    return [(r["seed"], r["fold"]) for r in report["folds"]]


PAIRED = ("seeds", "folds", "epochs", "synth")


def _drawn(synth) -> dict:
    """Every ``SynthConfig`` field but the seed that the cohorts of
    ``synth`` are drawn with, so that a field set to its default pairs
    with one left unset."""
    fields = dataclasses.asdict(synth_config(synth))
    del fields["seed"]
    return fields


def check_pairable(config: dict, base: dict, label: str) -> None:
    """Raise ValueError unless the recorded report ``base`` ran the seeds,
    folds, epochs and synth fields of ``config``; a key that neither
    config holds pairs, and synth fields pair by the cohorts they draw."""
    for key in PAIRED:
        ours, theirs = config.get(key), base["config"].get(key)
        if key == "synth":
            ours, theirs = _drawn(ours), _drawn(theirs)
        if theirs != ours:
            raise ValueError(
                f"report {label!r} ran {key} {base['config'].get(key)}, "
                f"this run {config.get(key)}: the folds do not pair")


def verdict(report: dict, base: dict, label: str = "base") -> dict:
    """Per mode, the paired verdict of ``report`` against ``base``: over
    folds of the same seed and fold, the mean C-index difference (report
    minus base), its standard error, the folds ``report`` wins and the
    largest loss on one fold (0 when it loses none)."""
    check_pairable(report["config"], base, label)
    if _pairs(report) != _pairs(base):
        raise ValueError(f"report {label!r} holds folds {_pairs(base)}, "
                         f"this run {_pairs(report)}")
    out = {}
    for mode, _ in MODES:
        key = f"c_index_{mode}"
        delta = np.array([r[key] - b[key]
                          for r, b in zip(report["folds"], base["folds"])])
        out[mode] = {
            "mean": float(delta.mean()),
            "se": float(delta.std(ddof=1) / np.sqrt(delta.size)),
            "wins": int((delta > 0).sum()),
            "n": int(delta.size),
            "largest_loss": float(max(0.0, -delta.min())),
        }
    return out


def _verdict_line(label: str, v: dict) -> str:
    return f"against {label}: " + ", ".join(
        f"{mode} {v[mode]['mean']:+.3f} ± {v[mode]['se']:.3f} "
        f"(wins {v[mode]['wins']}/{v[mode]['n']}, largest loss "
        f"{v[mode]['largest_loss']:.3f})" for mode, _ in MODES)


def load_runs(path: str) -> dict:
    """The reports recorded in the JSON file at ``path``, by label (none
    when it does not exist)."""
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["runs"]


def record(path: str, label: str, report: dict) -> None:
    """Write ``report`` under ``label`` into the JSON file at ``path``,
    keeping the reports it holds under other labels."""
    runs = load_runs(path)
    runs[label] = {**report, "machine": common.machine_facts()}
    common.write_json(path, {"runs": runs})


def _field_value(text: str) -> tuple:
    """``FIELD=VALUE`` as (field, value), the value read as JSON where it
    parses and kept as a string where it does not."""
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected FIELD=VALUE, got {text!r}")
    try:
        return name, json.loads(raw)
    except json.JSONDecodeError:
        return name, raw


def main(argv=None) -> int:
    parser = common.parser(__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2],
                        help="synth cohort seeds")
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--epochs", type=int,
                        help="default: the reference TrainConfig's")
    parser.add_argument("--synth", action="append", default=[],
                        metavar="FIELD=VALUE", type=_field_value,
                        help="set a SynthConfig field (repeatable)")
    parser.add_argument("--train", action="append", default=[],
                        metavar="FIELD=VALUE", type=_field_value,
                        help="set a TrainConfig field (repeatable)")
    parser.add_argument("--n-boot", type=int, default=200,
                        help="evaluate's bootstrap replicates")
    parser.add_argument("--record", nargs="?", metavar="PATH",
                        const=DEFAULT_RECORD,
                        help="also write the report to PATH (default: "
                             "BENCH_quality.json in the repo root)")
    parser.add_argument("--label", default="tree",
                        help="the name the report is recorded under")
    parser.add_argument("--against", metavar="LABEL",
                        help="pair each fold with the report recorded "
                             "under LABEL and print the paired verdict")
    args = parser.parse_args(argv)
    if not common.import_slotsurv(args.src):
        return 2
    from slotsurv import train

    epochs = train.TrainConfig().epochs if args.epochs is None \
        else args.epochs
    fields, synth = dict(args.train), dict(args.synth)
    try:
        train_config(epochs, args.folds, fields)
        synth_config(synth)
        base = None
        if args.against:
            runs = load_runs(args.record or DEFAULT_RECORD)
            if args.against not in runs:
                raise ValueError(f"no report recorded under {args.against!r}")
            base = runs[args.against]
            check_pairable({"seeds": args.seeds, "folds": args.folds,
                            "epochs": epochs, "synth": synth}, base,
                           args.against)
    except (TypeError, ValueError) as err:
        parser.error(str(err))
    report = quality(args.seeds, args.folds, epochs, args.n_boot,
                     synth=synth, train=fields)
    if base is not None:
        print(_verdict_line(args.against,
                            verdict(report, base, args.against)), flush=True)
    if args.record:
        record(args.record, args.label, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
