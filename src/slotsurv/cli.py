"""Command-line surface.

Commands: synth, discretize, train, eval, infer, report.  Exit codes:
0 success, 1 usage error, 2 data error, 3 numerical divergence.

The module body imports only the standard library; numpy and the heavy
submodules load inside the command handlers, after the SLOTSURV_THREADS
environment variable has been translated into the BLAS thread knobs
(those are read once, at numpy import time).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

THREAD_ENV = "SLOTSURV_THREADS"
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3


def _configure_threads() -> None:
    raw = os.environ.get(THREAD_ENV)
    if raw is None:
        return
    try:
        n = int(raw)
    except ValueError:
        raise UsageError(f"{THREAD_ENV} must be an integer, got {raw!r}")
    if n < 1:
        raise UsageError(f"{THREAD_ENV} must be >= 1, got {n}")
    for var in _BLAS_VARS:
        os.environ[var] = str(n)


class UsageError(Exception):
    pass


def _read_json(path, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise FileNotFoundError(f"{what} {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ValueError(f"{what} {path}: not valid JSON ({err})") from err
    if not isinstance(doc, dict):
        raise ValueError(f"{what} {path}: expected a JSON object")
    return doc


# ------------------------------------------------------------------- commands


def cmd_synth(args) -> int:
    from .data import SynthConfig, config_from_dict, synth_cohort

    doc = _read_json(args.config, "synth config") if args.config else {}
    cohort = synth_cohort(config_from_dict(SynthConfig, doc), args.out)
    print(f"wrote {cohort.n_patients} patients under {args.out}")
    return EXIT_OK


def cmd_discretize(args) -> int:
    from .data import discretize_times, load_manifest, save_manifest
    from .train import TrainConfig

    bins = TrainConfig().n_bins if args.bins is None else args.bins
    cohort = load_manifest(args.manifest)
    cohort = discretize_times(cohort, bins)
    save_manifest(cohort, args.manifest)
    print(f"assigned {bins} time bins to {cohort.n_patients} patients")
    return EXIT_OK


def cmd_train(args) -> int:
    from .data import load_manifest, write_json
    from .train import TrainConfig, save_checkpoint, train

    doc = _read_json(args.config, "train config") if args.config else {}
    config = TrainConfig.from_dict(doc)
    cohort = load_manifest(args.manifest)
    result = train(config, cohort, fold=args.fold)
    os.makedirs(args.out, exist_ok=True)
    ckpt_path = os.path.join(args.out, f"fold_{args.fold}.ckpt")
    save_checkpoint(result.checkpoint, ckpt_path)
    write_json([r.as_dict() for r in result.epoch_reports],
               os.path.join(args.out, f"fold_{args.fold}_losses.json"))
    last = result.epoch_reports[-1].total if result.epoch_reports else None
    print(f"fold {args.fold}: {result.checkpoint.steps_trained} steps, "
          f"final loss {last}, checkpoint {ckpt_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from .data import load_manifest, write_json
    from .train import evaluate, load_checkpoint

    ckpt = load_checkpoint(args.checkpoint)
    cohort = load_manifest(args.manifest)
    metrics = evaluate(ckpt, cohort, fold=args.fold,
                       missing_genomics=args.missing_genomics)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        suffix = "_missing" if args.missing_genomics else ""
        write_json(metrics, os.path.join(
            args.out, f"eval_fold_{args.fold}{suffix}.json"))
    return EXIT_OK


def cmd_infer(args) -> int:
    from .data import load_bag, write_json
    from .moe import write_gate_csv
    from .slots import write_assignment_csv
    from .train import load_checkpoint, predict_patient

    ckpt = load_checkpoint(args.checkpoint)
    bag_h = load_bag(args.histology)
    bag_g = load_bag(args.genomic) if args.genomic else None
    out, imputed = predict_patient(ckpt, bag_h, bag_g)

    os.makedirs(args.out, exist_ok=True)
    prediction = {
        "risk": out.risk,
        "hazards": [float(h) for h in out.curve.h],
        "survival": [float(s) for s in out.curve.S],
        "hazards_histology": [float(h) for h in out.curve_h.h],
        "hazards_genomic": [float(h) for h in out.curve_g.h],
        "imputed_genomic": bool(imputed),
    }
    write_json(prediction, os.path.join(args.out, "prediction.json"))
    write_assignment_csv(out.slots_h,
                         os.path.join(args.out, "assignment_histology.csv"))
    write_assignment_csv(out.slots_g,
                         os.path.join(args.out, "assignment_genomic.csv"))
    write_gate_csv(out.mask_h, out.weights_h,
                   os.path.join(args.out, "gates_histology.csv"))
    write_gate_csv(out.mask_g, out.weights_g,
                   os.path.join(args.out, "gates_genomic.csv"))
    print(f"risk {out.risk:.6g} -> {args.out}"
          + (" (genomics imputed)" if imputed else ""))
    return EXIT_OK


def cmd_report(args) -> int:
    from .reporting import write_report

    names = sorted(n for n in os.listdir(args.runs)
                   if n.startswith("eval_fold_") and n.endswith(".json"))
    if not names:
        raise ValueError(f"{args.runs}: no eval_fold_*.json metrics found")
    metrics = [_read_json(os.path.join(args.runs, n), "fold metrics")
               for n in names]
    summary = write_report(metrics, args.out)
    print(f"{len(metrics)} folds: C-index "
          f"{summary['c_index_mean']:.4f} ± {summary['c_index_std']:.4f}"
          f" -> {args.out}")
    return EXIT_OK


# --------------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slotsurv",
        description="slot-based multimodal survival models at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--config", help="JSON file of generator settings")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("discretize", help="assign discrete time bins")
    p.add_argument("--manifest", required=True)
    p.add_argument("--bins", type=int, help="default: TrainConfig's n_bins")
    p.set_defaults(func=cmd_discretize)

    p = sub.add_parser("train", help="train one fold")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", help="JSON file of TrainConfig overrides")
    p.add_argument("--fold", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score one validation fold")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--fold", type=int, required=True)
    p.add_argument("--missing-genomics", action="store_true",
                   help="replace genomic bags with cross-modal imputations")
    p.add_argument("--out", help="directory for the metrics JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="predict one patient")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--histology", required=True, help="histology bag file")
    p.add_argument("--genomic", help="genomic bag file (omit to impute)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("report", help="aggregate fold metrics")
    p.add_argument("--runs", required=True,
                   help="directory holding eval_fold_*.json, each fold "
                        "once; imputed-genomics folds (eval "
                        "--missing-genomics) go in their own directory")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        _configure_threads()
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 0 for --help, 2 for bad usage; fold both into the
        # documented codes
        return EXIT_OK if err.code in (0, None) else EXIT_USAGE

    from .data import BagError, ManifestError
    from .train import DivergenceError

    try:
        return args.func(args)
    except DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except (BagError, ManifestError, FileNotFoundError, ValueError,
            KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
