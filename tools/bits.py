"""Bits harness: one sha256 per artefact the package produces from fixed
seeds, so that a change meant to keep every bit can show it did.

The artefacts:

* the checkpoint files of six training runs: the 12-patient reference
  cohort (fold 1) at float32, at float64, with ``selective=False`` and
  with ``lam=0``; the default cohort (fold 0) and a cohort of WSI-sized
  bags (fold 0), one epoch each;
* the pickled ``evaluate`` dicts of the first five runs, with the
  genomic bags present and imputed (``n_boot`` 200, 1000 for the
  default cohort): the default cohort's over its validation fold, the
  reference runs' over all 12 patients, since fold 1 holds 4, too few
  for 2 events in each risk group.  A dict whose log-rank p-value is NaN
  is refused: its stratified statistics would hash as NaN whatever the
  code computes;
* every ``predict_patient`` output of every patient of the reference
  and default cohorts, and of 3 large-bag patients, in both modes;
* the files ``slotsurv infer`` writes for 3 reference patients, in both
  modes.

Usage::

    python tools/bits.py [--tiny] [--src DIR] [--record [PATH]]
    python tools/bits.py --against REV [--tiny]

The first form prints the digests as one JSON object, artefact name ->
sha256, for the package under ``DIR`` (default: this tree's ``src``).
With ``--record`` it also writes them to ``PATH`` (default: ``BITS.json``
in the repo root) with the facts of the machine they were built on, as
``bench/run.py`` reports them, and whether the run was ``--tiny``.
``--against REV`` extracts ``git archive REV`` into a temporary
directory, runs the first form once on this tree and once on REV's
source, each in its own process, and prints both sides; it exits 1 when
any digest differs or an artefact is on one side only.  ``--tiny`` keeps
the reference cohort only (a few seconds).  BLAS runs on one thread
unless the environment says otherwise, as ``bench/run.py`` pins it.
Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import pickle
import subprocess
import sys
import tarfile
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread pins)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COHORTS = {
    "reference": dict(n_patients=12, m_hist_lo=6, m_hist_hi=10, m_gen=8,
                      dim=8, n_motifs=2, censor_fraction=0.25, seed=4),
    "default": {},
    "large": dict(n_patients=10, m_hist_lo=3584, m_hist_hi=4608, seed=11),
}
_REFERENCE_TRAIN = dict(epochs=1, batch_size=6, n_slots_h=4, n_slots_g=4,
                        t_iters=2, l_iters=2, k_fraction=0.5, n_bins=3,
                        patch_subsample=8, n_folds=3, seed=1)

# (run, cohort, fold, TrainConfig fields, evaluate's n_boot or None,
# patients served: None for all)
RUNS = (
    ("ref_float32", "reference", 1, _REFERENCE_TRAIN, 200, None),
    ("ref_float64", "reference", 1,
     {**_REFERENCE_TRAIN, "precision": "float64"}, 200, None),
    ("ref_nonselective", "reference", 1,
     {**_REFERENCE_TRAIN, "selective": False}, 200, None),
    ("ref_lam0", "reference", 1, {**_REFERENCE_TRAIN, "lam": 0.0}, 200, None),
    ("default_cohort", "default", 0, {"epochs": 1}, 1000, None),
    ("large_bags", "large", 0, {"epochs": 1}, None, 3),
)
INFER_RUN, INFER_PATIENTS = "ref_float32", 3
MODES = (("present", False), ("imputed", True))


def _sha(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _feed(h, obj) -> None:
    """Hash ``obj`` into ``h``: dataclasses field by field, arrays by
    dtype, shape and bytes, numbers by their repr."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    else:
        h.update(repr(obj).encode())


def digests(tiny: bool = False) -> dict:
    """Every artefact's sha256, built in a temporary working directory
    from the ``slotsurv`` this process imports."""
    from slotsurv import cli, data, train

    out = {}
    with tempfile.TemporaryDirectory() as tmp, _chdir(tmp):
        cohorts = {}
        for run, name, fold, fields, n_boot, served in RUNS:
            if tiny and name != "reference":
                continue
            if name not in cohorts:
                # relative paths: the infer files name the bag they read
                cohorts[name] = data.synth_cohort(
                    data.SynthConfig(**COHORTS[name]), name)
            cohort = cohorts[name]
            ckpt = train.train(train.TrainConfig(**fields), cohort,
                               fold).checkpoint
            train.save_checkpoint(ckpt, f"{run}.ckpt")
            with open(f"{run}.ckpt", "rb") as fh:
                out[f"checkpoint/{run}"] = _sha(fh.read())
            scored = range(len(cohort.records)) if name == "reference" \
                else None
            for mode, missing in MODES:
                if n_boot is not None:
                    metrics = train.evaluate(ckpt, cohort, fold,
                                             missing_genomics=missing,
                                             indices=scored, n_boot=n_boot)
                    if np.isnan(metrics["logrank_p"]):
                        raise RuntimeError(
                            f"evaluate/{run}/{mode}: logrank_p is NaN, "
                            "fewer than 2 events in a risk group")
                    out[f"evaluate/{run}/{mode}"] = _sha(
                        pickle.dumps(metrics, protocol=4))
                h = hashlib.sha256()
                for rec in cohort.records[:served]:
                    bag_h = data.load_bag(rec.histology_path)
                    bag_g = None if missing else \
                        data.load_bag(rec.genomic_path)
                    _feed(h, train.predict_patient(ckpt, bag_h, bag_g))
                out[f"predict/{run}/{mode}"] = h.hexdigest()

        for rec in cohorts["reference"].records[:INFER_PATIENTS]:
            for mode, missing in MODES:
                dest = os.path.join("infer", rec.patient_id, mode)
                argv = ["infer", "--checkpoint", f"{INFER_RUN}.ckpt",
                        "--histology", rec.histology_path, "--out", dest]
                if not missing:
                    argv += ["--genomic", rec.genomic_path]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(
                        f"slotsurv {' '.join(argv)} exited {code}")
                for fname in sorted(os.listdir(dest)):
                    with open(os.path.join(dest, fname), "rb") as fh:
                        out[f"infer/{rec.patient_id}/{mode}/{fname}"] = \
                            _sha(fh.read())
    return dict(sorted(out.items()))


@contextlib.contextmanager
def _chdir(path):
    """Work in ``path`` (``contextlib.chdir`` is Python 3.11+)."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def diff(ours: dict, theirs: dict) -> dict:
    """The artefacts whose digests differ, and those on one side only."""
    return {
        "differ": sorted(k for k in ours.keys() & theirs.keys()
                         if ours[k] != theirs[k]),
        "only_tree": sorted(ours.keys() - theirs.keys()),
        "only_against": sorted(theirs.keys() - ours.keys()),
    }


def machine_facts() -> dict:
    """The machine facts ``bench/run.py`` prints with a benchmark run."""
    spec = importlib.util.spec_from_file_location(
        "bench_run", os.path.join(ROOT, "bench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.machine_facts()


def record(path: str, digests_: dict, tiny: bool) -> None:
    """Write the digests and the machine facts to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"machine": machine_facts(), "tiny": tiny,
                   "digests": digests_}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_side(src: str, tiny: bool) -> dict:
    """The digests of the package under ``src``, from a new process."""
    argv = [sys.executable, os.path.abspath(__file__), "--src", src]
    if tiny:
        argv.append("--tiny")
    done = subprocess.run(argv, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"bits run on {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def compare(src: str, other_src: str, tiny: bool = False) -> dict:
    """Both sides' digests, each from its own process, and their diff."""
    ours, theirs = run_side(src, tiny), run_side(other_src, tiny)
    return {"tree": ours, "against": theirs, **diff(ours, theirs)}


def _archive(rev: str, dest: str) -> None:
    blob = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                          capture_output=True, check=True).stdout
    extra = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, **extra)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the slotsurv package")
    parser.add_argument("--against", metavar="REV",
                        help="also run REV's source and diff the two sides")
    parser.add_argument("--tiny", action="store_true",
                        help="the reference cohort only")
    parser.add_argument("--record", nargs="?", metavar="PATH",
                        const=os.path.join(ROOT, "BITS.json"),
                        help="also write the digests and the machine facts "
                             "to PATH (default: BITS.json in the repo root)")
    args = parser.parse_args(argv)
    if args.record and args.against:
        parser.error("--record writes one side's digests: drop --against")
    src = os.path.abspath(args.src)

    if args.against:
        with tempfile.TemporaryDirectory() as tmp:
            _archive(args.against, tmp)
            report = compare(src, os.path.join(tmp, "src"), args.tiny)
        report = {"rev": args.against, **report}
        print(json.dumps(report, indent=1))
        bad = report["differ"] + report["only_tree"] + report["only_against"]
        print(f"{len(report['tree'])} artefacts against {args.against}, "
              f"{len(bad)} differ or are on one side only"
              + "".join(f"\n  {name}" for name in bad), file=sys.stderr)
        return 1 if bad else 0

    sys.path.insert(0, src)
    import slotsurv

    where = os.path.dirname(os.path.realpath(slotsurv.__file__))
    if os.path.dirname(where) != os.path.realpath(src):
        print(f"error: slotsurv imports from {where}, not from {src}",
              file=sys.stderr)
        return 2
    out = digests(args.tiny)
    if args.record:
        record(args.record, out, args.tiny)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
