"""Run one workload of the slotsurv benchmark and print its metrics.

    python3 bench/run.py --workload train_small_bags --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it wraps the public functions of the slotsurv layers and
measures the per-layer metrics.  The lines before the last one are a table
of every metric the run measured, with units, sample counts and the machine
it ran on; the last line is one JSON object with the metrics that
BENCHMARK.json lists.  Temporary files and a full result file go to
``.bench_out/`` in the checkout.
"""

# BLAS is pinned to one thread before numpy is imported: with two threads
# large-bag losses move in the 8th digit from run to run.
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")


def import_program():
    """Import slotsurv from this checkout's src/, or exit with an error."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    try:
        import slotsurv
    except ImportError as err:
        sys.exit(f"bench: cannot import slotsurv from {src}: {err}")
    origin = os.path.abspath(slotsurv.__file__)
    if not origin.startswith(src + os.sep):
        sys.exit(f"bench: slotsurv imported from {origin}, not from {src}")


def blas_threads():
    """Thread count OpenBLAS reports, read from the loaded library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": blas_threads()}


def declared_metrics(trace: bool) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def table(result, facts: dict, header: str) -> list:
    lines = [header, "# machine " + json.dumps(facts, sort_keys=True)]
    for name, m in result.metrics.items():
        extra = []
        if m["n"] is not None:
            extra.append(f"n={m['n']}")
        if m["note"]:
            extra.append(m["note"])
        tail = f"  ({'; '.join(extra)})" if extra else ""
        lines.append(f"{name:28s} {m['value']:>16.6g} {m['unit']:6s}{tail}")
    lines.append(f"# correct={result.correct} attempted={result.attempted} "
                 f"failed={result.failed}")
    lines.extend(f"# gate failed: {why}" for why in result.gate_errors[:10])
    return lines


def main(argv=None) -> int:
    import_program()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR)
    try:
        result = workloads.run(wl, args.seed, args.seconds,
                               bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = machine_facts()
    facts.update(workload=wl.name, seed=args.seed, seconds=args.seconds,
                 trace=args.trace)
    base = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, base + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump({"facts": facts, "correct": result.correct,
                   "attempted": result.attempted, "failed": result.failed,
                   "gate_errors": result.gate_errors,
                   "metrics": result.metrics, "spans": result.spans}, fh)

    metrics = {}
    for spec in declared_metrics(bool(args.trace)):
        m = result.metrics[spec["name"]]
        if m["unit"] != spec["unit"]:
            raise ValueError(f"{spec['name']}: unit {m['unit']} != "
                             f"{spec['unit']}")
        metrics[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    print("\n".join(table(result, facts, f"# slotsurv benchmark {base}")))
    print(json.dumps({"correct": result.correct,
                      "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
