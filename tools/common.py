"""What the four tools in this directory share: the BLAS pins, ``--src``
and the import of ``slotsurv`` from it, loading a repo file as a module,
the machine facts, the atomic write of a JSON record, and the runs of a
tool on this tree and on ``git archive REV``.

Importing this module pins BLAS to one thread unless the environment
says otherwise, as ``bench/run.py`` does, so each tool puts its own
directory first on ``sys.path`` and imports this module before numpy.
Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)


def parser(doc: str) -> argparse.ArgumentParser:
    """A tool's parser: the first paragraph of its docstring ``doc`` and
    ``--src``, read as an absolute path."""
    out = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    out.add_argument("--src", type=os.path.abspath,
                     default=os.path.join(ROOT, "src"),
                     help="directory holding the slotsurv package")
    return out


def import_slotsurv(src: str) -> bool:
    """Put ``src`` first on ``sys.path`` and import ``slotsurv``; False,
    with the refusal on stderr, when it imports from elsewhere."""
    sys.path.insert(0, src)
    import slotsurv

    where = os.path.dirname(os.path.realpath(slotsurv.__file__))
    if os.path.dirname(where) == os.path.realpath(src):
        return True
    print(f"error: slotsurv imports from {where}, not from {src}",
          file=sys.stderr)
    return False


def load(path: str):
    """The module of the repo file ``path`` (relative to the repo root),
    loaded by path."""
    spec = importlib.util.spec_from_file_location(
        os.path.splitext(os.path.basename(path))[0], os.path.join(ROOT, path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def machine_facts() -> dict:
    """The machine facts ``bench/run.py`` prints with a benchmark run."""
    return load(os.path.join("bench", "run.py")).machine_facts()


def write_json(path: str, doc) -> None:
    """``doc`` as JSON at ``path`` (indent 1, sorted keys, a trailing
    newline), written to a temporary file beside it and moved over it with
    ``os.replace``: a write that stops partway leaves the previous file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


@contextlib.contextmanager
def extracted(rev: str):
    """A temporary directory holding ``git archive REV`` of this repo."""
    blob = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                          capture_output=True, check=True).stdout
    extra = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
            tar.extractall(tmp, **extra)
        yield tmp


def run_side(script: str, src: str, *args: str):
    """The JSON that ``tools/<script> --src SRC ARGS`` prints, from a new
    process."""
    done = subprocess.run(
        [sys.executable, os.path.join(TOOLS, script), "--src", src, *args],
        capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{script} run on {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def run_sides(script: str, src: str, other: str, pairs: int,
              *args: str) -> tuple:
    """Each side's ``run_side`` outputs, as two lists, from ``pairs``
    pairs of runs on ``src`` and on ``other``; the side that goes first
    alternates, ``src`` first in the first pair."""
    ours, theirs = [], []
    for pair in range(pairs):
        sides = [(src, ours), (other, theirs)]
        for side, into in sides[::1 if pair % 2 == 0 else -1]:
            into.append(run_side(script, side, *args))
    return ours, theirs
