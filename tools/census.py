"""Memory census of a training batch graph: the bytes of the distinct
buffers behind every node value, saved intermediate and array a node
keeps in its aux of the first batch graph ``train()`` builds, the graph
whose arrays are alive when its ``backward`` runs.

The cohorts:

* ``default``: the default synthetic cohort, ``SynthConfig(seed=11)``;
* ``large``: WSI-sized bags, ``SynthConfig(n_patients=10,
  m_hist_lo=3584, m_hist_hi=4608, seed=11)``;

each trained on fold 0 with ``TrainConfig(epochs=1, seed=3)``.

Usage::

    python tools/census.py [--src DIR] [COHORT ...]

prints one JSON object, cohort name -> ``{"total_bytes": N, "by_field":
{"<op>.<field>": N, ...}}``, for the package under ``DIR`` (default: this
tree's ``src``) and the named cohorts (default: both).  A field is
``value`` for a node's value, the name of a saved intermediate (a
slot_encode node's last iteration's ones as ``step.<name>``; a
cross_attend node's ``states``, ``keys_t``, ``v`` and ``attn``, each
summed over its rounds and, for the keys and maps, both directions), its
position when the op saves a plain tuple, or ``aux`` for an array in the
node's aux (a slot_encode node's instance mask, a self_attend node's row
indices).  A buffer behind several arrays counts once, for the first
node (in creation order) and field that hold it; a view counts as its
base.  The flattening and the base lookup are
``saved_arrays`` and ``owning_buffers`` from ``tests/oracles.py``.
BLAS runs on one thread unless the environment says otherwise.  A
``slotsurv`` that imports from elsewhere than ``DIR`` exits 2.  Standard
library and numpy only.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402  (pins BLAS before numpy loads)
import numpy as np  # noqa: E402

COHORTS = {
    "default": dict(seed=11),
    "large": dict(n_patients=10, m_hist_lo=3584, m_hist_hi=4608, seed=11),
}
TRAIN = dict(epochs=1, seed=3)


class _Captured(Exception):
    """Carries the batch graph out of ``train()`` at its first backward."""


def first_batch_graph(name: str):
    """The graph of the first batch ``train()`` builds on cohort ``name``,
    taken at its first ``backward`` call, which does not run."""
    from slotsurv import data, train

    def capture(graph, _loss):
        raise _Captured(graph)

    backward = train.backward
    with tempfile.TemporaryDirectory() as tmp:
        cohort = data.synth_cohort(data.SynthConfig(**COHORTS[name]), tmp)
        train.backward = capture
        try:
            train.train(train.TrainConfig(**TRAIN), cohort, 0)
        except _Captured as done:
            return done.args[0]
        finally:
            train.backward = backward
    raise RuntimeError(f"train() on cohort {name} ran no backward")


def _fields(saved, prefix=""):
    """(field name, saved value) pairs of a node's saved intermediates."""
    names = getattr(saved, "_fields", None)
    if names is None:
        return [(f"{prefix}{k}", a) for k, a in enumerate(saved)]
    out = []
    for field in names:
        value = getattr(saved, field)
        if hasattr(value, "_fields"):
            out += _fields(value, f"{prefix}{field}.")
        else:
            out.append((prefix + field, value))
    return out


def census(graph) -> dict:
    """The bytes of the distinct buffers behind ``graph``'s node values,
    saved arrays and aux arrays, as a total and per (op, field)."""
    oracles = common.load(os.path.join("tests", "oracles.py"))
    seen, by_field = set(), {}
    for i, op in enumerate(graph._ops):
        held = [("value", graph._values[i])]
        if graph._saved[i] is not None:
            held += _fields(graph._saved[i])
        aux = graph._aux[i]
        held += [("aux", a) for a in oracles.saved_arrays(
            aux if isinstance(aux, tuple) else (aux,))
                 if isinstance(a, np.ndarray)]
        for field, value in held:
            arrays = oracles.saved_arrays((value,))
            for buf in oracles.owning_buffers(arrays):
                if id(buf) not in seen:
                    seen.add(id(buf))
                    key = f"{op}.{field}"
                    by_field[key] = by_field.get(key, 0) + buf.nbytes
    return {"total_bytes": sum(by_field.values()),
            "by_field": dict(sorted(by_field.items(),
                                    key=lambda kv: (-kv[1], kv[0])))}


def main(argv=None) -> int:
    parser = common.parser(__doc__)
    parser.add_argument("cohorts", nargs="*", metavar="COHORT",
                        help="default or large (default: both)")
    args = parser.parse_args(argv)
    for name in args.cohorts:
        if name not in COHORTS:
            parser.error(f"unknown cohort {name!r}: pick from "
                         f"{', '.join(COHORTS)}")
    if not common.import_slotsurv(args.src):
        return 2
    report = {name: census(first_batch_graph(name))
              for name in args.cohorts or COHORTS}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
