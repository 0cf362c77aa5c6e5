"""tools/census.py, the memory census of a training batch graph: on the
default cohort the first batch graph's node values and saved arrays sit
on at most 13 MB of distinct buffers, the cross_attend node's saved
arrays on at most 0.6 MB."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_default_cohort_batch_graph_holds_at_most_13_mb():
    """The per-iteration saved state of the slot encoders kept again (it
    held 15.1 MB with all T iterations' input slots and alpha @ values),
    their per-iteration GRU buffers and column rows, or the decode nodes'
    normalized slots would put the default cohort's batch graph above
    13 MB (it holds 10.7 MB at the reference L = 1, 11.6 MB at L = 3).
    The cross_attend node's saved arrays hold 0.46 MB at L = 1; its four
    GRU buffers of a round kept again would add 0.52 MB, above the
    node's own 0.6 MB bound."""
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "census.py"), "default"],
        capture_output=True, text=True, check=True)
    report = json.loads(done.stdout)
    assert set(report) == {"default"}
    census = report["default"]
    assert census["total_bytes"] == sum(census["by_field"].values())
    assert census["by_field"]["slot_encode.keys_t"] > 0
    assert census["by_field"]["slot_encode.step.alpha"] > 0
    # the cross_attend node's saved fields, named, each over its rounds
    for field in ("states", "keys_t", "v", "attn"):
        assert census["by_field"][f"cross_attend.{field}"] > 0
    assert sum(n for field, n in census["by_field"].items()
               if field.startswith("cross_attend.")
               and field != "cross_attend.value") <= 600_000
    # the arrays nodes keep in their aux: the instance masks and the
    # self-attention row indices
    assert census["by_field"]["slot_encode.aux"] > 0
    assert census["by_field"]["self_attend.aux"] > 0
    assert census["total_bytes"] <= 13_000_000

