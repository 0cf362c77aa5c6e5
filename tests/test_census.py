"""tools/census.py, the memory census of a training batch graph: on the
default cohort the first batch graph's node values and saved arrays sit
on at most 17 MB of distinct buffers."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_default_cohort_batch_graph_holds_at_most_17_mb():
    """The per-iteration GRU buffers and column rows of the slot encoders,
    the cross_step GRU buffers, or the decode nodes' normalized slots kept
    again would put the default cohort's batch graph above 17 MB (it held
    23.3 MB with them)."""
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "census.py"), "default"],
        capture_output=True, text=True, check=True)
    report = json.loads(done.stdout)
    assert set(report) == {"default"}
    census = report["default"]
    assert census["total_bytes"] == sum(census["by_field"].values())
    assert census["by_field"]["slot_encode.keys_t"] > 0
    assert census["total_bytes"] <= 17_000_000
