"""The benchmark under bench/ is frozen: it wraps slotsurv functions by
module and name.  Every function its tracer and its reference clock name
must exist, or a traced or paced run would fail at start."""

import importlib
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, BENCH)
    try:
        yield importlib.import_module("tracer"), importlib.import_module("pace")
    finally:
        sys.path.remove(BENCH)


def test_every_function_the_bench_wraps_exists(bench_modules):
    tracer, pace = bench_modules
    named = {(mod, fn) for mod, fn, *_ in tracer.Tracer().targets()}
    named |= set(pace.HOOKS)
    assert ("recon", "impute_genomic") in named      # the recon.impute span
    missing = sorted(
        f"slotsurv.{mod}.{fn}" for mod, fn in named
        if not callable(getattr(importlib.import_module(f"slotsurv.{mod}"),
                                fn, None)))
    assert not missing, f"bench names missing functions: {missing}"
