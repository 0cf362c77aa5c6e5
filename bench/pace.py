"""Reference pace: scales the benchmark's gated times to one CPU speed.

On a shared 2-vCPU VM (Intel Xeon, OpenBLAS, one BLAS thread) a
single-threaded loop runs at two speeds about 1.5x apart, and the host
switches between them every second to every minute.  Process CPU time moves
with wall time there (no steal time is charged), so it cannot be excluded.

``Pace`` therefore runs a fixed reference unit of a few milliseconds about
every ``INTERVAL`` seconds while the program runs: after calls of the
program functions in ``HOOKS``, and whenever the clock is read.  Each
stretch of program work is scaled by the time the unit took right after it,
so that ``clock()`` advances in reference seconds: the seconds the work
would have taken on a host where the unit takes its ``REF_S``.  The unit's
own time is never counted as work.  Units share no data with the program,
so a change to the program moves the reference time of its work as it
moves its wall time.

The host's slow state does not slow every kind of work alike, so each
workload names the unit that does the same kind of work as its program:

* ``"graph"``: a chain of small graph nodes with closures, built and then
  differentiated one small array op at a time; per-node interpreter
  overhead dominates, as in small-bag training and in serving.
* ``"arrays"``: matrix products and elementwise maps over thousands of
  rows; arithmetic dominates, as in large-bag training.

Over calls of ``train()`` and serving rounds on the VM above, the log of
the rate scaled by the matching unit moved 3-4% as much as the log of the
wall-clock rate; scaled by the other unit it moved about 30% as much, or
20% the other way.
"""

from __future__ import annotations

import functools
import time

import numpy as np

INTERVAL = 0.05         # seconds of work between reference units

# Program functions after whose calls a unit may run: called many times a
# second in every workload, set-up included.
HOOKS = (("data", "write_bag"), ("data", "load_bag"),
         ("slots", "build_encode"), ("autodiff", "backward"),
         ("train", "adam_step"), ("model", "patient_forward"),
         ("survival", "km_estimate"))

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((128, 32))
_W = 0.1 * _RNG.standard_normal((32, 32))
_B = _RNG.standard_normal((2048, 32))
_SMALL = _RNG.standard_normal((16, 8))
_SMALL_W = 0.3 * _RNG.standard_normal((8, 8))


def _arrays_unit() -> int:
    rows = []
    h = _X
    for i in range(60):
        h = np.tanh(h @ _W)
        s = h.sum(axis=0)
        e = np.exp(s - s.max())
        rows.append((h, e / e.sum(), i))
    for _ in range(2):
        np.maximum(_B @ _W, 0.0).sum()
    return len(rows)


class _Node:
    __slots__ = ("value", "parent", "grad_fn")

    def __init__(self, value, parent, grad_fn):
        self.value = value
        self.parent = parent
        self.grad_fn = grad_fn


def _graph_unit() -> int:
    nodes = []
    h = _Node(_SMALL, None, None)
    for _ in range(240):
        pre = h.value @ _SMALL_W
        out = np.tanh(pre)
        h = _Node(out, h, lambda g, out=out: g * (1.0 - out * out))
        nodes.append(h)
    g = np.ones_like(h.value)
    for node in reversed(nodes):
        g = node.grad_fn(g) @ _SMALL_W.T
    return len(nodes)


# name: (unit, its wall time at the faster speed of the VM above)
UNITS = {"graph": (_graph_unit, 0.0025), "arrays": (_arrays_unit, 0.003)}


class Pace:
    """Reference clock; install its hooks with ``tracer.installed``."""

    def __init__(self, unit: str):
        self._unit, self._ref_s = UNITS[unit]
        for _ in range(5):              # warm caches and allocator
            self._unit()
        self.unit_s = []                # wall time of every unit run
        self.work_s = 0.0               # wall seconds of work, units excluded
        self.ref_s = 0.0                # the same work in reference seconds
        self._since = time.perf_counter()   # start of the open stretch
        self._scale = 1.0               # reference / wall, last unit
        self.tick()

    def tick(self) -> None:
        """Close the open stretch of work and scale it by a unit run now."""
        t0 = time.perf_counter()
        self._unit()
        t1 = time.perf_counter()
        stretch = t0 - self._since
        self._scale = self._ref_s / (t1 - t0)
        self.unit_s.append(t1 - t0)
        self.work_s += stretch
        self.ref_s += stretch * self._scale
        self._since = time.perf_counter()

    def maybe_tick(self) -> None:
        if time.perf_counter() - self._since >= INTERVAL:
            self.tick()

    def clock(self) -> float:
        """Reference seconds of work so far; the open stretch is scaled by
        the last unit."""
        self.maybe_tick()
        return self.ref_s + (time.perf_counter() - self._since) * self._scale

    def slowdown(self) -> float:
        """Wall seconds of work per reference second, over the whole run."""
        self.tick()
        return self.work_s / self.ref_s

    def targets(self):
        return [(mod, fn, self._hook, None) for mod, fn in HOOKS]

    def _hook(self, fn, _name):
        pace = self

        @functools.wraps(fn)
        def paced(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                pace.maybe_tick()
        return paced
