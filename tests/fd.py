"""Graph tools only the tests use.

* ``finite_diff_check``, the gradient audit: ``autodiff.backward`` against
  fourth-order central differences on a float64 replay of the graph.
* ``clone``, a structural copy of a graph at another precision whose op
  nodes ``replay`` runs again from their parents' values, through the
  engine's own kernels and guard (``autodiff._evaluate``), so a replay at
  the build's dtype has the eager build's bits.
* ``ancestors``, the node ids a node is computed from.
* ``input_names``, a graph's input names in declaration order, and
  ``degenerate_rows``, the zero-norm rows a cosine node recorded.
"""

from __future__ import annotations

import numpy as np

from slotsurv import autodiff
from slotsurv.autodiff import Graph, Node, backward


def replay(g: Graph, nodes):
    """Recompute the given op nodes, in order, from their parents' values."""
    for i in nodes:
        g._values[i], g._saved[i] = autodiff._evaluate(
            g, g._ops[i], g._parents[i], g._aux[i], i)


def clone(g: Graph, dtype) -> Graph:
    """Structural copy at another precision; used by the FD checker."""
    out = Graph(dtype=dtype)
    out._ops = list(g._ops)
    out._parents = list(g._parents)
    out._aux = list(g._aux)
    out._madds = list(g._madds)
    out._needs_grad = list(g._needs_grad)
    out._inputs = dict(g._inputs)
    out._saved = [None] * len(g._ops)
    out._values = [np.asarray(v, dtype=dtype) for v in g._values]
    replay(out, [i for i, op in enumerate(out._ops)
                 if op not in ("input", "const")])
    return out


def input_names(g: Graph) -> list:
    """The names of the graph's inputs, in declaration order."""
    return list(g._inputs)


def degenerate_rows(g: Graph, node: Node) -> np.ndarray:
    """Indices of the zero-norm rows a cosine node recorded: its saved
    ``valid`` flags, raveled over the leading axes."""
    if g._ops[node.idx] != "cosine":
        raise autodiff.GraphError("degenerate_rows applies to cosine nodes")
    valid = g._saved[node.idx][3]
    return np.flatnonzero(~valid.ravel())


def ancestors(g: Graph, node: Node) -> set:
    """All node ids reachable backwards from `node`, inclusive."""
    seen = set()
    stack = [node.idx]
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        stack.extend(p for p in g._parents[i] if p not in seen)
    return seen


def finite_diff_check(graph: Graph, seed: Node, step: float = 1e-3,
                      wrt=None) -> float:
    """Max relative error between backward() and finite differences.

    Relative error per element is |a - b| / max(|a|, |b|, 1e-8). The
    numeric reference is a fourth-order central difference evaluated on
    a float64 shadow replay of the graph, so the comparison measures
    the backward implementation at the graph's own precision rather
    than forward rounding or truncation noise. Exact for (piecewise)
    polynomials of degree <= 4, hence 0.0 for linear functions at
    power-of-two steps. Only meant for micro graphs: cost is four
    replays per input element.

    Two known limits.  The relative error has a 1e-8 floor and nothing
    more: an entry that sits near zero by cancellation reads a large
    error from the rounding of the differences, not from a wrong
    adjoint (a 1.3e-7 entry read 1.4e-6 at step 1e-3, and more as the
    step shrank).  There is no kink detection: a stencil that straddles
    a relu's kink mixes its two slopes and reads a large error for a
    correct adjoint.  Builders must therefore draw points that keep
    every gradient entry off zero and every pre-activation more than
    2 * step off the kink.
    """
    analytic = backward(graph, seed)
    shadow = clone(graph, np.float64)
    names = list(wrt) if wrt is not None else input_names(graph)

    # Each perturbation only invalidates the perturbed input's descendant
    # cone; everything else keeps its base value, so replaying just the
    # cone (in node order) matches a full replay bitwise.
    children = [[] for _ in range(shadow.num_nodes)]
    for i, parents in enumerate(shadow._parents):
        for p in set(parents):
            children[p].append(i)

    def cone(root: int):
        seen = {root}
        stack = [root]
        while stack:
            for c in children[stack.pop()]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        seen.discard(root)
        return sorted(seen)

    def eval_at(idx, affected, x, k, delta):
        xp = x.copy()
        xp.flat[k] += delta
        shadow._values[idx] = xp
        replay(shadow, affected)
        return shadow._values[seed.idx].item()

    worst = 0.0
    for name in names:
        idx = shadow._inputs[name]
        affected = cone(idx)
        x = shadow._values[idx]         # eval_at perturbs a copy
        g = analytic[name]
        for k in range(x.size):
            f_m2 = eval_at(idx, affected, x, k, -2.0 * step)
            f_m1 = eval_at(idx, affected, x, k, -step)
            f_p1 = eval_at(idx, affected, x, k, step)
            f_p2 = eval_at(idx, affected, x, k, 2.0 * step)
            # pairwise grouping: equal evaluations cancel exactly
            num = ((f_m2 - f_p2) + 8.0 * (f_p1 - f_m1)) / (12.0 * step)
            an = float(g.flat[k])
            err = abs(num - an) / max(abs(num), abs(an), 1e-8)
            worst = max(worst, err)
        # restore the base values along the cone before the next input
        shadow._values[idx] = x
        replay(shadow, affected)
    return worst
