"""Minimal reverse-mode autodiff over dense numpy arrays.

The engine exposes exactly the operations the survival model needs,
nothing generic. A Graph is built eagerly: every op computes its value
the moment its node is created, so data-dependent constants (hard
top-K masks, gather index maps) can be derived mid-build from values
already in the graph. ``forward`` replays the recorded graph under new
input bindings; ``backward`` runs the adjoint rules in reverse
topological order (creation order is topological by construction);
``finite_diff_check`` compares analytic gradients against central
differences.

Values are numpy arrays, float32 by default, float64 when a graph is
constructed with dtype=np.float64 (used by gradient-check tests).
Scalars are 0-d arrays. Stored values are never mutated in place.

Each op has one forward kernel in ``_FORWARD`` and one adjoint rule in
``_BACKWARD``. Eager building and ``forward`` replay run the same kernel
through one helper that casts to the graph dtype and applies the
non-finite guard; a ``Graph.<op>`` method only checks shapes and counts
multiply-adds.

Shapes. One patient's tensors are 2-d (rows, d); a batch of patients
stacks them along a leading axis, (B, rows, d). Ops act on trailing
axes, so one model builder serves both:

* matmul: (m, k) @ (k, n); batched (B, m, k) @ (B, k, n); a shared 2-d
  operand on either side broadcasts over the batch. A weight shared by
  a 3-d left operand runs as one product over all B*m rows.
* add, mul: numpy broadcasting; the adjoint sums back down to each
  operand's shape (one unbroadcast helper; a (1, d) bias row is the
  common case).
* transpose swaps the last two axes; reshape keeps the entries.
* row_softmax / col_softmax: along the last / second-to-last axis.
* layer_norm, gru_cell: row-wise over the last axis, (1, d) gains and
  biases, 2-d or 3-d inputs.
* mean_pool: mean over the second-to-last axis; sum: keep-dims sum
  along one axis; reduce_sum: everything down to 0-d.
* squared_error, cosine: mean over the last two axes, 0-d for 2-d
  operands and one value per batch entry, (B,), for 3-d ones.
* concat along any axis of two equal-rank operands; gather_rows picks
  rows of a 2-d operand.
* elementwise: scale, sigmoid, relu, reciprocal, log, exp, clamp,
  stop_gradient.

Multiply-add accounting (used by the complexity checks): matmul counts
B*m*k*n (B = 1 when unbatched); the GRU cell counts its six matmuls plus
ten elementwise passes per row; layer norm 4 per element; softmaxes 3
per element; squared_error 2 and cosine 4 per input element; add and
mul 1 per element of the broadcast output; the other elementwise ops,
mean_pool, sum and reduce_sum 1 per input element; pure data movement
(transpose, reshape, gather, concat, stop_gradient) counts zero.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "Node",
    "OP_KINDS",
    "backward",
    "bind_arrays",
    "finite_diff_check",
    "forward",
    "init_block",
    "init_normal",
    "named_arrays",
]

_LN_EPS = 1e-5
_COS_TINY = 1e-12


class GraphError(ValueError):
    """Shape mismatch, bad operand, or non-finite value in the graph."""


class Node:
    """Lightweight handle to a graph node."""

    __slots__ = ("graph", "idx")

    def __init__(self, graph: "Graph", idx: int):
        self.graph = graph
        self.idx = idx

    @property
    def value(self) -> np.ndarray:
        return self.graph._values[self.idx]

    @property
    def shape(self) -> tuple:
        return self.graph._values[self.idx].shape

    @property
    def op(self) -> str:
        return self.graph._ops[self.idx]

    def __repr__(self):
        return f"Node({self.idx}:{self.op}, shape={self.shape})"


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class Graph:
    """Eagerly evaluated op graph with recorded structure for replay."""

    def __init__(self, dtype=np.float32, check_finite: bool = True):
        if dtype not in (np.float32, np.float64):
            raise GraphError(f"unsupported dtype {dtype!r}")
        self.dtype = np.dtype(dtype)
        self.check_finite = check_finite
        self._ops: list[str] = []
        self._parents: list[tuple] = []
        self._aux: list = []          # static per-node attributes
        self._values: list = []       # current values (eager / last replay)
        self._saved: list = []        # per-run intermediates for backward
        self._madds: list[int] = []
        self._inputs: dict[str, int] = {}
        self._marks: dict[str, int] = {}

    # ---------------------------------------------------------------- leaves

    def input(self, name: str, value) -> Node:
        """Declare a named, rebindable leaf with its initial value."""
        if name in self._inputs:
            raise GraphError(f"duplicate input name {name!r}")
        arr = self._coerce(value, f"input {name!r}")
        node = self._append("input", (), aux=name, value=arr)
        self._inputs[name] = node.idx
        return node

    def const(self, value) -> Node:
        """A fixed leaf; never rebound, never differentiated."""
        return self._append("const", (), value=self._coerce(value, "const"))

    # ------------------------------------------------------------------- ops

    def matmul(self, a: Node, b: Node) -> Node:
        va, vb = a.value, b.value
        if (va.ndim not in (2, 3) or vb.ndim not in (2, 3)
                or va.shape[-1] != vb.shape[-2]
                or (va.ndim == vb.ndim == 3 and va.shape[0] != vb.shape[0])):
            raise GraphError(
                f"matmul shape mismatch {va.shape} @ {vb.shape} (node {self._next_id()})"
            )
        batch = max(va.shape[0] if va.ndim == 3 else 1,
                    vb.shape[0] if vb.ndim == 3 else 1)
        m, k = va.shape[-2:]
        n = vb.shape[-1]
        return self._append("matmul", (a.idx, b.idx), madds=batch * m * k * n)

    def transpose(self, a: Node) -> Node:
        """Swap the last two axes."""
        va = a.value
        if va.ndim not in (2, 3):
            raise GraphError(f"transpose needs a 2-d or 3-d operand, got {va.shape}")
        return self._append("transpose", (a.idx,))

    def reshape(self, a: Node, shape) -> Node:
        """Same entries in another shape; ``a`` itself when the shape already
        matches, so unbatched callers pay no node."""
        shape = tuple(int(n) for n in shape)
        if a.shape == shape:
            return a
        if int(np.prod(shape)) != a.value.size:
            raise GraphError(f"cannot reshape {a.shape} to {shape}")
        return self._append("reshape", (a.idx,), aux=shape)

    def add(self, a: Node, b: Node) -> Node:
        shape = self._broadcast("add", a, b)
        return self._append("add", (a.idx, b.idx), madds=int(np.prod(shape)))

    def scale(self, a: Node, c: float) -> Node:
        return self._append("scale", (a.idx,), aux=float(c), madds=a.value.size)

    def row_softmax(self, a: Node) -> Node:
        """Softmax along the last axis."""
        return self._softmax("row_softmax", a, axis=-1)

    def col_softmax(self, a: Node) -> Node:
        """Softmax along the second-to-last axis."""
        return self._softmax("col_softmax", a, axis=-2)

    def _softmax(self, op: str, a: Node, axis: int) -> Node:
        va = a.value
        if va.ndim not in (2, 3):
            raise GraphError(f"{op} needs a 2-d or 3-d operand, got {va.shape}")
        return self._append(op, (a.idx,), aux=axis, madds=3 * va.size)

    def sigmoid(self, a: Node) -> Node:
        return self._append("sigmoid", (a.idx,), madds=a.value.size)

    def relu(self, a: Node) -> Node:
        return self._append("relu", (a.idx,), madds=a.value.size)

    def reciprocal(self, a: Node) -> Node:
        return self._append("reciprocal", (a.idx,), madds=a.value.size)

    def layer_norm(self, a: Node, gamma: Node, beta: Node) -> Node:
        """Normalize along the last axis; gamma and beta are (1, d) rows."""
        va = a.value
        d = va.shape[-1]
        if va.ndim not in (2, 3) or gamma.shape != (1, d) or beta.shape != (1, d):
            raise GraphError(
                f"layer_norm shapes: x {va.shape}, gamma {gamma.shape}, beta {beta.shape}"
            )
        return self._append("layer_norm", (a.idx, gamma.idx, beta.idx),
                            madds=4 * va.size)

    def gru_cell(self, x: Node, h: Node, wz, uz, bz, wr, ur, br, wn, un, bn) -> Node:
        """Row-wise GRU update of state h (2-d or 3-d) from input x."""
        vx, vh = x.value, h.value
        d = vh.shape[-1]
        if vx.shape != vh.shape or vx.ndim not in (2, 3):
            raise GraphError(f"gru_cell input/state mismatch {vx.shape} vs {vh.shape}")
        for w in (wz, uz, wr, ur, wn, un):
            if w.shape != (d, d):
                raise GraphError(f"gru_cell weight shape {w.shape}, want {(d, d)}")
        for b in (bz, br, bn):
            if b.shape != (1, d):
                raise GraphError(f"gru_cell bias shape {b.shape}, want {(1, d)}")
        s = vx.size // d
        return self._append(
            "gru_cell",
            (x.idx, h.idx, wz.idx, uz.idx, bz.idx, wr.idx, ur.idx, br.idx,
             wn.idx, un.idx, bn.idx),
            madds=6 * s * d * d + 10 * s * d)

    def mean_pool(self, a: Node) -> Node:
        """Mean over the second-to-last axis, kept as a length-1 axis."""
        va = a.value
        if va.ndim not in (2, 3):
            raise GraphError(f"mean_pool needs a 2-d or 3-d operand, got {va.shape}")
        return self._append("mean_pool", (a.idx,), madds=va.size)

    def sum(self, a: Node, axis: int) -> Node:
        """Sum along one axis, kept as a length-1 axis."""
        va = a.value
        if not -va.ndim <= axis < va.ndim:
            raise GraphError(f"sum axis {axis} out of range for {va.shape}")
        return self._append("sum", (a.idx,), aux=axis % va.ndim,
                            madds=va.size)

    def concat(self, a: Node, b: Node, axis: int) -> Node:
        va, vb = a.value, b.value
        if va.ndim != vb.ndim or va.ndim not in (2, 3) \
                or not -va.ndim <= axis < va.ndim:
            raise GraphError("concat needs two 2-d or two 3-d operands "
                             "and a valid axis")
        axis %= va.ndim
        if np.delete(va.shape, axis).tolist() != np.delete(vb.shape, axis).tolist():
            raise GraphError(
                f"concat shape mismatch {va.shape} | {vb.shape} axis {axis}")
        return self._append("concat", (a.idx, b.idx), aux=axis)

    def mul(self, a: Node, b: Node) -> Node:
        shape = self._broadcast("mul", a, b)
        return self._append("mul", (a.idx, b.idx), madds=int(np.prod(shape)))

    def squared_error(self, a: Node, b: Node) -> Node:
        """Mean squared difference over the last two axes: 0-d for 2-d
        operands, one mean per leading index for 3-d ones."""
        if a.shape != b.shape or a.value.ndim not in (2, 3):
            raise GraphError(f"squared_error shape mismatch {a.shape} vs {b.shape}")
        return self._append("squared_error", (a.idx, b.idx),
                            madds=2 * a.value.size)

    def cosine(self, a: Node, b: Node) -> Node:
        """Mean cosine similarity of rows (along the last axis) over the
        second-to-last axis: 0-d for 2-d operands, one mean per leading
        index for 3-d ones.  Zero-norm rows contribute 0."""
        if a.shape != b.shape or a.value.ndim not in (2, 3):
            raise GraphError(
                f"cosine needs matching 2-d or 3-d shapes, got {a.shape}, {b.shape}")
        return self._append("cosine", (a.idx, b.idx), madds=4 * a.value.size)

    def log(self, a: Node) -> Node:
        return self._append("log", (a.idx,), madds=a.value.size)

    def exp(self, a: Node) -> Node:
        return self._append("exp", (a.idx,), madds=a.value.size)

    def clamp(self, a: Node, lo: float, hi: float) -> Node:
        lo, hi = float(lo), float(hi)
        if not lo < hi:
            raise GraphError(f"clamp bounds [{lo}, {hi}]")
        return self._append("clamp", (a.idx,), aux=(lo, hi), madds=a.value.size)

    def gather_rows(self, a: Node, indices) -> Node:
        va = a.value
        idx = np.asarray(indices, dtype=np.int64)
        if va.ndim != 2 or idx.ndim != 1:
            raise GraphError("gather_rows needs a 2-d source and 1-d index list")
        if idx.size and (idx.min() < 0 or idx.max() >= va.shape[0]):
            raise GraphError(f"gather_rows index out of range for {va.shape[0]} rows")
        return self._append("gather_rows", (a.idx,), aux=idx)

    def reduce_sum(self, a: Node) -> Node:
        """Sum every entry down to a 0-d scalar."""
        return self._append("reduce_sum", (a.idx,), madds=a.value.size)

    def stop_gradient(self, a: Node) -> Node:
        return self._append("stop_gradient", (a.idx,))

    # ------------------------------------------------------------- utilities

    def mark(self, name: str, node: Node) -> Node:
        """Register a node under a name reported by forward()."""
        self._marks[name] = node.idx
        return node

    @property
    def num_nodes(self) -> int:
        return len(self._ops)

    def total_madds(self) -> int:
        return sum(self._madds)

    def input_names(self):
        return list(self._inputs)

    def ancestors(self, node: Node) -> set:
        """All node ids reachable backwards from `node`, inclusive."""
        seen = set()
        stack = [node.idx]
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            stack.extend(p for p in self._parents[i] if p not in seen)
        return seen

    def degenerate_rows(self, node: Node) -> np.ndarray:
        """Indices of zero-norm rows recorded by a cosine node."""
        if self._ops[node.idx] != "cosine":
            raise GraphError("degenerate_rows applies to cosine nodes")
        valid = self._saved[node.idx][3]
        return np.flatnonzero(~valid.ravel())

    def clone(self, dtype) -> "Graph":
        """Structural copy at another precision; used by the FD checker."""
        out = Graph(dtype=dtype, check_finite=self.check_finite)
        out._ops = list(self._ops)
        out._parents = list(self._parents)
        out._aux = list(self._aux)
        out._madds = list(self._madds)
        out._inputs = dict(self._inputs)
        out._marks = dict(self._marks)
        out._saved = [None] * len(self._ops)
        out._values = [np.asarray(v, dtype=dtype) for v in self._values]
        forward(out, {})
        return out

    # -------------------------------------------------------------- internal

    def _next_id(self) -> int:
        return len(self._ops)

    def _broadcast(self, op: str, a: Node, b: Node) -> tuple:
        if a.shape == b.shape:
            return a.shape
        try:
            return np.broadcast_shapes(a.shape, b.shape)
        except ValueError:
            raise GraphError(f"{op} shape mismatch {a.shape} vs {b.shape}") from None

    def _coerce(self, value, what: str) -> np.ndarray:
        arr = np.ascontiguousarray(np.asarray(value, dtype=self.dtype))
        if self.check_finite and not np.isfinite(arr).all():
            raise GraphError(f"{what}: non-finite entries")
        return arr

    def _append(self, op, parents, aux=None, madds=0, value=None) -> Node:
        """Record a node.  Leaves pass their coerced value; ops run their
        forward kernel first, so an op that raises leaves the graph as it
        was."""
        saved = None
        if value is None:
            value, saved = _evaluate(self, op, parents, aux, self._next_id())
        self._ops.append(op)
        self._parents.append(parents)
        self._aux.append(aux)
        self._values.append(value)
        self._saved.append(saved)
        self._madds.append(int(madds))
        return Node(self, len(self._ops) - 1)


# ------------------------------------------------------------ forward kernels
#
# A kernel takes the node's aux and its parents' values and returns the
# value, or (value, saved intermediates) for the ops whose adjoint reads
# them back.  Parent values always carry the graph dtype.

def _softmax(axis, x):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _matmul(a, b):
    if a.ndim == 3 and b.ndim == 2 and a.shape[0] > 1:
        # a weight shared by every batch entry: one product over all rows
        return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[-1:])
    return np.matmul(a, b)


def _layer_norm_fwd(_, x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = (x - mu) * inv
    return xhat * gamma + beta, (xhat, inv)


def _gru_fwd(_, x, h, wz, uz, bz, wr, ur, br, wn, un, bn):
    # row-wise: leading axes are flattened into rows
    shape = x.shape
    if x.ndim != 2:
        x, h = x.reshape(-1, shape[-1]), h.reshape(-1, shape[-1])
    z = _sigmoid(x @ wz + h @ uz + bz)
    r = _sigmoid(x @ wr + h @ ur + br)
    rh = r * h
    n = np.tanh(x @ wn + rh @ un + bn)
    return (z * h + (1.0 - z) * n).reshape(shape), (z, r, n, rh)


def _squared_error_fwd(_, a, b):
    d = a - b
    return (d * d).mean(axis=(-2, -1))


def _cosine_fwd(_, a, b):
    na = np.sqrt((a * a).sum(axis=-1, keepdims=True))
    nb = np.sqrt((b * b).sum(axis=-1, keepdims=True))
    valid = (na > _COS_TINY) & (nb > _COS_TINY)
    denom = np.where(valid, na * nb, 1.0)
    cos = np.where(valid, (a * b).sum(axis=-1, keepdims=True) / denom, 0.0)
    return cos.mean(axis=(-2, -1)), (na, nb, cos, valid)


def _log_fwd(_, x):
    if (x <= 0).any():
        raise GraphError("log of non-positive entry")
    return np.log(x)


def _reciprocal_fwd(_, x):
    if (x == 0).any():
        raise GraphError("reciprocal of zero entry")
    return 1.0 / x


_FORWARD = {
    "matmul": lambda _, a, b: _matmul(a, b),
    "transpose": lambda _, a: np.swapaxes(a, -1, -2).copy(),
    "reshape": lambda shape, a: a.reshape(shape),
    "add": lambda _, a, b: a + b,
    "scale": lambda c, a: a * a.dtype.type(c),
    "row_softmax": _softmax,
    "col_softmax": _softmax,
    "sigmoid": lambda _, a: _sigmoid(a),
    "relu": lambda _, a: np.maximum(a, 0),
    "reciprocal": _reciprocal_fwd,
    "layer_norm": _layer_norm_fwd,
    "gru_cell": _gru_fwd,
    "mean_pool": lambda _, a: a.mean(axis=-2, keepdims=True),
    "sum": lambda axis, a: a.sum(axis=axis, keepdims=True),
    "concat": lambda axis, a, b: np.concatenate([a, b], axis=axis),
    "mul": lambda _, a, b: a * b,
    "squared_error": _squared_error_fwd,
    "cosine": _cosine_fwd,
    "log": _log_fwd,
    "exp": lambda _, a: np.exp(a),
    "clamp": lambda bounds, a: np.clip(a, *bounds),
    "gather_rows": lambda idx, a: a[idx],
    "reduce_sum": lambda _, a: a.sum(),
    "stop_gradient": lambda _, a: a,
}

# Every op kind the engine registers. The model uses all of them.
OP_KINDS = ("input", "const", *_FORWARD)


def _evaluate(g: Graph, op: str, parents: tuple, aux, i: int):
    """Run node i's kernel on its parents' current values; returns the
    value at the graph dtype and the saved intermediates (or None)."""
    try:
        out = _FORWARD[op](aux, *map(g._values.__getitem__, parents))
    except GraphError as err:
        raise GraphError(f"{err} (node {i})") from None
    saved = None
    if isinstance(out, tuple):
        out, saved = out
    out = np.asarray(out, dtype=g.dtype)
    if g.check_finite and not np.isfinite(out).all():
        raise GraphError(f"non-finite output at node {i} ({op})")
    return out, saved


def _replay_node(g: Graph, i: int):
    g._values[i], g._saved[i] = _evaluate(g, g._ops[i], g._parents[i],
                                          g._aux[i], i)


def forward(graph: Graph, bindings: dict | None = None) -> dict:
    """Replay the graph under new input bindings; return marked tensors."""
    bindings = bindings or {}
    for name, value in bindings.items():
        if name not in graph._inputs:
            raise GraphError(f"unknown input {name!r}")
        graph._values[graph._inputs[name]] = graph._coerce(value, f"input {name!r}")
    for i, op in enumerate(graph._ops):
        if op in ("input", "const"):
            continue
        _replay_node(graph, i)
    return {name: graph._values[i] for name, i in graph._marks.items()}


# ----------------------------------------------------------------- backward

def _unbroadcast(grad, shape):
    """Sum a broadcast result's adjoint back down to an operand's shape."""
    if grad.shape == shape:
        return grad
    lead = grad.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + k for k, n in enumerate(shape) if n == 1 and grad.shape[lead + k] != 1)
    return grad.sum(axis=axes, keepdims=True).reshape(shape)


def _bw_matmul(g, i, grad, grads):
    a, b = g._parents[i]
    va, vb = g._values[a], g._values[b]
    _acc(grads, a, _unbroadcast(_matmul(grad, np.swapaxes(vb, -1, -2)), va.shape))
    if va.ndim == 3 and vb.ndim == 2:
        gb = va.reshape(-1, va.shape[-1]).T @ grad.reshape(-1, grad.shape[-1])
    else:
        gb = _unbroadcast(np.matmul(np.swapaxes(va, -1, -2), grad), vb.shape)
    _acc(grads, b, gb)


def _bw_transpose(g, i, grad, grads):
    _acc(grads, g._parents[i][0], np.swapaxes(grad, -1, -2))


def _bw_reshape(g, i, grad, grads):
    p = g._parents[i][0]
    _acc(grads, p, grad.reshape(g._values[p].shape))


def _bw_add(g, i, grad, grads):
    a, b = g._parents[i]
    _acc(grads, a, _unbroadcast(grad, g._values[a].shape))
    _acc(grads, b, _unbroadcast(grad, g._values[b].shape))


def _bw_scale(g, i, grad, grads):
    _acc(grads, g._parents[i][0], grad * g.dtype.type(g._aux[i]))


def _bw_softmax(g, i, grad, grads):
    y = g._values[i]
    gy = grad * y
    _acc(grads, g._parents[i][0], gy - y * gy.sum(axis=g._aux[i], keepdims=True))


def _bw_sigmoid(g, i, grad, grads):
    y = g._values[i]
    _acc(grads, g._parents[i][0], grad * y * (1.0 - y))


def _bw_relu(g, i, grad, grads):
    x = g._values[g._parents[i][0]]
    _acc(grads, g._parents[i][0], grad * (x > 0))


def _bw_reciprocal(g, i, grad, grads):
    y = g._values[i]
    _acc(grads, g._parents[i][0], -grad * y * y)


def _bw_layer_norm(g, i, grad, grads):
    a, gi, bi = g._parents[i]
    xhat, inv = g._saved[i]
    gamma = g._values[gi]
    gg = grad * gamma
    dx = inv * (gg - gg.mean(axis=-1, keepdims=True)
                - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
    _acc(grads, a, dx)
    _acc(grads, gi, _unbroadcast(grad * xhat, gamma.shape))
    _acc(grads, bi, _unbroadcast(grad, gamma.shape))


def _bw_gru(g, i, grad, grads):
    (xi, hi, wzi, uzi, bzi, wri, uri, bri, wni, uni, bni) = g._parents[i]
    z, r, n, rh = g._saved[i]
    shape = grad.shape
    grad = grad.reshape(z.shape)
    x, h = g._values[xi].reshape(z.shape), g._values[hi].reshape(z.shape)
    wz, uz = g._values[wzi], g._values[uzi]
    wr, ur = g._values[wri], g._values[uri]
    wn, un = g._values[wni], g._values[uni]

    dz = grad * (h - n)
    dn = grad * (1.0 - z)
    dh = grad * z

    dnp = dn * (1.0 - n * n)
    dx = dnp @ wn.T
    drh = dnp @ un.T
    dr = drh * h
    dh = dh + drh * r

    dzp = dz * z * (1.0 - z)
    drp = dr * r * (1.0 - r)
    dx = dx + dzp @ wz.T + drp @ wr.T
    dh = dh + dzp @ uz.T + drp @ ur.T

    _acc(grads, xi, dx.reshape(shape))
    _acc(grads, hi, dh.reshape(shape))
    _acc(grads, wzi, x.T @ dzp)
    _acc(grads, uzi, h.T @ dzp)
    _acc(grads, bzi, dzp.sum(axis=0, keepdims=True))
    _acc(grads, wri, x.T @ drp)
    _acc(grads, uri, h.T @ drp)
    _acc(grads, bri, drp.sum(axis=0, keepdims=True))
    _acc(grads, wni, x.T @ dnp)
    _acc(grads, uni, rh.T @ dnp)
    _acc(grads, bni, dnp.sum(axis=0, keepdims=True))


def _bw_mean_pool(g, i, grad, grads):
    p = g._parents[i][0]
    shape = g._values[p].shape
    _acc(grads, p, np.broadcast_to(grad / shape[-2], shape).copy())


def _bw_sum(g, i, grad, grads):
    p = g._parents[i][0]
    _acc(grads, p, np.broadcast_to(grad, g._values[p].shape).copy())


def _bw_concat(g, i, grad, grads):
    a, b = g._parents[i]
    axis = g._aux[i]
    ga, gb = np.split(grad, [g._values[a].shape[axis]], axis=axis)
    _acc(grads, a, ga)
    _acc(grads, b, gb)


def _bw_mul(g, i, grad, grads):
    a, b = g._parents[i]
    va, vb = g._values[a], g._values[b]
    _acc(grads, a, _unbroadcast(grad * vb, va.shape))
    _acc(grads, b, _unbroadcast(grad * va, vb.shape))


def _bw_squared_error(g, i, grad, grads):
    a, b = g._parents[i]
    d = g._values[a] - g._values[b]
    coeff = grad[..., None, None] * g.dtype.type(2.0 / (d.shape[-2] * d.shape[-1]))
    _acc(grads, a, coeff * d)
    _acc(grads, b, -coeff * d)


def _bw_cosine(g, i, grad, grads):
    a, b = g._parents[i]
    va, vb = g._values[a], g._values[b]
    na, nb, cos, valid = g._saved[i]
    s = (grad[..., None, None] / g.dtype.type(va.shape[-2])) * valid
    sna = np.where(valid, na, 1.0)
    snb = np.where(valid, nb, 1.0)
    da = s * (vb / (sna * snb) - cos * va / (sna * sna))
    db = s * (va / (sna * snb) - cos * vb / (snb * snb))
    _acc(grads, a, da)
    _acc(grads, b, db)


def _bw_log(g, i, grad, grads):
    p = g._parents[i][0]
    _acc(grads, p, grad / g._values[p])


def _bw_exp(g, i, grad, grads):
    _acc(grads, g._parents[i][0], grad * g._values[i])


def _bw_clamp(g, i, grad, grads):
    p = g._parents[i][0]
    lo, hi = g._aux[i]
    x = g._values[p]
    _acc(grads, p, grad * ((x >= lo) & (x <= hi)))


def _bw_gather_rows(g, i, grad, grads):
    p = g._parents[i][0]
    buf = np.zeros_like(g._values[p])
    np.add.at(buf, g._aux[i], grad)
    _acc(grads, p, buf)


def _bw_reduce_sum(g, i, grad, grads):
    p = g._parents[i][0]
    _acc(grads, p, np.broadcast_to(grad, g._values[p].shape).copy())


_BACKWARD = {
    "matmul": _bw_matmul,
    "transpose": _bw_transpose,
    "reshape": _bw_reshape,
    "add": _bw_add,
    "scale": _bw_scale,
    "row_softmax": _bw_softmax,
    "col_softmax": _bw_softmax,
    "sigmoid": _bw_sigmoid,
    "relu": _bw_relu,
    "reciprocal": _bw_reciprocal,
    "layer_norm": _bw_layer_norm,
    "gru_cell": _bw_gru,
    "mean_pool": _bw_mean_pool,
    "sum": _bw_sum,
    "concat": _bw_concat,
    "mul": _bw_mul,
    "squared_error": _bw_squared_error,
    "cosine": _bw_cosine,
    "log": _bw_log,
    "exp": _bw_exp,
    "clamp": _bw_clamp,
    "gather_rows": _bw_gather_rows,
    "reduce_sum": _bw_reduce_sum,
    # input/const/stop_gradient intentionally absent: adjoint is zero.
}


def _acc(grads, idx, delta):
    if grads[idx] is None:
        grads[idx] = delta
    else:
        grads[idx] = grads[idx] + delta


def backward(graph: Graph, seed: Node) -> dict:
    """Adjoints of a size-1 seed w.r.t. every named input.

    Inputs unreachable from the seed get exact zero gradients.
    """
    sv = graph._values[seed.idx]
    if sv.size != 1:
        raise GraphError(f"backward seed must be scalar, got shape {sv.shape}")
    grads: list = [None] * graph.num_nodes
    grads[seed.idx] = np.ones_like(sv)
    for i in range(seed.idx, -1, -1):
        gr = grads[i]
        if gr is None:
            continue
        fn = _BACKWARD.get(graph._ops[i])
        if fn is not None:
            fn(graph, i, gr, grads)
            grads[i] = None     # spent: free it before the next node
    out = {}
    for name, i in graph._inputs.items():
        out[name] = grads[i] if grads[i] is not None else np.zeros_like(graph._values[i])
    return out


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
    """
    analytic = backward(graph, seed)
    shadow = graph.clone(np.float64)
    names = list(wrt) if wrt is not None else graph.input_names()
    base = {n: shadow._values[shadow._inputs[n]].copy() for n in names}

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
        for i in affected:
            _replay_node(shadow, i)
        return shadow._values[seed.idx].item()

    worst = 0.0
    for name in names:
        idx = shadow._inputs[name]
        affected = cone(idx)
        x = base[name]
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
        for i in affected:
            _replay_node(shadow, i)
    return worst


# ------------------------------------------------------- parameter dataclasses


def named_arrays(prefix: str, obj) -> dict:
    """Flatten a dataclass of ndarrays into an ordered {prefix.field: array}."""
    out = {}
    for f in dataclasses.fields(obj):
        out[f"{prefix}.{f.name}"] = getattr(obj, f.name)
    return out


def init_normal(rng: np.random.Generator, shape, scale) -> np.ndarray:
    """Float32 weights drawn as N(0, 1) * scale; every random init."""
    return (rng.normal(size=shape) * scale).astype(np.float32)


def init_block(rng: np.random.Generator, dim: int):
    """(mat, bias, gamma) makers for a width-``dim`` parameter block:
    ``mat()`` draws a (dim, dim) weight at scale 1/sqrt(dim); ``bias()``
    and ``gamma()`` return (1, dim) float32 rows of zeros and ones.  The
    order of the ``mat()`` calls fixes every tensor."""
    scale = 1.0 / np.sqrt(dim)
    return (lambda: init_normal(rng, (dim, dim), scale),
            lambda: np.zeros((1, dim), dtype=np.float32),
            lambda: np.ones((1, dim), dtype=np.float32))


def bind_arrays(graph: Graph, prefix: str, obj, trainable: bool = True):
    """Mirror a dataclass of ndarrays as graph leaves.

    Returns an instance of the same dataclass type whose fields hold the
    created Nodes: inputs named "<prefix>.<field>" when trainable, consts
    otherwise (no gradient, no rebinding).
    """
    kw = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if trainable:
            kw[f.name] = graph.input(f"{prefix}.{f.name}", value)
        else:
            kw[f.name] = graph.const(value)
    return type(obj)(**kw)
