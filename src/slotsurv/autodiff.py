"""Minimal reverse-mode autodiff over dense numpy arrays.

The engine exposes exactly the operations the survival model needs,
nothing generic. A Graph is built eagerly: every op computes its value
the moment its node is created, so data-dependent arrays (K-hot gate
selections, gather indices) can be derived mid-build from values
already in the graph. A graph is built once and differentiated once:
``backward`` runs the adjoint rules in reverse creation order, which is
topological. The eager build is the only evaluation path: a replay under
new inputs would keep those arrays frozen.

Values are numpy arrays, float32 by default, float64 when a graph is
constructed with dtype=np.float64 (used by gradient-check tests).
Scalars are 0-d arrays, and a leaf keeps its value's rank: a 0-d
constant stays 0-d. Stored values are never mutated in place: a
forward kernel or adjoint helper writes in place only into arrays it
allocated itself, never into a parent's value, a saved intermediate or
an adjoint it was handed, and with the same float operations in the same
order as the out-of-place expression, so the bits are the same.

Each op has one forward kernel in ``_FORWARD`` and one adjoint rule in
``_BACKWARD``. The eager build runs each kernel through one helper that
casts to the graph dtype and applies the non-finite guard; a
``Graph.<op>`` method only checks shapes and counts multiply-adds. Five
ops fuse a chain of others into one node, to save the per-node cost
where the model repeats the chain: ``affine``, ``slot_encode``,
``cross_attend``, ``self_attend`` and ``decode``. The per-op chains they
replace need six ops the program never records (transpose, col_softmax,
reciprocal, gru_cell, gather_rows and layer_norm); the tests keep those
in ``tests/oracles.py``, which adds their kernels and adjoint rules to
these tables when imported, beside ``reduce_sum``, with which the
gradient tests reduce a loss to a 0-d seed, and ``stop_gradient``, the
identity with a zero adjoint. The fused kernels call the chain's
kernels in the chain's order, and their adjoint rules call the same
array-level adjoint helpers as the chain's rules, in reverse, handing
each parent its contributions in the chain's order, so values
and gradients have the chain's bits; ``slot_encode``'s adjoint is the
first-order one of its chain (below). ``cross_attend`` runs both
directions of a round in one pass over the stacked rows of its two slot
sets, where its chain runs one per direction; BLAS forms each row of a
matrix product alone, so the rows have the chain's bits, unless a set of
one patient has one slot: the chain's products of that one row run as
matrix-vector products, which may round otherwise. ``slot_encode``'s
iterations and ``cross_attend``'s rounds end in the same GRU ->
residual-MLP tail, the three attention ops in the same residual MLP, and
``cross_attend``, ``self_attend`` and ``decode`` in the same attention
head, each with one forward and one adjoint helper.

The non-finite guard always runs. Inputs and constants are checked when
bound; with ``inputs`` (and ``bind_arrays``, which binds any number of
parameter dataclasses through one call of it) a whole parameter set is
checked at once, and only when that fails leaf by leaf, to name the
tensor. Every op output is checked, except for ops that map finite
inputs to finite outputs (reshape, concat, relu, clamp, sigmoid and
row_softmax).
Inside the fused attention ops the values that feed a kernel able to
hide a non-finite entry are checked: the logits (softmax
maps -inf to 0), in ``slot_encode`` the attention mass (reciprocal maps
inf to 0), in ``slot_encode`` and ``cross_attend`` the GRU input, which
in ``cross_attend`` is the attention output (its sigmoid and tanh
saturate), and the MLP pre-activation (relu maps -inf to 0). The other
intermediates feed only products and sums with finite operands, which
carry a non-finite entry on to a checked value. ``slot_encode`` also
checks what its chain's nodes output: the bag's layer norm, the keys,
the values and each iteration's slots, and ``cross_attend`` each
round's slots; ``decode`` checks every value its chain's nodes output but
the attention and the relu.

Which adjoints ``backward`` computes. When a node is recorded, the graph
notes whether it needs an adjoint: an input does, and so does every node
with a parent that does. A constant, and every node built from
constants alone (bags, noise, targets), does not. ``backward``
skips the nodes that need none, and each adjoint rule forms an operand's
adjoint only when that operand needs one: a constant bag fed to a weight
costs no ``grad @ W^T``. A fused rule runs when any operand needs an
adjoint; it then forms every adjoint inside its chain (``cross_attend``
the adjoints of each round's rows, which every chain node needs when any
operand does), and prunes only its operands'; the arrays in its aux,
such as the instance mask, take none.
A skipped adjoint could only have flowed into constants, so every input
gradient keeps the same terms in the same order and the same bits.

How ``backward`` accumulates. A node's adjoint is the sum of one
contribution per use, added in the order the uses are visited. The first
contribution is stored as given: it may be an array another node also
holds, since ``add``, ``reshape`` and ``concat`` hand their own
adjoint, or a view of it, to their operands (and the fused ops hand a
bias the adjoint of the rows it is added to when their shapes match). The
second allocates the sum, and the call records that it owns this buffer.
Each later contribution of the same shape and dtype is added into the
owned buffer in place. The record lives only for one ``backward`` call,
and an array the call did not allocate (a node value, the seed, a view,
an adjoint shared by several nodes) is never written. In-place and
allocated sums have the same bits.

Shapes. One patient's tensors are 2-d (rows, d); a batch of patients
stacks them along a leading axis, (B, rows, d). Ops act on trailing
axes, so one model builder serves both:

* matmul: (m, k) @ (k, n); batched (B, m, k) @ (B, k, n); a shared 2-d
  operand on either side broadcasts over the batch. A weight shared by
  a 3-d left operand runs as one product over all B*m rows. With k = 1
  the product is a broadcast multiply, with BLAS's bits.
* add, mul: numpy broadcasting; the adjoint sums back down to each
  operand's shape (one unbroadcast helper; a (1, d) bias row is the
  common case).
* reshape keeps the entries; it turns (.., S, 1) score columns into
  (.., 1, S) rows, the program's only transposes.
* row_softmax: along the last axis.
* mean_pool: mean over the second-to-last axis; sum: keep-dims sum
  along one axis (a batch's (B,) losses sum to (1,), which reshape makes
  the 0-d loss).
* squared_error, cosine: mean over the last two axes, 0-d for 2-d
  operands and one value per batch entry, (B,), for 3-d ones.
* concat along any axis of two equal-rank operands.
* elementwise: scale, sigmoid, relu, log, exp, clamp.
* affine: x @ w + b, the matmul shapes, with a bias that broadcasts into
  the product without enlarging it (a (1, n) row).
* slot_encode: a slot encoder, T slot-attention iterations over a bag.
  From the bag (.., M, d) and the initial slots (.., S, d), with the
  same leading axes, the instance mask, an array (.., M, 1) kept in the
  node's aux beside T and the scale 1/sqrt(d), as the other attention
  ops keep theirs, and nineteen weights: the bag layer norm's gain
  and shift, (1, d) each, w_k, w_v, the slots' (1, d) layer-norm gain,
  w_q, the nine GRU weights and the MLP's w1, b1, w2, b2. The bag part
  runs once: y = layer_norm(bag); keys = (y @ w_k)^T * 1/sqrt(d), (.., d,
  M), a transposed copy; values = y @ w_v, times the mask, (.., M, d); an
  unpadded bag's mask is all ones, which leaves every bit as it is. Then
  each iteration: layer norm of the slots with gain only -> @ w_q -> @
  keys -> col_softmax = alpha (.., S, M); u = (alpha @ values) * 1 /
  (alpha @ mask + 1e-8), the weighted mean; slots' = gru_cell(u, slots);
  slots'' = slots' + affine(relu(affine(slots', w1, b1)), w2, b2), (.., S,
  d), which the next iteration starts from. The slots' layer norm has no
  shift: it would add one row to every slot's query, which the softmax
  over slots cancels.
  The gradient is first-order: the adjoint differentiates the last
  iteration alone and hands the adjoint of that iteration's input slots
  (GRU state, then layer norm) to the initial slots, as if the first
  T - 1 iterations were the identity. That is the straight-through form
  slots_{T-1} = sg(slots_{T-1}) + init - sg(init), with sg the stop
  gradient, so the initial slots' mean and spread still learn (Jia et
  al., "Improving Object-centric Learning with Query Optimization", ICLR
  2023). It is the first-order estimate of a fixed point's implicit
  gradient (Chang et al., "Object Representations as Fixed Points",
  NeurIPS 2022; Fung et al., "JFB: Jacobian-Free Backpropagation for
  Implicit Networks", AAAI 2022), but the iterations reach no fixed
  point: at T = 3 the last still moves the slots by 0.39-0.44 of their
  norm (``slots`` gives the figures). It is kept as a measured trade-off:
  backpropagating through all T iterations would cost T times the
  adjoint of one, and at T = 1 the two are the same. The exact gradient
  through all T lives in ``tests/oracles.py`` alone.
  Of the bag-sized arrays the node keeps only two, the keys and the
  values. Of the bag's layer norm it keeps the inverse deviations and
  the row means, two (.., M, 1) rows; after the iteration the adjoint
  forms the normalized bag and y again from the bag and those rows. Of
  the T iterations it keeps the last alone (the first T - 1 keep
  nothing): its (.., S, M) attention map, which ``slot_attention`` reads
  back, two slot-sized buffers, the input slots and alpha @ values, and
  three (.., S, 1) rows: the layer norm's inverse deviations and row
  means and the mass's reciprocal. The adjoint rebuilds from those the
  layer norm's normalized rows, its output, q and the GRU input; then it
  runs the GRU again for its gates, r * h and output, and the MLP's
  first layer. Each rebuild runs the forward's kernels in the forward's
  order, so the rebuilt arrays have the forward's bits.
* cross_attend: L cross-attention rounds between two slot sets. From
  slots_h (.., S_h, d) and slots_g (.., S_g, d) with the same leading
  axes, L and the scale in the aux, and sixteen weights shared by every
  round and both directions (w_q, w_k, w_v, the nine GRU weights and the
  MLP's w1, b1, w2, b2), with x = [h; g] (.., S_h + S_g, d), each
  round: q, k, v = x @ w_q, x @ w_k, x @ w_v; attn_h = row_softmax((q_h
  @ k_g^T) * 1/sqrt(d)), (.., S_h, S_g), and attn_g likewise, k^T a transposed copy; x' =
  gru_cell([attn_h @ v_g; attn_g @ v_h], x); x'' = x' + affine(relu(
  affine(x', w1, b1)), w2, b2), the next round's x. The value is the last
  x. Its chain is, per round, a 13-node update per direction, and the
  concat of the refined sets. Per round it keeps x, v, both k^T and both
  attn; the adjoint runs round L first, the g direction before the h
  direction, and rebuilds each direction's q and attn @ v and runs its
  GRU and the MLP's first layer again, with the forward's kernels.
* self_attend: self-attention among K selected rows of each set. From
  slots (.., S, d), the K-hot selection over each set's S rows, an array
  of n*S entries with n the product of the leading axes and the same K
  >= 1 in every set (kept in the node's aux as its flat row indices,
  ascending, with the scale), and seven weights: w_q, w_k, w_v and the
  MLP's w1, b1, w2, b2: sel = the selected rows, (.., K, d); q, k, v =
  sel @ w_q, sel @ w_k, sel @ w_v; attn = row_softmax((q @ k^T) *
  1/sqrt(d)), (.., K, K), k^T a transposed copy; x = sel + attn @ v;
  refined = x + affine(relu(affine(x, w1, b1)), w2, b2); out = slots with
  the selected rows replaced by refined, the others passed through
  exactly, (.., S, d).
* decode: a reconstruction head, slots decoded at M query rows. From
  slots (.., S, d) and queries (.., M, d) with the same leading axes, or
  (M, d) shared by every set of slots, and thirteen weights in
  ``ReconHeadParams`` order: w_q, w_k, w_v, the MLP's w1, b1, w2, b2 and
  the (1, d) gains and shifts of three layer norms (queries, slots,
  attended queries): q = layer_norm(queries) @ w_q; k, v =
  layer_norm(slots) @ w_k, @ w_v; attn = row_softmax((q @ k^T) *
  1/sqrt(d)), (.., M, S), k^T a transposed copy; x = queries + attn @ v;
  out = x + affine(relu(affine(layer_norm(x), w1, b1)), w2, b2), (.., M,
  d). Of the arrays with a row per query row it keeps five, the output
  included: q, attn, the normalized rows of x and the MLP's hidden layer.
  Of the layer norms of the queries and of the slots it keeps the
  inverse deviations and the row means; the adjoint forms their
  normalized rows again from the queries, the slots and those, and all
  three layer norms' outputs from the normalized rows, for the w_q, w_k,
  w_v and w1 adjoints, with the forward's kernels, so with its bits.

Multiply-add accounting (used by the complexity checks): matmul counts
B*m*k*n (B = 1 when unbatched); the GRU cell counts its six matmuls plus
ten elementwise passes per row; layer norm 4 per element; softmaxes 3
per element; squared_error 2 and cosine 4 per input element; add and mul
1 per element of the broadcast output; the other elementwise ops,
mean_pool and sum 1 per input element; pure data movement
(reshape, concat, the chain's transpose, gather and stop_gradient)
counts zero. A fused op counts what its chain counts: affine a matmul
plus an add, slot_encode the sum over its chain (for the bag, with B*M
rows: 4 B*M*d for the layer norm, 2 B*M*d*d for k and v, B*M*d each for
the key scale and the mask; for each of the T iterations, with B*S rows:
4 B*S*d for the layer norm, B*S*d*d for q, 2 B*S*d*M for the logits and
alpha @ values, 3 B*S*M for the softmax, the GRU cell, 2 (B*S*d*d +
B*S*d) for the MLP layers, B*S*d each for relu and the residual, and
B*S*M + 2 B*S + B*S*d for the mass, its floor, the reciprocal and the
rescale), and cross_attend the sum over its chain (per round, with R =
B*(S_h + S_g) rows and P = B*S_h*S_g pairs: 3 R*d*d for q, k and v, 4
P*d for both directions' logits and attn @ v, 8 P for their scale and
row softmax, and the same GRU cell, MLP, relu and residual counts as a
slot_encode iteration's over the R rows; the concat counts zero), and
self_attend the sum
over its chain (with R = n*K selected rows: 5 R*d*d for the q, k and v
projections and the two MLP layers, 2 R*K*d for the logits and attn @ v,
4 R*K for the scale and the row softmax, and 5 R*d for the attention
residual, the two MLP biases, the relu and the MLP residual; its gather
and scatter count zero), and decode the sum over its chain (with R = n*M
output rows, R_q query rows and R_s slot rows: 4 R_q*d + R_q*d*d for the
queries' layer norm and q, 4 R_s*d + 2 R_s*d*d for the slots' layer
norm, k and v, 2 R*S*d for the logits and attn @ v, 4 R*S for the scale
and the row softmax, 2 R*d*d for the MLP layers and 9 R*d for the
attention residual, the layer norm, the two MLP biases, the relu and the
MLP residual).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "Node",
    "OP_KINDS",
    "backward",
    "bind_arrays",
    "init_block",
    "init_normal",
    "init_weight",
    "named_arrays",
    "zero_row",
]

_LN_EPS = 1e-5
_COS_TINY = 1e-12
_AGG_EPS = 1e-8                 # slot_encode: floor of the attention mass


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


def _sigmoid(x, out=None):
    """Logistic function without branches or overflow: each entry is
    1/(1+e^-x) for x >= 0 and e^x/(1+e^x) for x < 0, from one exponential
    e = e^-|x|: the numerator max(e, x >= 0) is 1 where x >= 0 (e <= 1
    there) and e elsewhere.  The result goes into ``out`` (which may be x
    itself) or a new array."""
    e = np.empty_like(x)                # arrays, even where x is 0-d
    np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    y = np.maximum(e, x >= 0, out=np.empty_like(x) if out is None else out)
    e += 1.0
    y /= e
    return y


# Weight layouts of the fused ops: "w" is a (d, d) weight and "b" a (1, d)
# row.  The MLP is (w1, b1, w2, b2), and the GRU -> residual-MLP tail the
# nine GRU weights in ``_gru_fwd``'s argument order, then the MLP's.
_MLP_LAYOUT = "wbwb"
_TAIL_LAYOUT = "wwb" * 3 + _MLP_LAYOUT
# bag ln gain and shift, w_k, w_v, slot ln gain, w_q, tail
_ENCODE_LAYOUT = "bbww" + "bw" + _TAIL_LAYOUT
_CROSS_LAYOUT = "www" + _TAIL_LAYOUT            # w_q, w_k, w_v, tail
_SELF_ATTEND_LAYOUT = "www" + _MLP_LAYOUT       # w_q, w_k, w_v, MLP
# w_q, w_k, w_v, MLP, three layer norms' gains and shifts
_DECODE_LAYOUT = "www" + _MLP_LAYOUT + "bb" * 3


@functools.cache
def _layout_shapes(layout: str, d: int) -> tuple:
    return tuple((d, d) if c == "w" else (1, d) for c in layout)


def _fused_weights(op: str, weights: tuple, layout: str, d: int) -> tuple:
    """A fused op's weights, checked against their ``layout`` at width d."""
    shapes = tuple([w.shape for w in weights])
    if shapes != _layout_shapes(layout, d):
        raise GraphError(f"{op} weights {shapes}, "
                         f"want {_layout_shapes(layout, d)}")
    return weights


def _tail_madds(rows: int, d: int) -> int:
    """What a GRU -> residual-MLP tail's chain counts over ``rows`` rows:
    per row 6 d*d + 10 d for the GRU cell, d*d + d for each affine layer
    and d each for the relu and the residual add."""
    return rows * (8 * d * d + 14 * d)


def _attention_scale(d: int) -> float:
    """1/sqrt(d), every attention op's logit scale at width d."""
    return float(1.0 / np.sqrt(d))


class Graph:
    """Eagerly evaluated op graph, recorded for one backward pass."""

    def __init__(self, dtype=np.float32):
        if dtype not in (np.float32, np.float64):
            raise GraphError(f"unsupported dtype {dtype!r}")
        self.dtype = np.dtype(dtype)
        self._ops: list[str] = []
        self._parents: list[tuple] = []
        self._aux: list = []          # static per-node attributes
        self._values: list = []       # node values
        self._saved: list = []        # per-run intermediates for backward
        self._madds: list[int] = []
        self._needs_grad: list[bool] = []   # an input is reachable backwards
        self._inputs: dict[str, int] = {}

    # ---------------------------------------------------------------- leaves

    def input(self, name: str, value) -> Node:
        """Declare a named, differentiable leaf with its value."""
        return self.inputs({name: value})[name]

    def inputs(self, named: dict) -> dict:
        """Declare several named leaves at once, in the mapping's order,
        with one non-finite check over all of them; when it fails, the
        per-leaf check names the first bad tensor.  Returns {name: Node}."""
        for name in named:
            if name in self._inputs:
                raise GraphError(f"duplicate input name {name!r}")
        arrays = {name: self._cast(value) for name, value in named.items()}
        if arrays and not np.isfinite(np.concatenate(
                [a.ravel() for a in arrays.values()])).all():
            for name, arr in arrays.items():
                self._coerce(arr, f"input {name!r}")
        nodes = {}
        for name, arr in arrays.items():
            nodes[name] = self._append("input", (), aux=name, value=arr)
            self._inputs[name] = nodes[name].idx
        return nodes

    def const(self, value) -> Node:
        """A fixed leaf, never differentiated."""
        return self._append("const", (), value=self._coerce(value, "const"))

    # ------------------------------------------------------------------- ops

    def matmul(self, a: Node, b: Node) -> Node:
        _, madds = self._matmul_shape(a, b)
        return self._append("matmul", (a.idx, b.idx), madds=madds)

    def affine(self, x: Node, w: Node, b: Node) -> Node:
        """x @ w + b as one node; the bias broadcasts into the product's
        shape without enlarging it (a (1, n) row is the common case)."""
        shape, madds = self._matmul_shape(x, w)
        try:
            fits = np.broadcast_shapes(shape, b.shape) == shape
        except ValueError:
            fits = False
        if not fits:
            raise GraphError(f"affine bias {b.shape} does not fit {shape}")
        return self._append("affine", (x.idx, w.idx, b.idx),
                            madds=madds + math.prod(shape))

    def reshape(self, a: Node, shape) -> Node:
        """Same entries in another shape; ``a`` itself when the shape already
        matches, so unbatched callers pay no node."""
        shape = tuple(int(n) for n in shape)
        if a.shape == shape:
            return a
        if math.prod(shape) != a.value.size:
            raise GraphError(f"cannot reshape {a.shape} to {shape}")
        return self._append("reshape", (a.idx,), aux=shape)

    def add(self, a: Node, b: Node) -> Node:
        shape = self._broadcast("add", a, b)
        return self._append("add", (a.idx, b.idx), madds=math.prod(shape))

    def scale(self, a: Node, c: float) -> Node:
        return self._append("scale", (a.idx,), aux=float(c), madds=a.value.size)

    def row_softmax(self, a: Node) -> Node:
        """Softmax along the last axis."""
        va = a.value
        if va.ndim not in (2, 3):
            raise GraphError(
                f"row_softmax needs a 2-d or 3-d operand, got {va.shape}")
        return self._append("row_softmax", (a.idx,), aux=-1,
                            madds=3 * va.size)

    def sigmoid(self, a: Node) -> Node:
        return self._append("sigmoid", (a.idx,), madds=a.value.size)

    def relu(self, a: Node) -> Node:
        return self._append("relu", (a.idx,), madds=a.value.size)

    def slot_encode(self, bag: Node, ones, slots: Node, ln_gamma: Node,
                    ln_beta: Node, w_k: Node, w_v: Node, slot_gamma: Node,
                    w_q: Node, gru: tuple, mlp: tuple,
                    t_iters: int) -> Node:
        """A whole slot encoder as one node (see the module docstring):
        the ``bag`` (.., M, d), the instance mask ``ones``, an array
        (.., M, 1) the node keeps beside T, and the initial ``slots``
        (.., S, d) share their leading axes; ``ln_gamma`` and ``ln_beta``
        are the bag layer norm's (1, d) gain and shift, ``slot_gamma`` the
        slots' (1, d) gain, ``gru`` the nine GRU weights in ``_gru_fwd``'s
        argument order and ``mlp`` is (w1, b1, w2, b2).  The values are
        multiplied by the mask: it zeroes a padded batch's padded rows,
        and an unpadded bag's is all ones."""
        bs, ss = bag.shape, slots.shape
        ones = self._cast(ones)
        if (len(bs) not in (2, 3) or len(ss) != len(bs)
                or ss[:-2] + ss[-1:] != bs[:-2] + bs[-1:]
                or bs[-2] < 1 or ss[-2] < 1
                or ones.shape != bs[:-1] + (1,)):
            raise GraphError(f"slot_encode shapes: bag {bs}, ones "
                             f"{ones.shape}, slots {ss}")
        t_iters = int(t_iters)
        if t_iters < 1:
            raise GraphError(
                f"slot_encode: t_iters must be >= 1, got {t_iters}")
        lead, (m, d), s = bs[:-2], bs[-2:], ss[-2]
        weights = _fused_weights(
            "slot_encode", (ln_gamma, ln_beta, w_k, w_v, slot_gamma, w_q,
                            *gru, *mlp), _ENCODE_LAYOUT, d)
        n = math.prod(lead)
        rows = n * s
        # the per-op counts of the chain the node replaces
        bag_madds = (4 * n * m * d                      # layer norm
                     + 2 * n * m * d * d                # k, v
                     + 2 * n * m * d)                   # key scale, mask
        step_madds = (4 * rows * d                      # layer norm
                      + rows * d * d + 2 * rows * d * m  # q, logits, alpha @ v
                      + 3 * rows * m                    # column softmax
                      + rows * m + 2 * rows + rows * d  # mass, floor, 1/., *
                      + _tail_madds(rows, d))
        parents = (bag, slots, *weights)
        return self._append("slot_encode", tuple(p.idx for p in parents),
                            aux=(t_iters, ones, _attention_scale(d)),
                            madds=bag_madds + t_iters * step_madds)

    def cross_attend(self, slots_h: Node, slots_g: Node, w_q: Node,
                     w_k: Node, w_v: Node, gru: tuple, mlp: tuple,
                     l_iters: int) -> Node:
        """All L cross-attention rounds as one node (see the module
        docstring): ``slots_h`` (.., S_h, d) and ``slots_g`` (.., S_g, d),
        with the same leading axes, attend to each other; ``gru`` holds
        the nine GRU weights in ``_gru_fwd``'s argument order and ``mlp``
        is (w1, b1, w2, b2).  The value is the refined rows [h; g],
        (.., S_h + S_g, d)."""
        vh, vg = slots_h.value, slots_g.value
        if (vh.ndim not in (2, 3) or vg.ndim != vh.ndim
                or vg.shape[:-2] != vh.shape[:-2]
                or vg.shape[-1] != vh.shape[-1]
                or vh.shape[-2] < 1 or vg.shape[-2] < 1):
            raise GraphError(f"cross_attend shapes: slots_h {vh.shape}, "
                             f"slots_g {vg.shape}")
        l_iters = int(l_iters)
        if l_iters < 1:
            raise GraphError(
                f"cross_attend: l_iters must be >= 1, got {l_iters}")
        lead, (s_h, d), s_g = vh.shape[:-2], vh.shape[-2:], vg.shape[-2]
        weights = _fused_weights("cross_attend", (w_q, w_k, w_v, *gru, *mlp),
                                 _CROSS_LAYOUT, d)
        n = math.prod(lead)
        rows, pairs = n * (s_h + s_g), n * s_h * s_g
        # the per-op counts of the chain the node replaces, both directions
        round_madds = (3 * rows * d * d               # q, k, v
                       + 4 * pairs * d                # logits, attn @ v
                       + 8 * pairs                    # scale, row softmax
                       + _tail_madds(rows, d))
        parents = (slots_h, slots_g, *weights)
        return self._append("cross_attend", tuple(p.idx for p in parents),
                            aux=(l_iters, _attention_scale(d)),
                            madds=l_iters * round_madds)

    def self_attend(self, slots: Node, hot, w_q: Node, w_k: Node,
                    w_v: Node, mlp: tuple) -> Node:
        """Self-attention among selected rows as one node (see the module
        docstring): ``slots`` is (.., S, d) and ``hot`` the K-hot
        selection over each set's S rows, an array of n*S entries, last
        axis S, with n the product of the leading axes; ``mlp`` is (w1,
        b1, w2, b2).  Every set must select the same K >= 1 rows."""
        vs, hot = slots.value, np.asarray(hot)
        n = math.prod(vs.shape[:-2])
        counts = (hot.reshape(-1, hot.shape[-1]).sum(axis=1)
                  if vs.ndim in (2, 3) and hot.shape[-1:] == vs.shape[-2:-1]
                  else np.zeros(0))
        if not (counts.size == n > 0 and np.isin(hot, (0, 1)).all()
                and counts[0] >= 1 and (counts == counts[0]).all()):
            raise GraphError(f"self_attend shapes: slots {vs.shape}, selection "
                             f"{hot.shape}; want K-hot sets, one K >= 1")
        k, d = int(counts[0]), vs.shape[-1]
        weights = _fused_weights("self_attend", (w_q, w_k, w_v, *mlp),
                                 _SELF_ATTEND_LAYOUT, d)
        rows = n * k
        # the per-op counts of the chain the node replaces
        madds = (5 * rows * d * d                     # q, k, v, MLP layers
                 + 2 * rows * k * d                   # logits, attn @ v
                 + 4 * rows * k                       # scale, row softmax
                 + 5 * rows * d)                      # adds, biases, relu
        return self._append("self_attend",
                            tuple(p.idx for p in (slots, *weights)),
                            aux=(np.flatnonzero(hot), _attention_scale(d)),
                            madds=madds)

    def decode(self, queries: Node, slots: Node, w_q: Node, w_k: Node,
               w_v: Node, ffn_w1: Node, ffn_b1: Node, ffn_w2: Node,
               ffn_b2: Node, ln_q_gamma: Node, ln_q_beta: Node,
               ln_s_gamma: Node, ln_s_beta: Node, ln_f_gamma: Node,
               ln_f_beta: Node) -> Node:
        """A reconstruction head as one node (see the module docstring):
        ``slots`` (.., S, d) decoded at ``queries`` (.., M, d) with the
        same leading axes, or (M, d) shared by every set of slots."""
        qs, ss = queries.shape, slots.shape
        if (len(ss) not in (2, 3) or len(qs) < 2
                or qs[:-2] not in ((), ss[:-2]) or qs[-1] != ss[-1]
                or qs[-2] < 1 or ss[-2] < 1):
            raise GraphError(f"decode shapes: queries {qs}, slots {ss}")
        (m, d), s = qs[-2:], ss[-2]
        weights = _fused_weights(
            "decode", (w_q, w_k, w_v, ffn_w1, ffn_b1, ffn_w2, ffn_b2,
                       ln_q_gamma, ln_q_beta, ln_s_gamma, ln_s_beta,
                       ln_f_gamma, ln_f_beta), _DECODE_LAYOUT, d)
        q_rows, s_rows = math.prod(qs[:-1]), math.prod(ss[:-1])
        rows = math.prod(ss[:-2]) * m
        # the per-op counts of the chain the node replaces
        madds = (4 * q_rows * d + q_rows * d * d      # layer norm, q
                 + 4 * s_rows * d + 2 * s_rows * d * d  # layer norm, k, v
                 + 2 * rows * s * d                   # logits, attn @ v
                 + 4 * rows * s                       # scale, row softmax
                 + 2 * rows * d * d + 9 * rows * d)   # MLP, adds, layer norm
        parents = (queries, slots, *weights)
        return self._append("decode", tuple(p.idx for p in parents),
                            aux=_attention_scale(d), madds=madds)

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
        if va.shape[:axis] + va.shape[axis + 1:] \
                != vb.shape[:axis] + vb.shape[axis + 1:]:
            raise GraphError(
                f"concat shape mismatch {va.shape} | {vb.shape} axis {axis}")
        return self._append("concat", (a.idx, b.idx), aux=axis)

    def mul(self, a: Node, b: Node) -> Node:
        shape = self._broadcast("mul", a, b)
        return self._append("mul", (a.idx, b.idx), madds=math.prod(shape))

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

    # ------------------------------------------------------------- utilities

    @property
    def num_nodes(self) -> int:
        return len(self._ops)

    def total_madds(self) -> int:
        return sum(self._madds)

    def slot_attention(self, node: Node) -> np.ndarray:
        """The column-stochastic attention (.., S, M) of a slot_encode
        node's last iteration, read back from its saved intermediates."""
        if self._ops[node.idx] != "slot_encode":
            raise GraphError("slot_attention applies to slot_encode nodes")
        return self._saved[node.idx].step.alpha

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

    def _matmul_shape(self, a: Node, b: Node) -> tuple:
        """Checked output shape and multiply-adds of a @ b."""
        sa, sb = a.shape, b.shape
        if (len(sa) not in (2, 3) or len(sb) not in (2, 3)
                or sa[-1] != sb[-2]
                or (len(sa) == len(sb) == 3 and sa[0] != sb[0])):
            raise GraphError(
                f"matmul shape mismatch {sa} @ {sb} (node {self._next_id()})")
        lead = sa[:-2] or sb[:-2]
        batch = lead[0] if lead else 1
        return lead + (sa[-2], sb[-1]), batch * sa[-2] * sa[-1] * sb[-1]

    def _cast(self, value) -> np.ndarray:
        """``value`` as a C-contiguous array of the graph dtype, of the
        same rank: a 0-d value stays 0-d."""
        return np.asarray(value, dtype=self.dtype, order="C")

    def _coerce(self, value, what: str) -> np.ndarray:
        arr = self._cast(value)
        if not np.isfinite(arr).all():
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
        self._needs_grad.append(
            op == "input" or any(map(self._needs_grad.__getitem__, parents)))
        return Node(self, len(self._ops) - 1)


# ------------------------------------------------------------ forward kernels
#
# A kernel takes the node's aux and its parents' values and returns the
# value, or (value, saved intermediates) for the ops whose adjoint reads
# them back.  Parent values always carry the graph dtype.

def _softmax(axis, x, out=None):
    e = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _matmul(a, b, out=None):
    """a @ b, into ``out`` (a C-contiguous array of the product's shape)
    when it is given, with the same bits."""
    if a.shape[-1] == 1:
        # rank-1 product: each entry is one product, as BLAS forms it;
        # adding +0 turns a -0 product into BLAS's +0
        out = np.multiply(a, b, out=out)
        out += 0
        return out
    if a.ndim == 3 and b.ndim == 2 and a.shape[0] > 1:
        # a weight shared by every batch entry: one product over all rows
        if out is not None:
            out = out.reshape(-1, b.shape[-1])
        rows = np.matmul(a.reshape(-1, a.shape[-1]), b, out=out)
        return rows.reshape(a.shape[:-1] + b.shape[-1:])
    return np.matmul(a, b, out=out)


def _affine_fwd(_, x, w, b):
    out = _matmul(x, w)
    out += b
    return out


def _relu(x, out=None):
    return np.maximum(x, 0, out=out)


def _mean(x, axis):
    """Keep-dims mean over ``axis`` (an int or a tuple): the sum, divided
    in place by the count.  ``ndarray.mean`` runs the same reduction and
    one division, so the bits are the same, without its Python-level
    dispatch."""
    out = np.add.reduce(x, axis=axis, keepdims=True)
    out /= x.size // out.size
    return out


def _normalize(x, scratch=None):
    """Rows of x centred and scaled to unit variance along the last axis,
    the inverse standard deviations and the row means.  The squares go
    into ``scratch`` (an array of x's shape) when it is given."""
    mean = _mean(x, -1)
    xhat = x - mean
    var = _mean(np.square(xhat, out=scratch), -1)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv
    return xhat, inv, mean


def _renormalize(x, inv, mean):
    """The rows ``_normalize`` returned for x, formed again in a new array
    from x and the inverse deviations and row means it returned: its
    kernels in its order, so the rows have its bits."""
    xhat = x - mean
    xhat *= inv
    return xhat


def _gru_fwd(_, x, h, wz, uz, bz, wr, ur, br, wn, un, bn):
    # row-wise: leading axes are flattened into rows
    shape = x.shape
    if x.ndim != 2:
        x, h = x.reshape(-1, shape[-1]), h.reshape(-1, shape[-1])
    # the z and r pre-activations fill the halves of one new buffer, so
    # one sigmoid maps both in place
    zr = np.empty((2,) + x.shape, dtype=x.dtype)
    z, r = zr
    np.matmul(x, wz, out=z)
    z += h @ uz
    z += bz
    np.matmul(x, wr, out=r)
    r += h @ ur
    r += br
    _sigmoid(zr, out=zr)
    rh = r * h
    n = x @ wn
    n += rh @ un
    n += bn
    np.tanh(n, out=n)
    out = 1.0 - z                       # z * h + (1 - z) * n
    out *= n
    out += z * h
    return out.reshape(shape), (z, r, n, rh)


class _StepSaved(typing.NamedTuple):
    """The last slot-attention iteration's intermediates.  Besides its
    input slots (``_EncodeSaved.state``) it keeps one slot-sized buffer,
    u_raw, the (.., S, 1) rows of its layer norm and mass, and the map.
    The adjoint rebuilds the normalized slots, q and u = u_raw * rec, and
    its GRU -> residual-MLP tail reruns the GRU (``_gru_mlp_adj``)."""

    inv: np.ndarray         # layer norm's inverse deviations, (.., S, 1)
    mean: np.ndarray        # and its row means
    alpha: np.ndarray       # (.., S, M) column-stochastic attention
    u_raw: np.ndarray       # alpha @ values
    rec: np.ndarray         # 1 / (alpha @ ones + eps)


class _EncodeSaved(typing.NamedTuple):
    """A slot_encode node's intermediates: of the bag-sized arrays, only the
    keys and the values, and of the T iterations only the last, which the
    first-order adjoint differentiates (its map is the one
    ``slot_attention`` reads).  The bag layer norm keeps its inverse
    deviations and row means alone: the adjoint forms its normalized rows
    and output again from the bag (``_renormalize``)."""

    inv: np.ndarray         # bag layer norm's inverse deviations, (.., M, 1)
    mean: np.ndarray        # and its row means, (.., M, 1)
    keys_t: np.ndarray      # (y @ w_k) transposed and scaled, (.., d, M)
    values: np.ndarray      # y @ w_v times the mask, (.., M, d)
    state: np.ndarray       # the last iteration's input slots, (.., S, d)
    step: _StepSaved        # the last iteration's intermediates


class _CrossSaved(typing.NamedTuple):
    """A cross_attend node's intermediates, one entry per round: its input
    rows, their values, each set's keys and each direction's map.  The
    adjoint rebuilds each direction's q and GRU input attn @ v from those,
    and its tail reruns the GRU (``_gru_mlp_adj``)."""

    states: tuple           # the round's input rows [h; g], (.., S_h + S_g, d)
    keys_t: tuple           # (h's keys, g's keys), each a transposed copy
    v: tuple                # the values of the rows [h; g]
    attn: tuple             # (h over g, (.., S_h, S_g); g over h)


class _AttendSaved(typing.NamedTuple):
    """A self_attend node's intermediates."""

    sel: np.ndarray         # the selected rows, (.., K, d)
    q: np.ndarray
    keys_t: np.ndarray      # (sel @ w_k) transposed, a contiguous copy
    v: np.ndarray
    attn: np.ndarray        # (.., K, K) row-stochastic attention
    x: np.ndarray           # sel + attn @ v, the MLP input
    hidden: np.ndarray      # relu of the first MLP layer


class _DecodeSaved(typing.NamedTuple):
    """A decode node's intermediates: of the arrays with a row per query
    row, only the four its adjoint reads, and none with a row per slot but
    k^T and v.  The layer norms of the queries and of the slots keep their
    inverse deviations and row means alone: the adjoint forms their
    normalized rows again from the queries and the slots
    (``_renormalize``)."""

    inv_q: np.ndarray       # queries' layer norm's inverse deviations
    mean_q: np.ndarray      # and its row means
    inv_s: np.ndarray       # the slots' layer norm's, (.., S, 1)
    mean_s: np.ndarray
    q: np.ndarray
    keys_t: np.ndarray      # k transposed, a contiguous copy, (.., d, S)
    v: np.ndarray
    attn: np.ndarray        # (.., M, S) row-stochastic attention
    xhat_f: np.ndarray      # the MLP's layer norm
    inv_f: np.ndarray
    hidden: np.ndarray      # relu of the first MLP layer


def _guard(x, what: str, op: str) -> None:
    if not np.isfinite(x).all():
        raise GraphError(f"non-finite {what} in {op}")


def _mlp_fwd(op, x, w1, b1, w2, b2):
    """The residual MLP every fused attention op ends in: out = x +
    affine(relu(affine(x, w1, b1)), w2, b2).  It checks the
    pre-activation (relu maps -inf to 0); returns out and the hidden
    layer."""
    pre = _affine_fwd(None, x, w1, b1)
    _guard(pre, "MLP pre-activation", op)
    hidden = _relu(pre, out=pre)       # pre is not kept
    out = _affine_fwd(None, hidden, w2, b2)
    out += x
    return out, hidden


def _gru_mlp_fwd(op, u, state, wz, uz, bz, wr, ur, br, wn, un, bn, *mlp):
    """The tail slot_encode's iterations and cross_attend's rounds end in:
    updated = gru_cell(u, state), then the residual MLP.  It checks the
    GRU input (sigmoid and tanh saturate) and returns out.  It keeps
    nothing: ``_gru_mlp_adj`` runs the GRU and the MLP's first layer again
    from u, the state and the weights."""
    _guard(u, "GRU input", op)
    updated, _ = _gru_fwd(None, u, state, wz, uz, bz, wr, ur, br, wn, un, bn)
    return _mlp_fwd(op, updated, *mlp)[0]


def _slot_step_fwd(slots, keys_t, values, ones, gamma, w_q, *tail):
    """One iteration: the chain layer norm -> q -> logits -> column softmax
    -> weighted mean -> GRU -> residual MLP, kernel by kernel.  It checks
    the values that feed a kernel able to hide a non-finite entry
    (softmax, reciprocal, GRU, relu), and the new slots.  The normalized
    slots hold the layer norm's output and the logits the map; neither
    they nor q, u and the map's column max and sum are kept."""
    xhat, inv, mean = _normalize(slots)
    normed = np.multiply(xhat, gamma, out=xhat)
    q = _matmul(normed, w_q)
    logits = _matmul(q, keys_t)
    _guard(logits, "attention logits", "slot_encode")
    alpha = _softmax(-2, logits, out=logits)
    u_raw = _matmul(alpha, values)
    mass = _matmul(alpha, ones)
    mass += alpha.dtype.type(_AGG_EPS)
    _guard(mass, "attention mass", "slot_encode")
    rec = _reciprocal_fwd(None, mass)
    u = u_raw * rec
    out = _gru_mlp_fwd("slot_encode", u, slots, *tail)
    _guard(out, "slots", "slot_encode")
    return out, _StepSaved(inv, mean, alpha, u_raw, rec)


def _slot_encode_fwd(aux, bag, slots, ln_gamma, ln_beta, w_k, w_v,
                     *step_weights):
    """The chain bag layer norm -> k and v projections -> transposed copy
    of k, scaled -> values times the mask -> T iterations, kernel by
    kernel, with the checks the chain's node outputs had: the layer norm's
    output, the keys, the values and every iteration's slots.  The layer
    norm's output is formed in its normalized rows' buffer, and the values
    in k's once its transposed copy is made; the layer norm's rows are
    dropped before the iterations run.  The adjoint differentiates the
    last iteration alone, so the first T - 1 iterations keep nothing:
    only the last one's input slots and ``_StepSaved`` are kept."""
    t_iters, ones, scale = aux
    # the layer norm of the bag, with y in xhat's array
    xhat, inv, mean = _normalize(bag)
    y = np.multiply(xhat, ln_gamma, out=xhat)
    y += ln_beta
    _guard(y, "layer-norm output", "slot_encode")
    k = _matmul(y, w_k)
    keys_t = np.swapaxes(k, -1, -2).copy()
    keys_t *= keys_t.dtype.type(scale)
    _guard(keys_t, "keys", "slot_encode")
    values = _matmul(y, w_v, out=k)
    del xhat, y
    values *= ones
    _guard(values, "values", "slot_encode")
    for _ in range(t_iters - 1):
        slots = _slot_step_fwd(slots, keys_t, values, ones, *step_weights)[0]
    out, step = _slot_step_fwd(slots, keys_t, values, ones, *step_weights)
    return out, _EncodeSaved(inv, mean, keys_t, values, slots, step)


def _attend_head(op, scale, q, k, v, out=None):
    """Attention from projected rows: transposed copy of k -> logits ->
    scale -> row softmax -> @ v, kernel by kernel, checking the logits.
    Returns attn @ v, formed in ``out`` when it is given, keys_t and
    attn."""
    keys_t = np.swapaxes(k, -1, -2).copy()
    logits = _matmul(q, keys_t)
    logits *= logits.dtype.type(scale)
    _guard(logits, "attention logits", op)
    attn = _softmax(-1, logits, out=logits)     # logits are not kept
    return _matmul(attn, v, out=out), keys_t, attn


def _attend_fwd(op, scale, queries, context, w_q, w_k, w_v, out=None):
    """The attention head self_attend and decode start with: the q, k, v
    projections, then ``_attend_head``.  Returns attn @ v, formed in
    ``out`` when it is given (the queries' own array may be passed: they
    are read first), and the saved (q, keys_t, v, attn)."""
    q = _matmul(queries, w_q)
    k = _matmul(context, w_k)
    v = _matmul(context, w_v)
    u, keys_t, attn = _attend_head(op, scale, q, k, v, out=out)
    return u, (q, keys_t, v, attn)


def _cross_attend_fwd(aux, slots_h, slots_g, w_q, w_k, w_v, *tail):
    """L rounds over the rows x = [h; g], each the two directions' chains
    at once: the q, k and v projections of all rows, the attention head of
    h over g and of g over h (``_attend_head``), and one GRU ->
    residual-MLP tail over all rows, from the same round's state.  Every
    product reads rows in C order, whole or in row blocks, so BLAS runs
    it.  It checks the logits, the GRU input, the MLP pre-activation and
    every round's output but the last, which the caller checks."""
    l_iters, scale = aux
    op, s_h = "cross_attend", slots_h.shape[-2]
    x = np.concatenate([slots_h, slots_g], axis=-2)
    rounds = []
    for r in range(l_iters):
        if r:
            _guard(x, "slots", op)
        q, k, v = _matmul(x, w_q), _matmul(x, w_k), _matmul(x, w_v)
        u_h, kt_g, a_h = _attend_head(op, scale, q[..., :s_h, :],
                                      k[..., s_h:, :], v[..., s_h:, :])
        u_g, kt_h, a_g = _attend_head(op, scale, q[..., s_h:, :],
                                      k[..., :s_h, :], v[..., :s_h, :])
        rounds.append((x, (kt_h, kt_g), v, (a_h, a_g)))
        x = _gru_mlp_fwd(op, np.concatenate([u_h, u_g], axis=-2), x, *tail)
    return x, _CrossSaved(*zip(*rounds))


def _self_attend_fwd(aux, slots, w_q, w_k, w_v, *mlp):
    """The chain gather -> attention head -> residual -> residual MLP ->
    scatter, kernel by kernel, checking the logits and the MLP
    pre-activation; the node output is checked by the caller."""
    picked, scale = aux
    shape = slots.shape
    rows = slots.reshape(-1, shape[-1])
    sel = rows[picked].reshape(shape[:-2] + (-1, shape[-1]))
    u, head = _attend_fwd("self_attend", scale, sel, sel, w_q, w_k, w_v)
    x = sel + u
    refined, hidden = _mlp_fwd("self_attend", x, *mlp)
    out = rows.copy()                           # unselected rows pass through
    out[picked] = refined.reshape(-1, shape[-1])
    return out.reshape(shape), _AttendSaved(sel, *head, x, hidden)


def _decode_fwd(scale, queries, slots, w_q, w_k, w_v, w1, b1, w2, b2, gq, bq,
                gs, bs, gf, bf):
    """The chain layer norms of queries and slots -> attention head ->
    residual -> layer norm -> affine -> relu -> affine -> residual, kernel
    by kernel, with the checks its nodes' outputs had.  The queries'
    normalized rows are not kept: their array holds the layer norm's
    output and then, when the queries are not shared, x.  Every other
    temporary with a row per query row is formed in an array the node
    keeps, but one: the MLP's pre-activation, whose array then holds the
    second layer."""
    op = "decode"
    xhat_q, inv_q, mean_q = _normalize(queries)
    nq = np.multiply(xhat_q, gq, out=xhat_q)
    nq += bq
    _guard(nq, "query layer-norm output", op)
    # the layer norm of the slots, with ns in xhat_s's array
    xhat_s, inv_s, mean_s = _normalize(slots)
    ns = np.multiply(xhat_s, gs, out=xhat_s)
    ns += bs
    _guard(ns, "slot layer-norm output", op)
    x, (q, keys_t, v, attn) = _attend_fwd(
        op, scale, nq, ns, w_q, w_k, w_v,
        out=nq if queries.ndim == slots.ndim else None)
    for what, val in (("q", q), ("keys", keys_t), ("values", v),
                      ("attention output", x)):
        _guard(val, what, op)
    x = np.add(queries, x, out=x)       # x = queries + attn @ v
    _guard(x, "attended queries", op)
    hidden = np.empty_like(x)           # squares, MLP input, hidden layer
    xhat_f, inv_f, _ = _normalize(x, scratch=hidden)
    nf = np.multiply(xhat_f, gf, out=hidden)
    nf += bf
    _guard(nf, "MLP layer-norm output", op)
    pre = _affine_fwd(None, nf, w1, b1)
    _guard(pre, "MLP pre-activation", op)
    _relu(pre, out=hidden)
    ffn = _matmul(hidden, w2, out=pre)
    ffn += b2
    _guard(ffn, "MLP output", op)
    x += ffn                            # the node's output
    return x, _DecodeSaved(inv_q, mean_q, inv_s, mean_s, q, keys_t, v, attn,
                           xhat_f, inv_f, hidden)


def _squared_error_fwd(_, a, b):
    d = a - b
    return _mean(d * d, (-2, -1)).reshape(d.shape[:-2])


def _cosine_fwd(_, a, b):
    na = np.sqrt((a * a).sum(axis=-1, keepdims=True))
    nb = np.sqrt((b * b).sum(axis=-1, keepdims=True))
    valid = (na > _COS_TINY) & (nb > _COS_TINY)
    denom = np.where(valid, na * nb, 1.0)
    cos = np.where(valid, (a * b).sum(axis=-1, keepdims=True) / denom, 0.0)
    return _mean(cos, (-2, -1)).reshape(cos.shape[:-2]), (na, nb, cos, valid)


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
    "affine": _affine_fwd,
    "reshape": lambda shape, a: a.reshape(shape),
    "add": lambda _, a, b: a + b,
    "scale": lambda c, a: a * a.dtype.type(c),
    "row_softmax": _softmax,
    "sigmoid": lambda _, a: _sigmoid(a),
    "relu": lambda _, a: _relu(a),
    "slot_encode": _slot_encode_fwd,
    "cross_attend": _cross_attend_fwd,
    "self_attend": _self_attend_fwd,
    "decode": _decode_fwd,
    "mean_pool": lambda _, a: _mean(a, -2),
    "sum": lambda axis, a: a.sum(axis=axis, keepdims=True),
    "concat": lambda axis, a, b: np.concatenate([a, b], axis=axis),
    "mul": lambda _, a, b: a * b,
    "squared_error": _squared_error_fwd,
    "cosine": _cosine_fwd,
    "log": _log_fwd,
    "exp": lambda _, a: np.exp(a),
    "clamp": lambda bounds, a: np.clip(a, *bounds),
}

# Every op kind the engine registers, and every one the program records.
OP_KINDS = ("input", "const", *_FORWARD)

# Ops whose output is finite whenever their inputs are, which the guard
# has already checked: data movement, and maps into a bounded range.
_ALWAYS_FINITE = frozenset({
    "reshape", "concat", "relu", "clamp", "sigmoid", "row_softmax"})


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
    if op not in _ALWAYS_FINITE and not np.isfinite(out).all():
        raise GraphError(f"non-finite output at node {i} ({op})")
    return out, saved


# ----------------------------------------------------------------- backward

def _unbroadcast(grad, shape):
    """Sum a broadcast result's adjoint back down to an operand's shape."""
    if grad.shape == shape:
        return grad
    lead = grad.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + k for k, n in enumerate(shape) if n == 1 and grad.shape[lead + k] != 1)
    return grad.sum(axis=axes, keepdims=True).reshape(shape)


# Array-level adjoint helpers: each op's math lives in one of these, and
# both its own rule (for the layer norm and the GRU cell, the per-op
# chain's rule in tests/oracles.py) and the fused rules call it.  A
# helper forms an operand's adjoint only when asked to (``need_*``).

def _give(grads, parents, contributions):
    """Hand each parent its contribution, in order; None means none."""
    for p, delta in zip(parents, contributions):
        if delta is not None:
            _acc(grads, p, delta)


def _matmul_adj(grad, va, vb, need_a=True, need_b=True):
    ga = gb = None
    if need_a:
        ga = _unbroadcast(_matmul(grad, np.swapaxes(vb, -1, -2)), va.shape)
    if need_b:
        if va.ndim == 3 and vb.ndim == 2:
            gb = _matmul(va.reshape(-1, va.shape[-1]).T,
                         grad.reshape(-1, grad.shape[-1]))
        else:
            gb = _unbroadcast(_matmul(np.swapaxes(va, -1, -2), grad), vb.shape)
    return ga, gb


def _mul_adj(grad, va, vb, need_a=True, need_b=True):
    return (_unbroadcast(grad * vb, va.shape) if need_a else None,
            _unbroadcast(grad * va, vb.shape) if need_b else None)


def _softmax_adj(grad, y, axis, out=None, scratch=None):
    gy = np.multiply(grad, y, out=out)
    gy -= np.multiply(y, gy.sum(axis=axis, keepdims=True), out=scratch)
    return gy


def _relu_adj(grad, x, out=None):
    # x may be the relu's input or its output: x > 0 holds for both alike
    return np.multiply(grad, x > 0, out=out)


def _reciprocal_adj(grad, y):
    return -grad * y * y


def _layer_norm_adj(grad, gamma, xhat, inv, need_x, need_gamma, need_beta):
    gx = None
    if need_x:
        # inv * (gg - mean(gg) - xhat * mean(gg * xhat)), term by term
        gx = grad * gamma
        proj = _mean(gx * xhat, -1)
        gx -= _mean(gx, -1)
        gx -= xhat * proj
        gx *= inv
    return (gx,
            _unbroadcast(grad * xhat, gamma.shape) if need_gamma else None,
            _unbroadcast(grad, gamma.shape) if need_beta else None)


def _gru_adj(grad, saved, x, h, wz, uz, wr, ur, wn, un, need):
    """Adjoints of a GRU cell's eleven operands, in ``_gru_fwd``'s argument
    order; ``need`` flags which to form."""
    z, r, n, rh = saved
    shape = grad.shape
    grad = grad.reshape(z.shape)
    x, h = x.reshape(z.shape), h.reshape(z.shape)

    # every array below is this helper's own, so products run in place
    dzp = h - n                         # dz = grad * (h - n)
    dzp *= grad
    dnp = 1.0 - z                       # dn = grad * (1 - z)
    dnp *= grad
    slope = n * n                       # dnp = dn * (1 - n^2)
    np.subtract(1.0, slope, out=slope)
    dnp *= slope
    drh = dnp @ un.T
    drp = drh * h                       # dr = drh * h
    dzp *= z                            # dzp = dz * z * (1 - z)
    np.subtract(1.0, z, out=slope)
    dzp *= slope
    drp *= r                            # drp = dr * r * (1 - r)
    np.subtract(1.0, r, out=slope)
    drp *= slope

    out = [None] * 11
    if need[0]:
        dx = dnp @ wn.T
        dx += dzp @ wz.T
        dx += drp @ wr.T
        out[0] = dx.reshape(shape)
    if need[1]:
        dh = grad * z                   # dh = grad * z + drh * r
        drh *= r
        dh += drh
        dh += dzp @ uz.T
        dh += drp @ ur.T
        out[1] = dh.reshape(shape)
    for k, left, d in ((2, x, dzp), (3, h, dzp), (4, None, dzp),
                       (5, x, drp), (6, h, drp), (7, None, drp),
                       (8, x, dnp), (9, rh, dnp), (10, None, dnp)):
        if need[k]:
            out[k] = d.sum(axis=0, keepdims=True) if left is None else left.T @ d
    return out


def _bw_matmul(g, i, grad, grads):
    a, b = g._parents[i]
    _give(grads, (a, b), _matmul_adj(grad, g._values[a], g._values[b],
                                     g._needs_grad[a], g._needs_grad[b]))


def _bw_affine(g, i, grad, grads):
    # the chain x @ w, + b visits the add first: b, then x and w
    x, w, b = g._parents[i]
    need = g._needs_grad
    if need[b]:
        _acc(grads, b, _unbroadcast(grad, g._values[b].shape))
    _give(grads, (x, w), _matmul_adj(grad, g._values[x], g._values[w],
                                     need[x], need[w]))


def _bw_reshape(g, i, grad, grads):
    p = g._parents[i][0]
    _acc(grads, p, grad.reshape(g._values[p].shape))


def _bw_add(g, i, grad, grads):
    for p in g._parents[i]:
        if g._needs_grad[p]:
            _acc(grads, p, _unbroadcast(grad, g._values[p].shape))


def _bw_scale(g, i, grad, grads):
    _acc(grads, g._parents[i][0], grad * g.dtype.type(g._aux[i]))


def _bw_softmax(g, i, grad, grads):
    _acc(grads, g._parents[i][0], _softmax_adj(grad, g._values[i], g._aux[i]))


def _bw_sigmoid(g, i, grad, grads):
    y = g._values[i]
    _acc(grads, g._parents[i][0], grad * y * (1.0 - y))


def _bw_relu(g, i, grad, grads):
    p = g._parents[i][0]
    _acc(grads, p, _relu_adj(grad, g._values[p]))


def _ffn_adj(g, grads, grad, x, hidden, mlp):
    """The adjoint of hidden @ w2 + b2 with hidden = relu(x @ w1 + b1),
    from its adjoint ``grad``, the input ``x`` and the ``hidden`` layer:
    hands the MLP weights their contributions in the chain's order and
    returns x's adjoint, an array of its own."""
    w1, b1, w2, b2 = mlp
    v = g._values
    need = g._needs_grad
    d_b2 = _unbroadcast(grad, v[b2].shape) if need[b2] else None
    d_hidden, d_w2 = _matmul_adj(grad, hidden, v[w2], need_b=need[w2])
    _give(grads, (b2, w2), (d_b2, d_w2))
    d_pre = _relu_adj(d_hidden, hidden, out=d_hidden)
    d_b1 = _unbroadcast(d_pre, v[b1].shape) if need[b1] else None
    d_x, d_w1 = _matmul_adj(d_pre, x, v[w1], need_b=need[w1])
    _give(grads, (b1, w1), (d_b1, d_w1))
    return d_x


def _mlp_adj(g, grads, grad, x, hidden, mlp):
    """The adjoint of ``_mlp_fwd``, out = x + the MLP of x, as
    ``_ffn_adj``'s, with the residual path's term added."""
    d_x = _ffn_adj(g, grads, grad, x, hidden, mlp)
    d_x += grad
    return d_x


def _gru_mlp_adj(g, grads, grad, u, state, need_state, gru, mlp):
    """The adjoint of the tail ``_gru_mlp_fwd`` computes, from a fused
    node's adjoint ``grad``, the GRU input ``u`` (which the caller
    rebuilds) and the GRU ``state`` value: hands the MLP weights and the
    GRU weights their contributions in the chain's order, and returns the
    adjoints of the GRU input and, when ``need_state``, of the state (None
    otherwise).  It first runs the GRU again (``_gru_fwd``) for its gates,
    r * state and output, and then hidden = relu(updated @ w1 + b1): the
    forward's kernels in its order, so with its bits."""
    v = g._values
    need = g._needs_grad
    updated, saved = _gru_fwd(None, u, state, *(v[p] for p in gru))
    w1, b1 = mlp[:2]
    hidden = _affine_fwd(None, updated, v[w1], v[b1])
    _relu(hidden, out=hidden)
    d_upd = _mlp_adj(g, grads, grad, updated, hidden, mlp)
    del updated, hidden
    d_u, d_state, *d_gru = _gru_adj(
        d_upd, saved, u, state,
        *(v[p] for k, p in enumerate(gru) if k % 3 != 2),
        [True, need_state, *(need[p] for p in gru)])
    _give(grads, gru, d_gru)
    return d_u, d_state


def _bw_slot_encode(g, i, grad, grads):
    """The first-order adjoint (see the module docstring): the chain's
    adjoint rules in reverse for the last iteration alone, whose input
    slots hand their two contributions (GRU state, then layer norm) to the
    initial slots; then the value path, the key path and the bag's layer
    norm, the layer norm's output getting the value-path term, then the
    key-path term, as from the per-op chain.  At the top it rebuilds the
    slot-sized values the forward dropped from the iteration's input
    slots and saved rows: the layer norm's normalized rows
    (``_renormalize``), its output and q, and the GRU input u_raw * rec;
    ``_gru_mlp_adj`` runs the GRU again.  The key and value adjoints are
    arrays this rule owns, which it scales and masks in place and forms
    the projections' adjoints in as they fall free.  After the iteration
    it forms the bag layer norm's normalized rows and output again from
    the bag and the saved inverse deviations and row means
    (``_renormalize``, then the gain and the shift).  Every rebuild runs
    the forward's kernels in its order, so with its bits."""
    bi, si, lgi, lbi, ki, vi, gi, qi, *tail = g._parents[i]
    sv = g._saved[i]
    st, h, alpha = sv.step, sv.state, sv.step.alpha
    v = g._values
    need = g._needs_grad
    _, ones, scale = g._aux[i]
    # the slot-sized values the forward dropped: its kernels in its order
    xhat = _renormalize(h, st.inv, st.mean)
    normed = xhat * v[gi]
    q = _matmul(normed, v[qi])
    d_u, d_state = _gru_mlp_adj(g, grads, grad, st.u_raw * st.rec, h,
                                need[si], tail[:9], tail[9:])
    _give(grads, (si,), (d_state,))

    # u = u_raw * rec with rec = 1 / (alpha @ ones + eps)
    d_uraw, d_rec = _mul_adj(d_u, st.u_raw, st.rec)
    # alpha's two adjoint terms: the rank-1 product with the mask and
    # d_uraw @ values^T
    d_mass = _reciprocal_adj(d_rec, st.rec)
    d_alpha = _matmul(d_mass, np.swapaxes(ones, -1, -2))
    d_au = _matmul(d_uraw, np.swapaxes(sv.values, -1, -2))
    d_values = _matmul(np.swapaxes(alpha, -1, -2), d_uraw)

    # alpha = col_softmax(q @ keys_t), q = layer_norm(slots) @ w_q.  Both
    # alpha terms are in arrays this rule made, so the sum and the softmax
    # adjoint may overwrite them.
    d_alpha += d_au
    d_logits = _softmax_adj(d_alpha, alpha, -2, out=d_alpha, scratch=d_au)
    d_q, _ = _matmul_adj(d_logits, q, sv.keys_t, need_b=False)
    d_keys_t = _matmul(np.swapaxes(q, -1, -2), d_logits)
    d_normed, d_wq = _matmul_adj(d_q, normed, v[qi], need_b=need[qi])
    _give(grads, (qi,), (d_wq,))
    d_slots, d_gamma, _ = _layer_norm_adj(d_normed, v[gi], xhat, st.inv,
                                          need[si], need[gi], False)
    _give(grads, (gi,), (d_gamma,))
    _give(grads, (si,), (d_slots,))
    # the map's adjoint terms are spent: free them before the bag-sized
    # rebuilds
    del d_alpha, d_au, d_logits

    # y = layer_norm(bag), formed again
    xhat = _renormalize(v[bi], sv.inv, sv.mean)
    y = xhat * v[lgi]
    y += v[lbi]

    # values = (y @ w_v) * ones: the value path
    d_values *= ones
    _give(grads, (vi,), (_matmul_adj(d_values, y, v[vi], need_a=False,
                                     need_b=need[vi])[1],))
    d_y = _matmul(d_values, np.swapaxes(v[vi], -1, -2))

    # keys = (y @ w_k)^T * c: the key path
    d_keys_t *= d_keys_t.dtype.type(scale)
    d_keys, out = np.swapaxes(d_keys_t, -1, -2), None
    if d_keys.ndim == 3 and d_keys.shape[0] > 1 and d_keys.shape[-1] > 1:
        # both products read the rows of this view through a C-order copy:
        # make it once, in d_values' array, and form the product in
        # d_keys_t's
        np.copyto(d_values, d_keys)
        d_keys, out = d_values, d_keys_t.reshape(d_values.shape)
    del d_values
    _give(grads, (ki,), (_matmul_adj(d_keys, y, v[ki], need_a=False,
                                     need_b=need[ki])[1],))
    d_y += _matmul(d_keys, np.swapaxes(v[ki], -1, -2), out=out)
    del d_keys_t, d_keys, out, y
    _give(grads, (bi, lgi, lbi), _layer_norm_adj(
        d_y, v[lgi], xhat, sv.inv, need[bi], need[lgi], need[lbi]))


def _attend_adj(d_u, q, keys_t, v, attn, scale):
    """The adjoint of ``_attend_head``, from the adjoint ``d_u`` of attn @
    v, q, keys_t, v and attn: returns the adjoints of q, k and v."""
    d_attn, d_v = _matmul_adj(d_u, attn, v)
    # attn = row_softmax(scale * q @ keys_t); d_attn is this helper's own
    # array, so the softmax and scale adjoints may overwrite it
    d_logits = _softmax_adj(d_attn, attn, -1, out=d_attn)
    d_logits *= d_logits.dtype.type(scale)
    d_q, d_keys_t = _matmul_adj(d_logits, q, keys_t)
    return d_q, np.swapaxes(d_keys_t, -1, -2), d_v


def _bw_cross_attend(g, i, grad, grads):
    """The per-op chain's adjoint rules in reverse, round L first and in
    each round the g direction (queries g, context h) before the h
    direction, as the chain's 2 L nodes ran: each direction's tail, its
    attention head, then its v, k and q projections.  So the weights get
    the g direction's terms, then the h direction's; a round's h rows get
    v, k, GRU state, q and its g rows GRU state, q, v, k, one by one,
    summed as the chain's nodes summed them and, in round 1, handed to
    the two parents.  Each direction first rebuilds its GRU input attn @
    v, from which ``_gru_mlp_adj`` runs the GRU again, and then its q,
    with the forward's kernels, so with its bits."""
    hi, gi, wq, wk, wv, *tail = g._parents[i]
    sv = g._saved[i]
    v = g._values
    need = g._needs_grad
    s_h, scale = v[hi].shape[-2], g._aux[i][1]
    d_rows = (grad[..., :s_h, :], grad[..., s_h:, :])
    for r in reversed(range(len(sv.states))):
        x, vals = sv.states[r], sv.v[r]
        sets = (x[..., :s_h, :], x[..., s_h:, :])
        keys_t, maps = sv.keys_t[r], sv.attn[r]
        values = (vals[..., :s_h, :], vals[..., s_h:, :])
        into, at, needs = ((_Adjoints(2), (0, 1), (True, True)) if r else
                           (grads, (hi, gi), (need[hi], need[gi])))
        for qs, cs in ((1, 0), (0, 1)):     # g over h, then h over g
            d_u, d_state = _gru_mlp_adj(
                g, grads, d_rows[qs], _matmul(maps[qs], values[cs]),
                sets[qs], needs[qs], tail[:9], tail[9:])
            _give(into, (at[qs],), (d_state,))
            d_q, d_k, d_v = _attend_adj(d_u, _matmul(sets[qs], v[wq]),
                                        keys_t[cs], values[cs], maps[qs],
                                        scale)
            for d_proj, w, k in ((d_v, wv, cs), (d_k, wk, cs),
                                 (d_q, wq, qs)):
                d_set, d_w = _matmul_adj(d_proj, sets[k], v[w], needs[k],
                                         need[w])
                _give(into, (at[k],), (d_set,))
                _give(grads, (w,), (d_w,))
        if r:
            d_rows = (into[0], into[1])


def _bw_self_attend(g, i, grad, grads):
    """The chain's adjoint rules in reverse, with each parent's
    contributions in the per-op chain's order: the weights get theirs
    from the MLP, then from the v, k and q projections.  The chain
    scatters and gathers rows through buffers of zeros, which read a -0
    adjoint entry as +0; the ``+= 0`` passes do the same.  Its two
    contributions to the slots have disjoint rows, so their sum is exact
    and the slots get it as one."""
    si, wq, wk, wv, *mlp = g._parents[i]
    picked, scale = g._aux[i]
    sv = g._saved[i]
    v = g._values
    need = g._needs_grad
    shape = v[si].shape
    g_rows = grad.reshape(-1, shape[-1])
    d_refined = g_rows[picked].reshape(sv.x.shape)
    d_refined += 0
    d_x = _mlp_adj(g, grads, d_refined, sv.x, sv.hidden, mlp)
    # x = sel + attn @ v: the residual's term comes first
    d_q, d_k, d_v = _attend_adj(d_x, sv.q, sv.keys_t, sv.v, sv.attn, scale)
    d_sel = d_x
    for d_proj, w in ((d_v, wv), (d_k, wk), (d_q, wq)):
        d_s, d_w = _matmul_adj(d_proj, sv.sel, v[w], need[si], need[w])
        _give(grads, (w,), (d_w,))
        if d_s is not None:
            d_sel += d_s
    if need[si]:
        d_rows = g_rows.copy()
        d_rows[picked] = d_sel.reshape(-1, shape[-1])
        d_rows += 0
        _acc(grads, si, d_rows.reshape(shape))


def _bw_decode(g, i, grad, grads):
    """The chain's adjoint rules in reverse, with each parent's
    contributions in the per-op chain's order: the queries get the
    residual's term before the layer norm's, and the normalized slots sum
    the v path's term, then the k path's.  The MLP input is formed again
    from its saved layer norm's rows, and the normalized rows of the slots
    and of the queries from those and their saved inverse deviations and
    row means (``_renormalize``), then each layer norm's output from its
    rows, each with the forward's kernels in its order, so with its
    bits."""
    qi, si, wq, wk, wv, w1, b1, w2, b2, gq, bq, gs, bs, gf, bf = \
        g._parents[i]
    sv = g._saved[i]
    v = g._values
    need = g._needs_grad

    # out = x + MLP(layer_norm(x)): x's adjoint is grad plus the layer
    # norm's term, which is this rule's own array
    nf = sv.xhat_f * v[gf]
    nf += v[bf]
    d_nf = _ffn_adj(g, grads, grad, nf, sv.hidden, (w1, b1, w2, b2))
    del nf
    d_x, d_gf, d_bf = _layer_norm_adj(d_nf, v[gf], sv.xhat_f, sv.inv_f, True,
                                      need[gf], need[bf])
    _give(grads, (gf, bf), (d_gf, d_bf))
    del d_nf
    d_x += grad

    # x = queries + attn @ v
    if need[qi]:
        _acc(grads, qi, _unbroadcast(d_x, v[qi].shape))
    d_q, d_k, d_v = _attend_adj(d_x, sv.q, sv.keys_t, sv.v, sv.attn,
                                g._aux[i])
    del d_x
    xhat_s = _renormalize(v[si], sv.inv_s, sv.mean_s)
    ns = xhat_s * v[gs]
    ns += v[bs]
    d_ns, d_wv = _matmul_adj(d_v, ns, v[wv], need_b=need[wv])
    _give(grads, (wv,), (d_wv,))
    d_ns_k, d_wk = _matmul_adj(d_k, ns, v[wk], need_b=need[wk])
    _give(grads, (wk,), (d_wk,))
    d_ns += d_ns_k
    del ns
    xhat_q = _renormalize(v[qi], sv.inv_q, sv.mean_q)
    nq = xhat_q * v[gq]
    nq += v[bq]
    d_nq, d_wq = _matmul_adj(d_q, nq, v[wq], need_b=need[wq])
    _give(grads, (wq,), (d_wq,))
    del nq, d_q
    _give(grads, (si, gs, bs), _layer_norm_adj(
        d_ns, v[gs], xhat_s, sv.inv_s, need[si], need[gs], need[bs]))
    _give(grads, (qi, gq, bq), _layer_norm_adj(
        d_nq, v[gq], xhat_q, sv.inv_q, need[qi], need[gq], need[bq]))


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
    if g._needs_grad[a]:
        _acc(grads, a, ga)
    if g._needs_grad[b]:
        _acc(grads, b, gb)


def _bw_mul(g, i, grad, grads):
    a, b = g._parents[i]
    _give(grads, (a, b), _mul_adj(grad, g._values[a], g._values[b],
                                  g._needs_grad[a], g._needs_grad[b]))


def _bw_squared_error(g, i, grad, grads):
    a, b = g._parents[i]
    d = g._values[a] - g._values[b]
    coeff = grad[..., None, None] * g.dtype.type(2.0 / (d.shape[-2] * d.shape[-1]))
    if g._needs_grad[a]:
        _acc(grads, a, coeff * d)
    if g._needs_grad[b]:
        _acc(grads, b, -coeff * d)


def _bw_cosine(g, i, grad, grads):
    a, b = g._parents[i]
    va, vb = g._values[a], g._values[b]
    na, nb, cos, valid = g._saved[i]
    s = (grad[..., None, None] / g.dtype.type(va.shape[-2])) * valid
    sna = np.where(valid, na, 1.0)
    snb = np.where(valid, nb, 1.0)
    for p, mine, other, own in ((a, va, vb, sna), (b, vb, va, snb)):
        if g._needs_grad[p]:
            d = other / (sna * snb)
            d -= cos * mine / (own * own)
            d *= s
            _acc(grads, p, d)


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


_BACKWARD = {
    "matmul": _bw_matmul,
    "affine": _bw_affine,
    "reshape": _bw_reshape,
    "add": _bw_add,
    "scale": _bw_scale,
    "row_softmax": _bw_softmax,
    "sigmoid": _bw_sigmoid,
    "relu": _bw_relu,
    "slot_encode": _bw_slot_encode,
    "cross_attend": _bw_cross_attend,
    "self_attend": _bw_self_attend,
    "decode": _bw_decode,
    "mean_pool": _bw_mean_pool,
    "sum": _bw_sum,
    "concat": _bw_concat,
    "mul": _bw_mul,
    "squared_error": _bw_squared_error,
    "cosine": _bw_cosine,
    "log": _bw_log,
    "exp": _bw_exp,
    "clamp": _bw_clamp,
    # input/const intentionally absent: adjoint is zero.
}


class _Adjoints(list):
    """One ``backward`` call's adjoint slots, plus the ids of the nodes
    whose slot holds a buffer this call allocated (``owned``)."""

    __slots__ = ("owned",)

    def __init__(self, n: int):
        super().__init__([None] * n)
        self.owned = set()


def _acc(grads, idx, delta):
    """Add one contribution to node idx's adjoint: the first is stored as
    given, the second allocates the sum, and later ones add in place into
    that owned buffer."""
    cur = grads[idx]
    if cur is None:
        grads[idx] = delta
    elif (idx in grads.owned and cur.shape == delta.shape
          and cur.dtype == delta.dtype):
        np.add(cur, delta, out=cur)
    else:
        grads[idx] = cur + delta
        grads.owned.add(idx)


def backward(graph: Graph, seed: Node) -> dict:
    """Adjoints of a size-1 seed w.r.t. every named input.

    Inputs unreachable from the seed get exact zero gradients.
    """
    sv = graph._values[seed.idx]
    if sv.size != 1:
        raise GraphError(f"backward seed must be scalar, got shape {sv.shape}")
    grads = _Adjoints(graph.num_nodes)
    grads[seed.idx] = np.ones_like(sv)
    for i in range(seed.idx, -1, -1):
        gr = grads[i]
        if gr is None or not graph._needs_grad[i]:
            continue
        fn = _BACKWARD.get(graph._ops[i])
        if fn is not None:
            fn(graph, i, gr, grads)
            grads[i] = None     # spent: free it before the next node
    out = {}
    for name, i in graph._inputs.items():
        out[name] = grads[i] if grads[i] is not None else np.zeros_like(graph._values[i])
    return out


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


def init_weight(rng: np.random.Generator, fan_in: int, fan_out: int):
    """A float32 (fan_in, fan_out) weight drawn at scale 1/sqrt(fan_in);
    every weight matrix's init."""
    return init_normal(rng, (fan_in, fan_out), 1.0 / np.sqrt(fan_in))


def zero_row(n: int) -> np.ndarray:
    """A (1, n) float32 row of zeros; every bias's and shift's init."""
    return np.zeros((1, n), dtype=np.float32)


def init_block(rng: np.random.Generator, dim: int):
    """(mat, bias, gamma) makers for a width-``dim`` parameter block:
    ``mat()`` draws a (dim, dim) weight (``init_weight``); ``bias()`` and
    ``gamma()`` return (1, dim) float32 rows of zeros and ones.  The
    order of the ``mat()`` calls fixes every tensor."""
    return (lambda: init_weight(rng, dim, dim),
            lambda: zero_row(dim),
            lambda: np.ones((1, dim), dtype=np.float32))


def bind_arrays(graph: Graph, groups: dict, skip=()) -> dict:
    """Mirror parameter dataclasses as graph inputs.  ``groups`` maps a
    group name to a dataclass of ndarrays; every tensor is named
    "<group>.<field>" and all are declared in one ``Graph.inputs`` call,
    group by group in the mapping's order, so one non-finite check covers
    them all and a bad tensor is named ``input '<group>.<field>'``.
    Fields named in ``skip`` are not declared: they keep their arrays, for
    a graph that never reads them.  Returns the same mapping with each
    dataclass's other arrays replaced by their Nodes.
    """
    nodes = graph.inputs({f"{name}.{f.name}": getattr(obj, f.name)
                          for name, obj in groups.items()
                          for f in dataclasses.fields(obj)
                          if f.name not in skip})
    return {name: dataclasses.replace(obj, **{
                f.name: nodes[f"{name}.{f.name}"]
                for f in dataclasses.fields(obj) if f.name not in skip})
            for name, obj in groups.items()}
