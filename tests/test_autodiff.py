"""Gradient and contract tests for the autodiff core.

Every differentiable op is audited against central finite differences
at 20 random points, in both 32-bit and 64-bit modes (the fused
slot_encode, cross_step, self_attend and decode in 64-bit only, see
FLOAT64_ONLY).
Step sizes are dtype-matched: too small a step drowns the quotient in
rounding noise.
"""

import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from slotsurv import autodiff
from slotsurv.autodiff import (
    _BACKWARD,
    _FORWARD,
    OP_KINDS,
    Graph,
    GraphError,
    backward,
)

from fd import ancestors, clone, finite_diff_check
from oracles import (
    CHAIN_OPS,
    col_softmax,
    gather_rows,
    gru_cell,
    layer_norm,
    out_of_place_acc,
    owning_buffers,
    reduce_sum,
    saved_arrays,
    transpose,
    unfused_cross_update,
    unfused_decode,
    unfused_self_attention,
    unfused_slot_encode,
)

N_POINTS = 20

# (dtype, fd step, max rel err) pairs used by the per-op audit.
MODES = [(np.float64, 1e-3, 1e-6), (np.float32, 1e-3, 1e-4)]

_SALT = 3


def _seed(op_name: str, point: int) -> int:
    return zlib.crc32(f"{_SALT}:{op_name}:{point}".encode())


def _se_target(g, node, rng):
    """Squared error against an offset target.

    The offset keeps every residual bounded away from zero so gradient
    elements never vanish by accident, which would put the relative
    error formula on its noise floor.
    """
    target = node.value + rng.uniform(1.0, 2.0, size=node.shape)
    return _batch_total(g, g.squared_error(node, g.const(target)))


def _batch_total(g, loss):
    """3-d operands give one loss per batch entry; sum them to a scalar."""
    return loss if loss.value.ndim == 0 else reduce_sum(g, loss)


# Each entry builds one op into a fresh graph and returns the scalar seed.
def _build_matmul(g, rng):
    # positive operands: gradient entries are sums without cancellation
    a = g.input("a", rng.uniform(0.5, 1.5, size=(3, 4)))
    b = g.input("b", rng.uniform(0.5, 1.5, size=(4, 2)))
    return _se_target(g, g.matmul(a, b), rng)


def _build_transpose(g, rng):
    a = g.input("a", rng.normal(size=(3, 4)))
    return _se_target(g, transpose(g, a), rng)


def _build_add(g, rng):
    a = g.input("a", rng.normal(size=(3, 4)))
    b = g.input("b", rng.normal(size=(3, 4)))
    return _se_target(g, g.add(a, b), rng)


def _build_add_row_bias(g, rng):
    a = g.input("a", rng.normal(size=(3, 4)))
    b = g.input("b", rng.normal(size=(1, 4)))
    return _se_target(g, g.add(a, b), rng)


def _build_scale(g, rng):
    a = g.input("a", rng.normal(size=(3, 4)))
    return _se_target(g, g.scale(a, -1.7), rng)


def _softmax_target(g, node, rng, axis):
    """Offset target with one dominant entry per row (or column).

    A softmax Jacobian removes the mean; with a single large residual
    the remaining elements stay bounded away from zero, keeping the
    relative-error formula off its noise floor.  ``axis`` is -1 (rows)
    or -2 (columns) of a 2-d or 3-d node.
    """
    off = rng.uniform(1.0, 2.0, size=node.shape)
    moved = np.moveaxis(off, axis, -1)      # view: softmax axis last
    pick = rng.integers(0, moved.shape[-1], size=moved.shape[:-1])
    np.put_along_axis(moved, pick[..., None], 15.0 + moved.max(), axis=-1)
    return _batch_total(g, g.squared_error(node, g.const(node.value + off)))


def _build_row_softmax(g, rng):
    a = g.input("a", rng.uniform(-2.0, 2.0, size=(3, 4)))
    return _softmax_target(g, g.row_softmax(a), rng, axis=-1)


def _build_col_softmax(g, rng):
    a = g.input("a", rng.uniform(-2.0, 2.0, size=(3, 4)))
    return _softmax_target(g, col_softmax(g, a), rng, axis=-2)


def _build_sigmoid(g, rng):
    # |x| <= 1.5 keeps sigmoid' bounded below
    a = g.input("a", rng.uniform(-1.5, 1.5, size=(3, 4)))
    return _se_target(g, g.sigmoid(a), rng)


def _build_relu(g, rng):
    # keep points away from the kink: FD straddles it otherwise
    x = rng.normal(size=(3, 4))
    a = g.input("a", x + np.sign(x) * 0.05)
    return _se_target(g, g.relu(a), rng)


def _build_layer_norm(g, rng, batch=None):
    """Layer norm with a target crafted against its null directions.

    The input Jacobian annihilates per-row constants and rescalings, so
    a generic upstream gradient leaves some input-gradient elements
    near zero. Choosing the residual orthogonal to those directions,
    with per-element magnitudes bounded below, keeps the whole audit
    off the relative-error noise floor.
    """
    d = 6
    pattern = rng.permutation(np.array([-2.2, -1.3, -0.6, 0.6, 1.3, 2.2]))
    rows = 4 if batch else 3
    x = pattern * rng.uniform(0.8, 1.2, size=(rows, 1)) \
        + rng.uniform(-0.5, 0.5, size=(rows, 1))
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    xhat = (x - mu) / np.sqrt(var + 1e-5)
    q = np.sign(xhat)
    qp = q - xhat * (q * xhat).mean(axis=1, keepdims=True)
    gamma_v = rng.uniform(0.5, 1.5, size=(1, d))

    if batch is not None:      # rows split over a leading batch axis
        x, qp = x.reshape(batch, -1, d), qp.reshape(batch, -1, d)
    a = g.input("a", x)
    gamma = g.input("gamma", gamma_v)
    beta = g.input("beta", rng.normal(size=(1, d)))
    y = layer_norm(g, a, gamma, beta)
    off = (y.value.size / (2.0 * (batch or 1))) * qp / gamma_v
    return _batch_total(g, g.squared_error(y, g.const(y.value + off)))


def _build_gru(g, rng, lead=(2,)):
    # positive regime: h > tanh range and positive weights keep every
    # adjoint term single-signed, so no gradient element cancels to zero
    d = 3
    x = g.input("x", rng.uniform(0.3, 1.3, size=lead + (d,)))
    h = g.input("h", rng.uniform(1.5, 2.5, size=lead + (d,)))
    mats = [g.input(nm, rng.uniform(0.15, 0.45, size=(d, d)))
            for nm in ("wz", "uz", "wr", "ur", "wn", "un")]
    bias = [g.input(nm, rng.uniform(0.05, 0.25, size=(1, d)))
            for nm in ("bz", "br", "bn")]
    out = gru_cell(g, x, h, mats[0], mats[1], bias[0], mats[2], mats[3],
                   bias[1], mats[4], mats[5], bias[2])
    return _se_target(g, out, rng)


def _build_mean_pool(g, rng):
    a = g.input("a", rng.normal(size=(5, 4)))
    return _se_target(g, g.mean_pool(a), rng)


def _build_concat_rows(g, rng):
    a = g.input("a", rng.normal(size=(2, 4)))
    b = g.input("b", rng.normal(size=(3, 4)))
    return _se_target(g, g.concat(a, b, axis=0), rng)


def _build_concat_cols(g, rng):
    a = g.input("a", rng.normal(size=(3, 2)))
    b = g.input("b", rng.normal(size=(3, 4)))
    return _se_target(g, g.concat(a, b, axis=1), rng)


def _build_mul(g, rng):
    # partners bounded away from zero so neither gradient vanishes
    sa = np.where(rng.random(size=(3, 4)) < 0.5, -1.0, 1.0)
    sb = np.where(rng.random(size=(3, 4)) < 0.5, -1.0, 1.0)
    a = g.input("a", sa * rng.uniform(0.5, 1.5, size=(3, 4)))
    b = g.input("b", sb * rng.uniform(0.5, 1.5, size=(3, 4)))
    return _se_target(g, g.mul(a, b), rng)


def _build_squared_error(g, rng):
    a = g.input("a", rng.normal(size=(3, 4)))
    b = g.input("b", a.value + rng.uniform(1.0, 2.0, size=(3, 4)))
    return g.squared_error(a, b)


def _build_cosine(g, rng, batch=None):
    # b is a fixed-angle rotation of a per row: the orthogonal residual
    # driving the gradient is then bounded away from zero
    rows = 4 * (batch or 1)
    av = rng.normal(size=(rows, 5))
    ahat = av / np.linalg.norm(av, axis=1, keepdims=True)
    q = np.where(np.arange(5) % 2 == 0, 1.0, -1.0) * np.ones((rows, 5))
    p = q - ahat * (q * ahat).sum(axis=1, keepdims=True)
    phat = p / np.linalg.norm(p, axis=1, keepdims=True)
    theta = 1.0
    bv = (np.cos(theta) * ahat + np.sin(theta) * phat) \
        * rng.uniform(1.0, 2.0, size=(rows, 1))
    av = av * rng.uniform(1.0, 2.0, size=(rows, 1))
    if batch is not None:
        av, bv = av.reshape(batch, -1, 5), bv.reshape(batch, -1, 5)
    a = g.input("a", av)
    b = g.input("b", bv)
    return _batch_total(g, g.cosine(a, b))


def _build_log(g, rng):
    a = g.input("a", rng.uniform(0.4, 3.0, size=(3, 4)))
    return _se_target(g, g.log(a), rng)


def _build_exp(g, rng):
    a = g.input("a", rng.uniform(-1.5, 1.5, size=(3, 4)))
    return _se_target(g, g.exp(a), rng)


def _build_clamp(g, rng):
    # interior points only: the pass-through region is where grads flow
    a = g.input("a", rng.uniform(-1.4, 1.4, size=(3, 4)))
    return _se_target(g, g.clamp(a, -2.0, 2.0), rng)


def _build_gather_rows(g, rng):
    a = g.input("a", rng.normal(size=(5, 3)))
    # repeated index exercises adjoint accumulation
    return _se_target(g, gather_rows(g, a, [4, 0, 2, 0]), rng)


def _build_reduce_sum(g, rng):
    a = g.input("a", rng.uniform(0.5, 1.5, size=(3, 4)))
    return reduce_sum(g, a)


def _positive(rng, shape):
    return rng.uniform(0.5, 1.5, size=shape)


def _build_matmul_batched(g, rng):
    a = g.input("a", _positive(rng, (2, 3, 4)))
    b = g.input("b", _positive(rng, (2, 4, 2)))
    return _se_target(g, g.matmul(a, b), rng)


def _build_matmul_shared_right(g, rng):
    # a weight shared by every batch entry
    a = g.input("a", _positive(rng, (2, 3, 4)))
    b = g.input("b", _positive(rng, (4, 2)))
    return _se_target(g, g.matmul(a, b), rng)


def _build_matmul_shared_left(g, rng):
    # shared queries against per-entry keys
    a = g.input("a", _positive(rng, (3, 4)))
    b = g.input("b", _positive(rng, (2, 4, 2)))
    return _se_target(g, g.matmul(a, b), rng)


def _build_matmul_rank1(g, rng):
    # inner length 1 both ways: a rank-1 forward product, then a product
    # whose left adjoint is rank-1, (2, 3, 1) @ (2, 1, 4)
    a = g.input("a", _positive(rng, (2, 3, 1)))
    b = g.input("b", _positive(rng, (1, 4)))
    c = g.input("c", _positive(rng, (2, 4, 1)))
    return _se_target(g, g.matmul(g.matmul(a, b), c), rng)


def _build_transpose_3d(g, rng):
    a = g.input("a", rng.normal(size=(2, 3, 4)))
    return _se_target(g, transpose(g, a), rng)


def _build_reshape(g, rng):
    a = g.input("a", rng.normal(size=(3, 4)))
    return _se_target(g, g.reshape(a, (2, 3, 2)), rng)


def _build_add_broadcast(g, rng):
    # b broadcasts over the batch axis and along its length-1 last axis
    a = g.input("a", rng.normal(size=(2, 3, 4)))
    b = g.input("b", rng.normal(size=(3, 1)))
    return _se_target(g, g.add(a, b), rng)


def _build_mul_broadcast(g, rng):
    sa = np.where(rng.random(size=(2, 3, 4)) < 0.5, -1.0, 1.0)
    a = g.input("a", sa * rng.uniform(0.5, 1.5, size=(2, 3, 4)))
    b = g.input("b", rng.uniform(0.5, 1.5, size=(2, 3, 1)))
    return _se_target(g, g.mul(a, b), rng)


def _build_row_softmax_3d(g, rng):
    a = g.input("a", rng.uniform(-2.0, 2.0, size=(2, 3, 4)))
    return _softmax_target(g, g.row_softmax(a), rng, axis=-1)


def _build_col_softmax_3d(g, rng):
    a = g.input("a", rng.uniform(-2.0, 2.0, size=(2, 3, 4)))
    return _softmax_target(g, col_softmax(g, a), rng, axis=-2)


def _build_reciprocal(g, rng):
    a = g.input("a", rng.uniform(0.5, 2.0, size=(3, 4)))
    return _se_target(g, g.reciprocal(a), rng)


def _build_sum_last(g, rng):
    a = g.input("a", rng.normal(size=(2, 3, 4)))
    return _se_target(g, g.sum(a, axis=-1), rng)


def _build_sum_rows(g, rng):
    a = g.input("a", rng.normal(size=(3, 4)))
    return _se_target(g, g.sum(a, axis=0), rng)


def _build_mean_pool_3d(g, rng):
    a = g.input("a", rng.normal(size=(2, 5, 4)))
    return _se_target(g, g.mean_pool(a), rng)


def _build_concat_3d(g, rng):
    a = g.input("a", rng.normal(size=(2, 2, 4)))
    b = g.input("b", rng.normal(size=(2, 3, 4)))
    return _se_target(g, g.concat(a, b, axis=-2), rng)


def _build_squared_error_3d(g, rng):
    a = g.input("a", rng.normal(size=(2, 3, 4)))
    b = g.input("b", a.value + rng.uniform(1.0, 2.0, size=(2, 3, 4)))
    return reduce_sum(g, g.squared_error(a, b))


def _build_affine(g, rng, lead=()):
    # positive operands, as for matmul; a 3-d x shares the 2-d weight
    x = g.input("x", _positive(rng, lead + (3, 4)))
    w = g.input("w", _positive(rng, (4, 2)))
    b = g.input("b", rng.normal(size=(1, 2)))
    return _se_target(g, g.affine(x, w, b), rng)


def _build_slot_encode(g, rng, mask=None, t_iters=1):
    """A slot encoder as one slot_encode node: 2 slots of width 3 over a
    bag of 4 instances, ``t_iters`` iterations; with a (B, M) ``mask`` a
    padded batch whose padded values are zeroed.  The GRU output lies in
    (-1, 1), so w1 in (-0.2, 0.2) and |b1| in (0.7, 1) keep every MLP
    pre-activation at least 0.1 from relu's kink, as in the cross_step
    builder.  A layer norm curves more sharply the closer a row's entries
    lie together, so each row of the bag and of the initial slots holds
    -0.8, 0 and 0.8 in a random order, each moved by less than 0.2."""
    s, d, m = 2, 3, 4
    lead = () if mask is None else mask.shape[:1]

    def leaf(name, shape, lo=-1.0, hi=1.0):
        return g.input(name, rng.uniform(lo, hi, size=shape))

    def spread_rows(name, shape):
        rows = rng.permuted(np.broadcast_to([-0.8, 0.0, 0.8], shape), axis=-1)
        return g.input(name, rows + rng.uniform(-0.2, 0.2, size=shape))

    ones = g.const(np.ones(lead + (m, 1)) if mask is None else mask[..., None])
    bag = spread_rows("bag", lead + (m, d))
    head = [leaf("gamma_in", (1, d), 0.5, 1.5), leaf("beta_in", (1, d)),
            leaf("w_k", (d, d)), leaf("w_v", (d, d))]
    slots = spread_rows("slots", lead + (s, d))
    head += [leaf("gamma", (1, d), 0.5, 1.5), leaf("w_q", (d, d))]
    gru = [leaf(nm, (1, d) if nm[0] == "b" else (d, d))
           for nm in ("wz", "uz", "bz", "wr", "ur", "br", "wn", "un", "bn")]
    b1 = rng.choice([-1.0, 1.0], size=(1, d)) * rng.uniform(0.7, 1.0, (1, d))
    mlp = [leaf("w1", (d, d), -0.2, 0.2), g.input("b1", b1),
           leaf("w2", (d, d)), leaf("b2", (1, d))]
    out = g.slot_encode(bag, ones, slots, *head, gru, mlp, t_iters)
    return _se_target(g, out, rng)


_PADDED = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]])


def _build_cross_step(g, rng, lead=()):
    """One direction of one cross-attention round: 2 query slots of width
    3 attend over 3 context slots.  The GRU output lies in (-1, 1) for
    queries in (-1, 1), so w1 in (-0.2, 0.2) and |b1| in (0.7, 1) keep
    every MLP pre-activation at least 0.1 from relu's kink, which the
    finite-difference stencil must not straddle; a unit with b1 < 0 is
    off for every row."""
    d = 3

    def leaf(name, shape, lo=-1.0, hi=1.0):
        return g.input(name, rng.uniform(lo, hi, size=shape))

    queries = leaf("queries", lead + (2, d))
    context = leaf("context", lead + (3, d))
    head = [leaf(nm, (d, d)) for nm in ("w_q", "w_k", "w_v")]
    gru = [leaf(nm, (1, d) if nm[0] == "b" else (d, d))
           for nm in ("wz", "uz", "bz", "wr", "ur", "br", "wn", "un", "bn")]
    b1 = rng.choice([-1.0, 1.0], size=(1, d)) * rng.uniform(0.7, 1.0, (1, d))
    mlp = [leaf("w1", (d, d), -0.2, 0.2), g.input("b1", b1),
           leaf("w2", (d, d)), leaf("b2", (1, d))]
    return _se_target(g, g.cross_step(queries, context, *head, gru, mlp), rng)


def _build_self_attend(g, rng, selected=((3, 1),)):
    """Self-attention among the selected rows of 4 slots of width 3, one
    set per row of ``selected``.  The rows lie in (-1, 1) and w_v in
    (-0.2, 0.2), so the MLP input lies in (-1.6, 1.6); w1 in (-0.1, 0.1)
    and |b1| in (0.7, 1) then keep every MLP pre-activation at least 0.2
    from relu's kink, which the finite-difference stencil must not
    straddle."""
    d = 3
    lead = (len(selected),) if len(selected) > 1 else ()

    def leaf(name, shape, lo=-1.0, hi=1.0):
        return g.input(name, rng.uniform(lo, hi, size=shape))

    slots = leaf("slots", lead + (4, d))
    head = [leaf("w_q", (d, d)), leaf("w_k", (d, d)),
            leaf("w_v", (d, d), -0.2, 0.2)]
    b1 = rng.choice([-1.0, 1.0], size=(1, d)) * rng.uniform(0.7, 1.0, (1, d))
    mlp = [leaf("w1", (d, d), -0.1, 0.1), g.input("b1", b1),
           leaf("w2", (d, d)), leaf("b2", (1, d))]
    return _se_target(g, g.self_attend(slots, np.array(selected), *head,
                                       mlp), rng)


def _build_decode(g, rng, lead=(), shared=False):
    """A reconstruction head as one decode node: 2 slots of width 3
    decoded at 4 query rows, per set of slots or ``shared`` by the sets.
    Each row of the queries and slots holds -0.8, 0 and 0.8 in a random
    order, each moved by less than 0.2, as in the slot_encode builder, and
    |w_v| < 0.05 moves a row of the attended queries by less than 0.35, so
    no layer norm sees a row of nearly equal entries.  A normalized row of
    width 3 has entries below sqrt(2); with the MLP's layer-norm gain below
    1.5 and |shift| < 0.2, w1 in (-0.1, 0.1) and |b1| in (0.9, 1) keep
    every MLP pre-activation at least 0.2 from relu's kink, which the
    finite-difference stencil must not straddle."""
    s, d, m = 2, 3, 4

    def leaf(name, shape, lo=-1.0, hi=1.0):
        return g.input(name, rng.uniform(lo, hi, size=shape))

    def spread_rows(name, shape):
        rows = rng.permuted(np.broadcast_to([-0.8, 0.0, 0.8], shape), axis=-1)
        return g.input(name, rows + rng.uniform(-0.2, 0.2, size=shape))

    queries = spread_rows("queries", (() if shared else lead) + (m, d))
    slots = spread_rows("slots", lead + (s, d))
    head = [leaf("w_q", (d, d)), leaf("w_k", (d, d)),
            leaf("w_v", (d, d), -0.05, 0.05)]
    b1 = rng.choice([-1.0, 1.0], size=(1, d)) * rng.uniform(0.9, 1.0, (1, d))
    mlp = [leaf("w1", (d, d), -0.1, 0.1), g.input("b1", b1),
           leaf("w2", (d, d)), leaf("b2", (1, d))]
    norms = [leaf("gamma_q", (1, d), 0.5, 1.5), leaf("beta_q", (1, d)),
             leaf("gamma_s", (1, d), 0.5, 1.5), leaf("beta_s", (1, d)),
             leaf("gamma_f", (1, d), 0.5, 1.5),
             leaf("beta_f", (1, d), -0.2, 0.2)]
    return _se_target(g, g.decode(queries, slots, *head, *mlp, *norms), rng)


OP_BUILDERS = {
    "matmul": _build_matmul,
    "decode": _build_decode,
    "decode_3d": lambda g, rng: _build_decode(g, rng, lead=(2,)),
    "decode_shared": lambda g, rng: _build_decode(g, rng, lead=(2,),
                                                  shared=True),
    "self_attend": _build_self_attend,
    "self_attend_3d": lambda g, rng: _build_self_attend(
        g, rng, selected=((3, 1), (0, 2))),
    "cross_step": _build_cross_step,
    "cross_step_3d": lambda g, rng: _build_cross_step(g, rng, lead=(2,)),
    "affine": _build_affine,
    "affine_3d": lambda g, rng: _build_affine(g, rng, lead=(2,)),
    # the slot_step cases are one slot_encode node of one iteration, the
    # _t3 cases of three
    "slot_step": _build_slot_encode,
    "slot_step_masked": lambda g, rng: _build_slot_encode(g, rng,
                                                          mask=_PADDED),
    "slot_step_t3": lambda g, rng: _build_slot_encode(g, rng, t_iters=3),
    "slot_step_masked_t3": lambda g, rng: _build_slot_encode(
        g, rng, mask=_PADDED, t_iters=3),
    "matmul_batched": _build_matmul_batched,
    "matmul_shared_right": _build_matmul_shared_right,
    "matmul_shared_left": _build_matmul_shared_left,
    "matmul_rank1": _build_matmul_rank1,
    "transpose_3d": _build_transpose_3d,
    "reshape": _build_reshape,
    "add_broadcast": _build_add_broadcast,
    "mul_broadcast": _build_mul_broadcast,
    "row_softmax_3d": _build_row_softmax_3d,
    "col_softmax_3d": _build_col_softmax_3d,
    "reciprocal": _build_reciprocal,
    "sum_last": _build_sum_last,
    "sum_rows": _build_sum_rows,
    "layer_norm_3d": lambda g, rng: _build_layer_norm(g, rng, batch=2),
    "gru_cell_3d": lambda g, rng: _build_gru(g, rng, lead=(2, 2)),
    "mean_pool_3d": _build_mean_pool_3d,
    "concat_3d": _build_concat_3d,
    "squared_error_3d": _build_squared_error_3d,
    "cosine_3d": lambda g, rng: _build_cosine(g, rng, batch=2),
    "transpose": _build_transpose,
    "add": _build_add,
    "add_row_bias": _build_add_row_bias,
    "scale": _build_scale,
    "row_softmax": _build_row_softmax,
    "col_softmax": _build_col_softmax,
    "sigmoid": _build_sigmoid,
    "relu": _build_relu,
    "layer_norm": _build_layer_norm,
    "gru_cell": _build_gru,
    "mean_pool": _build_mean_pool,
    "concat_rows": _build_concat_rows,
    "concat_cols": _build_concat_cols,
    "mul": _build_mul,
    "squared_error": _build_squared_error,
    "cosine": _build_cosine,
    "log": _build_log,
    "exp": _build_exp,
    "clamp": _build_clamp,
    "gather_rows": _build_gather_rows,
    "reduce_sum": _build_reduce_sum,
}


# A fused op chains a dozen kernels, so some of its gradient entries sit
# near zero by cancellation, where a float32 adjoint cannot reach a 1e-4
# relative error.  It is audited in float64 here; at float32 its value
# and every gradient are checked bitwise against the per-op chain it
# replaces (tests/test_slots.py, tests/test_fusion.py, tests/test_recon.py),
# whose ops all pass both modes here.
FLOAT64_ONLY = {"slot_step", "slot_step_masked", "slot_step_t3",
                "slot_step_masked_t3", "cross_step", "cross_step_3d",
                "self_attend", "self_attend_3d", "decode", "decode_3d",
                "decode_shared"}


def _fused_op(op_name: str) -> str:
    """The fused op an OP_BUILDERS case of a fused op records."""
    if op_name.startswith("slot_step"):
        return "slot_encode"
    return op_name.removesuffix("_3d").removesuffix("_shared")


@pytest.mark.parametrize("op_name", sorted(OP_BUILDERS))
def test_op_gradients_match_finite_differences(op_name):
    builder = OP_BUILDERS[op_name]
    for dtype, step, tol in MODES:
        if op_name in FLOAT64_ONLY and dtype != np.float64:
            continue
        worst = 0.0
        for point in range(N_POINTS):
            rng = np.random.default_rng(_seed(op_name, point))
            g = Graph(dtype=dtype)
            seed = builder(g, rng)
            worst = max(worst, finite_diff_check(g, seed, step=step))
        assert worst < tol, f"{op_name} {np.dtype(dtype).name}: {worst:.3g}"


class _OneConstantGraph(Graph):
    """A graph that declares the input called ``constant`` as a constant."""

    def __init__(self, constant, dtype):
        super().__init__(dtype=dtype)
        self.constant = constant

    def input(self, name, value):
        if name == self.constant:
            return self.const(value)
        return super().input(name, value)


@pytest.mark.parametrize("op_name", sorted(OP_BUILDERS))
def test_constant_operand_leaves_the_other_adjoints_bitwise(op_name):
    """Backward computes no adjoint for a constant operand, and turning one
    input into a constant leaves every other input's gradient bitwise the
    same."""
    for dtype in (np.float32, np.float64):
        def gradients(constant):
            g = _OneConstantGraph(constant, dtype)
            seed = OP_BUILDERS[op_name](g, np.random.default_rng(
                _seed(op_name, 0)))
            return backward(g, seed)

        full = gradients(None)
        for name in full:
            part = gradients(name)
            assert set(part) == set(full) - {name}
            for other, grad in part.items():
                np.testing.assert_array_equal(grad, full[other],
                                              err_msg=f"{name} -> {other}")


class _KeepInputsGraph(Graph):
    """A graph that declares every input not named in ``keep`` as a
    constant."""

    def __init__(self, keep, dtype):
        super().__init__(dtype=dtype)
        self.keep = keep

    def input(self, name, value):
        if name not in self.keep:
            return self.const(value)
        return super().input(name, value)


def _tail_params(gru, mlp):
    names = ("wz", "uz", "bz", "wr", "ur", "br", "wn", "un", "bn")
    return {**{f"gru_{n}": w for n, w in zip(names, gru)},
            **dict(zip(("mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2"), mlp))}


class _ChainGraph(_KeepInputsGraph):
    """A ``_KeepInputsGraph`` whose fused ops record the per-op chains of
    tests/oracles.py instead of one node."""

    def slot_encode(self, bag, ones, slots, ln_gamma, ln_beta, w_k, w_v,
                    slot_gamma, w_q, gru, mlp, t_iters):
        p = SimpleNamespace(ln_in_gamma=ln_gamma, ln_in_beta=ln_beta,
                            w_k=w_k, w_v=w_v, ln_slot_gamma=slot_gamma,
                            w_q=w_q, **_tail_params(gru, mlp))
        return unfused_slot_encode(self, p, bag, ones, slots, t_iters)[0]

    def cross_step(self, queries, context, w_q, w_k, w_v, gru, mlp):
        p = SimpleNamespace(w_q=w_q, w_k=w_k, w_v=w_v,
                            **_tail_params(gru, mlp))
        return unfused_cross_update(self, p, queries, context)

    def self_attend(self, slots, selected, w_q, w_k, w_v, mlp):
        p = SimpleNamespace(w_q=w_q, w_k=w_k, w_v=w_v,
                            **_tail_params((), mlp))
        return unfused_self_attention(self, p, slots, selected)

    def decode(self, queries, slots, *weights):
        names = ("w_q", "w_k", "w_v", "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2",
                 "ln_q_gamma", "ln_q_beta", "ln_s_gamma", "ln_s_beta",
                 "ln_f_gamma", "ln_f_beta")
        head = SimpleNamespace(**dict(zip(names, weights, strict=True)))
        return unfused_decode(self, head, queries, slots)


@pytest.mark.parametrize("op_name, keep", [
    ("slot_step", {"w2", "b2"}), ("slot_step", {"bag"}),
    ("cross_step", {"w2", "b2"}), ("cross_step", {"context"}),
    ("self_attend", {"w2", "b2"}), ("self_attend", {"slots"}),
    ("self_attend_3d", {"w_k"}), ("slot_step_t3", {"w_k", "beta_in"}),
    ("slot_step_masked_t3", {"slots", "w_q"}),
    ("slot_step_masked", {"gamma_in", "w_v"}),
    ("decode", {"w1", "b1"}), ("decode", {"queries"}),
    ("decode_3d", {"slots", "gamma_s"}), ("decode_3d", {"w_q", "beta_f"}),
    ("decode_shared", {"queries", "w_v"}),
    ("decode_shared", {"beta_q", "w_k"})])
def test_fused_adjoints_with_most_operands_constant(op_name, keep):
    """With every operand but a few constant, a fused node hands the
    inputs left the per-op chain's gradients bit for bit, and they pass
    the finite-difference audit (in float64 only, see FLOAT64_ONLY)."""
    for dtype, step, tol in MODES:
        for point in range(4):
            graphs = [graph_type(keep, dtype)
                      for graph_type in (_KeepInputsGraph, _ChainGraph)]
            seeds = [OP_BUILDERS[op_name](g, np.random.default_rng(
                _seed(op_name, point))) for g in graphs]
            fused, chain = (backward(g, s) for g, s in zip(graphs, seeds))
            fused_op = _fused_op(op_name)
            assert fused_op in graphs[0]._ops
            assert fused_op not in graphs[1]._ops
            assert set(fused) == set(chain) == keep
            for name in keep:
                assert _same_bits(fused[name], chain[name]), (dtype, name)
            if op_name not in FLOAT64_ONLY or dtype == np.float64:
                assert finite_diff_check(graphs[0], seeds[0], step=step) < tol


def test_finite_diff_exact_for_linear_function():
    # sum(x) via matmul with a ones column; integer points and a
    # power-of-two step make the central difference exact.
    for dtype in (np.float32, np.float64):
        g = Graph(dtype=dtype)
        x = g.input("x", np.arange(1.0, 7.0).reshape(1, 6))
        total = g.matmul(x, g.const(np.ones((6, 1))))
        assert finite_diff_check(g, total, step=2.0**-13) == 0.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_finite_diff_check_fails_a_wrong_adjoint(monkeypatch, dtype):
    """The checker can fail: with the ``scale`` adjoint handing twice its
    contribution it reads a relative error of 0.5 on a linear graph, where
    the differences are exact, and the true rule reads under the audit's
    tolerance on the same graph."""
    def build():
        g = Graph(dtype=dtype)
        x = g.input("x", np.arange(1.0, 7.0).reshape(1, 6))
        return g, g.matmul(g.scale(x, 0.5), g.const(np.ones((6, 1))))

    tol = next(t for d, _, t in MODES if d == dtype)
    assert finite_diff_check(*build(), step=2.0**-13) < tol

    def doubled(g, i, grad, grads):
        autodiff._acc(grads, g._parents[i][0],
                      grad * g.dtype.type(2.0 * g._aux[i]))

    monkeypatch.setitem(autodiff._BACKWARD, "scale", doubled)
    assert finite_diff_check(*build(), step=2.0**-13) >= 0.5


def test_stop_gradient_identity_forward_zero_backward():
    rng = np.random.default_rng(7)
    g = Graph(dtype=np.float64)
    x = g.input("x", rng.normal(size=(3, 3)))
    sg = g.stop_gradient(x)
    assert np.array_equal(sg.value, x.value)
    loss = g.squared_error(sg, g.const(np.zeros((3, 3))))
    grads = backward(g, loss)
    assert np.all(grads["x"] == 0.0)


def test_stop_gradient_blocks_only_its_branch():
    rng = np.random.default_rng(8)
    g = Graph(dtype=np.float64)
    x = g.input("x", rng.normal(size=(2, 2)))
    direct = g.squared_error(x, g.const(np.zeros((2, 2))))
    blocked = g.squared_error(g.stop_gradient(x), g.const(np.zeros((2, 2))))
    loss = g.add(direct, blocked)
    grads = backward(g, loss)
    expected = 2.0 / x.value.size * x.value
    np.testing.assert_allclose(grads["x"], expected, rtol=1e-12)


def test_0d_leaves_keep_their_rank_through_add_scale_and_backward():
    """A 0-d constant or input stays 0-d, as do the add and scale nodes it
    feeds, and backward hands a 0-d input a 0-d gradient."""
    rng = np.random.default_rng(9)
    g = Graph(dtype=np.float64)
    x = g.input("x", rng.normal(size=(2, 3)))
    c = g.input("c", 3.0)
    one = g.const(np.ones(()))
    assert one.shape == c.shape == ()
    err = g.squared_error(x, g.const(np.zeros((2, 3))))
    loss = g.add(g.scale(one, 2.0), g.scale(g.add(err, c), -1.0))
    assert loss.shape == ()
    assert float(loss.value) == 2.0 - float(err.value) - 3.0
    grads = backward(g, loss)
    assert grads["c"].shape == () and float(grads["c"]) == -1.0
    np.testing.assert_allclose(grads["x"], -2.0 / 6 * x.value, rtol=1e-12)


def test_unreachable_input_gets_zero_gradient():
    g = Graph(dtype=np.float64)
    x = g.input("x", np.ones((2, 2)))
    y = g.input("y", np.ones((3, 3)))
    loss = g.squared_error(x, g.const(np.zeros((2, 2))))
    grads = backward(g, loss)
    assert grads["y"].shape == (3, 3)
    assert np.all(grads["y"] == 0.0)


def test_softmax_rows_and_cols_sum_to_one():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 7)) * 4
    g = Graph(dtype=np.float32)
    xn = g.input("x", x)
    rs = g.row_softmax(xn).value
    cs = col_softmax(g, xn).value
    np.testing.assert_allclose(rs.sum(axis=1), 1.0, atol=1e-6)
    np.testing.assert_allclose(cs.sum(axis=0), 1.0, atol=1e-6)
    assert rs.min() > 0 and cs.min() > 0


def test_layer_norm_row_statistics():
    rng = np.random.default_rng(4)
    g = Graph(dtype=np.float64)
    x = g.input("x", rng.normal(size=(6, 32)) * 3 + 1)
    y = layer_norm(g, x, g.input("g", np.ones((1, 32))),
                   g.input("b", np.zeros((1, 32)))).value
    np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-10)
    np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-4)


def test_sigmoid_values_and_stability():
    g = Graph(dtype=np.float64)
    x = g.input("x", np.array([[-800.0, 0.0, 800.0]]))
    y = g.sigmoid(x).value
    np.testing.assert_allclose(y, [[0.0, 0.5, 1.0]], atol=1e-12)


def _two_branch_sigmoid(x):
    """Reference logistic: 1/(1+e^-x) on x >= 0, e^x/(1+e^x) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_kernel_is_bitwise_the_two_branch_formula(dtype):
    info = np.finfo(dtype)
    special = [0.0, -0.0, 1e3, -1e3, info.smallest_subnormal,
               -info.smallest_subnormal, info.tiny, -info.tiny,
               info.max, -info.max]
    rng = np.random.default_rng(17)
    x = np.concatenate([np.array(special, dtype=dtype)] + [
        (rng.normal(size=(64, 32)) * scale).astype(dtype).ravel()
        for scale in (1.0, 10.0, 100.0, 1000.0)])
    got = autodiff._sigmoid(x)      # a RuntimeWarning fails the suite
    want = _two_branch_sigmoid(x)
    assert got.dtype == want.dtype == dtype
    bits = np.uint32 if dtype == np.float32 else np.uint64
    np.testing.assert_array_equal(got.view(bits), want.view(bits))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mean_kernel_is_bitwise_ndarray_mean(dtype):
    """The engine's keep-dims mean (a sum, then one in-place division by
    the count) has ``ndarray.mean``'s bits, odd lengths included."""
    rng = np.random.default_rng(22)
    bits = np.uint32 if dtype == np.float32 else np.uint64
    for shape in ((7, 33), (16, 32), (1, 5), (3, 7, 9), (2, 16, 31)):
        x = (rng.normal(size=shape) * rng.uniform(0.1, 1e3)).astype(dtype)
        for axis in (-1, -2, (-2, -1)):
            got = autodiff._mean(x, axis)
            want = x.mean(axis=axis, keepdims=True)
            assert got.dtype == want.dtype == dtype
            np.testing.assert_array_equal(got.view(bits), want.view(bits),
                                          err_msg=f"{shape} {axis}")


def _two_sigmoid_gru(x, h, wz, uz, bz, wr, ur, br, wn, un, bn):
    """The GRU cell with one sigmoid call per gate."""
    z = x @ wz
    z += h @ uz
    z += bz
    autodiff._sigmoid(z, out=z)
    r = x @ wr
    r += h @ ur
    r += br
    autodiff._sigmoid(r, out=r)
    rh = r * h
    n = x @ wn
    n += rh @ un
    n += bn
    np.tanh(n, out=n)
    out = 1.0 - z
    out *= n
    out += z * h
    return out, (z, r, n, rh)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(), (3,)])
def test_gru_kernel_is_bitwise_the_two_sigmoid_formula(dtype, lead):
    """The GRU kernel maps both gates with one sigmoid over one buffer; its
    output and saved z, r, n and r * h have the bits of one sigmoid per
    gate."""
    rng = np.random.default_rng(23)
    d = 32
    x = rng.normal(size=lead + (16, d)).astype(dtype)
    h = rng.normal(size=lead + (16, d)).astype(dtype)
    weights = [(rng.normal(size=(1, d) if k % 3 == 2 else (d, d))
                / np.sqrt(d)).astype(dtype) for k in range(9)]
    got, saved = autodiff._gru_fwd(None, x, h, *weights)
    want, want_saved = _two_sigmoid_gru(x.reshape(-1, d), h.reshape(-1, d),
                                        *weights)
    assert _same_bits(got, want.reshape(x.shape))
    for a, b in zip(saved, want_saved, strict=True):
        assert _same_bits(a, b)


_MATMUL_SHAPES = [((5, 3), (3, 4)), ((2, 5, 3), (3, 4)),
                  ((2, 5, 3), (2, 3, 4)), ((5, 3), (2, 3, 4))]


@pytest.mark.parametrize("shapes", _MATMUL_SHAPES, ids=str)
@pytest.mark.parametrize("constant", ["left", "right", None])
def test_matmul_adjoint_of_a_constant_operand_is_never_computed(
        monkeypatch, shapes, constant):
    """Backward forms one product per operand that reaches an input, and
    the adjoint it forms is the one it forms when both operands are
    inputs."""
    def run(const_side):
        rng = np.random.default_rng(18)
        g = Graph(dtype=np.float64)
        a, b = (g.const(v) if side == const_side else g.input(side, v)
                for side, v in zip(("left", "right"),
                                   (rng.normal(size=s) for s in shapes)))
        out = g.matmul(a, b)
        loss = reduce_sum(g, g.mul(out, g.const(rng.normal(size=out.shape))))
        products = []
        real = autodiff._matmul

        def counting(x, y, out=None):
            products.append((x.shape, y.shape))
            return real(x, y, out=out)

        with monkeypatch.context() as patch:
            patch.setattr(autodiff, "_matmul", counting)
            return backward(g, loss), products

    both, both_products = run(None)
    grads, products = run(constant)
    assert len(both_products) == 2
    assert len(products) == 2 - (constant is not None)
    assert set(grads) == {"left", "right"} - {constant}
    for name, grad in grads.items():
        np.testing.assert_array_equal(grad, both[name])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rank1_matmul_is_bitwise_the_blas_product(dtype):
    """A product with inner length 1 is formed as a broadcast multiply; it
    has the bits np.matmul gives, signed zeros included."""
    rng = np.random.default_rng(19)
    vals = np.array([0.0, -0.0, 1.0, -1.0, 3e-39, -2.5e38], dtype=dtype)

    def draw(shape):
        return np.where(rng.random(shape) < 0.3, rng.choice(vals, shape),
                        rng.normal(size=shape)).astype(dtype)

    bits = np.uint32 if dtype == np.float32 else np.uint64
    with np.errstate(over="ignore", under="ignore"):
        for sa, sb in (((5, 1), (1, 4)), ((2, 5, 1), (1, 4)),
                       ((2, 5, 1), (2, 1, 4)), ((5, 1), (2, 1, 4))):
            a, b = draw(sa), draw(sb)
            got = autodiff._matmul(a, b)
            want = np.matmul(a, b)
            assert got.dtype == want.dtype == dtype
            np.testing.assert_array_equal(got.view(bits), want.view(bits))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_never_writes_a_buffer_it_did_not_allocate(
        monkeypatch, dtype):
    """Pass-through rules hand one adjoint array to several nodes: ``add`` to
    both operands, ``reshape`` and ``transpose`` a view of it.  Adding a later
    contribution into such a shared array in place would change another
    node's adjoint.  Every node value and every gradient must match the
    out-of-place reference bit for bit."""
    rng = np.random.default_rng(20)
    g = Graph(dtype=dtype)
    x = g.input("x", rng.normal(size=(3, 4)))
    w = g.input("w", rng.normal(size=(4, 4)))
    v = g.input("v", rng.normal(size=(3, 4)))
    a = g.matmul(x, w)
    sq = g.mul(a, a)                    # one node twice as an operand
    b = g.scale(v, 2.0)
    y = g.add(a, b)                     # y's adjoint goes to a and to b
    r = g.reshape(y, (4, 3))
    t = transpose(g, y)
    z = g.add(r, t)                     # z's adjoint goes to r and to t
    twice = g.add(z, z)
    loss = g.add(
        reduce_sum(g, g.mul(twice, g.const(rng.normal(size=(4, 3))))),
        reduce_sum(g, g.mul(g.add(sq, y), g.const(rng.normal(size=(3, 4))))))
    values = [val.copy() for val in g._values]

    got = backward(g, loss)
    with monkeypatch.context() as patch:
        patch.setattr(autodiff, "_acc", out_of_place_acc)
        want = backward(g, loss)
    for before, after in zip(values, g._values):
        assert _same_bits(before, after)
    assert set(got) == set(want) == {"x", "w", "v"}
    for name in want:
        assert _same_bits(got[name], want[name]), name


# stop_gradient has no FD audit (its adjoint is zero by design), but it
# replays like every other op.
REPLAY_BUILDERS = {
    **OP_BUILDERS,
    "stop_gradient": lambda g, rng: g.stop_gradient(
        g.input("a", rng.normal(size=(3, 4)))),
}


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("op_name", sorted(REPLAY_BUILDERS))
def test_forward_replay_matches_eager_build(op_name):
    """A clone at the build's own dtype, which replays every node,
    reproduces every eager node value, and every saved intermediate, bit
    for bit."""
    # the engine's tables plus the six ops tests/oracles.py adds: the
    # chain's five and reduce_sum
    assert CHAIN_OPS.isdisjoint(OP_KINDS)
    assert set(OP_KINDS) | CHAIN_OPS == {"input", "const"} | set(_FORWARD)
    assert set(_BACKWARD) <= set(_FORWARD)
    for dtype in (np.float32, np.float64):
        g = Graph(dtype=dtype)
        REPLAY_BUILDERS[op_name](g, np.random.default_rng(_seed(op_name, 0)))
        replayed = clone(g, dtype)
        for i in range(g.num_nodes):
            assert _same_bits(g._values[i], replayed._values[i]), (op_name, i)
            if g._saved[i] is not None:
                pairs = zip(saved_arrays(g._saved[i]),
                            saved_arrays(replayed._saved[i]), strict=True)
                assert all(a is b is None or _same_bits(a, b)
                           for a, b in pairs), (op_name, i)


@pytest.mark.parametrize("op_name", ["slot_step", "slot_step_masked",
                                     "cross_step", "cross_step_3d",
                                     "self_attend", "self_attend_3d",
                                     "slot_step_t3", "slot_step_masked_t3",
                                     "decode", "decode_3d", "decode_shared"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_leaves_fused_values_and_saved_intermediates_intact(
        op_name, dtype):
    """The fused kernels and adjoints write in place only into arrays they
    allocated: after ``backward`` every node value and every saved
    intermediate has the bits it had before.  The node values include the
    parents the adjoints form layer-norm rows again from, a slot_encode
    node's bag and a decode node's queries; a second ``backward``, which
    forms those rows again from them, gives the first one's gradients bit
    for bit."""
    g = Graph(dtype=dtype)
    seed = OP_BUILDERS[op_name](g, np.random.default_rng(_seed(op_name, 0)))
    assert _fused_op(op_name) in g._ops
    values = [v.copy() for v in g._values]
    saved = [None if sv is None else
             [None if a is None else a.copy() for a in saved_arrays(sv)]
             for sv in g._saved]
    grads = backward(g, seed)
    for i in range(g.num_nodes):
        assert _same_bits(values[i], g._values[i]), (op_name, i)
        if saved[i] is not None:
            pairs = zip(saved[i], saved_arrays(g._saved[i]), strict=True)
            assert all(a is b is None or _same_bits(a, b)
                       for a, b in pairs), (op_name, i)
    again = backward(g, seed)
    assert list(again) == list(grads)
    for name, grad in grads.items():
        assert _same_bits(grad, again[name]), (op_name, name)


def test_gather_rows_values_and_duplicates():
    g = Graph(dtype=np.float32)
    x = g.input("x", np.arange(12.0).reshape(4, 3))
    got = gather_rows(g, x, [3, 1, 3]).value
    np.testing.assert_array_equal(got, x.value[[3, 1, 3]])


def test_shape_errors_raise_graph_error():
    g = Graph(dtype=np.float32)
    a = g.input("a", np.ones((2, 3)))
    b = g.input("b", np.ones((2, 3)))
    with pytest.raises(GraphError):
        g.matmul(a, b)
    with pytest.raises(GraphError):
        g.add(a, g.const(np.ones((3, 2))))
    with pytest.raises(GraphError):
        gather_rows(g, a, [5])
    with pytest.raises(GraphError):
        g.clamp(a, 2.0, -2.0)


def test_fused_op_shape_errors_raise_graph_error():
    g = Graph(dtype=np.float32)
    x = g.input("x", np.ones((2, 3)))
    w = g.input("w", np.ones((3, 2)))
    with pytest.raises(GraphError, match="bias"):
        g.affine(x, w, g.const(np.ones((2, 3))))
    d = 3
    slots = g.input("slots", np.ones((2, d)))
    row, mat = g.const(np.ones((1, d))), g.const(np.eye(d))
    gru = (mat, mat, row) * 3
    mlp = (mat, row, mat, row)

    def encode(bag=(4, d), ones=(4, 1), slots=slots,
               head=(row, row, mat, mat, row, mat), mlp=mlp, t_iters=1):
        return g.slot_encode(g.input(f"bag{g.num_nodes}", np.ones(bag)),
                             g.const(np.ones(ones)), slots, *head, gru, mlp,
                             t_iters)

    for bad in (dict(ones=(5, 1)), dict(ones=(4, d)),
                dict(bag=(0, d), ones=(0, 1)),          # no instance
                dict(bag=(4, d + 1)), dict(bag=(d,), ones=(1,)),
                dict(bag=(2, 4, d), ones=(2, 4, 1)),    # 2-d slots
                dict(slots=g.input("batched_slots", np.ones((3, 2, d))),
                     bag=(2, 4, d), ones=(2, 4, 1))):
        with pytest.raises(GraphError, match="shapes"):
            encode(**bad)
    with pytest.raises(GraphError, match="weights"):
        encode(mlp=(mat, mat, mat, row))
    with pytest.raises(GraphError, match="weights"):
        encode(head=(row, mat, mat, mat, row, mat))
    with pytest.raises(GraphError, match="t_iters"):
        encode(t_iters=0)
    assert encode().shape == encode(t_iters=3).shape == (2, d)
    assert encode(slots=g.input("slots3", np.ones((2, 2, d))),
                  bag=(2, 4, d), ones=(2, 4, 1)).shape == (2, 2, d)
    context = g.input("context", np.ones((4, d)))
    for bad in (np.ones((1, 4, d)), np.ones((4, d + 1)), np.ones(d)):
        with pytest.raises(GraphError, match="shapes"):
            g.cross_step(slots, g.const(bad), mat, mat, mat, gru, mlp)
    with pytest.raises(GraphError, match="weights"):
        g.cross_step(slots, context, mat, row, mat, gru, mlp)
    with pytest.raises(GraphError, match="weights"):
        g.cross_step(slots, context, mat, mat, mat, gru[:-1], (*mlp, row))
    assert g.cross_step(slots, context, mat, mat, mat, gru,
                        mlp).shape == (2, d)
    batched = g.input("batched", np.ones((2, 2, d)))
    assert g.cross_step(batched, g.const(np.ones((2, 5, d))), mat, mat, mat,
                        gru, mlp).shape == (2, 2, d)
    four = g.input("four", np.ones((2, 4, d)))
    for sets, selected in ((slots, [0, 1]),         # not (n, K)
                           (slots, [[0, 2]]),       # row 2 of 2
                           (slots, [[-1, 0]]),
                           (slots, np.zeros((1, 0))),
                           (four, [[0, 1]]),        # one row for two sets
                           (g.input("flat", np.ones(d)), [[0]])):
        with pytest.raises(GraphError, match="shapes"):
            g.self_attend(sets, selected, mat, mat, mat, mlp)
    with pytest.raises(GraphError, match="weights"):
        g.self_attend(slots, [[1]], mat, mat, row, mlp)
    with pytest.raises(GraphError, match="weights"):
        g.self_attend(slots, [[1]], mat, mat, mat, (mat, row, mat))
    assert g.self_attend(slots, [[1, 0]], mat, mat, mat,
                         mlp).shape == (2, d)
    assert g.self_attend(four, [[3, 1], [0, 2]], mat, mat, mat,
                         mlp).shape == (2, 4, d)


def test_decode_shape_errors_raise_graph_error():
    """decode takes slots (.., S, d) and queries (M, d) or with the slots'
    leading axes, both with at least one row, and thirteen weights in the
    reconstruction head's layout."""
    g = Graph(dtype=np.float32)
    d = 3
    row, mat = g.const(np.ones((1, d))), g.const(np.eye(d))
    weights = (mat, mat, mat, mat, row, mat, row) + (row,) * 6

    def decode(queries, slots, weights=weights):
        return g.decode(g.input(f"q{g.num_nodes}", np.ones(queries)),
                        g.input(f"s{g.num_nodes}", np.ones(slots)), *weights)

    for queries, slots in (((4, d), (2, d + 1)),        # widths differ
                           ((2, 4, d), (2, d)),         # 3-d queries, 2-d slots
                           ((3, 4, d), (2, 2, d)),      # other leading axes
                           ((0, d), (2, d)),            # no query row
                           ((4, d), (2, 0, d)),         # no slot
                           ((d,), (2, d)),
                           ((1, 2, 4, d), (2, d)),
                           ((4, d), (1, 2, 2, d))):
        with pytest.raises(GraphError, match="decode shapes"):
            decode(queries, slots)
    with pytest.raises(GraphError, match="weights"):
        decode((4, d), (2, d), weights=(row,) + weights[1:])
    with pytest.raises(GraphError, match="weights"):
        decode((4, d), (2, d), weights=weights[:-1] + (mat,))
    assert decode((4, d), (2, d)).shape == (4, d)
    assert decode((4, d), (2, 2, d)).shape == (2, 4, d)
    assert decode((2, 4, d), (2, 2, d)).shape == (2, 4, d)


def test_decode_guard_catches_a_pre_activation_that_relu_would_hide():
    """An MLP weight that overflows the pre-relu value to -inf raises,
    although relu would turn the -inf into a finite 0."""
    rng = np.random.default_rng(22)
    d = 4
    arrays = [rng.normal(size=(3, d)) * 2.0, rng.normal(size=(2, d))]
    arrays += [rng.normal(size=(1, d) if c == "b" else (d, d))
               for c in autodiff._DECODE_LAYOUT]

    def run(w1):
        g = Graph(dtype=np.float32)
        nodes = [g.const(a) for a in arrays[:5] + [w1] + arrays[6:]]
        return g, g.decode(*nodes)

    g, node = run(arrays[5])
    xhat_f = g._saved[node.idx].xhat_f          # (3, d); MLP-independent
    gamma_f, beta_f = (g._values[p] for p in g._parents[node.idx][-2:])
    nf = xhat_f * gamma_f + beta_f
    big = -np.finfo(np.float32).max * np.sign(nf[0])[:, None] \
        * np.ones((1, d), np.float32)
    with np.errstate(over="ignore"):
        pre = nf[:1] @ big.astype(np.float32)
    assert np.isneginf(pre).all() and (np.maximum(pre, 0) == 0).all()
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(GraphError, match="pre-activation in decode"):
        run(big)


def test_cross_step_guard_catches_a_pre_activation_that_relu_would_hide():
    """An MLP weight that overflows the pre-relu value to -inf raises,
    although relu would turn the -inf into a finite 0."""
    rng = np.random.default_rng(21)
    d = 4
    queries = rng.normal(size=(1, d)) * 2.0
    context = rng.normal(size=(3, d))
    weights = {nm: rng.normal(size=(1, d) if nm[0] == "b" else (d, d))
               for nm in ("w_q", "w_k", "w_v", "wz", "uz", "bz", "wr", "ur",
                          "br", "wn", "un", "bn", "w1", "b1", "w2", "b2")}

    def step(w1):
        g = Graph(dtype=np.float32)
        w = {nm: g.const(v) for nm, v in {**weights, "w1": w1}.items()}
        node = g.cross_step(
            g.const(queries), g.const(context), w["w_q"], w["w_k"], w["w_v"],
            [w[nm] for nm in ("wz", "uz", "bz", "wr", "ur", "br", "wn", "un",
                              "bn")],
            [w["w1"], w["b1"], w["w2"], w["b2"]])
        return g, node

    g, node = step(weights["w1"])
    # the GRU output, formed from the node's operands and its saved
    # attention and values: (1, d), MLP-independent
    sv = g._saved[node.idx]
    operands = [g._values[p] for p in g._parents[node.idx]]
    updated, _ = autodiff._gru_fwd(None, sv.attn @ sv.v, operands[0],
                                   *operands[5:14])
    big = -np.finfo(np.float32).max * np.sign(updated[0])[:, None] \
        * np.ones((1, d), np.float32)
    with np.errstate(over="ignore"):
        pre = updated @ big.astype(np.float32)
    assert np.isneginf(pre).all() and (np.maximum(pre, 0) == 0).all()
    with np.errstate(over="ignore"), \
            pytest.raises(GraphError, match="pre-activation in cross_step"):
        step(big)


@pytest.mark.parametrize("lead", [(), (4,)])
def test_cross_step_node_holds_three_saved_buffers(lead):
    """A cross_step node keeps three buffers for its adjoint: the keys,
    the values and the attention.  The adjoint rebuilds q and the GRU
    input attn @ v from those, the queries and the weights, and runs the
    GRU (its gates, r * h and output) and the MLP's hidden layer
    again."""
    g = Graph(dtype=np.float32)
    _build_cross_step(g, np.random.default_rng(24), lead=lead)
    i = g._ops.index("cross_step")
    buffers = owning_buffers(saved_arrays(g._saved[i]))
    assert len(buffers) == 3
    # per set: keys_t and v (3 x 3 each) and attn (2 x 3)
    sets = int(np.prod(lead))
    assert sorted(b.size for b in buffers) == [6 * sets, 9 * sets, 9 * sets]
    parents = [g._values[p] for p in g._parents[i]]
    assert not any(b is p for b in buffers for p in parents)


def test_non_finite_rejected_with_node_id():
    g = Graph(dtype=np.float32)
    with pytest.raises(GraphError):
        g.input("x", np.array([[np.inf]]))
    g2 = Graph(dtype=np.float32)
    x = g2.input("x", np.array([[-1.0]]))
    with pytest.raises(GraphError, match=r"node 1\b"):
        g2.log(x)
    big = g2.const(np.array([[1000.0]]))
    with np.errstate(over="ignore"), \
            pytest.raises(GraphError, match=r"node 2\b"):
        g2.exp(big)
    # a rejected op records nothing
    assert g2.num_nodes == 2


def test_backward_rejects_non_scalar_seed():
    g = Graph(dtype=np.float32)
    x = g.input("x", np.ones((2, 2)))
    with pytest.raises(GraphError):
        backward(g, x)


def test_duplicate_input_name_rejected():
    g = Graph(dtype=np.float32)
    g.input("x", np.ones((1, 1)))
    with pytest.raises(GraphError):
        g.input("x", np.ones((1, 1)))


def test_madd_count_matmul():
    g = Graph(dtype=np.float32)
    a = g.input("a", np.ones((3, 5)))
    b = g.input("b", np.ones((5, 7)))
    before = g.total_madds()
    g.matmul(a, b)
    assert g.total_madds() - before == 3 * 5 * 7


def test_ancestors_reachability():
    g = Graph(dtype=np.float32)
    x = g.input("x", np.ones((2, 2)))
    y = g.input("y", np.ones((2, 2)))
    z = g.mul(x, x)
    anc = ancestors(g, z)
    assert x.idx in anc and z.idx in anc and y.idx not in anc


def test_cosine_degenerate_row_flagged_and_zero_grad():
    g = Graph(dtype=np.float64)
    a = g.input("a", np.array([[1.0, 0.0], [0.0, 0.0]]))
    b = g.input("b", np.array([[1.0, 0.0], [1.0, 1.0]]))
    c = g.cosine(a, b)
    assert list(g.degenerate_rows(c)) == [1]
    grads = backward(g, c)
    assert np.all(grads["a"][1] == 0.0)
    np.testing.assert_allclose(float(c.value), 0.5)


def test_fd_cone_replay_matches_full_replay_bitwise():
    """finite_diff_check replays only the perturbed input's descendant
    cone; the resulting quotients must equal a whole-graph replay exactly."""
    rng = np.random.default_rng(_seed("cone", 0))
    g = Graph(dtype=np.float64)
    x = g.input("x", rng.normal(size=(3, 4)))
    w1 = g.input("w1", rng.normal(size=(4, 4)))
    w2 = g.input("w2", rng.normal(size=(4, 2)))
    h = g.row_softmax(g.matmul(x, w1))
    shared = g.add(h, g.sigmoid(h))          # shared subexpression
    y = g.matmul(shared, w2)
    loss = reduce_sum(g, g.mul(y, y))

    step = 1e-4
    fast = finite_diff_check(g, loss, step=step)

    # reference: a full replay (a fresh clone of the shadow with the
    # perturbed input set) for every stencil evaluation
    analytic = backward(g, loss)
    shadow = clone(g, np.float64)
    base = {n: shadow._values[shadow._inputs[n]].copy()
            for n in g.input_names()}
    worst = 0.0
    for name in g.input_names():
        a = base[name]
        for k in range(a.size):
            vals = []
            for delta in (-2.0 * step, -step, step, 2.0 * step):
                xp = a.copy()
                xp.flat[k] += delta
                shadow._values[shadow._inputs[name]] = xp
                vals.append(clone(shadow, np.float64)._values[loss.idx].item())
            f_m2, f_m1, f_p1, f_p2 = vals
            num = ((f_m2 - f_p2) + 8.0 * (f_p1 - f_m1)) / (12.0 * step)
            an = float(analytic[name].flat[k])
            worst = max(worst, abs(num - an) / max(abs(num), abs(an), 1e-8))
        shadow._values[shadow._inputs[name]] = a
    assert fast == worst
    assert fast < 1e-7


# Kernels whose output the guard skips, with the aux each is called with:
# fed finite values, each must return finite values.
_FINITE_KERNEL_CASES = {
    "transpose": [None],
    "reshape": [(-1,)],
    "gather_rows": [np.array([2, 0, 2])],
    "concat": [0, 1],
    "stop_gradient": [None],
    "relu": [None],
    "clamp": [(-2.0, 2.0), (1e-30, np.inf)],
    "sigmoid": [None],
    "row_softmax": [-1],
    "col_softmax": [-2],
}


def _extreme_matrices(dtype):
    info = np.finfo(dtype)
    special = [info.max, -info.max, info.smallest_subnormal,
               -info.smallest_subnormal, info.tiny, 0.0, -0.0, 1.0, -1.0]
    elements = st.one_of(st.sampled_from(special),
                         st.floats(-float(info.max), float(info.max),
                                   width=info.bits))
    return hnp.arrays(dtype, (3, 4), elements=elements)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernels_the_guard_skips_keep_finite_inputs_finite(dtype, data):
    """The guard skips exactly the ops whose kernel maps finite inputs to
    finite outputs; extreme finite inputs (the largest magnitudes,
    subnormals, signed zeros) stay finite through each of them."""
    # the engine's set plus the three chain ops tests/oracles.py adds
    assert set(_FINITE_KERNEL_CASES) == autodiff._ALWAYS_FINITE
    assert autodiff._ALWAYS_FINITE - CHAIN_OPS <= set(OP_KINDS)
    x = data.draw(_extreme_matrices(dtype))
    y = data.draw(_extreme_matrices(dtype))
    for op, auxes in _FINITE_KERNEL_CASES.items():
        for aux in auxes:
            operands = (x, y) if op == "concat" else (x,)
            # x - max(x) may overflow to -inf inside a softmax, which exp
            # maps to 0: a warning, not a non-finite value
            with np.errstate(over="ignore"):
                out = _FORWARD[op](aux, *operands)
            assert out.dtype == dtype, op
            assert np.isfinite(out).all(), (op, aux, x)
