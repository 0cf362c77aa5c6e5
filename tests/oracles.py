"""Plain references the tests check the package against.

* The per-op chain vocabulary: ``transpose``, ``col_softmax``,
  ``reciprocal``, ``layer_norm``, ``gru_cell`` and ``gather_rows``, six
  ops the program never records but the unfused chains below need,
  ``reduce_sum``, which sums a loss down to the 0-d seed a gradient test
  differentiates, ``stop_gradient``, the identity with a zero adjoint,
  and ``hand_over``, the straight-through input of a first-order slot
  encoder's last iteration, as builders that take the graph first.
  Importing this module adds their kernels and adjoint rules to the
  engine's ``_FORWARD`` and ``_BACKWARD`` tables, and the five whose
  output is finite for finite inputs to its ``_ALWAYS_FINITE`` set;
  ``CHAIN_OPS`` names the nine.
  ``autodiff.OP_KINDS`` keeps listing the program's ops alone.
* ``bind_consts``, a parameter dataclass bound as graph constants, for
  tests that run a builder without differentiating its parameters.
* ``group_of``, the parameter group of a tensor name.
* Float64 numpy references for the selective slot decoder in
  ``slotsurv.moe``.  The graph builders there are what the model runs;
  these plain functions recompute the same decode independently so the
  tests can check the builders against them.  ``gumbel_topk_mask`` draws
  one Gumbel-top-K selection in numpy; the statistical gate tests sample
  it.
* ``out_of_place_acc``, adjoint accumulation that allocates every sum, for
  checking ``autodiff.backward``'s in-place accumulation,
  ``saved_arrays``, a node's saved intermediates as one flat list, and
  ``owning_buffers``, the distinct buffers behind a list of arrays.
* ``unfused_encode``, a slot encoder as the chain of per-op nodes that
  the fused ``slot_encode`` op replaces: ``keys_values`` (the bag's layer
  norm, the key and value projections and the value mask) and T times
  ``unfused_attention_step`` (one iteration, 18 per-op nodes), and the
  numpy conveniences built on it (``init_slots``, ``slot_attention_step``).
  It backpropagates through all T iterations, the exact gradient; with
  ``first_order`` it is the chain whose gradient the fused node computes,
  the last iteration's alone, its input slots handing their adjoint to
  the initial slots.  ``exact_build_encode`` is ``unfused_encode`` as a
  stand-in for ``slots.build_encode``.
* ``unfused_cross_update``, one direction of one cross-attention round as
  a chain of 13 per-op nodes, and ``unfused_cross_attention``, L rounds
  of it in both directions and the concat of the two refined sets: the
  chain the fused ``cross_attend`` op replaces.
* ``unfused_self_attention``, masked self-attention over the selected
  slots as the chain of per-op nodes that the fused ``self_attend`` op
  replaces, and ``k_hot``, the K-hot selection of given slot indices.
* ``unfused_decode``, a reconstruction head as the chain of 16 per-op
  nodes that the fused ``decode`` op replaces.
* ``nll_loss``, the scalar likelihood of one subject under a hazard curve,
  which ``survival.build_nll_loss`` is checked against.
* ``bootstrap_loop``, ``survival.bootstrap_stats`` with one Kaplan-Meier
  fit per group and replicate, which the batched replicates are checked
  against bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from slotsurv import autodiff
from slotsurv.autodiff import Graph, GraphError, Node
from slotsurv.moe import GateMask, GateParams, PredictorParams, _k_hot
from slotsurv.slots import SlotParams, build_init_slots
from slotsurv.survival import BootstrapSummary, HazardCurve, km_estimate, rmst

AGG_EPS = 1e-8

DEFAULT_TEMPERATURE = 0.01


@dataclass(frozen=True)
class SlotMixture:
    """Per-slot logits, renormalized weights and their gated mixture."""

    logits: np.ndarray    # (S, n_bins)
    weights: np.ndarray   # (S,), nonneg, sums to 1, zero off the mask
    mixture: np.ndarray   # (n_bins,)


def gumbel_topk_mask(r: np.ndarray, k: int, temperature: float,
                     rng: np.random.Generator | None = None,
                     training: bool = True) -> GateMask:
    r = np.asarray(r, dtype=np.float64).reshape(-1)
    if not 1 <= k <= r.size:
        raise ValueError(f"K must be in [1, {r.size}], got {k}")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if training:
        if rng is None:
            raise ValueError("training-mode selection needs an rng")
        perturbed = r + rng.gumbel(size=r.size)
    else:
        perturbed = r
    return GateMask(hard=_k_hot(perturbed, k), scores=r.copy())


def gate_scores(slots: np.ndarray, gate: GateParams) -> np.ndarray:
    slots = np.asarray(slots, dtype=np.float64)
    return (slots @ gate.w.astype(np.float64))[:, 0]


def renormalize_weights(r: np.ndarray, mask: GateMask,
                        temperature: float) -> np.ndarray:
    r = np.asarray(r, dtype=np.float64).reshape(-1)
    if mask.hard.size != r.size:
        raise ValueError(
            f"mask of size {mask.hard.size} does not match {r.size} scores")
    if not np.any(mask.hard):
        raise ValueError("mask selects no slots")
    # masking then renormalizing a softmax equals the softmax restricted
    # to the selected subset, which is the numerically safe way to get it
    sel = mask.hard > 0.5
    shifted = (r[sel] - r[sel].max()) / temperature
    exp = np.exp(shifted)
    weights = np.zeros(r.size)
    weights[sel] = exp / exp.sum()
    return weights


def slot_logits(slots: np.ndarray, pred: PredictorParams) -> np.ndarray:
    slots = np.asarray(slots, dtype=np.float64)
    hidden = np.maximum(slots @ pred.w1.astype(np.float64)
                        + pred.b1.astype(np.float64), 0.0)
    return hidden @ pred.w2.astype(np.float64) + pred.b2.astype(np.float64)


def gated_mixture(weights: np.ndarray, logits: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    if weights.size != logits.shape[0]:
        raise ValueError(
            f"{weights.size} weights do not match logits {logits.shape}")
    return weights @ np.asarray(logits, dtype=np.float64)


def decode(slots: np.ndarray, gate: GateParams, pred: PredictorParams,
           k: int, temperature: float = DEFAULT_TEMPERATURE,
           rng: np.random.Generator | None = None,
           training: bool = False) -> tuple[SlotMixture, GateMask]:
    """Full selective decode of one slot set (numpy in/out)."""
    r = gate_scores(slots, gate)
    mask = gumbel_topk_mask(r, k, temperature, rng=rng, training=training)
    weights = renormalize_weights(r, mask, temperature)
    logits = slot_logits(slots, pred)
    mixture = SlotMixture(logits=logits, weights=weights,
                          mixture=gated_mixture(weights, logits))
    return mixture, mask


def out_of_place_acc(grads, idx, delta):
    """``autodiff._acc`` without ownership: every sum is a new array and no
    buffer is ever written."""
    if grads[idx] is None:
        grads[idx] = delta
    else:
        grads[idx] = grads[idx] + delta


def saved_arrays(saved) -> list:
    """A node's saved intermediates as a flat list, nested tuples (a
    slot_encode node's last iteration's) flattened."""
    out = []
    for a in saved:
        if isinstance(a, tuple):
            out.extend(saved_arrays(a))
        else:
            out.append(a)
    return out


def owning_buffers(arrays) -> list:
    """The buffers behind ``arrays``, each once: a view counts as its
    base."""
    seen = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        seen[id(a)] = a
    return list(seen.values())


# ------------------------------------------------- per-op chain vocabulary


def transpose(g: Graph, a: Node) -> Node:
    """Swap the last two axes."""
    va = a.value
    if va.ndim not in (2, 3):
        raise GraphError(
            f"transpose needs a 2-d or 3-d operand, got {va.shape}")
    return g._append("transpose", (a.idx,))


def col_softmax(g: Graph, a: Node) -> Node:
    """Softmax along the second-to-last axis."""
    va = a.value
    if va.ndim not in (2, 3):
        raise GraphError(
            f"col_softmax needs a 2-d or 3-d operand, got {va.shape}")
    return g._append("col_softmax", (a.idx,), aux=-2, madds=3 * va.size)


def layer_norm(g: Graph, a: Node, gamma: Node, beta: Node) -> Node:
    """Normalize along the last axis; gamma and beta are (1, d) rows."""
    va = a.value
    d = va.shape[-1]
    if va.ndim not in (2, 3) or gamma.shape != (1, d) or beta.shape != (1, d):
        raise GraphError(f"layer_norm shapes: x {va.shape}, "
                         f"gamma {gamma.shape}, beta {beta.shape}")
    return g._append("layer_norm", (a.idx, gamma.idx, beta.idx),
                     madds=4 * va.size)


def gru_cell(g: Graph, x: Node, h: Node, wz, uz, bz, wr, ur, br, wn, un,
             bn) -> Node:
    """Row-wise GRU update of state h (2-d or 3-d) from input x."""
    vx, vh = x.value, h.value
    d = vh.shape[-1]
    if vx.shape != vh.shape or vx.ndim not in (2, 3):
        raise GraphError(
            f"gru_cell input/state mismatch {vx.shape} vs {vh.shape}")
    for w in (wz, uz, wr, ur, wn, un):
        if w.shape != (d, d):
            raise GraphError(
                f"gru_cell weight shape {w.shape}, want {(d, d)}")
    for b in (bz, br, bn):
        if b.shape != (1, d):
            raise GraphError(
                f"gru_cell bias shape {b.shape}, want {(1, d)}")
    s = vx.size // d
    return g._append(
        "gru_cell",
        (x.idx, h.idx, wz.idx, uz.idx, bz.idx, wr.idx, ur.idx, br.idx,
         wn.idx, un.idx, bn.idx),
        madds=6 * s * d * d + 10 * s * d)


def gather_rows(g: Graph, a: Node, indices) -> Node:
    va = a.value
    idx = np.asarray(indices, dtype=np.int64)
    if va.ndim != 2 or idx.ndim != 1:
        raise GraphError("gather_rows needs a 2-d source and 1-d index list")
    if idx.size and (idx.min() < 0 or idx.max() >= va.shape[0]):
        raise GraphError(
            f"gather_rows index out of range for {va.shape[0]} rows")
    return g._append("gather_rows", (a.idx,), aux=idx)


def reciprocal(g: Graph, a: Node) -> Node:
    return g._append("reciprocal", (a.idx,), madds=a.value.size)


def reduce_sum(g: Graph, a: Node) -> Node:
    """Sum every entry down to a 0-d scalar."""
    return g._append("reduce_sum", (a.idx,), madds=a.value.size)


def stop_gradient(g: Graph, a: Node) -> Node:
    """The identity, with no adjoint: nothing flows back through it."""
    return g._append("stop_gradient", (a.idx,))


def hand_over(g: Graph, a: Node, to: Node) -> Node:
    """``a``'s value, whose adjoint goes to ``to`` alone: the
    straight-through sg(a) + to - sg(to), with sg the stop gradient, for
    ``to`` of ``a``'s shape, but with no float operation, so with ``a``'s
    bits."""
    if a.shape != to.shape:
        raise GraphError(f"hand_over shapes {a.shape} vs {to.shape}")
    return g._append("hand_over", (a.idx, to.idx))


def _layer_norm_fwd(_, x, gamma, beta):
    xhat, inv, _ = autodiff._normalize(x)
    y = xhat * gamma
    y += beta
    return y, (xhat, inv)


def _bw_layer_norm(g, i, grad, grads):
    parents = g._parents[i]
    need = g._needs_grad
    autodiff._give(grads, parents, autodiff._layer_norm_adj(
        grad, g._values[parents[1]], *g._saved[i],
        *(need[p] for p in parents)))


def _bw_gru(g, i, grad, grads):
    parents = g._parents[i]
    xi, hi, wz, uz, _, wr, ur, _, wn, un, _ = parents
    v = g._values
    autodiff._give(grads, parents, autodiff._gru_adj(
        grad, g._saved[i], v[xi], v[hi], v[wz], v[uz], v[wr], v[ur],
        v[wn], v[un], [g._needs_grad[p] for p in parents]))


def _bw_transpose(g, i, grad, grads):
    autodiff._acc(grads, g._parents[i][0], np.swapaxes(grad, -1, -2))


def _bw_reciprocal(g, i, grad, grads):
    autodiff._acc(grads, g._parents[i][0],
                  autodiff._reciprocal_adj(grad, g._values[i]))


def _bw_hand_over(g, i, grad, grads):
    to = g._parents[i][1]
    if g._needs_grad[to]:
        autodiff._acc(grads, to, grad)


def _bw_gather_rows(g, i, grad, grads):
    p = g._parents[i][0]
    buf = np.zeros_like(g._values[p])
    np.add.at(buf, g._aux[i], grad)
    autodiff._acc(grads, p, buf)


# op: (forward kernel, adjoint rule), registered with the engine here; an
# op without an adjoint rule (stop_gradient) passes no gradient back
_CHAIN_TABLE = {
    "transpose": (lambda _, a: np.swapaxes(a, -1, -2).copy(), _bw_transpose),
    "col_softmax": (autodiff._softmax, autodiff._bw_softmax),
    "reciprocal": (autodiff._reciprocal_fwd, _bw_reciprocal),
    "layer_norm": (_layer_norm_fwd, _bw_layer_norm),
    "gru_cell": (autodiff._gru_fwd, _bw_gru),
    "gather_rows": (lambda idx, a: a[idx], _bw_gather_rows),
    # the keep-dims sum's adjoint rule: both broadcast back to the operand
    "reduce_sum": (lambda _, a: a.sum(), autodiff._bw_sum),
    "stop_gradient": (lambda _, a: a, None),
    "hand_over": (lambda _, a, to: a, _bw_hand_over),
}
CHAIN_OPS = frozenset(_CHAIN_TABLE)
autodiff._FORWARD.update({op: fw for op, (fw, _) in _CHAIN_TABLE.items()})
autodiff._BACKWARD.update({op: bw for op, (_, bw) in _CHAIN_TABLE.items()
                           if bw is not None})
autodiff._ALWAYS_FINITE = autodiff._ALWAYS_FINITE | {
    "transpose", "col_softmax", "gather_rows", "stop_gradient", "hand_over"}


def bind_consts(g: Graph, obj):
    """A dataclass of ndarrays as one of graph constants, field by field:
    no gradient reaches them."""
    return type(obj)(**{f.name: g.const(getattr(obj, f.name))
                        for f in fields(obj)})


def group_of(tensor_name: str) -> str:
    return tensor_name.split(".", 1)[0]


# ---------------------------------------------------------- slot attention


def instance_mask(g: Graph, bag, mask):
    """The (..., M, 1) instance-mask constant of a bag: all ones without a
    ``mask``."""
    if mask is None:
        return g.const(np.ones(bag.shape[:-1] + (1,)))
    return g.const(np.asarray(mask)[..., None])


def keys_values(g: Graph, p, bag, ones):
    """Projected keys (transposed, scaled) and values of a bag as per-op
    nodes; the values are multiplied by the instance mask ``ones``, which
    zeroes padded rows."""
    x = layer_norm(g, bag, p.ln_in_gamma, p.ln_in_beta)
    keys_t = g.scale(transpose(g, g.matmul(x, p.w_k)),
                     1.0 / np.sqrt(bag.shape[-1]))
    values = g.mul(g.matmul(x, p.w_v), ones)
    return keys_t, values


def unfused_attention_step(g: Graph, p, slots, keys_t, values, ones,
                           state=None):
    """One attention iteration as per-op nodes; returns (updated slots,
    alpha, aggregated update) nodes.  The slots' layer norm has no shift,
    so the chain gives it a zero constant.  The GRU's state is ``slots``,
    or ``state``, a node with its value, when one is given."""
    no_shift = g.const(np.zeros(p.ln_slot_gamma.shape))
    normed = layer_norm(g, slots, p.ln_slot_gamma, no_shift)
    q = g.matmul(normed, p.w_q)
    alpha = col_softmax(g, g.matmul(q, keys_t))
    u = g.matmul(alpha, values)
    mass = g.add(g.matmul(alpha, ones), g.const(np.full((1, 1), AGG_EPS)))
    u = g.mul(u, reciprocal(g, mass))
    updated = gru_cell(g, u, slots if state is None else state,
                       p.gru_wz, p.gru_uz, p.gru_bz,
                       p.gru_wr, p.gru_ur, p.gru_br,
                       p.gru_wn, p.gru_un, p.gru_bn)
    hidden = g.relu(g.add(g.matmul(updated, p.mlp_w1), p.mlp_b1))
    residual = g.add(g.matmul(hidden, p.mlp_w2), p.mlp_b2)
    return g.add(updated, residual), alpha, u


def unfused_slot_encode(g: Graph, p, bag, ones, slots, t_iters: int,
                        first_order: bool = False):
    """``Graph.slot_encode`` as per-op nodes, from the initial ``slots``
    node; returns the slots and the last alpha (unmasked) as nodes.  The
    chain backpropagates through every iteration.  With ``first_order``
    it computes the fused node's gradient instead: the first T - 1
    iterations' output hands no adjoint back, and the last iteration's
    input slots hand theirs to the initial slots, through two
    ``hand_over`` nodes, so that the GRU state's contribution comes
    before the layer norm's, as the fused node hands them over."""
    keys_t, values = keys_values(g, p, bag, ones)
    init, state = slots, None
    for t in range(t_iters):
        if first_order and t == t_iters - 1 and t > 0:
            slots, state = hand_over(g, slots, init), hand_over(g, slots, init)
        slots, alpha, _ = unfused_attention_step(g, p, slots, keys_t, values,
                                                 ones, state=state)
    return slots, alpha


def unfused_encode(g: Graph, p: SlotParams, bag, t_iters: int, mask=None,
                   noise=None, first_order: bool = False):
    """``slots.build_encode`` over the unfused chain; returns the slots and
    the last alpha as nodes.  With ``first_order`` the chain's gradient is
    the fused node's (``unfused_slot_encode``)."""
    ones = instance_mask(g, bag, mask)
    slots = build_init_slots(g, p, lead=bag.shape[:-2], noise=noise)
    return unfused_slot_encode(g, p, bag, ones, slots, t_iters, first_order)


def exact_build_encode(g: Graph, p: SlotParams, bag, t_iters: int, mask=None,
                       noise=None) -> Node:
    """``slots.build_encode``'s signature and return over the exact chain,
    which backpropagates through every iteration: a finite-difference test
    patches it in for ``build_encode`` to check a whole model's true
    gradient at T > 1."""
    return unfused_encode(g, p, bag, t_iters, mask, noise)[0]


@dataclass(frozen=True)
class StepResult:
    slots: np.ndarray
    attention: np.ndarray
    update: np.ndarray      # aggregated values fed to the GRU


def _graph(params: SlotParams) -> Graph:
    return Graph(dtype=params.init_mean.dtype)


def init_slots(params: SlotParams,
               rng: np.random.Generator | None = None) -> np.ndarray:
    """Initial slots: the learned mean, plus noise drawn from ``rng`` when
    one is given."""
    g = _graph(params)
    noise = None if rng is None else rng.standard_normal(
        params.init_mean.shape)
    node = build_init_slots(g, bind_consts(g, params),
                            noise=noise)
    return node.value.copy()


def slot_attention_step(slots: np.ndarray, bag_matrix: np.ndarray,
                        params: SlotParams) -> StepResult:
    """One iteration from explicit slots over a raw bag (numpy in/out)."""
    g = _graph(params)
    p = bind_consts(g, params)
    bag = g.const(bag_matrix)
    ones = instance_mask(g, bag, None)
    keys_t, values = keys_values(g, p, bag, ones)
    out, alpha, u = unfused_attention_step(g, p, g.const(slots), keys_t,
                                           values, ones)
    return StepResult(slots=out.value.copy(), attention=alpha.value.copy(),
                      update=u.value.copy())


# --------------------------------------------------------- cross-attention


def unfused_cross_update(g: Graph, p, queries, context):
    """One direction of one cross-attention round as 13 per-op nodes;
    ``unfused_cross_attention`` runs 2 L of them."""
    dim = queries.shape[-1]
    q = g.matmul(queries, p.w_q)
    k = g.matmul(context, p.w_k)
    v = g.matmul(context, p.w_v)
    attn = g.row_softmax(g.scale(g.matmul(q, transpose(g, k)),
                                 1.0 / np.sqrt(dim)))
    updated = gru_cell(g, g.matmul(attn, v), queries,
                       p.gru_wz, p.gru_uz, p.gru_bz,
                       p.gru_wr, p.gru_ur, p.gru_br,
                       p.gru_wn, p.gru_un, p.gru_bn)
    hidden = g.relu(g.affine(updated, p.mlp_w1, p.mlp_b1))
    return g.add(updated, g.affine(hidden, p.mlp_w2, p.mlp_b2))


def k_hot(selected, n_slots: int) -> np.ndarray:
    """The K-hot selection, (1, S) or (B, 1, S), that marks the slot
    indices ``selected``, (K,) or (B, K): the form
    ``moe.build_gumbel_mask`` returns."""
    selected = np.asarray(selected, dtype=np.int64)
    hot = np.zeros(selected.shape[:-1] + (1, n_slots))
    np.put_along_axis(hot, selected[..., None, :], 1.0, axis=-1)
    return hot


def unfused_self_attention(g: Graph, p, slots, hot):
    """``fusion.build_masked_self_attention`` as the chain of per-op nodes
    that the fused ``self_attend`` op replaces, 20 for a batch and 16 for
    an unbatched set: gather the selected rows, attend among them, refine
    them with the residual MLP and scatter them back among the untouched
    rows.  ``hot`` is the K-hot selection, (1, S) or (B, 1, S), with the
    same K in every set."""
    lead = slots.shape[:-2]
    n_slots, dim = slots.shape[-2:]
    n_sets = int(np.prod(lead, dtype=np.int64))
    picked = np.flatnonzero(hot)
    k = picked.size // n_sets
    rows = g.reshape(slots, (n_sets * n_slots, dim))
    sel = g.reshape(gather_rows(g, rows, picked), lead + (k, dim))
    q = g.matmul(sel, p.w_q)
    keys = g.matmul(sel, p.w_k)
    v = g.matmul(sel, p.w_v)
    attn = g.row_softmax(g.scale(g.matmul(q, transpose(g, keys)),
                                 1.0 / np.sqrt(dim)))
    x = g.add(sel, g.matmul(attn, v))
    hidden = g.relu(g.affine(x, p.mlp_w1, p.mlp_b1))
    refined = g.add(x, g.affine(hidden, p.mlp_w2, p.mlp_b2))
    index_map = np.arange(rows.shape[0])
    index_map[picked] = rows.shape[0] + np.arange(picked.size)
    out = gather_rows(
        g, g.concat(rows, g.reshape(refined, (picked.size, dim)), axis=0),
        index_map)
    return g.reshape(out, slots.shape)


def unfused_cross_attention(g: Graph, p, slots_h, slots_g, l_iters: int):
    """``fusion.build_iterative_cross_attention`` over the unfused chain:
    2 L updates, then the concat of the two refined sets, the rows [h;
    g]."""
    for _ in range(l_iters):
        slots_h, slots_g = (unfused_cross_update(g, p, slots_h, slots_g),
                            unfused_cross_update(g, p, slots_g, slots_h))
    return g.concat(slots_h, slots_g, axis=-2)


# ------------------------------------------------------------ reconstruction


def unfused_decode(g: Graph, head, queries, slots):
    """``recon.build_decode`` as the chain of 16 per-op nodes that the
    fused ``decode`` op replaces: pre-norm cross-attention with a
    residual, then a pre-norm feed-forward with a residual."""
    dim = slots.shape[-1]
    if queries.shape[-1] != dim:
        raise ValueError(
            f"query width {queries.shape[-1]} != slot width {dim}")
    nq = layer_norm(g, queries, head.ln_q_gamma, head.ln_q_beta)
    ns = layer_norm(g, slots, head.ln_s_gamma, head.ln_s_beta)
    q = g.matmul(nq, head.w_q)
    k = g.matmul(ns, head.w_k)
    v = g.matmul(ns, head.w_v)
    attn = g.row_softmax(g.scale(g.matmul(q, transpose(g, k)),
                                 1.0 / np.sqrt(dim)))
    attended = g.add(queries, g.matmul(attn, v))
    nf = layer_norm(g, attended, head.ln_f_gamma, head.ln_f_beta)
    hidden = g.relu(g.affine(nf, head.ffn_w1, head.ffn_b1))
    ffn = g.affine(hidden, head.ffn_w2, head.ffn_b2)
    return g.add(attended, ffn)


# ----------------------------------------------------------------- survival


def nll_loss(curve: HazardCurve, t_bin: int, censored) -> float:
    """Negative log-likelihood of one subject under a hazard curve.

    Censored at bin t: -log S_t.  Event at bin t: -log S_{t-1} - log h_t,
    with S_0 = 1.
    """
    n_t = curve.h.size
    if not 1 <= t_bin <= n_t:
        raise ValueError(f"t_bin {t_bin} outside [1, {n_t}]")
    if censored:
        return float(-np.log(curve.S[t_bin - 1]))
    prev = 0.0 if t_bin == 1 else float(np.log(curve.S[t_bin - 2]))
    return float(-prev - np.log(curve.h[t_bin - 1]))


def bootstrap_loop(times_high, events_high, times_low, events_low,
                   tau: float, n_boot: int = 1000, seed: int = 0
                   ) -> BootstrapSummary:
    """``survival.bootstrap_stats`` as one Kaplan-Meier fit per group and
    replicate.  Bootstrap the RMST difference and ratio between two groups.

    Each replicate resamples both groups with replacement and recomputes
    delta = RMST(high) - RMST(low) and the high/low ratio.  Replicates where
    either resample has no events (or a zero RMST) are skipped and counted;
    more than 20% skips raises ValueError.
    """
    if n_boot < 1:
        raise ValueError(f"bootstrap_stats: n_boot must be >= 1, got {n_boot}")
    th = np.asarray(times_high, dtype=np.float64)
    tl = np.asarray(times_low, dtype=np.float64)
    eh = np.asarray(events_high, dtype=bool)
    el = np.asarray(events_low, dtype=bool)
    if th.size == 0 or tl.size == 0:
        raise ValueError("bootstrap_stats: both groups must be nonempty")

    r_high = rmst(km_estimate(th, eh), tau)
    r_low = rmst(km_estimate(tl, el), tau)
    if r_low <= 0.0 or r_high <= 0.0:
        raise ValueError("bootstrap_stats: zero RMST in a full group")

    rng = np.random.default_rng(seed)
    deltas = []
    log_ratios = []
    skipped = 0
    for _ in range(n_boot):
        ih = rng.integers(0, th.size, th.size)
        il = rng.integers(0, tl.size, tl.size)
        evh = eh[ih]
        evl = el[il]
        if not evh.any() or not evl.any():
            skipped += 1
            continue
        rh = rmst(km_estimate(th[ih], evh), tau)
        rl = rmst(km_estimate(tl[il], evl), tau)
        if rh <= 0.0 or rl <= 0.0:
            skipped += 1
            continue
        deltas.append(rh - rl)
        log_ratios.append(math.log(rh / rl))
    if skipped > 0.2 * n_boot:
        raise ValueError(
            f"bootstrap_stats: {skipped}/{n_boot} degenerate resamples")

    d = np.asarray(deltas)
    lr = np.asarray(log_ratios)
    lo, hi = np.percentile(d, [2.5, 97.5])
    rlo, rhi = np.exp(np.percentile(lr, [2.5, 97.5]))
    p = 2.0 * min(float((d <= 0).mean()), float((d >= 0).mean()))
    p = min(1.0, max(2.0 / n_boot, p))
    return BootstrapSummary(
        delta=r_high - r_low,
        delta_ci=(float(lo), float(hi)),
        p_value=p,
        ratio=r_high / r_low,
        ratio_ci=(float(rlo), float(rhi)),
        n_boot=n_boot,
        n_skipped=skipped,
    )
