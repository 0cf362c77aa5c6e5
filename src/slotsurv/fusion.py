"""Slot interaction and the final risk head.

Three branches run on the encoded slots of a patient, (S, d), or of a
batch of patients, (B, S, d):

* per-modality self-attention over the SELECTED slots only — unselected
  slots pass through bitwise unchanged (selection restricts the
  computation rather than adding -inf masking);
* iterative cross-attention in which histology and genomic slots attend
  to each other for L rounds through ONE shared parameter set, with
  GRU + residual-MLP updates applied to both directions simultaneously
  from the same iteration's state;
* mean-pooled concatenation of the cross-refined pair and the two
  self-refined sets into a 3d vector, mapped to survival logits by a
  one-hidden-layer head.

Cost note: everything here works on slot matrices, so multiply-adds grow
with slot counts only, never with bag sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Graph, Node, bind_arrays, init_block, init_normal
from .moe import GateMask

__all__ = [
    "CrossAttentionParams",
    "RiskHeadParams",
    "SelfAttentionParams",
    "build_iterative_cross_attention",
    "build_masked_self_attention",
    "build_pool_concat",
    "build_risk_head",
    "init_cross_params",
    "init_risk_params",
    "init_self_params",
    "iterative_cross_attention",
    "masked_self_attention",
    "pool_concat",
    "risk_head",
]


@dataclass(frozen=True)
class SelfAttentionParams:
    """One self-attention block: attention residual plus MLP residual."""

    w_q: np.ndarray     # (d, d)
    w_k: np.ndarray
    w_v: np.ndarray
    mlp_w1: np.ndarray
    mlp_b1: np.ndarray  # (1, d)
    mlp_w2: np.ndarray
    mlp_b2: np.ndarray


@dataclass(frozen=True)
class CrossAttentionParams:
    """The shared bidirectional block, reused for all L iterations."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    gru_wz: np.ndarray
    gru_uz: np.ndarray
    gru_bz: np.ndarray
    gru_wr: np.ndarray
    gru_ur: np.ndarray
    gru_br: np.ndarray
    gru_wn: np.ndarray
    gru_un: np.ndarray
    gru_bn: np.ndarray
    mlp_w1: np.ndarray
    mlp_b1: np.ndarray
    mlp_w2: np.ndarray
    mlp_b2: np.ndarray


@dataclass(frozen=True)
class RiskHeadParams:
    """Fused embedding (3d) -> hidden (d) -> survival logits (n_bins)."""

    w1: np.ndarray      # (3d, d)
    b1: np.ndarray      # (1, d)
    w2: np.ndarray      # (d, n_bins)
    b2: np.ndarray      # (1, n_bins)


def init_self_params(rng: np.random.Generator,
                     dim: int) -> SelfAttentionParams:
    mat, bias, _ = init_block(rng, dim)
    return SelfAttentionParams(w_q=mat(), w_k=mat(), w_v=mat(),
                               mlp_w1=mat(), mlp_b1=bias(),
                               mlp_w2=mat(), mlp_b2=bias())


def init_cross_params(rng: np.random.Generator,
                      dim: int) -> CrossAttentionParams:
    mat, bias, _ = init_block(rng, dim)
    return CrossAttentionParams(
        w_q=mat(), w_k=mat(), w_v=mat(),
        gru_wz=mat(), gru_uz=mat(), gru_bz=bias(),
        gru_wr=mat(), gru_ur=mat(), gru_br=bias(),
        gru_wn=mat(), gru_un=mat(), gru_bn=bias(),
        mlp_w1=mat(), mlp_b1=bias(), mlp_w2=mat(), mlp_b2=bias(),
    )


def init_risk_params(rng: np.random.Generator, dim: int,
                     n_bins: int) -> RiskHeadParams:
    return RiskHeadParams(
        w1=init_normal(rng, (3 * dim, dim), 1.0 / np.sqrt(3 * dim)),
        b1=np.zeros((1, dim), dtype=np.float32),
        w2=(rng.normal(size=(dim, n_bins)) / np.sqrt(dim)).astype(np.float32),
        b2=np.zeros((1, n_bins), dtype=np.float32),
    )


# -------------------------------------------------------------- graph builders


def _mlp_residual(g: Graph, p, x: Node) -> Node:
    hidden = g.relu(g.add(g.matmul(x, p.mlp_w1), p.mlp_b1))
    return g.add(x, g.add(g.matmul(hidden, p.mlp_w2), p.mlp_b2))


def build_masked_self_attention(g: Graph, p: SelfAttentionParams,
                                slots: Node, selected) -> Node:
    """Self-attention among the selected slots only.

    ``slots`` is one patient's (S, d) set or a batch (B, S, d);
    ``selected`` holds the retained slot indices (from the gate mask's
    forward value), (K,) or (B, K), with the same K for every patient.
    Unselected rows are passed through exactly: the output gathers them
    straight from the input rows.
    """
    lead = slots.shape[:-2]
    n_slots, dim = slots.shape[-2:]
    n_sets = int(np.prod(lead, dtype=np.int64))
    selected = np.asarray(selected, dtype=np.int64).reshape(n_sets, -1)
    k = selected.shape[1]
    if k == 0:
        raise ValueError("selection is empty")
    if any(np.unique(row).size != k for row in selected):
        raise ValueError("selection has duplicate indices")
    rows = g.reshape(slots, (n_sets * n_slots, dim))
    picked = (selected + n_slots * np.arange(n_sets)[:, None]).reshape(-1)
    sel = g.reshape(g.gather_rows(rows, picked), lead + (k, dim))
    q = g.matmul(sel, p.w_q)
    keys = g.matmul(sel, p.w_k)
    v = g.matmul(sel, p.w_v)
    attn = g.row_softmax(g.scale(g.matmul(q, g.transpose(keys)),
                                 1.0 / np.sqrt(dim)))
    refined = _mlp_residual(g, p, g.add(sel, g.matmul(attn, v)))
    # scatter the refined rows back among the untouched ones
    index_map = np.arange(rows.shape[0])
    index_map[picked] = rows.shape[0] + np.arange(picked.size)
    out = g.gather_rows(
        g.concat(rows, g.reshape(refined, (picked.size, dim)), axis=0),
        index_map)
    return g.reshape(out, slots.shape)


def _cross_update(g: Graph, p: CrossAttentionParams, queries: Node,
                  context: Node) -> Node:
    dim = queries.shape[-1]
    q = g.matmul(queries, p.w_q)
    k = g.matmul(context, p.w_k)
    v = g.matmul(context, p.w_v)
    attn = g.row_softmax(g.scale(g.matmul(q, g.transpose(k)),
                                 1.0 / np.sqrt(dim)))
    updated = g.gru_cell(g.matmul(attn, v), queries,
                         p.gru_wz, p.gru_uz, p.gru_bz,
                         p.gru_wr, p.gru_ur, p.gru_br,
                         p.gru_wn, p.gru_un, p.gru_bn)
    return _mlp_residual(g, p, updated)


def build_iterative_cross_attention(g: Graph, p: CrossAttentionParams,
                                    slots_h: Node, slots_g: Node,
                                    l_iters: int):
    """L rounds of bidirectional attention through the single shared
    block; both directions read the same iteration's state before either
    is swapped in.  Returns (refined_h, refined_g)."""
    if l_iters < 1:
        raise ValueError(f"l_iters must be >= 1, got {l_iters}")
    for _ in range(l_iters):
        new_h = _cross_update(g, p, slots_h, slots_g)
        new_g = _cross_update(g, p, slots_g, slots_h)
        slots_h, slots_g = new_h, new_g
    return slots_h, slots_g


def build_pool_concat(g: Graph, cross_h: Node, cross_g: Node,
                      self_h: Node, self_g: Node) -> Node:
    """z = [pool(cross_h | cross_g) || pool(self_h) || pool(self_g)],
    shape (1, 3d), or (B, 1, 3d) for batched slot sets."""
    joint = g.mean_pool(g.concat(cross_h, cross_g, axis=-2))
    z = g.concat(joint, g.mean_pool(self_h), axis=-1)
    return g.concat(z, g.mean_pool(self_g), axis=-1)


def build_risk_head(g: Graph, p: RiskHeadParams, z: Node) -> Node:
    """Survival logits (..., 1, n_bins) from the fused embedding."""
    hidden = g.relu(g.add(g.matmul(z, p.w1), p.b1))
    return g.add(g.matmul(hidden, p.w2), p.b2)


# ------------------------------------------------------------ numpy interface


def masked_self_attention(slots: np.ndarray, mask: GateMask,
                          p: SelfAttentionParams) -> np.ndarray:
    if mask.hard.size != slots.shape[0]:
        raise ValueError(
            f"mask covers {mask.hard.size} slots, got {slots.shape[0]}")
    g = Graph(dtype=p.w_q.dtype)
    bound = bind_arrays(g, "p", p, trainable=False)
    out = build_masked_self_attention(g, bound, g.const(slots),
                                      mask.selected)
    return out.value.copy()


def iterative_cross_attention(slots_h: np.ndarray, slots_g: np.ndarray,
                              p: CrossAttentionParams, l_iters: int):
    g = Graph(dtype=p.w_q.dtype)
    bound = bind_arrays(g, "p", p, trainable=False)
    out_h, out_g = build_iterative_cross_attention(
        g, bound, g.const(slots_h), g.const(slots_g), l_iters)
    return out_h.value.copy(), out_g.value.copy()


def pool_concat(cross_h: np.ndarray, cross_g: np.ndarray,
                self_h: np.ndarray, self_g: np.ndarray) -> np.ndarray:
    """Fused embedding as a flat length-3d vector, at the slots' precision
    (float64 inputs stay float64)."""
    g = Graph(dtype=np.result_type(cross_h, cross_g, self_h, self_g,
                                   np.float32))
    z = build_pool_concat(g, g.const(cross_h), g.const(cross_g),
                          g.const(self_h), g.const(self_g))
    return z.value[0].copy()


def risk_head(z: np.ndarray, p: RiskHeadParams) -> np.ndarray:
    g = Graph(dtype=p.w1.dtype)
    bound = bind_arrays(g, "p", p, trainable=False)
    logits = build_risk_head(g, bound, g.const(np.atleast_2d(z)))
    return logits.value[0].copy()
