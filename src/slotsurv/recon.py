"""Reconstruction heads: decode slots back to feature space so that
unselected slots keep carrying information instead of collapsing.

Three reconstruction targets share one decoder architecture (a single
cross-attention block with a feed-forward tail), which each head runs as
one ``decode`` graph node over every row it reconstructs:

* genomic: learned per-pathway position embeddings query the genomic
  slots; mean-squared error against the original pathway features.
* histology: a frozen random affine map turns the (subsampled) patch
  features into queries for the histology slots; cosine loss, which is
  scale-invariant per patch.
* cross-modal: the genomic branch's slot initialization is run over the
  HISTOLOGY bag (``build_cross_modal_encode``), and the resulting slots
  must reconstruct the genomic features through the shared position
  table.  After training ``impute_genomic`` runs this same path, in
  graphs of its own, when a genomic bag is missing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import slots as slot_mod
from .autodiff import Graph, Node, bind_arrays, init_block, init_normal
from .data import FeatureBag, expect_modality

__all__ = [
    "FrozenQueryMap",
    "PositionTable",
    "ReconHeadParams",
    "build_cosine_loss",
    "build_cross_modal_encode",
    "build_decode",
    "build_recon_genomic",
    "build_recon_histology",
    "cross_modal_encode",
    "impute_genomic",
    "init_position_table",
    "init_query_map",
    "init_recon_head",
    "reconstruct_genomic",
]


@dataclass(frozen=True)
class ReconHeadParams:
    """One cross-attention decoder block with a relu feed-forward tail."""

    w_q: np.ndarray         # (d, d)
    w_k: np.ndarray
    w_v: np.ndarray
    ffn_w1: np.ndarray
    ffn_b1: np.ndarray      # (1, d)
    ffn_w2: np.ndarray
    ffn_b2: np.ndarray
    ln_q_gamma: np.ndarray  # queries, before the Q projection
    ln_q_beta: np.ndarray
    ln_s_gamma: np.ndarray  # slots, before the K/V projections
    ln_s_beta: np.ndarray
    ln_f_gamma: np.ndarray  # attended queries, before the feed-forward
    ln_f_beta: np.ndarray

    @property
    def dim(self) -> int:
        return self.w_q.shape[0]


@dataclass(frozen=True)
class PositionTable:
    """One learnable query row per genomic pathway index."""

    table: np.ndarray       # (M_g, d)

    @property
    def m_rows(self) -> int:
        return self.table.shape[0]

    @property
    def dim(self) -> int:
        return self.table.shape[1]


@dataclass(frozen=True)
class FrozenQueryMap:
    """Random affine map from patch features to queries; never trained."""

    w: np.ndarray           # (d, d)
    b: np.ndarray           # (1, d)


def init_recon_head(rng: np.random.Generator, dim: int) -> ReconHeadParams:
    mat, bias, gamma = init_block(rng, dim)
    return ReconHeadParams(
        w_q=mat(), w_k=mat(), w_v=mat(),
        ffn_w1=mat(), ffn_b1=bias(), ffn_w2=mat(), ffn_b2=bias(),
        ln_q_gamma=gamma(), ln_q_beta=bias(),
        ln_s_gamma=gamma(), ln_s_beta=bias(),
        ln_f_gamma=gamma(), ln_f_beta=bias(),
    )


def init_position_table(rng: np.random.Generator, m_rows: int,
                        dim: int) -> PositionTable:
    return PositionTable(table=init_normal(rng, (m_rows, dim), 0.5))


def init_query_map(rng: np.random.Generator, dim: int) -> FrozenQueryMap:
    mat, bias, _ = init_block(rng, dim)
    return FrozenQueryMap(w=mat(), b=bias())


# -------------------------------------------------------------- graph builders


def build_decode(g: Graph, head: ReconHeadParams, queries: Node,
                 slots: Node) -> Node:
    """Decode slots at M query positions: pre-norm cross-attention with a
    residual, then a pre-norm feed-forward with a residual, as one
    ``decode`` node.  (M, d), or (B, M, d) for batched slots; (M, d)
    queries are shared by the batch.  Queries of another width than the
    slots' get ``decode``'s ``GraphError`` (a ValueError)."""
    return g.decode(queries, slots, head.w_q, head.w_k, head.w_v,
                    head.ffn_w1, head.ffn_b1, head.ffn_w2, head.ffn_b2,
                    head.ln_q_gamma, head.ln_q_beta, head.ln_s_gamma,
                    head.ln_s_beta, head.ln_f_gamma, head.ln_f_beta)


def build_recon_genomic(g: Graph, head: ReconHeadParams, positions: Node,
                        slots: Node, target: Node | None = None):
    """Reconstruct genomic features from slots at the position queries.

    Returns (x_hat, loss).  With target given, loss is the mean squared
    error node (one per patient for a batch); without one (imputation)
    loss is None.  The same builder serves the cross-modal path: pass the
    histology-derived slots instead of the genomic ones.
    """
    if target is not None and target.shape[-2] != positions.shape[0]:
        raise ValueError(
            f"position table covers {positions.shape[0]} rows, "
            f"target has {target.shape[-2]}")
    x_hat = build_decode(g, head, positions, slots)
    if target is None:
        return x_hat, None
    return x_hat, g.squared_error(x_hat, target)


def build_cosine_loss(g: Graph, recon: Node, target: Node, mask=None):
    """Loss 1 - mean row cosine (one per patient for a batch), plus the
    cosine node whose zero-norm diagnostics (graph.degenerate_rows) flag
    degenerate rows.

    With a (B, M) instance ``mask`` the mean runs over each patient's
    real rows only: padded target rows are zero, so their cosines are
    zero, and the mean over all M rows is rescaled by M / (real rows).
    """
    cos = g.cosine(recon, target)
    score = cos
    if mask is not None:
        mask = np.asarray(mask)
        score = g.mul(cos, g.const(mask.shape[-1] / mask.sum(axis=-1)))
    # reduce_sum of a one-element constant builds the 0-d "1" that the
    # 0-d cosine score needs (bare constants are kept at least 1-d)
    one = g.reduce_sum(g.const(np.ones(1)))
    loss = g.add(one, g.scale(score, -1.0))
    return loss, cos


def build_recon_histology(g: Graph, head: ReconHeadParams,
                          qmap: FrozenQueryMap, bag: Node, slots: Node,
                          mask=None):
    """Reconstruct patch features from histology slots; queries come from
    the frozen random map of the patches themselves.  ``mask`` marks the
    real rows of a zero-padded batch (see build_cosine_loss).

    Returns (x_hat, loss, cosine_node).  The query map enters as graph
    constants, so no gradient ever reaches it.
    """
    queries = g.affine(bag, g.const(qmap.w), g.const(qmap.b))
    x_hat = build_decode(g, head, queries, slots)
    loss, cos = build_cosine_loss(g, x_hat, bag, mask)
    return x_hat, loss, cos


def build_cross_modal_encode(g: Graph, genomic_params, hist_bag: Node,
                             t_iters: int, mask=None) -> Node:
    """Slot attention over the histology bag (or a padded batch of them,
    with its instance ``mask``) starting from the genomic branch's learned
    slot mean, without noise: one ``slot_encode`` node after its mask
    constant (and, for a batch, the two nodes that broadcast the mean).
    Returns the slots node; cost is linear in the bag size at fixed slot
    count."""
    return slot_mod.build_encode(g, genomic_params, hist_bag, t_iters,
                                 mask=mask)


# ------------------------------------------------------------ numpy interface


def reconstruct_genomic(slot_matrix: np.ndarray, positions: PositionTable,
                        head: ReconHeadParams,
                        target: np.ndarray | None = None):
    g = Graph(dtype=head.w_q.dtype)
    h = bind_arrays(g, "head", head, trainable=False)
    pos = g.const(positions.table)
    tgt = None if target is None else g.const(target)
    x_hat, loss = build_recon_genomic(g, h, pos, g.const(slot_matrix), tgt)
    return (x_hat.value.copy(),
            None if loss is None else float(loss.value))


def cross_modal_encode(bag_h: FeatureBag, genomic_params,
                       t_iters: int) -> slot_mod.SlotSet:
    """Encode a histology bag with the genomic branch's slot parameters."""
    expect_modality(bag_h, "histology")
    g = Graph(dtype=genomic_params.init_mean.dtype)
    p = bind_arrays(g, "p", genomic_params, trainable=False)
    slots = build_cross_modal_encode(g, p, g.const(bag_h.matrix), t_iters)
    return slot_mod.SlotSet(slots=slots.value.copy(),
                            attention=g.slot_attention(slots).copy())


def impute_genomic(bag_h: FeatureBag, genomic_params,
                   positions: PositionTable, head: ReconHeadParams,
                   t_iters: int, steps_trained: int) -> FeatureBag:
    """Genomic surrogate bag decoded from histology; requires parameters
    that have actually been trained (steps_trained >= 1)."""
    if steps_trained < 1:
        raise ValueError("imputation requires trained parameters "
                         f"(steps_trained={steps_trained})")
    sset = cross_modal_encode(bag_h, genomic_params, t_iters)
    x_tilde, _ = reconstruct_genomic(sset.slots, positions, head)
    return FeatureBag(modality="genomic", matrix=x_tilde)
