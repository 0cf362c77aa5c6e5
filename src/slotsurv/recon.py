"""Reconstruction heads: decode slots back to feature space so that
unselected slots keep carrying information instead of collapsing.

Three reconstruction targets share one decoder architecture (a single
cross-attention block with a feed-forward tail), which each head runs as
one ``decode`` graph node (``build_decode``) over every row it
reconstructs.  A training batch builds each head's loss, and the loss
node alone is what its builder returns:

* genomic (``build_recon_genomic``): learned per-pathway position
  embeddings query the genomic slots; mean-squared error against the
  original pathway features.
* histology (``build_recon_histology``): a frozen random affine map turns
  patch features into queries for the histology slots; cosine loss
  (``build_cosine_loss``), which is scale-invariant per patch and
  averages over the real rows the instance mask marks.  It reads at most
  ``RECON_ROWS`` (512) of a patient's subsampled rows, a uniform draw
  when the bag has more: the loss is a mean over rows, so a uniform
  subset estimates it without bias (He et al., "Masked Autoencoders Are
  Scalable Vision Learners", CVPR 2022), and on bags of 4096 rows
  decoding every row cost more than the slot encoders.
* cross-modal: the genomic branch's slot initialization is run over the
  HISTOLOGY bag (``build_cross_modal_encode``), every subsampled row of
  it, and the resulting slots must reconstruct the genomic features
  through the shared position table, with ``build_recon_genomic`` and
  the cross-modal head.  Serving imputes through this encode, so it
  reads no row budget.

After training ``impute_genomic`` runs the cross-modal path, in graphs of
its own, when a genomic bag is missing: ``cross_modal_encode`` then
``reconstruct_genomic``, numpy facades that bind their parameter group as
graph inputs in one ``bind_arrays`` call and return values, no loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import slots as slot_mod
from .autodiff import Graph, Node, bind_arrays, init_block, init_normal
from .data import FeatureBag, expect_modality

RECON_ROWS = 512        # subsampled histology rows the histology head reads

__all__ = [
    "FrozenQueryMap",
    "PositionTable",
    "RECON_ROWS",
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


@dataclass(frozen=True)
class PositionTable:
    """One learnable query row per genomic pathway index."""

    table: np.ndarray       # (M_g, d)

    @property
    def m_rows(self) -> int:
        return self.table.shape[0]


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
                        slots: Node, target: Node) -> Node:
    """Mean squared error of the genomic features decoded from ``slots``
    at the position queries against ``target``: 0-d for one patient, (B,)
    for a batch.  The same builder serves the cross-modal path: pass the
    histology-derived slots instead of the genomic ones.  A target with
    another row count than the position table gets ``squared_error``'s
    ``GraphError`` (a ValueError)."""
    return g.squared_error(build_decode(g, head, positions, slots), target)


def build_cosine_loss(g: Graph, recon: Node, target: Node, mask) -> Node:
    """Loss 1 - mean row cosine: 0-d for one patient, (B,) for a batch.

    The instance ``mask``, (M,) or (B, M), marks the real rows: the mean
    runs over each patient's real rows only, since padded target rows are
    zero, so their cosines are zero, and the mean over all M rows is
    rescaled by M / (real rows), which is 1 for an unpadded bag.
    """
    mask = np.asarray(mask)
    score = g.mul(g.cosine(recon, target),
                  g.const(mask.shape[-1] / mask.sum(axis=-1)))
    return g.add(g.const(np.ones(())), g.scale(score, -1.0))


def build_recon_histology(g: Graph, head: ReconHeadParams,
                          qmap: FrozenQueryMap, bag: Node, slots: Node,
                          mask) -> Node:
    """Cosine loss of the patch features decoded from histology slots
    (see build_cosine_loss, which ``mask`` is passed to); queries come
    from the frozen random map of the patches themselves.  The query map
    enters as graph constants, so no gradient ever reaches it.
    """
    queries = g.affine(bag, g.const(qmap.w), g.const(qmap.b))
    return build_cosine_loss(g, build_decode(g, head, queries, slots), bag,
                             mask)


def build_cross_modal_encode(g: Graph, genomic_params, hist_bag: Node,
                             t_iters: int, mask=None) -> Node:
    """Slot attention over the histology bag (or a padded batch of them,
    with its instance ``mask``) starting from the genomic branch's learned
    slot mean, without noise: one ``slot_encode`` node, which keeps the
    mask (after, for a batch, the two nodes that broadcast the mean).
    Returns the slots node; cost is linear in the bag size at fixed slot
    count."""
    return slot_mod.build_encode(g, genomic_params, hist_bag, t_iters,
                                 mask=mask)


# ------------------------------------------------------------ numpy interface


def reconstruct_genomic(slot_matrix: np.ndarray, positions: PositionTable,
                        head: ReconHeadParams) -> np.ndarray:
    """Genomic features decoded from one set of slots, (M_g, d), by one
    ``build_decode``.  The head's tensors are bound in one call, so a
    non-finite one is named ``input 'head.<field>'``."""
    g = Graph(dtype=head.w_q.dtype)
    h = bind_arrays(g, {"head": head})["head"]
    x_hat = build_decode(g, h, g.const(positions.table), g.const(slot_matrix))
    return x_hat.value.copy()


def cross_modal_encode(bag_h: FeatureBag, genomic_params,
                       t_iters: int) -> slot_mod.SlotSet:
    """Encode a histology bag with the genomic branch's slot parameters,
    bound in one call, so a non-finite one is named ``input 'p.<field>'``;
    the slot-init spread, which no pass without noise reads, stays
    unbound (``slots.NOISE_FIELDS``)."""
    expect_modality(bag_h, "histology")
    g = Graph(dtype=genomic_params.init_mean.dtype)
    p = bind_arrays(g, {"p": genomic_params},
                    skip=slot_mod.NOISE_FIELDS)["p"]
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
    return FeatureBag(modality="genomic",
                      matrix=reconstruct_genomic(sset.slots, positions, head))
