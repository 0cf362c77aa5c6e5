"""Selective slot decoding: a linear gate scores each slot, a
Gumbel-Top-K draw keeps K of them (Kool et al., "Stochastic Beams and
Where to Find Them: The Gumbel-Top-k Trick", ICML 2019), and the
survival logits of the kept slots are mixed with softmax weights over
the kept set.  The gate has no bias, since a shift shared by every score
cancels in both the top-K and the softmax.

The selection is one K-hot array, not a graph node, which three
readers share: the weights below, the masked self-attention
(``fusion.build_masked_self_attention``) and the ``GateMask`` serving
reports.  The weights are one masked softmax,
w = row_softmax(r / temperature + c), with c = 0 on the selected slots
and a large negative finite constant (-finfo(dtype).max / 4) on the
others: the unselected weights are exactly 0, the selected ones the
softmax of their scores restricted to the selected set, and the
gradient through them stays bounded whatever the draw.  The trade-off:
unselected slots get no gradient through the gate weights; they still
get it through the reconstruction heads, which decode every slot, and
through cross-attention over all slots.  Gumbel noise is given only in
training (``model.draw_noise`` draws it); without it the selection is
the deterministic top-K of the raw scores.

K comes from one rule, ``train.k_from_fraction``: K = round(f * S),
clipped to [1, S], with f = ``TrainConfig.k_fraction`` (0.25 by
default).  Training and inference both read K from it through
``TrainConfig.k_h``/``k_g``.  That rule is where K is checked, and
``TrainConfig.validate`` is where the temperature is checked positive;
the builders here take both as given.  At K = S (``k_fraction = 1.0``,
the keep-every-slot ablation) the mask is all ones, c is not added, and
the weights are the plain softmax of the scores.

As in the encoder module, build_* functions append nodes to a
caller-owned Graph; ``build_gumbel_mask`` is the one place a selection
is made, and it appends none.  Serving reports the selection the
model's graph made as a ``GateMask``, which ``write_gate_csv`` exports.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .autodiff import Graph, Node, init_block, init_weight, zero_row
from .data import atomic_write

__all__ = [
    "GateMask",
    "GateParams",
    "PredictorParams",
    "build_gate_scores",
    "build_gated_mixture",
    "build_gumbel_mask",
    "build_renormalized_weights",
    "build_slot_logits",
    "init_gate_params",
    "init_predictor_params",
    "write_gate_csv",
]


@dataclass(frozen=True)
class GateParams:
    """Linear gate mapping one slot to one retention score (no bias, see
    the module docstring)."""

    w: np.ndarray   # (d, 1)


@dataclass(frozen=True)
class PredictorParams:
    """Per-slot logit head: one hidden relu layer of width d."""

    w1: np.ndarray  # (d, d)
    b1: np.ndarray  # (1, d)
    w2: np.ndarray  # (d, n_bins)
    b2: np.ndarray  # (1, n_bins)


def init_gate_params(rng: np.random.Generator, dim: int) -> GateParams:
    return GateParams(w=init_weight(rng, dim, 1))


def init_predictor_params(rng: np.random.Generator, dim: int,
                          n_bins: int) -> PredictorParams:
    mat, bias, _ = init_block(rng, dim)
    return PredictorParams(
        w1=mat(), b1=bias(),
        w2=init_weight(rng, dim, n_bins), b2=zero_row(n_bins),
    )


@dataclass(frozen=True)
class GateMask:
    """One patient's gate selection over its slots."""

    hard: np.ndarray          # (S,), exactly K entries equal to 1
    scores: np.ndarray        # (S,), raw retention scores r


def _k_hot(values: np.ndarray, k: int) -> np.ndarray:
    """K-hot array marking the k largest entries along the last axis (ties
    keep the lowest index, so the result is deterministic)."""
    order = np.argsort(-values, axis=-1, kind="stable")[..., :k]
    hard = np.zeros(values.shape, dtype=values.dtype)
    np.put_along_axis(hard, order, 1.0, axis=-1)
    return hard


# -------------------------------------------------------------- graph builders


def build_gate_scores(g: Graph, gate: GateParams, slots: Node) -> Node:
    """Retention scores r = slots @ w, one per slot: (S, 1), or
    (B, S, 1) for a batch of slot sets."""
    return g.matmul(slots, gate.w)


def build_gumbel_mask(g: Graph, r: Node, k: int, noise=None) -> np.ndarray:
    """K-hot selection over scores r of shape (..., S, 1), an array of the
    graph dtype and shape (..., 1, S): the top-K of the scores, perturbed
    by Gumbel(0,1) ``noise`` of shape (..., 1, S) (cast to the graph
    dtype) when it is given (training)."""
    scores = np.swapaxes(r.value, -1, -2)
    if noise is not None:
        scores = scores + np.asarray(noise, dtype=g.dtype)
    return _k_hot(scores, k)


def build_renormalized_weights(g: Graph, r: Node, mask: np.ndarray,
                               temperature: float) -> Node:
    """Mixture weights w = row_softmax(r/temperature + c) over the slots
    the K-hot ``mask`` selects, c = 0 there and -finfo.max/4 elsewhere (see
    the module docstring).  Shape (..., 1, S)."""
    row = g.reshape(r, r.shape[:-2] + (1, r.shape[-2]))
    selected = mask > 0.5
    logits = g.scale(row, 1.0 / temperature)
    if not selected.all():
        off = -np.finfo(g.dtype).max / 4
        logits = g.add(logits, g.const(np.where(selected, 0.0, off)))
    return g.row_softmax(logits)


def build_slot_logits(g: Graph, pred: PredictorParams, slots: Node) -> Node:
    """Per-slot survival logits, shape (..., S, n_bins): a row-wise MLP
    with one relu hidden layer of width d."""
    hidden = g.relu(g.affine(slots, pred.w1, pred.b1))
    return g.affine(hidden, pred.w2, pred.b2)


def build_gated_mixture(g: Graph, weights: Node, logits: Node) -> Node:
    """Weighted mixture of slot logit rows, shape (..., 1, n_bins)."""
    return g.matmul(weights, logits)


# ------------------------------------------------------------------ export


def write_gate_csv(mask: GateMask, weights: np.ndarray, path) -> None:
    weights = np.asarray(weights).reshape(-1)
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot_index", "r", "selected", "w"])
        for idx in range(mask.scores.size):
            writer.writerow([idx, f"{float(mask.scores[idx]):.6g}",
                             int(mask.hard[idx] > 0.5),
                             f"{float(weights[idx]):.6g}"])
