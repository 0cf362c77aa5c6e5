"""Selective slot decoding: a linear gate scores each slot, a
Gumbel-Top-K draw keeps K of them, and the survival logits of the kept
slots are mixed with renormalized softmax weights.  The gate has no
bias, since a shift shared by every score cancels in both the top-K and
the softmax.

The selection is made differentiable with a straight-through estimator:
the forward value of the mask is exactly K-hot, while gradients flow
through the soft relaxation, so unselected slots still receive learning
signal.  Gumbel noise is given only in training (``model.draw_noise``
draws it); without it the mask is the deterministic top-K of the raw
scores.

K comes from one rule, ``train.k_from_fraction``: K = round(f * S),
clipped to [1, S], with f = ``TrainConfig.k_fraction`` (0.25 by
default).  Training and inference both read K from it through
``TrainConfig.k_h``/``k_g``.  With selection off (the ``selective=False``
ablation) every slot is kept, so K = S.

As in the encoder module, build_* functions append nodes to a
caller-owned Graph; ``build_gumbel_mask`` is the one place a selection
is made.  Serving reports the selection the model's graph made as a
``GateMask``, which ``write_gate_csv`` exports.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .autodiff import Graph, Node, init_block, init_normal

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
    return GateParams(w=init_normal(rng, (dim, 1), 1.0 / np.sqrt(dim)))


def init_predictor_params(rng: np.random.Generator, dim: int,
                          n_bins: int) -> PredictorParams:
    mat, bias, _ = init_block(rng, dim)
    return PredictorParams(
        w1=mat(), b1=bias(),
        w2=init_normal(rng, (dim, n_bins), 1.0 / np.sqrt(dim)),
        b2=np.zeros((1, n_bins), dtype=np.float32),
    )


@dataclass(frozen=True)
class GateMask:
    """One patient's gate selection over its slots."""

    hard: np.ndarray          # (S,), exactly K entries equal to 1
    scores: np.ndarray        # (S,), raw retention scores r

    @property
    def selected(self) -> np.ndarray:
        """Indices of the retained slots, ascending."""
        return np.flatnonzero(self.hard > 0.5)


def _k_hot(values: np.ndarray, k: int) -> np.ndarray:
    """K-hot array marking the k largest entries along the last axis (ties
    keep the lowest index, so the result is deterministic)."""
    order = np.argsort(-values, axis=-1, kind="stable")[..., :k]
    hard = np.zeros(values.shape, dtype=values.dtype)
    np.put_along_axis(hard, order, 1.0, axis=-1)
    return hard


def _check_k(k: int, n_slots: int) -> None:
    if not 1 <= k <= n_slots:
        raise ValueError(f"K must be in [1, {n_slots}], got {k}")


# -------------------------------------------------------------- graph builders


def build_gate_scores(g: Graph, gate: GateParams, slots: Node) -> Node:
    """Retention scores r = slots @ w, one per slot: (S, 1), or
    (B, S, 1) for a batch of slot sets."""
    return g.matmul(slots, gate.w)


def build_gumbel_mask(g: Graph, r: Node, k: int, temperature: float,
                      noise=None):
    """Top-K selection mask over scores r of shape (..., S, 1).

    Returns (mask, soft) nodes of shape (..., 1, S).  Given Gumbel(0,1)
    ``noise`` of shape (..., 1, S) (training), the scores are perturbed
    by it and the mask is the straight-through composition
    hard + (soft - stopgrad(soft)): its forward value is exactly K-hot per
    patient while its backward pass is that of the soft relaxation.
    Without noise the mask is the deterministic top-K of the raw scores
    (a constant) and soft is None.
    """
    if r.shape[-1] != 1:
        raise ValueError(f"scores must be a column, got shape {r.shape}")
    _check_k(k, r.shape[-2])
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if noise is None:
        return g.const(_k_hot(np.swapaxes(r.value, -1, -2), k)), None
    noisy = g.add(g.transpose(r), g.const(noise))
    # top-K of the soft relaxation equals top-K of the perturbed scores
    # (softmax is monotone), so the hard vector is read off `noisy`
    soft = g.row_softmax(g.scale(noisy, 1.0 / temperature))
    hard = g.const(_k_hot(noisy.value, k))
    mask = g.add(hard, g.add(soft, g.scale(g.stop_gradient(soft), -1.0)))
    return mask, soft


def build_renormalized_weights(g: Graph, r: Node, mask: Node,
                               temperature: float) -> Node:
    """Mixture weights w = softmax(r/temperature) * mask, renormalized to
    sum 1 over the selected slots.  Shape (..., 1, S)."""
    relaxed = g.row_softmax(g.scale(g.transpose(r), 1.0 / temperature))
    if mask.shape != relaxed.shape:
        raise ValueError(
            f"mask shape {mask.shape} does not match {r.shape[-2]} scores")
    if not np.all(np.any(mask.value, axis=-1)):
        raise ValueError("mask selects no slots")
    masked = g.mul(relaxed, mask)
    total = g.sum(masked, axis=-1)
    # At low temperature the relaxed weights of every selected slot can
    # underflow to exact zero when some unselected slot dominates the
    # scores; flooring the normalizer keeps the reciprocal finite (the
    # weights of such a degenerate draw come out all-zero instead of NaN,
    # and the clamp blocks the gradient so the step is not poisoned).  The
    # floor must stay representable at the graph's own precision.
    total = g.clamp(total, float(np.finfo(g.dtype).tiny), np.inf)
    return g.mul(masked, g.reciprocal(total))


def build_slot_logits(g: Graph, pred: PredictorParams, slots: Node) -> Node:
    """Per-slot survival logits, shape (..., S, n_bins): a row-wise MLP
    with one relu hidden layer of width d."""
    hidden = g.relu(g.affine(slots, pred.w1, pred.b1))
    return g.affine(hidden, pred.w2, pred.b2)


def build_gated_mixture(g: Graph, weights: Node, logits: Node) -> Node:
    """Weighted mixture of slot logit rows, shape (..., 1, n_bins)."""
    if weights.shape[-2:] != (1, logits.shape[-2]):
        raise ValueError(
            f"weights {weights.shape} do not match logits {logits.shape}")
    return g.matmul(weights, logits)


# ------------------------------------------------------------------ export


def write_gate_csv(mask: GateMask, weights: np.ndarray, path) -> None:
    weights = np.asarray(weights).reshape(-1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot_index", "r", "selected", "w"])
        for idx in range(mask.scores.size):
            writer.writerow([idx, f"{float(mask.scores[idx]):.6g}",
                             int(mask.hard[idx] > 0.5),
                             f"{float(weights[idx]):.6g}"])
