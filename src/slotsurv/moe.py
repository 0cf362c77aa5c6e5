"""Selective slot decoding: a lightweight gate scores each slot, a
Gumbel-Top-K draw keeps K of them, and the survival logits of the kept
slots are mixed with renormalized softmax weights.

The selection is made differentiable with a straight-through estimator:
the forward value of the mask is exactly K-hot, while gradients flow
through the soft relaxation, so unselected slots still receive learning
signal.  At inference the mask is the deterministic top-K of the raw
scores and no noise is drawn.

K comes from one rule, ``train.k_from_fraction``: K = round(f * S),
clipped to [1, S], with f = ``TrainConfig.k_fraction`` (0.25 by
default).  Training and inference both read K from it through
``TrainConfig.k_h``/``k_g``.  With selection off (the ``selective=False``
ablation) every slot is kept, so K = S.

As in the encoder module, build_* functions append nodes to a
caller-owned Graph; the plain functions are numpy conveniences that also
serve as an independent cross-check of the graph builders in the tests.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .autodiff import Graph, Node, init_block, init_normal

__all__ = [
    "DEFAULT_TEMPERATURE",
    "GateMask",
    "GateParams",
    "PredictorParams",
    "SlotMixture",
    "build_gate_scores",
    "build_gated_mixture",
    "build_gumbel_mask",
    "build_renormalized_weights",
    "build_slot_logits",
    "decode",
    "gate_scores",
    "gated_mixture",
    "gumbel_topk_mask",
    "init_gate_params",
    "init_predictor_params",
    "renormalize_weights",
    "slot_logits",
    "write_gate_csv",
]

DEFAULT_TEMPERATURE = 0.01


@dataclass(frozen=True)
class GateParams:
    """Affine gate mapping one slot to one retention score."""

    w: np.ndarray   # (d, 1)
    b: np.ndarray   # (1, 1)


@dataclass(frozen=True)
class PredictorParams:
    """Per-slot logit head: one hidden relu layer of width d."""

    w1: np.ndarray  # (d, d)
    b1: np.ndarray  # (1, d)
    w2: np.ndarray  # (d, n_bins)
    b2: np.ndarray  # (1, n_bins)


def init_gate_params(rng: np.random.Generator, dim: int) -> GateParams:
    return GateParams(w=init_normal(rng, (dim, 1), 1.0 / np.sqrt(dim)),
                      b=np.zeros((1, 1), dtype=np.float32))


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
    """One selection draw over the slots of a patient."""

    hard: np.ndarray          # (S,), exactly K entries equal to 1
    soft: np.ndarray          # (S,), relaxed probabilities summing to 1
    scores: np.ndarray        # (S,), raw retention scores r
    k: int
    temperature: float

    @property
    def selected(self) -> np.ndarray:
        """Indices of the retained slots, ascending."""
        return np.flatnonzero(self.hard > 0.5)


@dataclass(frozen=True)
class SlotMixture:
    """Per-slot logits, renormalized weights and their gated mixture."""

    logits: np.ndarray    # (S, n_bins)
    weights: np.ndarray   # (S,), nonneg, sums to 1, zero off the mask
    mixture: np.ndarray   # (n_bins,)


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
    """Retention scores r = slots @ w + b, one per slot: (S, 1), or
    (B, S, 1) for a batch of slot sets."""
    return g.add(g.matmul(slots, gate.w), gate.b)


def build_gumbel_mask(g: Graph, r: Node, k: int, temperature: float,
                      rng: np.random.Generator | None = None,
                      training: bool = True, noise=None):
    """Top-K selection mask over scores r of shape (..., S, 1).

    Returns (mask, soft) nodes of shape (..., 1, S).  In training mode the
    scores are perturbed with Gumbel(0,1) noise (drawn from ``rng`` unless
    given as ``noise``) and the mask is the straight-through composition
    hard + (soft - stopgrad(soft)): its forward value is exactly K-hot per
    patient while its backward pass is that of the soft relaxation.  In
    inference mode the mask is the deterministic top-K of the raw scores
    (a constant) and soft is None.
    """
    if r.shape[-1] != 1:
        raise ValueError(f"scores must be a column, got shape {r.shape}")
    n_slots = r.shape[-2]
    _check_k(k, n_slots)
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if not training:
        return g.const(_k_hot(np.swapaxes(r.value, -1, -2), k)), None
    if noise is None:
        if rng is None:
            raise ValueError("training-mode selection needs an rng")
        noise = rng.gumbel(size=r.shape[:-2] + (1, n_slots))
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
    hidden = g.relu(g.add(g.matmul(slots, pred.w1), pred.b1))
    return g.add(g.matmul(hidden, pred.w2), pred.b2)


def build_gated_mixture(g: Graph, weights: Node, logits: Node) -> Node:
    """Weighted mixture of slot logit rows, shape (..., 1, n_bins)."""
    if weights.shape[-2:] != (1, logits.shape[-2]):
        raise ValueError(
            f"weights {weights.shape} do not match logits {logits.shape}")
    return g.matmul(weights, logits)


# ------------------------------------------------------------ numpy interface


def gate_scores(slots: np.ndarray, gate: GateParams) -> np.ndarray:
    slots = np.asarray(slots, dtype=np.float64)
    return (slots @ gate.w.astype(np.float64)
            + gate.b.astype(np.float64))[:, 0]


def gumbel_topk_mask(r: np.ndarray, k: int, temperature: float,
                     rng: np.random.Generator | None = None,
                     training: bool = True) -> GateMask:
    r = np.asarray(r, dtype=np.float64).reshape(-1)
    _check_k(k, r.size)
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if training:
        if rng is None:
            raise ValueError("training-mode selection needs an rng")
        perturbed = r + rng.gumbel(size=r.size)
    else:
        perturbed = r
    shifted = (perturbed - perturbed.max()) / temperature
    exp = np.exp(shifted)
    return GateMask(hard=_k_hot(perturbed, k), soft=exp / exp.sum(),
                    scores=r.copy(), k=k, temperature=temperature)


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


def write_gate_csv(mask: GateMask, weights: np.ndarray, path) -> None:
    weights = np.asarray(weights).reshape(-1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot_index", "r", "selected", "w"])
        for idx in range(mask.scores.size):
            writer.writerow([idx, f"{float(mask.scores[idx]):.6g}",
                             int(mask.hard[idx] > 0.5),
                             f"{float(weights[idx]):.6g}"])
