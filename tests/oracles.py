"""Plain references the tests check the package against.

* Float64 numpy references for the selective slot decoder in
  ``slotsurv.moe``.  The graph builders there are what the model runs;
  these plain functions recompute the same decode independently so the
  tests can check the builders against them.
* ``out_of_place_acc``, adjoint accumulation that allocates every sum, for
  checking ``autodiff.backward``'s in-place accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from slotsurv.moe import GateMask, GateParams, PredictorParams, gumbel_topk_mask

DEFAULT_TEMPERATURE = 0.01


@dataclass(frozen=True)
class SlotMixture:
    """Per-slot logits, renormalized weights and their gated mixture."""

    logits: np.ndarray    # (S, n_bins)
    weights: np.ndarray   # (S,), nonneg, sums to 1, zero off the mask
    mixture: np.ndarray   # (n_bins,)


def gate_scores(slots: np.ndarray, gate: GateParams) -> np.ndarray:
    slots = np.asarray(slots, dtype=np.float64)
    return (slots @ gate.w.astype(np.float64)
            + gate.b.astype(np.float64))[:, 0]


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
