"""Slot attention encoder: T competitive-attention iterations compress an
M x d feature bag into S x d slots.

Attention is normalized over SLOTS per instance (column-stochastic alpha),
which is what makes slots compete for instances.  The per-iteration update
is GRU(state=slots, input=aggregated values) followed by a residual MLP.
Aggregation is the weighted mean of projected values by default (stable as
M varies patient to patient); the plain weighted sum sits behind the
``aggregation="sum"`` flag.

Graph builders (build_*) append to a caller-owned autodiff Graph and are
what the trainer composes.  They take one patient's (M, d) bag or a
zero-padded batch (B, M, d) with its (B, M) instance mask; padded
instances carry no value and no attention mass.  Each iteration is one
``slot_step`` node of the engine, for training, serving and the
cross-modal encode alike: the layer norm, attention, aggregation, GRU and
residual MLP run as one kernel, with the per-op chain's values, gradients
and multiply-add counts.  The attention map of the last iteration is read
back from that node, as a plain array: it feeds no loss.  ``encode`` is a
numpy-in/numpy-out convenience that builds a throwaway graph, at the
parameters' precision, internally.

Only training is random.  The slots start at the learned mean, plus
exp(init_log_std) times standard-normal noise when noise is given; the
builders draw none themselves (``model.draw_noise`` draws a batch's), so
a pass without noise is the deterministic inference pass.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .autodiff import Graph, bind_arrays, init_block, init_normal

__all__ = [
    "SlotParams",
    "SlotSet",
    "assignment_map",
    "build_encode",
    "build_init_slots",
    "build_attention_step",
    "encode",
    "init_slot_params",
    "write_assignment_csv",
]


@dataclass(frozen=True)
class SlotParams:
    """Learnable state of one slot-attention encoder branch."""

    init_mean: np.ndarray      # (S, d)
    init_log_std: np.ndarray   # (S, d)
    w_q: np.ndarray            # (d, d)
    w_k: np.ndarray
    w_v: np.ndarray
    gru_wz: np.ndarray
    gru_uz: np.ndarray
    gru_bz: np.ndarray         # (1, d)
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
    ln_in_gamma: np.ndarray    # bag features, before K/V projection
    ln_in_beta: np.ndarray
    ln_slot_gamma: np.ndarray  # slots, before each Q projection; no shift,
                               # which the softmax over slots would cancel

    @property
    def n_slots(self) -> int:
        return self.init_mean.shape[0]

    @property
    def dim(self) -> int:
        return self.init_mean.shape[1]


@dataclass(frozen=True)
class SlotSet:
    """Final slots plus the attention map of the last iteration."""

    slots: np.ndarray       # (S, d)
    attention: np.ndarray   # (S, M), columns sum to 1


def init_slot_params(rng: np.random.Generator, n_slots: int,
                     dim: int) -> SlotParams:
    mat, bias, gamma = init_block(rng, dim)
    return SlotParams(
        init_mean=init_normal(rng, (n_slots, dim), 0.5),
        init_log_std=np.full((n_slots, dim), np.log(0.1), dtype=np.float32),
        w_q=mat(), w_k=mat(), w_v=mat(),
        gru_wz=mat(), gru_uz=mat(), gru_bz=bias(),
        gru_wr=mat(), gru_ur=mat(), gru_br=bias(),
        gru_wn=mat(), gru_un=mat(), gru_bn=bias(),
        mlp_w1=mat(), mlp_b1=bias(), mlp_w2=mat(), mlp_b2=bias(),
        ln_in_gamma=gamma(), ln_in_beta=bias(),
        ln_slot_gamma=gamma(),
    )


# -------------------------------------------------------------- graph builders


def build_init_slots(g: Graph, p: SlotParams, lead: tuple = (), noise=None):
    """Initial slots node, (S, d) or, with batch axes ``lead``,
    lead + (S, d): the learned mean, plus exp(init_log_std) times the
    standard-normal ``noise`` when it is given (training).  The noise
    enters as a constant, so gradients reach both init_mean and
    init_log_std."""
    if noise is not None:
        return g.add(p.init_mean, g.mul(g.exp(p.init_log_std), g.const(noise)))
    if not lead:
        return p.init_mean
    return g.add(g.const(np.zeros(lead + (1, 1))), p.init_mean)


def build_attention_step(g: Graph, p: SlotParams, slots, keys_t, values,
                         ones, aggregation: str = "mean"):
    """One competitive-attention iteration as one ``slot_step`` node.

    ``keys_t`` holds the projected keys transposed and pre-scaled by
    1/sqrt(d), (..., d, M); ``values`` the projected values, (..., M, d),
    with padded instances zeroed; ``ones`` is the (..., M, 1) instance
    mask (all ones without padding).  Padded instances get softmax
    columns like real ones, but they carry zero values, add nothing to
    the aggregation mass and so receive no gradient.  Returns the updated
    slots node; ``g.slot_attention`` reads its alpha back.
    """
    return g.slot_step(
        slots, keys_t, values, ones, p.ln_slot_gamma, p.w_q,
        (p.gru_wz, p.gru_uz, p.gru_bz, p.gru_wr, p.gru_ur, p.gru_br,
         p.gru_wn, p.gru_un, p.gru_bn),
        (p.mlp_w1, p.mlp_b1, p.mlp_w2, p.mlp_b2), aggregation)


def _keys_values(g: Graph, p: SlotParams, bag, mask):
    """Projected keys (transposed, scaled) and values of a bag, plus the
    (..., M, 1) instance-mask constant that zeroes padded values."""
    x = g.layer_norm(bag, p.ln_in_gamma, p.ln_in_beta)
    keys_t = g.scale(g.transpose(g.matmul(x, p.w_k)), 1.0 / np.sqrt(p.dim))
    values = g.matmul(x, p.w_v)
    if mask is None:
        ones = g.const(np.ones(bag.shape[:-1] + (1,)))
    else:
        ones = g.const(np.asarray(mask)[..., None])
        values = g.mul(values, ones)
    return keys_t, values, ones


def build_encode(g: Graph, p: SlotParams, bag, t_iters: int,
                 aggregation: str = "mean", mask=None, noise=None):
    """T attention iterations over a bag node; returns the slots node and
    the last iteration's alpha as an array (it feeds no loss).

    ``bag`` is one patient's (M, d) bag or a zero-padded batch (B, M, d)
    whose (B, M) instance ``mask`` marks the real rows; slots come out
    (S, d) or (B, S, d) and alpha (S, M) or (B, S, M), with padded
    columns zero.  ``noise`` is the standard-normal slot-init noise of a
    training pass, shaped like the slots; without it the slots start at
    the learned mean.
    """
    if t_iters < 1:
        raise ValueError(f"t_iters must be >= 1, got {t_iters}")
    if bag.shape[-1] != p.dim:
        raise ValueError(f"bag width {bag.shape[-1]} != slot width {p.dim}")
    keys_t, values, ones = _keys_values(g, p, bag, mask)
    slots = build_init_slots(g, p, lead=bag.shape[:-2], noise=noise)
    for _ in range(t_iters):
        slots = build_attention_step(g, p, slots, keys_t, values, ones,
                                     aggregation)
    alpha = g.slot_attention(slots)
    if mask is not None:
        alpha = alpha * np.swapaxes(ones.value, -1, -2)
    return slots, alpha


# ------------------------------------------------------------ numpy interface


def encode(bag_matrix: np.ndarray, params: SlotParams, t_iters: int,
           aggregation: str = "mean") -> SlotSet:
    """Slots of one bag from the learned initial mean (no noise)."""
    g = Graph(dtype=params.init_mean.dtype)
    p = bind_arrays(g, "p", params, trainable=False)
    slots, alpha = build_encode(g, p, g.const(bag_matrix), t_iters,
                                aggregation=aggregation)
    return SlotSet(slots=slots.value.copy(), attention=alpha.copy())


def assignment_map(slotset: SlotSet) -> np.ndarray:
    """Instance -> argmax slot index (ties resolve to the lowest index)."""
    return np.argmax(slotset.attention, axis=0)


def write_assignment_csv(slotset: SlotSet, path) -> None:
    indices = assignment_map(slotset)
    peaks = slotset.attention.max(axis=0)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance_index", "slot_index", "max_attention"])
        for j, (k, a) in enumerate(zip(indices, peaks)):
            writer.writerow([j, int(k), f"{float(a):.6g}"])
