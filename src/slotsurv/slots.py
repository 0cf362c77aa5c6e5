"""Slot attention encoder: T competitive-attention iterations compress an
M x d feature bag into S x d slots.

Attention is normalized over SLOTS per instance (column-stochastic alpha),
which is what makes slots compete for instances.  The per-iteration update
is GRU(state=slots, input=aggregated values) followed by a residual MLP.
Aggregation is the weighted mean of projected values by default (stable as
M varies patient to patient); the plain weighted sum sits behind the
``aggregation="sum"`` flag.

Graph builders (build_*) append to a caller-owned autodiff Graph and are
what the trainer composes; the plain functions (encode,
slot_attention_step, init_slots) are numpy-in/numpy-out conveniences that
build a throwaway graph internally.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .autodiff import Graph, bind_arrays, init_block, init_normal

__all__ = [
    "SlotParams",
    "SlotSet",
    "StepResult",
    "assignment_map",
    "build_encode",
    "build_init_slots",
    "build_attention_step",
    "encode",
    "init_slot_params",
    "init_slots",
    "slot_attention_step",
    "write_assignment_csv",
]

_AGG_EPS = 1e-8
_AGGREGATIONS = ("mean", "sum")


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
    ln_slot_gamma: np.ndarray  # slots, before each Q projection
    ln_slot_beta: np.ndarray

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
    t_iters: int


@dataclass(frozen=True)
class StepResult:
    slots: np.ndarray
    attention: np.ndarray
    update: np.ndarray      # aggregated values fed to the GRU


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
        ln_slot_gamma=gamma(), ln_slot_beta=bias(),
    )


# -------------------------------------------------------------- graph builders


def build_init_slots(g: Graph, p: SlotParams, mode: str,
                     rng: np.random.Generator | None = None):
    """Initial slots node: the learned mean, plus sampled noise in
    stochastic mode (noise enters as a constant, so gradients reach both
    init_mean and init_log_std)."""
    if mode == "deterministic":
        return p.init_mean
    if mode != "stochastic":
        raise ValueError(f"unknown init mode {mode!r}")
    if rng is None:
        raise ValueError("stochastic init needs an rng")
    eps = g.const(rng.standard_normal(p.init_mean.shape))
    return g.add(p.init_mean, g.mul(g.exp(p.init_log_std), eps))


def build_attention_step(g: Graph, p: SlotParams, slots, k, v,
                         aggregation: str = "mean"):
    """One competitive-attention iteration given projected keys/values.

    Returns (updated slots, alpha, aggregated update) nodes.
    """
    if aggregation not in _AGGREGATIONS:
        raise ValueError(f"aggregation must be one of {_AGGREGATIONS}")
    dim = slots.shape[1]
    m = k.shape[0]
    normed = g.layer_norm(slots, p.ln_slot_gamma, p.ln_slot_beta)
    q = g.matmul(normed, p.w_q)                              # (S, d)
    logits = g.scale(g.matmul(q, g.transpose(k)), 1.0 / np.sqrt(dim))
    alpha = g.col_softmax(logits)                            # (S, M)
    u = g.matmul(alpha, v)                                   # (S, d)
    if aggregation == "mean":
        mass = g.matmul(alpha, g.const(np.ones((m, 1))))     # (S, 1)
        mass = g.add(mass, g.const(np.full((1, 1), _AGG_EPS)))
        recip = g.exp(g.scale(g.log(mass), -1.0))
        u = g.mul(u, g.matmul(recip, g.const(np.ones((1, dim)))))
    updated = g.gru_cell(u, slots,
                         p.gru_wz, p.gru_uz, p.gru_bz,
                         p.gru_wr, p.gru_ur, p.gru_br,
                         p.gru_wn, p.gru_un, p.gru_bn)
    hidden = g.relu(g.add(g.matmul(updated, p.mlp_w1), p.mlp_b1))
    residual = g.add(g.matmul(hidden, p.mlp_w2), p.mlp_b2)
    return g.add(updated, residual), alpha, u


def build_encode(g: Graph, p: SlotParams, bag, t_iters: int,
                 mode: str = "deterministic",
                 rng: np.random.Generator | None = None,
                 aggregation: str = "mean", slots0=None):
    """T attention iterations over a bag node; returns (slots, alpha) nodes."""
    if t_iters < 1:
        raise ValueError(f"t_iters must be >= 1, got {t_iters}")
    if bag.shape[1] != p.dim:
        raise ValueError(f"bag width {bag.shape[1]} != slot width {p.dim}")
    x = g.layer_norm(bag, p.ln_in_gamma, p.ln_in_beta)
    k = g.matmul(x, p.w_k)
    v = g.matmul(x, p.w_v)
    slots = slots0 if slots0 is not None else build_init_slots(g, p, mode, rng)
    alpha = None
    for _ in range(t_iters):
        slots, alpha, _ = build_attention_step(g, p, slots, k, v, aggregation)
    return slots, alpha


# ------------------------------------------------------------ numpy interface


def init_slots(params: SlotParams, mode: str,
               rng: np.random.Generator | None = None) -> np.ndarray:
    g = Graph()
    node = build_init_slots(g, bind_arrays(g, "p", params, trainable=False),
                            mode, rng)
    return node.value.copy()


def slot_attention_step(slots: np.ndarray, bag_matrix: np.ndarray,
                        params: SlotParams,
                        aggregation: str = "mean") -> StepResult:
    """One iteration from explicit slots over a raw bag (numpy in/out)."""
    g = Graph()
    p = bind_arrays(g, "p", params, trainable=False)
    x = g.layer_norm(g.const(bag_matrix), p.ln_in_gamma, p.ln_in_beta)
    k = g.matmul(x, p.w_k)
    v = g.matmul(x, p.w_v)
    out, alpha, u = build_attention_step(g, p, g.const(slots), k, v,
                                         aggregation)
    return StepResult(slots=out.value.copy(), attention=alpha.value.copy(),
                      update=u.value.copy())


def encode(bag_matrix: np.ndarray, params: SlotParams, t_iters: int,
           mode: str = "deterministic",
           rng: np.random.Generator | None = None,
           aggregation: str = "mean") -> SlotSet:
    g = Graph()
    p = bind_arrays(g, "p", params, trainable=False)
    slots, alpha = build_encode(g, p, g.const(bag_matrix), t_iters,
                                mode=mode, rng=rng, aggregation=aggregation)
    return SlotSet(slots=slots.value.copy(), attention=alpha.value.copy(),
                   t_iters=t_iters)


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
