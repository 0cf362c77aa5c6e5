"""Plain references the tests check the package against.

* Float64 numpy references for the selective slot decoder in
  ``slotsurv.moe``.  The graph builders there are what the model runs;
  these plain functions recompute the same decode independently so the
  tests can check the builders against them.  ``gumbel_topk_mask`` draws
  one Gumbel-top-K selection in numpy, with its soft relaxation; the
  statistical gate tests sample it.
* ``out_of_place_acc``, adjoint accumulation that allocates every sum, for
  checking ``autodiff.backward``'s in-place accumulation.
* ``unfused_attention_step``, one slot-attention iteration as the chain of
  18 per-op nodes that the fused ``slot_step`` op replaces, and the numpy
  conveniences built on it (``init_slots``, ``slot_attention_step``).
* ``unfused_cross_update``, one direction of one cross-attention round as
  the chain of 13 per-op nodes that the fused ``cross_step`` op replaces,
  and ``unfused_cross_attention``, L rounds of it.
* ``nll_loss``, the scalar likelihood of one subject under a hazard curve,
  which ``survival.build_nll_loss`` is checked against.
* ``bootstrap_loop``, ``survival.bootstrap_stats`` with one Kaplan-Meier
  fit per group and replicate, which the batched replicates are checked
  against bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from slotsurv.autodiff import _AGGREGATIONS, Graph, bind_arrays
from slotsurv.moe import GateMask, GateParams, PredictorParams, _check_k, _k_hot
from slotsurv.slots import SlotParams, _keys_values, build_init_slots
from slotsurv.survival import BootstrapSummary, HazardCurve, km_estimate, rmst

AGG_EPS = 1e-8

DEFAULT_TEMPERATURE = 0.01


@dataclass(frozen=True)
class SlotMixture:
    """Per-slot logits, renormalized weights and their gated mixture."""

    logits: np.ndarray    # (S, n_bins)
    weights: np.ndarray   # (S,), nonneg, sums to 1, zero off the mask
    mixture: np.ndarray   # (n_bins,)


@dataclass(frozen=True)
class GumbelDraw(GateMask):
    """A ``GateMask`` with the relaxed probabilities of its draw."""

    soft: np.ndarray          # (S,), relaxed probabilities summing to 1


def gumbel_topk_mask(r: np.ndarray, k: int, temperature: float,
                     rng: np.random.Generator | None = None,
                     training: bool = True) -> GumbelDraw:
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
    return GumbelDraw(hard=_k_hot(perturbed, k), scores=r.copy(),
                      soft=exp / exp.sum())


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


# ---------------------------------------------------------- slot attention


def unfused_attention_step(g: Graph, p: SlotParams, slots, keys_t, values,
                           ones, aggregation: str = "mean"):
    """One attention iteration as per-op nodes; returns (updated slots,
    alpha, aggregated update) nodes.  The slots' layer norm has no shift,
    so the chain gives it a zero constant."""
    if aggregation not in _AGGREGATIONS:
        raise ValueError(f"aggregation must be one of {_AGGREGATIONS}")
    no_shift = g.const(np.zeros(p.ln_slot_gamma.shape))
    normed = g.layer_norm(slots, p.ln_slot_gamma, no_shift)
    q = g.matmul(normed, p.w_q)
    alpha = g.col_softmax(g.matmul(q, keys_t))
    u = g.matmul(alpha, values)
    if aggregation == "mean":
        mass = g.add(g.matmul(alpha, ones), g.const(np.full((1, 1), AGG_EPS)))
        u = g.mul(u, g.reciprocal(mass))
    updated = g.gru_cell(u, slots,
                         p.gru_wz, p.gru_uz, p.gru_bz,
                         p.gru_wr, p.gru_ur, p.gru_br,
                         p.gru_wn, p.gru_un, p.gru_bn)
    hidden = g.relu(g.add(g.matmul(updated, p.mlp_w1), p.mlp_b1))
    residual = g.add(g.matmul(hidden, p.mlp_w2), p.mlp_b2)
    return g.add(updated, residual), alpha, u


def unfused_encode(g: Graph, p: SlotParams, bag, t_iters: int,
                   aggregation: str = "mean", mask=None, noise=None):
    """``slots.build_encode`` over the unfused chain; returns the slots and
    the last alpha (masked) as nodes."""
    keys_t, values, ones = _keys_values(g, p, bag, mask)
    slots = build_init_slots(g, p, lead=bag.shape[:-2], noise=noise)
    for _ in range(t_iters):
        slots, alpha, _ = unfused_attention_step(g, p, slots, keys_t, values,
                                                 ones, aggregation)
    if mask is not None:
        alpha = g.mul(alpha, g.transpose(ones))
    return slots, alpha


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
    node = build_init_slots(g, bind_arrays(g, "p", params, trainable=False),
                            noise=noise)
    return node.value.copy()


def slot_attention_step(slots: np.ndarray, bag_matrix: np.ndarray,
                        params: SlotParams,
                        aggregation: str = "mean") -> StepResult:
    """One iteration from explicit slots over a raw bag (numpy in/out)."""
    g = _graph(params)
    p = bind_arrays(g, "p", params, trainable=False)
    keys_t, values, ones = _keys_values(g, p, g.const(bag_matrix), None)
    out, alpha, u = unfused_attention_step(g, p, g.const(slots), keys_t,
                                           values, ones, aggregation)
    return StepResult(slots=out.value.copy(), attention=alpha.value.copy(),
                      update=u.value.copy())


# --------------------------------------------------------- cross-attention


def unfused_cross_update(g: Graph, p, queries, context):
    """One direction of one cross-attention round as the 13 per-op nodes
    that the fused ``cross_step`` op replaces."""
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
    hidden = g.relu(g.affine(updated, p.mlp_w1, p.mlp_b1))
    return g.add(updated, g.affine(hidden, p.mlp_w2, p.mlp_b2))


def unfused_cross_attention(g: Graph, p, slots_h, slots_g, l_iters: int):
    """``fusion.build_iterative_cross_attention`` over the unfused chain."""
    for _ in range(l_iters):
        slots_h, slots_g = (unfused_cross_update(g, p, slots_h, slots_g),
                            unfused_cross_update(g, p, slots_g, slots_h))
    return slots_h, slots_g


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
