"""Full two-branch survival model: slot encoders, gated slot decoders,
reconstruction regularizers and the fused risk head, composed into one
differentiable graph per patient (or per batch).

The composition order per patient:

  1. encode each modality's bag into slots (stochastic init while training)
  2. per-modality gated mixture of slot logits -> auxiliary survival losses
  3. masked self-attention over the retained slots of each modality
  4. iterative bidirectional cross-attention over *all* slots
  5. pool-and-concat -> risk head -> fused survival loss
  6. (training only) three reconstruction losses, weighted by lam

Reconstruction heads never run in the inference trunk, so predictions with
genomics present are bitwise-independent of those parameters.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass

import numpy as np

from . import fusion as fusion_mod
from . import moe as moe_mod
from . import recon as recon_mod
from . import slots as slot_mod
from . import survival as surv_mod
from .autodiff import Graph, Node, bind_arrays, named_arrays
from .fusion import CrossAttentionParams, RiskHeadParams, SelfAttentionParams
from .moe import GateParams, PredictorParams
from .recon import FrozenQueryMap, PositionTable, ReconHeadParams
from .slots import SlotParams


# ------------------------------------------------------------------ parameters


@dataclass(frozen=True)
class ModelParams:
    """Every tensor of the model, grouped by submodule."""

    slots_h: SlotParams
    slots_g: SlotParams
    gate_h: GateParams
    gate_g: GateParams
    pred_h: PredictorParams
    pred_g: PredictorParams
    recon_g: ReconHeadParams
    recon_h: ReconHeadParams
    recon_cross: ReconHeadParams
    positions: PositionTable
    qmap: FrozenQueryMap          # fixed random query map; never trained
    self_h: SelfAttentionParams
    self_g: SelfAttentionParams
    cross: CrossAttentionParams
    risk: RiskHeadParams

    @property
    def dim(self) -> int:
        return self.slots_h.dim

    @property
    def n_bins(self) -> int:
        return self.risk.w2.shape[1]

    @property
    def n_slots_h(self) -> int:
        return self.slots_h.n_slots

    @property
    def n_slots_g(self) -> int:
        return self.slots_g.n_slots


# Group names double as tensor-name prefixes.  Everything except qmap is
# trained; the audit in the test-suite checks gradient presence per group
# because a few individual tensors are zero by construction (a gate bias
# shifts every score identically, which the softmax ignores).
PARAM_GROUPS = tuple(f.name for f in dataclasses.fields(ModelParams))
FROZEN_GROUPS = ("qmap",)
TRAINABLE_GROUPS = tuple(n for n in PARAM_GROUPS if n not in FROZEN_GROUPS)

_GROUP_CLASSES = typing.get_type_hints(ModelParams)


def init_model(rng: np.random.Generator, dim: int, n_slots_h: int,
               n_slots_g: int, m_gen: int, n_bins: int) -> ModelParams:
    """Draw a fresh parameter set.  The draw order is fixed, so one seed
    pins every tensor."""
    if min(dim, n_slots_h, n_slots_g, m_gen, n_bins) < 1:
        raise ValueError("model sizes must all be >= 1")
    return ModelParams(
        slots_h=slot_mod.init_slot_params(rng, n_slots_h, dim),
        slots_g=slot_mod.init_slot_params(rng, n_slots_g, dim),
        gate_h=moe_mod.init_gate_params(rng, dim),
        gate_g=moe_mod.init_gate_params(rng, dim),
        pred_h=moe_mod.init_predictor_params(rng, dim, n_bins),
        pred_g=moe_mod.init_predictor_params(rng, dim, n_bins),
        recon_g=recon_mod.init_recon_head(rng, dim),
        recon_h=recon_mod.init_recon_head(rng, dim),
        recon_cross=recon_mod.init_recon_head(rng, dim),
        positions=recon_mod.init_position_table(rng, m_gen, dim),
        qmap=recon_mod.init_query_map(rng, dim),
        self_h=fusion_mod.init_self_params(rng, dim),
        self_g=fusion_mod.init_self_params(rng, dim),
        cross=fusion_mod.init_cross_params(rng, dim),
        risk=fusion_mod.init_risk_params(rng, dim, n_bins),
    )


def named_parameters(params: ModelParams) -> dict:
    """Flatten to {"group.field": array} covering every tensor, the frozen
    query map included (checkpoints must restore it bit-for-bit)."""
    out = {}
    for name in PARAM_GROUPS:
        out.update(named_arrays(name, getattr(params, name)))
    return out


def trainable_names(params: ModelParams):
    """Tensor names the optimizer may update."""
    prefix_ban = tuple(f"{g}." for g in FROZEN_GROUPS)
    return [n for n in named_parameters(params) if not n.startswith(prefix_ban)]


def params_from_arrays(arrays: dict) -> ModelParams:
    """Rebuild the composite dataclass from a flat name->array mapping."""
    kw = {}
    for group in PARAM_GROUPS:
        cls = _GROUP_CLASSES[group]
        sub = {}
        for f in dataclasses.fields(cls):
            key = f"{group}.{f.name}"
            if key not in arrays:
                raise KeyError(f"missing tensor {key!r}")
            sub[f.name] = arrays[key]
        kw[group] = cls(**sub)
    return ModelParams(**kw)


def cast_params(params: ModelParams, dtype) -> ModelParams:
    """Same parameters at another precision (e.g. float64 gradient checks)."""
    arrays = {k: np.asarray(v, dtype=dtype)
              for k, v in named_parameters(params).items()}
    return params_from_arrays(arrays)


def group_of(tensor_name: str) -> str:
    return tensor_name.split(".", 1)[0]


# ------------------------------------------------------------- graph building


@dataclass(frozen=True)
class TrunkNodes:
    """Graph nodes of one patient's prediction trunk."""

    slots_h: Node
    slots_g: Node
    alpha_h: Node
    alpha_g: Node
    scores_h: Node
    scores_g: Node
    weights_h: Node
    weights_g: Node
    mix_h: Node                # (1, n_bins) histology-only logits
    mix_g: Node                # (1, n_bins) genomic-only logits
    fused: Node                # (1, n_bins) fused logits
    selected_h: np.ndarray     # indices retained by the gate
    selected_g: np.ndarray


def _bind_model(g: Graph, params: ModelParams) -> ModelParams:
    """Mirror the trainable tensors as named graph inputs.  Frozen groups
    keep their raw arrays: the recon builder installs the query map as
    constants itself, which keeps it out of every gradient."""
    kw = {}
    for group in PARAM_GROUPS:
        if group in FROZEN_GROUPS:
            kw[group] = getattr(params, group)
        else:
            kw[group] = bind_arrays(g, group, getattr(params, group))
    return ModelParams(**kw)


def _branch_mixture(g: Graph, gate: GateParams, pred: PredictorParams,
                    slots: Node, k: int, temperature: float,
                    rng, training: bool, selective: bool):
    """Gate scores -> selection -> renormalized weights -> mixture logits.

    With ``selective`` off (ablation) every slot stays active and the
    weights are the plain softmax of the scores.
    Returns (scores, weights, mixture, selected_indices).
    """
    r = moe_mod.build_gate_scores(g, gate, slots)
    n_slots = slots.shape[0]
    if selective:
        mask, _ = moe_mod.build_gumbel_mask(g, r, k, temperature,
                                            rng=rng, training=training)
        weights = moe_mod.build_renormalized_weights(g, r, mask, temperature)
        selected = np.flatnonzero(mask.value[0] > 0.5)
    else:
        weights = g.row_softmax(g.scale(g.transpose(r), 1.0 / temperature))
        selected = np.arange(n_slots)
    logits = moe_mod.build_slot_logits(g, pred, slots)
    mixture = moe_mod.build_gated_mixture(g, weights, logits)
    return r, weights, mixture, selected


def build_patient_trunk(g: Graph, p: ModelParams, bag_h: Node, bag_g: Node,
                        k_h: int, k_g: int, temperature: float,
                        t_iters: int, l_iters: int,
                        rng=None, training: bool = True,
                        selective: bool = True,
                        aggregation: str = "mean") -> TrunkNodes:
    """Everything from raw bags to fused logits; ``p`` holds graph nodes
    (from _bind_model).  Reconstruction stays out of the trunk."""
    mode = "stochastic" if training else "deterministic"
    s_h, a_h = slot_mod.build_encode(g, p.slots_h, bag_h, t_iters, mode=mode,
                                     rng=rng, aggregation=aggregation)
    s_g, a_g = slot_mod.build_encode(g, p.slots_g, bag_g, t_iters, mode=mode,
                                     rng=rng, aggregation=aggregation)

    r_h, w_h, mix_h, sel_h = _branch_mixture(
        g, p.gate_h, p.pred_h, s_h, k_h, temperature, rng, training, selective)
    r_g, w_g, mix_g, sel_g = _branch_mixture(
        g, p.gate_g, p.pred_g, s_g, k_g, temperature, rng, training, selective)

    bar_h = fusion_mod.build_masked_self_attention(g, p.self_h, s_h, sel_h)
    bar_g = fusion_mod.build_masked_self_attention(g, p.self_g, s_g, sel_g)
    hat_h, hat_g = fusion_mod.build_iterative_cross_attention(
        g, p.cross, s_h, s_g, l_iters)
    z = fusion_mod.build_pool_concat(g, hat_h, hat_g, bar_h, bar_g)
    fused = fusion_mod.build_risk_head(g, p.risk, z)

    return TrunkNodes(slots_h=s_h, slots_g=s_g, alpha_h=a_h, alpha_g=a_g,
                      scores_h=r_h, scores_g=r_g,
                      weights_h=w_h, weights_g=w_g,
                      mix_h=mix_h, mix_g=mix_g, fused=fused,
                      selected_h=sel_h, selected_g=sel_g)


def build_patient_losses(g: Graph, p: ModelParams, trunk: TrunkNodes,
                         bag_h: Node, bag_g: Node, t_bin: int, censored,
                         lam: float, t_iters: int) -> dict:
    """The six loss terms of one patient as 0-d nodes.

    Reconstruction terms are only built when lam > 0 (the graphs are the
    expensive part of training, and a zero weight would sever their
    gradients anyway).
    """
    terms = {
        "surv_fused": surv_mod.build_nll_loss(g, trunk.fused, t_bin, censored),
        "surv_hist": surv_mod.build_nll_loss(g, trunk.mix_h, t_bin, censored),
        "surv_gen": surv_mod.build_nll_loss(g, trunk.mix_g, t_bin, censored),
    }
    if lam > 0.0:
        _, terms["recon_g"] = recon_mod.build_recon_genomic(
            g, p.recon_g, p.positions.table, trunk.slots_g, target=bag_g)
        _, terms["recon_h"], _ = recon_mod.build_recon_histology(
            g, p.recon_h, p.qmap, bag_h, trunk.slots_h)
        s_cross, _ = recon_mod.build_cross_modal_encode(
            g, p.slots_g, bag_h, t_iters)
        _, terms["recon_cross"] = recon_mod.build_recon_genomic(
            g, p.recon_cross, p.positions.table, s_cross, target=bag_g)
    return terms


@dataclass(frozen=True)
class CohortGraph:
    """A batch of patients sharing one parameter binding."""

    graph: Graph
    loss: Node                  # 0-d batch-mean total
    per_patient: tuple          # dict of term-name -> 0-d node, one per patient
    trunks: tuple               # TrunkNodes per patient

    def term_values(self):
        """Per-patient term values as floats (missing terms read 0)."""
        out = []
        for terms in self.per_patient:
            out.append({k: float(v.value) for k, v in terms.items()})
        return out

    def report(self, lam: float):
        return surv_mod.total_loss(self.term_values(), lam=lam)


def build_cohort_loss(params: ModelParams, patients, k_h: int, k_g: int,
                      temperature: float, t_iters: int, l_iters: int,
                      lam: float, rng=None, training: bool = True,
                      selective: bool = True, aggregation: str = "mean",
                      dtype=np.float32) -> CohortGraph:
    """One graph holding every patient of a batch.

    ``patients`` is a sequence of (bag_h, bag_g, t_bin, censored) tuples of
    raw arrays/ints.  The batch loss is the mean over patients of

        surv_fused + surv_hist + surv_gen + lam * (recon terms),

    which matches the component accounting of survival.total_loss.
    """
    if not patients:
        raise ValueError("empty patient batch")
    g = Graph(dtype=dtype)
    p = _bind_model(g, params)
    totals = []
    all_terms = []
    trunks = []
    for bag_h, bag_g, t_bin, censored in patients:
        xh = g.const(np.asarray(bag_h))
        xg = g.const(np.asarray(bag_g))
        trunk = build_patient_trunk(
            g, p, xh, xg, k_h, k_g, temperature, t_iters, l_iters,
            rng=rng, training=training, selective=selective,
            aggregation=aggregation)
        terms = build_patient_losses(g, p, trunk, xh, xg, t_bin, censored,
                                     lam, t_iters)
        surv = g.add(g.add(terms["surv_fused"], terms["surv_hist"]),
                     terms["surv_gen"])
        if lam > 0.0:
            rec = g.add(g.add(terms["recon_g"], terms["recon_h"]),
                        terms["recon_cross"])
            totals.append(g.add(surv, g.scale(rec, lam)))
        else:
            totals.append(surv)
        all_terms.append(terms)
        trunks.append(trunk)
    acc = totals[0]
    for t in totals[1:]:
        acc = g.add(acc, t)
    loss = g.mark("loss", g.scale(acc, 1.0 / len(totals)))
    return CohortGraph(graph=g, loss=loss, per_patient=tuple(all_terms),
                       trunks=tuple(trunks))


# --------------------------------------------------------------- numpy facade


@dataclass(frozen=True)
class PatientOutput:
    """Deterministic inference products for one patient."""

    curve: surv_mod.HazardCurve          # fused hazards/survival/risk
    curve_h: surv_mod.HazardCurve        # histology-only decoder
    curve_g: surv_mod.HazardCurve        # genomic-only decoder
    slots_h: slot_mod.SlotSet
    slots_g: slot_mod.SlotSet
    mask_h: moe_mod.GateMask
    mask_g: moe_mod.GateMask
    weights_h: np.ndarray
    weights_g: np.ndarray

    @property
    def risk(self) -> float:
        return self.curve.risk


def patient_forward(params: ModelParams, bag_h: np.ndarray,
                    bag_g: np.ndarray, k_h: int, k_g: int,
                    temperature: float, t_iters: int, l_iters: int,
                    selective: bool = True,
                    aggregation: str = "mean") -> PatientOutput:
    """Inference pass: deterministic slot init, noise-free top-K selection,
    reconstruction heads untouched.  The graph runs at the parameters'
    precision."""
    g = Graph(dtype=params.slots_h.init_mean.dtype)
    p = _bind_model(g, params)
    trunk = build_patient_trunk(
        g, p, g.const(np.asarray(bag_h)), g.const(np.asarray(bag_g)),
        k_h, k_g, temperature, t_iters, l_iters,
        rng=None, training=False, selective=selective,
        aggregation=aggregation)

    def gate_mask(scores, k):
        # with selection off every slot is kept, so K is the slot count
        r = scores.value[:, 0]
        return moe_mod.gumbel_topk_mask(r, k if selective else r.size,
                                        temperature, training=False)

    return PatientOutput(
        curve=surv_mod.hazards_from_logits(trunk.fused.value[0]),
        curve_h=surv_mod.hazards_from_logits(trunk.mix_h.value[0]),
        curve_g=surv_mod.hazards_from_logits(trunk.mix_g.value[0]),
        slots_h=slot_mod.SlotSet(slots=trunk.slots_h.value.copy(),
                                 attention=trunk.alpha_h.value.copy(),
                                 t_iters=t_iters),
        slots_g=slot_mod.SlotSet(slots=trunk.slots_g.value.copy(),
                                 attention=trunk.alpha_g.value.copy(),
                                 t_iters=t_iters),
        mask_h=gate_mask(trunk.scores_h, k_h),
        mask_g=gate_mask(trunk.scores_g, k_g),
        weights_h=trunk.weights_h.value[0].copy(),
        weights_g=trunk.weights_g.value[0].copy(),
    )
