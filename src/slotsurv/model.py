"""Full two-branch survival model: slot encoders, gated slot decoders,
reconstruction regularizers and the fused risk head, composed into one
differentiable graph per batch of patients.  Every node carries a leading
batch axis, so the node count does not grow with the batch size;
inference runs a batch of one.

The composition order, for every patient of the batch at once:

  1. encode each modality's bag into slots (stochastic init while training)
  2. per-modality gated mixture of slot logits -> auxiliary survival losses
  3. masked self-attention over the retained slots of each modality
  4. iterative bidirectional cross-attention over *all* slots
  5. pool-and-concat -> risk head -> fused survival loss
  6. (training only) three reconstruction losses, weighted by lam

Reconstruction heads never run in the inference trunk, so predictions with
genomics present are bitwise-independent of those parameters.  Serving
binds only the trunk's parameter groups (``TRUNK_GROUPS``, 86 tensors
against the 126 a training batch binds); training binds every trainable
group.

Each slot encoder is one ``slot_encode`` node after its mask constant and
the nodes that start its slots: two in the trunk, and the cross-modal
encode of a training batch; serving reads its last attention map from
that node (``TrunkNodes`` holds none).  Each of a training batch's three
reconstruction heads is one ``decode`` node.  At the reference
``TrainConfig`` a training batch is one graph of 275 nodes and a served
patient one of 141.
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
from .autodiff import Graph, Node, named_arrays
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


# Group names double as tensor-name prefixes; everything but qmap is trained.
PARAM_GROUPS = tuple(f.name for f in dataclasses.fields(ModelParams))
FROZEN_GROUPS = ("qmap",)
TRAINABLE_GROUPS = tuple(n for n in PARAM_GROUPS if n not in FROZEN_GROUPS)
# The trunk (encoders, gates, decoders, fusion, risk head) reads every
# trained group but the reconstruction heads and their position table.
RECON_GROUPS = ("recon_g", "recon_h", "recon_cross", "positions")
TRUNK_GROUPS = tuple(n for n in TRAINABLE_GROUPS if n not in RECON_GROUPS)

_GROUP_CLASSES = typing.get_type_hints(ModelParams)
_TENSOR_NAMES = frozenset(f"{group}.{f.name}" for group in PARAM_GROUPS
                          for f in dataclasses.fields(_GROUP_CLASSES[group]))


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
    """Rebuild the composite dataclass from a flat name->array mapping that
    holds exactly the model's tensors: a missing or an unknown name raises
    KeyError."""
    unknown = sorted(arrays.keys() - _TENSOR_NAMES)
    if unknown:
        raise KeyError(f"unknown tensor {unknown[0]!r}")
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


# ------------------------------------------------------------- graph building


@dataclass(frozen=True)
class TrunkNodes:
    """Graph nodes of a batch's prediction trunk; row b of every node (and
    of the index arrays) belongs to patient b."""

    slots_h: Node              # (B, S_h, d)
    slots_g: Node
    scores_h: Node             # (B, S_h, 1)
    scores_g: Node
    weights_h: Node            # (B, 1, S_h)
    weights_g: Node
    mix_h: Node                # (B, 1, n_bins) histology-only logits
    mix_g: Node                # (B, 1, n_bins) genomic-only logits
    fused: Node                # (B, 1, n_bins) fused logits
    selected_h: np.ndarray     # (B, K_h) indices retained by the gate
    selected_g: np.ndarray


@dataclass(frozen=True)
class TrainingNoise:
    """The random draws of one training batch: slot-init noise (B, S, d)
    and Gumbel noise (B, 1, S) per branch (None with selection off)."""

    slots_h: np.ndarray
    slots_g: np.ndarray
    gumbel_h: np.ndarray | None
    gumbel_g: np.ndarray | None


def draw_noise(rng: np.random.Generator, n_patients: int,
               params: ModelParams, selective: bool) -> TrainingNoise:
    """Draw a batch's noise patient by patient, in a fixed order: slot-init
    noise h, slot-init noise g, Gumbel noise h, Gumbel noise g."""
    draws = []
    for _ in range(n_patients):
        row = [rng.standard_normal(params.slots_h.init_mean.shape),
               rng.standard_normal(params.slots_g.init_mean.shape)]
        if selective:
            row += [rng.gumbel(size=(1, params.n_slots_h)),
                    rng.gumbel(size=(1, params.n_slots_g))]
        draws.append(row)
    stacked = [np.stack(col) for col in zip(*draws)]
    if not selective:
        stacked += [None, None]
    return TrainingNoise(*stacked)


def _bind_model(g: Graph, params: ModelParams, groups) -> ModelParams:
    """Mirror the tensors of ``groups`` as named graph inputs, group by
    group and declared in one call so that one non-finite check covers
    them all.  The other groups keep their raw arrays: the recon builder
    installs the frozen query map as constants itself, which keeps it out
    of every gradient, and a graph that never reads a group need not bind
    it."""
    nodes = g.inputs({key: arr for name in groups for key, arr in
                      named_arrays(name, getattr(params, name)).items()})
    return dataclasses.replace(params, **{
        name: type(getattr(params, name))(**{
            f.name: nodes[f"{name}.{f.name}"]
            for f in dataclasses.fields(getattr(params, name))})
        for name in groups})


def _branch_mixture(g: Graph, gate: GateParams, pred: PredictorParams,
                    slots: Node, k: int, temperature: float,
                    gumbel, selective: bool):
    """Gate scores -> selection -> renormalized weights -> mixture logits.

    Selection is noisy when ``gumbel`` noise is given (training) and the
    plain top-K otherwise.  With ``selective`` off (ablation) every slot
    stays active and the weights are the plain softmax of the scores.
    Returns (scores, weights, mixture, selected_indices).
    """
    r = moe_mod.build_gate_scores(g, gate, slots)
    n_sets, n_slots = slots.shape[0], slots.shape[-2]
    if selective:
        mask, _ = moe_mod.build_gumbel_mask(g, r, k, temperature,
                                            noise=gumbel)
        weights = moe_mod.build_renormalized_weights(g, r, mask, temperature)
        # K-hot rows: nonzero() lists each row's K indices in order
        selected = np.nonzero(mask.value[:, 0] > 0.5)[1].reshape(n_sets, k)
    else:
        row = g.reshape(r, r.shape[:-2] + (1, n_slots))
        weights = g.row_softmax(g.scale(row, 1.0 / temperature))
        selected = np.tile(np.arange(n_slots), (n_sets, 1))
    logits = moe_mod.build_slot_logits(g, pred, slots)
    mixture = moe_mod.build_gated_mixture(g, weights, logits)
    return r, weights, mixture, selected


def build_patient_trunk(g: Graph, p: ModelParams, bag_h: Node, bag_g: Node,
                        k_h: int, k_g: int, temperature: float,
                        t_iters: int, l_iters: int,
                        noise: TrainingNoise | None = None,
                        selective: bool = True,
                        mask_h=None) -> TrunkNodes:
    """Everything from raw bags to fused logits for a batch of patients;
    ``p`` holds graph nodes (from _bind_model).  ``bag_h`` is the
    zero-padded (B, M, d) histology batch with its (B, M) instance
    ``mask_h`` (None when nothing is padded), ``bag_g`` the (B, M_g, d)
    genomic batch.  With ``noise`` the trunk runs in training mode
    (stochastic slot init, Gumbel top-K); without, in inference mode.
    Reconstruction stays out of the trunk."""
    noise = noise or TrainingNoise(None, None, None, None)
    s_h = slot_mod.build_encode(
        g, p.slots_h, bag_h, t_iters, mask=mask_h, noise=noise.slots_h)
    s_g = slot_mod.build_encode(
        g, p.slots_g, bag_g, t_iters, noise=noise.slots_g)

    r_h, w_h, mix_h, sel_h = _branch_mixture(
        g, p.gate_h, p.pred_h, s_h, k_h, temperature, noise.gumbel_h,
        selective)
    r_g, w_g, mix_g, sel_g = _branch_mixture(
        g, p.gate_g, p.pred_g, s_g, k_g, temperature, noise.gumbel_g,
        selective)

    bar_h = fusion_mod.build_masked_self_attention(g, p.self_h, s_h, sel_h)
    bar_g = fusion_mod.build_masked_self_attention(g, p.self_g, s_g, sel_g)
    hat_h, hat_g = fusion_mod.build_iterative_cross_attention(
        g, p.cross, s_h, s_g, l_iters)
    z = fusion_mod.build_pool_concat(g, hat_h, hat_g, bar_h, bar_g)
    fused = fusion_mod.build_risk_head(g, p.risk, z)

    return TrunkNodes(slots_h=s_h, slots_g=s_g, scores_h=r_h, scores_g=r_g,
                      weights_h=w_h, weights_g=w_g,
                      mix_h=mix_h, mix_g=mix_g, fused=fused,
                      selected_h=sel_h, selected_g=sel_g)


def build_patient_losses(g: Graph, p: ModelParams, trunk: TrunkNodes,
                         bag_h: Node, bag_g: Node, t_bins, censored,
                         lam: float, t_iters: int, mask_h=None) -> dict:
    """The six loss terms of a batch as (B,) nodes, one entry per patient.

    Reconstruction terms are only built when lam > 0 (the graphs are the
    expensive part of training, and a zero weight would sever their
    gradients anyway).  The cross-modal encode pools with the weighted
    mean, as the trunk's slot encoders do.
    """
    terms = {
        "surv_fused": surv_mod.build_nll_loss(g, trunk.fused, t_bins, censored),
        "surv_hist": surv_mod.build_nll_loss(g, trunk.mix_h, t_bins, censored),
        "surv_gen": surv_mod.build_nll_loss(g, trunk.mix_g, t_bins, censored),
    }
    if lam > 0.0:
        _, terms["recon_g"] = recon_mod.build_recon_genomic(
            g, p.recon_g, p.positions.table, trunk.slots_g, target=bag_g)
        _, terms["recon_h"], _ = recon_mod.build_recon_histology(
            g, p.recon_h, p.qmap, bag_h, trunk.slots_h, mask=mask_h)
        s_cross = recon_mod.build_cross_modal_encode(
            g, p.slots_g, bag_h, t_iters, mask=mask_h)
        _, terms["recon_cross"] = recon_mod.build_recon_genomic(
            g, p.recon_cross, p.positions.table, s_cross, target=bag_g)
    return terms


@dataclass(frozen=True)
class CohortGraph:
    """A batch of patients in one graph sharing one parameter binding."""

    graph: Graph
    loss: Node                  # 0-d batch-mean total
    terms: dict                 # term name -> (B,) node, one entry per patient
    trunk: TrunkNodes

    def term_values(self):
        """Per-patient term values as floats (missing terms read 0)."""
        values = {k: v.value for k, v in self.terms.items()}
        return [{k: float(v[b]) for k, v in values.items()}
                for b in range(self.trunk.fused.shape[0])]

    def report(self, lam: float):
        return surv_mod.total_loss(self.term_values(), lam=lam)


def _pad_bags(bags) -> tuple:
    """Stack ragged (M_i, d) bags into a zero-padded (B, M, d) array, M the
    longest bag, and the (B, M) instance mask of the real rows."""
    longest = max(b.shape[0] for b in bags)
    out = np.zeros((len(bags), longest, bags[0].shape[1]),
                   dtype=np.result_type(*bags))
    mask = np.zeros((len(bags), longest))
    for i, bag in enumerate(bags):
        out[i, :bag.shape[0]] = bag
        mask[i, :bag.shape[0]] = 1.0
    return out, mask


def build_cohort_loss(params: ModelParams, patients, k_h: int, k_g: int,
                      temperature: float, t_iters: int, l_iters: int,
                      lam: float, rng=None,
                      selective: bool = True) -> CohortGraph:
    """One graph holding every patient of a batch, at the precision of
    ``params``.

    ``patients`` is a sequence of (bag_h, bag_g, t_bin, censored) tuples of
    raw arrays/ints.  With an ``rng`` the batch runs in training mode: its
    slot-init and Gumbel noise are drawn from it (``draw_noise``).  With
    ``rng=None`` it runs in inference mode, the trunk serving runs.
    Histology bags are zero-padded to the longest one, and an instance
    mask keeps the padding out of every result, so each patient's terms
    match a batch of one up to rounding.  The graph's node count does not
    depend on the batch size.  The batch loss is the mean over patients of

        surv_fused + surv_hist + surv_gen + lam * (recon terms),

    which matches the component accounting of survival.total_loss.
    """
    if not patients:
        raise ValueError("empty patient batch")
    bags_h, bags_g, t_bins, censored = zip(*patients)
    bag_h, mask_h = _pad_bags([np.asarray(b) for b in bags_h])
    noise = None if rng is None else draw_noise(rng, len(patients), params,
                                                selective)
    g = Graph(dtype=params.slots_h.init_mean.dtype)
    p = _bind_model(g, params, TRAINABLE_GROUPS)
    xh = g.const(bag_h)
    xg = g.const(np.stack([np.asarray(b) for b in bags_g]))
    trunk = build_patient_trunk(
        g, p, xh, xg, k_h, k_g, temperature, t_iters, l_iters,
        noise=noise, selective=selective, mask_h=mask_h)
    terms = build_patient_losses(g, p, trunk, xh, xg, t_bins, censored,
                                 lam, t_iters, mask_h=mask_h)
    total = g.add(g.add(terms["surv_fused"], terms["surv_hist"]),
                  terms["surv_gen"])
    if lam > 0.0:
        rec = g.add(g.add(terms["recon_g"], terms["recon_h"]),
                    terms["recon_cross"])
        total = g.add(total, g.scale(rec, lam))
    loss = g.scale(g.reshape(g.sum(total, 0), ()), 1.0 / len(patients))
    return CohortGraph(graph=g, loss=loss, terms=terms, trunk=trunk)


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
                    selective: bool = True) -> PatientOutput:
    """Inference pass: the trunk of a batch of one, with deterministic slot
    init and noise-free top-K selection.  Only the trunk's groups are
    bound (``TRUNK_GROUPS``); the reconstruction heads are never touched.
    The graph runs at the parameters' precision, and each ``GateMask``
    reports the selection the trunk made."""
    g = Graph(dtype=params.slots_h.init_mean.dtype)
    p = _bind_model(g, params, TRUNK_GROUPS)
    trunk = build_patient_trunk(
        g, p, g.const(np.asarray(bag_h)[None]), g.const(np.asarray(bag_g)[None]),
        k_h, k_g, temperature, t_iters, l_iters, selective=selective)

    def gate_mask(scores, selected):
        hard = np.zeros(scores.shape[1])
        hard[selected[0]] = 1.0
        return moe_mod.GateMask(hard=hard, scores=scores.value[0, :, 0].copy())

    def slot_set(slots):
        # a batch of one is unpadded: its map has no padded columns
        return slot_mod.SlotSet(slots=slots.value[0].copy(),
                                attention=g.slot_attention(slots)[0].copy())

    return PatientOutput(
        curve=surv_mod.hazards_from_logits(trunk.fused.value[0, 0]),
        curve_h=surv_mod.hazards_from_logits(trunk.mix_h.value[0, 0]),
        curve_g=surv_mod.hazards_from_logits(trunk.mix_g.value[0, 0]),
        slots_h=slot_set(trunk.slots_h),
        slots_g=slot_set(trunk.slots_g),
        mask_h=gate_mask(trunk.scores_h, trunk.selected_h),
        mask_g=gate_mask(trunk.scores_g, trunk.selected_g),
        weights_h=trunk.weights_h.value[0, 0].copy(),
        weights_g=trunk.weights_g.value[0, 0].copy(),
    )
