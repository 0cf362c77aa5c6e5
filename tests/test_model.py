"""Full-model composition: parameter bookkeeping, the batched loss graph,
gradient reach per parameter tensor, and the deterministic inference facade."""

import dataclasses

import numpy as np
import pytest

from slotsurv import autodiff, model
from slotsurv import recon as recon_mod
from slotsurv import slots as slot_mod
from slotsurv.autodiff import backward, bind_arrays
from slotsurv.data import FeatureBag
from slotsurv.model import (
    FROZEN_GROUPS,
    PARAM_GROUPS,
    RECON_GROUPS,
    TRAINABLE_GROUPS,
    TRUNK_GROUPS,
    build_cohort_loss,
    cast_params,
    draw_noise,
    init_model,
    named_parameters,
    params_from_arrays,
    patient_forward,
    trainable_names,
)

from slotsurv.survival import total_loss
from slotsurv.train import TrainConfig, k_from_fraction

from fd import ancestors, finite_diff_check, input_names
from oracles import (
    exact_build_encode,
    group_of,
    out_of_place_acc,
    owning_buffers,
    saved_arrays,
)


DIM, S_H, S_G, M_GEN, N_BINS = 8, 4, 4, 6, 3


def _params(seed=0):
    return init_model(np.random.default_rng(seed), dim=DIM, n_slots_h=S_H,
                      n_slots_g=S_G, m_gen=M_GEN, n_bins=N_BINS)


def _patients(seed=0, n=4):
    rng = np.random.default_rng(seed + 77)
    return [(rng.normal(size=(8, DIM)), rng.normal(size=(M_GEN, DIM)),
             1 + i % N_BINS, i % 2) for i in range(n)]


def _cohort(seed=0, lam=0.1, k=2):
    return build_cohort_loss(cast_params(_params(seed), np.float64),
                             _patients(seed), k_h=k, k_g=k,
                             temperature=0.01, t_iters=2, l_iters=2, lam=lam,
                             rng=np.random.default_rng(seed + 1000))


# ------------------------------------------------------------- parameter trees


def test_group_registry_covers_dataclass():
    assert set(PARAM_GROUPS) == set(TRAINABLE_GROUPS) | set(FROZEN_GROUPS)
    assert "qmap" in FROZEN_GROUPS and "qmap" not in TRAINABLE_GROUPS


def test_named_parameters_cover_every_group():
    flat = named_parameters(_params())
    assert set(group_of(k) for k in flat) == set(PARAM_GROUPS)
    # frozen tensors are present (checkpoints restore them) but untrainable
    assert any(k.startswith("qmap.") for k in flat)
    train = trainable_names(_params())
    assert not any(k.startswith("qmap.") for k in train)
    assert set(train) == {k for k in flat if not k.startswith("qmap.")}


def test_params_round_trip_bitwise():
    p = _params(3)
    flat = named_parameters(p)
    q = params_from_arrays(flat)
    for k, v in named_parameters(q).items():
        assert np.array_equal(v, flat[k])


def test_params_from_arrays_rejects_missing_tensor():
    flat = named_parameters(_params())
    flat.pop("risk.w1")
    with pytest.raises(KeyError):
        params_from_arrays(flat)


def test_params_from_arrays_rejects_unknown_tensor():
    flat = named_parameters(_params())
    flat["gate_h.b"] = np.zeros((1, 1), dtype=np.float32)
    with pytest.raises(KeyError, match="gate_h.b"):
        params_from_arrays(flat)


def test_cast_params_changes_dtype_only():
    p = _params(1)
    q = cast_params(p, np.float64)
    for k, v in named_parameters(q).items():
        assert v.dtype == np.float64
        assert np.allclose(v, named_parameters(p)[k])


def test_init_model_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        init_model(np.random.default_rng(0), dim=0, n_slots_h=4,
                   n_slots_g=4, m_gen=6, n_bins=3)


# ---------------------------------------------------------------- cohort graph


def _report(cg, lam):
    """The batch's per-patient terms under survival.total_loss."""
    return total_loss(cg.term_values(), lam=lam)


def test_loss_matches_component_accounting():
    cg = _cohort(seed=5, lam=0.1)
    report = _report(cg, lam=0.1)
    assert float(cg.loss.value) == pytest.approx(report.total, abs=1e-12)
    # every patient contributes all six terms when lam > 0
    for terms in cg.term_values():
        assert set(terms) == {"surv_fused", "surv_hist", "surv_gen",
                              "recon_g", "recon_h", "recon_cross"}


def test_lam_zero_skips_reconstruction_terms():
    cg = _cohort(seed=5, lam=0.0)
    for terms in cg.term_values():
        assert set(terms) == {"surv_fused", "surv_hist", "surv_gen"}
    report = _report(cg, lam=0.0)
    assert float(cg.loss.value) == pytest.approx(report.total, abs=1e-12)


def test_every_trainable_tensor_receives_gradient():
    """Every trainable tensor can change the loss.  On a float64 ragged
    batch with the parameters moved off init, each tensor's largest |grad|
    reaches 1e-12 of the largest over all tensors; a tensor whose effect a
    softmax or a top-K cancels gets only rounding noise, far below that.
    The gate runs at temperature 1: at 0.01 its relaxed weights saturate,
    and the gate weights' gradients can underflow whatever their role."""
    params = _perturbed(_params(5), 5)
    cg = build_cohort_loss(params, _ragged_patients(5), k_h=2, k_g=2,
                           temperature=1.0, t_iters=2, l_iters=2, lam=0.1,
                           rng=np.random.default_rng(1005))
    grads = backward(cg.graph, cg.loss)
    assert list(grads) == trainable_names(params)
    assert {group_of(name) for name in grads} == set(TRAINABLE_GROUPS)
    peak = {name: float(np.abs(g).max()) for name, g in grads.items()}
    floor = 1e-12 * max(peak.values())
    dead = sorted(name for name, v in peak.items() if v < floor)
    assert not dead, f"tensors without gradient: {dead}"


def test_gate_gradients_stay_bounded_whatever_the_draw():
    """The Gumbel draw can select slots whose softmax weights over all
    slots underflow next to an unselected slot's.  The weights are a
    softmax over the selected slots alone, so no draw makes a gradient
    blow up: over 30 seeds of float64 batches at temperature 0.01, every
    trainable tensor's largest |grad| stays below 100."""
    for seed in range(30):
        cg = _cohort(seed)
        grads = backward(cg.graph, cg.loss)
        peak = max(float(np.abs(g).max()) for g in grads.values())
        assert peak < 100.0, (seed, peak)


def test_frozen_query_map_outside_gradient():
    cg = _cohort(seed=5, lam=0.1)
    grads = backward(cg.graph, cg.loss)
    assert not any(k.startswith("qmap.") for k in grads)
    assert not any(k.startswith("qmap.") for k in input_names(cg.graph))


def test_reconstruction_stays_out_of_the_prediction_trunk():
    cg = _cohort(seed=5, lam=0.1)
    upstream = ancestors(cg.graph, cg.trunk.fused)
    for name, idx in cg.graph._inputs.items():
        if group_of(name) in ("recon_g", "recon_h", "recon_cross",
                              "positions"):
            assert idx not in upstream


def test_selections_are_k_hot():
    cg = _cohort(seed=5)
    trunk = cg.trunk
    assert trunk.hot_h.shape == (len(_patients(5)), 1, S_H)
    assert trunk.hot_g.shape == (len(_patients(5)), 1, S_G)
    for b in range(len(_patients(5))):
        for hot in (trunk.hot_h[b, 0], trunk.hot_g[b, 0]):
            assert np.isin(hot, (0.0, 1.0)).all() and hot.sum() == 2
        # weights live only on the selected slots and sum to one
        w = trunk.weights_g.value[b, 0]
        assert np.allclose(w.sum(), 1.0, atol=1e-9)
        assert np.all(w[trunk.hot_g[b, 0] == 0.0] == 0.0)


def test_full_k_fraction_keeps_every_slot():
    """``k_fraction = 1.0``, the keep-every-slot ablation, is K = S."""
    assert k_from_fraction(1.0, S_H) == S_H == S_G
    cg = _cohort(seed=5, k=S_H)
    trunk = cg.trunk
    for b in range(len(_patients(5))):
        assert np.array_equal(trunk.hot_h[b, 0], np.ones(S_H))
        w = trunk.weights_h.value[b, 0]
        assert np.all(w > 0.0) and np.allclose(w.sum(), 1.0, atol=1e-9)


def _perturbed(params, seed, dtype=np.float64):
    """Parameters with every tensor moved off its init, so that zero biases
    and unit gains cannot hide padded rows."""
    rng = np.random.default_rng(seed)
    return params_from_arrays({
        k: (v + 0.2 * rng.normal(size=v.shape)).astype(dtype)
        for k, v in named_parameters(params).items()})


def _ragged_patients(seed=0, sizes=(5, 9, 3, 7, 9)):
    rng = np.random.default_rng(seed + 99)
    return [(rng.normal(size=(m, DIM)), rng.normal(size=(M_GEN, DIM)),
             1 + i % N_BINS, i % 2) for i, m in enumerate(sizes)]


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12),
                                        (np.float32, 1e-5)])
@pytest.mark.parametrize("training", [True, False])
def test_padded_batch_matches_batches_of_one(dtype, tol, training):
    """Each patient's six terms and fused logits from a ragged batch equal
    its own batch of one, drawing the same noise: padding does not leak."""
    params = _perturbed(_params(3), 3, dtype)
    patients = _ragged_patients(3)
    kw = dict(k_h=2, k_g=2, temperature=0.01, t_iters=2, l_iters=2, lam=0.1)
    batch = build_cohort_loss(
        params, patients, rng=np.random.default_rng(7) if training else None,
        **kw)
    terms = batch.term_values()
    for b, patient in enumerate(patients):
        rng = np.random.default_rng(7) if training else None
        if training and b:  # skip the draws of the patients before b
            draw_noise(rng, b, params, kw["k_h"], kw["k_g"])
        one = build_cohort_loss(params, [patient], rng=rng, **kw)
        (want,) = one.term_values()
        assert set(terms[b]) == set(want)
        for name, value in want.items():
            assert terms[b][name] == pytest.approx(value, abs=tol), name
        np.testing.assert_allclose(batch.trunk.fused.value[b],
                                   one.trunk.fused.value[0], rtol=0, atol=tol)


def test_the_histology_head_reads_its_own_rows_under_their_own_mask(
        monkeypatch):
    """With ``rows_h`` the histology head reads those rows, padded with
    an instance mask of their own that marks only the real rows, in a
    batch that mixes bags under and over the rows' count: each patient's
    histology term is its batch of one with the same rows, and every
    other term is the batch's without ``rows_h``, drawing the same
    noise.  Given the bags themselves, the head's term is unchanged."""
    params = _perturbed(_params(5), 5)
    patients = _ragged_patients(5, sizes=(5, 9, 3, 7, 9))
    rows_h = [bag[::2][:4] for bag, *_ in patients]       # 3, 4, 2, 4, 4
    kw = dict(k_h=2, k_g=2, temperature=0.01, t_iters=2, l_iters=2, lam=0.1)
    masks = []
    cosine = recon_mod.build_cosine_loss
    monkeypatch.setattr(recon_mod, "build_cosine_loss", lambda g, r, t, m:
                        masks.append(np.asarray(m)) or cosine(g, r, t, m))
    whole = build_cohort_loss(params, patients, rng=np.random.default_rng(8),
                              **kw).term_values()
    drawn = build_cohort_loss(params, patients, rng=np.random.default_rng(8),
                              rows_h=rows_h, **kw)
    np.testing.assert_array_equal(masks[-1], [
        [1, 1, 1, 0], [1, 1, 1, 1], [1, 1, 0, 0], [1, 1, 1, 1], [1, 1, 1, 1]])
    assert drawn.graph._ops.count("decode") == 3
    for b, terms in enumerate(drawn.term_values()):
        for name, value in terms.items():
            if name != "recon_h":
                assert value == whole[b][name], name
        rng = np.random.default_rng(8)
        if b:
            draw_noise(rng, b, params, kw["k_h"], kw["k_g"])
        (one,) = build_cohort_loss(params, [patients[b]], rng=rng,
                                   rows_h=[rows_h[b]], **kw).term_values()
        assert terms["recon_h"] == pytest.approx(one["recon_h"], abs=1e-12)
        assert terms["recon_h"] != pytest.approx(whole[b]["recon_h"])
    same = build_cohort_loss(params, patients, rng=np.random.default_rng(8),
                             rows_h=[bag for bag, *_ in patients], **kw)
    for b, terms in enumerate(same.term_values()):
        assert terms["recon_h"] == pytest.approx(whole[b]["recon_h"],
                                                 abs=1e-12)


def test_node_count_does_not_grow_with_batch_size():
    def nodes(n):
        patients = _ragged_patients(4, sizes=(4, 8, 6, 5, 8, 3)[:n])
        return build_cohort_loss(
            _params(4), patients, k_h=2, k_g=2, temperature=0.01, t_iters=2,
            l_iters=2, lam=0.1, rng=np.random.default_rng(0)).graph.num_nodes
    assert nodes(2) == nodes(6)


def test_batch_draws_noise_patient_by_patient():
    """Per patient, in order: slot-init noise h, slot-init noise g, Gumbel
    noise h, Gumbel noise g.  Both Gumbel rows are drawn when some gate
    keeps K < S slots, and none when both keep K = S."""
    params = _params(6)
    for k_h, k_g in ((2, 2), (2, S_G), (S_H, 2), (S_H, S_G)):
        gumbel = k_h < S_H or k_g < S_G
        used = np.random.default_rng(12)
        build_cohort_loss(params, _patients(6), k_h=k_h, k_g=k_g,
                          temperature=0.01, t_iters=2, l_iters=2, lam=0.1,
                          rng=used)
        manual = np.random.default_rng(12)
        for _ in _patients(6):
            manual.standard_normal((S_H, DIM))
            manual.standard_normal((S_G, DIM))
            if gumbel:
                manual.gumbel(size=(1, S_H))
                manual.gumbel(size=(1, S_G))
        assert used.bit_generator.state == manual.bit_generator.state
        noise = draw_noise(np.random.default_rng(12), 2, params, k_h, k_g)
        for rows in (noise.gumbel_h, noise.gumbel_g):
            assert (rows is not None) == gumbel


def test_full_model_gradients_on_padded_ragged_batch(monkeypatch):
    """Finite differences through every stage of a padded ragged batch,
    reconstruction heads and stochastic slot init included (K = S, so
    that the gate reaches the loss through its weights, where at K = 1
    the one weight is constant).  At T = 2 a slot_encode node's gradient
    is first-order, so the three slot encoders run as the exact per-op
    chain here, whose gradient is the true one."""
    monkeypatch.setattr(slot_mod, "build_encode", exact_build_encode)
    params = _perturbed(init_model(np.random.default_rng(8), dim=4,
                                   n_slots_h=2, n_slots_g=2, m_gen=3,
                                   n_bins=2), 8)
    rng = np.random.default_rng(9)
    patients = [(rng.normal(size=(m, 4)), rng.normal(size=(3, 4)), 1 + i % 2,
                 i % 2) for i, m in enumerate((2, 5, 3))]
    cg = build_cohort_loss(params, patients, k_h=2, k_g=2, temperature=0.5,
                           t_iters=2, l_iters=1, lam=0.5,
                           rng=np.random.default_rng(10))
    wrt = ["slots_h.w_k", "slots_h.init_log_std", "slots_g.gru_wz",
           "slots_g.ln_in_gamma", "gate_h.w", "pred_g.w2", "self_h.w_q",
           "cross.w_v", "risk.w1", "recon_h.w_q", "recon_g.ffn_w1",
           "recon_cross.w_k", "positions.table"]
    assert "slot_encode" not in cg.graph._ops
    assert finite_diff_check(cg.graph, cg.loss, step=1e-3, wrt=wrt) < 1e-6


def test_constants_receive_no_adjoint_and_change_no_gradient(monkeypatch):
    """Backward computes no adjoint for a constant: bags, instance mask,
    noise, reconstruction targets, hard gate masks.  Declaring every one of
    them an input leaf instead, so its adjoint is computed, leaves every
    parameter gradient of a float64 batch bitwise the same.  A slot
    encoder's bag stays data (``slot_encode`` refuses a bag that needs an
    adjoint): it reads a constant copy of the bag's input leaf, which the
    reconstruction targets and queries still read."""
    params = _perturbed(_params(5), 5)
    patients = _ragged_patients(5)

    def gradients():
        cg = build_cohort_loss(params, patients, k_h=2, k_g=2,
                               temperature=0.01, t_iters=2, l_iters=2,
                               lam=0.1, rng=np.random.default_rng(11))
        return cg.graph, backward(cg.graph, cg.loss)

    graph, with_consts = gradients()

    class ConstantsAsInputs(model.Graph):
        def const(self, value):
            return self.input(f"const.{self.num_nodes}", value)

        def slot_encode(self, bag, *rest):
            return super().slot_encode(super().const(bag.value), *rest)

    monkeypatch.setattr(model, "Graph", ConstantsAsInputs)
    _, with_inputs = gradients()
    assert "const" in graph._ops
    assert any(np.any(v != 0) for k, v in with_inputs.items()
               if k.startswith("const."))
    for name in trainable_names(params):
        np.testing.assert_array_equal(with_consts[name], with_inputs[name],
                                      err_msg=name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_accumulation_gives_the_out_of_place_gradients(
        monkeypatch, dtype):
    """Backward adds a node's third and later adjoint contributions in place;
    on a ragged batch with reconstruction terms every parameter gradient is
    bitwise the one that allocating every sum gives."""
    params = _perturbed(_params(6), 6, dtype)
    patients = _ragged_patients(6)

    def gradients():
        cg = build_cohort_loss(params, patients, k_h=2, k_g=2,
                               temperature=0.01, t_iters=3, l_iters=2,
                               lam=0.1, rng=np.random.default_rng(12))
        return backward(cg.graph, cg.loss)

    in_place = []
    real_acc = autodiff._acc

    def counting_acc(grads, idx, delta):
        in_place.append(grads[idx] is not None and idx in grads.owned)
        real_acc(grads, idx, delta)

    with monkeypatch.context() as patch:
        patch.setattr(autodiff, "_acc", counting_acc)
        got = gradients()
    with monkeypatch.context() as patch:
        patch.setattr(autodiff, "_acc", out_of_place_acc)
        want = gradients()
    assert sum(in_place) > 10
    assert set(got) == set(want)
    for name, grad in want.items():
        assert grad.dtype == got[name].dtype == dtype, name
        assert grad.tobytes() == got[name].tobytes(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loss_graph_runs_at_the_parameters_precision(dtype):
    """The parameters' dtype sets the graph's precision: every loss term,
    the fused logits, the batch loss and every gradient come out in it."""
    params = cast_params(_params(5), dtype)
    cg = build_cohort_loss(params, _ragged_patients(5), k_h=2, k_g=2,
                           temperature=0.01, t_iters=2, l_iters=2, lam=0.1,
                           rng=np.random.default_rng(3))
    assert cg.graph.dtype == dtype
    assert cg.loss.value.dtype == cg.trunk.fused.value.dtype == dtype
    for name, node in cg.terms.items():
        assert node.value.dtype == dtype, name
    grads = backward(cg.graph, cg.loss)
    assert list(grads) == trainable_names(params)
    for name, grad in grads.items():
        assert grad.dtype == dtype, name


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        build_cohort_loss(_params(), [], k_h=2, k_g=2, temperature=0.01,
                          t_iters=2, l_iters=2, lam=0.1)


# ------------------------------------------------------------------- inference


def test_patient_forward_is_deterministic():
    p = _params(9)
    bag_h, bag_g, _, _ = _patients(9)[0]
    a = patient_forward(p, bag_h, bag_g, k_h=2, k_g=2, temperature=0.01,
                        t_iters=2, l_iters=2)
    b = patient_forward(p, bag_h, bag_g, k_h=2, k_g=2, temperature=0.01,
                        t_iters=2, l_iters=2)
    assert a.risk == b.risk
    assert np.array_equal(a.curve.h, b.curve.h)
    assert np.array_equal(a.slots_h.slots, b.slots_h.slots)
    assert np.array_equal(a.weights_g, b.weights_g)


def _groups(params, names) -> dict:
    return {name: getattr(params, name) for name in names}


def test_binding_checks_parameters_once_and_names_a_bad_one(monkeypatch):
    """The trainable tensors are bound as inputs in ``trainable_names``
    order with one finite check over all of them; a non-finite tensor
    still fails naming itself."""
    p = _params(9)
    g = autodiff.Graph()
    checks = []
    real = np.isfinite
    monkeypatch.setattr(autodiff.np, "isfinite",
                        lambda x: checks.append(x.size) or real(x))
    bind_arrays(g, _groups(p, TRAINABLE_GROUPS))
    monkeypatch.undo()
    assert input_names(g) == trainable_names(p)
    assert checks == [sum(a.size for n, a in named_parameters(p).items()
                          if group_of(n) not in FROZEN_GROUPS)]
    arrays = named_parameters(p)
    arrays["risk.b1"] = np.full_like(arrays["risk.b1"], np.inf)
    with pytest.raises(autodiff.GraphError, match="'risk.b1'"):
        bind_arrays(autodiff.Graph(),
                    _groups(params_from_arrays(arrays), TRAINABLE_GROUPS))


def test_serving_names_a_non_finite_trunk_tensor():
    """A served patient binds the trunk's many groups in one call, whose
    check names the one bad entry of the cross-attention's query weight;
    a reconstruction head, which serving never binds, is not checked."""
    bag_h, bag_g, _, _ = _patients(9)[0]

    def serve(name):
        arrays = named_parameters(_params(9))
        arrays[name] = arrays[name].copy()
        arrays[name][1, 2] = np.nan
        return patient_forward(params_from_arrays(arrays), bag_h, bag_g,
                               k_h=2, k_g=2, temperature=0.01, t_iters=2,
                               l_iters=2)

    with pytest.raises(autodiff.GraphError, match="input 'cross.w_q'"):
        serve("cross.w_q")
    assert np.isfinite(serve("recon_g.w_q").risk)


def test_patient_forward_shapes_and_masks():
    p = _params(9)
    bag_h, bag_g, _, _ = _patients(9)[0]
    out = patient_forward(p, bag_h, bag_g, k_h=2, k_g=2, temperature=0.01,
                          t_iters=2, l_iters=2)
    assert out.curve.h.shape == (N_BINS,)
    assert out.curve_h.h.shape == (N_BINS,)
    assert out.curve_g.h.shape == (N_BINS,)
    assert out.slots_h.slots.shape == (S_H, DIM)
    assert out.slots_g.slots.shape == (S_G, DIM)
    assert out.mask_h.hard.sum() == 2 and out.mask_g.hard.sum() == 2
    assert np.isfinite(out.risk)
    # inference selection is the noise-free top-K of the gate scores
    top = np.argsort(out.mask_g.scores)[::-1][:2]
    assert set(np.flatnonzero(out.mask_g.hard)) == set(top)
    # at K = S every slot is kept, and the mask says so
    full = patient_forward(p, bag_h, bag_g, k_h=S_H, k_g=S_G,
                           temperature=0.01, t_iters=2, l_iters=2)
    for mask, s in ((full.mask_h, S_H), (full.mask_g, S_G)):
        assert mask.hard.sum() == s


def test_inference_risk_matches_training_trunk_in_inference_mode():
    """The batched graph in inference mode and the facade agree exactly,
    at the precision of the parameters."""
    from slotsurv.survival import hazards_from_logits
    bag_h, bag_g, t_bin, censored = _patients(11)[0]
    for dtype in (np.float32, np.float64):
        p = cast_params(_params(11), dtype)
        cg = build_cohort_loss(p, [(bag_h, bag_g, t_bin, censored)], k_h=2,
                               k_g=2, temperature=0.01, t_iters=2, l_iters=2,
                               lam=0.0)
        out = patient_forward(p, bag_h, bag_g, k_h=2, k_g=2,
                              temperature=0.01, t_iters=2, l_iters=2)
        assert out.slots_h.slots.dtype == dtype
        ref = hazards_from_logits(cg.trunk.fused.value[0, 0])
        np.testing.assert_allclose(out.curve.h, ref.h, rtol=0, atol=1e-12)
        assert out.risk == pytest.approx(ref.risk, abs=1e-12)


@pytest.mark.parametrize("k", [2, S_H])
def test_served_gate_masks_report_the_trunks_selection(k):
    """Serving reports the selection and scores of the inference trunk,
    the one the batched graph builds without an rng, at K < S and K = S."""
    p = _params(12)
    patient = _patients(12)[0]
    out = patient_forward(p, *patient[:2], k_h=k, k_g=k, temperature=0.01,
                          t_iters=2, l_iters=2)
    trunk = build_cohort_loss(p, [patient], k_h=k, k_g=k, temperature=0.01,
                              t_iters=2, l_iters=2, lam=0.0, rng=None).trunk
    for mask, hot, scores in (
            (out.mask_h, trunk.hot_h, trunk.scores_h),
            (out.mask_g, trunk.hot_g, trunk.scores_g)):
        assert mask.hard.dtype == np.float64
        np.testing.assert_array_equal(mask.hard, hot[0, 0])
        np.testing.assert_array_equal(mask.scores, scores.value[0, :, 0])


# ------------------------------------------------------------- graph sizes


def _recorded_graphs(monkeypatch):
    """Every graph ``model`` builds from now on, in build order."""
    graphs = []

    class Recording(autodiff.Graph):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            graphs.append(self)

    monkeypatch.setattr(model, "Graph", Recording)
    return graphs


def test_served_patient_binds_the_trunk_only(monkeypatch):
    """At the reference iteration counts a served patient is one graph of
    123 nodes, 84 of them parameter leaves: the trunk's groups, without
    the reconstruction heads and their position table, and without the
    two encoders' ``init_log_std``, which only training's slot noise
    reads.  Each slot encoder is one slot_encode node, and the L
    cross-attention rounds one cross_attend node."""
    cfg = TrainConfig()
    graphs = _recorded_graphs(monkeypatch)
    patient_forward(_params(9), *_patients(9)[0][:2], k_h=2, k_g=2,
                    temperature=0.01, t_iters=cfg.t_iters,
                    l_iters=cfg.l_iters)
    (g,) = graphs
    assert g.num_nodes == 123
    assert g._ops.count("input") == len(input_names(g)) == 84
    assert {group_of(n) for n in input_names(g)} == set(TRUNK_GROUPS)
    assert not any(n.endswith(".init_log_std") for n in input_names(g))
    assert set(TRUNK_GROUPS) | set(RECON_GROUPS) == set(TRAINABLE_GROUPS)
    assert g._ops.count("self_attend") == 2
    assert g._ops.count("slot_encode") == 2
    assert g._ops.count("cross_attend") == 1


def test_training_step_graph_size(monkeypatch):
    """A training batch at the reference iteration counts is one graph of
    240 nodes that binds every trainable tensor; each of its three slot
    encoders is one slot_encode node, each of its three reconstruction
    heads one decode node, and its L cross-attention rounds one
    cross_attend node.  Rows of its own for the histology head add one
    node."""
    cfg = TrainConfig()
    cg = build_cohort_loss(_params(4), _patients(4), k_h=2, k_g=2,
                           temperature=0.01, t_iters=cfg.t_iters,
                           l_iters=cfg.l_iters, lam=cfg.lam,
                           rng=np.random.default_rng(0))
    assert cg.graph.num_nodes == 240
    assert cg.graph._ops.count("slot_encode") == 3
    assert cg.graph._ops.count("cross_attend") == 1
    assert cg.graph._ops.count("decode") == 3
    assert input_names(cg.graph) == trainable_names(_params(4))
    drawn = build_cohort_loss(_params(4), _patients(4), k_h=2, k_g=2,
                              temperature=0.01, t_iters=cfg.t_iters,
                              l_iters=cfg.l_iters, lam=cfg.lam,
                              rng=np.random.default_rng(0),
                              rows_h=[p[0][:3] for p in _patients(4)])
    assert drawn.graph.num_nodes == 241
    assert drawn.graph._ops.count("decode") == 3


def _unread(graph) -> set:
    """The nodes of ``graph`` that no node takes as a parent."""
    read = {p for parents in graph._parents for p in parents}
    return set(range(graph.num_nodes)) - read


def test_every_node_is_read_but_the_outputs(monkeypatch):
    """At the reference ``TrainConfig`` every node of a training batch's
    graph but the loss feeds another node; so does every node of a served
    patient's graph but its three logit outputs, and every node of the two
    imputation graphs, the cross-modal encode (22 nodes) and the genomic
    decode, but their outputs: a selection, an instance mask or a tensor
    bound as a leaf that no one reads fails here."""
    cfg = TrainConfig()
    cg = build_cohort_loss(_params(4), _patients(4), k_h=2, k_g=2,
                           temperature=0.01, t_iters=cfg.t_iters,
                           l_iters=cfg.l_iters, lam=cfg.lam,
                           rng=np.random.default_rng(0))
    assert _unread(cg.graph) == {cg.loss.idx}
    graphs, trunks = _recorded_graphs(monkeypatch), []
    build_trunk = model.build_patient_trunk
    monkeypatch.setattr(model, "build_patient_trunk", lambda *a, **kw:
                        trunks.append(build_trunk(*a, **kw)) or trunks[-1])
    patient_forward(_params(9), *_patients(9)[0][:2], k_h=2, k_g=2,
                    temperature=0.01, t_iters=cfg.t_iters,
                    l_iters=cfg.l_iters)
    (g,), (trunk,) = graphs, trunks
    assert _unread(g) == {trunk.fused.idx, trunk.mix_h.idx, trunk.mix_g.idx}
    graphs.clear()
    monkeypatch.setattr(recon_mod, "Graph", model.Graph)
    p = _params(9)
    recon_mod.impute_genomic(
        FeatureBag(modality="histology", matrix=_patients(9)[0][0]),
        p.slots_g, p.positions, p.recon_cross, cfg.t_iters, steps_trained=1)
    encode, decode = graphs
    assert encode.num_nodes == 22
    for g, op in ((encode, "slot_encode"), (decode, "decode")):
        assert _unread(g) == {g.num_nodes - 1}
        assert g._ops[-1] == op


def test_padded_batch_graph_holds_ten_bag_sized_arrays_and_three_maps():
    """Over every node's value and saved intermediates, a padded training
    batch's graph holds ten distinct buffers the size of the histology bag,
    (B, M, d): the bag, the keys and the values of each of the two slot
    encoders that read it, the histology head's queries, and the decode
    node's output, q, MLP input rows and hidden layer.  It holds three
    with a row per bag row and a column per histology slot: the last
    attention map of each of those encoders and the head's attention.  A
    bag-sized array or a map kept by mistake in any node fails here.  Of
    the buffers with a row per slot of each set (both modalities have
    S_H slots) and d or 2d entries per row, it holds exactly 38: 9 the
    three slot encoders' (the last iteration's input slots and alpha @
    values, and the output, each: the earlier iterations keep nothing,
    whatever T is), 9 the cross_attend node's (for each of the L = 2
    rounds its input rows [h; g], the values of those rows and each set's
    k^T, and its output), 6 the three decode nodes' (k^T and v each) and
    14 the values of other nodes.  A slot-sized intermediate kept by
    mistake in any node fails here."""
    sizes = (301, 256, 180)
    patients = _ragged_patients(6, sizes=sizes)
    cg = build_cohort_loss(_params(6), patients, k_h=2, k_g=2,
                           temperature=0.5, t_iters=3, l_iters=2, lam=0.1,
                           rng=np.random.default_rng(6))
    g = cg.graph
    rows = len(sizes) * max(sizes)              # B * M
    arrays = [g._values[i] for i in range(g.num_nodes)]
    arrays += [a for sv in g._saved if sv is not None
               for a in saved_arrays(sv)]
    per_row = [b.size // rows for b in owning_buffers(arrays)
               if b.size % rows == 0]
    assert DIM != S_H
    assert per_row.count(DIM) == 10
    assert per_row.count(S_H) == 3
    assert S_G == S_H
    slot_rows = len(sizes) * S_H                # B * S
    per_slot_row = [b.size // slot_rows for b in owning_buffers(arrays)
                    if b.size % slot_rows == 0]
    assert per_slot_row.count(DIM) + per_slot_row.count(2 * DIM) == 38


def test_padded_training_trunk_holds_no_array_with_a_bag_row_axis():
    """A padded training batch's trunk holds its nodes and K-hot
    selections, none with a row per bag row: each encoder's last attention
    map stays in its slot_encode node, which ``Graph.slot_attention``
    reads."""
    sizes = (301, 256, 180)
    cg = build_cohort_loss(_params(6), _ragged_patients(6, sizes=sizes),
                           k_h=2, k_g=2, temperature=0.5, t_iters=3,
                           l_iters=2, lam=0.1, rng=np.random.default_rng(6))
    for field in dataclasses.fields(cg.trunk):
        held = getattr(cg.trunk, field.name)
        shape = held.shape if isinstance(held, autodiff.Node) else \
            np.shape(held)
        assert max(sizes) not in shape, field.name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_served_patient_ignores_every_reconstruction_tensor(dtype):
    """Moving every reconstruction head and the position table leaves a
    prediction with genomics bitwise the same, every output included."""
    params = cast_params(_params(13), dtype)
    arrays = named_parameters(params)
    rng = np.random.default_rng(14)
    moved = params_from_arrays({
        name: (arr * 3.0 + rng.normal(size=arr.shape)).astype(dtype)
        if group_of(name) in RECON_GROUPS else arr
        for name, arr in arrays.items()})
    bag_h, bag_g, _, _ = _patients(13)[0]
    kw = dict(k_h=2, k_g=2, temperature=0.01, t_iters=2, l_iters=2)
    a = patient_forward(params, bag_h, bag_g, **kw)
    b = patient_forward(moved, bag_h, bag_g, **kw)
    assert any(not np.array_equal(arrays[n], named_parameters(moved)[n])
               for n in arrays if group_of(n) in RECON_GROUPS)
    for x, y in ((a.curve.h, b.curve.h), (a.curve_h.h, b.curve_h.h),
                 (a.curve_g.h, b.curve_g.h), (a.slots_h.slots, b.slots_h.slots),
                 (a.slots_g.slots, b.slots_g.slots),
                 (a.slots_h.attention, b.slots_h.attention),
                 (a.weights_h, b.weights_h), (a.weights_g, b.weights_g),
                 (a.mask_h.scores, b.mask_h.scores),
                 (a.mask_g.hard, b.mask_g.hard)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert a.risk == b.risk
