"""Full-model composition: parameter bookkeeping, the batched loss graph,
gradient reach per parameter tensor, and the deterministic inference facade."""

import numpy as np
import pytest

from slotsurv import autodiff, model
from slotsurv.autodiff import backward, finite_diff_check
from slotsurv.model import (
    FROZEN_GROUPS,
    PARAM_GROUPS,
    TRAINABLE_GROUPS,
    build_cohort_loss,
    cast_params,
    draw_noise,
    group_of,
    init_model,
    named_parameters,
    params_from_arrays,
    patient_forward,
    trainable_names,
)

from oracles import out_of_place_acc


DIM, S_H, S_G, M_GEN, N_BINS = 8, 4, 4, 6, 3


def _params(seed=0):
    return init_model(np.random.default_rng(seed), dim=DIM, n_slots_h=S_H,
                      n_slots_g=S_G, m_gen=M_GEN, n_bins=N_BINS)


def _patients(seed=0, n=4):
    rng = np.random.default_rng(seed + 77)
    return [(rng.normal(size=(8, DIM)), rng.normal(size=(M_GEN, DIM)),
             1 + i % N_BINS, i % 2) for i in range(n)]


def _cohort(seed=0, lam=0.1, **kw):
    return build_cohort_loss(cast_params(_params(seed), np.float64),
                             _patients(seed), k_h=2, k_g=2,
                             temperature=0.01, t_iters=2, l_iters=2, lam=lam,
                             rng=np.random.default_rng(seed + 1000), **kw)


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


def test_loss_matches_component_accounting():
    cg = _cohort(seed=5, lam=0.1)
    report = cg.report(lam=0.1)
    assert float(cg.loss.value) == pytest.approx(report.total, abs=1e-12)
    # every patient contributes all six terms when lam > 0
    for terms in cg.term_values():
        assert set(terms) == {"surv_fused", "surv_hist", "surv_gen",
                              "recon_g", "recon_h", "recon_cross"}


def test_lam_zero_skips_reconstruction_terms():
    cg = _cohort(seed=5, lam=0.0)
    for terms in cg.term_values():
        assert set(terms) == {"surv_fused", "surv_hist", "surv_gen"}
    report = cg.report(lam=0.0)
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


def test_frozen_query_map_outside_gradient():
    cg = _cohort(seed=5, lam=0.1)
    grads = backward(cg.graph, cg.loss)
    assert not any(k.startswith("qmap.") for k in grads)
    assert not any(k.startswith("qmap.") for k in cg.graph.input_names())


def test_reconstruction_stays_out_of_the_prediction_trunk():
    cg = _cohort(seed=5, lam=0.1)
    upstream = cg.graph.ancestors(cg.trunk.fused)
    for name, idx in cg.graph._inputs.items():
        if group_of(name) in ("recon_g", "recon_h", "recon_cross",
                              "positions"):
            assert idx not in upstream


def test_selected_indices_are_k_hot():
    cg = _cohort(seed=5)
    trunk = cg.trunk
    for b in range(len(_patients(5))):
        assert len(trunk.selected_h[b]) == 2
        assert len(trunk.selected_g[b]) == 2
        # weights live only on the selected slots and sum to one
        w = trunk.weights_g.value[b, 0]
        assert np.allclose(w.sum(), 1.0, atol=1e-9)
        off = np.setdiff1d(np.arange(S_G), trunk.selected_g[b])
        assert np.all(w[off] == 0.0)


def test_non_selective_ablation_keeps_every_slot():
    cg = _cohort(seed=5, selective=False)
    trunk = cg.trunk
    for b in range(len(_patients(5))):
        assert np.array_equal(trunk.selected_h[b], np.arange(S_H))
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
            draw_noise(rng, b, params, selective=True)
        one = build_cohort_loss(params, [patient], rng=rng, **kw)
        (want,) = one.term_values()
        assert set(terms[b]) == set(want)
        for name, value in want.items():
            assert terms[b][name] == pytest.approx(value, abs=tol), name
        np.testing.assert_allclose(batch.trunk.fused.value[b],
                                   one.trunk.fused.value[0], rtol=0, atol=tol)


def test_node_count_does_not_grow_with_batch_size():
    def nodes(n):
        patients = _ragged_patients(4, sizes=(4, 8, 6, 5, 8, 3)[:n])
        return build_cohort_loss(
            _params(4), patients, k_h=2, k_g=2, temperature=0.01, t_iters=2,
            l_iters=2, lam=0.1, rng=np.random.default_rng(0)).graph.num_nodes
    assert nodes(2) == nodes(6)


def test_batch_draws_noise_patient_by_patient():
    """Per patient, in order: slot-init noise h, slot-init noise g, Gumbel
    noise h, Gumbel noise g."""
    params = _params(6)
    for selective in (True, False):
        used = np.random.default_rng(12)
        build_cohort_loss(params, _patients(6), k_h=2, k_g=2,
                          temperature=0.01, t_iters=2, l_iters=2, lam=0.1,
                          rng=used, selective=selective)
        manual = np.random.default_rng(12)
        for _ in _patients(6):
            manual.standard_normal((S_H, DIM))
            manual.standard_normal((S_G, DIM))
            if selective:
                manual.gumbel(size=(1, S_H))
                manual.gumbel(size=(1, S_G))
        assert used.bit_generator.state == manual.bit_generator.state


def test_full_model_gradients_on_padded_ragged_batch():
    """Finite differences through every stage of a padded ragged batch,
    reconstruction heads and stochastic slot init included (selection off:
    the straight-through mask is not a derivative of its forward value)."""
    params = _perturbed(init_model(np.random.default_rng(8), dim=4,
                                   n_slots_h=2, n_slots_g=2, m_gen=3,
                                   n_bins=2), 8)
    rng = np.random.default_rng(9)
    patients = [(rng.normal(size=(m, 4)), rng.normal(size=(3, 4)), 1 + i % 2,
                 i % 2) for i, m in enumerate((2, 5, 3))]
    cg = build_cohort_loss(params, patients, k_h=1, k_g=1, temperature=0.5,
                           t_iters=2, l_iters=1, lam=0.5,
                           rng=np.random.default_rng(10), selective=False)
    wrt = ["slots_h.w_k", "slots_h.init_log_std", "slots_g.gru_wz",
           "slots_g.ln_in_gamma", "gate_h.w", "pred_g.w2", "self_h.w_q",
           "cross.w_v", "risk.w1", "recon_h.w_q", "recon_g.ffn_w1",
           "recon_cross.w_k", "positions.table"]
    assert finite_diff_check(cg.graph, cg.loss, step=1e-3, wrt=wrt) < 1e-6


def test_constants_receive_no_adjoint_and_change_no_gradient(monkeypatch):
    """Backward computes no adjoint for a constant: bags, instance mask,
    noise, reconstruction targets, hard gate masks.  Declaring every one of
    them an input leaf instead, so its adjoint is computed, leaves every
    parameter gradient of a float64 batch bitwise the same."""
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
    model._bind_model(g, p)
    monkeypatch.undo()
    assert g.input_names() == trainable_names(p)
    assert checks == [sum(a.size for n, a in named_parameters(p).items()
                          if group_of(n) not in FROZEN_GROUPS)]
    arrays = named_parameters(p)
    arrays["risk.b1"] = np.full_like(arrays["risk.b1"], np.inf)
    with pytest.raises(autodiff.GraphError, match="'risk.b1'"):
        model._bind_model(autodiff.Graph(), params_from_arrays(arrays))


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
    # with selection off every slot is kept, and the mask says K = S
    full = patient_forward(p, bag_h, bag_g, k_h=2, k_g=2, temperature=0.01,
                           t_iters=2, l_iters=2, selective=False)
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


@pytest.mark.parametrize("selective", [True, False])
def test_served_gate_masks_report_the_trunks_selection(selective):
    """Serving reports the selection and scores of the inference trunk,
    the one the batched graph builds without an rng."""
    p = _params(12)
    patient = _patients(12)[0]
    out = patient_forward(p, *patient[:2], k_h=2, k_g=2, temperature=0.01,
                          t_iters=2, l_iters=2, selective=selective)
    trunk = build_cohort_loss(p, [patient], k_h=2, k_g=2, temperature=0.01,
                              t_iters=2, l_iters=2, lam=0.0, rng=None,
                              selective=selective).trunk
    for mask, selected, scores in (
            (out.mask_h, trunk.selected_h, trunk.scores_h),
            (out.mask_g, trunk.selected_g, trunk.scores_g)):
        np.testing.assert_array_equal(mask.selected, selected[0])
        np.testing.assert_array_equal(mask.scores, scores.value[0, :, 0])
