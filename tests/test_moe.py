"""Selective slot decoding: gate scores, Gumbel-Top-K masks,
renormalized mixture weights, straight-through gradients."""

import csv

import numpy as np
import pytest

from slotsurv.autodiff import Graph, backward, bind_arrays
from slotsurv.moe import (
    GateMask,
    GateParams,
    PredictorParams,
    build_gate_scores,
    build_gated_mixture,
    build_gumbel_mask,
    build_renormalized_weights,
    build_slot_logits,
    init_gate_params,
    init_predictor_params,
    write_gate_csv,
)

from fd import finite_diff_check
from oracles import (
    bind_consts,
    decode,
    gate_scores,
    gated_mixture,
    gumbel_topk_mask,
    reduce_sum,
    renormalize_weights,
    slot_logits,
)


def _zero_gate(dim):
    return GateParams(w=np.zeros((dim, 1)))


def _zero_predictor(dim, n_bins):
    return PredictorParams(w1=np.zeros((dim, dim)), b1=np.zeros((1, dim)),
                           w2=np.zeros((dim, n_bins)),
                           b2=np.zeros((1, n_bins)))


# ------------------------------------------------------------------- gating


def test_zero_gate_gives_zero_scores():
    slots = np.random.default_rng(0).normal(size=(5, 3))
    assert np.array_equal(gate_scores(slots, _zero_gate(3)), np.zeros(5))


def test_identical_slots_get_identical_scores():
    rng = np.random.default_rng(1)
    gate = init_gate_params(rng, 4)
    row = rng.normal(size=4)
    slots = np.stack([row, rng.normal(size=4), row])
    r = gate_scores(slots, gate)
    assert r[0] == r[2]
    assert r[0] != r[1]


# ---------------------------------------------------------------- selection


def test_inference_topk_golden():
    mask = gumbel_topk_mask(np.array([3.0, 1.0, 2.0]), k=2, temperature=1.0,
                            training=False)
    assert np.array_equal(mask.hard, [1.0, 0.0, 1.0])
    assert np.array_equal(mask.selected, [0, 2])


def test_full_selection_is_all_ones_regardless_of_noise():
    rng = np.random.default_rng(2)
    for _ in range(20):
        mask = gumbel_topk_mask(rng.normal(size=6), k=6, temperature=1.0,
                                rng=rng, training=True)
        assert np.array_equal(mask.hard, np.ones(6))


def test_k_out_of_range_rejected():
    r = np.zeros(4)
    for bad in (0, 5, -1):
        with pytest.raises(ValueError):
            gumbel_topk_mask(r, k=bad, temperature=1.0, training=False)


def test_nonpositive_temperature_rejected():
    with pytest.raises(ValueError):
        gumbel_topk_mask(np.zeros(3), k=1, temperature=0.0, training=False)


def test_training_mode_requires_rng():
    with pytest.raises(ValueError):
        gumbel_topk_mask(np.zeros(3), k=1, temperature=1.0, training=True)


def test_inference_is_deterministic():
    rng = np.random.default_rng(3)
    slots = rng.normal(size=(6, 4))
    gate = init_gate_params(rng, 4)
    pred = init_predictor_params(rng, 4, 3)
    first, mask_a = decode(slots, gate, pred, k=2, training=False)
    second, mask_b = decode(slots, gate, pred, k=2, training=False)
    assert np.array_equal(mask_a.hard, mask_b.hard)
    assert np.array_equal(first.weights, second.weights)
    assert np.array_equal(first.mixture, second.mixture)


def test_training_draws_vary_with_the_stream():
    r = np.array([0.3, 0.1, -0.2, 0.0])
    hards = {tuple(gumbel_topk_mask(r, 1, 1.0, np.random.default_rng(s),
                                    training=True).hard)
             for s in range(40)}
    assert len(hards) > 1


def test_masks_are_exactly_k_hot():
    rng = np.random.default_rng(4)
    r = rng.normal(size=6)
    for _ in range(10_000):
        mask = gumbel_topk_mask(r, k=2, temperature=0.01, rng=rng,
                                training=True)
        assert np.isin(mask.hard, (0.0, 1.0)).all()
        assert mask.hard.sum() == 2.0
        assert mask.soft.sum() == pytest.approx(1.0, abs=1e-9)
        assert (mask.soft >= 0.0).all()


def test_selection_frequency_golden():
    # K=1 Gumbel-max sampling selects slot 0 of r=[1,0] with probability
    # e/(1+e); the draw count makes the Monte-Carlo error ~< 0.004
    rng = np.random.default_rng(5)
    r = np.array([1.0, 0.0])
    hits = 0
    n = 100_000
    for _ in range(n):
        hits += gumbel_topk_mask(r, 1, 1.0, rng, training=True).hard[0]
    expected = np.e / (1.0 + np.e)
    assert abs(hits / n - expected) < 0.01


def test_selection_frequencies_match_softmax():
    rng = np.random.default_rng(6)
    r = rng.normal(size=4)
    probs = np.exp(r - r.max())
    probs /= probs.sum()
    n = 100_000
    counts = np.zeros(4)
    for _ in range(n):
        counts += gumbel_topk_mask(r, 1, 0.5, rng, training=True).hard
    freq = counts / n
    se = np.sqrt(probs * (1.0 - probs) / n)
    assert (np.abs(freq - probs) <= 3.0 * se).all()


# ------------------------------------------------------------- renormalizing


def test_renormalized_weights_golden():
    mask = gumbel_topk_mask(np.array([3.0, 1.0, 2.0]), 2, 1.0, training=False)
    w = renormalize_weights(np.array([3.0, 1.0, 2.0]), mask, temperature=1.0)
    np.testing.assert_allclose(w, [0.7311, 0.0, 0.2689], atol=1e-4)
    np.testing.assert_allclose(
        w, [np.e / (1 + np.e), 0.0, 1.0 / (1 + np.e)], atol=1e-12)


def test_single_selected_slot_gets_weight_one():
    r = np.array([0.2, 1.4, -0.7])
    mask = gumbel_topk_mask(r, 1, 1.0, training=False)
    assert np.array_equal(renormalize_weights(r, mask, 1.0), [0.0, 1.0, 0.0])


def test_uniform_scores_split_weight_evenly():
    r = np.zeros(8)
    mask = GateMask(hard=np.array([1, 0, 1, 0, 0, 1, 0, 0], dtype=float),
                    scores=r)
    w = renormalize_weights(r, mask, 1.0)
    np.testing.assert_allclose(w[mask.hard > 0], 1.0 / 3.0, atol=1e-12)
    assert (w[mask.hard == 0] == 0.0).all()


def test_all_zero_mask_rejected():
    r = np.array([1.0, 2.0])
    mask = GateMask(hard=np.zeros(2), scores=r)
    with pytest.raises(ValueError):
        renormalize_weights(r, mask, 1.0)
    g = Graph()
    with pytest.raises(ValueError):
        build_renormalized_weights(g, g.const(r[:, None]),
                                   g.const(np.zeros((1, 2))), 1.0)


def test_weight_invariants_hold_for_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(50):
        s = int(rng.integers(1, 9))
        r = rng.normal(size=s) * 2.0
        k = int(rng.integers(1, s + 1))
        mask = gumbel_topk_mask(r, k, 0.5, rng, training=True)
        w = renormalize_weights(r, mask, 0.5)
        assert (w >= 0.0).all()
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert (w[mask.hard == 0.0] == 0.0).all()


def test_extreme_score_gaps_stay_finite():
    # selected slots far below the score maximum: the softmax mass of the
    # whole selected set underflows, which must not produce NaNs
    r = np.array([100.0, 0.0, -1.0])
    mask = GateMask(hard=np.array([0.0, 1.0, 1.0]), scores=r)
    w = renormalize_weights(r, mask, 0.01)
    assert np.isfinite(w).all()
    np.testing.assert_allclose(w, [0.0, 1.0, 0.0], atol=1e-12)


# -------------------------------------------------------------- logit mixing


def test_zero_predictor_gives_zero_logits():
    slots = np.random.default_rng(8).normal(size=(5, 3))
    assert np.array_equal(slot_logits(slots, _zero_predictor(3, 4)),
                          np.zeros((5, 4)))


def test_identical_slots_get_identical_logit_rows():
    rng = np.random.default_rng(9)
    pred = init_predictor_params(rng, 4, 3)
    row = rng.normal(size=4)
    logits = slot_logits(np.stack([row, rng.normal(size=4), row]), pred)
    assert np.array_equal(logits[0], logits[2])


@pytest.mark.parametrize("n_slots", [1, 3, 7])
def test_logit_shape_contract(n_slots):
    rng = np.random.default_rng(10)
    pred = init_predictor_params(rng, 5, 4)
    assert slot_logits(rng.normal(size=(n_slots, 5)), pred).shape == \
        (n_slots, 4)


def test_one_hot_mixture_selects_a_row():
    logits = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(gated_mixture(np.array([0.0, 1.0, 0.0]), logits),
                          logits[1])


def test_uniform_mixture_averages_rows():
    logits = np.array([[1.0, 1.0, 1.0, 1.0], [3.0, 3.0, 3.0, 3.0]])
    assert np.array_equal(gated_mixture(np.array([0.5, 0.5]), logits),
                          [2.0, 2.0, 2.0, 2.0])


def test_mixture_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        gated_mixture(np.ones(3) / 3.0, np.zeros((2, 4)))


# --------------------------------------------------- graph builders & gradients


def _graph_moe(seed, temperature, training, k=2, dtype=np.float64,
               slot_scale=1.0):
    rng = np.random.default_rng(seed)
    g = Graph(dtype=dtype)
    slots = g.input("slots", rng.normal(size=(4, 5)) * slot_scale)
    gate = bind_arrays(g, "gate", init_gate_params(rng, 5))
    pred = bind_arrays(g, "pred", init_predictor_params(rng, 5, 3))
    r = build_gate_scores(g, gate, slots)
    noise = np.random.default_rng(seed + 1).gumbel(size=(1, 4))
    mask, soft = build_gumbel_mask(g, r, k, temperature,
                                   noise=noise if training else None)
    w = build_renormalized_weights(g, r, mask, temperature)
    y = build_gated_mixture(g, w, build_slot_logits(g, pred, slots))
    loss = reduce_sum(g, g.mul(y, g.const(rng.normal(size=(1, 3)))))
    return g, loss, r, mask, soft, w


def test_graph_matches_numpy_reference():
    rng = np.random.default_rng(11)
    slots_val = rng.normal(size=(5, 4))
    gate = init_gate_params(rng, 4)
    pred = init_predictor_params(rng, 4, 3)

    g = Graph(dtype=np.float64)
    slots = g.const(slots_val)
    gp = bind_consts(g, gate)
    pp = bind_consts(g, pred)
    r = build_gate_scores(g, gp, slots)
    mask, soft = build_gumbel_mask(
        g, r, 2, 0.7, noise=np.random.default_rng(99).gumbel(size=(1, 5)))
    w = build_renormalized_weights(g, r, mask, 0.7)
    y = build_gated_mixture(g, w, build_slot_logits(g, pp, slots))

    ref_r = gate_scores(slots_val, gate)
    ref_mask = gumbel_topk_mask(ref_r, 2, 0.7, np.random.default_rng(99),
                                training=True)
    np.testing.assert_allclose(r.value[:, 0], ref_r, atol=1e-12)
    assert np.array_equal(mask.value[0], ref_mask.hard)
    np.testing.assert_allclose(soft.value[0], ref_mask.soft, atol=1e-12)
    np.testing.assert_allclose(
        w.value[0], renormalize_weights(ref_r, ref_mask, 0.7), atol=1e-12)
    np.testing.assert_allclose(
        y.value[0],
        gated_mixture(w.value[0], slot_logits(slots_val, pred)), atol=1e-12)


def test_straight_through_forward_is_exactly_k_hot():
    mask = _graph_moe(12, temperature=0.7, training=True)[3]
    assert np.isin(mask.value, (0.0, 1.0)).all()
    assert mask.value.sum() == 2.0


def test_straight_through_backward_equals_soft_path():
    scores = np.array([[0.8], [-0.2], [0.4], [0.1]])
    coeff = np.random.default_rng(13).normal(size=(4, 1))
    grads = {}
    for variant in ("hard", "soft"):
        g = Graph(dtype=np.float64)
        r = g.input("r", scores)
        mask, soft = build_gumbel_mask(
            g, r, 2, 0.7, noise=np.random.default_rng(55).gumbel(size=(1, 4)))
        carrier = mask if variant == "hard" else soft
        grads[variant] = backward(g, g.matmul(carrier, g.const(coeff)))["r"]
    np.testing.assert_allclose(grads["hard"], grads["soft"],
                               rtol=0.0, atol=1e-12)


def test_gradients_through_gate_and_mixture():
    # inference-mode mask (a constant): every differentiable path — gate
    # affine, renormalizing softmax, per-slot MLP, mixture — is audited
    g, loss, *_ = _graph_moe(14, temperature=1.0, training=False)
    assert finite_diff_check(g, loss) < 1e-4


def test_gradients_with_straight_through_selection():
    # training-mode composed check at the operating temperature: the
    # replayed mask is constant, so agreement with finite differences
    # relies on the softmax paths being saturated.  The slot scale makes
    # score gaps tens of temperature units wide, as in trained gates;
    # with near-tied scores the straight-through estimator is biased and
    # this agreement deliberately does not hold.
    g, loss, *_ = _graph_moe(15, temperature=0.01, training=True,
                             slot_scale=4.0)
    assert finite_diff_check(g, loss) < 1e-6


def test_gumbel_mask_rejects_bad_shapes_and_ranges():
    g = Graph()
    wide = g.const(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        build_gumbel_mask(g, wide, 1, 1.0)
    col = g.const(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        build_gumbel_mask(g, col, 4, 1.0)
    with pytest.raises(ValueError):
        build_gumbel_mask(g, col, 1, -1.0)
    with pytest.raises(ValueError):
        build_renormalized_weights(g, col, g.const(np.ones((1, 4))), 1.0)
    with pytest.raises(ValueError):
        build_gated_mixture(g, g.const(np.ones((1, 3))),
                            g.const(np.zeros((4, 2))))


# ------------------------------------------------------------------- exports


def test_gate_csv_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    slots = rng.normal(size=(5, 4))
    gate = init_gate_params(rng, 4)
    pred = init_predictor_params(rng, 4, 3)
    mix, mask = decode(slots, gate, pred, k=2, training=False)
    path = tmp_path / "gates.csv"
    write_gate_csv(mask, mix.weights, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["slot_index", "r", "selected", "w"]
    assert len(rows) == 6
    selected = [int(row[2]) for row in rows[1:]]
    assert sum(selected) == 2
    for idx, row in enumerate(rows[1:]):
        assert int(row[0]) == idx
        assert float(row[1]) == pytest.approx(mask.scores[idx], abs=1e-5)
        assert float(row[3]) == pytest.approx(mix.weights[idx], abs=1e-5)
