"""Reconstruction heads: losses, the frozen query map, cross-modal
encoding and genomic imputation."""

import numpy as np
import pytest

from slotsurv.autodiff import Graph, backward, bind_arrays, finite_diff_check
from slotsurv.data import FeatureBag
from slotsurv.recon import (
    build_cosine_loss,
    build_cross_modal_encode,
    build_decode,
    build_recon_genomic,
    build_recon_histology,
    cross_modal_encode,
    impute_genomic,
    init_position_table,
    init_query_map,
    init_recon_head,
    reconstruct_genomic,
)
from slotsurv.slots import init_slot_params


def _fixtures(seed=0, dim=5, n_slots=3, m_rows=4):
    rng = np.random.default_rng(seed)
    return {
        "rng": rng,
        "head": init_recon_head(rng, dim),
        "positions": init_position_table(rng, m_rows, dim),
        "qmap": init_query_map(rng, dim),
        "slots": rng.normal(size=(n_slots, dim)).astype(np.float32),
        "genomic_params": init_slot_params(rng, n_slots, dim),
    }


# --------------------------------------------------------------- mse recon


def test_perfect_reconstruction_has_zero_loss():
    f = _fixtures()
    x_hat, _ = reconstruct_genomic(f["slots"], f["positions"], f["head"])
    _, loss = reconstruct_genomic(f["slots"], f["positions"], f["head"],
                                  target=x_hat)
    assert loss == 0.0


def test_unit_offset_costs_exactly_one():
    f = _fixtures()
    x_hat, _ = reconstruct_genomic(f["slots"], f["positions"], f["head"])
    _, loss = reconstruct_genomic(f["slots"], f["positions"], f["head"],
                                  target=x_hat + 1.0)
    assert loss == pytest.approx(1.0, abs=1e-6)


def test_position_count_mismatch_rejected():
    f = _fixtures()
    with pytest.raises(ValueError):
        reconstruct_genomic(f["slots"], f["positions"], f["head"],
                            target=np.zeros((7, 5)))


def test_query_width_mismatch_rejected():
    g = Graph()
    head = bind_arrays(g, "head", _fixtures()["head"], trainable=False)
    with pytest.raises(ValueError):
        build_decode(g, head, g.const(np.zeros((4, 3))),
                     g.const(np.zeros((2, 5))))


def test_mse_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    g = Graph(dtype=np.float64)
    head = bind_arrays(g, "head", init_recon_head(rng, 5))
    positions = g.input("positions", rng.normal(size=(4, 5)))
    slots = g.input("slots", rng.normal(size=(3, 5)))
    target = g.const(rng.normal(size=(4, 5)))
    _, loss = build_recon_genomic(g, head, positions, slots, target)
    assert finite_diff_check(g, loss) < 1e-4


# ------------------------------------------------------------- cosine recon


def test_cosine_loss_is_scale_invariant():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 4))
    g = Graph(dtype=np.float64)
    loss, _ = build_cosine_loss(g, g.const(2.0 * x), g.const(x))
    assert abs(float(loss.value)) < 1e-12


def test_antipodal_reconstruction_costs_two():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 4))
    g = Graph(dtype=np.float64)
    loss, _ = build_cosine_loss(g, g.const(-x), g.const(x))
    assert float(loss.value) == pytest.approx(2.0, abs=1e-12)


def test_orthogonal_reconstruction_costs_one():
    x = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
    y = np.array([[0.0, 5.0], [4.0, 0.0], [0.0, 1.0]])
    g = Graph(dtype=np.float64)
    loss, _ = build_cosine_loss(g, g.const(x), g.const(y))
    assert float(loss.value) == pytest.approx(1.0, abs=1e-12)


def test_zero_norm_rows_are_flagged_not_fatal():
    x = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, -1.0]])
    y = np.ones((3, 2))
    g = Graph(dtype=np.float64)
    loss, cos = build_cosine_loss(g, g.const(x), g.const(y))
    assert np.array_equal(g.degenerate_rows(cos), [1])
    assert np.isfinite(float(loss.value))
    # the flagged row contributes cosine 0: mean over 3 rows of (1, 0, cos)
    expected = 1.0 - (1.0 + 0.0 + (2 - 1) / (np.sqrt(5) * np.sqrt(2))) / 3.0
    assert float(loss.value) == pytest.approx(expected, abs=1e-12)


def test_histology_reconstruction_end_to_end():
    f = _fixtures()
    bag = f["rng"].normal(size=(8, 5)).astype(np.float32)
    g = Graph(dtype=f["head"].w_q.dtype)
    head = bind_arrays(g, "head", f["head"], trainable=False)
    x_hat, loss, cos = build_recon_histology(g, head, f["qmap"], g.const(bag),
                                             g.const(f["slots"]))
    x_hat, loss, flagged = (x_hat.value, float(loss.value),
                            g.degenerate_rows(cos))
    assert x_hat.shape == (8, 5)
    assert 0.0 <= loss <= 2.0
    assert flagged.size == 0


def test_frozen_query_map_gets_no_gradient():
    rng = np.random.default_rng(4)
    g = Graph(dtype=np.float64)
    head = bind_arrays(g, "head", init_recon_head(rng, 5))
    qmap = init_query_map(rng, 5)
    bag = g.input("bag", rng.normal(size=(6, 5)))
    slots = g.input("slots", rng.normal(size=(3, 5)))
    _, loss, _ = build_recon_histology(g, head, qmap, bag, slots)
    grads = backward(g, loss)
    assert not any(name.startswith("qmap") for name in grads)
    assert {"bag", "slots"} <= set(grads)


def test_cosine_gradients_match_finite_differences():
    # seed chosen so no relu pre-activation sits within the stencil's
    # reach of zero (a kink inside +-2h corrupts the difference quotient
    # without any gradient being wrong)
    rng = np.random.default_rng(6)
    g = Graph(dtype=np.float64)
    head = bind_arrays(g, "head", init_recon_head(rng, 5))
    qmap = init_query_map(rng, 5)
    bag = g.input("bag", rng.normal(size=(6, 5)))
    slots = g.input("slots", rng.normal(size=(3, 5)))
    _, loss, _ = build_recon_histology(g, head, qmap, bag, slots)
    assert finite_diff_check(g, loss) < 1e-4


# ------------------------------------------------------------- cross-modal


def test_single_slot_summarizes_the_bag():
    rng = np.random.default_rng(6)
    params = init_slot_params(rng, 1, 5)
    bag = FeatureBag("histology", rng.normal(size=(9, 5)).astype(np.float32))
    sset = cross_modal_encode(bag, params, t_iters=2)
    assert sset.slots.shape == (1, 5)
    np.testing.assert_allclose(sset.attention, np.ones((1, 9)), atol=1e-6)


def test_cross_modal_encoding_ignores_patch_order():
    rng = np.random.default_rng(7)
    params = init_slot_params(rng, 3, 5)
    patches = rng.normal(size=(11, 5)).astype(np.float32)
    base = cross_modal_encode(FeatureBag("histology", patches), params, 2)
    perm = rng.permutation(11)
    shuffled = cross_modal_encode(
        FeatureBag("histology", patches[perm]), params, 2)
    np.testing.assert_allclose(shuffled.slots, base.slots, atol=1e-5)


def test_cross_modal_rejects_genomic_bags():
    rng = np.random.default_rng(8)
    params = init_slot_params(rng, 2, 5)
    bag = FeatureBag("genomic", rng.normal(size=(4, 5)).astype(np.float32))
    with pytest.raises(ValueError):
        cross_modal_encode(bag, params, 2)


def test_cross_modal_cost_is_linear_in_bag_size():
    rng = np.random.default_rng(9)
    params = init_slot_params(rng, 3, 5)
    counts = {}
    for m in (64, 128, 256):
        g = Graph()
        p = bind_arrays(g, "p", params, trainable=False)
        build_cross_modal_encode(g, p, g.const(rng.normal(size=(m, 5))), 2)
        counts[m] = g.total_madds()
    assert counts[256] - counts[128] == 2 * (counts[128] - counts[64])


def test_cross_path_reduces_to_genomic_recon_on_same_slots():
    f = _fixtures()
    bag = FeatureBag("histology",
                     f["rng"].normal(size=(10, 5)).astype(np.float32))
    sset = cross_modal_encode(bag, f["genomic_params"], t_iters=2)
    direct, _ = reconstruct_genomic(sset.slots, f["positions"], f["head"])
    imputed = impute_genomic(bag, f["genomic_params"], f["positions"],
                             f["head"], t_iters=2, steps_trained=1)
    np.testing.assert_array_equal(imputed.matrix,
                                  direct.astype(np.float32))


def test_imputed_bag_shape_and_determinism():
    f = _fixtures()
    bag = FeatureBag("histology",
                     f["rng"].normal(size=(7, 5)).astype(np.float32))
    first = impute_genomic(bag, f["genomic_params"], f["positions"],
                           f["head"], t_iters=3, steps_trained=5)
    second = impute_genomic(bag, f["genomic_params"], f["positions"],
                            f["head"], t_iters=3, steps_trained=5)
    assert first.modality == "genomic"
    assert first.matrix.shape == (4, 5)
    assert first.matrix.dtype == np.float32
    assert np.isfinite(first.matrix).all()
    np.testing.assert_array_equal(first.matrix, second.matrix)


def test_imputation_requires_training():
    f = _fixtures()
    bag = FeatureBag("histology",
                     f["rng"].normal(size=(7, 5)).astype(np.float32))
    with pytest.raises(ValueError):
        impute_genomic(bag, f["genomic_params"], f["positions"], f["head"],
                       t_iters=2, steps_trained=0)


def test_cross_modal_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    g = Graph(dtype=np.float64)
    params = bind_arrays(g, "enc", init_slot_params(rng, 3, 5))
    head = bind_arrays(g, "head", init_recon_head(rng, 5))
    positions = g.input("positions", rng.normal(size=(4, 5)))
    bag = g.input("bag", rng.normal(size=(6, 5)))
    slots, _ = build_cross_modal_encode(g, params, bag, t_iters=2)
    target = g.const(rng.normal(size=(4, 5)))
    _, loss = build_recon_genomic(g, head, positions, slots, target)
    assert finite_diff_check(g, loss) < 1e-4
