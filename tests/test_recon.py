"""Reconstruction heads: losses, the frozen query map, cross-modal
encoding and genomic imputation."""

import dataclasses

import numpy as np
import pytest

from slotsurv.autodiff import Graph, GraphError, backward, bind_arrays
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

from fd import finite_diff_check
from oracles import (
    bind_consts,
    owning_buffers,
    reduce_sum,
    saved_arrays,
    unfused_decode,
)


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


def _genomic_loss(f, target) -> float:
    """The genomic reconstruction's mean squared error against ``target``,
    from the builder a training batch runs."""
    g = Graph(dtype=f["head"].w_q.dtype)
    _, loss = build_recon_genomic(
        g, bind_consts(g, f["head"]), g.const(f["positions"].table),
        g.const(f["slots"]), g.const(target))
    return float(loss.value)


def test_perfect_reconstruction_has_zero_loss():
    f = _fixtures()
    x_hat = reconstruct_genomic(f["slots"], f["positions"], f["head"])
    assert _genomic_loss(f, x_hat) == 0.0


def test_unit_offset_costs_exactly_one():
    f = _fixtures()
    x_hat = reconstruct_genomic(f["slots"], f["positions"], f["head"])
    assert _genomic_loss(f, x_hat + 1.0) == pytest.approx(1.0, abs=1e-6)


def test_position_count_mismatch_rejected():
    f = _fixtures()
    with pytest.raises(ValueError):
        _genomic_loss(f, np.zeros((7, 5)))


def test_facades_name_a_non_finite_parameter():
    """Each numpy facade binds its parameter group in one call, whose
    check names the bad tensor."""
    f = _fixtures()
    head = dataclasses.replace(f["head"], ffn_b1=np.full((1, 5), np.nan))
    with pytest.raises(GraphError, match="input 'head.ffn_b1'"):
        reconstruct_genomic(f["slots"], f["positions"], head)
    params = dataclasses.replace(
        f["genomic_params"],
        init_mean=np.full_like(f["genomic_params"].init_mean, np.inf))
    bag = FeatureBag("histology", np.ones((6, 5), dtype=np.float32))
    with pytest.raises(GraphError, match="input 'p.init_mean'"):
        cross_modal_encode(bag, params, t_iters=1)


def test_query_width_mismatch_rejected():
    g = Graph()
    head = bind_consts(g, _fixtures()["head"])
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
    head = bind_consts(g, f["head"])
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
        p = bind_consts(g, params)
        build_cross_modal_encode(g, p, g.const(rng.normal(size=(m, 5))), 2)
        counts[m] = g.total_madds()
    assert counts[256] - counts[128] == 2 * (counts[128] - counts[64])


def test_cross_path_reduces_to_genomic_recon_on_same_slots():
    f = _fixtures()
    bag = FeatureBag("histology",
                     f["rng"].normal(size=(10, 5)).astype(np.float32))
    sset = cross_modal_encode(bag, f["genomic_params"], t_iters=2)
    direct = reconstruct_genomic(sset.slots, f["positions"], f["head"])
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
    slots = build_cross_modal_encode(g, params, bag, t_iters=2)
    target = g.const(rng.normal(size=(4, 5)))
    _, loss = build_recon_genomic(g, head, positions, slots, target)
    assert finite_diff_check(g, loss) < 1e-4


# ---------------------------------------------------- fused decode vs. chain


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


# (queries, slots) shapes: unbatched, the position table shared by a batch
# of slot sets, and per-patient queries (the histology head)
_DECODE_CASES = {"single": ((7, 5), (3, 5)),
                 "shared": ((7, 5), (2, 3, 5)),
                 "per_patient": ((2, 7, 5), (2, 3, 5))}


def _decode_both(dtype, build, case):
    """One loss over a decode, built through ``build``, with every head
    tensor, the queries and the slots as inputs; returns (value,
    gradients, graph)."""
    q_shape, s_shape = _DECODE_CASES[case]
    rng = np.random.default_rng(51)
    head = init_recon_head(rng, 5)
    # move the head off init so every tensor's gradient is generic
    head = type(head)(**{f: v + 0.3 * rng.normal(size=v.shape)
                         for f, v in vars(head).items()})
    g = Graph(dtype=dtype)
    h = bind_arrays(g, "head", head)
    out = build(g, h, g.input("queries", rng.normal(size=q_shape)),
                g.input("slots", rng.normal(size=s_shape)))
    loss = g.squared_error(out, g.const(rng.normal(size=out.shape)))
    if loss.value.ndim:
        loss = reduce_sum(g, loss)
    return out.value, backward(g, loss), g


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(_DECODE_CASES))
def test_decode_is_bitwise_the_unfused_chain(dtype, case):
    """The value and every gradient of one decode node match the per-op
    chain of 16 nodes bit for bit: the queries (summed over the batch
    when shared), the slots and all thirteen head tensors.  The node
    counts the chain's multiply-adds."""
    fused = _decode_both(dtype, build_decode, case)
    chain = _decode_both(dtype, unfused_decode, case)
    assert _bits(fused[0]) == _bits(chain[0])
    assert set(fused[1]) == set(chain[1])
    for name in chain[1]:
        assert _bits(fused[1][name]) == _bits(chain[1][name]), name
    assert fused[2]._ops.count("decode") == 1
    assert "decode" not in chain[2]._ops
    assert chain[2].num_nodes - fused[2].num_nodes == 15
    assert fused[2].total_madds() == chain[2].total_madds()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_decode_keeps_the_chains_order_for_a_shared_position_table(dtype):
    """Two heads decode at the same position table, as the genomic and the
    cross-modal heads of a training batch do, so its adjoint sums four
    contributions; each decode hands over its two one by one, the
    residual's before the layer norm's, as the chain does."""
    rng = np.random.default_rng(52)
    heads = [init_recon_head(rng, 5) for _ in range(2)]
    table = rng.normal(size=(4, 5))
    slot_sets = [rng.normal(size=(2, 3, 5)) for _ in range(2)]
    target = rng.normal(size=(2, 4, 5))

    def grads(build):
        g = Graph(dtype=dtype)
        positions = g.input("positions", table)
        losses = [reduce_sum(g, g.squared_error(
            build(g, bind_arrays(g, f"head{k}", head), positions,
                  g.input(f"slots{k}", slots)), g.const(target)))
            for k, (head, slots) in enumerate(zip(heads, slot_sets))]
        return backward(g, g.add(*losses))

    fused, chain = grads(build_decode), grads(unfused_decode)
    assert set(fused) == set(chain)
    for name in chain:
        assert _bits(fused[name]) == _bits(chain[name]), name


def test_decode_node_holds_five_bag_row_arrays():
    """A padded batch's histology decode node holds at most five arrays
    with a row per bag row, its value included: the output, q, the
    attention, the MLP input's normalized rows and the MLP's hidden layer.
    Of the (B, S, d) arrays it holds two, k^T and v.  The adjoint forms
    the normalized rows of the queries and of the slots, and the slots'
    layer norm's output, again from the queries, the slots and their
    inverse deviations and row means.  Everything else it holds (per-row
    and per-slot vectors) is smaller than one more bag-sized array.  An
    intermediate with a row per bag row or per slot kept by mistake fails
    here."""
    n, m, dim, n_slots = 2, 512, 8, 3
    rng = np.random.default_rng(53)
    g = Graph()
    head = bind_arrays(g, "head", init_recon_head(rng, dim))
    mask = np.ones((n, m))
    mask[1, 300:] = 0.0
    bag = rng.normal(size=(n, m, dim)) * mask[..., None]
    build_recon_histology(g, head, init_query_map(rng, dim), g.const(bag),
                          g.input("slots", rng.normal(size=(n, n_slots, dim))),
                          mask=mask)
    assert g._ops.count("decode") == 1
    node = g._ops.index("decode")
    buffers = owning_buffers([g._values[node],
                              *saved_arrays(g._saved[node])])
    sizes = [b.size for b in buffers]
    bag_size, attn_size = n * m * dim, n * m * n_slots
    assert sizes.count(bag_size) + sizes.count(attn_size) <= 5
    assert sizes.count(n * n_slots * dim) == 2
    rest = sum(b.nbytes for b in buffers
               if b.size not in (bag_size, attn_size))
    assert rest < bag_size * np.dtype(np.float32).itemsize
