"""Slot interaction branches: masked self-attention pass-through,
iterative bidirectional cross-attention, pooled fusion, risk head."""

import numpy as np
import pytest

from slotsurv.autodiff import Graph, backward, bind_arrays
from slotsurv.fusion import (
    RiskHeadParams,
    build_iterative_cross_attention,
    build_masked_self_attention,
    build_pool_concat,
    build_risk_head,
    init_cross_params,
    init_risk_params,
    init_self_params,
)
from slotsurv.survival import hazards_from_logits

from fd import finite_diff_check, input_names
from oracles import (
    bind_consts,
    gumbel_topk_mask,
    k_hot,
    reduce_sum,
    unfused_cross_attention,
    unfused_self_attention,
)


def _run(build, params, *arrays, **kw):
    """``build(g, params, *arrays, **kw)`` on a fresh graph at the
    operands' precision, with the parameters (when given) and the arrays
    bound as constants; returns the output's value, or a tuple of them."""
    leaves = [*arrays, *(() if params is None else vars(params).values())]
    g = Graph(dtype=np.result_type(*leaves, np.float32))
    bound = () if params is None else (
        bind_consts(g, params),)
    out = build(g, *bound, *map(g.const, arrays), **kw)
    return tuple(n.value for n in out) if isinstance(out, tuple) else out.value


def _rows_softmax(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _f64(params):
    return type(params)(**{
        f: np.asarray(getattr(params, f), dtype=np.float64)
        for f in params.__dataclass_fields__})


def _self_reference(slots, p):
    """Plain (unmasked) self-attention block in numpy."""
    d = slots.shape[1]
    attn = _rows_softmax((slots @ p.w_q) @ (slots @ p.w_k).T / np.sqrt(d))
    s1 = slots + attn @ (slots @ p.w_v)
    hidden = np.maximum(s1 @ p.mlp_w1 + p.mlp_b1, 0.0)
    return s1 + hidden @ p.mlp_w2 + p.mlp_b2


def _gru_reference(x, h, p):
    def sig(a):
        return 1.0 / (1.0 + np.exp(-a))

    z = sig(x @ p.gru_wz + h @ p.gru_uz + p.gru_bz)
    r = sig(x @ p.gru_wr + h @ p.gru_ur + p.gru_br)
    n = np.tanh(x @ p.gru_wn + (r * h) @ p.gru_un + p.gru_bn)
    return z * h + (1.0 - z) * n


def _cross_reference(queries, context, p):
    d = queries.shape[1]
    attn = _rows_softmax(
        (queries @ p.w_q) @ (context @ p.w_k).T / np.sqrt(d))
    updated = _gru_reference(attn @ (context @ p.w_v), queries, p)
    hidden = np.maximum(updated @ p.mlp_w1 + p.mlp_b1, 0.0)
    return updated + hidden @ p.mlp_w2 + p.mlp_b2


# ------------------------------------------------------- masked self-attention


def test_singleton_selection_touches_only_that_slot():
    rng = np.random.default_rng(0)
    p64 = _f64(init_self_params(rng, 5))
    slots = rng.normal(size=(4, 5))
    g = Graph(dtype=np.float64)
    out = build_masked_self_attention(
        g, bind_consts(g, p64), g.const(slots), k_hot([2], 4))
    for row in (0, 1, 3):
        assert np.array_equal(out.value[row], slots[row])
    row = slots[2:3]
    s1 = row + row @ p64.w_v  # softmax over one key is exactly 1
    hidden = np.maximum(s1 @ p64.mlp_w1 + p64.mlp_b1, 0.0)
    np.testing.assert_allclose(out.value[2:3],
                               s1 + hidden @ p64.mlp_w2 + p64.mlp_b2,
                               atol=1e-12)


def test_full_selection_equals_plain_self_attention():
    rng = np.random.default_rng(1)
    p64 = _f64(init_self_params(rng, 5))
    slots = rng.normal(size=(6, 5))
    g = Graph(dtype=np.float64)
    out = build_masked_self_attention(
        g, bind_consts(g, p64), g.const(slots), np.ones((1, 6)))
    np.testing.assert_allclose(out.value, _self_reference(slots, p64),
                               atol=1e-12)


def test_unselected_rows_pass_through_bitwise():
    rng = np.random.default_rng(2)
    p = init_self_params(rng, 4)
    slots = rng.normal(size=(5, 4)).astype(np.float32)
    mask = gumbel_topk_mask(rng.normal(size=5), k=2, temperature=1.0,
                            training=False)
    out = _run(build_masked_self_attention, p, slots, hot=mask.hard[None])
    unselected = np.flatnonzero(mask.hard == 0.0)
    assert np.array_equal(out[unselected], slots[unselected])
    selected = np.flatnonzero(mask.hard)
    changed = out[selected] != slots[selected]
    assert changed.any()


def test_bad_selections_rejected():
    """A selection must be K-hot over each set's slots, with one K >= 1."""
    g = Graph()
    p = bind_consts(g, init_self_params(np.random.default_rng(3), 4))
    slots = g.const(np.zeros((5, 4)))
    batch = g.const(np.zeros((2, 5, 4)))
    for sets, hot in ((slots, np.zeros((1, 5))),             # K = 0
                      (slots, [[0, 2, 0, 0, 0]]),            # slot 1 twice
                      (slots, np.ones((1, 4))),              # 4 of 5 slots
                      (batch, k_hot([0, 3], 5)),             # one set of two
                      (batch, [[[1, 0, 0, 1, 0]], [[0, 0, 1, 0, 0]]])):
        with pytest.raises(ValueError, match="K-hot"):
            build_masked_self_attention(g, p, sets, hot)


# ------------------------------------------------------------ cross-attention


def _split(rows, s_h):
    """The refined rows [h; g] of a cross_attend node as (h, g)."""
    return rows[..., :s_h, :], rows[..., s_h:, :]


def test_single_round_is_one_bidirectional_block():
    rng = np.random.default_rng(4)
    p64 = _f64(init_cross_params(rng, 5))
    s_h = rng.normal(size=(4, 5))
    s_g = rng.normal(size=(3, 5))
    out_h, out_g = _split(_run(build_iterative_cross_attention, p64, s_h,
                               s_g, l_iters=1), 4)
    np.testing.assert_allclose(out_h, _cross_reference(s_h, s_g, p64),
                               atol=1e-5)
    np.testing.assert_allclose(out_g, _cross_reference(s_g, s_h, p64),
                               atol=1e-5)


def test_both_directions_read_the_same_iteration_state():
    # two rounds by hand: the second round must consume the *pair* of
    # first-round outputs, not a half-updated mix
    rng = np.random.default_rng(5)
    p64 = _f64(init_cross_params(rng, 4))
    s_h = rng.normal(size=(3, 4))
    s_g = rng.normal(size=(2, 4))
    h1 = _cross_reference(s_h, s_g, p64)
    g1 = _cross_reference(s_g, s_h, p64)
    h2 = _cross_reference(h1, g1, p64)
    g2 = _cross_reference(g1, h1, p64)

    g = Graph(dtype=np.float64)
    out = build_iterative_cross_attention(
        g, bind_consts(g, p64),
        g.const(s_h), g.const(s_g), l_iters=2)
    out_h, out_g = _split(out.value, 3)
    np.testing.assert_allclose(out_h, h2, atol=1e-10)
    np.testing.assert_allclose(out_g, g2, atol=1e-10)


def test_identical_slot_sets_stay_identical():
    rng = np.random.default_rng(6)
    p = init_cross_params(rng, 5)
    s = rng.normal(size=(4, 5)).astype(np.float32)
    out_h, out_g = _split(_run(build_iterative_cross_attention, p, s,
                               s.copy(), l_iters=3), 4)
    np.testing.assert_allclose(out_h, out_g, atol=1e-5)


def test_rounds_share_one_parameter_set():
    rng = np.random.default_rng(7)
    g = Graph(dtype=np.float64)
    p = bind_arrays(g, {"cross": _f64(init_cross_params(rng, 4))})["cross"]
    s_h = g.input("s_h", rng.normal(size=(3, 4)))
    s_g = g.input("s_g", rng.normal(size=(2, 4)))
    out = build_iterative_cross_attention(g, p, s_h, s_g, 3)
    # 16 block tensors + 2 slot inputs: no per-iteration parameter copies
    assert len(input_names(g)) == 18
    grads = backward(g, reduce_sum(g, g.mean_pool(out)))
    assert np.abs(grads["cross.w_q"]).max() > 0.0


def test_l_must_be_positive():
    g = Graph()
    p = bind_consts(g, init_cross_params(np.random.default_rng(8), 4))
    with pytest.raises(ValueError):
        build_iterative_cross_attention(g, p, g.const(np.zeros((2, 4))),
                                        g.const(np.zeros((2, 4))), 0)


def test_interaction_cost_is_quadratic_in_slot_count():
    rng = np.random.default_rng(9)
    params = init_cross_params(rng, 6)

    def count(s):
        g = Graph()
        p = bind_consts(g, params)
        build_iterative_cross_attention(g, p, g.const(rng.normal(size=(s, 6))),
                                        g.const(rng.normal(size=(s, 6))), 2)
        return g.total_madds()

    c4, c8, c16 = count(4), count(8), count(16)
    # fit c(s) = a s^2 + b s + c through three points, then predict s=32
    coeffs = np.linalg.solve(
        np.array([[16.0, 4.0, 1.0], [64.0, 8.0, 1.0], [256.0, 16.0, 1.0]]),
        np.array([c4, c8, c16], dtype=float))
    predicted = coeffs @ np.array([32.0 ** 2, 32.0, 1.0])
    assert count(32) == pytest.approx(predicted, abs=0.5)
    assert coeffs[0] > 0  # genuinely quadratic


# ------------------------------------------------ fused node vs. the chain


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


# lead axes, rounds, each set's slot count, and whether both slot sets
# are one node.  The "padded" cases stand for a training batch: a batch
# of B sets whose values a zero-padded bag made.
_CROSS_CASES = {
    "single": ((), 1, (4, 3), False),
    "single_equal": ((), 1, (4, 4), False),
    "batched": ((2,), 1, (4, 3), False),
    "batch_of_one": ((1,), 3, (4, 3), False),
    "rounds": ((), 3, (4, 3), False),
    "rounds_fewer_h": ((), 3, (2, 5), False),
    "batched_rounds": ((2,), 3, (4, 3), False),
    "padded_rounds": ((6,), 3, (16, 16), False),
    "padded_unequal": ((5,), 3, (16, 8), False),
    "same_node": ((), 2, (4, 4), True),
}


def _cross_both(dtype, build, case):
    """One loss over L rounds built by ``build`` for ``case``, a
    ``_CROSS_CASES`` entry; returns (refined rows [h; g], gradients,
    graph, nodes the rounds added)."""
    lead, l_iters, (n_h, n_g), same = case
    rng = np.random.default_rng(41)
    params = init_cross_params(rng, 5)
    # move the parameters off init so every tensor's gradient is generic
    params = type(params)(**{f: v + 0.3 * rng.normal(size=v.shape)
                             for f, v in vars(params).items()})
    s_h = rng.normal(size=lead + (n_h, 5))
    s_g = rng.normal(size=lead + (n_g, 5))
    g = Graph(dtype=dtype)
    p = bind_arrays(g, {"cross": params})["cross"]
    h = g.input("s_h", s_h)
    other = h if same else g.input("s_g", s_g)
    before = g.num_nodes
    out = build(g, p, h, other, l_iters)
    added = g.num_nodes - before
    loss = g.squared_error(out, g.const(rng.normal(size=out.shape)))
    if loss.value.ndim:
        loss = reduce_sum(g, loss)
    return out.value, backward(g, loss), g, added


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(_CROSS_CASES))
def test_cross_attend_is_bitwise_the_unfused_chain(dtype, case):
    """The refined rows [h; g] and every gradient of one cross_attend node
    match the chain of 2 L 13-node updates and the concat of the two
    refined sets bit for bit."""
    fused = _cross_both(dtype, build_iterative_cross_attention,
                        _CROSS_CASES[case])
    chain = _cross_both(dtype, unfused_cross_attention, _CROSS_CASES[case])
    assert _bits(fused[0]) == _bits(chain[0])
    assert set(fused[1]) == set(chain[1])
    for name in chain[1]:
        assert _bits(fused[1][name]) == _bits(chain[1][name]), name


@pytest.mark.parametrize("n_h, n_g", [(1, 4), (4, 1), (1, 1)])
def test_one_slot_set_matches_the_chain_to_rounding(n_h, n_g):
    """A set of one slot in a batch of one: the chain projects its one row
    with a matrix-vector product where cross_attend forms a matrix
    product over the stacked rows, so values and gradients agree to
    rounding, not bit for bit."""
    case = ((), 3, (n_h, n_g), False)
    fused = _cross_both(np.float64, build_iterative_cross_attention, case)
    chain = _cross_both(np.float64, unfused_cross_attention, case)
    np.testing.assert_allclose(fused[0], chain[0], rtol=1e-13, atol=1e-13)
    for name in chain[1]:
        np.testing.assert_allclose(fused[1][name], chain[1][name],
                                   rtol=1e-11, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("case", sorted(_CROSS_CASES))
def test_cross_attend_counts_the_chains_multiply_adds(case):
    """cross_attend counts what its chain counts, and all L rounds are one
    node instead of the chain's 2 L updates of 13 nodes and the concat."""
    fused = _cross_both(np.float64, build_iterative_cross_attention,
                        _CROSS_CASES[case])
    chain = _cross_both(np.float64, unfused_cross_attention,
                        _CROSS_CASES[case])
    l_iters = _CROSS_CASES[case][1]
    assert fused[2].total_madds() == chain[2].total_madds()
    assert fused[3] == fused[2]._ops.count("cross_attend") == 1
    assert chain[3] == 13 * 2 * l_iters + 1


# lead axes, each set's selection, and the rows the loss reads.  A loss
# that reads some rows only hands the others a -0 or +0 adjoint, and the
# chain's scatter and gather adjoints, which add into buffers of zeros,
# turn each -0 into +0: "unselected" leaves a single refined row's adjoint
# (the mlp_b2 gradient as is) at zero, "selected" the unselected rows'.
_SELF_CASES = {
    "single": ((), [[3, 0, 1]], "all"),
    "batched": ((2,), [[3, 0, 1], [2, 4, 0]], "all"),
    "single_row_unread": ((), [[2]], "unselected"),
    "batched_unselected_unread": ((2,), [[1, 3], [0, 2]], "selected"),
}


def _self_both(dtype, build, case):
    """One loss over the masked self-attention built by ``build``; returns
    (output, gradients, graph, nodes the block added)."""
    lead, selected, reads = _SELF_CASES[case]
    rng = np.random.default_rng(43)
    params = init_self_params(rng, 5)
    params = type(params)(**{f: v + 0.3 * rng.normal(size=v.shape)
                             for f, v in vars(params).items()})
    slots = rng.normal(size=lead + (5, 5))
    g = Graph(dtype=dtype)
    p = bind_arrays(g, {"self": params})["self"]
    s = g.input("slots", slots)
    before = g.num_nodes
    out = build(g, p, s, k_hot(selected[0] if not lead else selected, 5))
    added = g.num_nodes - before
    if reads == "all":
        loss = g.squared_error(out, g.const(rng.normal(size=out.shape)))
    else:
        read = np.full(lead + (5, 1), float(reads == "unselected"))
        for b, row in enumerate(selected):
            read[(b, row) if lead else row] = float(reads == "selected")
        loss = reduce_sum(g, g.mul(
            g.mul(out, g.const(read)),
            g.const(-rng.uniform(0.5, 1.5, size=out.shape))))
    if loss.value.ndim:
        loss = reduce_sum(g, loss)
    return out.value, backward(g, loss), g, added


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(_SELF_CASES))
def test_self_attend_is_bitwise_the_unfused_chain(dtype, case):
    """The refined slots and every gradient of one self_attend node match
    the per-op chain bit for bit, signed zeros included."""
    fused = _self_both(dtype, build_masked_self_attention, case)
    chain = _self_both(dtype, unfused_self_attention, case)
    assert _bits(fused[0]) == _bits(chain[0])
    assert set(fused[1]) == set(chain[1])
    for name in chain[1]:
        assert _bits(fused[1][name]) == _bits(chain[1][name]), name
    lead, selected, reads = _SELF_CASES[case]
    if reads == "unselected":
        assert (fused[1]["self.mlp_b2"] == 0).all()
    elif reads == "selected":
        unread = np.ones(lead + (5,), dtype=bool)
        for b, row in enumerate(selected):
            unread[b, row] = False
        assert (fused[1]["slots"][unread] == 0).all()


@pytest.mark.parametrize("case", sorted(_SELF_CASES))
def test_self_attend_counts_the_chains_multiply_adds(case):
    """self_attend counts what its chain counts, in one node instead of
    the chain's 20 for a batch and 16 for an unbatched set."""
    fused = _self_both(np.float64, build_masked_self_attention, case)
    chain = _self_both(np.float64, unfused_self_attention, case)
    assert fused[2].total_madds() == chain[2].total_madds()
    assert fused[3] == fused[2]._ops.count("self_attend") == 1
    assert chain[3] == (20 if _SELF_CASES[case][0] else 16)


# ------------------------------------------------------------------- pooling


def test_pool_concat_of_constant_sets_tiles_the_vector():
    v = np.array([1.5, -2.0, 0.25])
    z = _run(build_pool_concat, None, np.tile(v, (6, 1)),
             np.tile(v, (3, 1)), np.tile(v, (5, 1)))[0]
    np.testing.assert_allclose(z, np.concatenate([v, v, v]), atol=1e-7)
    assert z.shape == (9,)


def test_pool_concat_ignores_slot_order():
    rng = np.random.default_rng(10)
    sets = [rng.normal(size=(n, 6)) for n in (7, 5, 2)]
    g = Graph(dtype=np.float64)
    base = build_pool_concat(g, *[g.const(s) for s in sets]).value
    g2 = Graph(dtype=np.float64)
    shuffled = build_pool_concat(
        g2, *[g2.const(s[rng.permutation(len(s))]) for s in sets]).value
    np.testing.assert_allclose(shuffled, base, atol=1e-9)


def test_fused_width_is_three_d():
    rng = np.random.default_rng(11)
    z = _run(build_pool_concat, None,
             *[rng.normal(size=(3, 8)).astype(np.float32)
               for _ in range(3)])[0]
    assert z.shape == (24,)


# ----------------------------------------------------------------- risk head


def test_zero_risk_head_means_coin_flip_hazards():
    z = np.random.default_rng(12).normal(size=9).astype(np.float32)
    p = RiskHeadParams(w1=np.zeros((9, 3)), b1=np.zeros((1, 3)),
                       w2=np.zeros((3, 4)), b2=np.zeros((1, 4)))
    logits = _run(build_risk_head, p, z[None])[0]
    assert np.array_equal(logits, np.zeros(4))
    assert np.all(hazards_from_logits(logits).h == 0.5)


def test_risk_head_output_length():
    rng = np.random.default_rng(13)
    p = init_risk_params(rng, 5, 4)
    z = rng.normal(size=15).astype(np.float32)
    assert _run(build_risk_head, p, z[None])[0].shape == (4,)


def test_end_to_end_gradients_match_finite_differences():
    # seed screened so every relu pre-activation clears the stencil width
    # (a kink within +-2h corrupts the quotient with correct gradients)
    rng = np.random.default_rng(1)
    g = Graph(dtype=np.float64)
    self_h, self_g, cross, risk = bind_arrays(g, {
        "self_h": _f64(init_self_params(rng, 5)),
        "self_g": _f64(init_self_params(rng, 5)),
        "cross": _f64(init_cross_params(rng, 5)),
        "risk": _f64(init_risk_params(rng, 5, 4))}).values()
    s_h = g.input("s_h", rng.normal(size=(4, 5)))
    s_g = g.input("s_g", rng.normal(size=(3, 5)))
    bar_h = build_masked_self_attention(g, self_h, s_h, k_hot([0, 2], 4))
    bar_g = build_masked_self_attention(g, self_g, s_g, k_hot([1], 3))
    hat = build_iterative_cross_attention(g, cross, s_h, s_g, 2)
    z = build_pool_concat(g, hat, bar_h, bar_g)
    logits = build_risk_head(g, risk, z)
    loss = reduce_sum(g, g.mul(logits, g.const(rng.normal(size=(1, 4)))))
    assert finite_diff_check(g, loss) < 1e-4
