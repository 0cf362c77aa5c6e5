"""Slot encoder: attention normalization, permutation behavior, update
semantics, gradient integrity, and cost accounting."""

import csv

import numpy as np
import pytest

from slotsurv.autodiff import (
    Graph,
    GraphError,
    backward,
    bind_arrays,
    finite_diff_check,
)
from slotsurv.slots import (
    SlotSet,
    _keys_values,
    assignment_map,
    build_attention_step,
    build_encode,
    encode,
    init_slot_params,
    write_assignment_csv,
)

from oracles import init_slots, slot_attention_step, unfused_encode


def _params(seed=0, n_slots=4, dim=8):
    return init_slot_params(np.random.default_rng(seed), n_slots, dim)


def _bag(seed=1, m=10, dim=8):
    return np.random.default_rng(seed).normal(size=(m, dim)).astype(np.float32)


# ------------------------------------------------------------- initialization


def test_init_deterministic_returns_the_mean():
    p = _params()
    a = init_slots(p)
    b = init_slots(p)
    assert np.array_equal(a, p.init_mean)
    assert np.array_equal(a, b)


def test_init_stochastic_seeded_reproducible():
    p = _params()
    a = init_slots(p, np.random.default_rng(7))
    b = init_slots(p, np.random.default_rng(7))
    c = init_slots(p, np.random.default_rng(8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_init_vanishing_noise_matches_deterministic():
    p = _params()
    quiet = type(p)(**{**{f: getattr(p, f) for f in p.__dataclass_fields__},
                       "init_log_std": np.full_like(p.init_log_std, -40.0)})
    a = init_slots(quiet, np.random.default_rng(3))
    assert np.allclose(a, quiet.init_mean, atol=1e-4)


# ----------------------------------------------------------------- attention


def test_alpha_columns_sum_to_one_every_iteration():
    p = _params()
    bag = _bag(m=13)
    slots = init_slots(p)
    for _ in range(3):
        step = slot_attention_step(slots, bag, p)
        assert np.allclose(step.attention.sum(axis=0), 1.0, atol=1e-6)
        slots = step.slots


def test_single_slot_gets_all_attention_and_mean_update():
    p = _params(n_slots=1)
    bag = _bag(m=9)
    step = slot_attention_step(init_slots(p), bag, p)
    assert np.allclose(step.attention, 1.0, atol=1e-6)
    # weighted mean with an all-ones row is the plain mean of projected values
    g = Graph()
    pn = bind_arrays(g, "p", p, trainable=False)
    x = g.layer_norm(g.const(bag), pn.ln_in_gamma, pn.ln_in_beta)
    v = g.matmul(x, pn.w_v).value
    assert np.allclose(step.update, v.mean(axis=0, keepdims=True),
                       atol=1e-5)


def test_sum_aggregation_scales_update_by_instance_count():
    p = _params(n_slots=1)
    bag = _bag(m=6)
    s0 = init_slots(p)
    mean_u = slot_attention_step(s0, bag, p, aggregation="mean").update
    sum_u = slot_attention_step(s0, bag, p, aggregation="sum").update
    assert np.allclose(sum_u, 6.0 * mean_u, rtol=1e-4)
    with pytest.raises(ValueError):
        slot_attention_step(s0, bag, p, aggregation="max")


def test_identical_slots_stay_identical():
    p = _params(n_slots=3)
    s0 = init_slots(p).copy()
    s0[2] = s0[0]   # duplicate slot
    step = slot_attention_step(s0, _bag(), p)
    assert np.array_equal(step.attention[0], step.attention[2])
    assert np.array_equal(step.slots[0], step.slots[2])


def test_permutation_equivariance():
    p = _params()
    bag = _bag(m=17)
    rng = np.random.default_rng(4)
    perm = rng.permutation(17)
    base = encode(bag, p, t_iters=3)
    shuffled = encode(bag[perm], p, t_iters=3)
    assert np.allclose(shuffled.attention, base.attention[:, perm], atol=1e-6)
    assert np.allclose(shuffled.slots, base.slots, atol=1e-5)


def test_output_shape_for_any_bag_size():
    p = _params(n_slots=4, dim=8)
    for m in (1, 3, 16):
        out = encode(_bag(seed=m, m=m), p, t_iters=2)
        assert out.slots.shape == (4, 8)
        assert out.attention.shape == (4, m)


def test_encode_t1_equals_single_step():
    p = _params()
    bag = _bag()
    one = encode(bag, p, t_iters=1)
    step = slot_attention_step(init_slots(p), bag, p)
    assert np.array_equal(one.slots, step.slots)
    assert np.array_equal(one.attention, step.attention)


def test_encode_rejects_bad_arguments():
    p = _params(dim=8)
    with pytest.raises(ValueError):
        encode(_bag(), p, t_iters=0)
    with pytest.raises(ValueError):
        encode(np.ones((5, 4), np.float32), p, t_iters=1)


# ------------------------------------------------------------------ gradients


def _micro_loss(g, p, bag_node, t_iters, rng):
    slots, alpha = build_encode(g, p, bag_node, t_iters)
    target = g.const(rng.normal(size=slots.shape) + 1.5)
    return g.squared_error(slots, target)


# Composed graphs are audited at the 1e-4 tolerance: elements whose true
# gradient is ~0 bottom out near 1e-5 against the checker's relative-error
# floor even in 64-bit, so 1e-6 is reserved for the per-op tests with
# structurally chosen points.


@pytest.mark.parametrize("t_iters", [1, 3])
def test_encode_gradients_match_finite_differences(t_iters):
    rng = np.random.default_rng(105)
    g = Graph(dtype=np.float64)
    p = bind_arrays(g, "enc", init_slot_params(rng, n_slots=3, dim=5))
    bag = g.input("bag", rng.normal(size=(6, 5)))
    loss = _micro_loss(g, p, bag, t_iters, rng)
    assert finite_diff_check(g, loss) < 1e-4


@pytest.mark.parametrize("seed", [101, 102, 103, 104, 105])
def test_single_step_gradients_across_seeds(seed):
    # composed-graph checks run in 64-bit: float32 rounding noise on the
    # graph's many near-zero gradient elements would dominate the FD floor
    rng = np.random.default_rng(seed)
    g = Graph(dtype=np.float64)
    p = bind_arrays(g, "enc", init_slot_params(rng, n_slots=3, dim=5))
    bag = g.input("bag", rng.normal(size=(6, 5)))
    loss = _micro_loss(g, p, bag, 1, rng)
    assert finite_diff_check(g, loss) < 1e-4


# ------------------------------------------------- fused step vs. the chain


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def _encode_both(dtype, build, **kw):
    """Build one loss over an encode, once through ``build`` and with the
    same bindings; returns (slots, alpha, gradients, graph)."""
    rng = np.random.default_rng(31)
    params = init_slot_params(rng, n_slots=3, dim=5)
    # move the parameters off init so every tensor's gradient is generic
    params = type(params)(**{f: v + 0.3 * rng.normal(size=v.shape)
                             for f, v in vars(params).items()})
    bag = rng.normal(size=kw.pop("bag_shape"))
    target = rng.normal(size=bag.shape[:-2] + (3, 5))
    g = Graph(dtype=dtype)
    p = bind_arrays(g, "p", params)
    slots, alpha = build(g, p, g.input("bag", bag), **kw)
    loss = g.squared_error(slots, g.const(target))
    if loss.value.ndim:
        loss = g.reduce_sum(loss)
    alpha = alpha if isinstance(alpha, np.ndarray) else alpha.value
    return slots.value, alpha, backward(g, loss), g


_ORACLE_CASES = {
    "single": dict(bag_shape=(7, 5), t_iters=3),
    "padded_batch": dict(
        bag_shape=(2, 7, 5), t_iters=3,
        mask=np.array([[1.0] * 7, [1.0] * 4 + [0.0] * 3]),
        noise=np.random.default_rng(32).normal(size=(2, 3, 5))),
    "sum": dict(bag_shape=(7, 5), t_iters=2, aggregation="sum"),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_fused_step_is_bitwise_the_unfused_chain(dtype, case):
    """The slots, the last alpha and every gradient of one slot_step node
    per iteration match the 18-node chain bit for bit."""
    fused = _encode_both(dtype, build_encode, **_ORACLE_CASES[case])
    chain = _encode_both(dtype, unfused_encode, **_ORACLE_CASES[case])
    assert _bits(fused[0]) == _bits(chain[0])
    assert _bits(fused[1]) == _bits(chain[1])
    assert set(fused[2]) == set(chain[2])
    for name in chain[2]:
        assert _bits(fused[2][name]) == _bits(chain[2][name]), name
    t_iters = _ORACLE_CASES[case]["t_iters"]
    assert [fused[3]._ops.count("slot_step"), chain[3]._ops.count("gru_cell")] \
        == [t_iters, t_iters]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_step_keeps_the_chains_order_for_shared_initial_slots(dtype):
    """Two unbatched encodes start from the same init_mean input, so its
    adjoint sums four contributions per graph; the fused step hands them
    over one by one, GRU state then layer norm, as the chain does."""
    rng = np.random.default_rng(33)
    params = init_slot_params(rng, n_slots=3, dim=5)
    bags = [rng.normal(size=(m, 5)) for m in (6, 9)]

    def grads(build):
        g = Graph(dtype=dtype)
        p = bind_arrays(g, "p", params)
        losses = [g.squared_error(build(g, p, g.const(bag), 2)[0],
                                  g.const(np.full((3, 5), 0.5)))
                  for bag in bags]
        return backward(g, g.add(*losses))

    fused, chain = grads(build_encode), grads(unfused_encode)
    for name in chain:
        assert _bits(fused[name]) == _bits(chain[name]), name


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_fused_step_counts_the_chains_multiply_adds(case):
    """slot_step counts what its chain counts; a masked encode no longer
    counts the alpha mask, which is applied outside the graph."""
    fused = _encode_both(np.float64, build_encode, **_ORACLE_CASES[case])[3]
    chain = _encode_both(np.float64, unfused_encode, **_ORACLE_CASES[case])[3]
    mask = _ORACLE_CASES[case].get("mask")
    masked = 0 if mask is None else 3 * mask.size   # S * B * M
    assert fused.total_madds() == chain.total_madds() - masked
    # the chain is 18 nodes per iteration (13 without the mean's mass),
    # one of them the zero shift of its layer norm, plus a transpose and a
    # multiply for the alpha mask
    per_step = 13 if _ORACLE_CASES[case].get("aggregation") == "sum" else 18
    assert chain.num_nodes - fused.num_nodes == \
        (per_step - 1) * _ORACLE_CASES[case]["t_iters"] + 2 * (mask is not None)


def test_guard_catches_a_pre_activation_that_relu_would_hide():
    """An MLP weight that overflows the pre-relu value to -inf raises,
    although relu would turn the -inf into a finite 0."""
    p = _params(n_slots=1)
    bag = _bag(m=6)

    def step(params):
        g = Graph(dtype=np.float32)
        pn = bind_arrays(g, "p", params, trainable=False)
        keys_t, values, ones = _keys_values(g, pn, g.const(bag), None)
        return g, build_attention_step(g, pn, pn.init_mean, keys_t, values,
                                       ones)

    g, node = step(p)
    updated = g._saved[node.idx].updated            # (1, d); MLP-independent
    big = -np.finfo(np.float32).max * np.sign(updated[0])[:, None] \
        * np.ones((1, p.dim), np.float32)
    huge = type(p)(**{**vars(p), "mlp_w1": big.astype(np.float32)})
    with np.errstate(over="ignore"), \
            pytest.raises(GraphError, match="pre-activation"):
        step(huge)


# ----------------------------------------------------------- cost accounting


def _encode_madds(m, n_slots=4, dim=8, t_iters=3):
    p = init_slot_params(np.random.default_rng(0), n_slots, dim)
    g = Graph()
    nodes = bind_arrays(g, "p", p, trainable=False)
    build_encode(g, nodes, g.const(_bag(seed=m, m=m, dim=dim)), t_iters)
    return g.total_madds()


def test_encode_cost_is_affine_in_bag_size():
    c64, c128, c256 = (_encode_madds(m) for m in (64, 128, 256))
    # affine in M: slope per instance is constant across the doublings
    assert (c128 - c64) * 2 == c256 - c128
    assert c256 > c128 > c64


# ------------------------------------------------------------------ exports


def test_assignment_map_argmax_and_ties():
    att = np.array([[0.7, 1 / 3, 0.1],
                    [0.2, 1 / 3, 0.1],
                    [0.1, 1 / 3, 0.8]])
    ss = SlotSet(slots=np.zeros((3, 2)), attention=att)
    assert assignment_map(ss).tolist() == [0, 0, 2]   # uniform -> lowest index


def test_assignment_invariant_under_column_rescaling_of_logits():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(4, 6))

    def softmax_cols(z):
        e = np.exp(z - z.max(axis=0))
        return e / e.sum(axis=0)

    base = SlotSet(np.zeros((4, 2)), softmax_cols(logits))
    warm = SlotSet(np.zeros((4, 2)), softmax_cols(logits * 3.0))
    assert np.array_equal(assignment_map(base), assignment_map(warm))


def test_assignment_csv_round_trip(tmp_path):
    p = _params()
    out = encode(_bag(m=7), p, t_iters=2)
    path = tmp_path / "assign.csv"
    write_assignment_csv(out, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["instance_index", "slot_index", "max_attention"]
    assert len(rows) == 8
    got = [int(r[1]) for r in rows[1:]]
    assert got == assignment_map(out).tolist()
    assert all(0.0 < float(r[2]) <= 1.0 for r in rows[1:])
