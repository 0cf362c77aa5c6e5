"""Slot encoder: attention normalization, permutation behavior, update
semantics, gradient integrity, and cost accounting."""

import csv
import functools

import numpy as np
import pytest

from slotsurv.autodiff import (
    Graph,
    GraphError,
    _StepSaved,
    backward,
    bind_arrays,
)
from slotsurv.data import FeatureBag
from slotsurv.recon import cross_modal_encode
from slotsurv.slots import (
    SlotSet,
    assignment_map,
    build_encode,
    init_slot_params,
    write_assignment_csv,
)

from fd import finite_diff_check
from oracles import (
    BAG_SIDE,
    assert_near_float64_chain,
    bind_consts,
    exact_build_encode,
    init_slots,
    layer_norm,
    owning_buffers,
    reduce_sum,
    saved_arrays,
    slot_attention_step,
    unfused_encode,
)


def _params(seed=0, n_slots=4, dim=8):
    return init_slot_params(np.random.default_rng(seed), n_slots, dim)


def _bag(seed=1, m=10, dim=8):
    return np.random.default_rng(seed).normal(size=(m, dim)).astype(np.float32)


def encode(bag, params, t_iters):
    """One bag's slots and last attention map, as serving reads them."""
    return cross_modal_encode(FeatureBag("histology", bag), params, t_iters)


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
    pn = bind_consts(g, p)
    x = layer_norm(g, g.const(bag), pn.ln_in_gamma, pn.ln_in_beta)
    v = g.matmul(x, pn.w_v).value
    assert np.allclose(step.update, v.mean(axis=0, keepdims=True),
                       atol=1e-5)


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


def test_encode_rejects_a_bag_without_instances():
    """A bag of zero rows fails the encode node's shape check, before any
    kernel averages over its rows."""
    with pytest.raises(GraphError, match="slot_encode shapes"):
        encode(np.zeros((0, 8), np.float32), _params(dim=8), t_iters=2)


# ------------------------------------------------------------------ gradients


def _micro_loss(g, p, bag_node, t_iters, rng, build=build_encode):
    slots = build(g, p, bag_node, t_iters)
    target = g.const(rng.normal(size=slots.shape) + 1.5)
    return g.squared_error(slots, target)


# Composed graphs are audited at the 1e-4 tolerance: elements whose true
# gradient is ~0 bottom out near 1e-5 against the checker's relative-error
# floor even in 64-bit, so 1e-6 is reserved for the per-op tests with
# structurally chosen points.


@pytest.mark.parametrize("t_iters", [1, 3])
def test_encode_gradients_match_finite_differences(t_iters):
    """At T = 1 the fused encode's gradient is the exact one and is
    checked; at T > 1 it is first-order, pinned bitwise to the
    first-order chain below, and the gradient checked is the exact one
    through every iteration, the per-op chain's."""
    rng = np.random.default_rng(105)
    g = Graph(dtype=np.float64)
    p = bind_arrays(g, {"enc": init_slot_params(rng, n_slots=3, dim=5)})["enc"]
    bag = g.const(rng.normal(size=(6, 5)))
    build = build_encode if t_iters == 1 else exact_build_encode
    loss = _micro_loss(g, p, bag, t_iters, rng, build)
    assert (g._ops.count("slot_encode"), g._ops.count("gru_cell")) == \
        ((1, 0) if t_iters == 1 else (0, t_iters))
    assert finite_diff_check(g, loss) < 1e-4


@pytest.mark.parametrize("seed", [101, 102, 103, 104, 105])
def test_single_step_gradients_across_seeds(seed):
    # composed-graph checks run in 64-bit: float32 rounding noise on the
    # graph's many near-zero gradient elements would dominate the FD floor
    rng = np.random.default_rng(seed)
    g = Graph(dtype=np.float64)
    p = bind_arrays(g, {"enc": init_slot_params(rng, n_slots=3, dim=5)})["enc"]
    bag = g.const(rng.normal(size=(6, 5)))
    loss = _micro_loss(g, p, bag, 1, rng)
    assert finite_diff_check(g, loss) < 1e-4


# ------------------------------------------------- fused step vs. the chain


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def _fused_encode(g, p, bag, t_iters, **kw):
    """``build_encode`` as (slots node, last map), the chain's return."""
    slots = build_encode(g, p, bag, t_iters, **kw)
    return slots, g.slot_attention(slots)


# the per-op chain whose gradient is the fused node's: the last
# iteration's alone, its input slots handing their adjoint to the
# initial slots
_first_order_encode = functools.partial(unfused_encode, first_order=True)


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
    p = bind_arrays(g, {"p": params})["p"]
    slots, alpha = build(g, p, g.const(bag), **kw)
    loss = g.squared_error(slots, g.const(target))
    if loss.value.ndim:
        loss = reduce_sum(g, loss)
    alpha = alpha if isinstance(alpha, np.ndarray) else alpha.value
    return slots.value, alpha, backward(g, loss), g


def _same_but_the_bag_side(fused, chain, chain64):
    """Every gradient of ``fused`` has the bits of ``chain``'s, the chain
    at the same dtype, but the bag side's four (``oracles.BAG_SIDE``),
    which ``assert_near_float64_chain`` holds to ``chain64``'s."""
    assert set(fused) == set(chain) == set(chain64)
    for name in chain:
        if name.split(".", 1)[1] in BAG_SIDE:
            assert_near_float64_chain(fused[name], chain[name],
                                      chain64[name], name)
        else:
            assert _bits(fused[name]) == _bits(chain[name]), name


_PADDING = np.array([[1.0] * 7, [1.0] * 4 + [0.0] * 3])

_ORACLE_CASES = {
    "single": dict(bag_shape=(7, 5), t_iters=3),
    "single_t1": dict(bag_shape=(7, 5), t_iters=1),
    "single_noise_t1": dict(
        bag_shape=(7, 5), t_iters=1,
        noise=np.random.default_rng(34).normal(size=(3, 5))),
    "padded_batch": dict(
        bag_shape=(2, 7, 5), t_iters=3, mask=_PADDING,
        noise=np.random.default_rng(32).normal(size=(2, 3, 5))),
    "padded_batch_quiet": dict(bag_shape=(2, 7, 5), t_iters=3,
                               mask=_PADDING),
    "padded_batch_quiet_t1": dict(bag_shape=(2, 7, 5), t_iters=1,
                                  mask=_PADDING),
    # the reference T
    "padded_batch_t10": dict(
        bag_shape=(2, 7, 5), t_iters=10, mask=_PADDING,
        noise=np.random.default_rng(35).normal(size=(2, 3, 5))),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_fused_step_is_bitwise_the_unfused_chain(dtype, case):
    """The slots, the last alpha and every gradient of one slot_encode
    node match the first-order per-op chain (18 nodes per iteration) bit
    for bit: the iterations' weights and the slot-init parameters.  The
    bag side's four, the bag layer norm's gain and shift, w_k and w_v, are
    held to the float64 chain instead: their largest deviation from it,
    over its largest entry, exceeds the chain's own at their dtype (0 in
    float64) by at most 32 units of roundoff (``oracles.BAG_SIDE_ULPS``).
    At T > 1 the chain runs all T iterations, and its last iteration's
    input slots hand their adjoint to the initial slots through two
    ``hand_over`` nodes; at T = 1 it is the exact chain."""
    fused = _encode_both(dtype, _fused_encode, **_ORACLE_CASES[case])
    chain = _encode_both(dtype, _first_order_encode, **_ORACLE_CASES[case])
    chain64 = _encode_both(np.float64, _first_order_encode,
                           **_ORACLE_CASES[case])
    assert _bits(fused[0]) == _bits(chain[0])
    assert _bits(fused[1]) == _bits(chain[1])
    assert set(fused[2]) == set(chain[2])
    _same_but_the_bag_side(fused[2], chain[2], chain64[2])
    t_iters = _ORACLE_CASES[case]["t_iters"]
    assert [fused[3]._ops.count("slot_encode"),
            chain[3]._ops.count("gru_cell"),
            chain[3]._ops.count("hand_over")] == \
        [1, t_iters, 2 * (t_iters > 1)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_step_keeps_the_chains_order_for_shared_initial_slots(dtype):
    """Two unbatched encodes of T = 2 start from the same init_mean input,
    so its adjoint sums four contributions per graph; the fused step hands
    them over one by one, GRU state then layer norm, as the first-order
    chain's two ``hand_over`` nodes do, so every gradient has the chain's
    bits but the bag side's four, which are held to the float64 chain as
    in ``test_fused_step_is_bitwise_the_unfused_chain``."""
    rng = np.random.default_rng(33)
    params = init_slot_params(rng, n_slots=3, dim=5)
    bags = [rng.normal(size=(m, 5)) for m in (6, 9)]

    def grads(build, dtype=dtype):
        g = Graph(dtype=dtype)
        p = bind_arrays(g, {"p": params})["p"]
        losses = [g.squared_error(build(g, p, g.const(bag), 2)[0],
                                  g.const(np.full((3, 5), 0.5)))
                  for bag in bags]
        return backward(g, g.add(*losses))

    fused, chain = grads(_fused_encode), grads(_first_order_encode)
    _same_but_the_bag_side(fused, chain,
                           grads(_first_order_encode, np.float64))


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_fused_step_counts_the_chains_multiply_adds(case):
    """slot_encode counts what its chain counts."""
    fused = _encode_both(np.float64, _fused_encode, **_ORACLE_CASES[case])[3]
    chain = _encode_both(np.float64, unfused_encode, **_ORACLE_CASES[case])[3]
    assert fused.total_madds() == chain.total_madds()
    # the chain is 18 nodes per iteration, one of them the zero shift of
    # its layer norm, 6 for the bag (layer norm, k, its transpose and
    # scale, v and the value mask) and the instance mask's constant; the
    # fused encode is one node, which keeps the mask as an array
    assert chain.num_nodes - fused.num_nodes == \
        18 * _ORACLE_CASES[case]["t_iters"] + 6


def test_guard_catches_a_pre_activation_that_relu_would_hide():
    """An MLP weight that overflows the pre-relu value to -inf raises,
    although relu would turn the -inf into a finite 0."""
    p = _params(n_slots=1)
    bag = _bag(m=6)

    def step(params):
        g = Graph(dtype=np.float32)
        pn = bind_consts(g, params)
        return g, build_encode(g, pn, g.const(bag), 1)

    # the GRU output of the one iteration, from the per-op chain over the
    # same operands: (1, d), MLP-independent
    g = Graph(dtype=np.float32)
    unfused_encode(g, bind_consts(g, p), g.const(bag),
                   1)
    updated = g._values[g._ops.index("gru_cell")]
    step(p)                             # the drawn weights pass the guard
    big = -np.finfo(np.float32).max * np.sign(updated[0])[:, None] \
        * np.ones((1, p.dim), np.float32)
    huge = type(p)(**{**vars(p), "mlp_w1": big.astype(np.float32)})
    with np.errstate(over="ignore"), \
            pytest.raises(GraphError, match="pre-activation"):
        step(huge)


@pytest.mark.parametrize("t_iters", [1, 3, 10])
def test_encode_node_holds_two_bag_sized_arrays_and_one_attention_map(
        t_iters):
    """A padded batch's slot_encode node holds, of the arrays the size of
    the bag, only the keys and the values: the adjoint forms the bag layer
    norm's normalized rows and output again from the bag, the inverse
    deviations and the row means, two (B, M, 1) rows, the only rows with
    one entry per bag row it holds.  Of the (B, S, M) attention maps it
    holds only the last iteration's, which ``slot_attention`` reads back
    and the first-order adjoint reads; the earlier iterations keep
    nothing.  Everything else it holds (per-slot vectors) is smaller than
    one more bag-sized array.  An intermediate the size of the bag, a map
    or a column row kept by mistake fails here, whatever T is."""
    n, m, dim, n_slots = 2, 512, 8, 3
    rng = np.random.default_rng(41)
    g = Graph()
    p = bind_arrays(g, {"p": init_slot_params(rng, n_slots, dim)})["p"]
    mask = np.ones((n, m))
    mask[1, 300:] = 0.0
    slots = build_encode(g, p, g.const(rng.normal(size=(n, m, dim))),
                         t_iters, mask=mask,
                         noise=rng.normal(size=(n, n_slots, dim)))
    assert g._ops.count("slot_encode") == 1
    sv = g._saved[slots.idx]
    assert g.slot_attention(slots) is sv.step.alpha
    buffers = owning_buffers([slots.value, *saved_arrays(sv)])
    sizes = [b.size for b in buffers]
    bag, amap, row = n * m * dim, n * n_slots * m, n * m
    assert sizes.count(bag) == 2
    assert sizes.count(amap) == 1
    # the bag layer norm's inverse deviations and row means
    assert sizes.count(row) == 2
    rest = sum(b.nbytes for b in buffers if b.size not in (bag, amap, row))
    assert rest < bag * np.dtype(np.float32).itemsize


@pytest.mark.parametrize("t_iters", [1, 3, 10])
def test_slot_iteration_holds_two_slot_sized_buffers(t_iters):
    """The last iteration of a batch's slot_encode node, the one it keeps,
    holds two buffers with a row per slot and d or 2d entries per row: its
    input slots and alpha @ values.  The adjoint rebuilds the normalized
    slots, q and the GRU input from those, and runs the GRU (its gates,
    r * h and output) and the MLP's hidden layer again.  Besides them it
    keeps three (B, S, 1) rows, the layer norm's inverse deviations and
    row means and the mass's reciprocal, and the map.  The node's output
    is the third slot-sized buffer."""
    n, m, dim, n_slots = 2, 50, 8, 3
    rng = np.random.default_rng(43)
    g = Graph()
    p = bind_arrays(g, {"p": init_slot_params(rng, n_slots, dim)})["p"]
    slots = build_encode(g, p, g.const(rng.normal(size=(n, m, dim))),
                         t_iters, noise=rng.normal(size=(n, n_slots, dim)))
    sv = g._saved[slots.idx]
    rows = n * n_slots
    buffers = owning_buffers([sv.state, *saved_arrays(sv.step)])
    per_row = [b.size // rows for b in buffers if b.size % rows == 0]
    assert sorted(per_row) == [1, 1, 1, dim, dim, m]
    held = [b for b in buffers if b.size in (rows * dim, 2 * rows * dim)]
    assert len(owning_buffers(held + [slots.value])) == 3


def test_encode_node_keeps_only_the_last_iteration_at_ten_iterations():
    """At T = 10 the node keeps one ``_StepSaved``, the last iteration's,
    and no per-iteration tuple: it holds the same buffers, byte for byte,
    as at T = 1, so what a node saves does not grow with T."""
    n, m, dim, n_slots = 2, 50, 8, 3

    def saved(t_iters):
        rng = np.random.default_rng(47)
        g = Graph()
        p = bind_arrays(g, {"p": init_slot_params(rng, n_slots, dim)})["p"]
        slots = build_encode(g, p, g.const(rng.normal(size=(n, m, dim))),
                             t_iters, noise=rng.normal(size=(n, n_slots, dim)))
        return g._saved[slots.idx]

    sv = saved(10)
    assert [type(a) for a in sv if isinstance(a, tuple)] == [_StepSaved]
    assert sv.step.alpha.shape == (n, n_slots, m)

    def nbytes(sv):
        return sorted(b.nbytes for b in owning_buffers(saved_arrays(sv)))

    assert nbytes(sv) == nbytes(saved(1))


# ----------------------------------------------------------- cost accounting


def _encode_madds(m, n_slots=4, dim=8, t_iters=3):
    p = init_slot_params(np.random.default_rng(0), n_slots, dim)
    g = Graph()
    nodes = bind_consts(g, p)
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
