"""Gradient and contract tests for the autodiff core.

Every differentiable op is audited against central finite differences
at 20 random points, in both 32-bit and 64-bit modes. Step sizes are
dtype-matched: too small a step drowns the quotient in rounding noise.
"""

import zlib

import numpy as np
import pytest

from slotsurv.autodiff import (
    _BACKWARD,
    _FORWARD,
    OP_KINDS,
    Graph,
    GraphError,
    backward,
    finite_diff_check,
    forward,
)

N_POINTS = 20

# (dtype, fd step, max rel err) pairs used by the per-op audit.
MODES = [(np.float64, 1e-3, 1e-6), (np.float32, 1e-3, 1e-4)]

_SALT = 3


def _seed(op_name: str, point: int) -> int:
    return zlib.crc32(f"{_SALT}:{op_name}:{point}".encode())


def _se_target(g, node, rng):
    """Squared error against an offset target.

    The offset keeps every residual bounded away from zero so gradient
    elements never vanish by accident, which would put the relative
    error formula on its noise floor.
    """
    target = node.value + rng.uniform(1.0, 2.0, size=node.shape)
    return _batch_total(g, g.squared_error(node, g.const(target)))


def _batch_total(g, loss):
    """3-d operands give one loss per batch entry; sum them to a scalar."""
    return loss if loss.value.ndim == 0 else g.reduce_sum(loss)


# Each entry builds one op into a fresh graph and returns the scalar seed.
def _build_matmul(g, rng):
    # positive operands: gradient entries are sums without cancellation
    a = g.input("a", rng.uniform(0.5, 1.5, size=(3, 4)))
    b = g.input("b", rng.uniform(0.5, 1.5, size=(4, 2)))
    return _se_target(g, g.matmul(a, b), rng)


def _build_transpose(g, rng):
    a = g.input("a", rng.normal(size=(3, 4)))
    return _se_target(g, g.transpose(a), rng)


def _build_add(g, rng):
    a = g.input("a", rng.normal(size=(3, 4)))
    b = g.input("b", rng.normal(size=(3, 4)))
    return _se_target(g, g.add(a, b), rng)


def _build_add_row_bias(g, rng):
    a = g.input("a", rng.normal(size=(3, 4)))
    b = g.input("b", rng.normal(size=(1, 4)))
    return _se_target(g, g.add(a, b), rng)


def _build_scale(g, rng):
    a = g.input("a", rng.normal(size=(3, 4)))
    return _se_target(g, g.scale(a, -1.7), rng)


def _softmax_target(g, node, rng, axis):
    """Offset target with one dominant entry per row (or column).

    A softmax Jacobian removes the mean; with a single large residual
    the remaining elements stay bounded away from zero, keeping the
    relative-error formula off its noise floor.  ``axis`` is -1 (rows)
    or -2 (columns) of a 2-d or 3-d node.
    """
    off = rng.uniform(1.0, 2.0, size=node.shape)
    moved = np.moveaxis(off, axis, -1)      # view: softmax axis last
    pick = rng.integers(0, moved.shape[-1], size=moved.shape[:-1])
    np.put_along_axis(moved, pick[..., None], 15.0 + moved.max(), axis=-1)
    return _batch_total(g, g.squared_error(node, g.const(node.value + off)))


def _build_row_softmax(g, rng):
    a = g.input("a", rng.uniform(-2.0, 2.0, size=(3, 4)))
    return _softmax_target(g, g.row_softmax(a), rng, axis=-1)


def _build_col_softmax(g, rng):
    a = g.input("a", rng.uniform(-2.0, 2.0, size=(3, 4)))
    return _softmax_target(g, g.col_softmax(a), rng, axis=-2)


def _build_sigmoid(g, rng):
    # |x| <= 1.5 keeps sigmoid' bounded below
    a = g.input("a", rng.uniform(-1.5, 1.5, size=(3, 4)))
    return _se_target(g, g.sigmoid(a), rng)


def _build_relu(g, rng):
    # keep points away from the kink: FD straddles it otherwise
    x = rng.normal(size=(3, 4))
    a = g.input("a", x + np.sign(x) * 0.05)
    return _se_target(g, g.relu(a), rng)


def _build_layer_norm(g, rng, batch=None):
    """Layer norm with a target crafted against its null directions.

    The input Jacobian annihilates per-row constants and rescalings, so
    a generic upstream gradient leaves some input-gradient elements
    near zero. Choosing the residual orthogonal to those directions,
    with per-element magnitudes bounded below, keeps the whole audit
    off the relative-error noise floor.
    """
    d = 6
    pattern = rng.permutation(np.array([-2.2, -1.3, -0.6, 0.6, 1.3, 2.2]))
    rows = 4 if batch else 3
    x = pattern * rng.uniform(0.8, 1.2, size=(rows, 1)) \
        + rng.uniform(-0.5, 0.5, size=(rows, 1))
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    xhat = (x - mu) / np.sqrt(var + 1e-5)
    q = np.sign(xhat)
    qp = q - xhat * (q * xhat).mean(axis=1, keepdims=True)
    gamma_v = rng.uniform(0.5, 1.5, size=(1, d))

    if batch is not None:      # rows split over a leading batch axis
        x, qp = x.reshape(batch, -1, d), qp.reshape(batch, -1, d)
    a = g.input("a", x)
    gamma = g.input("gamma", gamma_v)
    beta = g.input("beta", rng.normal(size=(1, d)))
    y = g.layer_norm(a, gamma, beta)
    off = (y.value.size / (2.0 * (batch or 1))) * qp / gamma_v
    return _batch_total(g, g.squared_error(y, g.const(y.value + off)))


def _build_gru(g, rng, lead=(2,)):
    # positive regime: h > tanh range and positive weights keep every
    # adjoint term single-signed, so no gradient element cancels to zero
    d = 3
    x = g.input("x", rng.uniform(0.3, 1.3, size=lead + (d,)))
    h = g.input("h", rng.uniform(1.5, 2.5, size=lead + (d,)))
    mats = [g.input(nm, rng.uniform(0.15, 0.45, size=(d, d)))
            for nm in ("wz", "uz", "wr", "ur", "wn", "un")]
    bias = [g.input(nm, rng.uniform(0.05, 0.25, size=(1, d)))
            for nm in ("bz", "br", "bn")]
    out = g.gru_cell(x, h, mats[0], mats[1], bias[0], mats[2], mats[3],
                     bias[1], mats[4], mats[5], bias[2])
    return _se_target(g, out, rng)


def _build_mean_pool(g, rng):
    a = g.input("a", rng.normal(size=(5, 4)))
    return _se_target(g, g.mean_pool(a), rng)


def _build_concat_rows(g, rng):
    a = g.input("a", rng.normal(size=(2, 4)))
    b = g.input("b", rng.normal(size=(3, 4)))
    return _se_target(g, g.concat(a, b, axis=0), rng)


def _build_concat_cols(g, rng):
    a = g.input("a", rng.normal(size=(3, 2)))
    b = g.input("b", rng.normal(size=(3, 4)))
    return _se_target(g, g.concat(a, b, axis=1), rng)


def _build_mul(g, rng):
    # partners bounded away from zero so neither gradient vanishes
    sa = np.where(rng.random(size=(3, 4)) < 0.5, -1.0, 1.0)
    sb = np.where(rng.random(size=(3, 4)) < 0.5, -1.0, 1.0)
    a = g.input("a", sa * rng.uniform(0.5, 1.5, size=(3, 4)))
    b = g.input("b", sb * rng.uniform(0.5, 1.5, size=(3, 4)))
    return _se_target(g, g.mul(a, b), rng)


def _build_squared_error(g, rng):
    a = g.input("a", rng.normal(size=(3, 4)))
    b = g.input("b", a.value + rng.uniform(1.0, 2.0, size=(3, 4)))
    return g.squared_error(a, b)


def _build_cosine(g, rng, batch=None):
    # b is a fixed-angle rotation of a per row: the orthogonal residual
    # driving the gradient is then bounded away from zero
    rows = 4 * (batch or 1)
    av = rng.normal(size=(rows, 5))
    ahat = av / np.linalg.norm(av, axis=1, keepdims=True)
    q = np.where(np.arange(5) % 2 == 0, 1.0, -1.0) * np.ones((rows, 5))
    p = q - ahat * (q * ahat).sum(axis=1, keepdims=True)
    phat = p / np.linalg.norm(p, axis=1, keepdims=True)
    theta = 1.0
    bv = (np.cos(theta) * ahat + np.sin(theta) * phat) \
        * rng.uniform(1.0, 2.0, size=(rows, 1))
    av = av * rng.uniform(1.0, 2.0, size=(rows, 1))
    if batch is not None:
        av, bv = av.reshape(batch, -1, 5), bv.reshape(batch, -1, 5)
    a = g.input("a", av)
    b = g.input("b", bv)
    return _batch_total(g, g.cosine(a, b))


def _build_log(g, rng):
    a = g.input("a", rng.uniform(0.4, 3.0, size=(3, 4)))
    return _se_target(g, g.log(a), rng)


def _build_exp(g, rng):
    a = g.input("a", rng.uniform(-1.5, 1.5, size=(3, 4)))
    return _se_target(g, g.exp(a), rng)


def _build_clamp(g, rng):
    # interior points only: the pass-through region is where grads flow
    a = g.input("a", rng.uniform(-1.4, 1.4, size=(3, 4)))
    return _se_target(g, g.clamp(a, -2.0, 2.0), rng)


def _build_gather_rows(g, rng):
    a = g.input("a", rng.normal(size=(5, 3)))
    # repeated index exercises adjoint accumulation
    return _se_target(g, g.gather_rows(a, [4, 0, 2, 0]), rng)


def _build_reduce_sum(g, rng):
    a = g.input("a", rng.uniform(0.5, 1.5, size=(3, 4)))
    return g.reduce_sum(a)


def _positive(rng, shape):
    return rng.uniform(0.5, 1.5, size=shape)


def _build_matmul_batched(g, rng):
    a = g.input("a", _positive(rng, (2, 3, 4)))
    b = g.input("b", _positive(rng, (2, 4, 2)))
    return _se_target(g, g.matmul(a, b), rng)


def _build_matmul_shared_right(g, rng):
    # a weight shared by every batch entry
    a = g.input("a", _positive(rng, (2, 3, 4)))
    b = g.input("b", _positive(rng, (4, 2)))
    return _se_target(g, g.matmul(a, b), rng)


def _build_matmul_shared_left(g, rng):
    # shared queries against per-entry keys
    a = g.input("a", _positive(rng, (3, 4)))
    b = g.input("b", _positive(rng, (2, 4, 2)))
    return _se_target(g, g.matmul(a, b), rng)


def _build_transpose_3d(g, rng):
    a = g.input("a", rng.normal(size=(2, 3, 4)))
    return _se_target(g, g.transpose(a), rng)


def _build_reshape(g, rng):
    a = g.input("a", rng.normal(size=(3, 4)))
    return _se_target(g, g.reshape(a, (2, 3, 2)), rng)


def _build_add_broadcast(g, rng):
    # b broadcasts over the batch axis and along its length-1 last axis
    a = g.input("a", rng.normal(size=(2, 3, 4)))
    b = g.input("b", rng.normal(size=(3, 1)))
    return _se_target(g, g.add(a, b), rng)


def _build_mul_broadcast(g, rng):
    sa = np.where(rng.random(size=(2, 3, 4)) < 0.5, -1.0, 1.0)
    a = g.input("a", sa * rng.uniform(0.5, 1.5, size=(2, 3, 4)))
    b = g.input("b", rng.uniform(0.5, 1.5, size=(2, 3, 1)))
    return _se_target(g, g.mul(a, b), rng)


def _build_row_softmax_3d(g, rng):
    a = g.input("a", rng.uniform(-2.0, 2.0, size=(2, 3, 4)))
    return _softmax_target(g, g.row_softmax(a), rng, axis=-1)


def _build_col_softmax_3d(g, rng):
    a = g.input("a", rng.uniform(-2.0, 2.0, size=(2, 3, 4)))
    return _softmax_target(g, g.col_softmax(a), rng, axis=-2)


def _build_reciprocal(g, rng):
    a = g.input("a", rng.uniform(0.5, 2.0, size=(3, 4)))
    return _se_target(g, g.reciprocal(a), rng)


def _build_sum_last(g, rng):
    a = g.input("a", rng.normal(size=(2, 3, 4)))
    return _se_target(g, g.sum(a, axis=-1), rng)


def _build_sum_rows(g, rng):
    a = g.input("a", rng.normal(size=(3, 4)))
    return _se_target(g, g.sum(a, axis=0), rng)


def _build_mean_pool_3d(g, rng):
    a = g.input("a", rng.normal(size=(2, 5, 4)))
    return _se_target(g, g.mean_pool(a), rng)


def _build_concat_3d(g, rng):
    a = g.input("a", rng.normal(size=(2, 2, 4)))
    b = g.input("b", rng.normal(size=(2, 3, 4)))
    return _se_target(g, g.concat(a, b, axis=-2), rng)


def _build_squared_error_3d(g, rng):
    a = g.input("a", rng.normal(size=(2, 3, 4)))
    b = g.input("b", a.value + rng.uniform(1.0, 2.0, size=(2, 3, 4)))
    return g.reduce_sum(g.squared_error(a, b))


OP_BUILDERS = {
    "matmul": _build_matmul,
    "matmul_batched": _build_matmul_batched,
    "matmul_shared_right": _build_matmul_shared_right,
    "matmul_shared_left": _build_matmul_shared_left,
    "transpose_3d": _build_transpose_3d,
    "reshape": _build_reshape,
    "add_broadcast": _build_add_broadcast,
    "mul_broadcast": _build_mul_broadcast,
    "row_softmax_3d": _build_row_softmax_3d,
    "col_softmax_3d": _build_col_softmax_3d,
    "reciprocal": _build_reciprocal,
    "sum_last": _build_sum_last,
    "sum_rows": _build_sum_rows,
    "layer_norm_3d": lambda g, rng: _build_layer_norm(g, rng, batch=2),
    "gru_cell_3d": lambda g, rng: _build_gru(g, rng, lead=(2, 2)),
    "mean_pool_3d": _build_mean_pool_3d,
    "concat_3d": _build_concat_3d,
    "squared_error_3d": _build_squared_error_3d,
    "cosine_3d": lambda g, rng: _build_cosine(g, rng, batch=2),
    "transpose": _build_transpose,
    "add": _build_add,
    "add_row_bias": _build_add_row_bias,
    "scale": _build_scale,
    "row_softmax": _build_row_softmax,
    "col_softmax": _build_col_softmax,
    "sigmoid": _build_sigmoid,
    "relu": _build_relu,
    "layer_norm": _build_layer_norm,
    "gru_cell": _build_gru,
    "mean_pool": _build_mean_pool,
    "concat_rows": _build_concat_rows,
    "concat_cols": _build_concat_cols,
    "mul": _build_mul,
    "squared_error": _build_squared_error,
    "cosine": _build_cosine,
    "log": _build_log,
    "exp": _build_exp,
    "clamp": _build_clamp,
    "gather_rows": _build_gather_rows,
    "reduce_sum": _build_reduce_sum,
}


@pytest.mark.parametrize("op_name", sorted(OP_BUILDERS))
def test_op_gradients_match_finite_differences(op_name):
    builder = OP_BUILDERS[op_name]
    for dtype, step, tol in MODES:
        worst = 0.0
        for point in range(N_POINTS):
            rng = np.random.default_rng(_seed(op_name, point))
            g = Graph(dtype=dtype)
            seed = builder(g, rng)
            worst = max(worst, finite_diff_check(g, seed, step=step))
        assert worst < tol, f"{op_name} {np.dtype(dtype).name}: {worst:.3g}"


def test_finite_diff_exact_for_linear_function():
    # sum(x) via matmul with a ones column; integer points and a
    # power-of-two step make the central difference exact.
    for dtype in (np.float32, np.float64):
        g = Graph(dtype=dtype)
        x = g.input("x", np.arange(1.0, 7.0).reshape(1, 6))
        total = g.matmul(x, g.const(np.ones((6, 1))))
        assert finite_diff_check(g, total, step=2.0**-13) == 0.0


def test_stop_gradient_identity_forward_zero_backward():
    rng = np.random.default_rng(7)
    g = Graph(dtype=np.float64)
    x = g.input("x", rng.normal(size=(3, 3)))
    sg = g.stop_gradient(x)
    assert np.array_equal(sg.value, x.value)
    loss = g.squared_error(sg, g.const(np.zeros((3, 3))))
    grads = backward(g, loss)
    assert np.all(grads["x"] == 0.0)


def test_stop_gradient_blocks_only_its_branch():
    rng = np.random.default_rng(8)
    g = Graph(dtype=np.float64)
    x = g.input("x", rng.normal(size=(2, 2)))
    direct = g.squared_error(x, g.const(np.zeros((2, 2))))
    blocked = g.squared_error(g.stop_gradient(x), g.const(np.zeros((2, 2))))
    loss = g.add(direct, blocked)
    grads = backward(g, loss)
    expected = 2.0 / x.value.size * x.value
    np.testing.assert_allclose(grads["x"], expected, rtol=1e-12)


def test_unreachable_input_gets_zero_gradient():
    g = Graph(dtype=np.float64)
    x = g.input("x", np.ones((2, 2)))
    y = g.input("y", np.ones((3, 3)))
    loss = g.squared_error(x, g.const(np.zeros((2, 2))))
    grads = backward(g, loss)
    assert grads["y"].shape == (3, 3)
    assert np.all(grads["y"] == 0.0)


def test_softmax_rows_and_cols_sum_to_one():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 7)) * 4
    g = Graph(dtype=np.float32)
    xn = g.input("x", x)
    rs = g.row_softmax(xn).value
    cs = g.col_softmax(xn).value
    np.testing.assert_allclose(rs.sum(axis=1), 1.0, atol=1e-6)
    np.testing.assert_allclose(cs.sum(axis=0), 1.0, atol=1e-6)
    assert rs.min() > 0 and cs.min() > 0


def test_layer_norm_row_statistics():
    rng = np.random.default_rng(4)
    g = Graph(dtype=np.float64)
    x = g.input("x", rng.normal(size=(6, 32)) * 3 + 1)
    y = g.layer_norm(x, g.input("g", np.ones((1, 32))),
                     g.input("b", np.zeros((1, 32)))).value
    np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-10)
    np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-4)


def test_sigmoid_values_and_stability():
    g = Graph(dtype=np.float64)
    x = g.input("x", np.array([[-800.0, 0.0, 800.0]]))
    y = g.sigmoid(x).value
    np.testing.assert_allclose(y, [[0.0, 0.5, 1.0]], atol=1e-12)


def test_forward_replay_matches_fresh_build():
    def build(g, xv, wv):
        x = g.input("x", xv)
        w = g.input("w", wv)
        h = g.relu(g.matmul(x, w))
        out = g.row_softmax(h)
        g.mark("out", out)
        return out

    rng = np.random.default_rng(5)
    x1, w1 = rng.normal(size=(3, 4)), rng.normal(size=(4, 4))
    x2, w2 = rng.normal(size=(3, 4)), rng.normal(size=(4, 4))
    g1 = Graph(dtype=np.float32)
    build(g1, x1, w1)
    replayed = forward(g1, {"x": x2, "w": w2})["out"]
    g2 = Graph(dtype=np.float32)
    fresh = build(g2, x2, w2)
    assert np.array_equal(replayed, fresh.value)


# stop_gradient has no FD audit (its adjoint is zero by design), but it
# replays like every other op.
REPLAY_BUILDERS = {
    **OP_BUILDERS,
    "stop_gradient": lambda g, rng: g.stop_gradient(
        g.input("a", rng.normal(size=(3, 4)))),
}


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("op_name", sorted(REPLAY_BUILDERS))
def test_forward_replay_matches_eager_build(op_name):
    """Replay under the build-time bindings reproduces every eager node
    value, and every saved intermediate, bit for bit."""
    assert set(OP_KINDS) == {"input", "const"} | set(_FORWARD)
    assert set(_BACKWARD) <= set(_FORWARD)
    for dtype in (np.float32, np.float64):
        g = Graph(dtype=dtype)
        REPLAY_BUILDERS[op_name](g, np.random.default_rng(_seed(op_name, 0)))
        values = list(g._values)
        saved = list(g._saved)
        forward(g, {})
        for i in range(g.num_nodes):
            assert _same_bits(values[i], g._values[i]), (op_name, i)
            if saved[i] is not None:
                assert all(_same_bits(a, b)
                           for a, b in zip(saved[i], g._saved[i])), (op_name, i)


def test_forward_is_deterministic():
    rng = np.random.default_rng(6)
    g = Graph(dtype=np.float32)
    x = g.input("x", rng.normal(size=(4, 4)))
    g.mark("y", g.row_softmax(g.matmul(x, x)))
    xv = rng.normal(size=(4, 4))
    a = forward(g, {"x": xv})["y"].copy()
    b = forward(g, {"x": xv})["y"]
    assert np.array_equal(a, b)


def test_gather_rows_values_and_duplicates():
    g = Graph(dtype=np.float32)
    x = g.input("x", np.arange(12.0).reshape(4, 3))
    got = g.gather_rows(x, [3, 1, 3]).value
    np.testing.assert_array_equal(got, x.value[[3, 1, 3]])


def test_shape_errors_raise_graph_error():
    g = Graph(dtype=np.float32)
    a = g.input("a", np.ones((2, 3)))
    b = g.input("b", np.ones((2, 3)))
    with pytest.raises(GraphError):
        g.matmul(a, b)
    with pytest.raises(GraphError):
        g.add(a, g.const(np.ones((3, 2))))
    with pytest.raises(GraphError):
        g.gather_rows(a, [5])
    with pytest.raises(GraphError):
        g.clamp(a, 2.0, -2.0)


def test_non_finite_rejected_with_node_id():
    g = Graph(dtype=np.float32)
    with pytest.raises(GraphError):
        g.input("x", np.array([[np.inf]]))
    g2 = Graph(dtype=np.float32)
    x = g2.input("x", np.array([[-1.0]]))
    with pytest.raises(GraphError, match=r"node 1\b"):
        g2.log(x)
    big = g2.const(np.array([[1000.0]]))
    with np.errstate(over="ignore"), \
            pytest.raises(GraphError, match=r"node 2\b"):
        g2.exp(big)
    # a rejected op records nothing
    assert g2.num_nodes == 2


def test_forward_rejects_unknown_input():
    g = Graph(dtype=np.float32)
    g.input("x", np.ones((1, 1)))
    with pytest.raises(GraphError):
        forward(g, {"nope": np.ones((1, 1))})


def test_backward_rejects_non_scalar_seed():
    g = Graph(dtype=np.float32)
    x = g.input("x", np.ones((2, 2)))
    with pytest.raises(GraphError):
        backward(g, x)


def test_duplicate_input_name_rejected():
    g = Graph(dtype=np.float32)
    g.input("x", np.ones((1, 1)))
    with pytest.raises(GraphError):
        g.input("x", np.ones((1, 1)))


def test_madd_count_matmul():
    g = Graph(dtype=np.float32)
    a = g.input("a", np.ones((3, 5)))
    b = g.input("b", np.ones((5, 7)))
    before = g.total_madds()
    g.matmul(a, b)
    assert g.total_madds() - before == 3 * 5 * 7


def test_ancestors_reachability():
    g = Graph(dtype=np.float32)
    x = g.input("x", np.ones((2, 2)))
    y = g.input("y", np.ones((2, 2)))
    z = g.mul(x, x)
    anc = g.ancestors(z)
    assert x.idx in anc and z.idx in anc and y.idx not in anc


def test_cosine_degenerate_row_flagged_and_zero_grad():
    g = Graph(dtype=np.float64)
    a = g.input("a", np.array([[1.0, 0.0], [0.0, 0.0]]))
    b = g.input("b", np.array([[1.0, 0.0], [1.0, 1.0]]))
    c = g.cosine(a, b)
    assert list(g.degenerate_rows(c)) == [1]
    grads = backward(g, c)
    assert np.all(grads["a"][1] == 0.0)
    np.testing.assert_allclose(float(c.value), 0.5)


def test_fd_cone_replay_matches_full_replay_bitwise():
    """finite_diff_check replays only the perturbed input's descendant
    cone; the resulting quotients must equal a whole-graph replay exactly."""
    rng = np.random.default_rng(_seed("cone", 0))
    g = Graph(dtype=np.float64)
    x = g.input("x", rng.normal(size=(3, 4)))
    w1 = g.input("w1", rng.normal(size=(4, 4)))
    w2 = g.input("w2", rng.normal(size=(4, 2)))
    h = g.row_softmax(g.matmul(x, w1))
    shared = g.add(h, g.sigmoid(h))          # shared subexpression
    y = g.matmul(shared, w2)
    loss = g.reduce_sum(g.mul(y, y))

    step = 1e-4
    fast = finite_diff_check(g, loss, step=step)

    # reference: full forward() replay for every stencil evaluation
    analytic = backward(g, loss)
    shadow = g.clone(np.float64)
    base = {n: shadow._values[shadow._inputs[n]].copy()
            for n in g.input_names()}
    worst = 0.0
    for name in g.input_names():
        a = base[name]
        for k in range(a.size):
            vals = []
            for delta in (-2.0 * step, -step, step, 2.0 * step):
                xp = a.copy()
                xp.flat[k] += delta
                forward(shadow, {name: xp})
                vals.append(shadow._values[loss.idx].item())
            f_m2, f_m1, f_p1, f_p2 = vals
            num = ((f_m2 - f_p2) + 8.0 * (f_p1 - f_m1)) / (12.0 * step)
            an = float(analytic[name].flat[k])
            worst = max(worst, abs(num - an) / max(abs(num), abs(an), 1e-8))
        forward(shadow, {name: a})
    assert fast == worst
    assert fast < 1e-7
