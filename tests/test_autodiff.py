import numpy as np
import pytest

from drcbench.autodiff import (
    Adadelta,
    BatchNormState,
    Tensor,
    add,
    batchnorm,
    center_crop,
    concat,
    conv1d,
    conv2d,
    crop,
    dense,
    dropout,
    flatten,
    glorot_uniform,
    global_avg_pool,
    load_checkpoint,
    maxpool1d,
    maxpool2d,
    mean_axis,
    mse_loss,
    relu,
    save_checkpoint,
    sub,
)
from drcbench.errors import FormatError, GraphError, NumericError


def numeric_grad(f, arrays, index, h=1e-5):
    """Central finite differences of f w.r.t. arrays[index]."""
    base = [a.copy() for a in arrays]
    grad = np.zeros_like(base[index])
    flat = grad.reshape(-1)
    for i in range(flat.size):
        hi = [a.copy() for a in base]
        lo = [a.copy() for a in base]
        hi[index].reshape(-1)[i] += h
        lo[index].reshape(-1)[i] -= h
        flat[i] = (f(*hi) - f(*lo)) / (2 * h)
    return grad


def check_gradients(build, arrays, rtol=1e-4, atol=1e-7):
    """build(*tensors) -> scalar Tensor; compares autodiff to finite differences."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    assert out.data.shape == ()
    out.backward()

    def scalar(*arrs):
        fresh = [Tensor(a.copy(), requires_grad=False) for a in arrs]
        return float(build(*fresh).data)

    for idx, t in enumerate(tensors):
        expected = numeric_grad(scalar, arrays, idx)
        assert t.grad is not None
        np.testing.assert_allclose(t.grad, expected, rtol=rtol, atol=atol)


def rng_arrays(*shapes, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return [rng.normal(0.0, scale, s) for s in shapes]


def sq(t):
    """Squared-error scalar of a flattened tensor against zeros."""
    f = flatten(t)
    return mse_loss(f, np.zeros(f.data.shape))


# -- forward-value oracles ---------------------------------------------------


def test_conv2d_shape_example():
    x = Tensor(np.zeros((1, 128, 248, 1)))
    w = Tensor(np.zeros((3, 3, 1, 10)))
    b = Tensor(np.zeros(10))
    assert conv2d(x, w, b).data.shape == (1, 126, 246, 10)


def test_conv2d_matches_window_sums():
    # all-ones kernel turns convolution into sliding window sums
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 6, 7, 1))
    out = conv2d(Tensor(x), Tensor(np.ones((3, 3, 1, 1))), Tensor(np.zeros(1)))
    for i in range(4):
        for j in range(5):
            assert out.data[0, i, j, 0] == pytest.approx(x[0, i : i + 3, j : j + 3, 0].sum())


def test_conv1d_matches_window_sums():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 9, 1))
    out = conv1d(Tensor(x), Tensor(np.ones((3, 1, 1))), Tensor(np.zeros(1)))
    for i in range(7):
        assert out.data[0, i, 0] == pytest.approx(x[0, i : i + 3, 0].sum())


def test_identity_kernel_is_identity():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 4, 5, 3))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0] = np.eye(3)
    out = conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, x)


def test_mse_loss_value_and_grad():
    loss = mse_loss(Tensor(np.array([1.0, 2.0])), np.array([0.0, 0.0]))
    assert float(loss.data) == pytest.approx(2.5)
    x = Tensor(np.array([2.0]), requires_grad=True)
    mse_loss(x, np.array([0.0])).backward()
    np.testing.assert_allclose(x.grad, [4.0])


def test_maxpool2d_forward_and_routing():
    x = np.array([[1.0, 2.0, 5.0, 3.0], [4.0, 0.0, 1.0, 2.0]])[None, :, :, None]
    t = Tensor(x, requires_grad=True)
    out = maxpool2d(t, window=(2, 2))
    np.testing.assert_allclose(out.data[0, :, :, 0], [[4.0, 5.0]])
    sq(out).backward()
    # gradient reaches only the argmax positions
    nonzero = np.nonzero(t.grad[0, :, :, 0])
    assert set(zip(*map(list, nonzero))) == {(1, 0), (0, 2)}


def test_maxpool1d_forward():
    x = np.array([3.0, 1.0, 2.0, 9.0, 0.0, 4.0])[None, :, None]
    out = maxpool1d(Tensor(x), window=3)
    np.testing.assert_allclose(out.data[0, :, 0], [3.0, 9.0])


def test_global_avg_pool_value():
    x = np.arange(24, dtype=np.float64).reshape(1, 2, 3, 4)
    out = global_avg_pool(Tensor(x))
    np.testing.assert_allclose(out.data, x.mean(axis=(1, 2)))


# -- gradients vs finite differences ----------------------------------------


def test_grad_add_sub_relu():
    a, b = rng_arrays((3, 4), (3, 4), seed=1)
    check_gradients(lambda x, y: sq(add(x, y)), [a, b])
    check_gradients(lambda x, y: sq(sub(x, y)), [a, b])
    (c,) = rng_arrays((4, 5), seed=2)
    c += np.where(np.abs(c) < 0.1, 0.3, 0.0)  # keep clear of the relu kink
    check_gradients(lambda x: sq(relu(x)), [c])


def test_grad_shared_input_accumulates():
    x = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    out = add(x, x)
    mse_loss(out, np.zeros(2)).backward()
    # d/dx sum((2x)^2)/n = 4x * 2/n
    np.testing.assert_allclose(x.grad, 4.0 * x.data)


def test_grad_dense():
    x, w, b = rng_arrays((2, 3), (3, 4), (4,), seed=3)
    check_gradients(lambda t, u, v: sq(dense(t, u, v)), [x, w, b])


def test_grad_conv2d():
    x, w, b = rng_arrays((2, 5, 6, 2), (3, 3, 2, 3), (3,), seed=4)
    check_gradients(lambda t, u, v: sq(conv2d(t, u, v)), [x, w, b])


def test_grad_conv1d():
    x, w, b = rng_arrays((2, 9, 2), (3, 2, 4), (4,), seed=6)
    check_gradients(lambda t, u, v: sq(conv1d(t, u, v)), [x, w, b])


def test_grad_maxpool2d():
    (x,) = rng_arrays((2, 4, 6, 3), seed=7)
    check_gradients(lambda t: sq(maxpool2d(t)), [x])


def test_grad_maxpool1d():
    (x,) = rng_arrays((2, 9, 2), seed=8)
    check_gradients(lambda t: sq(maxpool1d(t, window=3)), [x])


def test_grad_crop_concat_mean():
    a, b = rng_arrays((2, 7, 3), (2, 5, 3), seed=9)
    def build(x, y):
        xc = center_crop(x, 1, 5)
        joined = concat([xc, y], axis=2)
        return sq(mean_axis(joined, 1))
    check_gradients(build, [a, b])


def test_grad_crop_edges():
    (a,) = rng_arrays((1, 6, 2), seed=10)
    check_gradients(lambda x: sq(crop(x, 1, 2, 5)), [a])


def test_grad_global_avg_pool():
    (x,) = rng_arrays((2, 3, 4, 2), seed=11)
    check_gradients(lambda t: sq(global_avg_pool(t)), [x])


def test_grad_batchnorm_training():
    x, g, b = rng_arrays((8, 5, 3), (3,), (3,), seed=12)
    g += 1.5  # keep gamma away from zero
    def build(t, u, v):
        state = BatchNormState(3, dtype=np.float64)
        out = batchnorm(t, u, v, state, training=True)
        flat = flatten(out)
        return mse_loss(flat, np.ones(flat.data.shape))
    check_gradients(build, [x, g, b], rtol=5e-4, atol=1e-6)


# -- batchnorm semantics ------------------------------------------------------


def test_batchnorm_normalizes_batch():
    rng = np.random.default_rng(13)
    x = rng.normal(3.0, 10.0, (64, 7, 4))
    gamma = Tensor(np.full(4, 2.0))
    beta = Tensor(np.full(4, -1.0))
    state = BatchNormState(4, dtype=np.float64)
    out = batchnorm(Tensor(x), gamma, beta, state, training=True).data
    np.testing.assert_allclose(out.mean(axis=(0, 1)), -1.0, atol=1e-9)
    np.testing.assert_allclose(out.reshape(-1, 4).std(axis=0), 2.0, atol=1e-4)


def test_batchnorm_running_stats_and_inference():
    rng = np.random.default_rng(14)
    x = rng.normal(0.5, 2.0, (32, 6, 2))
    gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
    state = BatchNormState(2, dtype=np.float64)
    batchnorm(Tensor(x), gamma, beta, state, training=True)
    batch_mean = x.reshape(-1, 2).mean(axis=0)
    batch_var = x.reshape(-1, 2).var(axis=0)
    np.testing.assert_allclose(state.running_mean, 0.1 * batch_mean, atol=1e-12)
    np.testing.assert_allclose(state.running_var, 0.9 * 1.0 + 0.1 * batch_var, atol=1e-12)
    # inference uses the running statistics, not the batch
    y = np.full((4, 6, 2), 7.0)
    out = batchnorm(Tensor(y), gamma, beta, state, training=False).data
    expected = (7.0 - state.running_mean) / np.sqrt(state.running_var + 1e-5)
    np.testing.assert_allclose(out[0, 0], expected, atol=1e-12)


def test_batchnorm_constant_channel_maps_to_beta():
    x = np.full((16, 3, 2), 5.0)
    state = BatchNormState(2, dtype=np.float64)
    out = batchnorm(Tensor(x), Tensor(np.ones(2)), Tensor(np.full(2, 0.25)), state,
                    training=True).data
    np.testing.assert_allclose(out, 0.25, atol=1e-9)


# -- dropout -----------------------------------------------------------------


def test_dropout_seeded_and_inverted():
    x = Tensor(np.ones((4, 100)))
    a = dropout(x, 0.3, np.random.default_rng(99), training=True).data
    b = dropout(x, 0.3, np.random.default_rng(99), training=True).data
    np.testing.assert_array_equal(a, b)
    kept = a[a != 0.0]
    np.testing.assert_allclose(kept, 1.0 / 0.7)
    assert 0.5 < (a != 0).mean() < 0.9


def test_dropout_inference_is_identity():
    x = Tensor(np.ones((3, 5)))
    out = dropout(x, 0.5, np.random.default_rng(0), training=False)
    np.testing.assert_array_equal(out.data, x.data)
    out_p0 = dropout(x, 0.0, np.random.default_rng(0), training=True)
    np.testing.assert_array_equal(out_p0.data, x.data)


# -- graph discipline and numeric guards --------------------------------------


def test_backward_is_consume_once():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = mse_loss(x, np.zeros(2))
    loss.backward()
    with pytest.raises(GraphError):
        loss.backward()


def test_backward_needs_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(GraphError):
        add(x, x).backward()


def test_non_finite_forward_raises():
    big = Tensor(np.array([1e308]), requires_grad=True)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="produced by add"):
        add(big, big)


def test_non_finite_input_rejected():
    with pytest.raises(NumericError):
        Tensor(np.array([np.nan]))


def test_glorot_uniform_bounds():
    rng = np.random.default_rng(0)
    w = glorot_uniform((50, 40), fan_in=50, fan_out=40, rng=rng)
    limit = np.sqrt(6.0 / 90.0)
    assert w.shape == (50, 40)
    assert np.all(np.abs(w) <= limit)
    assert np.abs(w).max() > 0.8 * limit  # actually spans the range


# -- checkpoint container ------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    arrays = {
        "block1.conv.w": rng.normal(size=(3, 3, 1, 5)).astype(np.float32),
        "embed.b": rng.normal(size=(50,)).astype(np.float32),
        "scalar": np.array(2.5, dtype=np.float32),
    }
    path = tmp_path / "model.drcw"
    save_checkpoint(path, arrays)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(arrays)  # insertion order preserved
    for name in arrays:
        np.testing.assert_array_equal(loaded[name], arrays[name])


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "m.drcw"
    save_checkpoint(path, {"w": np.zeros(3, dtype=np.float32)})
    blob = bytearray(path.read_bytes())
    blob[0:4] = b"WXYZ"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    path = tmp_path / "m.drcw"
    save_checkpoint(path, {"w": np.ones((4, 4), dtype=np.float32)})
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(FormatError):
        load_checkpoint(path)


# -- optimizer ----------------------------------------------------------------


def test_adadelta_first_step_closed_form():
    # rho=0.95, eps=1e-6, g=1: delta = -sqrt(eps) / sqrt(0.05 + eps)
    p = Tensor(np.array([0.0]), requires_grad=True)
    p.grad = np.array([1.0])
    opt = Adadelta({"p": p})
    opt.step()
    expected = -np.sqrt(1e-6) / np.sqrt(0.05 + 1e-6)
    assert expected == pytest.approx(-0.0044720912343108364, rel=1e-12)
    assert float(p.data[0]) == pytest.approx(expected, rel=1e-12)


def test_adadelta_five_steps_match_recurrence():
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adadelta({"p": p})
    seen = []
    prev = 0.0
    for _ in range(5):
        p.grad = np.array([1.0])
        before = float(p.data[0])
        opt.step()
        seen.append(float(p.data[0]) - before)
    # independent scalar simulation of the update rule
    eg = ed = 0.0
    expected = []
    for _ in range(5):
        eg = 0.95 * eg + 0.05 * 1.0
        dx = -np.sqrt(ed + 1e-6) / np.sqrt(eg + 1e-6) * 1.0
        ed = 0.95 * ed + 0.05 * dx * dx
        expected.append(dx)
    np.testing.assert_allclose(seen, expected, rtol=1e-12)
    np.testing.assert_allclose(
        expected,
        [-0.0044721, -0.0045291, -0.0045676, -0.0045970, -0.0046210],
        atol=1e-7,
    )


def test_adadelta_skips_missing_grads_and_rejects_nonfinite():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adadelta({"p": p})
    opt.step()  # no grad: no movement
    np.testing.assert_array_equal(p.data, [1.0])
    p.grad = np.array([np.inf])
    with pytest.raises(NumericError):
        opt.step()


def test_adadelta_zero_grad():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([2.0])
    opt = Adadelta({"p": p})
    opt.zero_grad()
    assert p.grad is None
