import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import finite_diff_check
from diffetm import autodiff as ad


def param(store, name, values):
    return store.add(name, np.asarray(values, dtype=np.float64))


class TestPrimitives:
    def test_softmax_symmetry(self):
        out = ad.softmax_rows(ad.Tensor([[0.0, 0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.25, 0.25, 0.25]])

    def test_relu(self):
        out = ad.relu(ad.Tensor([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 2.0]])

    def test_affine_hand_computed(self):
        out = ad.affine(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[1.0], [1.0]]), ad.Tensor([[0.5]]))
        np.testing.assert_allclose(out.data, [[3.5]])

    def test_log_rows_domain(self):
        with pytest.raises(ad.DomainError):
            ad.log_rows(ad.Tensor([[1.0, 0.0]]))

    def test_affine_shape_mismatch(self):
        with pytest.raises(ad.ShapeMismatch):
            ad.affine(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[1.0]]), ad.Tensor([[0.0]]))

    def test_hadamard_shape_mismatch(self):
        with pytest.raises(ad.ShapeMismatch):
            ad.hadamard(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[1.0]]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_clamp_min_keeps_nan_and_gives_positive_zero(self, dtype):
        x = ad.Tensor(np.array([[np.nan, -0.0, -1.0, 2.0, -np.inf]], dtype=dtype))
        for out, floor in ((ad.relu(x), 0.0), (ad.clamp_min(x, 0.0), 0.0), (ad.clamp_min(x, 1e-12), 1e-12)):
            assert out.data.dtype == dtype
            assert np.isnan(out.data[0, 0])
            np.testing.assert_array_equal(out.data[0, 1:], np.array([floor, floor, 2.0, floor], dtype=dtype))
            assert not np.signbit(out.data).any()


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, (3, 5), elements=st.floats(-40, 40)))
def test_softmax_rows_sum_to_one(x):
    out = ad.softmax_rows(ad.Tensor(x))
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    arrays(np.float64, (2, 4), elements=st.floats(-40, 40)),
    st.floats(-30, 30),
)
def test_softmax_shift_invariance(x, c):
    base = ad.softmax_rows(ad.Tensor(x)).data
    shifted = ad.softmax_rows(ad.Tensor(x + c)).data
    np.testing.assert_allclose(shifted, base, atol=1e-12)


class TestBackward:
    def test_square_gradient(self):
        store = ad.ParamStore()
        p = param(store, "p", [[3.0]])
        ad.backward(ad.sum_all(ad.hadamard(p, p)))
        np.testing.assert_allclose(p.grad, [[6.0]])

    def test_relu_subgradient(self):
        store = ad.ParamStore()
        p = param(store, "p", [[-1.0, 4.0]])
        ad.backward(ad.sum_all(ad.relu(p)))
        np.testing.assert_array_equal(p.grad, [[0.0, 1.0]])

    def test_not_scalar(self):
        p = ad.Tensor([[1.0, 2.0]], requires=True)
        with pytest.raises(ad.NotScalar):
            ad.backward(ad.relu(p))

    def test_three_layer_network_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        store = ad.ParamStore()
        w1 = param(store, "w1", rng.normal(size=(6, 5)))
        b1 = param(store, "b1", rng.normal(size=(1, 5)))
        w2 = param(store, "w2", rng.normal(size=(5, 4)))
        b2 = param(store, "b2", rng.normal(size=(1, 4)))
        w3 = param(store, "w3", rng.normal(size=(4, 3)))
        b3 = param(store, "b3", rng.normal(size=(1, 3)))
        x = ad.Tensor(rng.normal(size=(7, 6)))
        target = rng.uniform(0.1, 1.0, size=(7, 3))

        def loss():
            h = ad.relu(ad.affine(x, w1, b1))
            h = ad.relu(ad.affine(h, w2, b2))
            probs = ad.softmax_rows(ad.affine(h, w3, b3))
            return ad.scale(ad.sum_all(ad.hadamard(ad.Tensor(target), ad.log_rows(probs))), -1.0)

        for name in store.names():
            assert finite_diff_check(store, name, loss, max_coords=6) <= 1e-4

    def test_backward_is_linear(self):
        rng = np.random.default_rng(3)
        store = ad.ParamStore()
        p = param(store, "p", rng.normal(size=(3, 3)))
        c1 = ad.Tensor(rng.normal(size=(3, 3)))
        c2 = ad.Tensor(rng.normal(size=(3, 3)))

        def l1():
            return ad.sum_all(ad.hadamard(p, c1))

        def l2():
            return ad.sum_all(ad.hadamard(ad.exp(p), c2))

        a, b = 1.7, -0.6
        store.zero_grads()
        ad.backward(l1())
        g1 = p.grad.copy()
        store.zero_grads()
        ad.backward(l2())
        g2 = p.grad.copy()
        store.zero_grads()
        ad.backward(ad.add(ad.scale(l1(), a), ad.scale(l2(), b)))
        np.testing.assert_allclose(p.grad, a * g1 + b * g2, atol=1e-10)

    def test_gradients_accumulate_until_zeroed(self):
        store = ad.ParamStore()
        p = param(store, "p", [[2.0]])
        ad.backward(ad.sum_all(ad.hadamard(p, p)))
        ad.backward(ad.sum_all(ad.hadamard(p, p)))
        np.testing.assert_allclose(p.grad, [[8.0]])
        store.zero_grads()
        np.testing.assert_array_equal(p.grad, [[0.0]])


def _primitive_losses(rng):
    """Scalar losses exercising each primitive's gradient, kink-free.

    All constants are drawn once so the loss closures stay deterministic
    across the repeated evaluations of the finite-difference probe.
    """
    def c(*shape):
        return ad.Tensor(rng.normal(size=shape))

    def case(name, shape, make_build, positive=False, away_from_zero=False):
        raw = rng.normal(size=shape)
        if positive:
            raw = np.abs(raw) + 0.5
        if away_from_zero:
            raw = np.where(np.abs(raw) < 0.1, raw + 0.3, raw)
        return name, raw, make_build()

    def weighted(op_of, *const_shapes, weight_shape):
        consts = [c(*s) for s in const_shapes]
        w = c(*weight_shape)
        return lambda p: ad.sum_all(ad.hadamard(op_of(p, *consts), w))

    return [
        case("affine_w", (4, 4), lambda: weighted(
            lambda p, x, b: ad.affine(x, p, b), (3, 4), (1, 4), weight_shape=(3, 4))),
        case("affine_b", (1, 4), lambda: weighted(
            lambda p, x, w: ad.affine(x, w, p), (3, 4), (4, 4), weight_shape=(3, 4))),
        case("relu", (3, 4), lambda: weighted(
            lambda p: ad.relu(p), weight_shape=(3, 4)), away_from_zero=True),
        case("softmax", (3, 4), lambda: weighted(
            lambda p: ad.softmax_rows(p), weight_shape=(3, 4))),
        case("log", (3, 4), lambda: weighted(
            lambda p: ad.log_rows(p), weight_shape=(3, 4)), positive=True),
        case("hadamard", (3, 4), lambda: weighted(
            lambda p: ad.hadamard(p, p), weight_shape=(3, 4))),
        case("add", (3, 4), lambda: weighted(
            lambda p, q: ad.add(p, q), (3, 4), weight_shape=(3, 4))),
        case("sub", (3, 4), lambda: weighted(
            lambda p, q: ad.sub(p, q), (3, 4), weight_shape=(3, 4))),
        case("scale", (3, 4), lambda: weighted(
            lambda p: ad.scale(p, -1.8), weight_shape=(3, 4))),
        case("exp", (3, 4), lambda: weighted(
            lambda p: ad.exp(p), weight_shape=(3, 4))),
        case("matmul", (4, 3), lambda: weighted(
            lambda p, x: ad.matmul(x, p), (2, 4), weight_shape=(2, 3))),
        case("transpose", (3, 4), lambda: weighted(
            lambda p: ad.transpose(p), weight_shape=(4, 3))),
        case("clamp", (3, 4), lambda: weighted(
            lambda p: ad.clamp_min(p, -0.05), weight_shape=(3, 4)), away_from_zero=True),
        case("add_scalar", (3, 4), lambda: weighted(
            lambda p: ad.add_scalar(p, 2.5), weight_shape=(3, 4))),
        case("sum_all", (5, 2), lambda: (lambda p: ad.scale(ad.sum_all(p), 0.7))),
        case("gather", (3, 4), lambda: weighted(
            lambda p: ad.gather(p, [0, 2, 1, 2, 0], [3, 0, 1, 2, 0]), weight_shape=(1, 5))),
    ]


@pytest.mark.parametrize("seed", range(5))
def test_every_primitive_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    for name, raw, build in _primitive_losses(rng):
        store = ad.ParamStore()
        p = param(store, name, raw)
        err = finite_diff_check(store, name, lambda: build(p), max_coords=6, seed=seed)
        assert err <= 1e-4, f"{name}: rel err {err}"


class TestGather:
    def test_picks_the_entries_as_one_row(self):
        x = ad.Tensor(np.arange(12.0).reshape(3, 4))
        out = ad.gather(x, np.array([2, 0, 1]), np.array([3, 1, 1]))
        np.testing.assert_array_equal(out.data, [[11.0, 1.0, 5.0]])

    def test_backward_scatters_into_zeros(self):
        store = ad.ParamStore()
        p = param(store, "p", np.ones((2, 3)))
        w = ad.Tensor([[1.0, -0.0, 4.0]])
        ad.backward(ad.sum_all(ad.hadamard(ad.gather(p, [1, 0, 0], [2, 0, 2]), w)))
        np.testing.assert_array_equal(p.grad, [[-0.0, 0.0, 4.0], [0.0, 0.0, 1.0]])
        # the gathered gradient lands as is, the sign of a zero included
        assert np.signbit(p.grad[0, 0]) and not np.signbit(p.grad[0, 1])

    def test_float32_stays_float32(self):
        store = ad.ParamStore()
        p = store.add("p", np.ones((2, 2), dtype=np.float32))
        out = ad.gather(p, [0, 1], [1, 0])
        ad.backward(ad.sum_all(out))
        assert out.data.dtype == p.grad.dtype == np.float32

    def test_index_shapes_must_agree(self):
        with pytest.raises(ad.ShapeMismatch):
            ad.gather(ad.Tensor(np.ones((2, 2))), [0, 1], [0])


class TestZeroGrads:
    def test_zeroed_gradient_is_a_read_only_view_without_memory(self):
        store = ad.ParamStore()
        p = param(store, "p", np.ones((300, 400)))
        store.zero_grads()
        assert not p.grad.flags.writeable
        assert p.grad.strides == (0, 0)
        np.testing.assert_array_equal(p.grad, np.zeros((300, 400)))

    def test_first_gradient_is_bound_and_never_written(self):
        store = ad.ParamStore()
        p = param(store, "p", [[1.0, 2.0]])
        c = ad.Tensor([[3.0, 5.0]])
        ad.backward(ad.sum_all(ad.hadamard(p, c)))
        first = p.grad
        np.testing.assert_array_equal(first, [[3.0, 5.0]])
        ad.backward(ad.sum_all(ad.hadamard(p, c)))
        np.testing.assert_array_equal(p.grad, [[6.0, 10.0]])
        # the second gradient was added into a new array
        np.testing.assert_array_equal(first, [[3.0, 5.0]])

    def test_scaled_zero_gradient_reads_zero(self):
        store = ad.ParamStore()
        p = param(store, "p", [[1.0, 2.0]])
        store.scale_grads(0.5)
        assert store.grad_global_norm() == 0.0
        np.testing.assert_array_equal(p.grad, [[0.0, 0.0]])


class TestFiniteDiffCheck:
    def test_quadratic(self):
        store = ad.ParamStore()
        p = param(store, "p", np.arange(1.0, 7.0).reshape(2, 3))
        err = finite_diff_check(store, "p", lambda: ad.sum_all(ad.hadamard(p, p)))
        assert err <= 1e-7

    def test_runs_in_float64_and_restores_a_float32_store(self):
        store = ad.ParamStore()
        p = store.add("p", np.array([[0.1, 0.2, 0.3]], dtype=np.float32))
        q = store.add("q", np.array([[1.5]], dtype=np.float32))
        p_array, p_before, q_before = p.data, p.data.copy(), q.data.copy()
        seen = []

        def loss():
            seen.append((p.data.dtype, q.data.dtype))
            return ad.sum_all(ad.hadamard(ad.exp(p), ad.exp(p)))

        # at step 1e-5 a float32 loss would be far off the analytic gradient
        assert finite_diff_check(store, "p", loss) <= 1e-7
        assert set(seen) == {(np.dtype(np.float64),) * 2}
        assert p.data is p_array
        for t, before in ((p, p_before), (q, q_before)):
            assert t.data.dtype == np.float32
            assert t.data.tobytes() == before.tobytes()
        assert p.grad.dtype == q.grad.dtype == np.float32

    def test_constant_loss(self):
        store = ad.ParamStore()
        param(store, "p", [[1.0, 2.0]])
        err = finite_diff_check(store, "p", lambda: ad.Tensor([[4.0]]))
        assert err == 0.0


class TestDtype:
    def test_float32_kept_anything_else_float64(self):
        assert ad.Tensor(np.ones((2, 2), dtype=np.float32)).data.dtype == np.float32
        assert ad.Tensor([[1, 2]]).data.dtype == np.float64
        assert ad.Tensor(np.ones((1, 1), dtype=np.float16)).data.dtype == np.float64
        store = ad.ParamStore()
        assert store.add("a", np.ones((1, 2), dtype=np.float32)).data.dtype == np.float32
        assert store.add("b", np.ones((1, 2), dtype=np.float32)).grad.dtype == np.float32
        assert store.add("c", [[1.0]]).data.dtype == np.float64

    def test_backward_keeps_float32(self):
        store = ad.ParamStore()
        p = store.add("p", np.array([[1.0, -2.0, 3.0]], dtype=np.float32))
        # sum_all's backward and the 1x1 seed used to be float64
        ad.backward(ad.scale(ad.sum_all(ad.relu(ad.hadamard(p, p))), 0.5))
        assert p.grad.dtype == np.float32
        np.testing.assert_array_equal(p.grad, [[1.0, -2.0, 3.0]])


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        store = ad.ParamStore()
        p = param(store, "p", [[1.5, -2.5]])
        before = p.data.copy()
        state = ad.AdamState(lr=0.1)
        for _ in range(5):
            store.zero_grads()
            ad.adam_update(store, state)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_magnitude_is_learning_rate(self):
        store = ad.ParamStore()
        p = param(store, "p", [[5.0]])
        p.grad = np.array([[2.0]])
        state = ad.AdamState(lr=0.01)
        ad.adam_update(store, state)
        assert abs((5.0 - p.data[0, 0]) - 0.01) < 1e-9

    def test_constant_gradient_decreases_monotonically(self):
        store = ad.ParamStore()
        p = param(store, "p", [[1.0]])
        state = ad.AdamState(lr=0.05)
        values = [p.data[0, 0]]
        for _ in range(3):
            p.grad = np.array([[0.7]])
            ad.adam_update(store, state)
            values.append(p.data[0, 0])
        assert values[0] > values[1] > values[2] > values[3]

    def test_zero_learning_rate_is_identity(self):
        store = ad.ParamStore()
        p = param(store, "p", [[4.0, -1.0]])
        before = p.data.copy()
        p.grad = np.array([[3.0, 3.0]])
        ad.adam_update(store, ad.AdamState(lr=0.0))
        np.testing.assert_array_equal(p.data, before)

    def test_matches_the_reference_formula(self):
        rng = np.random.default_rng(4)
        store = ad.ParamStore()
        p = param(store, "p", rng.normal(size=(3, 4)))
        state = ad.AdamState(lr=0.01)
        ref, m, v = p.data.copy(), np.zeros((3, 4)), np.zeros((3, 4))
        for t in range(1, 5):
            g = rng.normal(size=(3, 4))
            p.grad = g.copy()
            ad.adam_update(store, state)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref -= 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            np.testing.assert_allclose(p.data, ref, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(state.m["p"], m, rtol=1e-12)
        np.testing.assert_allclose(state.v["p"], v, rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_blocked_step_matches_the_reference_formula_bit_for_bit(self, dtype):
        rng = np.random.default_rng(8)
        # more than three blocks with a partial last one, plus small parameters
        shapes = {"big": (3, ad.ADAM_BLOCK + 7), "w": (5, 3), "b": (1, 3), "f": (4, 6)}
        # a Fortran-ordered array is stored as a C-ordered copy, which the
        # flat blocks write through
        store = ad.ParamStore()
        for name, shape in shapes.items():
            array = rng.normal(size=shape).astype(dtype)
            store.add(name, np.asfortranarray(array) if name == "f" else array)
        assert all(t.data.flags.c_contiguous for _, t in store.items())
        state = ad.AdamState(lr=0.01)
        ref = {name: store[name].data.copy() for name in shapes}
        m = {name: np.zeros(shape, dtype) for name, shape in shapes.items()}
        v = {name: np.zeros(shape, dtype) for name, shape in shapes.items()}
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
        for t in range(1, 4):
            grads = {name: rng.normal(size=shape).astype(dtype) for name, shape in shapes.items()}
            # a transposed (non-contiguous) gradient, as transpose's backward gives
            grads["w"] = np.ascontiguousarray(grads["w"].T).T
            for name in shapes:
                store[name].grad = grads[name]
            ad.adam_update(store, state)
            for name in shapes:
                g = grads[name]
                m[name] = m[name] * b1 + g * (1.0 - b1)
                v[name] = v[name] * b2 + (g * g) * (1.0 - b2)
                step = m[name] / (np.sqrt(v[name] / (1.0 - b2 ** t)) + eps)
                ref[name] = ref[name] - step * (lr / (1.0 - b1 ** t))
                assert store[name].data.dtype == dtype
                assert store[name].data.tobytes() == ref[name].tobytes(), (name, t)
                assert state.m[name].tobytes() == m[name].tobytes(), (name, t)
                assert state.v[name].tobytes() == v[name].tobytes(), (name, t)

    def test_shared_gradient_is_not_written(self):
        store = ad.ParamStore()
        a = param(store, "a", [[1.0, 2.0]])
        b = param(store, "b", [[3.0, 4.0]])
        shared = np.array([[0.5, -0.25]])
        a.grad = b.grad = shared
        state = ad.AdamState(lr=0.1)
        ad.adam_update(store, state)
        np.testing.assert_array_equal(shared, [[0.5, -0.25]])
        # b saw the same gradient as a
        np.testing.assert_array_equal(state.m["a"], state.m["b"])
        np.testing.assert_array_equal(state.v["a"], state.v["b"])

    def test_float32_parameters_and_moments_stay_float32(self):
        store = ad.ParamStore()
        p = store.add("p", np.array([[1.0, -1.0]], dtype=np.float32))
        state = ad.AdamState(lr=0.1)
        for _ in range(2):
            p.grad = np.array([[0.3, -0.7]], dtype=np.float32)
            ad.adam_update(store, state)
        assert p.data.dtype == state.m["p"].dtype == state.v["p"].dtype == np.float32
        assert p.grad.dtype == np.float32

    def test_gradients_zeroed_after_step(self):
        store = ad.ParamStore()
        p = param(store, "p", [[1.0]])
        p.grad = np.array([[9.0]])
        ad.adam_update(store, ad.AdamState(lr=0.01))
        np.testing.assert_array_equal(p.grad, [[0.0]])


def test_param_store_rejects_duplicates():
    store = ad.ParamStore()
    store.add("w", np.zeros((1, 1)))
    with pytest.raises(ValueError, match="duplicate"):
        store.add("w", np.zeros((1, 1)))


def test_no_grad_blocks_recording():
    store = ad.ParamStore()
    p = param(store, "p", [[2.0]])
    with ad.no_grad():
        out = ad.sum_all(ad.hadamard(p, p))
    assert not out.requires
    assert out.item() == 4.0
