import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from conftest import finite_diff_check, graph_nodes
from diffetm import autodiff as ad


def param(store, name, values):
    return store.add(name, np.asarray(values, dtype=np.float64))


class TestPrimitives:
    def test_softmax_symmetry(self):
        out = ad.softmax_rows(ad.Tensor([[0.0, 0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.25, 0.25, 0.25]])

    def test_relu(self):
        # ReLU is fused into the affine layers
        out = ad.affine(ad.Tensor([[1.0]]), ad.Tensor([[-1.0, 2.0]]), ad.Tensor([[0.0, 0.0]]), relu=True)
        np.testing.assert_array_equal(out.data, [[0.0, 2.0]])

    def test_affine_hand_computed(self):
        out = ad.affine(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[1.0], [1.0]]), ad.Tensor([[0.5]]))
        np.testing.assert_allclose(out.data, [[3.5]])

    def test_affine_shape_mismatch(self):
        with pytest.raises(ad.ShapeMismatch):
            ad.affine(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[1.0]]), ad.Tensor([[0.0]]))
        with pytest.raises(ad.ShapeMismatch, match="bias must be 1x2"):
            ad.affine(ad.Tensor([[1.0]]), ad.Tensor([[1.0, 2.0]]), ad.Tensor([[0.0, 0.0, 0.0]]))

    @pytest.mark.parametrize("op", [ad.add, ad.gaussian_kl], ids=["add", "gaussian_kl"])
    def test_elementwise_ops_refuse_unequal_shapes(self, op):
        with pytest.raises(ad.ShapeMismatch, match=f"{op.__name__}: \\(1, 2\\) vs \\(2, 1\\)"):
            op(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[1.0], [2.0]]))

    @pytest.mark.parametrize("shape", [(), (3,), (1, 2, 2)], ids=["0-d", "1-d", "3-d"])
    def test_tensor_data_must_be_2d(self, shape):
        with pytest.raises(ad.ShapeMismatch, match=f"expected a 2-D array, got ndim={len(shape)}"):
            ad.Tensor(np.zeros(shape))

    def test_item_needs_a_1x1_tensor(self):
        assert ad.Tensor([[2.5]]).item() == 2.5
        with pytest.raises(ad.NotScalar, match=r"item\(\) on a \(1, 2\) tensor"):
            ad.Tensor([[1.0, 2.0]]).item()

    def test_hadamard_shape_mismatch(self):
        with pytest.raises(ad.ShapeMismatch):
            ad.hadamard(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[1.0]]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_clamp_min_keeps_nan_and_gives_positive_zero(self, dtype):
        x = ad.Tensor(np.array([[np.nan, -0.0, -1.0, 2.0, -np.inf]], dtype=dtype))
        # the fused ReLU: 1 * x + (-0.0) is x again
        fused = ad.affine(ad.Tensor(np.ones((1, 1), dtype)), x, ad.Tensor(np.full((1, 5), -0.0, dtype)), relu=True)
        for out, floor in ((fused, 0.0), (ad.clamp_min(x, 0.0), 0.0), (ad.clamp_min(x, 1e-12), 1e-12)):
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
        # p is the pre-activation of a fused ReLU layer: its bias, after 0 @ 0
        zero_x, zero_w = ad.Tensor(np.zeros((1, 1))), ad.Tensor(np.zeros((1, 2)))
        ad.backward(ad.sum_all(ad.affine(zero_x, zero_w, p, relu=True)))
        np.testing.assert_array_equal(p.grad, [[0.0, 1.0]])

    def test_not_scalar(self):
        p = ad.Tensor([[1.0, 2.0]], requires=True)
        with pytest.raises(ad.NotScalar):
            ad.backward(ad.clamp_min(p, 0.0))

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
        rows, cols = np.nonzero(target)

        def loss():
            h = ad.affine(x, w1, b1, relu=True)
            h = ad.affine(h, w2, b2, relu=True)
            probs = ad.softmax_rows(ad.affine(h, w3, b3))
            return ad.scale(ad.log_likelihood(probs, rows, cols, target[rows, cols], 1e-30), -1.0)

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

    def case(name, shape, make_build, positive=False, away_from_zero=False, below_floor=None):
        raw = rng.normal(size=shape)
        if positive:
            raw = np.abs(raw) + 0.5
        if away_from_zero:
            raw = np.where(np.abs(raw) < 0.1, raw + 0.3, raw)
        if below_floor is not None:
            raw[below_floor] = 0.05
        return name, raw, make_build()

    def weighted(op_of, *const_shapes, weight_shape):
        consts = [c(*s) for s in const_shapes]
        w = c(*weight_shape)
        return lambda p: ad.sum_all(ad.hadamard(op_of(p, *consts), w))

    def log_likelihood():
        # five of the six entries, one of them under the floor of 0.1
        rows, cols = [0, 1, 1, 0, 1], [2, 0, 2, 0, 1]
        counts = rng.uniform(0.5, 3.0, size=5)
        return lambda p: ad.log_likelihood(p, rows, cols, counts, 0.1)

    def gaussian_kl(p_is_mu):
        other = c(3, 4)
        return lambda p: ad.gaussian_kl(p, other) if p_is_mu else ad.gaussian_kl(other, p)

    return [
        case("affine_w", (4, 4), lambda: weighted(
            lambda p, x, b: ad.affine(x, p, b), (3, 4), (1, 4), weight_shape=(3, 4))),
        case("affine_b", (1, 4), lambda: weighted(
            lambda p, x, w: ad.affine(x, w, p), (3, 4), (4, 4), weight_shape=(3, 4))),
        case("clamp_0", (3, 4), lambda: weighted(
            lambda p: ad.clamp_min(p, 0.0), weight_shape=(3, 4)), away_from_zero=True),
        case("softmax", (3, 4), lambda: weighted(
            lambda p: ad.softmax_rows(p), weight_shape=(3, 4))),
        case("hadamard", (3, 4), lambda: weighted(
            lambda p: ad.hadamard(p, p), weight_shape=(3, 4))),
        case("add", (3, 4), lambda: weighted(
            lambda p, q: ad.add(p, q), (3, 4), weight_shape=(3, 4))),
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
        case("sum_all", (5, 2), lambda: (lambda p: ad.scale(ad.sum_all(p), 0.7))),
        # (2, 3): all six coordinates are probed, the absent and the floored
        # entry included
        case("log_likelihood", (2, 3), log_likelihood, positive=True, below_floor=(1, 1)),
        case("gaussian_kl_mu", (3, 4), lambda: gaussian_kl(True)),
        case("gaussian_kl_logvar", (3, 4), lambda: gaussian_kl(False)),
    ]


@pytest.mark.parametrize("seed", range(5))
def test_every_primitive_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    for name, raw, build in _primitive_losses(rng):
        store = ad.ParamStore()
        p = param(store, name, raw)
        err = finite_diff_check(store, name, lambda: build(p), max_coords=6, seed=seed)
        assert err <= 1e-4, f"{name}: rel err {err}"


def _sparse_input(rng, rows, cols, density, dtype=np.float64):
    """A (rows, cols) CSC array with about density of its entries nonzero."""
    dense = np.where(rng.random((rows, cols)) < density, rng.random((rows, cols)), 0.0)
    return sparse.csc_array(dense.astype(dtype))


class TestSparseAffine:
    def test_gradients_match_finite_differences_in_float64(self):
        rng = np.random.default_rng(4)
        x = _sparse_input(rng, 6, 10, 0.3)
        weights = ad.Tensor(rng.normal(size=(6, 4)))
        store = ad.ParamStore()
        w = param(store, "w1", rng.normal(size=(10, 4)) * 0.5)
        b = param(store, "b1", rng.normal(size=(1, 4)) * 0.5)

        def loss():
            return ad.sum_all(ad.hadamard(ad.exp(ad.sparse_affine(x, w, b)), weights))

        for name in ("w1", "b1"):
            assert finite_diff_check(store, name, loss, max_coords=12) <= 1e-7, name

    @pytest.mark.parametrize("dtype,rel", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_matches_the_dense_affine(self, dtype, rel):
        rng = np.random.default_rng(7)
        x = _sparse_input(rng, 40, 60, 0.1, dtype)
        w0, b0 = rng.normal(size=(60, 16)).astype(dtype), rng.normal(size=(1, 16)).astype(dtype)
        g = ad.Tensor(rng.normal(size=(40, 16)).astype(dtype))
        outs = []
        for layer, x_in in ((ad.sparse_affine, x), (ad.affine, ad.Tensor(x.toarray()))):
            w, b = ad.Tensor(w0, requires=True), ad.Tensor(b0, requires=True)
            y = layer(x_in, w, b)
            # backward releases y's data; read it before
            y_data = y.data
            ad.backward(ad.sum_all(ad.hadamard(y, g)))
            outs.append((y_data, w.grad, b.grad))
        for got, want in zip(*outs):
            assert got.dtype == dtype
            np.testing.assert_allclose(got, want, rtol=rel, atol=rel * np.abs(want).max())

    def test_input_gets_no_gradient(self):
        x = sparse.csc_array(np.eye(3))
        w = ad.Tensor(np.ones((3, 2)))
        b = ad.Tensor(np.zeros((1, 2)), requires=True)
        out = ad.sparse_affine(x, w, b)
        assert out._parents == (w, b)
        ad.backward(ad.sum_all(out))
        np.testing.assert_array_equal(b.grad, [[3.0, 3.0]])

    def test_shape_mismatch(self):
        x = sparse.csc_array(np.eye(3))
        with pytest.raises(ad.ShapeMismatch, match="sparse_affine: x is"):
            ad.sparse_affine(x, ad.Tensor(np.ones((2, 2))), ad.Tensor(np.zeros((1, 2))))
        with pytest.raises(ad.ShapeMismatch, match="bias"):
            ad.sparse_affine(x, ad.Tensor(np.ones((3, 2))), ad.Tensor(np.zeros((1, 3))))

    def test_outputs_do_not_depend_on_the_blas_thread_count(self):
        # the desk width: the first-layer products that differ between BLAS
        # thread counts when x is dense
        script = textwrap.dedent("""
            import hashlib
            import numpy as np
            from scipy import sparse
            from diffetm import autodiff as ad

            rng = np.random.default_rng(0)
            b, v, h = 1000, 2070, 800
            dense = np.where(rng.random((b, v)) < 67 / v, rng.random((b, v)), 0.0)
            x = sparse.csc_array(dense.astype(np.float32))
            w = ad.Tensor(rng.normal(size=(v, h)).astype(np.float32), requires=True)
            bias = ad.Tensor(np.zeros((1, h), np.float32))
            y = ad.sparse_affine(x, w, bias)
            y_bytes = y.data.tobytes()
            g = ad.Tensor(rng.normal(size=(b, h)).astype(np.float32))
            ad.backward(ad.sum_all(ad.hadamard(y, g)))
            print(hashlib.sha256(y_bytes + w.grad.tobytes()).hexdigest())
        """)
        src = str(Path(ad.__file__).parents[1])
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
            digests.add(proc.stdout.strip())
        assert len(digests) == 1


def _kinked_layer_inputs(dtype):
    """x, w and b whose pre-activation x @ w + b has a NaN column (from b),
    a +0.0 column (w and b zero) and, in the rows of underflowing x, -0.0
    entries (the products tiny * -tiny underflow to -0.0, and b adds -0.0)."""
    rng = np.random.default_rng(2)
    tiny = np.finfo(dtype).tiny
    x = rng.normal(size=(5, 6)).astype(dtype)
    x[3:] = tiny
    w = rng.normal(size=(6, 5)).astype(dtype)
    w[:, 1] = 0.0
    w[:, 2] = -tiny
    b = rng.normal(size=(1, 5)).astype(dtype)
    b[0, :3] = np.nan, 0.0, -0.0
    return x, w, b


class TestFusedRelu:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("sparse_input", [False, True])
    def test_matches_clamp_min_of_the_layer_bit_for_bit(self, dtype, sparse_input):
        x0, w0, b0 = _kinked_layer_inputs(dtype)
        if sparse_input:
            # empty rows, whose pre-activation is b: NaN and zeros (scipy
            # sums into +0.0, so this layer makes no -0.0)
            x0[3:] = 0.0
        g = ad.Tensor(np.random.default_rng(3).normal(size=(5, 5)).astype(dtype))
        results = []
        for fused in (True, False):
            w, b = ad.Tensor(w0, requires=True), ad.Tensor(b0, requires=True)
            if sparse_input:
                x = sparse.csc_array(x0)
                y = ad.sparse_affine(x, w, b, relu=True) if fused else ad.clamp_min(ad.sparse_affine(x, w, b), 0.0)
                leaves = (w, b)
            else:
                x = ad.Tensor(x0, requires=True)
                y = ad.affine(x, w, b, relu=True) if fused else ad.clamp_min(ad.affine(x, w, b), 0.0)
                leaves = (x, w, b)
                if not fused:
                    pre = y._parents[0].data
                    assert np.isnan(pre).any()
                    assert (np.signbit(pre) & (pre == 0.0)).any() and (~np.signbit(pre) & (pre == 0.0)).any()
            values = y.data.copy()
            ad.backward(ad.sum_all(ad.hadamard(y, g)))
            results.append([values] + [t.grad for t in leaves])
        for got, want in zip(*results):
            assert got.dtype == dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sparse_input", [False, True])
    def test_gradients_match_finite_differences_in_float64(self, sparse_input):
        rng = np.random.default_rng(6)
        store = ad.ParamStore()
        w = param(store, "w", rng.normal(size=(8, 5)))
        b = param(store, "b", rng.normal(size=(1, 5)))
        weights = ad.Tensor(rng.normal(size=(6, 5)))
        if sparse_input:
            x = _sparse_input(rng, 6, 8, 0.4)
            names = ("w", "b")
        else:
            x = param(store, "x", rng.normal(size=(6, 8)))
            names = ("x", "w", "b")
        layer = ad.sparse_affine if sparse_input else ad.affine
        pre = layer(x, w, b).data
        assert (pre > 0.0).any() and (pre < 0.0).any()
        # a central difference of step 1e-5 stays on one side of every kink
        assert np.abs(pre).min() > 1e-3

        def loss():
            return ad.sum_all(ad.hadamard(layer(x, w, b, relu=True), weights))

        for name in names:
            assert finite_diff_check(store, name, loss, max_coords=12) <= 1e-7, name


class TestConsumedGraph:
    def _mlp_loss(self, store, x, target):
        h = ad.sparse_affine(x, store["w1"], store["b1"], relu=True)
        h = ad.affine(h, store["w2"], store["b2"], relu=True)
        probs = ad.softmax_rows(ad.matmul(h, ad.transpose(store["w3"])))
        return ad.scale(ad.log_likelihood(probs, [0, 1, 2], [1, 0, 2], target, 1e-30), -1.0)

    def _store(self):
        rng = np.random.default_rng(5)
        store = ad.ParamStore()
        for name, shape in (("w1", (7, 6)), ("b1", (1, 6)), ("w2", (6, 4)), ("b2", (1, 4)), ("w3", (3, 4))):
            param(store, name, rng.normal(size=shape))
        return store, _sparse_input(rng, 3, 7, 0.5), rng.uniform(0.1, 1.0, size=3)

    def test_backward_releases_interior_data_and_closures_and_keeps_the_leaves(self):
        store, x, target = self._store()
        out = self._mlp_loss(store, x, target)
        nodes = graph_nodes(out)
        leaves = {id(t): t.data for t in nodes if not t._parents}
        assert set(leaves) == {id(t) for _, t in store.items()}
        value = out.item()
        ad.backward(out)
        for t in nodes:
            assert t._backward is None
            if id(t) in leaves:
                assert t.data is leaves[id(t)]
            elif t is not out:
                assert t.data is None
        # the 1x1 output keeps its value, and the walk the tracer makes still works
        assert out.item() == value
        assert len(graph_nodes(out)) == len(nodes)

    def test_a_second_backward_raises_and_moves_no_gradient(self):
        store, x, target = self._store()
        out = self._mlp_loss(store, x, target)
        ad.backward(out)
        grads = {name: t.grad.copy() for name, t in store.items()}
        with pytest.raises(ad.GraphConsumed):
            ad.backward(out)
        for name, t in store.items():
            assert t.grad.tobytes() == grads[name].tobytes()

    @pytest.mark.parametrize(
        "read", [lambda t: t.item(), lambda t: t.rows, lambda t: t.cols], ids=["item", "rows", "cols"]
    )
    def test_reading_a_released_node_raises(self, read):
        store, x, _ = self._store()
        released = ad.sum_all(ad.sparse_affine(x, store["w1"], store["b1"], relu=True))
        out = ad.scale(released, 0.5)
        ad.backward(out)
        with pytest.raises(ad.GraphConsumed, match="released"):
            read(released)
        read(out)  # the 1x1 output keeps its value

    def test_repr_of_a_released_node_says_so(self):
        store, x, _ = self._store()
        released = ad.sum_all(ad.sparse_affine(x, store["w1"], store["b1"], relu=True))
        out = ad.scale(released, 0.5)
        ad.backward(out)
        assert repr(released) == "Tensor(shape=released, requires=True)"
        assert repr(out) == "Tensor(shape=(1, 1), requires=True)"

    def test_a_graph_sharing_a_consumed_node_raises_before_any_gradient_moves(self):
        store, x, target = self._store()
        h = ad.sparse_affine(x, store["w1"], store["b1"], relu=True)
        first = ad.sum_all(h)
        # the second graph reaches b2 through a fresh node before the shared h
        second = ad.sum_all(ad.affine(h, store["w2"], store["b2"]))
        ad.backward(first)
        grads = {name: t.grad.copy() for name, t in store.items()}
        with pytest.raises(ad.GraphConsumed):
            ad.backward(second)
        for name, t in store.items():
            assert t.grad.tobytes() == grads[name].tobytes()


class TestGather:
    """log_likelihood reads x at the listed entries and scatters their
    gradient back."""

    def test_reads_only_the_entries(self):
        x = np.full((3, 4), np.nan)
        x[[2, 0, 1], [3, 1, 1]] = 0.5, 1e-20, 2.0
        counts = np.array([1.0, 2.0, 3.0])
        out = ad.log_likelihood(ad.Tensor(x), np.array([2, 0, 1]), np.array([3, 1, 1]), counts, 1e-12)
        assert out.data.shape == (1, 1)
        # 1e-20 is read at the floor
        expected = math.log(0.5) + 2.0 * math.log(1e-12) + 3.0 * math.log(2.0)
        assert out.item() == pytest.approx(expected, rel=1e-14)

    def test_backward_scatters_into_zeros(self):
        store = ad.ParamStore()
        p = param(store, "p", np.ones((2, 3)))
        ad.backward(ad.log_likelihood(p, [1, 0, 0], [2, 0, 2], np.array([1.0, -0.0, 4.0]), 1e-12))
        np.testing.assert_array_equal(p.grad, [[-0.0, 0.0, 4.0], [0.0, 0.0, 1.0]])
        # the entries' gradient lands as is, the sign of a zero included
        assert np.signbit(p.grad[0, 0]) and not np.signbit(p.grad[0, 1])

    def test_float32_stays_float32(self):
        store = ad.ParamStore()
        p = store.add("p", np.ones((2, 2), dtype=np.float32))
        out = ad.log_likelihood(p, [0, 1], [1, 0], np.ones(2, dtype=np.float32), 1e-12)
        out_dtype = out.data.dtype
        ad.backward(out)
        assert out_dtype == p.grad.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_reads_no_value_of_its_input(self, dtype):
        """The gradient is the same, bit for bit, when the input's value is
        released after the forward, as model.forward_batch releases X'."""
        rng = np.random.default_rng(4)
        values = rng.dirichlet(np.ones(9), size=5).astype(dtype)
        values[2, 3] = 1e-14  # below the floor: no gradient there
        rows, cols = np.nonzero(rng.integers(0, 2, size=values.shape))
        rows, cols = np.append(rows, 2), np.append(cols, 3)
        counts = rng.integers(1, 5, size=rows.size).astype(dtype)

        def grad(release):
            store = ad.ParamStore()
            p = store.add("p", values)
            x = ad.scale(p, 1.0)  # an interior node, the loss its one reader
            out = ad.log_likelihood(x, rows, cols, counts, 1e-12)
            if release:
                x.data = None
            ad.backward(out)
            return p.grad

        kept, released = grad(False), grad(True)
        assert released.dtype == dtype
        assert released.tobytes() == kept.tobytes()

    def test_index_shapes_must_agree(self):
        x = ad.Tensor(np.ones((2, 2)))
        with pytest.raises(ad.ShapeMismatch):
            ad.log_likelihood(x, [0, 1], [0], np.ones(2), 1e-12)
        with pytest.raises(ad.ShapeMismatch):
            ad.log_likelihood(x, [0, 1], [0, 1], np.ones(3), 1e-12)


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
        ad.backward(ad.scale(ad.sum_all(ad.clamp_min(ad.hadamard(p, p), 0.0)), 0.5))
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


class TestAdamInBackward:
    def test_steps_the_store_and_leaves_other_leaves_their_gradients(self):
        store = ad.ParamStore()
        p = param(store, "p", [[1.0, 2.0]])
        q = ad.Tensor([[3.0, -1.0]], requires=True)  # a leaf outside the store
        state = ad.AdamState(lr=0.1)
        ad.backward(ad.sum_all(ad.hadamard(p, q)), store, state)
        # q's gradient is p before its step, and q is not stepped
        np.testing.assert_array_equal(q.grad, [[1.0, 2.0]])
        np.testing.assert_array_equal(q.data, [[3.0, -1.0]])
        np.testing.assert_allclose(p.data, [[0.9, 2.1]], rtol=1e-9)
        assert ad._is_zero_grad(p.grad)
        assert (state.t, list(state.m), list(state.v)) == (1, ["p"], ["p"])

    def test_a_parameter_the_walk_misses_takes_the_step_adam_update_gives(self):
        def run(in_backward):
            store = ad.ParamStore()
            p, r = param(store, "p", [[1.0, -2.0]]), param(store, "r", [[0.5]])
            unreached = param(store, "u", [[4.0]])
            state = ad.AdamState(lr=0.1)
            graphs = [
                lambda: ad.add(ad.sum_all(ad.hadamard(p, p)), ad.sum_all(ad.exp(r))),
                lambda: ad.sum_all(ad.hadamard(p, p)),  # r has moments but no gradient
            ]
            for graph in graphs:
                if in_backward:
                    ad.backward(graph(), store, state)
                else:
                    ad.backward(graph())
                    ad.adam_update(store, state)
            assert "u" not in state.m and unreached.data.tolist() == [[4.0]]
            return [t.data.tobytes() for _, t in store.items()], state

        params, state = run(True)
        ref_params, ref_state = run(False)
        assert params == ref_params
        assert state.t == ref_state.t == 2
        for name in ("p", "r"):
            assert state.m[name].tobytes() == ref_state.m[name].tobytes()
            assert state.v[name].tobytes() == ref_state.v[name].tobytes()

    def test_a_consumed_graph_raises_before_any_step(self):
        store = ad.ParamStore()
        p = param(store, "p", [[1.0]])
        out = ad.sum_all(ad.hadamard(p, p))
        ad.backward(out)
        state = ad.AdamState(lr=0.1)
        with pytest.raises(ad.GraphConsumed):
            ad.backward(out, store, state)
        assert (state.t, state.m) == (0, {})

    def test_the_store_and_the_state_come_together(self):
        store = ad.ParamStore()
        p = param(store, "p", [[1.0]])
        with pytest.raises(ValueError, match="together"):
            ad.backward(ad.sum_all(p), store)


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
