"""Tensor ops, gradients against finite differences, optimizers, scheduling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from nn_oracles import dense_then_relu_dropout, relu_then_dropout

from linklab import nn
from linklab.nn import Adam, Parameter, Tensor


def finite_difference_check(fn, params, h=1e-5, tol=1e-4):
    """Compare analytic gradients of scalar fn(params) with central differences."""
    loss = fn()
    loss.backward()
    grads = [np.array(p.grad) for p in params]
    for p, analytic in zip(params, grads):
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = float(fn().data)
            flat[i] = orig - h
            lo = float(fn().data)
            flat[i] = orig
            numeric[i] = (hi - lo) / (2 * h)
        numeric = numeric.reshape(p.data.shape)
        denom = np.maximum(np.abs(numeric), 1.0)
        rel = np.abs(analytic - numeric) / denom
        assert rel.max() < tol, f"gradient mismatch: {rel.max():.2e}"
        p.grad = None


class TestMatmul:
    def test_identity(self):
        x = np.array([[2.0, 3.0], [4.0, 5.0]])
        out = nn.matmul(Tensor(np.eye(2)), Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_hand_arithmetic(self):
        out = nn.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        out = nn.matmul(Tensor(a), Tensor(b)).data
        expected = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    expected[i, j] += a[i, k] * b[k, j]
        assert np.abs(out - expected).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nn.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestSoftmaxTemperature:
    def test_equal_logits_uniform(self):
        for t in (0.5, 1.0, 20.0):
            out = nn.softmax_with_temperature(Tensor(np.zeros((2, 4)) + 3.0), t)
            np.testing.assert_allclose(out.data, 0.25, atol=1e-12)

    def test_closed_form(self):
        out = nn.softmax_with_temperature(Tensor([[0.0, math.log(3.0)]]), 1.0)
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_high_temperature_against_mpmath_style_oracle(self):
        # Direct high-precision evaluation via fractions of exponentials.
        logits = np.array([[5.0, 0.0, 0.0]])
        t = 20.0
        import mpmath

        mpmath.mp.dps = 50
        ex = [mpmath.exp(mpmath.mpf(z) / t) for z in logits[0]]
        total = sum(ex)
        expected = np.array([float(e / total) for e in ex])
        out = nn.softmax_with_temperature(Tensor(logits), t).data[0]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(scale=30.0, size=(40, 6))
        for t in (0.1, 1.0, 7.0):
            out = nn.softmax_with_temperature(Tensor(logits), t).data
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
            assert np.array_equal(np.argmax(out, axis=1), np.argmax(logits, axis=1))

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            nn.softmax_with_temperature(Tensor(np.zeros((1, 2))), 0.0)
        with pytest.raises(ValueError):
            nn.softmax_with_temperature(Tensor(np.zeros((1, 2))), -1.0)


class TestCrossEntropy:
    def test_fused_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        logits = Parameter(rng.normal(size=(6, 4)))
        labels = rng.integers(0, 4, size=6)
        finite_difference_check(lambda: nn.softmax_cross_entropy(logits, labels)[0], [logits])

    def test_posteriors_match_softmax(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(5, 3))
        _, posts = nn.softmax_cross_entropy(Tensor(z), np.zeros(5, dtype=int))
        expected = nn.softmax_with_temperature(Tensor(z), 1.0).data
        np.testing.assert_allclose(posts, expected, atol=1e-12)


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = Parameter(np.array([1.0, 2.0]))
        opt = Adam([p], learning_rate=0.1)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_first_step_magnitude(self):
        p = Parameter(np.array([0.0]))
        opt = Adam([p], learning_rate=0.001)
        p.grad = np.array([1.0])
        opt.step()
        assert p.data[0] == pytest.approx(-0.001, rel=1e-6)
        assert p.grad is None

    def test_descends_quadratic(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], learning_rate=0.05)
        values = []
        for _ in range(10):
            values.append(float(p.data[0] ** 2))
            p.grad = 2.0 * p.data
            opt.step()
        values.append(float(p.data[0] ** 2))
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_step_counter_increases(self):
        p = Parameter(np.zeros(1))
        opt = Adam([p])
        for expected in (1, 2, 3):
            p.grad = np.ones(1)
            opt.step()
            assert opt.step_count == expected


class TestCosineAnneal:
    def test_endpoints(self):
        assert nn.cosine_anneal(0.1, 0, 200) == pytest.approx(0.1)
        assert nn.cosine_anneal(0.1, 200, 200) == pytest.approx(0.0, abs=1e-15)
        assert nn.cosine_anneal(0.1, 100, 200) == pytest.approx(0.05)

    def test_invalid(self):
        with pytest.raises(ValueError):
            nn.cosine_anneal(0.1, 0, 0)
        with pytest.raises(ValueError):
            nn.cosine_anneal(0.1, 5, 4)


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.ones((3, 3)))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        out = nn.relu_dropout(x, 0.0, rng=rng)
        np.testing.assert_array_equal(out.data, x.data)
        assert rng.bit_generator.state == state

    def test_inference_identity(self):
        # the default rate is the inference setting: plain ReLU, no rng
        x = Tensor(np.ones((3, 3)))
        out = nn.relu_dropout(x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_rejects_rate_one(self):
        with pytest.raises(ValueError):
            nn.relu_dropout(Tensor(np.ones(3)), 1.0, rng=np.random.default_rng(0))

    def test_rejects_bad_rate_or_missing_rng(self):
        with pytest.raises(ValueError, match=r"dropout rate must be in \[0, 1\), got -0.1"):
            nn.relu_dropout(Tensor(np.ones(3)), -0.1)
        with pytest.raises(ValueError, match="training-mode dropout needs an explicit rng"):
            nn.relu_dropout(Tensor(np.ones(3)), 0.5)

    def test_statistics(self):
        rng = np.random.default_rng(11)
        x = Tensor(np.ones((100, 1000)))
        out = nn.relu_dropout(x, 0.5, rng=rng)
        kept = np.count_nonzero(out.data) / out.data.size
        assert abs(kept - 0.5) < 0.01
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_backward_respects_mask(self):
        rng = np.random.default_rng(12)
        x = Parameter(np.ones((4, 4)))
        out = nn.relu_dropout(x, 0.5, rng=rng)
        loss = nn.matmul(nn.matmul(Tensor(np.ones((1, 4))), out), Tensor(np.ones((4, 1))))
        loss.backward()
        mask = out.data != 0.0
        np.testing.assert_allclose(x.grad[mask], 2.0)
        np.testing.assert_allclose(x.grad[~mask], 0.0)


# finite values with exact and signed zeros mixed in, so the ReLU kink and
# the sign of every zero are exercised
_values = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


def _backprop(out, g):
    """Run the tape backward from ``out``, seeded with the gradient ``g``."""
    order, seen = [], set()

    def visit(node):
        if id(node) not in seen:
            seen.add(id(node))
            for p in node._parents:
                visit(p)
            order.append(node)

    visit(out)
    out.grad = g
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def _draw_array(data, shape):
    size = int(np.prod(shape))
    return np.array(data.draw(st.lists(_values, min_size=size, max_size=size))).reshape(shape)


def _bytes(arr):
    """Shape and bytes, so signed zeros and a wrongly shaped gradient count."""
    return None if arr is None else (arr.shape, arr.tobytes())


class TestReluDropoutOracle:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 6),
           rate=st.sampled_from([0.0, 0.3, 0.5]), seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_relu_then_dropout(self, data, rows, cols, rate, seed):
        x, g = _draw_array(data, (rows, cols)), _draw_array(data, (rows, cols))
        g.setflags(write=False)
        results = []
        for op in (nn.relu_dropout, relu_then_dropout):
            leaf = Parameter(x.copy())
            out = op(leaf, rate, np.random.default_rng(seed))
            _backprop(out, g)
            results.append((_bytes(out.data), _bytes(leaf.grad)))
        assert results[0] == results[1]


class TestDenseReluDropout:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 5), fan_in=st.integers(1, 5),
           fan_out=st.integers(1, 5), rate=st.sampled_from([0.0, 0.3, 0.5]),
           h_grad=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_three_op_chain(self, data, rows, fan_in, fan_out, rate,
                                             h_grad, seed):
        h0 = _draw_array(data, (rows, fan_in))
        w0 = _draw_array(data, (fan_in, fan_out))
        b0 = _draw_array(data, (fan_out,))
        g = _draw_array(data, (rows, fan_out))
        g.setflags(write=False)
        results = []
        for op in (nn.dense_relu_dropout, dense_then_relu_dropout):
            h = Tensor(h0.copy(), requires_grad=h_grad)
            w, b = Parameter(w0.copy()), Parameter(b0.copy())
            out = op(h, w, b, rate, np.random.default_rng(seed))
            _backprop(out, g)
            results.append([_bytes(t) for t in (out.data, h.grad, w.grad, b.grad)])
        assert results[0] == results[1]
        assert (results[0][1] is None) != h_grad

    def test_rate_zero_draws_nothing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        out = nn.dense_relu_dropout(Tensor([[1.0, -2.0]]), Tensor([[1.0], [1.0]]),
                                    Tensor([0.5]), 0.0, rng)
        assert out.data.tolist() == [[0.0]]
        assert rng.bit_generator.state == state
        # the default rate is the inference setting: no rng needed
        out = nn.dense_relu_dropout(Tensor([[3.0]]), Tensor([[2.0]]), Tensor([1.0]))
        assert out.data.tolist() == [[7.0]]

    def test_rejects_bad_rate_or_missing_rng(self):
        args = (Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(4)))
        for rate in (-0.1, 1.0):
            with pytest.raises(ValueError, match=rf"dropout rate must be in \[0, 1\), got {rate}"):
                nn.dense_relu_dropout(*args, rate, np.random.default_rng(0))
        with pytest.raises(ValueError, match="training-mode dropout needs an explicit rng"):
            nn.dense_relu_dropout(*args, 0.5)

    @pytest.mark.parametrize("shapes", [((2, 3), (4, 5), (5,)), ((2, 3), (3, 4), (3,)),
                                        ((3,), (3, 4), (4,)), ((2, 3), (3, 4), (1, 4))])
    def test_rejects_shape_mismatch_naming_the_shapes(self, shapes):
        h, w, b = (Tensor(np.ones(s)) for s in shapes)
        with pytest.raises(ValueError) as err:
            nn.dense_relu_dropout(h, w, b)
        assert str(err.value) == ("dense layer shape mismatch: "
                                  f"{shapes[0]} @ {shapes[1]} + {shapes[2]}")


class TestGradientSuite:
    """Finite-difference checks for every differentiable primitive."""

    def test_matmul(self):
        rng = np.random.default_rng(21)
        a = Parameter(rng.normal(size=(3, 4)))
        b = Parameter(rng.normal(size=(4, 2)))
        labels = rng.integers(0, 2, size=3)
        finite_difference_check(lambda: nn.softmax_cross_entropy(nn.matmul(a, b), labels)[0], [a, b])

    def test_add_and_bias(self):
        rng = np.random.default_rng(22)
        a = Parameter(rng.normal(size=(3, 4)))
        b = Parameter(rng.normal(size=(3, 4)))
        bias = Parameter(rng.normal(size=4))
        labels = rng.integers(0, 4, size=3)
        finite_difference_check(
            lambda: nn.softmax_cross_entropy(nn.add(nn.add(a, b), bias), labels)[0],
            [a, b, bias],
        )

    def test_relu(self):
        rng = np.random.default_rng(23)
        a = Parameter(rng.normal(size=(3, 4)) + 0.2)
        labels = rng.integers(0, 4, size=3)
        finite_difference_check(lambda: nn.softmax_cross_entropy(nn.relu_dropout(a), labels)[0],
                                [a])

    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_dense_relu_dropout(self, rate):
        rng = np.random.default_rng(30)
        h = Parameter(rng.normal(size=(4, 3)))
        w = Parameter(rng.normal(size=(3, 5)))
        b = Parameter(rng.normal(size=5) + 0.2)
        labels = rng.integers(0, 5, size=4)
        finite_difference_check(
            lambda: nn.softmax_cross_entropy(
                nn.dense_relu_dropout(h, w, b, rate, np.random.default_rng(1)), labels)[0],
            [h, w, b],
        )

    def test_leaky_relu(self):
        rng = np.random.default_rng(24)
        a = Parameter(rng.normal(size=(3, 4)) + 0.1)
        labels = rng.integers(0, 4, size=3)
        finite_difference_check(
            lambda: nn.softmax_cross_entropy(nn.leaky_relu(a, 0.2), labels)[0], [a]
        )

    def test_scalar_mul(self):
        rng = np.random.default_rng(25)
        a = Parameter(rng.normal(size=(3, 4)))
        s = Parameter(np.array([0.7]))
        labels = rng.integers(0, 4, size=3)
        finite_difference_check(
            lambda: nn.softmax_cross_entropy(nn.scalar_mul(a, s), labels)[0], [a, s]
        )

    def test_concat(self):
        rng = np.random.default_rng(26)
        a = Parameter(rng.normal(size=(3, 2)))
        b = Parameter(rng.normal(size=(3, 3)))
        labels = rng.integers(0, 5, size=3)
        finite_difference_check(
            lambda: nn.softmax_cross_entropy(nn.concat_cols([a, b]), labels)[0], [a, b]
        )

    def test_row_slice(self):
        rng = np.random.default_rng(29)
        w = Parameter(rng.normal(size=(5, 3)))
        labels = rng.integers(0, 3, size=2)
        finite_difference_check(
            lambda: nn.softmax_cross_entropy(
                nn.add(nn.row_slice(w, 0, 2), nn.row_slice(w, 3, 5)), labels)[0], [w]
        )
        with pytest.raises(ValueError):
            nn.row_slice(w, 3, 6)

    def test_outer_sum(self):
        rng = np.random.default_rng(27)
        col = Parameter(rng.normal(size=(3, 1)))
        row = Parameter(rng.normal(size=(3, 1)))
        labels = rng.integers(0, 3, size=3)
        finite_difference_check(
            lambda: nn.softmax_cross_entropy(nn.outer_sum(col, row), labels)[0], [col, row]
        )

    def test_masked_row_softmax(self):
        rng = np.random.default_rng(28)
        scores = Parameter(rng.normal(size=(4, 4)))
        mask = np.array([
            [True, True, False, False],
            [True, True, True, False],
            [False, False, True, True],
            [True, False, False, True],
        ])
        labels = rng.integers(0, 4, size=4)
        finite_difference_check(
            lambda: nn.softmax_cross_entropy(nn.masked_row_softmax(scores, mask), labels)[0],
            [scores],
        )

    def test_softmax_temperature_gradient(self):
        rng = np.random.default_rng(29)
        logits = Parameter(rng.normal(size=(3, 4)))
        labels = rng.integers(0, 4, size=3)
        finite_difference_check(
            lambda: nn.softmax_cross_entropy(nn.softmax_with_temperature(logits, 3.0), labels)[0],
            [logits],
        )


def _apply(op, *arrays):
    params = [Parameter(a) for a in arrays]
    return op(*params), params


_MASK = np.array([[True, True, False], [True, True, True], [False, True, True]])

# Every op of the gradient suite, applied to fresh parameters drawn from
# the given rng: name -> (output, differentiable inputs).
_SUITE_OPS = {
    "matmul": lambda r: _apply(nn.matmul, r.normal(size=(3, 4)), r.normal(size=(4, 2))),
    "add": lambda r: _apply(nn.add, r.normal(size=(3, 4)), r.normal(size=(3, 4))),
    "add_bias": lambda r: _apply(nn.add, r.normal(size=(3, 4)), r.normal(size=4)),
    "relu_dropout": lambda r: _apply(
        lambda x: nn.relu_dropout(x, 0.5, np.random.default_rng(1)), r.normal(size=(3, 4))),
    "dense_relu_dropout": lambda r: _apply(
        lambda h, w, b: nn.dense_relu_dropout(h, w, b, 0.5, np.random.default_rng(1)),
        r.normal(size=(3, 4)), r.normal(size=(4, 2)), r.normal(size=2)),
    "leaky_relu": lambda r: _apply(nn.leaky_relu, r.normal(size=(3, 4))),
    "scalar_mul": lambda r: _apply(nn.scalar_mul, r.normal(size=(3, 4)), r.normal(size=1)),
    "concat_cols": lambda r: _apply(lambda a, b: nn.concat_cols([a, b]),
                                    r.normal(size=(3, 2)), r.normal(size=(3, 3))),
    "row_slice": lambda r: _apply(lambda w: nn.row_slice(w, 1, 3), r.normal(size=(5, 3))),
    "outer_sum": lambda r: _apply(nn.outer_sum, r.normal(size=(3, 1)), r.normal(size=(3, 1))),
    "masked_row_softmax": lambda r: _apply(lambda x: nn.masked_row_softmax(x, _MASK),
                                           r.normal(size=(3, 3))),
    "softmax_with_temperature": lambda r: _apply(lambda x: nn.softmax_with_temperature(x, 3.0),
                                                 r.normal(size=(3, 4))),
    "softmax_cross_entropy": lambda r: _apply(
        lambda x: nn.softmax_cross_entropy(x, [0, 2, 1])[0], r.normal(size=(3, 3))),
}


class TestGradientAliasing:
    """The first gradient a tensor receives is kept as given, not copied,
    so no backward may write into its incoming array."""

    @pytest.mark.parametrize("name", sorted(_SUITE_OPS))
    def test_backward_reads_a_read_only_gradient(self, name):
        out, _ = _SUITE_OPS[name](np.random.default_rng(30))
        g = np.random.default_rng(31).normal(size=out.data.shape)
        grads = []
        for incoming in (g.copy(), g):
            out, params = _SUITE_OPS[name](np.random.default_rng(30))
            if incoming is g:
                g.setflags(write=False)
            out._backward(incoming)
            grads.append([p.grad.tobytes() for p in params])
        assert grads[0] == grads[1]

    def test_shared_gradient_survives_accumulation(self):
        a, b = Parameter(np.zeros((2, 2))), Parameter(np.zeros((2, 2)))
        g = np.arange(4.0).reshape(2, 2)
        g.setflags(write=False)
        nn.add(a, b)._backward(g)
        assert a.grad is g and b.grad is g
        a._accumulate(np.ones((2, 2)))
        assert b.grad is g
        np.testing.assert_array_equal(g, np.arange(4.0).reshape(2, 2))
        np.testing.assert_array_equal(a.grad, g + 1.0)


class TestNumericGuards:
    def test_non_finite_rejected(self):
        with pytest.raises(FloatingPointError):
            Tensor(np.array([1.0, np.inf]))

    def test_overflow_in_forward_raises(self):
        big = Tensor(np.full((2, 2), 1e308))
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError):
                nn.add(big, big)

    def test_masked_softmax_needs_unmasked_cell(self):
        with pytest.raises(ValueError):
            nn.masked_row_softmax(Tensor(np.zeros((2, 2))), np.array([[True, True], [False, False]]))


class TestDeterminism:
    def test_identical_seeds_identical_losses(self):
        def run():
            rng = np.random.default_rng(77)
            w = Parameter(rng.normal(size=(5, 3)))
            x = Tensor(rng.normal(size=(8, 5)))
            labels = rng.integers(0, 3, size=8)
            opt = Adam([w], learning_rate=0.01)
            losses = []
            for _ in range(20):
                loss, _ = nn.softmax_cross_entropy(nn.matmul(x, w), labels)
                loss.backward()
                opt.step()
                losses.append(float(loss.data))
            return losses, w.data.tobytes()

        l1, w1 = run()
        l2, w2 = run()
        assert l1 == l2
        assert w1 == w2
