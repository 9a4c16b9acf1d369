"""Unit tests for the autodiff tensor core."""

import math
import statistics
import weakref

import numpy as np
import pytest
import scipy

import spafit.tensor as T
from spafit.errors import GraphError, InputError, ShapeError, SpafitError
from spafit.tensor import Tensor
from test_model import reachable, saved_arrays


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_hand_product(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_zero_annihilates(self):
        rng = np.random.default_rng(0)
        b = Tensor(rng.standard_normal((3, 4)))
        out = T.matmul(Tensor(np.zeros((2, 3))), b)
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_batched_weight_gradient_sums_over_batch(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((4, 5, 3)))
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        T.tensor_sum(T.matmul(x, w)).backward()
        expected = np.einsum("bsi,bsj->ij", x.data, np.ones((4, 5, 2)))
        np.testing.assert_allclose(w.grad, expected, rtol=1e-12)


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_exponent_ratios(self):
        out = T.softmax(Tensor([np.log(1.0), np.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 7))
        a = T.softmax(Tensor(x)).data
        b = T.softmax(Tensor(x + 123.456)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = T.softmax(Tensor(rng.standard_normal((10, 9)) * 50))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(10), atol=1e-12)
        assert (out.data >= 0).all()


class TestAttention:
    QKV = [Tensor(np.ones((2, 3, 4)), requires_grad=True) for _ in range(3)]

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(2, 5, 4\)"):
            T.attention(self.QKV[0], Tensor(np.ones((2, 5, 4))), self.QKV[2], 2)

    def test_non_3d_inputs_rejected(self):
        flat = Tensor(np.ones((6, 4)))
        with pytest.raises(ShapeError, match="3-D"):
            T.attention(flat, flat, flat, 2)

    def test_hidden_not_divisible_by_heads_rejected(self):
        with pytest.raises(ShapeError, match="divisible"):
            T.attention(*self.QKV, 3)

    @pytest.mark.parametrize("num_heads", [2.0, True, "2", None])
    def test_num_heads_must_be_an_integer(self, num_heads):
        with pytest.raises(ShapeError, match="num_heads must be an integer"):
            T.attention(*self.QKV, num_heads)

    def test_numpy_integer_num_heads_accepted(self):
        np.testing.assert_array_equal(T.attention(*self.QKV, np.int64(2)).data,
                                      T.attention(*self.QKV, 2).data)

    def test_empty_key_axis_rejected(self):
        empty = Tensor(np.ones((2, 0, 4)))
        with pytest.raises(ShapeError, match=r"key position.*\(2, 0, 4\)"):
            T.attention(self.QKV[0], empty, empty, 2)

    def test_no_grad_returns_bare_constant(self):
        with T.no_grad():
            out = T.attention(*self.QKV, 2)
        assert out._node._parents == () and out._backward_fn is None
        # identical keys give uniform weights: every position averages v
        np.testing.assert_array_equal(out.data, np.ones((2, 3, 4)))


class TestLinear:
    X, W, B = Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3))), Tensor(np.zeros(4))

    def test_half_low_rank_pair_rejected(self):
        with pytest.raises(ShapeError, match=r"down \(2, 3\), up None"):
            T.linear(self.X, self.W, self.B, Tensor(np.ones((2, 3))))

    def test_up_without_down_rejected(self):
        with pytest.raises(ShapeError, match=r"down None, up \(4, 2\)"):
            T.linear(self.X, self.W, self.B, up=Tensor(np.ones((4, 2))))

    def test_down_of_wrong_width_rejected(self):
        with pytest.raises(ShapeError, match=r"down \[r, 3\].*down \(2, 5\), up \(4, 2\)"):
            T.linear(self.X, self.W, self.B, Tensor(np.ones((2, 5))), Tensor(np.ones((4, 2))))

    def test_up_of_wrong_height_rejected(self):
        with pytest.raises(ShapeError, match=r"up \[4, r\].*down \(2, 3\), up \(5, 2\)"):
            T.linear(self.X, self.W, self.B, Tensor(np.ones((2, 3))), Tensor(np.ones((5, 2))))

    def test_ranks_that_disagree_rejected(self):
        with pytest.raises(ShapeError, match=r"down \(2, 3\), up \(4, 3\)"):
            T.linear(self.X, self.W, self.B, Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3))))


class TestLayerNorm:
    def _gamma_beta(self, d, gamma=1.0, beta=0.0):
        return Tensor(np.full(d, gamma)), Tensor(np.full(d, beta))

    def test_constant_row_maps_to_beta(self):
        g, b = self._gamma_beta(4, beta=0.0)
        out = T.layer_norm(Tensor([5.0, 5.0, 5.0, 5.0]), g, b)
        np.testing.assert_allclose(out.data, np.zeros(4), atol=1e-6)

    def test_two_point_row(self):
        g, b = self._gamma_beta(2)
        out = T.layer_norm(Tensor([1.0, 3.0]), g, b)
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-9)

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(4)
        g = Tensor(np.zeros(6))
        b = Tensor(rng.standard_normal(6))
        out = T.layer_norm(Tensor(rng.standard_normal((3, 6))), g, b)
        np.testing.assert_array_equal(out.data, np.broadcast_to(b.data, (3, 6)))

    def test_normalized_rows_have_zero_mean_unit_variance(self):
        rng = np.random.default_rng(5)
        d = 16
        g, b = self._gamma_beta(d)
        out = T.layer_norm(Tensor(rng.standard_normal((8, d)) * 3 + 2), g, b)
        assert np.abs(out.data.mean(axis=-1)).max() < 1e-10
        np.testing.assert_allclose(out.data.var(axis=-1), np.ones(8), atol=1e-8)

    def test_empty_dimension_rejected(self):
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.zeros(0)), Tensor(np.zeros(0)))


class TestGelu:
    def test_zero(self):
        assert T.gelu(Tensor([0.0])).data[0] == 0.0

    def test_unit_value_matches_normal_cdf_oracle(self):
        # independent oracle: the stdlib normal CDF
        expected = 1.0 * statistics.NormalDist().cdf(1.0)
        assert abs(T.gelu(Tensor([1.0])).data[0] - expected) < 1e-12

    def test_asymptote(self):
        assert abs(T.gelu(Tensor([10.0])).data[0] - 10.0) < 1e-9

    # Cephes' erf changes branch at |x / sqrt(2)| = 1, so sqrt(2) and its
    # neighbours straddle it; 8.5 and 40 reach erf's saturated tails.
    _EDGES = [0.0, 5e-324, 1e-300, math.sqrt(2.0), np.nextafter(math.sqrt(2.0), 0.0),
              np.nextafter(math.sqrt(2.0), 3.0), 8.5, 40.0]

    @classmethod
    def _inputs(cls) -> np.ndarray:
        """Signed edge values, then zero-mean seeded samples at std 0.1, 1 and 3."""
        rng = np.random.default_rng(19)
        samples = [sigma * rng.standard_normal(4096) for sigma in (0.1, 1.0, 3.0)]
        return np.concatenate([cls._EDGES, np.negative(cls._EDGES), *samples])

    @staticmethod
    def _plain(x, g):
        """Value and input gradient of the plain expression, as
        ``reference_gelu`` in test_gradcheck.py writes it."""
        cdf = 0.5 * (1.0 + T.erf(x * T._INV_SQRT2))
        pdf = np.exp(-0.5 * x * x) * T._INV_SQRT_2PI
        return x * cdf, g * (cdf + x * pdf)

    @staticmethod
    def _op(x, g):
        t = Tensor(x.copy(), requires_grad=True)
        out = T.gelu(t)
        out._backward_fn(g)
        return out.data, t.grad

    def _assert_matches_plain(self, x):
        g = np.random.default_rng(7).standard_normal(x.shape)
        for name, new, old in zip(("value", "gradient"), self._op(x, g), self._plain(x, g)):
            assert np.array_equal(new, old, equal_nan=True), name
            np.testing.assert_array_equal(np.signbit(new), np.signbit(old), err_msg=name)

    def test_bitwise_equal_to_plain_expression(self):
        self._assert_matches_plain(self._inputs())

    def test_nan_bitwise_equal_to_plain_expression(self):
        # -NaN is left out: the backward's in-place ``dx += cdf`` carries x's
        # NaN where the plain ``cdf + x * pdf`` carries cdf's, so that
        # gradient's sign bit differs from the plain one's under either erf form.
        self._assert_matches_plain(np.array([np.nan, 1.0, np.nan, -1.0]))

    def test_infinities_bitwise_equal_to_plain_expression(self):
        # both sides give 0 * -inf = NaN at -inf
        with np.errstate(invalid="ignore"):
            self._assert_matches_plain(np.array([np.inf, -np.inf, 0.5, -0.5]))

    def test_erf_is_odd_bit_for_bit(self):
        """The premise of taking erf of |x|: SciPy's erf(-a) is -erf(a) exactly."""
        a = np.abs(np.concatenate([self._inputs(), [np.inf]])) * T._INV_SQRT2
        odd = T.erf(-a).view(np.uint64) == np.negative(T.erf(a)).view(np.uint64)
        assert odd.all(), (f"scipy {scipy.__version__}: erf(-a) != -erf(a) bitwise at "
                           f"a = {a[~odd][:5]}; gelu's |x| + copysign form relies on it")

    def test_erf_never_sees_a_negative_sign(self, monkeypatch):
        seen = []

        def spy(arg, *args, **kwargs):
            seen.append(np.signbit(arg).any())
            return erf(arg, *args, **kwargs)

        erf = T.erf
        monkeypatch.setattr(T, "erf", spy)
        with np.errstate(invalid="ignore"):
            T.gelu(Tensor(np.concatenate([self._inputs(), [-np.inf, -np.nan]])))
        assert seen == [False]


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(np.arange(6.0))
        out = T.dropout(x, 0.7, "eval")
        np.testing.assert_array_equal(out.data, x.data)

    def test_p_zero_is_identity(self):
        x = Tensor(np.arange(6.0))
        out = T.dropout(x, 0.0, "train", np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_inverted_scaling_preserves_mean(self):
        x = Tensor(np.ones(1_000_000))
        out = T.dropout(x, 0.5, "train", np.random.default_rng(42))
        assert abs(out.data.mean() - 1.0) < 0.01

    def test_p_one_rejected(self):
        with pytest.raises(ValueError):
            T.dropout(Tensor([1.0]), 1.0, "train", np.random.default_rng(0))

    @pytest.mark.parametrize("p,mode,rng", [
        (0.1, "training", np.random.default_rng(0)),
        (-0.1, "train", np.random.default_rng(0)),
        (0.1, "train", None),
    ])
    def test_bad_arguments_raise_typed_value_errors(self, p, mode, rng):
        with pytest.raises(SpafitError) as info:
            T.dropout(Tensor([1.0]), p, mode, rng)
        assert isinstance(info.value, ValueError)

    def test_same_seed_same_mask(self):
        x = Tensor(np.ones(1000))
        a = T.dropout(x, 0.3, "train", np.random.default_rng(9)).data
        b = T.dropout(x, 0.3, "train", np.random.default_rng(9)).data
        np.testing.assert_array_equal(a, b)

    def test_draw_shape_keeps_the_leading_corner_of_the_wide_mask(self):
        """A [3, 1, 8] cut of a [3, 5, 8] tensor gets the wide mask's
        position 0 and leaves the generator where the wide draw does."""
        x = Tensor(np.random.default_rng(1).standard_normal((3, 5, 8)), requires_grad=True)
        wide_rng, cut_rng = np.random.default_rng(4), np.random.default_rng(4)
        wide = T.dropout(x, 0.3, "train", wide_rng)
        cut = T.dropout(T.first_position(x), 0.3, "train", cut_rng, (3, 5, 8))
        np.testing.assert_array_equal(cut.data, wide.data[:, :1])
        assert cut_rng.bit_generator.state == wide_rng.bit_generator.state
        T.tensor_sum(cut).backward()
        np.testing.assert_array_equal(x.grad[:, 0] != 0, wide.data[:, 0] != 0)
        assert not x.grad[:, 1:].any()

    @pytest.mark.parametrize("draw_shape", [(3, 8), (3, 1, 7), (2, 5, 8)])
    def test_draw_shape_that_does_not_cover_the_input_rejected(self, draw_shape):
        with pytest.raises(ShapeError, match="draw shape"):
            T.dropout(Tensor(np.ones((3, 1, 8))), 0.3, "train", np.random.default_rng(0),
                      draw_shape)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 4, 2)),
                   requires_grad=True)
        T.tensor_sum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4, 2)))

    def test_product_rule(self):
        w = Tensor([3.0], requires_grad=True)
        x = Tensor([2.0])
        T.tensor_sum(T.mul(w, x)).backward()
        np.testing.assert_array_equal(w.grad, [2.0])

    def test_fanout_accumulates(self):
        x = Tensor([1.5], requires_grad=True)
        y = T.add(x, x)  # dy/dx = 2
        T.tensor_sum(y).backward()
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_gradients_accumulate_across_passes(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        T.tensor_sum(x).backward()
        T.tensor_sum(x).backward()
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_backward_on_a_leaf_adds_to_its_gradient(self):
        x = Tensor(2.0, requires_grad=True)
        T.tensor_sum(T.scale(x, 3.0)).backward()
        T.backward(x)
        np.testing.assert_array_equal(x.grad, 4.0)

    def test_operands_sharing_an_upstream_gradient_accumulate_apart(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        T.tensor_sum(T.add(a, b)).backward()  # both receive the same array
        T.tensor_sum(a).backward()
        np.testing.assert_array_equal(a.grad, [2.0])
        np.testing.assert_array_equal(b.grad, [1.0])

    def test_handed_over_gradients_are_never_written(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 4)))
        T.tensor_sum(T.mul(T.add(a, b), w)).backward()
        held = {"a": a.grad, "b": b.grad}
        assert np.shares_memory(held["a"], held["b"])  # add hands both one array
        first = {name: g.copy() for name, g in held.items()}
        T.tensor_sum(T.mul(T.add(a, b), w)).backward()  # no zero_grad between
        for name, t in (("a", a), ("b", b)):
            np.testing.assert_array_equal(held[name], first[name])
            np.testing.assert_array_equal(t.grad, 2.0 * first[name])

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(GraphError):
            T.add(x, x).backward()

    def test_no_grad_for_frozen_leaves(self):
        x = Tensor([1.0], requires_grad=True)
        frozen = Tensor([2.0], requires_grad=False)
        T.tensor_sum(T.mul(x, frozen)).backward()
        assert frozen.grad is None
        np.testing.assert_array_equal(x.grad, [2.0])


class TestConsumedGraph:
    """``backward`` frees the graph as it goes and refuses to run through it
    again."""

    @staticmethod
    def small_net():
        rng = np.random.default_rng(0)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        gamma = Tensor(np.ones(3), requires_grad=True)
        x = Tensor(rng.standard_normal((5, 4)))
        h = T.gelu(T.linear(x, w, b))
        logits = T.add(T.layer_norm(h, gamma, Tensor(np.zeros(3))), h)  # fan-out on h
        loss = T.cross_entropy(logits, np.array([0, 1, 2, 0, 1]))
        return (w, b, gamma), logits, loss

    def test_interior_nodes_are_released_and_leaves_kept(self):
        leaves, _, loss = self.small_net()
        nodes = reachable(loss)
        interior = [n for n in nodes if n._parents]
        assert len(interior) == 5
        loss.backward()
        for node in interior:
            assert node._parents == () and node._backward_fn is T._consumed, node
            assert node.grad is None
        for leaf in leaves:
            assert leaf._node._parents == () and leaf._backward_fn is None
            assert leaf.grad is not None

    def test_second_backward_raises_before_any_closure_runs(self):
        leaves, _, loss = self.small_net()
        loss.backward()
        grads = [t.grad for t in leaves]
        with pytest.raises(GraphError, match="already ran"):
            loss.backward()
        for t, g in zip(leaves, grads):
            assert t.grad is g

    def test_new_op_over_a_kept_node_raises(self):
        (w, _, _), logits, loss = self.small_net()
        loss.backward()
        held = w.grad
        fresh = Tensor([1.0], requires_grad=True)
        with pytest.raises(GraphError, match="already ran"):
            T.add(T.tensor_sum(T.scale(logits, 2.0)), T.tensor_sum(fresh)).backward()
        assert w.grad is held and fresh.grad is None

    def test_consumed_closure_raises_when_called(self):
        _, logits, loss = self.small_net()
        loss.backward()
        with pytest.raises(GraphError):
            logits._backward_fn(np.ones(logits.shape))

    def test_leaf_passed_straight_to_backward_is_left_as_it_is(self):
        x = Tensor(2.0, requires_grad=True)
        T.backward(x)
        np.testing.assert_array_equal(x.grad, 1.0)
        T.backward(x)  # nothing was consumed
        assert x._node._parents == () and x._backward_fn is None

    def test_node_is_freed_before_its_operands_backward_runs(self):
        x = Tensor([0.5, -1.0], requires_grad=True)
        y = T.scale(x, 2.0)
        z = T.tanh(y)  # its value is also the array its closure saves
        loss = T.tensor_sum(z)
        saved = weakref.ref(z.data)
        del z
        saved_alive_at_y = []
        y_backward = y._backward_fn

        def watched(g):
            saved_alive_at_y.append(saved() is not None)
            y_backward(g)

        y._backward_fn = watched
        loss.backward()
        assert saved_alive_at_y == [False]
        np.testing.assert_allclose(x.grad, 2.0 * (1.0 - np.tanh(2.0 * x.data) ** 2))


def held(out: Tensor, inputs: dict[str, np.ndarray]) -> list[str]:
    """What ``out``'s closure holds, sorted: the name of each input an array
    shares memory with, or ``new`` and the shape of one made by the op."""
    names = []
    for a in saved_arrays(out._backward_fn):
        shared = [name for name, v in inputs.items() if np.shares_memory(a, v)]
        names.append(shared[0] if shared else f"new{a.shape}")
    return sorted(names)


# Each audited op: how a case calls it on its input tensors, and their names.
AUDITED_OPS = {
    "linear": (lambda ts: T.linear(*ts, scaling=1.5), ("x", "w", "b", "down", "up")),
    "attention": (lambda ts: T.attention(*ts, num_heads=2), ("q", "k", "v")),
    "layer_norm": (lambda ts: T.layer_norm(*ts), ("x", "gamma", "beta")),
    "mul": (lambda ts: T.mul(*ts), ("a", "b")),
    "matmul": (lambda ts: T.matmul(*ts), ("a", "b")),
}
LINEAR, LORA = [(2, 5, 3), (4, 3), (4,)], [(2, 5, 3), (4, 3), (4,), (2, 3), (4, 2)]
# (op, input shapes, which inputs need a gradient, what the closure holds):
# every case drops an array that only a frozen input's gradient would read.
AUDIT_CASES = [
    ("linear", LINEAR, (True, False, True), ["w"]),
    ("linear", LINEAR, (False, True, True), ["x"]),
    ("linear", LORA, (False, False, True, False, True), ["new(10, 2)"]),
    ("linear", LORA, (False, False, False, True, True), ["new(10, 2)", "up", "x"]),
    ("linear", LORA, (True, False, True, False, False), ["down", "up", "w"]),
    ("attention", [(2, 3, 4)] * 3, (True, False, False), ["k", "new(2, 2, 3, 3)", "v"]),
    ("attention", [(2, 3, 4)] * 3, (False, True, False), ["new(2, 2, 3, 3)", "q", "v"]),
    ("attention", [(2, 3, 4)] * 3, (False, False, True), ["new(2, 2, 3, 3)"]),
    ("layer_norm", [(4, 6), (6,), (6,)], (False, False, True), []),
    ("layer_norm", [(4, 6), (6,), (6,)], (False, True, True), ["new(4, 6)"]),
    ("mul", [(3, 4), (4,)], (True, False), ["b"]),
    ("mul", [(3, 4), (4,)], (False, True), ["a"]),
    ("matmul", [(3, 4), (4, 2)], (True, False), ["b"]),
    ("matmul", [(3, 4), (4, 2)], (False, True), ["a"]),
]


class TestGraphRetention:
    """A node keeps its operands' nodes and its closure, never a value: an
    output that no closure reads dies with the caller's ``Tensor``."""

    def test_unread_add_output_freed_while_its_graph_lives(self):
        x = Tensor([0.5, -1.0], requires_grad=True)
        y = T.add(x, Tensor([1.0, 2.0]))
        loss = T.tensor_sum(T.scale(y, 3.0))
        value = weakref.ref(y.data)
        del y
        assert value() is None
        loss.backward()
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_read_arrays_live_until_their_closure_runs(self):
        x = Tensor([0.5, -1.0], requires_grad=True)
        h = T.tanh(T.scale(x, 2.0))  # tanh's backward reads its own output
        y = T.gelu(h)  # gelu's holds its derivative, not its input
        loss = T.tensor_sum(y)
        values = [weakref.ref(h.data), weakref.ref(y.data)]
        del h, y
        assert [v() is not None for v in values] == [True, False]
        loss.backward()
        assert values[0]() is None

    def test_train_dropout_node_saves_a_bool_mask(self):
        x = Tensor(np.ones((4, 6)), requires_grad=True)
        out = T.dropout(x, 0.3, "train", np.random.default_rng(5))
        (keep,) = saved_arrays(out._backward_fn)
        assert keep.dtype == np.bool_ and keep.shape == (4, 6)
        np.testing.assert_array_equal(out.data, np.divide(keep, 0.7))
        g = np.random.default_rng(6).standard_normal((4, 6))
        out._backward_fn(g)
        np.testing.assert_array_equal(x.grad, g * np.divide(keep, 0.7))

    @pytest.mark.parametrize("x_grad", [False, True], ids=["x-frozen", "x-trained"])
    @pytest.mark.parametrize("pair", [None, (False, False), (False, True)],
                             ids=["no-pair", "frozen-pair", "trained-up"])
    def test_linear_with_frozen_weight_frees_its_input(self, x_grad, pair):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 5, 3)), requires_grad=x_grad)
        w = Tensor(rng.standard_normal((4, 3)))
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        lora = () if pair is None else (
            Tensor(rng.standard_normal((2, 3)), requires_grad=pair[0]),
            Tensor(rng.standard_normal((4, 2)), requires_grad=pair[1]))
        out = T.linear(x, w, b, *lora, scaling=1.5)
        value = weakref.ref(x.data)
        del x
        assert value() is None
        T.tensor_sum(out).backward()
        np.testing.assert_array_equal(b.grad, np.full(4, 10.0))

    @pytest.mark.parametrize("trained", ["weight", "down"])
    def test_linear_with_trained_weight_or_down_keeps_its_input_alone(self, trained):
        """The input view is held for the weight's or ``down``'s gradient;
        the frozen input's gradient is not taken, so no weight is held for it."""
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 5, 3)))
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=trained == "weight")
        down = Tensor(rng.standard_normal((2, 3)), requires_grad=trained == "down")
        up = Tensor(rng.standard_normal((4, 2)))
        out = T.linear(x, w, Tensor(np.zeros(4)), down, up, 1.5)
        inputs = {"x": x.data, "w": w.data, "down": down.data, "up": up.data}
        assert held(out, inputs) == (["x"] if trained == "weight" else ["up", "x"])
        value = weakref.ref(x.data)
        del x, inputs
        assert value() is not None

    def test_gelu_holds_its_derivative_alone(self):
        raw = 3.0 * np.random.default_rng(7).standard_normal((4, 6))
        x = Tensor(raw.copy(), requires_grad=True)
        out = T.gelu(x)
        (d,) = saved_arrays(out._backward_fn)
        cdf = 0.5 * (1.0 + scipy.special.erf(raw * T._INV_SQRT2))
        np.testing.assert_array_equal(d, cdf + raw * (np.exp(-0.5 * raw * raw)
                                                      * T._INV_SQRT_2PI))
        value = weakref.ref(x.data)
        del x
        assert value() is None

    @pytest.mark.parametrize("name,shapes,flags,expected", AUDIT_CASES,
                             ids=[f"{c[0]}-" + "".join("TF"[not f] for f in c[2])
                                  for c in AUDIT_CASES])
    def test_closure_drops_what_only_frozen_inputs_read(self, name, shapes, flags, expected):
        """Each closure holds what the trained inputs' gradients read and
        nothing else, and those gradients equal an all-trained node's."""
        call, names = AUDITED_OPS[name]
        rng = np.random.default_rng(8)
        arrays = [rng.standard_normal(s) for s in shapes]
        g = rng.standard_normal(call([Tensor(a) for a in arrays]).shape)
        grads = []
        for trained in (flags, (True,) * len(flags)):
            ts = [Tensor(a, requires_grad=f) for a, f in zip(arrays, trained)]
            out = call(ts)
            if trained == flags:
                assert held(out, dict(zip(names, arrays))) == expected
            out._backward_fn(g)
            grads.append([t.grad for t in ts])
        for f, part, full in zip(flags, *grads):
            if f:
                np.testing.assert_array_equal(part, full)
            else:
                assert part is None


class TestNoGrad:
    @staticmethod
    def builds_graph() -> bool:
        out = T.add(Tensor([1.0], requires_grad=True), Tensor([2.0]))
        return out._backward_fn is not None

    def test_ops_return_bare_constants(self):
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        x = Tensor(np.ones((4, 2)))
        with T.no_grad():
            out = T.gelu(T.linear(x, w, Tensor(np.zeros(3))))
        assert not out.requires_grad
        assert out._node._parents == () and out._backward_fn is None
        T.backward(T.tensor_sum(out))
        assert w.grad is None

    def test_nests_and_restores(self):
        with T.no_grad():
            with T.no_grad():
                assert not self.builds_graph()
            assert not self.builds_graph()
        assert self.builds_graph()

    def test_restored_after_an_exception(self):
        with pytest.raises(ShapeError):
            with T.no_grad():
                T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        assert self.builds_graph()


class TestGradientLayout:
    def test_leaf_grads_are_fresh_c_ordered_arrays(self, desk_loss):
        """Guards the optimizer's speed (C order) and the take-over of a first
        gradient, which must never alias another gradient or any parameter."""
        store, loss = desk_loss("fullft")
        loss.backward()
        params = store.trainable_parameters()
        grads = {name: t.grad for name, t in params.items()}
        for name, g in grads.items():
            assert g.flags.c_contiguous, name
            assert g.shape == params[name].data.shape, name
            assert not any(np.shares_memory(g, other) for other_name, other in grads.items()
                           if other_name != name), name
            assert not any(np.shares_memory(g, t.data) for t in params.values()), name


class TestEmbedding:
    @pytest.mark.parametrize("ids", [np.array([5]), np.array([4]), np.array([[0, -1]])],
                             ids=["past-end", "rows", "negative"])
    def test_out_of_range_id_raises_input_error(self, ids):
        with pytest.raises(InputError, match=r"embedding ids must lie in \[0, 4\)"):
            T.embedding(Tensor(np.ones((4, 2))), ids)

    def test_non_integer_ids_raise_input_error(self):
        with pytest.raises(InputError, match="integer"):
            T.embedding(Tensor(np.ones((4, 2))), np.array([1.0]))


class TestShapeErrors:
    @pytest.mark.parametrize("op, match", [
        (lambda: T.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2)))), "2-D"),
        (lambda: T.linear(Tensor(np.ones((2, 5))), Tensor(np.ones((4, 3))),
                          Tensor(np.zeros(4))), "linear shapes disagree"),
        (lambda: T.softmax(Tensor(np.zeros((2, 0)))), "non-empty last axis"),
        (lambda: T.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)),
                              Tensor(np.zeros(4))), "affine shapes"),
        (lambda: T.first_token(Tensor(np.zeros((2, 4)))), "3-D"),
        (lambda: T.cross_entropy(Tensor(np.zeros((2, 3))), np.array([[0], [1]])),
         "labels shape"),
        (lambda: T.mse_loss(Tensor(np.zeros((2, 1))), np.zeros(2)), "target shape"),
    ], ids=["matmul-1d", "linear", "softmax-empty", "layer_norm-affine",
            "first_token-2d", "cross_entropy-labels", "mse-target"])
    def test_misshapen_operand_raises_shape_error(self, op, match):
        with pytest.raises(ShapeError, match=match):
            op()


class TestLosses:
    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((2, 4)), requires_grad=True)
        loss = T.cross_entropy(logits, np.array([0, 3]))
        assert abs(float(loss.data) - np.log(4.0)) < 1e-12

    def test_cross_entropy_gradient_is_prob_minus_onehot(self):
        rng = np.random.default_rng(6)
        raw = rng.standard_normal((3, 5))
        logits = Tensor(raw, requires_grad=True)
        labels = np.array([1, 0, 4])
        T.cross_entropy(logits, labels).backward()
        e = np.exp(raw - raw.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        probs[np.arange(3), labels] -= 1.0
        np.testing.assert_allclose(logits.grad, probs / 3.0, rtol=1e-12)

    @pytest.mark.parametrize("labels", [[0, 4], [-1, 0]])
    def test_cross_entropy_out_of_range_labels_raise_typed_value_error(self, labels):
        with pytest.raises(SpafitError) as info:
            T.cross_entropy(Tensor(np.zeros((2, 4))), np.array(labels))
        assert isinstance(info.value, ValueError)

    def test_cross_entropy_empty_batch_raises_input_error(self):
        with pytest.raises(InputError, match="empty batch"):
            T.cross_entropy(Tensor(np.zeros((0, 4))), np.zeros(0, np.int64))

    @pytest.mark.parametrize("labels", [np.array([0.0, 1.0]), np.array([True, False])],
                             ids=["float", "bool"])
    def test_cross_entropy_non_integer_labels_raise_input_error(self, labels):
        with pytest.raises(InputError, match="integer"):
            T.cross_entropy(Tensor(np.zeros((2, 3))), labels)

    def test_mse(self):
        pred = Tensor([[1.0], [3.0]], requires_grad=True)
        loss = T.mse_loss(pred, np.array([[0.0], [1.0]]))
        assert abs(float(loss.data) - 2.5) < 1e-12
        loss.backward()
        np.testing.assert_allclose(pred.grad, [[1.0], [2.0]], rtol=1e-12)


class TestDeterminism:
    def test_identical_seeds_identical_outputs(self):
        def run():
            rng = np.random.default_rng(123)
            x = Tensor(rng.standard_normal((4, 8)))
            h = T.dropout(T.gelu(x), 0.2, "train", rng)
            return T.softmax(h).data

        np.testing.assert_array_equal(run(), run())
