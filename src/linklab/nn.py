"""Dense float32 or float64 tensors with reverse-mode gradients, plus Adam.

The tape is a plain parent-pointer graph: each op returns a tensor holding
a closure that scatters the output gradient back to its parents. Model
sizes here (two-layer GNNs, five-layer MLPs at most) never justify
anything fancier. No broadcasting beyond bias addition. Every op keeps its
inputs' dtype: the attack MLPs run in float32, the GNNs in float64.
"""

from __future__ import annotations

import math

import numpy as np


class Tensor:
    """A float32 or float64 array plus an optional gradient and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        arr = arr if arr.dtype == np.float32 else np.asarray(arr, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise FloatingPointError("tensor initialized with non-finite values")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _accumulate(self, g: np.ndarray) -> None:
        # The first gradient is kept as given: it may be the very array
        # another node holds, so no backward writes into its incoming array.
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A trainable tensor; gradients accumulate between optimizer steps."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    if not np.isfinite(data).all():
        raise FloatingPointError("non-finite values produced in forward pass")
    # Built without Tensor.__init__, which would repeat the check above.
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._parents = tuple(p for p in parents if p.requires_grad)
    out.requires_grad = bool(out._parents)
    out._backward = backward if out.requires_grad else None
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D tensors")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _result(out_data, (a, b), backward)


def csr_row_sum(z: Tensor, indptr: np.ndarray, indices: np.ndarray,
                deg: np.ndarray | None = None) -> Tensor:
    """``A @ z`` for a symmetric 0/1 matrix ``A`` held as CSR rows: row ``i``
    sums ``z`` over ``indices[indptr[i]:indptr[i + 1]]``, then is divided by
    ``deg[i]`` when ``deg`` is given. Every row must be non-empty.

    As ``A`` is symmetric, the backward is the same row sum of ``g / deg``.
    """
    if z.data.ndim != 2 or z.data.shape[0] != len(indptr) - 1:
        raise ValueError(f"csr_row_sum expects {len(indptr) - 1} rows, got {z.data.shape}")
    starts = indptr[:-1]
    scale = None if deg is None else deg[:, None]

    def row_sum(x: np.ndarray) -> np.ndarray:
        return np.add.reduceat(np.take(x, indices, axis=0), starts, axis=0)

    out_data = row_sum(z.data)
    if scale is not None:
        out_data /= scale

    def backward(g: np.ndarray) -> None:
        z._accumulate(row_sum(g if scale is None else g / scale))

    return _result(out_data, (z,), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise addition; ``b`` may be a 1-D bias matching ``a``'s columns."""
    bias = a.data.ndim == 2 and b.data.ndim == 1
    if not bias and a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} + {b.data.shape}")
    if bias and b.data.shape[0] != a.data.shape[1]:
        raise ValueError(f"bias length {b.data.shape[0]} != columns {a.data.shape[1]}")
    out_data = a.data + b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0) if bias else g)

    return _result(out_data, (a, b), backward)


def scalar_mul(x: Tensor, s: Tensor) -> Tensor:
    """Multiply every element of ``x`` by the single value held in ``s``."""
    if s.data.size != 1:
        raise ValueError("scalar_mul expects a one-element scale tensor")
    sval = float(s.data.reshape(()))
    out_data = x.data * sval

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * sval)
        if s.requires_grad:
            s._accumulate(np.full_like(s.data, np.sum(g * x.data)))

    return _result(out_data, (x, s), backward)


def _relu_dropout_mult(pre: np.ndarray, rate: float,
                       rng: np.random.Generator | None) -> np.ndarray:
    """The multiplier ReLU and inverted dropout share, in ``pre``'s dtype: ``pre > 0``,
    and at a positive rate also a keep mask drawn from ``rng`` times ``1 / (1 - rate)``."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    mult = pre > 0.0
    if rate > 0.0:
        if rng is None:
            raise ValueError("training-mode dropout needs an explicit rng")
        mult = mult * (rng.random(pre.shape, pre.dtype) >= rate) * pre.dtype.type(1 / (1 - rate))
    return mult


def relu_dropout(x: Tensor, rate: float = 0.0, rng: np.random.Generator | None = None) -> Tensor:
    """ReLU, then inverted dropout: each element is zeroed with probability
    ``rate`` and survivors are scaled by ``1 / (1 - rate)``.

    Rate 0, the default and the inference setting, draws nothing and is
    plain ReLU. A positive rate needs ``rng``. Both steps share one
    multiplier, so the backward is a single product.
    """
    mult = _relu_dropout_mult(x.data, rate, rng)
    out_data = np.maximum(x.data, 0.0)
    if rate > 0.0:
        out_data = out_data * mult

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * mult)

    return _result(out_data, (x,), backward)


def dense_relu_dropout(h: Tensor, w: Tensor, b: Tensor, rate: float = 0.0,
                       rng: np.random.Generator | None = None) -> Tensor:
    """``relu_dropout(h @ w + b, rate, rng)`` as one op: a dense hidden
    layer with the same arithmetic and the same dropout draws as the chain.

    The backward is one product with the shared multiplier, two matrix
    products and a column sum.
    """
    if (h.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1
            or h.data.shape[1] != w.data.shape[0] or b.data.shape[0] != w.data.shape[1]):
        raise ValueError(f"dense layer shape mismatch: {h.data.shape} @ {w.data.shape} "
                         f"+ {b.data.shape}")
    pre = h.data @ w.data
    pre += b.data
    mult = _relu_dropout_mult(pre, rate, rng)
    np.maximum(pre, 0.0, out=pre)
    if rate > 0.0:
        pre *= mult

    def backward(g: np.ndarray) -> None:
        gp = g * mult
        if h.requires_grad:
            h._accumulate(gp @ w.data.T)
        if w.requires_grad:
            w._accumulate(h.data.T @ gp)
        if b.requires_grad:
            b._accumulate(gp.sum(axis=0))

    return _result(pre, (h, w, b), backward)


def concat_cols(tensors: list[Tensor]) -> Tensor:
    if not tensors:
        raise ValueError("concat_cols needs at least one tensor")
    rows = tensors[0].data.shape[0]
    for t in tensors:
        if t.data.ndim != 2 or t.data.shape[0] != rows:
            raise ValueError("concat_cols expects 2-D tensors with equal row counts")
    out_data = np.concatenate([t.data for t in tensors], axis=1)
    widths = [t.data.shape[1] for t in tensors]

    def backward(g: np.ndarray) -> None:
        off = 0
        for t, w in zip(tensors, widths):
            if t.requires_grad:
                t._accumulate(g[:, off:off + w])
            off += w

    return _result(out_data, tuple(tensors), backward)


def row_slice(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` of a 2-D tensor; the gradient flows back into those rows."""
    if x.data.ndim != 2 or not (0 <= start < stop <= x.data.shape[0]):
        raise ValueError(f"row slice {start}:{stop} outside shape {x.data.shape}")
    out_data = x.data[start:stop]

    def backward(g: np.ndarray) -> None:
        full = np.zeros_like(x.data)
        full[start:stop] = g
        x._accumulate(full)

    return _result(out_data, (x,), backward)


def csr_attention(z: Tensor, a_dst: Tensor, a_src: Tensor, indptr: np.ndarray,
                  indices: np.ndarray, slope: float) -> Tensor:
    """One graph-attention head over CSR rows, as one op.

    Entry ``e = (i, j)`` of row ``i``, ``j = indices[e]``, scores
    ``leaky_relu(z[i] @ a_dst + z[j] @ a_src)`` at ``slope``; each row's
    scores are softmaxed over its entries (``np.maximum.reduceat`` and
    ``np.add.reduceat``), and output row ``i`` is the weighted sum of those
    ``z[j]``. The rows must be non-empty, sorted within each row and
    symmetric, as a ``gnn.MessageStructure``'s are: the backward reads each
    entry's transpose to send gradients to the columns with the same row
    sums.
    """
    n = len(indptr) - 1
    if z.data.ndim != 2 or z.data.shape[0] != n:
        raise ValueError(f"csr_attention expects {n} rows, got {z.data.shape}")
    for a in (a_dst, a_src):
        if a.data.shape != (z.data.shape[1], 1):
            raise ValueError(f"attention vector shape {a.data.shape} != ({z.data.shape[1]}, 1)")
    starts = indptr[:-1]
    rows = np.repeat(np.arange(n), np.diff(indptr))
    pre = (z.data @ a_dst.data)[rows, 0] + (z.data @ a_src.data)[indices, 0]
    slopes = np.where(pre > 0.0, 1.0, slope)
    scores = pre * slopes
    ex = np.exp(scores - np.maximum.reduceat(scores, starts)[rows])
    attn = ex / np.add.reduceat(ex, starts)[rows]
    out_data = np.add.reduceat(attn[:, None] * z.data[indices], starts, axis=0)

    def backward(g: np.ndarray) -> None:
        # the position of each entry's transpose: column sums become row sums
        transpose = np.searchsorted(rows * n + indices, indices * n + rows)
        d_attn = np.vecdot(g[rows], z.data[indices])
        d_pre = attn * (d_attn - np.add.reduceat(attn * d_attn, starts)[rows]) * slopes
        d_dst = np.add.reduceat(d_pre, starts)[:, None]
        d_src = np.add.reduceat(d_pre[transpose], starts)[:, None]
        if z.requires_grad:
            dz = np.add.reduceat(attn[transpose][:, None] * g[indices], starts, axis=0)
            dz += d_dst @ a_dst.data.T + d_src @ a_src.data.T
            z._accumulate(dz)
        if a_dst.requires_grad:
            a_dst._accumulate(z.data.T @ d_dst)
        if a_src.requires_grad:
            a_src._accumulate(z.data.T @ d_src)

    return _result(out_data, (z, a_dst, a_src), backward)


def softmax_with_temperature(logits: Tensor, temperature: float = 1.0) -> Tensor:
    """Row-wise ``softmax(z / T)`` with max-subtraction stabilization."""
    if not (math.isfinite(temperature) and temperature > 0.0):
        raise ValueError(f"temperature must be finite and positive, got {temperature}")
    if logits.data.ndim != 2:
        raise ValueError("softmax expects a 2-D [batch x classes] tensor")
    z = logits.data / temperature
    z = z - z.max(axis=1, keepdims=True)
    ex = np.exp(z)
    out_data = ex / ex.sum(axis=1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        inner = (g * out_data).sum(axis=1, keepdims=True)
        logits._accumulate(out_data * (g - inner) / temperature)

    return _result(out_data, (logits,), backward)


def softmax_cross_entropy(logits: Tensor, labels) -> tuple[Tensor, np.ndarray]:
    """Mean cross-entropy of ``softmax(logits)`` against integer labels.

    Returns the scalar loss tensor (gradient flows to the logits) and the
    softmax posteriors as a plain array.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2:
        raise ValueError("cross entropy expects 2-D logits")
    batch, classes = logits.data.shape
    if labels.shape != (batch,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {batch}")
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ValueError("label out of range")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    posteriors = np.exp(logp)
    loss_val = -logp[np.arange(batch), labels].mean()

    def backward(g: np.ndarray) -> None:
        onehot = np.zeros_like(posteriors)
        onehot[np.arange(batch), labels] = 1.0
        logits._accumulate(float(g) * (posteriors - onehot) / batch)

    loss = _result(np.asarray(loss_val), (logits,), backward)
    return loss, posteriors


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape: tuple[int, ...]) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def cosine_anneal(lr0: float, epoch: int, total: int) -> float:
    """Cosine schedule ``lr0 * (1 + cos(pi * epoch / total)) / 2``."""
    if total <= 0:
        raise ValueError("total epochs must be positive")
    if not (0 <= epoch <= total):
        raise ValueError(f"epoch {epoch} outside [0, {total}]")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * epoch / total))


class Adam:
    """Adam with the canonical constants; only the learning rate varies."""

    def __init__(self, params: list[Parameter], learning_rate: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.first_moment = [np.zeros_like(p.data) for p in self.params]
        self.second_moment = [np.zeros_like(p.data) for p in self.params]
        self.step_count = 0

    def step(self) -> None:
        """Apply one update; gradients are zeroed afterwards."""
        self.step_count += 1
        t = self.step_count
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.beta1 * self.first_moment[i] + (1.0 - self.beta1) * g
            v = self.beta2 * self.second_moment[i] + (1.0 - self.beta2) * g * g
            self.first_moment[i] = m
            self.second_moment[i] = v
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            p.data = p.data - self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
            p.grad = None
