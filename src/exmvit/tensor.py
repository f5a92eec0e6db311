"""Dense float tensors with reverse-mode automatic differentiation.

Every operation on an input that requires grad records its inputs and a
backward closure on the output tensor, so calling ``backward()`` on a scalar
loss walks the recorded graph in reverse topological order and accumulates
gradients into every tensor that requires them. Nothing is recorded inside
``no_grad()``, which every eval-mode ``Module`` call enters, so an eval
forward holds no graph. ``backward()`` consumes the graph it walks: each
intermediate drops its gradient, its closure and its parents once its
closure has run, and only leaf tensors that require grad (parameters) keep
``grad``; constants and input batches never get one. Fused ops
(``batch_norm``, ``conv2d``, ``silu``, ``softmax``) record one node each and
keep in their closures only what their backward reads.
Data lives in flat numpy arrays; float32 is the default working precision
(float64 is used by the gradient-check harness).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

DEFAULT_DTYPE = np.float32

# Whether operations record the autodiff graph; switched off by no_grad().
_GRAD_ENABLED = True

# When True, every primitive validates that its output is finite. NaN/Inf is
# treated as a hard error, never as a value to propagate.
CHECK_FINITE = True


@contextmanager
def no_grad():
    """Record no graph inside the block: results have no parents and do not
    require grad. Nests, and restores the previous setting on exit, also when
    the block raises."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible with an operation."""


class NumericError(ArithmeticError):
    """Raised when an operation produces NaN or Inf."""


def _check_finite(data: np.ndarray, op: str) -> None:
    if CHECK_FINITE and not np.all(np.isfinite(data)):
        raise NumericError(f"{op} produced non-finite values")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """N-dimensional float array with an optional gradient slot.

    Image tensors are laid out (batch, channels, height, width); token
    sequences are (batch, tokens, dim). Data is row-major.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def zero_grad(self) -> None:
        self.grad = None

    # -- autodiff plumbing --------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return  # a constant or an input batch: nothing will read its grad
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self) -> None:
        """Accumulate ``grad`` into every leaf tensor the loss was computed from.

        The graph exists only for operations run outside ``no_grad()`` and
        outside eval-mode module calls. It is consumed on the way: after a
        node's closure has run, the node's ``grad``, closure and parents are
        dropped, which frees the activations and buffers the closure held.
        Leaf tensors keep ``grad``. A second call on the same loss finds no
        graph and changes nothing beyond the loss itself.
        """
        if self.size != 1:
            raise ShapeError(f"backward() requires a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, None, ()

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __neg__(self):
        return mul(self, Tensor(np.asarray(-1.0, dtype=self.dtype)))

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def _wrap(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=DEFAULT_DTYPE))


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward, op: str) -> Tensor:
    _check_finite(data, op)
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


# -- elementwise arithmetic ---------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(g, b.shape))

    return _make(data, (a, b), backward, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(-g, b.shape))

    return _make(data, (a, b), backward, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        a._accumulate(_unbroadcast(g * b.data, a.shape))
        b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), backward, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        data = a.data / b.data

    def backward(g):
        a._accumulate(_unbroadcast(g / b.data, a.shape))
        b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(data, (a, b), backward, "div")


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def backward(g):
        a._accumulate(g * data)

    return _make(data, (a,), backward, "exp")


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)

    def backward(g):
        a._accumulate(g / a.data)

    return _make(data, (a,), backward, "log")


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)

    def backward(g):
        a._accumulate(g * 0.5 / data)

    return _make(data, (a,), backward, "sqrt")


def square(a: Tensor) -> Tensor:
    data = a.data * a.data

    def backward(g):
        a._accumulate(g * 2.0 * a.data)

    return _make(data, (a,), backward, "square")


# -- activations --------------------------------------------------------------


def silu(a: Tensor) -> Tensor:
    # sigmoid built in one buffer: 1 / (1 + exp(-a)), bit for bit
    sig = np.negative(a.data)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    data = a.data * sig

    def backward(g):
        # g * (sig + a * sig * (1 - sig)), evaluated in the same order in one buffer
        grad = a.data * sig
        grad *= 1.0 - sig
        grad += sig
        grad *= g
        a._accumulate(grad)

    return _make(data, (a,), backward, "silu")


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction."""
    data = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        a._accumulate(data * (g - inner))

    return _make(data, (a,), backward, "softmax")


# -- shape manipulation --------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        a._accumulate(g.reshape(a.shape))

    return _make(data, (a,), backward, "reshape")


def transpose(a: Tensor, axes) -> Tensor:
    data = np.ascontiguousarray(a.data.transpose(axes))
    inverse = np.argsort(axes)

    def backward(g):
        a._accumulate(g.transpose(inverse))

    return _make(data, (a,), backward, "transpose")


def concat(parts: list[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat of an empty list")
    first = parts[0].shape
    ax = axis % len(first)
    for i, p in enumerate(parts):
        if p.ndim != len(first) or p.shape[:ax] + p.shape[ax + 1 :] != first[:ax] + first[ax + 1 :]:
            raise ShapeError(f"concat part {i} has shape {p.shape}, part 0 has {first} (axis {axis})")
    data = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])

    def backward(g):
        for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            part._accumulate(g[tuple(idx)])

    return _make(data, tuple(parts), backward, "concat")


# -- reductions ----------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.shape))
        else:
            if not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.shape))

    return _make(data, (a,), backward, "sum")


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= a.shape[ax]
    total = tsum(a, axis=axis, keepdims=keepdims)
    return mul(total, Tensor(np.asarray(1.0 / count, dtype=a.dtype)))


def global_avg_pool(a: Tensor) -> Tensor:
    """Spatial mean of a [B, C, H, W] map, returning [B, C]."""
    if a.ndim != 4:
        raise ShapeError(f"global_avg_pool expects 4-D input, got {a.shape}")
    return tmean(a, axis=(2, 3))


# -- linear algebra --------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    data = np.matmul(a.data, b.data)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        a._accumulate(_unbroadcast(ga, a.shape))
        b._accumulate(_unbroadcast(gb, b.shape))

    return _make(data, (a, b), backward, "matmul")


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x[..., Din] -> x @ weight.T + bias, with weight [Dout, Din]."""
    if x.shape[-1] != weight.shape[1]:
        raise ShapeError(
            f"linear: input dim {x.shape[-1]} != weight in-dim {weight.shape[1]}"
        )
    out = matmul(x, transpose(weight, (1, 0)))
    if bias is not None:
        out = add(out, bias)
    return out


# -- convolution -----------------------------------------------------------------


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """View of the padded input as (B, C, kh, kw, Ho, Wo) patches."""
    sb, sc, sh, sw = xp.strides
    shape = (xp.shape[0], xp.shape[1], kh, kw, ho, wo)
    strides = (sb, sc, sh, sw, sh * stride, sw * stride)
    return np.lib.stride_tricks.as_strided(xp, shape=shape, strides=strides)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """2-D cross-correlation with optional grouping.

    x is [B, Cin, H, W], weight is [Cout, Cin/groups, kh, kw]. Covers the
    standard (groups=1), depthwise (groups=Cin) and pointwise (1x1) cases.
    The forward is im2col plus a batched matmul. The backward closure keeps
    the padded input (the input itself when padding is 0), not the im2col
    columns, and rebuilds the columns for the weight gradient. The input
    gradient is skipped when x does not require grad; for one output channel
    per group it is a per-tap scale of the output gradient, not a matmul.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D operands, got {x.shape} and {weight.shape}")
    batch, cin, h, w = x.shape
    cout, cin_g, kh, kw = weight.shape
    if cin % groups or cout % groups:
        raise ShapeError(f"conv2d: channels ({cin}->{cout}) not divisible by groups={groups}")
    if cin_g != cin // groups:
        raise ShapeError(
            f"conv2d: weight expects {cin_g} input channels per group, input has {cin // groups}"
        )
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} exceeds padded extent")
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1

    if padding:
        xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = np.ascontiguousarray(x.data)  # the layout np.pad gave, with no copy when it has it

    def columns():
        # (B, g, Cin_g*kh*kw, Ho*Wo); a copy unless the patches are the input itself (1x1)
        return _im2col(xp, kh, kw, stride, ho, wo).reshape(batch, groups, cin_g * kh * kw, ho * wo)

    wg = weight.data.reshape(groups, cout // groups, cin_g * kh * kw)
    out = np.matmul(wg, columns()).reshape(batch, cout, ho, wo)
    if bias is not None:
        out = out + bias.data.reshape(1, cout, 1, 1)

    def backward(g):
        gm = g.reshape(batch, groups, cout // groups, ho * wo)
        if bias is not None:
            bias._accumulate(g.sum(axis=(0, 2, 3)))
        # the closure keeps only xp; the columns are rebuilt here, not held
        gw = np.matmul(gm, np.swapaxes(columns(), -1, -2)).sum(axis=0)
        weight._accumulate(gw.reshape(weight.shape))
        if not x.requires_grad:
            return
        gxp = np.zeros_like(xp)

        def scatter(i, j, part):
            gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += part

        if cout // groups == 1:
            # one output channel per group (depthwise): each tap's input
            # gradient is g scaled per channel, not a matmul over an inner
            # dimension of 1
            g5 = g.reshape(batch, groups, 1, ho, wo)
            taps = weight.data.reshape(groups, cin_g, kh, kw, 1, 1)
            for i in range(kh):
                for j in range(kw):
                    scatter(i, j, (g5 * taps[:, :, i, j]).reshape(batch, cin, ho, wo))
        else:
            gcols = np.matmul(np.swapaxes(wg, -1, -2), gm)
            gcols = gcols.reshape(batch, cin, kh, kw, ho, wo)
            for i in range(kh):
                for j in range(kw):
                    scatter(i, j, gcols[:, :, i, j])
        if padding:
            gxp = gxp[:, :, padding : padding + h, padding : padding + w]
        x._accumulate(gxp)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _make(out, parents, backward, "conv2d")


# -- normalization ----------------------------------------------------------------


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    eps: float = 1e-5,
    momentum: float = 0.1,
    update_running: bool = True,
) -> Tensor:
    """Per-channel normalization of a [B, C, H, W] map.

    Training mode normalizes with batch statistics and (optionally) folds
    them into the running estimates in place. It is one recorded op whose
    closure holds only the normalized input xhat and inv = 1/sqrt(var + eps).
    Its backward is the closed form dbeta = sum(g), dgamma = sum(g * xhat)
    and dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) with
    dxhat = g * gamma (Ioffe & Szegedy, arXiv 1502.03167).

    Eval mode uses the running statistics as constants: it computes the per-channel scale
    gamma / sqrt(var + eps) and shift beta - mean * scale, then returns
    x * scale + shift, which stays differentiable in x, gamma and beta.
    """
    if eps <= 0:
        raise ValueError(f"batch_norm eps must be positive, got {eps}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm parameter length != channels ({c})")
    if not training:
        # one scale and one shift per channel: two passes over x, not four
        scale = mul(gamma, Tensor(1.0 / np.sqrt(running_var + eps)))
        shift = sub(beta, mul(Tensor(running_mean), scale))
        return add(mul(x, reshape(scale, (1, c, 1, 1))), reshape(shift, (1, c, 1, 1)))
    axes = (0, 2, 3)
    n = x.shape[0] * x.shape[2] * x.shape[3]
    rn = np.asarray(1.0 / n, dtype=x.dtype)
    mean = x.data.sum(axis=axes, keepdims=True) * rn
    xhat = x.data - mean
    var = (xhat * xhat).sum(axis=axes, keepdims=True) * rn
    if update_running:
        unbiased = var.reshape(c) * (n / max(n - 1, 1))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.reshape(c)
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    inv = np.asarray(1.0, dtype=x.dtype) / np.sqrt(var + np.asarray(eps, dtype=DEFAULT_DTYPE))
    xhat *= inv
    out = xhat * gamma.data.reshape(1, c, 1, 1)
    out += beta.data.reshape(1, c, 1, 1)

    def backward(g):
        gsum = g.sum(axis=axes, keepdims=True)
        gdot = (g * xhat).sum(axis=axes, keepdims=True)
        beta._accumulate(gsum.reshape(c))
        gamma._accumulate(gdot.reshape(c))
        if not x.requires_grad:
            return
        # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) with
        # dxhat = g * gamma; gamma is per channel, so it factors out
        dx = xhat * (gdot * rn)
        dx += gsum * rn
        np.subtract(g, dx, out=dx)
        dx *= gamma.data.reshape(1, c, 1, 1) * inv
        x._accumulate(dx)

    return _make(out, (x, gamma, beta), backward, "batch_norm")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis only."""
    if eps <= 0:
        raise ValueError(f"layer_norm eps must be positive, got {eps}")
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm parameter length != last extent ({d})")
    mean = tmean(x, axis=-1, keepdims=True)
    centered = sub(x, mean)
    var = tmean(square(centered), axis=-1, keepdims=True)
    inv = div(Tensor(np.asarray(1.0, dtype=x.dtype)), sqrt(add(var, _wrap(eps))))
    return add(mul(mul(centered, inv), gamma), beta)


# -- patch folding ------------------------------------------------------------------


def unfold_patches(x: Tensor, ph: int, pw: int) -> Tensor:
    """[B, C, H, W] -> [B*ph*pw, (H/ph)*(W/pw), C] patch-position sequences."""
    batch, c, h, w = x.shape
    if h % ph or w % pw:
        raise ShapeError(f"unfold_patches: spatial {h}x{w} not divisible by patch {ph}x{pw}")
    hp, wp = h // ph, w // pw
    t = reshape(x, (batch, c, hp, ph, wp, pw))
    t = transpose(t, (0, 3, 5, 2, 4, 1))  # (B, ph, pw, Hp, Wp, C)
    return reshape(t, (batch * ph * pw, hp * wp, c))


def fold_patches(x: Tensor, ph: int, pw: int, out_shape: tuple[int, int, int, int]) -> Tensor:
    """Exact inverse of :func:`unfold_patches`; ``out_shape`` is (B, C, H, W)."""
    batch, c, h, w = out_shape
    hp, wp = h // ph, w // pw
    if x.shape != (batch * ph * pw, hp * wp, c):
        raise ShapeError(f"fold_patches: got {x.shape}, expected {(batch * ph * pw, hp * wp, c)}")
    t = reshape(x, (batch, ph, pw, hp, wp, c))
    t = transpose(t, (0, 5, 3, 1, 4, 2))  # (B, C, Hp, ph, Wp, pw)
    return reshape(t, (batch, c, h, w))


# -- attention ------------------------------------------------------------------------


def multi_head_attention(
    x: Tensor,
    wq: Tensor,
    wk: Tensor,
    wv: Tensor,
    wo: Tensor,
    heads: int,
    bq: Tensor | None = None,
    bk: Tensor | None = None,
    bv: Tensor | None = None,
    bo: Tensor | None = None,
) -> Tensor:
    """Scaled dot-product self-attention over [B, T, D] sequences."""
    batch, t, d = x.shape
    if d % heads:
        raise ShapeError(f"attention dim {d} not divisible by heads {heads}")
    hd = d // heads

    def split(z):
        return transpose(reshape(z, (batch, t, heads, hd)), (0, 2, 1, 3))

    q = split(linear(x, wq, bq))
    k = split(linear(x, wk, bk))
    v = split(linear(x, wv, bv))
    scores = matmul(q, transpose(k, (0, 1, 3, 2)))
    scores = mul(scores, Tensor(np.asarray(1.0 / np.sqrt(hd), dtype=x.dtype)))
    weights = softmax(scores)
    ctx = matmul(weights, v)
    merged = reshape(transpose(ctx, (0, 2, 1, 3)), (batch, t, d))
    return linear(merged, wo, bo)
