"""Dense float tensors with reverse-mode automatic differentiation.

Every operation on an input that requires grad records one node: its output
tensor holds its inputs and a closed-form backward closure. ``backward()`` on
a scalar loss walks the graph in reverse topological order, accumulates
gradients into every tensor that requires them and consumes the graph as it
goes: each intermediate drops its gradient, closure and parents once its
closure has run, and only leaves that require grad (parameters) keep
``grad``. A closure hands a gradient buffer it has just allocated to
``_accumulate`` rather than having it copied. Nothing is recorded inside
``no_grad()``, which every eval-mode ``Module`` call enters.

A closure keeps only what it reads and cannot cheaply rebuild from the
arrays the graph holds anyway. Every rebuild runs the forward's ops in the
forward's order, so it has the forward's bits: the store-against-recompute
trade of Chen et al. (arXiv 1604.06174). An output its producer can rebuild
is released once its consumers have run their forwards (``Tensor._release``)
and rebuilt when next read. Per recorded op:

    op               closure keeps        backward rebuilds      output
    add, tsum,       -                    -                      kept
      concat, folds
    scale            the constant         -                      kept
    global_avg_pool  1/(H·W)              -                      kept
    cross_entropy    exp, its row sums,   -                      kept
                     -target
    layer_norm       mean, inv            xhat from x            kept
    _attend          the probabilities    per-head q, k and v    kept
    linear           -                    pre-activation (act)   kept
    conv2d           -                    columns; pre-act (act) kept
    conv2d, norm,    mean, inv            xhat from x (a GEMM);  kept
      1x1                                 pre-activation (act)
    conv2d, norm,    xhat, mean, inv      pre-activation (act)   released,
      other                                                      from xhat

Here ``-`` is no array beyond the op's inputs, inv is 1/sqrt(var + eps) and
the pre-activation is what SiLU was applied to (only with ``act``). The
norms' mean and inv are per-channel or per-row vectors, never maps. Every
SiLU is a/(1 + exp(-a)) (``_silu``), and its derivative is taken by
``_silu_grad``, from the output and the rebuilt pre-activation. A recorded
``conv2d`` releases its input once its forward has run, since its backward
reads ``x.data`` again.

``linear``, ``conv2d`` and the norm finish their outputs in place with one
epilogue, ``_epilogue``: bias, SiLU when asked, finite check. An unrecorded
conv runs one tile kernel, ``_conv2d_tiles``, with the epilogue on each tile
while it is in cache. Data lives in flat numpy arrays; float32 is the
default working precision (float64 is used by the gradient-check harness).
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager

import numpy as np

DEFAULT_DTYPE = np.float32
NORM_EPS = 1e-5  # added to the variance by conv2d's norm, layer_norm and eval's fold
BN_MOMENTUM = 0.1  # weight of a batch's statistics in conv2d's norm's running ones

# Whether operations record the autodiff graph; switched off by no_grad().
_GRAD_ENABLED = True


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
    # NaN/Inf is a hard error, never a value to propagate
    if not np.isfinite(data).all():
        raise NumericError(f"{op} produced non-finite values")


class _Rebuild:
    """Stands in for a released node output (``Tensor._release``): the
    output's shape, dtype, ndim and size, and ``fn``, which returns a fresh
    array with the output's bits."""

    __slots__ = ("fn", "shape", "dtype", "ndim", "size")

    def __init__(self, fn, like: np.ndarray):
        self.fn = fn
        self.shape, self.dtype, self.ndim, self.size = like.shape, like.dtype, like.ndim, like.size


class Tensor:
    """N-dimensional float array with an optional gradient slot.

    Image tensors are laid out (batch, channels, height, width); token
    sequences are (batch, tokens, dim). Data is row-major.

    A node output that the graph can rebuild bit for bit carries a
    ``_Rebuild`` and may be released: its array is dropped, and the next
    read of ``data`` rebuilds it once and keeps it. ``shape``, ``ndim``,
    ``size`` and ``dtype`` never rebuild it.
    """

    __slots__ = ("_data", "_rebuild", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def data(self) -> np.ndarray:
        data = self._data
        if data is self._rebuild:  # released: rebuild once and keep
            data = self._data = data.fn()
        return data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        self._data, self._rebuild = value, None

    def _release(self) -> None:
        """Drop the array of an output that can be rebuilt; a no-op otherwise."""
        if self._rebuild is not None:
            self._data = self._rebuild

    # -- basic introspection ------------------------------------------------
    # a released output's stand-in answers these without a rebuild

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return self._data.size

    @property
    def dtype(self):
        return self._data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    # -- autodiff plumbing --------------------------------------------------

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad``. ``owned`` says the caller allocated
        ``grad`` and keeps no alias to it, so a first gradient of the right
        dtype is taken over rather than copied."""
        if not self.requires_grad:
            return  # a constant or an input batch: nothing will read its grad
        if self.grad is None:
            if owned and grad.dtype == self.data.dtype:
                self.grad = grad
            else:
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


def _recording(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op on ``parents`` records a graph node."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """The result of an op whose data is already checked finite, recorded
    when ``_recording(parents)``."""
    out = Tensor(data)
    if _recording(parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward, op: str) -> Tensor:
    _check_finite(data, op)
    return _node(data, parents, backward)


# -- elementwise arithmetic ---------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b of one shape: both take g as their gradient."""
    if a.shape != b.shape:
        raise ShapeError(f"add of shapes {a.shape} and {b.shape}")
    data = a.data + b.data

    def backward(g):
        a._accumulate(g)
        b._accumulate(g)

    return _make(data, (a, b), backward, "add")


def scale(a: Tensor, c: np.ndarray) -> Tensor:
    """a times the constant ``c``, whose gradient is g·c."""
    data = a.data * c

    def backward(g):
        a._accumulate(g * c, owned=True)

    return _make(data, (a,), backward, "scale")


# -- activations --------------------------------------------------------------


def _silu(a: np.ndarray) -> np.ndarray:
    """SiLU of ``a`` in place, as a / (1 + exp(-a)) in that op order: four
    passes and one fresh buffer for the denominator, no reciprocal. Returns
    ``a``."""
    den = np.negative(a)
    with np.errstate(over="ignore"):  # exp(-a) overflows to inf below about -88: a/inf is -0
        np.exp(den, out=den)
    den += 1.0
    return np.divide(a, den, out=a)


def _epilogue(buf: np.ndarray, bias: np.ndarray | None, act: bool, op: str) -> None:
    """Finish a conv2d, linear or norm output in place while it is in cache:
    add ``bias`` (broadcast against ``buf``), apply SiLU if ``act``
    (``_silu``) and check ``buf`` is finite. Callers hand it the whole output
    or one tile at a time and check nothing else."""
    if bias is not None:
        buf += bias
    if act:
        _silu(buf)
    _check_finite(buf, op)


def _silu_grad(g: np.ndarray, y: np.ndarray, pre: np.ndarray) -> np.ndarray:
    """SiLU's input gradient g·(1 + a − y)/(1 + exp(−a)) in seven passes and
    one fresh buffer, from its output y = a/(1 + exp(−a)) and ``pre``, a
    private buffer holding a, in which the denominator is built. With
    σ = σ(a) this is g·σ·(1 + a·(1 − σ)) = g·(σ + a·σ·(1 − σ))."""
    grad = np.subtract(pre, y)
    grad += 1.0
    grad *= g
    den = np.negative(pre, out=pre)
    with np.errstate(over="ignore"):  # as in _silu: the gradient is then -0 or 0
        np.exp(den, out=den)
    den += 1.0
    grad /= den
    return grad


# -- shape manipulation --------------------------------------------------------


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
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape))

    return _make(data, (a,), backward, "sum")


def global_avg_pool(a: Tensor) -> Tensor:
    """Spatial mean of a [B, C, H, W] map, returning [B, C]: one recorded op,
    the sum over (H, W) times 1/(H·W), whose backward spreads g·1/(H·W) over
    every pixel."""
    if a.ndim != 4:
        raise ShapeError(f"global_avg_pool expects 4-D input, got {a.shape}")
    scale = np.asarray(1.0 / (a.shape[2] * a.shape[3]), dtype=a.dtype)
    data = a.data.sum(axis=(2, 3)) * scale

    def backward(g):
        a._accumulate(np.broadcast_to(np.expand_dims(g * scale, (2, 3)), a.shape))

    return _make(data, (a,), backward, "global_avg_pool")


# -- loss ------------------------------------------------------------------------


def cross_entropy(logits: Tensor, target: np.ndarray) -> Tensor:
    """Mean over rows of −Σ target · log_softmax(logits), for [B, K] logits
    and a constant [B, K] target distribution: one recorded op.

    The log-softmax is stabilized by a max shift. Forward and backward run
    the numpy ops of the chain of primitives they replace in its order, so
    loss and gradient keep its bits. With e = exp(shifted logits), s = Σ e
    over a row and G = −target · g/B, the backward is
    dlogits = e · (Σ −G) / s + G, which is (softmax − target) · g/B for a
    target whose rows sum to one. The closure keeps e, s and −target.
    """
    target = np.asarray(target, dtype=logits.dtype)
    if logits.ndim != 2 or target.shape != logits.shape:
        raise ShapeError(f"cross_entropy: target {target.shape} for logits {logits.shape}")
    _check_finite(logits.data, "cross_entropy")
    neg_target = np.negative(target)
    rb = np.asarray(1.0 / logits.shape[0], dtype=logits.dtype)
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=-1, keepdims=True)
    log_probs = shifted - np.log(s)
    loss = (neg_target * log_probs).sum(axis=-1).sum() * rb

    def backward(g):
        grad = neg_target * (g * rb)
        dx = e * (np.negative(grad).sum(axis=-1, keepdims=True) / s)
        dx += grad
        logits._accumulate(dx, owned=True)

    return _make(loss, (logits,), backward, "cross_entropy")


# -- linear algebra --------------------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Tensor, act: bool = False) -> Tensor:
    """x[..., Din] -> x @ weight.T + bias, with weight [Dout, Din], then SiLU
    if ``act``.

    One op, recorded or not: one GEMM of all leading rows against a
    transposed view of the weight (no copy), finished in place by
    ``_epilogue``. The backward takes SiLU's derivative first, from the GEMM
    and bias run again, then dW = gᵀx, db = Σg and, when x requires grad,
    dx = gW.
    """
    if x.shape[-1] != weight.shape[1]:
        raise ShapeError(
            f"linear: input dim {x.shape[-1]} != weight in-dim {weight.shape[1]}"
        )
    rows = x.data.reshape(-1, x.shape[-1])
    out = np.matmul(rows, weight.data.T)
    _epilogue(out, bias.data, act, "linear")

    def backward(g):
        g = g.reshape(out.shape)
        if act:
            pre = np.matmul(rows, weight.data.T)
            pre += bias.data
            g = _silu_grad(g, out, pre)
        weight._accumulate(np.matmul(g.T, rows), owned=True)
        bias._accumulate(g.sum(axis=0), owned=True)
        if x.requires_grad:
            x._accumulate(np.matmul(g, weight.data).reshape(x.shape), owned=True)

    return _node(out.reshape(x.shape[:-1] + (weight.shape[0],)), (x, weight, bias), backward)


# -- convolution -----------------------------------------------------------------


# Bytes of output per tile of the unrecorded conv (``_conv2d_tiles``), and of
# im2col columns per batch chunk of the recorded one (``_chunk_columns``). On
# a Xeon with a 2 MiB per-core L2, summed over exmvit-928's convs at
# 256x256, row tiles of 256 KiB and 512 KiB tied (39-40 ms) ahead of 128 KiB
# (41 ms) and 1 MiB (42 ms), and stride-1 depthwise blocks of whole channel
# maps ran faster at 256 KiB than at 128 KiB or 1 MiB. After three seed-0
# train-tiny steps (batch 32, glibc thresholds pinned as perfbench pins
# them) a process's RSS was 92.4 MiB with 256 KiB chunks, 93.0 with 1 MiB,
# 93.5 with 2 MiB and 101.3 with the whole batch's columns at once.
_TILE_BYTES = 1 << 18


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
    act: bool = False,
    norm: tuple | None = None,
) -> Tensor:
    """2-D cross-correlation with optional grouping, then a training-mode
    batch norm if ``norm`` is given, then SiLU if ``act``.

    x is [B, Cin, H, W], weight is [Cout, Cin/groups, kh, kw]: standard
    (groups=1), depthwise (groups=Cin) and pointwise (1x1) convs. ``norm`` is
    (gamma, beta, running_mean, running_var): the conv, the norm and the SiLU
    are then one op whose norm works in the conv's own output buffer
    (``_batch_norm``), and the running statistics move.

    Recorded, a plain 1x1 conv is one matmul on the input itself. Any other
    is ``_conv2d_gemm``: im2col columns at output pitch
    P = Wo + (kw − 1)//stride, cut from stride phase planes for one chunk of
    whole images at a time. The backward cuts them again from ``x.data``
    for the weight gradient, one matmul per image of g padded to pitch P,
    summed over the batch. The input gradient is skipped when x does not
    require grad; a plain 1x1's is one matmul, any other's is
    ``_conv2d_input_grad``.

    Unrecorded, the conv runs ``_conv2d_tiles``, then the norm on the whole
    output.
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

    conv_parents = (x, weight) if bias is None else (x, weight, bias)
    parents = conv_parents if norm is None else conv_parents + norm[:2]
    conv_act = act and norm is None  # with a norm, SiLU follows the norm
    if not _recording(parents):
        b = None if bias is None else bias.data
        out = _conv2d_tiles(x.data, weight.data, b, conv_act, stride, padding, groups, ho, wo)
        if norm is not None:
            out = _batch_norm(out, *norm, act)[0]
        return Tensor(out)  # every piece was checked by its epilogue

    cout_g, k = cout // groups, cin_g * kh * kw
    wg = weight.data.reshape(groups, cout_g, k)
    pointwise = kh == kw == 1 and stride == 1 and not padding
    pitch = wo if pointwise else wo + (kw - 1) // stride
    dtype = np.result_type(x.data, weight.data)

    def columns():
        # cut from x.data on each call: the closure keeps no copy of the input
        if pointwise:  # the input itself, at its own pitch, as one chunk
            yield 0, batch, np.ascontiguousarray(x.data).reshape(batch, groups, cin_g, h * w)
        else:
            yield from _chunk_columns(x.data, groups, kh, kw, stride, padding, padding, ho, pitch)

    def biased():
        # the product plus bias, from x.data on each call
        if pointwise:
            out = np.matmul(wg, next(columns())[2]).reshape(batch, cout, ho, wo)
        else:
            out = _conv2d_gemm(x.data, weight.data, groups, stride, padding, padding, (ho, wo))
        if bias is not None:
            out += bias.data.reshape(1, cout, 1, 1)
        return out

    out = biased()
    _epilogue(out, None, conv_act, "conv2d")
    norm_grad = remake = None
    if norm is not None:
        # normalized in the conv's own buffer, which becomes the norm's xhat;
        # a pointwise conv's norm drops it and rebuilds it with one GEMM
        rebuild = biased if pointwise else None
        out, norm_grad, remake = _batch_norm(out, *norm, act, rebuild=rebuild)

    def backward(g):
        # the output through a weak reference to its node: the closure keeps
        # no array of it and no cycle through the node
        if norm_grad is not None:
            produced = node()
            g = norm_grad(g, produced.data if act else None)
            produced._release()  # its consumers are done: released again once read
        elif act:
            g = _silu_grad(g, node().data, biased())
        if bias is not None:
            bias._accumulate(g.sum(axis=(0, 2, 3)), owned=True)
        # g at the column pitch, zero in the wrap columns, so the columns'
        # wrap entries add nothing to the weight gradient
        gp = g if pitch == wo else _phase_planes(g, 1, 0, 0, ho, pitch)
        gm = gp.reshape(batch, groups, cout_g, ho * pitch)
        gw = np.empty((batch, groups, cout_g, k), dtype=dtype)  # one product per image
        for b0, b1, cols in columns():
            np.matmul(gm[b0:b1], np.swapaxes(cols, -1, -2), out=gw[b0:b1])
        weight._accumulate(gw.sum(axis=0).reshape(weight.shape), owned=True)
        if not x.requires_grad:
            return
        if pointwise:
            gx = np.matmul(np.swapaxes(wg, -1, -2), gm).reshape(x.shape)
        else:
            gx = _conv2d_input_grad(g, weight.data, groups, stride, padding, (h, w))
        x._accumulate(gx, owned=True)

    result = _node(out, parents, backward)
    node = weakref.ref(result)
    if remake is not None:
        # a norm that keeps xhat gives up its output, a few passes away: In-Place
        # ABN's trade run the other way round (Rota Bulò et al., arXiv 1712.02616)
        result._rebuild = _Rebuild(remake, out)
    x._release()  # this closure reads x.data again, rebuilt if released
    return result


def _phase_span(n: int, stride: int, offset: int, phase: int, extent: int) -> tuple[slice, slice]:
    """Along one axis: the plane positions r < ``extent`` of phase ``phase``
    whose source index r·s + phase − offset lies in [0, n), and those source
    indices, as a pair of slices."""
    lo = max(0, (offset - phase + stride - 1) // stride)
    hi = max(lo, min(extent, (n + offset - phase + stride - 1) // stride))
    first = lo * stride + phase - offset
    return slice(lo, hi), slice(first, first + (hi - lo) * stride, stride)


def _phase_planes(x: np.ndarray, stride: int, top: int, left: int, rows: int, pitch: int) -> np.ndarray:
    """``x`` zero-padded by ``top`` rows and ``left`` columns, as (B, C, s, s,
    rows, pitch) phase planes of stride s.

    Plane (a, b) holds padded pixel (r·s + a, c·s + b) at (r, c), so tap
    (i, j) of a stride-s conv reads plane (i % s, j % s) from (i // s, j // s)
    on. For s = 1 this is the padded map itself. Padded pixels past rows·s or
    pitch·s are dropped, and a negative ``top`` or ``left`` crops.
    """
    planes = np.zeros(x.shape[:2] + (stride, stride, rows, pitch), dtype=x.dtype)
    for a in range(stride):
        rdst, rsrc = _phase_span(x.shape[2], stride, top, a, rows)
        for b in range(stride):
            cdst, csrc = _phase_span(x.shape[3], stride, left, b, pitch)
            planes[:, :, a, b, rdst, cdst] = x[:, :, rsrc, csrc]
    return planes


def _flat_columns(
    x: np.ndarray, kh: int, kw: int, stride: int, top: int, left: int, ho: int, pitch: int
) -> np.ndarray:
    """(B, C, kh, kw, Ho·P) im2col columns of ``x`` at pitch P, cut from its
    phase planes (``_phase_planes``, padded by ``top`` rows and ``left``
    columns) for Ho output rows.

    Output pixel (r, c) sits at flat index r·P + c, and tap (i, j) is the
    contiguous run of plane (i % s, j % s) that starts at (i // s)·P + j // s,
    so every column row is Ho·P long. Its P − Wo wrap columns read the next
    row (or the planes' spare row) and are dropped from the product. For
    s = 1 the columns are one strided view of the padded map, copied only by
    a reshape that merges the taps; for s > 1 they are one slice copy per tap.
    """
    batch, c = x.shape[:2]
    rows = ho + (kh - 1) // stride + 1
    span = ho * pitch
    planes = _phase_planes(x, stride, top, left, rows, pitch)
    flat = planes.reshape(batch, c, stride, stride, rows * pitch)
    if stride == 1:
        sb, sc, _, _, sp = flat.strides
        return np.lib.stride_tricks.as_strided(
            flat, shape=(batch, c, kh, kw, span), strides=(sb, sc, pitch * sp, sp, sp)
        )
    cols = np.empty((batch, c, kh, kw, span), dtype=x.dtype)
    for i, j in np.ndindex(kh, kw):
        start = (i // stride) * pitch + j // stride
        cols[:, :, i, j] = flat[:, :, i % stride, j % stride, start : start + span]
    return cols


def _chunk_columns(
    x: np.ndarray, groups: int, kh: int, kw: int, stride: int, top: int, left: int, ho: int, pitch: int
):
    """Yield (b0, b1, columns) over the batch in chunks of whole images, as
    many as keep a chunk's columns within ``_TILE_BYTES`` and at least one:
    the ``_flat_columns`` of images b0:b1 as (b1 − b0, groups, K, Ho·P)."""
    batch, c = x.shape[:2]
    k = c // groups * kh * kw
    step = max(1, _TILE_BYTES // (c * kh * kw * ho * pitch * x.dtype.itemsize))
    for b0 in range(0, batch, step):
        b1 = min(b0 + step, batch)
        cols = _flat_columns(x[b0:b1], kh, kw, stride, top, left, ho, pitch)
        yield b0, b1, cols.reshape(b1 - b0, groups, k, ho * pitch)


def _conv2d_gemm(
    x: np.ndarray, weight: np.ndarray, groups: int, stride: int, top: int, left: int, size: tuple[int, int]
) -> np.ndarray:
    """(B, Cout, Ho, Wo) cross-correlation, (Ho, Wo) = ``size``, of ``x``
    zero-padded by ``top`` rows and ``left`` columns (cropped where negative)
    and past its far edges, with a (Cout, C/groups, kh, kw) ``weight``: one
    grouped matmul per chunk of ``_chunk_columns`` at pitch
    P = Wo + (kw − 1)//stride, written without its P − Wo wrap columns into
    the output. Each image's BLAS call is a whole-batch matmul's, so the
    chunks change no bits."""
    cout, _, kh, kw = weight.shape
    ho, wo = size
    pitch = wo + (kw - 1) // stride
    wg = weight.reshape(groups, cout // groups, -1)
    out = np.empty((x.shape[0], cout, ho, wo), dtype=np.result_type(x, weight))
    for b0, b1, cols in _chunk_columns(x, groups, kh, kw, stride, top, left, ho, pitch):
        prod = np.matmul(wg, cols).reshape(b1 - b0, cout, ho, pitch)
        out[b0:b1] = prod[..., :wo]  # without the wrap columns
    return out


def _conv2d_input_grad(
    g: np.ndarray, weight: np.ndarray, groups: int, stride: int, padding: int, size: tuple[int, int]
) -> np.ndarray:
    """Input gradient, (H, W) = ``size``, of a conv that is not a plain 1x1:
    the stride-1 ``_conv2d_gemm`` of g dilated by the stride and zero-padded
    by k − 1 − padding, with the kernel rotated by 180° and its in and out
    channels swapped (Dumoulin & Visin, arXiv 1603.07285, section 4). The
    dilation is one zeroed (B, Cout, (Ho−1)·s+1, (Wo−1)·s+1) map that g is
    written into with a step of s; at stride 1 it is g itself."""
    batch, cout, ho, wo = g.shape
    _, cin_g, kh, kw = weight.shape
    cout_g = cout // groups
    # contiguous: a reversed-stride view sends numpy's matmul to a slow loop
    rot = weight.reshape(groups, cout_g, cin_g, kh, kw)[:, :, :, ::-1, ::-1].transpose(0, 2, 1, 3, 4)
    rot = np.ascontiguousarray(rot).reshape(groups * cin_g, cout_g, kh, kw)
    if stride > 1:
        dilated = np.zeros((batch, cout, (ho - 1) * stride + 1, (wo - 1) * stride + 1), dtype=g.dtype)
        dilated[:, :, ::stride, ::stride] = g
        g = dilated
    return _conv2d_gemm(g, rot, groups, 1, kh - 1 - padding, kw - 1 - padding, size)


def _conv2d_tiles(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    act: bool,
    stride: int,
    padding: int,
    groups: int,
    ho: int,
    wo: int,
) -> np.ndarray:
    """Unrecorded conv, one tile of about ``_TILE_BYTES`` of output at a time.

    A tile is one image by a block of groups by a block of output rows: as
    many whole group maps as fit, else one group's map in blocks of rows.
    Its columns are cut at pitch P, as the recorded forward's are, from phase
    planes of the input band it reads (``_flat_columns``), so the whole map
    is never padded; a stride-1 1x1 conv reads the tile's input rows in
    place. The product is one GEMM, except with one output channel per group
    at stride 1 (depthwise), where the taps are summed in order as
    multiply-adds over the column runs. The tile's output pixels are copied
    out of the product without its P − Wo wrap columns into one contiguous
    buffer and finished there by ``_epilogue`` while in cache: the output
    itself for whole maps, else a tile buffer then copied into the output (a
    plain 1x1 has no wrap columns, and its product is that buffer).
    An image's tiles and their op order are the same at any batch size, so
    batch rows equal single-image rows.
    """
    batch = x.shape[0]
    cout, cin_g, kh, kw = weight.shape
    cout_g = cout // groups
    dtype = np.result_type(x, weight)
    pointwise = kh == kw == 1 and stride == 1 and not padding
    pitch = wo if pointwise else wo + (kw - 1) // stride
    taps = cout_g == 1 and stride == 1
    row_bytes = cout_g * wo * dtype.itemsize
    rows = max(1, min(ho, _TILE_BYTES // row_bytes))
    block = max(1, min(groups, _TILE_BYTES // (row_bytes * ho)))  # 1 unless whole maps fit
    wg = weight.reshape(groups, cout_g, cin_g * kh * kw)
    chbias = None if bias is None else bias.reshape(cout, 1, 1)
    out = np.empty((batch, cout, ho, wo), dtype=dtype)
    prod = np.empty(block * cout_g * rows * pitch, dtype=dtype)
    tile = None if pitch == wo else np.empty(block * cout_g * rows * wo, dtype=dtype)
    term = np.empty(block * rows * pitch, dtype=dtype) if taps else None
    for n in range(batch):
        for g0 in range(0, groups, block):
            g1 = min(g0 + block, groups)
            c0, c1 = g0 * cout_g, g1 * cout_g
            src = x[n : n + 1, g0 * cin_g : g1 * cin_g]
            for lo in range(0, ho, rows):
                hi = min(lo + rows, ho)
                span = (hi - lo) * pitch
                if pointwise:
                    cols = src[:, :, lo:hi]
                else:  # a negative top crops the rows above the tile's band
                    top = padding - lo * stride
                    cols = _flat_columns(src, kh, kw, stride, top, padding, hi - lo, pitch)
                cols = cols.reshape(g1 - g0, cin_g, kh, kw, span)
                part = prod[: (c1 - c0) * span].reshape(g1 - g0, cout_g, span)
                if taps:
                    acc, tmp = part[:, 0], term[: (g1 - g0) * span].reshape(g1 - g0, span)
                    for t, (ci, i, j) in enumerate(np.ndindex(cin_g, kh, kw)):
                        np.multiply(cols[:, ci, i, j], wg[g0:g1, :, t], out=tmp if t else acc)
                        if t:
                            acc += tmp
                else:
                    np.matmul(wg[g0:g1], cols.reshape(g1 - g0, cin_g * kh * kw, span), out=part)
                pixels = part.reshape(c1 - c0, hi - lo, pitch)
                target = out[n, c0:c1, lo:hi]
                if pitch != wo:
                    # without the wrap columns, into one contiguous buffer: the
                    # output itself where the tile's slice of it is contiguous
                    buf = target if target.flags.c_contiguous else tile[: target.size].reshape(target.shape)
                    buf[...] = pixels[..., :wo]
                    pixels = buf
                _epilogue(pixels, None if chbias is None else chbias[c0:c1], act, "conv2d")
                if pixels is not target:
                    target[...] = pixels
    return out


# -- normalization ----------------------------------------------------------------


def _channel_sum(a: np.ndarray, c: int) -> np.ndarray:
    """Per-channel sums of a (B, C, ...) map: one GEMV of its (B·C, H·W)
    rows against ones, summed over the batch."""
    rows = a.reshape(a.shape[0] * c, -1)
    return (rows @ np.ones(rows.shape[1], dtype=a.dtype)).reshape(-1, c).sum(axis=0)


def _channel_dot(a: np.ndarray, b: np.ndarray, c: int) -> np.ndarray:
    """Per-channel sums of a·b over two (B, C, ...) maps: one einsum."""
    return np.einsum("bcp,bcp->c", a.reshape(a.shape[0], c, -1), b.reshape(b.shape[0], c, -1))


def _batch_norm(
    x: np.ndarray,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    act: bool,
    rebuild=None,
):
    """Training batch norm of the private [B, C, H, W] buffer ``x``, then
    SiLU if ``act``: ``conv2d``'s ``norm``.

    ``x`` is normalized in place into xhat, and the output y = xhat·γ + β
    is finished by ``_epilogue``. Only y is checked finite (a NaN or Inf
    before SiLU survives it), and the batch statistics are folded into the
    running ones only after it, so a non-finite output leaves them as they
    were. Returns y; ``grad(g, y)``, which accumulates dγ and dβ and returns
    dx, reading y only with ``act``; and ``output()``, which rebuilds y from
    xhat, or None when ``rebuild`` is given. ``rebuild`` returns a fresh copy
    of ``x`` as it came: ``grad`` then keeps no xhat and rebuilds it. γ and β
    are copied as the forward reads them, so a rebuild after an optimizer
    step still has the forward's bits. The backward is dβ = Σg, dγ = Σg·xhat
    and dx = inv·(dxhat − mean(dxhat) − xhat·mean(dxhat·xhat)) with
    dxhat = g·γ (Ioffe & Szegedy, arXiv 1502.03167).

    Every map is worked on as (B, C·H·W) rows. A per-channel value (the
    mean, inv = 1/sqrt(var + eps), γ, β and the backward's sums) is kept as
    a (C,) vector and spread to one (C·H·W,) row where it is applied: numpy
    broadcasts a row over contiguous rows several times faster than a
    (1, C, 1, 1) operand over a map. Each per-channel sum is one GEMV of the
    (B·C, H·W) rows against ones, summed over the batch, or one einsum: the
    mean Σx and dβ = Σg, the variance Σxhat² and dγ = Σg·xhat. dx is written
    into a buffer the backward made and no longer reads, when there is one:
    fewer fresh maps leave the allocator fewer holes to fill.
    """
    batch, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm parameter length != channels ({c})")
    hw = h * w
    n = batch * hw
    rn = np.asarray(1.0 / n, dtype=x.dtype)
    mean = _channel_sum(x, c) * rn
    xhat = x.reshape(batch, c * hw)
    xhat -= np.repeat(mean, hw)
    var = _channel_dot(xhat, xhat, c) * rn
    inv = np.asarray(1.0, dtype=x.dtype) / np.sqrt(var + np.asarray(NORM_EPS, dtype=DEFAULT_DTYPE))
    xhat *= np.repeat(inv, hw)
    scale = gamma.data.copy()
    shift = beta.data.copy()
    y = xhat * np.repeat(scale, hw)
    # the SiLU runs in place: the pre-activation is not kept
    _epilogue(y, np.repeat(shift, hw), act, "batch_norm")
    unbiased = var * (n / max(n - 1, 1))
    running_mean *= 1.0 - BN_MOMENTUM
    running_mean += BN_MOMENTUM * mean
    running_var *= 1.0 - BN_MOMENTUM
    running_var += BN_MOMENTUM * unbiased
    kept = xhat if rebuild is None else None

    def output():
        # _epilogue's ops in its order, without the finite check they passed
        y = kept * np.repeat(scale, hw)
        y += np.repeat(shift, hw)
        if act:
            _silu(y)
        return y.reshape(batch, c, h, w)

    def grad(g, y):
        xhat = kept
        if xhat is None:  # the forward's ops in its order, on a fresh input
            xhat = rebuild().reshape(batch, c * hw)
            xhat -= np.repeat(mean, hw)
            xhat *= np.repeat(inv, hw)
        spare = None if kept is not None else xhat  # a private buffer dx may take
        g = g.reshape(batch, c * hw)
        if act:
            pre = xhat * np.repeat(scale, hw)  # the forward's ops in its order
            pre += np.repeat(shift, hw)
            g = _silu_grad(g, y.reshape(batch, c * hw), pre)
            spare = pre
        gsum = _channel_sum(g, c)
        gdot = _channel_dot(g, xhat, c)
        beta._accumulate(gsum, owned=True)
        gamma._accumulate(gdot, owned=True)
        # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) with
        # dxhat = g * gamma; gamma is per channel, so it factors out
        dx = np.multiply(xhat, np.repeat(gdot * rn, hw), out=spare)
        dx += np.repeat(gsum * rn, hw)
        np.subtract(g, dx, out=dx)
        dx *= np.repeat(scale * inv, hw)
        return dx.reshape(batch, c, h, w)

    return y.reshape(batch, c, h, w), grad, output if rebuild is None else None


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis, kept as an axis of one: one GEMV."""
    d = a.shape[-1]
    return (a.reshape(-1, d) @ np.ones(d, dtype=a.dtype)).reshape(a.shape[:-1] + (1,))


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sums of a·b over the last axis, kept as an axis of one: one einsum."""
    return np.einsum("...d,...d->...", a, b)[..., None]


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis only, with ``NORM_EPS``.

    One recorded op. Its forward takes the per-row mean as one matmul of
    the rows against ones, centres, takes the variance as one einsum of the
    centred rows, then +eps, sqrt, 1/, scale and the affine, in that order:
    at the model's widths (16 to 240) a matmul and an einsum sum up to
    several times faster than ``sum(axis=-1)``. The closure holds only the
    per-row mean and inv = 1/sqrt(var + eps). The backward rebuilds the
    normalized input xhat from x, which the graph holds, with the forward's
    ops (x − mean, · inv), then runs the closed form dbeta = sum(g),
    dgamma = sum(g * xhat) and
    dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) with
    dxhat = g * gamma, the means taken over the last axis; its sums are
    again matmuls against ones and einsums.
    """
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm parameter length != last extent ({d})")
    rn = np.asarray(1.0 / d, dtype=x.dtype)
    mean = _row_sum(x.data) * rn
    xhat = x.data - mean
    var = _row_dot(xhat, xhat) * rn
    inv = np.asarray(1.0, dtype=x.dtype) / np.sqrt(var + np.asarray(NORM_EPS, dtype=DEFAULT_DTYPE))
    xhat *= inv
    out = xhat * gamma.data
    out += beta.data

    def backward(g):
        xhat = x.data - mean  # the forward's ops in its order
        xhat *= inv
        rows, xrows = g.reshape(-1, d), xhat.reshape(-1, d)
        beta._accumulate(np.ones(len(rows), dtype=g.dtype) @ rows, owned=True)
        gamma._accumulate(np.einsum("rd,rd->d", rows, xrows), owned=True)
        if not x.requires_grad:
            return
        dxhat = g * gamma.data
        dx = xhat * (_row_dot(dxhat, xhat) * rn)
        dx += _row_sum(dxhat) * rn
        np.subtract(dxhat, dx, out=dx)
        dx *= inv
        x._accumulate(dx, owned=True)

    return _make(out, (x, gamma, beta), backward, "layer_norm")


# -- patch folding ------------------------------------------------------------------


def _permute(x: Tensor, split: tuple, axes: tuple, shape: tuple, op: str) -> Tensor:
    """``x`` viewed as ``split``, its axes permuted by ``axes`` and the copy
    reshaped to ``shape``: one recorded op whose backward is the inverse
    permutation."""
    data = np.ascontiguousarray(x.data.reshape(split).transpose(axes)).reshape(shape)
    permuted = tuple(split[a] for a in axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        gx = np.array(g.reshape(permuted).transpose(inverse), order="C")
        x._accumulate(gx.reshape(x.shape), owned=True)

    return _make(data, (x,), backward, op)


def unfold_patches(x: Tensor, ph: int, pw: int) -> Tensor:
    """[B, C, H, W] -> [B*ph*pw, (H/ph)*(W/pw), C] patch-position sequences."""
    batch, c, h, w = x.shape
    if h % ph or w % pw:
        raise ShapeError(f"unfold_patches: spatial {h}x{w} not divisible by patch {ph}x{pw}")
    hp, wp = h // ph, w // pw
    split = (batch, c, hp, ph, wp, pw)  # permuted to (B, ph, pw, Hp, Wp, C)
    return _permute(x, split, (0, 3, 5, 2, 4, 1), (batch * ph * pw, hp * wp, c), "unfold_patches")


def fold_patches(x: Tensor, ph: int, pw: int, out_shape: tuple[int, int, int, int]) -> Tensor:
    """Exact inverse of :func:`unfold_patches`; ``out_shape`` is (B, C, H, W)."""
    batch, c, h, w = out_shape
    hp, wp = h // ph, w // pw
    if x.shape != (batch * ph * pw, hp * wp, c):
        raise ShapeError(f"fold_patches: got {x.shape}, expected {(batch * ph * pw, hp * wp, c)}")
    split = (batch, ph, pw, hp, wp, c)  # permuted to (B, C, Hp, ph, Wp, pw)
    return _permute(x, split, (0, 5, 3, 1, 4, 2), (batch, c, h, w), "fold_patches")


# -- attention ------------------------------------------------------------------------


def _attend(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """softmax(q_h k_hᵀ) v_h for each head h of [B, T, D] sequences, merged
    back to [B, T, D]: one recorded op.

    q arrives scaled. The scores are checked finite before the softmax, which
    runs in their buffer: a score that overflowed to -inf would otherwise
    become a silent zero. The closure keeps only the probabilities P; the
    backward cuts the per-head q, k and v again from the inputs, which the
    graph holds, and is dV = Pᵀ dO, dP = dO Vᵀ,
    dS = P ⊙ (dP − rowsum(dP ⊙ P)), dQ = dS K and dK = dSᵀ Q.
    """
    batch, t, d = q.shape

    def split(z):
        return np.ascontiguousarray(z.reshape(batch, t, heads, -1).transpose(0, 2, 1, 3))

    def merge(z):
        return np.ascontiguousarray(z.transpose(0, 2, 1, 3)).reshape(batch, t, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    # kᵀ copied, as in the reference chain: BLAS sums a transposed view in another order
    with np.errstate(over="ignore"):  # an overflowed score raises below instead
        probs = np.matmul(qh, np.ascontiguousarray(kh.transpose(0, 1, 3, 2)))
    _check_finite(probs, "attention")
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)

    def backward(g):
        go = split(g)
        v._accumulate(merge(np.matmul(probs.transpose(0, 1, 3, 2), go)), owned=True)
        ds = np.matmul(go, split(v.data).transpose(0, 1, 3, 2))
        ds -= (ds * probs).sum(axis=-1, keepdims=True)
        ds *= probs
        q._accumulate(merge(np.matmul(ds, split(k.data))), owned=True)
        k._accumulate(merge(np.matmul(ds.transpose(0, 1, 3, 2), split(q.data))), owned=True)

    return _make(merge(np.matmul(probs, vh)), (q, k, v), backward, "attention")

