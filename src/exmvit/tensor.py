"""Dense float tensors with reverse-mode automatic differentiation.

Every operation on an input that requires grad records its inputs and a
backward closure on the output tensor, so calling ``backward()`` on a scalar
loss walks the recorded graph in reverse topological order and accumulates
gradients into every tensor that requires them. Nothing is recorded inside
``no_grad()``, which every eval-mode ``Module`` call enters, so an eval
forward holds no graph. ``backward()`` consumes the graph it walks: each
intermediate drops its gradient, its closure and its parents once its
closure has run, and only leaf tensors that require grad (parameters) keep
``grad``; constants and input batches never get one. A closure hands a
gradient buffer it has just allocated to ``_accumulate`` rather than having
it copied. Fused ops (``batch_norm``, ``layer_norm``, ``conv2d``,
``linear``, ``silu``, ``softmax``, attention's ``_attend`` and the two patch
folds) record one node each, with a closed-form backward whose closure keeps
only what it reads; ``linear`` and attention run the same numpy recorded or
not. A training ``batch_norm`` with ``act`` also runs its SiLU in that node,
with ``silu``'s bits. ``linear`` and an unrecorded ``conv2d`` finish their
output in place with one epilogue: bias add, SiLU when asked (``act``, with
``silu``'s bits) and the finite check. The conv runs it on one cache-sized
tile (one image by a block of output rows, about 256 KiB) at a time, and at
stride 1 a depthwise conv reads flattened padded rows, not im2col columns.
A recorded ``conv2d`` works on flat rows too: its im2col columns are cut
from the input padded once into stride phase planes, so every column row is
a whole band of output rows, not one output row, and the input gradient of
a stride-1 conv is one GEMM with the rotated kernel, not a scatter per tap.
Data lives in flat numpy arrays; float32 is the default working precision
(float64 is used by the gradient-check harness).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

DEFAULT_DTYPE = np.float32
NORM_EPS = 1e-5  # added to the variance by batch_norm, layer_norm and eval's fold
BN_MOMENTUM = 0.1  # weight of a batch's statistics in batch_norm's running ones

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

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
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
        a._accumulate(_unbroadcast(g * b.data, a.shape), owned=True)
        b._accumulate(_unbroadcast(g * a.data, b.shape), owned=True)

    return _make(data, (a, b), backward, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        data = a.data / b.data

    def backward(g):
        a._accumulate(_unbroadcast(g / b.data, a.shape), owned=True)
        b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape), owned=True)

    return _make(data, (a, b), backward, "div")


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def backward(g):
        a._accumulate(g * data, owned=True)

    return _make(data, (a,), backward, "exp")


def log(a: Tensor) -> Tensor:
    data = np.log(a.data)

    def backward(g):
        a._accumulate(g / a.data, owned=True)

    return _make(data, (a,), backward, "log")


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)

    def backward(g):
        a._accumulate(g * 0.5 / data, owned=True)

    return _make(data, (a,), backward, "sqrt")


# -- activations --------------------------------------------------------------


def _sigmoid(a: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-a)) built in one fresh buffer, in that op order."""
    sig = np.negative(a)
    with np.errstate(over="ignore"):  # exp(-a) overflows to inf below about -88: sig is 0
        np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    return sig


def _epilogue(buf: np.ndarray, bias: np.ndarray | None, act: bool, op: str) -> np.ndarray | None:
    """Finish a conv2d or linear output in place while it is in cache: add
    ``bias`` (broadcast against ``buf``), apply SiLU if ``act`` with
    ``silu``'s op order (so its bits), then check ``buf`` is finite. Returns
    the sigmoid when ``act``, for a backward to read. Callers hand it one
    tile at a time and check nothing else."""
    if bias is not None:
        buf += bias
    sig = None
    if act:
        sig = _sigmoid(buf)
        buf *= sig
    _check_finite(buf, op)
    return sig


def _silu_grad(g: np.ndarray, out: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """g * (sig + out * (1 - sig)) in one fresh buffer: SiLU's input gradient
    from its output out = a * sig, with the bits of g * (sig + a * sig * (1 - sig))."""
    grad = np.subtract(1.0, sig)
    grad *= out
    grad += sig
    grad *= g
    return grad


def silu(a: Tensor) -> Tensor:
    sig = _sigmoid(a.data)
    data = a.data * sig

    def backward(g):
        a._accumulate(_silu_grad(g, data, sig), owned=True)

    return _make(data, (a,), backward, "silu")


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction."""
    data = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        a._accumulate(data * (g - inner), owned=True)

    return _make(data, (a,), backward, "softmax")


# -- shape manipulation --------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g):
        a._accumulate(g.reshape(a.shape))

    return _make(data, (a,), backward, "reshape")


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
        a._accumulate(_unbroadcast(ga, a.shape), owned=True)
        b._accumulate(_unbroadcast(gb, b.shape), owned=True)

    return _make(data, (a, b), backward, "matmul")


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None, act: bool = False) -> Tensor:
    """x[..., Din] -> x @ weight.T + bias, with weight [Dout, Din], then SiLU
    if ``act``.

    One op, recorded or not: one GEMM of all leading rows against a
    transposed view of the weight (no copy), finished in place by
    ``_epilogue``. Its closure keeps the input rows and the sigmoid; the
    backward takes SiLU's derivative from the output first (``_silu_grad``),
    then dW = gᵀx, db = Σg and, when x requires grad, dx = gW.
    """
    if x.shape[-1] != weight.shape[1]:
        raise ShapeError(
            f"linear: input dim {x.shape[-1]} != weight in-dim {weight.shape[1]}"
        )
    rows = x.data.reshape(-1, x.shape[-1])
    out = np.matmul(rows, weight.data.T)
    sig = _epilogue(out, None if bias is None else bias.data, act, "linear")

    def backward(g):
        g = g.reshape(out.shape)
        if act:
            g = _silu_grad(g, out, sig)
        weight._accumulate(np.matmul(g.T, rows), owned=True)
        if bias is not None:
            bias._accumulate(g.sum(axis=0), owned=True)
        if x.requires_grad:
            x._accumulate(np.matmul(g, weight.data).reshape(x.shape), owned=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _node(out.reshape(x.shape[:-1] + (weight.shape[0],)), parents, backward)


# -- convolution -----------------------------------------------------------------


# Bytes per work buffer of the flat-row depthwise kernel. Two such buffers
# and the input rows they read stay in a 2 MiB per-core L2; on such a Xeon
# 256 KiB beat both 128 KiB and 1 MiB at exmvit-928's stride-1 shapes.
_FLAT_CHUNK_BYTES = 1 << 18
# Bytes of output per tile of the tiled kernel. Summed over exmvit-928's
# tiled convs at 256x256 on the same Xeon, 256 KiB and 512 KiB tied (39-40
# ms) ahead of 128 KiB (41 ms) and 1 MiB (42 ms).
_TILE_BYTES = 1 << 18


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
    act: bool = False,
) -> Tensor:
    """2-D cross-correlation with optional grouping, then SiLU if ``act``.

    x is [B, Cin, H, W], weight is [Cout, Cin/groups, kh, kw]. Covers the
    standard (groups=1), depthwise (groups=Cin) and pointwise (1x1) cases.

    A recorded forward is one batched matmul over im2col columns cut as flat
    rows, followed by a recorded ``silu`` when ``act``. A stride-1 1x1 conv
    without padding uses the input itself as its columns. Any other conv
    pads its input once into phase planes (``_phase_planes``; the padded map
    itself at stride 1) with output pitch P = Wo + (kw-1)//stride, so each
    tap is one contiguous run of Ho·P values (``_flat_columns``) and the
    product drops its P − Wo wrap columns once. The backward closure keeps
    those planes (or the input), not the columns, and rebuilds the columns
    for the weight gradient, a matmul against g padded to pitch P. The input
    gradient is skipped when x does not require grad. At stride 1 it is one
    grouped GEMM with the rotated kernel (``_conv2d_input_grad_s1``); at a
    larger stride each tap adds one contiguous run into the phase planes
    (``_conv2d_input_grad_phases``).

    An unrecorded forward writes its output one cache-sized piece at a time
    and runs ``_epilogue`` (bias, SiLU, finite check) on each piece while it
    is in cache. A padded stride-1 conv with one output channel per group
    runs the flat-row kernel (``_conv2d_flat_rows``); every other conv runs
    the tiled kernel (``_conv2d_tiles``), whose tile is one image by a block
    of output rows.
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

    parents = (x, weight) if bias is None else (x, weight, bias)
    if not _recording(parents):
        b = None if bias is None else bias.data
        if cout == groups and stride == 1 and padding:
            out = _conv2d_flat_rows(x.data, weight.data, b, act, padding, ho, wo)
        else:
            out = _conv2d_tiles(x.data, weight.data, b, act, stride, padding, groups, ho, wo)
        return Tensor(out)  # every piece was checked by its epilogue

    wg = weight.data.reshape(groups, cout // groups, cin_g * kh * kw)
    pointwise = kh == kw == 1 and stride == 1 and not padding
    if pointwise:
        # the columns are the input itself, at its own pitch
        pitch, planes = wo, np.ascontiguousarray(x.data)

        def columns():
            return planes.reshape(batch, groups, cin_g, h * w)

    else:
        # the closure keeps the phase planes, not the columns, and rebuilds them
        pitch = wo + (kw - 1) // stride
        planes = _phase_planes(x.data, stride, padding, padding, ho + (kh - 1) // stride + 1, pitch)

        def columns():
            cols = _flat_columns(planes, kh, kw, stride, ho, pitch)
            return cols.reshape(batch, groups, cin_g * kh * kw, ho * pitch)

    out = np.matmul(wg, columns()).reshape(batch, cout, ho, pitch)
    out = np.ascontiguousarray(out[..., :wo])  # without the wrap columns
    if bias is not None:
        out += bias.data.reshape(1, cout, 1, 1)  # out is fresh: add in place

    def backward(g):
        if bias is not None:
            bias._accumulate(g.sum(axis=(0, 2, 3)), owned=True)
        # g at the column pitch, zero in the wrap columns, so the columns'
        # wrap entries add nothing to the weight gradient
        gp = g if pitch == wo else _phase_planes(g, 1, 0, 0, ho, pitch)
        gm = gp.reshape(batch, groups, cout // groups, ho * pitch)
        gw = np.matmul(gm, np.swapaxes(columns(), -1, -2)).sum(axis=0)
        weight._accumulate(gw.reshape(weight.shape), owned=True)
        if not x.requires_grad:
            return
        if pointwise:
            gx = np.matmul(np.swapaxes(wg, -1, -2), gm).reshape(x.shape)
        elif stride == 1:
            gx = _conv2d_input_grad_s1(g, weight.data, groups, padding, h, w)
        else:
            gx = _conv2d_input_grad_phases(gm, wg, planes, kh, kw, padding, x.shape)
        x._accumulate(gx, owned=True)

    out = _make(out, parents, backward, "conv2d")
    return silu(out) if act else out


def _phase_span(n: int, stride: int, offset: int, phase: int, extent: int) -> tuple[slice, slice]:
    """Along one axis: the plane positions r < ``extent`` of phase ``phase``
    whose source index r·s + phase − offset lies in [0, n), and those source
    indices, as a pair of slices."""
    lo = max(0, (offset - phase + stride - 1) // stride)
    hi = max(lo, min(extent, (n + offset - phase + stride - 1) // stride))
    first = lo * stride + phase - offset
    return slice(lo, hi), slice(first, first + (hi - lo) * stride, stride)


def _phase_index(size: tuple[int, int], stride: int, top: int, left: int, rows: int, pitch: int):
    """Pairs of basic indices, one per phase (a, b): into (B, C, s, s, rows,
    pitch) phase planes and into the (B, C, H, W) map whose pixels they hold."""
    h, w = size
    for a in range(stride):
        rdst, rsrc = _phase_span(h, stride, top, a, rows)
        for b in range(stride):
            cdst, csrc = _phase_span(w, stride, left, b, pitch)
            whole = slice(None)
            yield (whole, whole, a, b, rdst, cdst), (whole, whole, rsrc, csrc)


def _phase_planes(x: np.ndarray, stride: int, top: int, left: int, rows: int, pitch: int) -> np.ndarray:
    """``x`` zero-padded by ``top`` rows and ``left`` columns, as (B, C, s, s,
    rows, pitch) phase planes of stride s.

    Plane (a, b) holds padded pixel (r·s + a, c·s + b) at (r, c), so tap
    (i, j) of a stride-s conv reads plane (i % s, j % s) from (i // s, j // s)
    on. For s = 1 this is the padded map itself. Padded pixels past rows·s or
    pitch·s are dropped, and a negative ``top`` or ``left`` crops.
    """
    planes = np.zeros(x.shape[:2] + (stride, stride, rows, pitch), dtype=x.dtype)
    for dst, src in _phase_index(x.shape[2:], stride, top, left, rows, pitch):
        planes[dst] = x[src]
    return planes


def _flat_columns(planes: np.ndarray, kh: int, kw: int, stride: int, ho: int, pitch: int) -> np.ndarray:
    """(B, C, kh·kw, Ho·P) im2col columns of phase planes at pitch P.

    Output pixel (r, c) sits at flat index r·P + c, and tap (i, j) is the
    contiguous run of plane (i % s, j % s) that starts at (i // s)·P + j // s,
    so every column row is Ho·P long. Its P − Wo wrap columns read the next
    row (or the planes' spare row) and are dropped from the product. For
    s = 1 the columns are one strided view, copied by the reshape; for s > 1
    they are one slice copy per tap.
    """
    batch, c, _, _, rows, _ = planes.shape
    span = ho * pitch
    flat = planes.reshape(batch, c, stride, stride, rows * pitch)
    if stride == 1:
        sb, sc, _, _, sp = flat.strides
        view = np.lib.stride_tricks.as_strided(
            flat, shape=(batch, c, kh, kw, span), strides=(sb, sc, pitch * sp, sp, sp)
        )
        return view.reshape(batch, c, kh * kw, span)
    cols = np.empty((batch, c, kh * kw, span), dtype=planes.dtype)
    for t, (i, j) in enumerate(np.ndindex(kh, kw)):
        start = (i // stride) * pitch + j // stride
        cols[:, :, t] = flat[:, :, i % stride, j % stride, start : start + span]
    return cols


def _conv2d_input_grad_s1(
    g: np.ndarray, weight: np.ndarray, groups: int, padding: int, h: int, w: int
) -> np.ndarray:
    """Input gradient of a stride-1 conv as one grouped GEMM.

    It is the stride-1 conv of g, zero-padded by k − 1 − padding (cropped
    where that is negative), with the kernel rotated by 180° and its in and
    out channels swapped (Dumoulin & Visin, arXiv 1603.07285, section 4),
    over flat-row columns of pitch W + kw − 1.
    """
    batch, cout = g.shape[:2]
    _, cin_g, kh, kw = weight.shape
    cout_g = cout // groups
    # contiguous: a reversed-stride view sends numpy's matmul to a slow loop
    rot = weight.reshape(groups, cout_g, cin_g, kh, kw)[:, :, :, ::-1, ::-1].transpose(0, 2, 1, 3, 4)
    rot = np.ascontiguousarray(rot).reshape(groups, cin_g, cout_g * kh * kw)
    pitch = w + kw - 1
    planes = _phase_planes(g, 1, kh - 1 - padding, kw - 1 - padding, h + kh, pitch)
    cols = _flat_columns(planes, kh, kw, 1, h, pitch)
    cols = cols.reshape(batch, groups, cout_g * kh * kw, h * pitch)
    gx = np.matmul(rot, cols).reshape(batch, groups * cin_g, h, pitch)
    return np.ascontiguousarray(gx[..., :w])  # without the wrap columns


def _conv2d_input_grad_phases(
    gm: np.ndarray,
    wg: np.ndarray,
    planes: np.ndarray,
    kh: int,
    kw: int,
    padding: int,
    shape: tuple[int, ...],
) -> np.ndarray:
    """Input gradient of a strided conv, in the layout of its input's phase
    ``planes``.

    ``gm`` is g at the column pitch, (B, groups, Cout/groups, Ho·P), zero in
    its wrap columns. Each tap's share of it is added into its phase plane as
    one contiguous run, in tap order, and the planes are copied back to the
    input's ``shape``.
    """
    batch, groups, cout_g, span = gm.shape
    _, cin, stride, _, rows, pitch = planes.shape
    grad = np.zeros_like(planes)
    flat = grad.reshape(batch, cin, stride, stride, rows * pitch)
    if cout_g == 1:
        # one output channel per group (depthwise): each tap's share is g
        # scaled per channel, not a matmul over an inner dimension of 1
        taps = wg.reshape(groups, cin // groups, kh * kw, 1)
    else:
        gcols = np.matmul(np.swapaxes(wg, -1, -2), gm).reshape(batch, cin, kh * kw, span)
    for t, (i, j) in enumerate(np.ndindex(kh, kw)):
        part = (gm * taps[:, :, t]).reshape(batch, cin, span) if cout_g == 1 else gcols[:, :, t]
        start = (i // stride) * pitch + j // stride
        flat[:, :, i % stride, j % stride, start : start + span] += part
    gx = np.zeros(shape, dtype=planes.dtype)
    for dst, src in _phase_index(shape[2:], stride, padding, padding, rows, pitch):
        gx[src] = grad[dst]
    return gx


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

    A tile is one image by a block of output rows. Its product is written
    into one contiguous tile buffer, finished there by ``_epilogue`` while it
    is in cache, and copied into the output. A stride-1 1x1 conv hands BLAS
    the tile's input rows as a strided view, with no copy. Any other conv
    builds im2col columns for the tile's rows only, from a band of input
    rows padded per tile, so the whole map is never padded. The tiles of an
    image are the same at any batch size, so batch rows equal single-image
    rows.
    """
    batch, cin, h, w = x.shape
    cout, cin_g, kh, kw = weight.shape
    dtype = np.result_type(x, weight)
    rows = max(1, min(ho, _TILE_BYTES // (cout * wo * dtype.itemsize)))
    wg = weight.reshape(groups, cout // groups, cin_g * kh * kw)
    rowbias = None if bias is None else bias.reshape(cout, 1)
    pointwise = kh == kw == 1 and stride == 1 and not padding
    if not pointwise:
        # the input rows one tile reads; the left and right padding stay zero
        band = np.zeros((cin, (rows - 1) * stride + kh, w + 2 * padding), dtype=x.dtype)
    out = np.empty((batch, cout, ho, wo), dtype=dtype)
    tile = np.empty(cout * rows * wo, dtype=dtype)
    for n in range(batch):
        for lo in range(0, ho, rows):
            hi = min(lo + rows, ho)
            size = (hi - lo) * wo
            if pointwise:
                cols = x[n, :, lo:hi].reshape(groups, cin_g, size)
            else:
                top, height = lo * stride - padding, (hi - lo - 1) * stride + kh
                # the image rows the band holds; none when it lies in the padding
                first = max(top, 0)
                last = max(min(top + height, h), first)
                src = band[:, :height]
                src[:, : first - top] = 0
                src[:, first - top : last - top, padding : padding + w] = x[n, :, first:last]
                src[:, last - top :] = 0
                patches = _im2col(src[None], kh, kw, stride, hi - lo, wo)
                cols = patches.reshape(groups, cin_g * kh * kw, size)
            part = tile[: cout * size].reshape(groups, cout // groups, size)
            np.matmul(wg, cols, out=part)
            part = part.reshape(cout, size)
            _epilogue(part, rowbias, act, "conv2d")
            out[n, :, lo:hi] = part.reshape(cout, hi - lo, wo)
    return out


def _conv2d_flat_rows(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    act: bool,
    padding: int,
    ho: int,
    wo: int,
) -> np.ndarray:
    """Stride-1 conv with one output channel per group, over flattened rows.

    Each channel's padded rows (one extra zero row at the bottom) are read as
    one flat row of ``(H+2p+1)·Wp`` values, ``Wp = W+2p``. Output pixel
    ``(r, c)`` sits at flat index ``r·Wp + c`` and tap ``(i, j)`` adds the
    input at that index plus ``i·Wp + j``, so every tap is one contiguous
    multiply-add over ``Ho·Wp`` values. Output rows (one per image and
    channel) go in chunks: each chunk's input channels are copied into a
    zero-bordered buffer (the whole map is never padded), its taps summed in
    two work buffers, the ``Wp − Wo`` columns that wrap into the next row
    dropped, and ``_epilogue`` run on its output, all while it is in cache.
    The taps are summed in the same order whatever the chunk or batch size.
    """
    batch, _, h, w = x.shape
    cout, cin_g, kh, kw = weight.shape
    wp = w + 2 * padding
    rows = batch * cout
    planes = x.reshape(rows, cin_g, h, w)
    taps = np.tile(weight.reshape(cout, cin_g * kh * kw), (batch, 1))
    rowbias = None if bias is None else np.tile(bias, batch).reshape(rows, 1, 1)
    span = ho * wp
    dtype = np.result_type(x, weight)
    step = min(rows, max(1, _FLAT_CHUNK_BYTES // (span * dtype.itemsize)))
    padded = np.zeros((step, cin_g, h + 2 * padding + 1, wp), dtype=x.dtype)
    out = np.empty((rows, ho, wo), dtype=dtype)
    acc = np.empty((step, span), dtype=dtype)
    term = np.empty_like(acc)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        padded[: hi - lo, :, padding : padding + h, padding : padding + w] = planes[lo:hi]
        flat = padded[: hi - lo].reshape(hi - lo, cin_g, -1)
        part, tmp = acc[: hi - lo], term[: hi - lo]
        for n, (ci, i, j) in enumerate(np.ndindex(cin_g, kh, kw)):
            start = i * wp + j
            src = flat[:, ci, start : start + span]
            np.multiply(src, taps[lo:hi, n : n + 1], out=tmp if n else part)
            if n:
                part += tmp
        out[lo:hi] = part.reshape(hi - lo, ho, wp)[:, :, :wo]
        _epilogue(out[lo:hi], None if rowbias is None else rowbias[lo:hi], act, "conv2d")
    return out.reshape(batch, cout, ho, wo)


# -- normalization ----------------------------------------------------------------


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float = NORM_EPS,
    momentum: float = BN_MOMENTUM,
    act: bool = False,
) -> Tensor:
    """Training-mode per-channel normalization of a [B, C, H, W] map, then
    SiLU if ``act``.

    Normalizes with batch statistics and, once the output is checked finite,
    folds them into the running estimates in place, so a NaN or Inf input
    leaves them as they were. It is one recorded op whose closure holds
    only the normalized input xhat and inv = 1/sqrt(var + eps), plus the
    sigmoid when ``act``. With ``act`` the SiLU runs in the norm's output
    buffer with ``silu``'s op order, so the output has the bits of
    ``silu(batch_norm(x))``; only that output is checked for finite values
    (a NaN or Inf before SiLU survives it). Its backward first takes SiLU's
    derivative from the output (``_silu_grad``), then the closed form
    dbeta = sum(g), dgamma = sum(g * xhat) and
    dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) with
    dxhat = g * gamma (Ioffe & Szegedy, arXiv 1502.03167). The two sums are
    one GEMV of g's (B·C, H·W) rows against ones and one einsum, not
    reductions over axes (0, 2, 3).
    """
    if eps <= 0:
        raise ValueError(f"batch_norm eps must be positive, got {eps}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm parameter length != channels ({c})")
    axes = (0, 2, 3)
    n = x.shape[0] * x.shape[2] * x.shape[3]
    rn = np.asarray(1.0 / n, dtype=x.dtype)
    mean = x.data.sum(axis=axes, keepdims=True) * rn
    xhat = x.data - mean
    var = (xhat * xhat).sum(axis=axes, keepdims=True) * rn
    inv = np.asarray(1.0, dtype=x.dtype) / np.sqrt(var + np.asarray(eps, dtype=DEFAULT_DTYPE))
    xhat *= inv
    out = xhat * gamma.data.reshape(1, c, 1, 1)
    out += beta.data.reshape(1, c, 1, 1)
    if act:
        sig = _sigmoid(out)
        out *= sig  # the pre-activation is not kept

    def backward(g):
        if act:
            g = _silu_grad(g, out, sig)
        batch, _, h, w = x.shape
        rows = g.reshape(batch * c, h * w)
        gsum = (rows @ np.ones(h * w, dtype=g.dtype)).reshape(batch, c).sum(axis=0)
        gdot = np.einsum("bcp,bcp->c", g.reshape(batch, c, h * w), xhat.reshape(batch, c, h * w))
        beta._accumulate(gsum, owned=True)
        gamma._accumulate(gdot, owned=True)
        if not x.requires_grad:
            return
        # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) with
        # dxhat = g * gamma; gamma is per channel, so it factors out
        dx = xhat * (gdot.reshape(1, c, 1, 1) * rn)
        dx += gsum.reshape(1, c, 1, 1) * rn
        np.subtract(g, dx, out=dx)
        dx *= gamma.data.reshape(1, c, 1, 1) * inv
        x._accumulate(dx, owned=True)

    result = _make(out, (x, gamma, beta), backward, "batch_norm")
    unbiased = var.reshape(c) * (n / max(n - 1, 1))
    running_mean *= 1.0 - momentum
    running_mean += momentum * mean.reshape(c)
    running_var *= 1.0 - momentum
    running_var += momentum * unbiased
    return result


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = NORM_EPS) -> Tensor:
    """Normalize over the last axis only.

    One recorded op. Its forward runs the numpy operations of the op chain
    mean, centre, square, mean, +eps, sqrt, 1/, scale, affine in that order,
    so its output keeps the chain's bits. The closure holds only the
    normalized input xhat and inv = 1/sqrt(var + eps); the backward is the
    closed form dbeta = sum(g), dgamma = sum(g * xhat) and
    dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) with
    dxhat = g * gamma, the means taken over the last axis.
    """
    if eps <= 0:
        raise ValueError(f"layer_norm eps must be positive, got {eps}")
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm parameter length != last extent ({d})")
    rn = np.asarray(1.0 / d, dtype=x.dtype)
    mean = x.data.sum(axis=-1, keepdims=True) * rn
    xhat = x.data - mean
    var = (xhat * xhat).sum(axis=-1, keepdims=True) * rn
    inv = np.asarray(1.0, dtype=x.dtype) / np.sqrt(var + np.asarray(eps, dtype=DEFAULT_DTYPE))
    xhat *= inv
    out = xhat * gamma.data
    out += beta.data

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        beta._accumulate(g.sum(axis=lead), owned=True)
        gamma._accumulate((g * xhat).sum(axis=lead), owned=True)
        if not x.requires_grad:
            return
        dxhat = g * gamma.data
        dx = xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) * rn)
        dx += dxhat.sum(axis=-1, keepdims=True) * rn
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
    become a silent zero. The closure keeps the per-head q, k and v and the
    probabilities P; the backward is dV = Pᵀ dO, dP = dO Vᵀ,
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
        ds = np.matmul(go, vh.transpose(0, 1, 3, 2))
        ds -= (ds * probs).sum(axis=-1, keepdims=True)
        ds *= probs
        q._accumulate(merge(np.matmul(ds, kh)), owned=True)
        k._accumulate(merge(np.matmul(ds.transpose(0, 1, 3, 2), qh)), owned=True)

    return _make(merge(np.matmul(probs, vh)), (q, k, v), backward, "attention")


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
    """Scaled dot-product self-attention over [B, T, D] sequences.

    The 1/sqrt(head dim) score scale is folded into q's weight and bias at
    call time (nothing is cached). Then three ``linear`` projections, one
    ``_attend`` and the output ``linear``: the same ops recorded or not.
    """
    d = x.shape[-1]
    if d % heads:
        raise ShapeError(f"attention dim {d} not divisible by heads {heads}")
    scale = Tensor(np.asarray(1.0 / np.sqrt(d // heads), dtype=x.dtype))
    wq = mul(wq, scale)
    bq = None if bq is None else mul(bq, scale)
    q, k, v = (linear(x, w, b) for w, b in ((wq, bq), (wk, bk), (wv, bv)))
    return linear(_attend(q, k, v, heads), wo, bo)
