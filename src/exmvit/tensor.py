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
it copied. Every op records one node, with a closed-form backward whose
closure keeps only what it reads: the primitives ``add``, ``mul``, ``tsum``
and ``concat``, and the fused ops ``batch_norm``, ``layer_norm``,
``conv2d``, ``linear``, attention's ``_attend``, the two patch folds,
``global_avg_pool`` and the loss ``cross_entropy``. A ``conv2d`` given a
``norm`` is a conv, a training batch norm and its SiLU in one node, whose
norm works in the conv's own output buffer. ``linear`` and attention run
the same numpy recorded or not. ``linear``, ``conv2d`` and a training
``batch_norm`` finish their output in place with one epilogue,
``_epilogue``: bias add, SiLU when asked (``act``, ``_sigmoid`` then a
multiply) and the finite check. Every ``conv2d`` works on flat rows: its
im2col columns are cut from the input padded into stride phase planes, so
every column row is a whole band of output rows, not one output row. A
recorded conv cuts its columns for one chunk of whole images at a time, as
many as fit in about 256 KiB (a plain 1x1's columns are its whole input),
and runs each image's GEMM as a whole-batch matmul would; the input
gradient of a stride-1 conv is the same per chunk of g with the rotated
kernel, not a scatter per tap, and the closure keeps no copy of the input:
the backward cuts the planes again. An unrecorded conv runs one tile
kernel: a tile is one image by a block of groups by a block of output
rows, about 256 KiB, whose columns are cut from the band of input it reads,
and ``_epilogue`` runs on each tile's output pixels while they are in
cache. A stride-1 depthwise tile sums its taps in order instead of a GEMM.
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


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        a._accumulate(_unbroadcast(g * b.data, a.shape), owned=True)
        b._accumulate(_unbroadcast(g * a.data, b.shape), owned=True)

    return _make(data, (a, b), backward, "mul")


# -- activations --------------------------------------------------------------


def _sigmoid(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-a)) in that op order, built in ``out`` (which may be
    ``a`` itself) or, when it is None, in one fresh buffer."""
    sig = np.negative(a, out=out)
    with np.errstate(over="ignore"):  # exp(-a) overflows to inf below about -88: sig is 0
        np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    return sig


def _epilogue(buf: np.ndarray, bias: np.ndarray | None, act: bool, op: str) -> np.ndarray | None:
    """Finish a conv2d, linear or batch_norm output in place while it is in
    cache: add ``bias`` (broadcast against ``buf``), apply SiLU if ``act``
    as ``buf * _sigmoid(buf)``, then check ``buf`` is finite. Returns the
    sigmoid when ``act``, for a backward to read (``_silu_grad``). Callers
    hand it the whole output or one tile at a time and check nothing else."""
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
    sig = _epilogue(out, bias.data, act, "linear")

    def backward(g):
        g = g.reshape(out.shape)
        if act:
            g = _silu_grad(g, out, sig)
        weight._accumulate(np.matmul(g.T, rows), owned=True)
        bias._accumulate(g.sum(axis=0), owned=True)
        if x.requires_grad:
            x._accumulate(np.matmul(g, weight.data).reshape(x.shape), owned=True)

    return _node(out.reshape(x.shape[:-1] + (weight.shape[0],)), (x, weight, bias), backward)


# -- convolution -----------------------------------------------------------------


# Bytes of output per tile of the unrecorded conv (``_conv2d_tiles``), and of
# im2col columns per batch chunk of the recorded one (``_batch_chunks``). On
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

    x is [B, Cin, H, W], weight is [Cout, Cin/groups, kh, kw]. Covers the
    standard (groups=1), depthwise (groups=Cin) and pointwise (1x1) cases.
    ``norm`` is (gamma, beta, running_mean, running_var): the conv, the norm
    and the SiLU are then one op, with the bits of ``conv2d`` followed by
    ``batch_norm(act=act)``, and the norm's running statistics move.

    A recorded forward is one node: matmuls over im2col columns cut as flat
    rows, finished in place by ``_epilogue`` (bias, SiLU when ``act`` and no
    norm, finite check). A stride-1 1x1 conv without padding uses the whole
    input itself as its columns. Any other conv walks the batch in chunks of
    whole images, as many as keep a chunk's columns within ``_TILE_BYTES``
    and at least one (``_batch_chunks``): it pads the chunk into phase
    planes (``_phase_planes``; the padded map itself at stride 1) with
    output pitch P = Wo + (kw-1)//stride, so each tap is one contiguous run
    of Ho·P values (``_flat_columns``), and writes the chunk's product
    without its P − Wo wrap columns into the output. Each image's product is
    the BLAS call of a whole-batch matmul, so the chunking changes no bits.
    The backward closure keeps neither the planes nor the columns: it cuts
    them again from the input, which the graph holds anyway, chunk by chunk,
    for the weight gradient, a matmul of g padded to pitch P per image into
    one (B, groups, Cout/groups, K) buffer that is then summed over the
    batch. With a
    norm, the output buffer is normalized in place and becomes the norm's
    xhat (``_batch_norm``), so the conv's output is not kept beside it, nor
    is the SiLU's sigmoid; the backward runs the norm's gradient (SiLU's
    derivative first, from a sigmoid rebuilt from xhat) and then the conv's
    on its dx. Without one, ``act``'s derivative is taken from the output
    and the sigmoid the forward kept (``_silu_grad``), as ``linear`` does.
    The input gradient is skipped when x does not require grad. At stride 1
    it is a grouped GEMM with the rotated kernel over each chunk of g
    (``_conv2d_input_grad_s1``); at a larger stride each tap adds one
    contiguous run of the whole batch into phase planes
    (``_conv2d_input_grad_phases``).

    An unrecorded forward runs one kernel, ``_conv2d_tiles``: its tile is one
    image by a block of groups by a block of output rows, about
    ``_TILE_BYTES`` of output, with columns cut from phase planes as above.
    ``_epilogue`` (bias, SiLU, finite check) runs on each tile's output
    pixels while they are in cache. A norm then runs on the whole output.
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
            out, _ = _batch_norm(out, *norm, act, out=out)
        return Tensor(out)  # every piece was checked by its epilogue

    cout_g, k = cout // groups, cin_g * kh * kw
    wg = weight.data.reshape(groups, cout_g, k)
    pointwise = kh == kw == 1 and stride == 1 and not padding
    pitch = wo if pointwise else wo + (kw - 1) // stride
    rows = ho + (kh - 1) // stride + 1
    dtype = np.result_type(x.data, weight.data)
    # a plain 1x1's columns are its input, so it takes the batch whole
    col_bytes = 0 if pointwise else cin * kh * kw * ho * pitch * dtype.itemsize
    chunks = _batch_chunks(batch, col_bytes)

    def columns(b0, b1):
        # images b0:b1 cut from x.data on each call: the closure keeps no copy of the input
        if pointwise:  # the input itself, at its own pitch
            return np.ascontiguousarray(x.data[b0:b1]).reshape(b1 - b0, groups, cin_g, h * w)
        cols = _flat_columns(x.data[b0:b1], kh, kw, stride, padding, padding, ho, pitch)
        return cols.reshape(b1 - b0, groups, k, ho * pitch)

    if pointwise:
        out = np.matmul(wg, columns(0, batch)).reshape(batch, cout, ho, wo)
    else:
        out = np.empty((batch, cout, ho, wo), dtype=dtype)
        for b0, b1 in chunks:
            prod = np.matmul(wg, columns(b0, b1)).reshape(b1 - b0, cout, ho, pitch)
            out[b0:b1] = prod[..., :wo]  # without the wrap columns
    sig = _epilogue(out, None if bias is None else bias.data.reshape(1, cout, 1, 1), conv_act, "conv2d")
    silu_saved = (out, sig) if conv_act else None  # what SiLU's derivative reads
    norm_grad = None
    if norm is not None:
        # normalized in the conv's own buffer, which becomes the norm's xhat
        out, norm_grad = _batch_norm(out, *norm, act, out=out)

    def backward(g):
        if norm_grad is not None:
            g = norm_grad(g)
        elif conv_act:
            g = _silu_grad(g, *silu_saved)
        if bias is not None:
            bias._accumulate(g.sum(axis=(0, 2, 3)), owned=True)
        # g at the column pitch, zero in the wrap columns, so the columns'
        # wrap entries add nothing to the weight gradient
        gp = g if pitch == wo else _phase_planes(g, 1, 0, 0, ho, pitch)
        gm = gp.reshape(batch, groups, cout_g, ho * pitch)
        gw = np.empty((batch, groups, cout_g, k), dtype=dtype)  # one product per image
        for b0, b1 in chunks:
            np.matmul(gm[b0:b1], np.swapaxes(columns(b0, b1), -1, -2), out=gw[b0:b1])
        weight._accumulate(gw.sum(axis=0).reshape(weight.shape), owned=True)
        if not x.requires_grad:
            return
        if pointwise:
            gx = np.matmul(np.swapaxes(wg, -1, -2), gm).reshape(x.shape)
        elif stride == 1:
            gx = _conv2d_input_grad_s1(g, weight.data, groups, padding, h, w)
        else:
            gx = _conv2d_input_grad_phases(gm, wg, kh, kw, padding, (stride, rows, pitch), x.data)
        x._accumulate(gx, owned=True)

    return _node(out, parents, backward)


def _batch_chunks(batch: int, image_bytes: int) -> list[tuple[int, int]]:
    """(b0, b1) bounds of the batch in chunks of whole images, as many as
    keep ``image_bytes`` per image within ``_TILE_BYTES`` and at least one;
    one chunk when ``image_bytes`` is 0."""
    step = max(1, _TILE_BYTES // image_bytes if image_bytes else batch)
    return [(b0, min(b0 + step, batch)) for b0 in range(0, batch, step)]


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


def _conv2d_input_grad_s1(
    g: np.ndarray, weight: np.ndarray, groups: int, padding: int, h: int, w: int
) -> np.ndarray:
    """Input gradient of a stride-1 conv as a grouped GEMM per batch chunk.

    It is the stride-1 conv of g, zero-padded by k − 1 − padding (cropped
    where that is negative), with the kernel rotated by 180° and its in and
    out channels swapped (Dumoulin & Visin, arXiv 1603.07285, section 4),
    over flat-row columns of pitch W + kw − 1, cut for one chunk of g's
    images at a time (``_batch_chunks``).
    """
    batch, cout = g.shape[:2]
    _, cin_g, kh, kw = weight.shape
    cout_g = cout // groups
    # contiguous: a reversed-stride view sends numpy's matmul to a slow loop
    rot = weight.reshape(groups, cout_g, cin_g, kh, kw)[:, :, :, ::-1, ::-1].transpose(0, 2, 1, 3, 4)
    rot = np.ascontiguousarray(rot).reshape(groups, cin_g, cout_g * kh * kw)
    pitch = w + kw - 1
    dtype = np.result_type(g, weight)
    gx = np.empty((batch, groups * cin_g, h, w), dtype=dtype)
    for b0, b1 in _batch_chunks(batch, cout * kh * kw * h * pitch * dtype.itemsize):
        cols = _flat_columns(g[b0:b1], kh, kw, 1, kh - 1 - padding, kw - 1 - padding, h, pitch)
        cols = cols.reshape(b1 - b0, groups, cout_g * kh * kw, h * pitch)
        prod = np.matmul(rot, cols).reshape(b1 - b0, groups * cin_g, h, pitch)
        gx[b0:b1] = prod[..., :w]  # without the wrap columns
    return gx


def _conv2d_input_grad_phases(
    gm: np.ndarray,
    wg: np.ndarray,
    kh: int,
    kw: int,
    padding: int,
    phases: tuple[int, int, int],
    x: np.ndarray,
) -> np.ndarray:
    """Input gradient of a strided conv of ``x``, in the layout of the phase
    planes its columns were cut from: ``phases`` is (stride, rows, pitch).

    ``gm`` is g at the column pitch, (B, groups, Cout/groups, Ho·P), zero in
    its wrap columns. Each tap's share of it is added into its phase plane as
    one contiguous run, in tap order, and the planes are copied back to
    ``x``'s shape and dtype.
    """
    batch, groups, cout_g, span = gm.shape
    stride, rows, pitch = phases
    cin = x.shape[1]
    grad = np.zeros((batch, cin, stride, stride, rows, pitch), dtype=x.dtype)
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
    gx = np.zeros(x.shape, dtype=x.dtype)
    for dst, src in _phase_index(x.shape[2:], stride, padding, padding, rows, pitch):
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


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    act: bool = False,
) -> Tensor:
    """Training-mode per-channel normalization of a [B, C, H, W] map, then
    SiLU if ``act``, with ``NORM_EPS`` and ``BN_MOMENTUM``: one recorded op
    running ``_batch_norm`` on a fresh buffer. A ``conv2d`` given ``norm``
    runs the same maths in its own output buffer instead.
    """
    out, grad = _batch_norm(x.data, gamma, beta, running_mean, running_var, act)

    def backward(g):
        x._accumulate(grad(g), owned=True)

    return _node(out, (x, gamma, beta), backward)


def _batch_norm(
    x: np.ndarray,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    act: bool,
    out: np.ndarray | None = None,
):
    """Batch norm of the [B, C, H, W] array ``x``, then SiLU if ``act``.

    Returns the output and ``grad(g)``, which accumulates dγ and dβ and
    returns dx. x − mean is written into ``out``, or a fresh buffer when it
    is None; ``out`` may be ``x`` itself when ``x`` is a private buffer,
    which then becomes the normalized input xhat. Once the output is checked
    finite, the batch statistics are folded into the running estimates in
    place, so a NaN or Inf input leaves them as they were. The shift β, the
    SiLU and the finite check run in the output buffer by ``_epilogue``, as
    in ``conv2d`` and ``linear``: only the activated output is checked for
    finite values (a NaN or Inf before SiLU survives it). ``grad`` holds
    only xhat, inv = 1/sqrt(var + eps) and the output, not the sigmoid: with
    ``act`` it rebuilds the sigmoid from xhat with the forward's ops in the
    forward's order (xhat·γ, + β, ``_sigmoid``), trading ~6 passes per
    element for one held array (Chen et al., arXiv 1604.06174), and takes
    SiLU's derivative from the output (``_silu_grad``) with the forward's
    bits. Then comes the closed form
    dbeta = sum(g), dgamma = sum(g * xhat) and
    dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) with
    dxhat = g * gamma (Ioffe & Szegedy, arXiv 1502.03167). The two sums are
    one GEMV of g's (B·C, H·W) rows against ones and one einsum, not
    reductions over axes (0, 2, 3).
    """
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm parameter length != channels ({c})")
    axes = (0, 2, 3)
    n = x.shape[0] * x.shape[2] * x.shape[3]
    rn = np.asarray(1.0 / n, dtype=x.dtype)
    mean = x.sum(axis=axes, keepdims=True) * rn
    xhat = np.subtract(x, mean, out=out)
    var = (xhat * xhat).sum(axis=axes, keepdims=True) * rn
    inv = np.asarray(1.0, dtype=x.dtype) / np.sqrt(var + np.asarray(NORM_EPS, dtype=DEFAULT_DTYPE))
    xhat *= inv
    y = xhat * gamma.data.reshape(1, c, 1, 1)
    # the SiLU runs in place: neither the pre-activation nor the sigmoid is kept
    _epilogue(y, beta.data.reshape(1, c, 1, 1), act, "batch_norm")
    unbiased = var.reshape(c) * (n / max(n - 1, 1))
    running_mean *= 1.0 - BN_MOMENTUM
    running_mean += BN_MOMENTUM * mean.reshape(c)
    running_var *= 1.0 - BN_MOMENTUM
    running_var += BN_MOMENTUM * unbiased

    def grad(g):
        if act:
            # the forward's ops in its order: xhat·γ, + β, then the sigmoid,
            # all in the one buffer of the pre-activation
            sig = xhat * gamma.data.reshape(1, c, 1, 1)
            sig += beta.data.reshape(1, c, 1, 1)
            _sigmoid(sig, out=sig)
            g = _silu_grad(g, y, sig)
        batch, _, h, w = g.shape
        rows = g.reshape(batch * c, h * w)
        gsum = (rows @ np.ones(h * w, dtype=g.dtype)).reshape(batch, c).sum(axis=0)
        gdot = np.einsum("bcp,bcp->c", g.reshape(batch, c, h * w), xhat.reshape(batch, c, h * w))
        beta._accumulate(gsum, owned=True)
        gamma._accumulate(gdot, owned=True)
        # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) with
        # dxhat = g * gamma; gamma is per channel, so it factors out
        dx = xhat * (gdot.reshape(1, c, 1, 1) * rn)
        dx += gsum.reshape(1, c, 1, 1) * rn
        np.subtract(g, dx, out=dx)
        dx *= gamma.data.reshape(1, c, 1, 1) * inv
        return dx

    return y, grad


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis only, with ``NORM_EPS``.

    One recorded op. Its forward runs the numpy operations of the op chain
    mean, centre, square, mean, +eps, sqrt, 1/, scale, affine in that order,
    so its output keeps the chain's bits. The closure holds only the
    normalized input xhat and inv = 1/sqrt(var + eps); the backward is the
    closed form dbeta = sum(g), dgamma = sum(g * xhat) and
    dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) with
    dxhat = g * gamma, the means taken over the last axis.
    """
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm parameter length != last extent ({d})")
    rn = np.asarray(1.0 / d, dtype=x.dtype)
    mean = x.data.sum(axis=-1, keepdims=True) * rn
    xhat = x.data - mean
    var = (xhat * xhat).sum(axis=-1, keepdims=True) * rn
    inv = np.asarray(1.0, dtype=x.dtype) / np.sqrt(var + np.asarray(NORM_EPS, dtype=DEFAULT_DTYPE))
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

