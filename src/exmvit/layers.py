"""Parameterized layers assembled into immutable model graphs.

Constructors take shapes only: weights and biases start at zero, norm scales
at one, and ``init_weights`` draws a seeded start. Modules register parameters
and child modules in attribute definition order, which fixes the canonical
(depth-first) parameter order used by the weights file and by ``init_weights``.
A chain (``ConvNormAct``, ``MV2Block``, ``TransformerLayer``) registers its
children in the order its forward applies them: the audit walks them so.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor


CHUNK = 1 << 15  # float64 draws held at a time while a weight is initialised
HEADS = 4  # attention heads of every transformer layer (MobileViT-S's)
FFN_MULT = 2  # feed-forward width per transformer dimension (MobileViT-S's)


def _normal(rng: np.random.Generator, out: np.ndarray, std, limit=None) -> np.ndarray:
    """Fill the C-contiguous float32 ``out`` with ``rng.normal(0.0, std,
    out.shape).astype(np.float32)``, bit for bit, drawn CHUNK values at a time
    so no float64 copy exists; returns the flat indices of draws beyond ``limit``."""
    flat = out.reshape(-1)
    scratch = np.empty(min(CHUNK, flat.size))
    rejected = [np.empty(0, np.intp)]
    for start in range(0, flat.size, CHUNK):
        draw = scratch[: flat.size - start]
        rng.standard_normal(out=draw)
        draw *= std
        flat[start : start + draw.size] = draw
        if limit is not None:
            rejected.append(start + np.flatnonzero(np.abs(draw) > limit))
    return np.concatenate(rejected)


def kaiming_normal(rng: np.random.Generator, out: np.ndarray, fan_out: int) -> None:
    _normal(rng, out, np.sqrt(2.0 / fan_out))


def trunc_normal(rng: np.random.Generator, out: np.ndarray) -> None:
    """Normal draw with rejection outside two standard deviations: rejected
    values are redrawn in index order until every one falls inside."""
    std = 0.02
    bad = _normal(rng, out, std, limit=2 * std)
    flat = out.reshape(-1)
    while bad.size:
        redraw = rng.normal(0.0, std, size=bad.size)
        keep = np.abs(redraw) <= 2 * std
        flat[bad[keep]] = redraw[keep]
        bad = bad[~keep]


def _zeros(*shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)


class Module:
    """Base class: parameter/buffer traversal and train/eval mode."""

    def __init__(self):
        self.training = False

    def _children(self):
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item

    def named_parameters(self, prefix: str = ""):
        for name, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
                yield prefix + name, value
        for name, child in self._children():
            yield from child.named_parameters(f"{prefix}{name}.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = ""):
        """Non-trainable state (batch-norm running statistics)."""
        for name, value in vars(self).items():
            if isinstance(value, np.ndarray):
                yield prefix + name, value
        for name, child in self._children():
            yield from child.named_buffers(f"{prefix}{name}.")

    def modules(self, prefix: str = ""):
        yield prefix.rstrip("."), self
        for name, child in self._children():
            yield from child.modules(f"{prefix}{name}.")

    def train(self, mode: bool = True):
        for _, m in self.modules():
            m.training = mode
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def astype(self, dtype):
        """Cast parameters and buffers in place (used by gradient checks)."""
        for _, p in self.named_parameters():
            p.data = p.data.astype(dtype)
        for _, m in self.modules():
            for name, value in vars(m).items():
                if isinstance(value, np.ndarray):
                    setattr(m, name, value.astype(dtype))
        return self

    def __call__(self, *args, **kwargs):
        """Run ``forward``; in eval mode without recording an autodiff graph."""
        if self.training:
            return self.forward(*args, **kwargs)
        with T.no_grad():
            return self.forward(*args, **kwargs)


class Conv2d(Module):
    def __init__(self, cin, cout, kernel, stride=1, groups=1, bias=True):
        super().__init__()
        self.stride = stride
        self.padding = kernel // 2
        self.groups = groups
        self.weight = _zeros(cout, cin // groups, kernel, kernel)
        self.bias = _zeros(cout) if bias else None

    def forward(self, x, norm=None, act=False):
        """Convolve ``x``, then apply the ``BatchNorm2d`` ``norm`` if given,
        then SiLU if ``act``. A norm in train mode runs inside the conv's op
        on batch statistics. In eval mode it is folded into the conv at call
        time: the conv runs with the constant weight ``weight * scale`` and
        bias ``bias * scale + shift``, which equals scaling and shifting its
        output. ``act`` runs inside the conv's tiles when no graph is
        recorded."""
        weight, bias, stats = self.weight, self.bias, None
        if norm is not None and norm.training:
            stats = (norm.gamma, norm.beta, norm.running_mean, norm.running_var)
        elif norm is not None:
            scale = norm.gamma.data * (1.0 / np.sqrt(norm.running_var + T.NORM_EPS))
            shift = norm.beta.data - norm.running_mean * scale
            weight = Tensor(weight.data * scale.reshape(-1, 1, 1, 1))
            bias = Tensor(shift if bias is None else bias.data * scale + shift)
        return T.conv2d(
            x, weight, bias, self.stride, self.padding, self.groups, act=act, norm=stats
        )


class BatchNorm2d(Module):
    """A batch norm's parameters and running statistics (``T.NORM_EPS``,
    ``T.BN_MOMENTUM``), run by the conv it follows: in train mode inside the
    conv's op, in eval mode folded into the conv's weight and bias. It is
    never called."""

    def __init__(self, channels):
        super().__init__()
        self.gamma = Tensor(np.ones(channels, dtype=np.float32), requires_grad=True)
        self.beta = _zeros(channels)
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def forward(self, x):
        # kept, since perfbench's ``instrument`` replaces ``forward`` on every leaf instance
        raise RuntimeError("BatchNorm2d is not called: its conv runs it (Conv2d.forward's norm)")


class LayerNorm(Module):
    """Layer norm over the last axis with ``T.NORM_EPS``."""

    def __init__(self, dim):
        super().__init__()
        self.gamma = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
        self.beta = _zeros(dim)

    def forward(self, x):
        return T.layer_norm(x, self.gamma, self.beta)


class Linear(Module):
    def __init__(self, din, dout):
        super().__init__()
        self.weight = _zeros(dout, din)
        self.bias = _zeros(dout)

    def forward(self, x, act=False):
        return T.linear(x, self.weight, self.bias, act=act)


class ConvNormAct(Module):
    """Conv (bias-free) + batch norm + optional SiLU, the backbone's conv idiom.

    One ``Conv2d`` call given the norm, in either mode. In train mode the
    conv, the norm and its SiLU are one recorded ``conv2d`` op, whose norm
    works in the conv's output buffer. In eval mode the norm is folded into
    the conv at call time (Jacob et al., arXiv 1712.05877, section 3.2): the
    conv runs with its weight scaled, the norm's shift as bias and the SiLU
    as its epilogue. Nothing is cached, so a weight load or an optimizer step
    needs no invalidation.
    """

    def __init__(self, cin, cout, kernel, stride=1, groups=1, act=True):
        super().__init__()
        self.act = act
        self.conv = Conv2d(cin, cout, kernel, stride=stride, groups=groups, bias=False)
        self.norm = BatchNorm2d(cout)

    def forward(self, x):
        return self.conv(x, norm=self.norm, act=self.act)


class MultiHeadAttention(Module):
    """Self-attention over [B, T, D] sequences with ``HEADS`` heads. The
    1/sqrt(head dim) score scale is folded into q's weight and bias at call
    time (nothing is cached); then three ``linear`` projections, one
    ``_attend`` and the output ``linear``: the same ops recorded or not."""

    def __init__(self, dim):
        super().__init__()
        if dim % HEADS:
            raise ShapeError(f"attention dim {dim} not divisible by {HEADS} heads")
        self.wq, self.bq = _zeros(dim, dim), _zeros(dim)
        self.wk, self.bk = _zeros(dim, dim), _zeros(dim)
        self.wv, self.bv = _zeros(dim, dim), _zeros(dim)
        self.wo, self.bo = _zeros(dim, dim), _zeros(dim)

    def forward(self, x):
        scale = np.asarray(1.0 / np.sqrt(x.shape[-1] // HEADS), dtype=x.dtype)
        q = T.linear(x, T.scale(self.wq, scale), T.scale(self.bq, scale))
        k, v = T.linear(x, self.wk, self.bk), T.linear(x, self.wv, self.bv)
        return T.linear(T._attend(q, k, v, HEADS), self.wo, self.bo)


class TransformerLayer(Module):
    """Pre-norm self-attention, then a pre-norm SiLU feed-forward ``FFN_MULT`` times wider."""

    def __init__(self, dim):
        super().__init__()
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim)
        self.norm2 = LayerNorm(dim)
        self.ffn1 = Linear(dim, FFN_MULT * dim)
        self.ffn2 = Linear(FFN_MULT * dim, dim)

    def forward(self, x):
        x = T.add(x, self.attn(self.norm1(x)))
        h = self.ffn1(self.norm2(x), act=True)
        return T.add(x, self.ffn2(h))


def init_weights(model: Module, seed: int) -> Module:
    """Draw ``model``'s initial weights in place from one generator, in
    canonical parameter order: He-normal (fan-out) conv kernels and
    truncated-normal matrices; biases and norms keep their constants."""
    rng = np.random.default_rng(seed)
    for _, module in model.modules():
        for p in vars(module).values():
            if isinstance(p, Tensor) and p.requires_grad and p.ndim >= 2:
                if isinstance(module, Conv2d):
                    cout, _, kh, kw = p.shape
                    kaiming_normal(rng, p.data, cout * kh * kw // module.groups)
                else:
                    trunc_normal(rng, p.data)
    return model
