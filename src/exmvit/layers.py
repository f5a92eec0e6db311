"""Parameterized layers assembled into immutable model graphs.

Modules register parameters and child modules in attribute definition
order, which fixes the canonical (depth-first) parameter order used by the
weights file and by seeded initialization.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def kaiming_normal(rng: np.random.Generator, shape, fan_out: int) -> np.ndarray:
    std = np.sqrt(2.0 / fan_out)
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def trunc_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal draw with rejection outside two standard deviations."""
    std = 0.02
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out.astype(np.float32)


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
    def __init__(self, rng, cin, cout, kernel, stride=1, groups=1, bias=True):
        super().__init__()
        self.stride = stride
        self.padding = kernel // 2
        self.groups = groups
        fan_out = cout * kernel * kernel // groups
        self.weight = Tensor(
            kaiming_normal(rng, (cout, cin // groups, kernel, kernel), fan_out),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(cout, dtype=np.float32), requires_grad=True) if bias else None

    def forward(self, x, scale=None, shift=None, act=False):
        """Convolve ``x``; given per-output-channel ``scale`` and ``shift``
        arrays, convolve with the constant ``weight * scale`` and add
        ``bias * scale + shift``, which equals scaling and shifting the
        output (eval's batch-norm fold). ``act`` applies SiLU to the result
        (inside the conv's tiles when no graph is recorded)."""
        weight, bias = self.weight, self.bias
        if scale is not None:
            weight = Tensor(weight.data * scale.reshape(-1, 1, 1, 1))
            bias = Tensor(shift if bias is None else bias.data * scale + shift)
        return T.conv2d(
            x, weight, bias, stride=self.stride, padding=self.padding, groups=self.groups, act=act
        )


class BatchNorm2d(Module):
    """Training-mode batch norm (``T.NORM_EPS``, ``T.BN_MOMENTUM``): an eval
    ``ConvNormAct`` folds it into its conv instead, so an eval-mode call raises."""

    def __init__(self, channels):
        super().__init__()
        self.gamma = Tensor(np.ones(channels, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=np.float32), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def forward(self, x, act=False):
        if not self.training:
            raise RuntimeError("BatchNorm2d runs in train mode only; eval folds it into its conv")
        return T.batch_norm(
            x, self.gamma, self.beta, self.running_mean, self.running_var, act=act
        )


class LayerNorm(Module):
    """Layer norm over the last axis with ``T.NORM_EPS``."""

    def __init__(self, dim):
        super().__init__()
        self.gamma = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)

    def forward(self, x):
        return T.layer_norm(x, self.gamma, self.beta)


class Linear(Module):
    def __init__(self, rng, din, dout, bias=True):
        super().__init__()
        self.weight = Tensor(trunc_normal(rng, (dout, din)), requires_grad=True)
        self.bias = Tensor(np.zeros(dout, dtype=np.float32), requires_grad=True) if bias else None

    def forward(self, x, act=False):
        return T.linear(x, self.weight, self.bias, act=act)


class ConvNormAct(Module):
    """Conv (bias-free) + batch norm + optional SiLU, the backbone's conv idiom.

    In train mode the norm and its SiLU are one recorded ``batch_norm`` op.
    In eval mode the norm is folded into the conv at call time (Jacob et al.,
    arXiv 1712.05877, section 3.2): the conv runs with its weight scaled, the
    norm's shift as bias and the SiLU as its epilogue. Nothing is cached, so a
    weight load or an optimizer step needs no invalidation.
    """

    def __init__(self, rng, cin, cout, kernel, stride=1, groups=1, act=True):
        super().__init__()
        self.act = act
        self.conv = Conv2d(rng, cin, cout, kernel, stride=stride, groups=groups, bias=False)
        self.norm = BatchNorm2d(cout)

    def forward(self, x):
        if self.training:
            return self.norm(self.conv(x), act=self.act)
        n = self.norm
        scale = n.gamma.data * (1.0 / np.sqrt(n.running_var + T.NORM_EPS))
        shift = n.beta.data - n.running_mean * scale
        return self.conv(x, scale, shift, act=self.act)


class MultiHeadAttention(Module):
    def __init__(self, rng, dim, heads):
        super().__init__()
        self.heads = heads
        self.wq = Tensor(trunc_normal(rng, (dim, dim)), requires_grad=True)
        self.bq = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)
        self.wk = Tensor(trunc_normal(rng, (dim, dim)), requires_grad=True)
        self.bk = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)
        self.wv = Tensor(trunc_normal(rng, (dim, dim)), requires_grad=True)
        self.bv = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)
        self.wo = Tensor(trunc_normal(rng, (dim, dim)), requires_grad=True)
        self.bo = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)

    def forward(self, x):
        return T.multi_head_attention(
            x,
            self.wq,
            self.wk,
            self.wv,
            self.wo,
            self.heads,
            bq=self.bq,
            bk=self.bk,
            bv=self.bv,
            bo=self.bo,
        )


class TransformerLayer(Module):
    """Pre-norm self-attention followed by a pre-norm SiLU feed-forward."""

    def __init__(self, rng, dim, heads, ffn_dim):
        super().__init__()
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(rng, dim, heads)
        self.norm2 = LayerNorm(dim)
        self.ffn1 = Linear(rng, dim, ffn_dim)
        self.ffn2 = Linear(rng, ffn_dim, dim)

    def forward(self, x):
        x = T.add(x, self.attn(self.norm1(x)))
        h = self.ffn1(self.norm2(x), act=True)
        return T.add(x, self.ffn2(h))
