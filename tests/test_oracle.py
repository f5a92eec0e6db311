"""An independent float64 reference for the eval forward.

The reference is plain numpy: no ``Tensor``, no im2col, no flat rows and no
folded norms. Convolutions are sums of shifted, strided slices of the padded
input, batch norm is applied unfolded from its running statistics, and
attention is the textbook per-head form. It reads the model's parameters and
buffers by name and takes the architecture from the MobileViT-S layout
(Mehta & Rastegari, arXiv 2110.02178, table 4) and the variant config, not
from the model's modules. So an indexing bug in a fast kernel, or in the
batch-norm fold, cannot hide in both.
"""

import time

import numpy as np
import pytest

from exmvit.config import REGISTRY, resolve_variant
from exmvit.layers import BatchNorm2d
from exmvit.model import build_model
from exmvit.tensor import Tensor

EPS = 1e-5  # batch norm and layer norm

# MobileViT-S: the stride of each MV2 unit per block; blocks 3-5 end in a
# MobileViT block
MV2_STRIDES = {1: [1], 2: [2, 1, 1], 3: [2], 4: [2], 5: [2]}
HEADS = 4  # attention heads of every transformer layer
PATCH = (2, 2)  # patch height and width of a MobileViT block

# float32 eval logits must lie this close to the reference, times max|logit|
RELATIVE_BOUND = 1e-4


def silu(x):
    return x / (1.0 + np.exp(-x))


def conv(x, weight, bias=None, stride=1):
    """Zero-padded ("same") cross-correlation, dense or depthwise."""
    batch, cin, h, w = x.shape
    cout, cin_g, kh, kw = weight.shape
    depthwise = cin_g == 1 and cout == cin and cin > 1
    assert depthwise or cin_g == cin, "only dense and depthwise convs occur"
    pad = kh // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((batch, cout, ho, wo))
    for u in range(kh):
        for v in range(kw):
            tap = xp[:, :, u : u + stride * ho : stride, v : v + stride * wo : stride]
            if depthwise:
                out += weight[:, 0, u, v][None, :, None, None] * tap
            else:
                out += np.einsum("bchw,oc->bohw", tap, weight[:, :, u, v], optimize=True)
    if bias is not None:
        out += bias[None, :, None, None]
    return out


def layer_norm(x, gamma, beta):
    centred = x - x.mean(axis=-1, keepdims=True)
    var = (centred**2).mean(axis=-1, keepdims=True)
    return centred / np.sqrt(var + EPS) * gamma + beta


def softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class Reference:
    def __init__(self, model):
        self.config = model.config
        self.p = {name: t.data.astype(np.float64) for name, t in model.named_parameters()}
        self.p.update((name, b.astype(np.float64)) for name, b in model.named_buffers())

    def conv_norm_act(self, name, x, stride=1, act=True):
        y = conv(x, self.p[f"{name}.conv.weight"], stride=stride)
        mean, var, gamma, beta = (
            self.p[f"{name}.norm.{key}"][None, :, None, None]
            for key in ("running_mean", "running_var", "gamma", "beta")
        )
        y = (y - mean) / np.sqrt(var + EPS) * gamma + beta
        return silu(y) if act else y

    def mv2(self, name, x, stride):
        hidden = self.conv_norm_act(f"{name}.expand", x)
        hidden = self.conv_norm_act(f"{name}.depthwise", hidden, stride=stride)
        out = self.conv_norm_act(f"{name}.project", hidden, act=False)
        return out + x if stride == 1 and out.shape == x.shape else out

    def linear(self, name, x, weight="weight", bias="bias"):
        return x @ self.p[f"{name}.{weight}"].T + self.p[f"{name}.{bias}"]

    def attention(self, name, x):
        seqs, tokens, dim = x.shape
        hd = dim // HEADS

        def project(which):
            z = self.linear(name, x, f"w{which}", f"b{which}")
            return z.reshape(seqs, tokens, HEADS, hd).transpose(0, 2, 1, 3)

        q, k, v = project("q"), project("k"), project("v")
        weights = softmax(q @ k.transpose(0, 1, 3, 2) / np.sqrt(hd))
        merged = (weights @ v).transpose(0, 2, 1, 3).reshape(seqs, tokens, dim)
        return self.linear(name, merged, "wo", "bo")

    def layer_norm(self, name, x):
        return layer_norm(x, self.p[f"{name}.gamma"], self.p[f"{name}.beta"])

    def transformer_layer(self, name, x):
        x = x + self.attention(f"{name}.attn", self.layer_norm(f"{name}.norm1", x))
        h = self.layer_norm(f"{name}.norm2", x)
        return x + self.linear(f"{name}.ffn2", silu(self.linear(f"{name}.ffn1", h)))

    def mobilevit(self, name, x, depth):
        """Local conv, then attention among the pixels that share a position
        inside their patch, then fusion with the block input."""
        local = self.conv_norm_act(f"{name}.local_conv", x)
        local = conv(local, self.p[f"{name}.local_proj.weight"])
        ph, pw = PATCH
        batch, dim, h, w = local.shape
        # one sequence per image and in-patch offset (i, j); its tokens are the patches
        offsets = [(b, i, j) for b in range(batch) for i in range(ph) for j in range(pw)]
        seqs = np.stack([local[b, :, i::ph, j::pw].reshape(dim, -1).T for b, i, j in offsets])
        for layer in range(depth):
            seqs = self.transformer_layer(f"{name}.transformer.{layer}", seqs)
        if depth:
            seqs = self.layer_norm(f"{name}.out_norm", seqs)
        folded = np.empty_like(local)
        for (b, i, j), seq in zip(offsets, seqs):
            folded[b, :, i::ph, j::pw] = seq.T.reshape(dim, h // ph, w // pw)
        restored = self.conv_norm_act(f"{name}.unproj", folded)
        return self.conv_norm_act(f"{name}.fusion", np.concatenate([x, restored], axis=1))

    def logits(self, image):
        x = self.conv_norm_act("backbone.stem", image.astype(np.float64), stride=2)
        features = []
        for k, strides in MV2_STRIDES.items():
            for i, stride in enumerate(strides):
                x = self.mv2(f"backbone.block{k}.{i}", x, stride)
            if k >= 3:
                depth = self.config.backbone.transformer_depths[k - 3]
                x = self.mobilevit(f"backbone.block{k}.{len(strides)}", x, depth)
            features.append(x)
        active = [k for k, rho in enumerate(self.config.rho, start=1) if rho > 0]
        pooled = []
        for i, k in enumerate(active):
            weight, bias = (self.p[f"shortcuts.{i}.pointwise.{t}"] for t in ("weight", "bias"))
            pooled.append(silu(conv(features[k - 1], weight, bias)).mean(axis=(2, 3)))
        return self.linear("classifier", np.concatenate(pooled, axis=1))


def randomized_model(name, seed):
    """An eval model whose norms have non-trivial running statistics, whose
    biases are non-zero and whose transformer projections are unit-scale."""
    model = build_model(resolve_variant(name), seed=seed)
    rng = np.random.default_rng(seed + 1000)
    for _, module in model.modules():
        if isinstance(module, BatchNorm2d):
            c = module.running_mean.shape[0]
            module.running_mean[:] = rng.normal(0.0, 0.5, c)
            module.running_var[:] = rng.uniform(0.5, 2.0, c)
            module.gamma.data[:] = rng.uniform(0.5, 1.5, c)
            module.beta.data[:] = rng.normal(0.0, 0.2, c)
    for pname, p in model.named_parameters():
        if pname.endswith(("bias", ".bq", ".bk", ".bv", ".bo")):
            p.data[:] = rng.normal(0.0, 0.1, p.shape)
        elif ".transformer." in pname and p.ndim == 2:
            # unit-scale projections: at init the attention is nearly uniform
            # and adds little to the logits, so a token-grouping bug would hide
            p.data[:] = rng.normal(0.0, p.shape[1] ** -0.5, p.shape)
    return model.eval(), rng


def relative_deviation(name, batch, seed):
    """max |float32 logits - reference| / max |reference|, and the reference's
    CPU seconds (process time, so a busy host does not count against it)."""
    model, rng = randomized_model(name, seed)
    size = model.config.input_size
    image = rng.normal(0.0, 1.0, (batch, 3, size, size)).astype(np.float32)
    got = model(Tensor(image)).data
    start = time.process_time()
    want = Reference(model).logits(image)
    seconds = time.process_time() - start
    assert got.dtype == np.float32 and got.shape == want.shape
    return np.abs(got - want).max() / np.abs(want).max(), seconds


TINY = sorted(name for name in REGISTRY if name.endswith("-tiny"))


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("name", TINY)
def test_tiny_eval_logits_match_reference(name, batch):
    assert relative_deviation(name, batch, seed=7)[0] <= RELATIVE_BOUND


def test_imagenet_eval_logits_match_reference():
    deviation, seconds = relative_deviation("exmvit-928", 1, seed=9)
    assert deviation <= RELATIVE_BOUND
    assert seconds <= 5.0  # about 0.5 s of CPU on a 2-vCPU Xeon


def test_reference_catches_an_unfolded_norm_mistake():
    """The reference is sensitive: a model whose running variance is read
    as its standard deviation lies far outside the bound."""
    model, rng = randomized_model("exmvit-928-tiny", seed=11)
    image = rng.normal(0.0, 1.0, (1, 3, 64, 64)).astype(np.float32)
    want = Reference(model).logits(image)
    norm = model.backbone.block4[1].fusion.norm
    norm.running_var[:] = norm.running_var**2
    got = model(Tensor(image)).data
    assert np.abs(got - want).max() > 10 * RELATIVE_BOUND * np.abs(want).max()
