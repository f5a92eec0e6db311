"""Reference op chains for the tests.

Each fused op of ``exmvit.tensor`` records one node in place of a chain of
generic ops. The generic ops the library no longer calls live here, built on
``T._make`` (``add`` and ``mul`` broadcast, as ``T.add`` does not), with a
``batch_norm`` node for the norm that ``T.conv2d`` fuses and the chains built
from them, so a test can hold a fused op to the chain it replaces: bit for bit
where both run the same numpy in the same order, and in its gradients.
"""

import numpy as np

from exmvit import tensor as T
from exmvit.tensor import Tensor

# -- generic recorded ops --------------------------------------------------------


def _unbroadcast(grad, shape):
    """Reduce a broadcast gradient back to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b):
    """a + b with numpy broadcasting (``T.add`` takes one shape only)."""
    data = a.data + b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(g, b.shape))

    return T._make(data, (a, b), backward, "add")


def mul(a, b):
    data = a.data * b.data

    def backward(g):
        a._accumulate(_unbroadcast(g * b.data, a.shape), owned=True)
        b._accumulate(_unbroadcast(g * a.data, b.shape), owned=True)

    return T._make(data, (a, b), backward, "mul")


def sub(a, b):
    data = a.data - b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(-g, b.shape))

    return T._make(data, (a, b), backward, "sub")


def div(a, b):
    with np.errstate(divide="ignore", invalid="ignore"):
        data = a.data / b.data

    def backward(g):
        a._accumulate(_unbroadcast(g / b.data, a.shape), owned=True)
        b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape), owned=True)

    return T._make(data, (a, b), backward, "div")


def exp(a):
    data = np.exp(a.data)

    def backward(g):
        a._accumulate(g * data, owned=True)

    return T._make(data, (a,), backward, "exp")


def log(a):
    data = np.log(a.data)

    def backward(g):
        a._accumulate(g / a.data, owned=True)

    return T._make(data, (a,), backward, "log")


def sqrt(a):
    data = np.sqrt(a.data)

    def backward(g):
        a._accumulate(g * 0.5 / data, owned=True)

    return T._make(data, (a,), backward, "sqrt")


def silu(a):
    data = T._silu(a.data.copy())

    def backward(g):
        a._accumulate(T._silu_grad(g, data, a.data.copy()), owned=True)

    return T._make(data, (a,), backward, "silu")


def softmax(a):
    """Softmax over the last axis, stabilized by max subtraction."""
    data = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        a._accumulate(data * (g - inner), owned=True)

    return T._make(data, (a,), backward, "softmax")


def reshape(a, shape):
    data = a.data.reshape(shape)

    def backward(g):
        a._accumulate(g.reshape(a.shape))

    return T._make(data, (a,), backward, "reshape")


def matmul(a, b):
    data = np.matmul(a.data, b.data)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        a._accumulate(_unbroadcast(ga, a.shape), owned=True)
        b._accumulate(_unbroadcast(gb, b.shape), owned=True)

    return T._make(data, (a, b), backward, "matmul")


def tmean(a, axis=None, keepdims=False):
    if axis is None:
        count = a.size
    else:
        count = 1
        for ax in axis if isinstance(axis, tuple) else (axis,):
            count *= a.shape[ax]
    total = T.tsum(a, axis=axis, keepdims=keepdims)
    return mul(total, Tensor(np.asarray(1.0 / count, dtype=a.dtype)))


def rowsum(a):
    """Sum over the last axis as a matmul against ones, as the fused norms
    take their per-row and per-channel sums."""
    n = a.shape[-1]
    data = (a.data.reshape(-1, n) @ np.ones(n, dtype=a.dtype)).reshape(a.shape[:-1])

    def backward(g):
        a._accumulate(np.broadcast_to(g[..., None], a.shape))

    return T._make(data, (a,), backward, "rowsum")


def dot(a, b, spec):
    """``np.einsum(spec, a, b)`` of two same-shape operands: their
    products summed over the axes the output drops."""
    data = np.einsum(spec, a.data, b.data)
    operand, out = spec.split(",")[0], spec.split("->")[1]
    back = f"{out},{operand}->{operand}"  # g spread over the summed axes, times the other

    def backward(g):
        a._accumulate(np.einsum(back, g, b.data), owned=True)
        b._accumulate(np.einsum(back, g, a.data), owned=True)

    return T._make(data, (a, b), backward, "dot")


def batch_norm(x, gamma, beta, running_mean, running_var, act=False):
    """Training batch norm of a [B, C, H, W] map, then SiLU if ``act``: one
    node running ``T._batch_norm`` (``conv2d``'s norm) on a copy of x."""
    out, grad, _ = T._batch_norm(x.data.copy(), gamma, beta, running_mean, running_var, act)

    def backward(g):
        x._accumulate(grad(g, out), owned=True)

    return T._node(out, (x, gamma, beta), backward)


# -- the chains the fused ops replace ------------------------------------------------


def chained_batch_norm(x, gamma, beta, running_mean, running_var):
    """Training-mode batch norm as a chain of primitive ops (the unfused
    form), its sums taken as the fused op takes them: the mean by a matmul
    of the (B·C, H·W) rows against ones, summed over the batch, and the
    variance by one einsum."""
    b, c, h, w = x.shape
    n = b * h * w
    rn = Tensor(np.asarray(1.0 / n, dtype=x.dtype))
    per_image = reshape(rowsum(reshape(x, (b * c, h * w))), (b, c))
    mean = reshape(mul(T.tsum(per_image, axis=0), rn), (1, c, 1, 1))
    centered = sub(x, mean)
    maps = reshape(centered, (b, c, h * w))
    var = reshape(mul(dot(maps, maps, "bcp,bcp->c"), rn), (1, c, 1, 1))
    unbiased = var.data.reshape(c) * (n / max(n - 1, 1))
    running_mean *= 1.0 - T.BN_MOMENTUM
    running_mean += T.BN_MOMENTUM * mean.data.reshape(c)
    running_var *= 1.0 - T.BN_MOMENTUM
    running_var += T.BN_MOMENTUM * unbiased
    eps_t = Tensor(np.asarray(T.NORM_EPS, dtype=np.float32))
    inv = div(Tensor(np.asarray(1.0, dtype=x.dtype)), sqrt(add(var, eps_t)))
    scaled = mul(mul(centered, inv), reshape(gamma, (1, c, 1, 1)))
    return add(scaled, reshape(beta, (1, c, 1, 1)))


def chained_layer_norm(x, gamma, beta):
    """Layer norm as a chain of primitive ops (the unfused form), its
    per-row sums taken as the fused op takes them: a matmul against ones
    and an einsum."""
    rn = Tensor(np.asarray(1.0 / x.shape[-1], dtype=x.dtype))
    keep = x.shape[:-1] + (1,)
    mean = mul(reshape(rowsum(x), keep), rn)
    centered = sub(x, mean)
    var = mul(reshape(dot(centered, centered, "...d,...d->..."), keep), rn)
    eps_t = Tensor(np.asarray(T.NORM_EPS, dtype=np.float32))
    inv = div(Tensor(np.asarray(1.0, dtype=x.dtype)), sqrt(add(var, eps_t)))
    return add(mul(mul(centered, inv), gamma), beta)


def permuted(a, axes):
    """``a.transpose(axes)`` as a chain of ``reshape`` and one ``matmul``
    against a 0/1 permutation matrix, which moves every value exactly."""
    n = a.size
    source = np.arange(n).reshape(a.shape).transpose(axes).reshape(-1)
    perm = np.zeros((n, n), dtype=a.dtype)
    perm[source, np.arange(n)] = 1.0
    flat = matmul(reshape(a, (1, n)), Tensor(perm))
    return reshape(flat, tuple(a.shape[i] for i in axes))


def chained_linear(x, weight, bias, act=False):
    """Linear as the op chain matmul, transpose, add, silu."""
    out = add(matmul(x, permuted(weight, (1, 0))), bias)
    return silu(out) if act else out


def chained_unfold(x, ph, pw):
    b, c, h, w = x.shape
    t = permuted(reshape(x, (b, c, h // ph, ph, w // pw, pw)), (0, 3, 5, 2, 4, 1))
    return reshape(t, (b * ph * pw, (h // ph) * (w // pw), c))


def chained_fold(x, ph, pw, out_shape):
    b, c, h, w = out_shape
    t = permuted(reshape(x, (b, ph, pw, h // ph, w // pw, c)), (0, 5, 3, 1, 4, 2))
    return reshape(t, out_shape)


def chained_attend(q, k, v, heads):
    """Per-head softmax(q kᵀ) v as the op chain split, matmul, softmax, matmul, merge."""
    b, t, d = q.shape

    def split(z):
        return permuted(reshape(z, (b, t, heads, d // heads)), (0, 2, 1, 3))

    scores = matmul(split(q), permuted(split(k), (0, 1, 3, 2)))
    ctx = matmul(softmax(scores), split(v))
    return reshape(permuted(ctx, (0, 2, 1, 3)), (b, t, d))


def chained_global_avg_pool(a):
    """Spatial mean as the op chain sum over (H, W), times 1/(H·W)."""
    return tmean(a, axis=(2, 3))


def chained_conv_act(x, weight, bias=None, **conv):
    """A conv with ``act`` as the op chain conv, then silu."""
    return silu(T.conv2d(x, weight, bias, **conv))


def chained_conv_norm(x, weight, gamma, beta, running_mean, running_var, act=False, **conv):
    """A conv given ``norm`` as the ops it fuses: the conv, then the
    training batch norm with its SiLU, whose output is never released."""
    return batch_norm(T.conv2d(x, weight, **conv), gamma, beta, running_mean, running_var, act=act)


def chained_cross_entropy(logits, target):
    """Mean cross-entropy against a constant target distribution as the chain
    of nine recorded ops: the log-softmax by a detached max shift, then the
    target-weighted sum and the mean."""
    shift = Tensor(logits.data.max(axis=-1, keepdims=True))
    shifted = sub(logits, shift)
    logsumexp = log(T.tsum(exp(shifted), axis=-1, keepdims=True))
    log_probs = sub(shifted, logsumexp)
    per_sample = T.tsum(mul(Tensor(-target), log_probs), axis=-1)
    return tmean(per_sample)
