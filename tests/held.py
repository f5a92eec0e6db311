"""What a recorded graph holds, for the memory tests.

A node holds its output array, unless the output was released, and what its
backward closure reaches. A released output's stand-in holds what its
rebuild reads. None of these helpers reads ``Tensor.data``, so none of them
rebuilds a released output.
"""

import numpy as np

from exmvit.tensor import Tensor


def held_arrays(fn):
    """Every array a closure reaches through its cells, the closures and
    tuples in them and the Tensors in them (a released Tensor holds none)."""
    held = []
    for cell in fn.__closure__ or ():
        held += _reached(cell.cell_contents)
    return held


def _reached(value):
    if isinstance(value, tuple):
        return [a for item in value for a in _reached(item)]
    if isinstance(value, Tensor):  # its array as it is held now
        value = value._data
    if isinstance(value, np.ndarray):
        return [value]
    if callable(value) and getattr(value, "__closure__", None):
        return held_arrays(value)
    return []


def held_beyond(node, tensors):
    """The arrays ``node``'s closure holds that share no memory with
    ``tensors``' data."""
    return [
        a
        for a in held_arrays(node._backward)
        if not any(np.shares_memory(a, t.data) for t in tensors)
    ]


def released(tensor) -> bool:
    """Whether ``tensor``'s array was dropped, to be rebuilt when read."""
    return tensor._rebuild is not None and tensor._data is tensor._rebuild


def op_kind(node) -> str:
    """A node's op, named by its backward closure."""
    return node._backward.__qualname__.split(".")[0]


def _base(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def held_bytes(root, kind=op_kind) -> dict[str, dict[str, int]]:
    """Bytes the graph recorded up to ``root`` holds, by ``kind(node)``:
    ``"outputs"``, the node outputs that are not released, and
    ``"closures"``, the arrays only closures and rebuilds reach (batch-norm
    running statistics among them, a few KiB). Each base buffer counts once,
    outputs first; the arrays of leaves (parameters, inputs) not at all."""
    nodes, leaves, seen, stack = [], [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            (nodes if node._backward is not None else leaves).append(node)
            stack.extend(node._parents)
    counted = {id(_base(leaf._data)) for leaf in leaves}
    totals: dict[str, dict[str, int]] = {}

    def count(node, part, arrays):
        entry = totals.setdefault(kind(node), {"outputs": 0, "closures": 0})
        for a in arrays:
            base = _base(a)
            if id(base) not in counted:
                counted.add(id(base))
                entry[part] += base.nbytes

    for node in nodes:
        count(node, "outputs", [] if released(node) else [node._data])
    for node in nodes:
        rebuild = [] if node._rebuild is None else held_arrays(node._rebuild.fn)
        count(node, "closures", held_arrays(node._backward) + rebuild)
    return totals
