"""Reference per-pixel discriminator: a tiny fully-convolutional
encoder-decoder with hand-written forward and backward passes.

Architecture, fixed by (depth, base_channels):

  encoder level i (i = 0..depth-1):  two 3x3 conv + ReLU blocks at
      base*2^i channels, then 2x max-pool (pre-pool activations are kept
      as the skip connection);
  bottleneck: two 3x3 conv + ReLU blocks at base*2^depth channels;
  decoder level i (i = depth-1..0): nearest-neighbor 2x upsample,
      3x3 conv + ReLU down to base*2^i channels, channel-concatenation
      with the skip, 3x3 conv + ReLU back to base*2^i channels;
  head: 1x1 conv to a single channel, sigmoid.

The network is written down once, as the op list of `_network`. The
parameter layout, the forward pass and the backward pass all walk it.
All math is float64. Parameters live in a flat vector, one weight and one
bias block per conv op in op order, which makes EMA averaging and
checkpointing trivial. Everything is deterministic given (spec, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AlignmentError, LayoutMismatch, NonFiniteLoss, ValueOutOfRange
from .losses import LossConfig, loss_grad, loss_total
from .rng import Rng
from .types import Image, LossBreakdown, Mask, ParamVector, ProbMap, mean_breakdown

_P_CLIP = 1e-12  # keeps forward outputs strictly inside (0, 1)


@dataclass(frozen=True)
class BackboneSpec:
    """Shape of the reference network; identical specs share one layout."""

    depth: int = 2
    base_channels: int = 8

    def __post_init__(self):
        if self.depth < 1:
            raise ValueOutOfRange(f"depth must be >= 1, got {self.depth}")
        if self.base_channels < 1:
            raise ValueOutOfRange(f"base_channels must be >= 1, got {self.base_channels}")

    @property
    def input_align(self) -> int:
        return 2**self.depth

    @property
    def layout_id(self) -> str:
        return f"encdec-d{self.depth}-c{self.base_channels}-p{param_count(self)}"


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam step size, batch size, epoch count and shuffle seed of one stage."""

    learning_rate: float = 1e-3
    batch_size: int = 8
    epochs: int = 10
    seed: int | None = None  # None: PhaseConfig derives it from the run seed

    def __post_init__(self):
        if not (0.0 <= self.learning_rate < 1.0):
            raise ValueOutOfRange(f"learning_rate must lie in [0, 1), got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueOutOfRange(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueOutOfRange(f"epochs must be >= 0, got {self.epochs}")


def _network(spec: BackboneSpec) -> list[tuple]:
    """The network as an op list, input to logits. Ops are
    ("conv", block name, weight shape, relu), ("pool", level), whose input
    is that level's skip, ("up",), and ("cat", level), which appends that
    level's skip along the channels."""
    ops: list[tuple] = []

    def conv(name: str, out_c: int, in_c: int, k: int = 3, relu: bool = True) -> None:
        ops.append(("conv", name, (out_c, in_c, k, k), relu))

    c_in = 1
    for i in range(spec.depth):
        c = spec.base_channels * (2**i)
        conv(f"enc{i}a", c, c_in)
        conv(f"enc{i}b", c, c)
        ops.append(("pool", i))
        c_in = c
    c = spec.base_channels * (2**spec.depth)
    conv("mid_a", c, c_in)
    conv("mid_b", c, c)
    c_in = c
    for i in reversed(range(spec.depth)):
        c = spec.base_channels * (2**i)
        ops.append(("up",))
        conv(f"dec{i}up", c, c_in)
        ops.append(("cat", i))
        conv(f"dec{i}merge", c, 2 * c)
        c_in = c
    conv("head", 1, c_in, k=1, relu=False)
    return ops


class Layout:
    """The network's op list, and the offsets of each conv block's weight
    (``<name>_w``) and bias (``<name>_b``) inside the flat vector, in op
    order."""

    def __init__(self, spec: BackboneSpec):
        self.ops = _network(spec)
        self.entries: list[tuple[str, tuple[int, ...], int, int]] = []
        off = 0
        for op in self.ops:
            if op[0] == "conv":
                _, name, shape, _ = op
                for suffix, block in (("_w", shape), ("_b", shape[:1])):
                    size = int(np.prod(block))
                    self.entries.append((name + suffix, block, off, size))
                    off += size
        self.total = off

    def unpack(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Views of `vec`'s blocks by name; writing one writes `vec`."""
        return {
            name: vec[off : off + size].reshape(shape)
            for name, shape, off, size in self.entries
        }


@lru_cache(maxsize=16)
def layout_for(spec: BackboneSpec) -> Layout:
    return Layout(spec)


def param_count(spec: BackboneSpec) -> int:
    return layout_for(spec).total


def init_params(spec: BackboneSpec, seed: int) -> ParamVector:
    """He-initialized weights, zero biases; deterministic in (spec, seed)."""
    rng = Rng(seed)
    layout = layout_for(spec)
    vals = np.zeros(layout.total)
    for name, shape, off, size in layout.entries:
        if name.endswith("_w"):
            fan_in = int(np.prod(shape[1:]))
            vals[off : off + size] = rng.normals(size) * np.sqrt(2.0 / fan_in)
    return ParamVector(vals, spec.layout_id)


def _check_compat(spec: BackboneSpec, theta: ParamVector, x_shape: tuple[int, int]) -> None:
    if theta.layout_id != spec.layout_id:
        raise LayoutMismatch(f"theta layout {theta.layout_id!r} != spec layout {spec.layout_id!r}")
    a = spec.input_align
    if x_shape[0] % a or x_shape[1] % a:
        raise AlignmentError(f"input shape {x_shape} not a multiple of alignment {a}")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _conv_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    o, c, k, _ = w.shape
    h, wd = x.shape[1], x.shape[2]
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad))) if pad else x
    acc = np.zeros((o, h * wd))
    for u in range(k):
        for v in range(k):
            acc += w[:, :, u, v] @ xp[:, u : u + h, v : v + wd].reshape(c, h * wd)
    return (acc + b[:, None]).reshape(o, h, wd), xp


def _conv_bwd(dout: np.ndarray, xp: np.ndarray, w: np.ndarray):
    o, c, k, _ = w.shape
    h, wd = dout.shape[1], dout.shape[2]
    pad = (k - 1) // 2
    dflat = dout.reshape(o, h * wd)
    db = dflat.sum(axis=1)
    dw = np.empty_like(w)
    dxp = np.zeros_like(xp)
    for u in range(k):
        for v in range(k):
            patch = xp[:, u : u + h, v : v + wd].reshape(c, h * wd)
            dw[:, :, u, v] = dflat @ patch.T
            dxp[:, u : u + h, v : v + wd] += (w[:, :, u, v].T @ dflat).reshape(c, h, wd)
    dx = dxp[:, pad : pad + h, pad : pad + wd] if pad else dxp
    return dx, dw, db


def _pool_fwd(x: np.ndarray):
    c, h, w = x.shape
    xr = x.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4).reshape(c, h // 2, w // 2, 4)
    idx = xr.argmax(axis=3)
    out = np.take_along_axis(xr, idx[..., None], axis=3)[..., 0]
    return out, idx


def _pool_bwd(dout: np.ndarray, idx: np.ndarray, in_shape: tuple[int, int, int]) -> np.ndarray:
    c, h, w = in_shape
    g4 = np.zeros((c, h // 2, w // 2, 4))
    np.put_along_axis(g4, idx[..., None], dout[..., None], axis=3)
    return g4.reshape(c, h // 2, w // 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(c, h, w)


def _up_fwd(x: np.ndarray) -> np.ndarray:
    return x.repeat(2, axis=1).repeat(2, axis=2)


def _up_bwd(d: np.ndarray) -> np.ndarray:
    c, h, w = d.shape
    return d.reshape(c, h // 2, 2, w // 2, 2).sum(axis=(2, 4))


def _forward_cached(layout: Layout, params: dict[str, np.ndarray], x: np.ndarray):
    """Output probabilities, and per op what its backward step needs."""
    a = x[np.newaxis]
    skips: dict[int, np.ndarray] = {}
    saved: list = []
    for op in layout.ops:
        keep = None
        match op:
            case ("conv", name, _, relu):
                a, xp = _conv_fwd(a, params[name + "_w"], params[name + "_b"])
                if relu:
                    a = np.maximum(a, 0.0)
                keep = (xp, a)
            case ("pool", level):
                skips[level] = a
                a, idx = _pool_fwd(a)
                keep = (idx, skips[level].shape)
            case ("up",):
                a = _up_fwd(a)
            case ("cat", level):
                keep = a.shape[0]
                a = np.concatenate([a, skips[level]], axis=0)
        saved.append(keep)
    p = np.clip(_sigmoid(a[0]), _P_CLIP, 1.0 - _P_CLIP)
    return p, saved


def _backward(
    layout: Layout,
    params: dict[str, np.ndarray],
    saved: list,
    p: np.ndarray,
    dp: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    """Add the parameter gradient for output gradient `dp` into `grads`."""
    d = (dp * p * (1.0 - p))[np.newaxis]
    dskips: dict[int, np.ndarray] = {}
    for op, keep in zip(reversed(layout.ops), reversed(saved)):
        match op:
            case ("conv", name, _, relu):
                xp, act = keep
                if relu:
                    d = d * (act > 0)
                d, dw, db = _conv_bwd(d, xp, params[name + "_w"])
                grads[name + "_w"] += dw
                grads[name + "_b"] += db
            case ("pool", level):
                idx, shape = keep
                d = _pool_bwd(d, idx, shape) + dskips[level]
            case ("up",):
                d = _up_bwd(d)
            case ("cat", level):
                d, dskips[level] = d[:keep], d[keep:]


def forward(spec: BackboneSpec, theta: ParamVector, x: Image) -> ProbMap:
    """Pure forward pass; output has the input's shape, values in (0, 1)."""
    _check_compat(spec, theta, x.shape)
    layout = layout_for(spec)
    p, _ = _forward_cached(layout, layout.unpack(theta.values), x.pixels)
    return ProbMap(p)


def loss_and_grad(
    spec: BackboneSpec,
    theta: ParamVector,
    batch: list[tuple[Image, Mask]],
    loss_cfg: LossConfig,
) -> tuple[LossBreakdown, np.ndarray]:
    """Batch-mean loss and the matching flat parameter gradient."""
    if not batch:
        raise ValueOutOfRange("batch must be non-empty")
    layout = layout_for(spec)
    params = layout.unpack(theta.values)
    total = np.zeros(layout.total)
    grads = layout.unpack(total)
    parts = []
    for img, msk in batch:
        _check_compat(spec, theta, img.shape)
        p, saved = _forward_cached(layout, params, img.pixels)
        if not np.isfinite(p).all():
            raise NonFiniteLoss("forward pass produced non-finite probabilities")
        pm = ProbMap(p)
        lb = loss_total(pm, msk, loss_cfg)
        if not lb.all_finite():
            raise NonFiniteLoss(f"non-finite loss components: {lb}")
        dp = loss_grad(pm, msk, loss_cfg)
        _backward(layout, params, saved, p, dp, grads)
        parts.append(lb)
    total /= len(batch)
    return mean_breakdown(parts), total


@dataclass(frozen=True, eq=False)
class OptState:
    """Adam moment estimates; advance them only through train_step."""

    step: int
    m: np.ndarray
    v: np.ndarray

    _ADAM_B1 = 0.9
    _ADAM_B2 = 0.999
    _ADAM_EPS = 1e-8


def _apply_update(
    vals: np.ndarray, grad: np.ndarray, cfg: OptimizerConfig, st: OptState
) -> tuple[np.ndarray, OptState]:
    b1, b2 = OptState._ADAM_B1, OptState._ADAM_B2
    t = st.step + 1
    m = b1 * st.m + (1.0 - b1) * grad
    v = b2 * st.v + (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    new = vals - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + OptState._ADAM_EPS)
    return new, OptState(t, m, v)


def train_step(
    spec: BackboneSpec,
    theta: ParamVector,
    batch: list[tuple[Image, Mask]],
    cfg: OptimizerConfig,
    loss_cfg: LossConfig,
    opt_state: OptState | None = None,
) -> tuple[ParamVector, OptState, LossBreakdown]:
    """One optimizer step on the batch-mean loss; returns the pre-step loss."""
    if opt_state is None:
        opt_state = OptState(0, np.zeros(len(theta)), np.zeros(len(theta)))
    lb, grad = loss_and_grad(spec, theta, batch, loss_cfg)
    new_vals, new_state = _apply_update(theta.values, grad, cfg, opt_state)
    return ParamVector(new_vals, theta.layout_id), new_state, lb
