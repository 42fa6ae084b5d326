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

All math is float64. Parameters live in a flat vector with a fixed,
documented ordering (see `param_defs`), which makes EMA averaging and
checkpointing trivial. Everything is deterministic given (spec, seed).

The backbone is a pluggable contract: anything providing init_params /
forward / train_step against the same value types can stand in for it.
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
    algorithm: str = "adam"
    learning_rate: float = 1e-3
    batch_size: int = 8
    epochs: int = 10
    seed: int | None = None  # None: PhaseConfig derives it from the run seed

    def __post_init__(self):
        if self.algorithm not in ("adam", "sgd_momentum"):
            raise ValueOutOfRange(f"unknown optimizer {self.algorithm!r}")
        if not (0.0 <= self.learning_rate < 1.0):
            raise ValueOutOfRange(f"learning_rate must lie in [0, 1), got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueOutOfRange(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueOutOfRange(f"epochs must be >= 0, got {self.epochs}")


def param_defs(spec: BackboneSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, shape) parameter table; the flat vector follows it."""
    defs: list[tuple[str, tuple[int, ...]]] = []

    def conv(name: str, out_c: int, in_c: int, k: int = 3) -> None:
        defs.append((f"{name}_w", (out_c, in_c, k, k)))
        defs.append((f"{name}_b", (out_c,)))

    c_in = 1
    for i in range(spec.depth):
        c = spec.base_channels * (2**i)
        conv(f"enc{i}a", c, c_in)
        conv(f"enc{i}b", c, c)
        c_in = c
    c = spec.base_channels * (2**spec.depth)
    conv("mid_a", c, c_in)
    conv("mid_b", c, c)
    c_in = c
    for i in reversed(range(spec.depth)):
        c = spec.base_channels * (2**i)
        conv(f"dec{i}up", c, c_in)
        conv(f"dec{i}merge", c, 2 * c)
        c_in = c
    conv("head", 1, c_in, k=1)
    return defs


class Layout:
    """Offsets of each named parameter block inside the flat vector."""

    def __init__(self, spec: BackboneSpec):
        self.entries: list[tuple[str, tuple[int, ...], int, int]] = []
        off = 0
        for name, shape in param_defs(spec):
            size = int(np.prod(shape))
            self.entries.append((name, shape, off, size))
            off += size
        self.total = off

    def unpack(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        return {
            name: vec[off : off + size].reshape(shape)
            for name, shape, off, size in self.entries
        }

    def pack(self, blocks: dict[str, np.ndarray]) -> np.ndarray:
        out = np.empty(self.total, dtype=np.float64)
        for name, shape, off, size in self.entries:
            out[off : off + size] = blocks[name].reshape(size)
        return out


@lru_cache(maxsize=16)
def layout_for(spec: BackboneSpec) -> Layout:
    return Layout(spec)


def param_count(spec: BackboneSpec) -> int:
    return layout_for(spec).total


def init_params(spec: BackboneSpec, seed: int) -> ParamVector:
    """He-initialized weights, zero biases; deterministic in (spec, seed)."""
    rng = Rng(seed)
    parts = []
    for name, shape in param_defs(spec):
        size = int(np.prod(shape))
        if name.endswith("_w"):
            fan_in = int(np.prod(shape[1:]))
            parts.append(rng.normals(size) * np.sqrt(2.0 / fan_in))
        else:
            parts.append(np.zeros(size))
    return ParamVector(np.concatenate(parts), spec.layout_id)


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


def _forward_cached(spec: BackboneSpec, params: dict[str, np.ndarray], x: np.ndarray):
    cache: dict = {"conv_in": {}, "relu": {}, "pool": {}}
    a = x[np.newaxis]
    skips: dict[int, np.ndarray] = {}

    def conv_relu(name: str, inp: np.ndarray) -> np.ndarray:
        z, xp = _conv_fwd(inp, params[name + "_w"], params[name + "_b"])
        act = np.maximum(z, 0.0)
        cache["conv_in"][name] = xp
        cache["relu"][name] = act
        return act

    for i in range(spec.depth):
        a = conv_relu(f"enc{i}a", a)
        a = conv_relu(f"enc{i}b", a)
        skips[i] = a
        out, idx = _pool_fwd(a)
        cache["pool"][i] = (idx, a.shape)
        a = out
    a = conv_relu("mid_a", a)
    a = conv_relu("mid_b", a)
    for i in reversed(range(spec.depth)):
        a = _up_fwd(a)
        a = conv_relu(f"dec{i}up", a)
        a = np.concatenate([a, skips[i]], axis=0)
        a = conv_relu(f"dec{i}merge", a)
    z, xp = _conv_fwd(a, params["head_w"], params["head_b"])
    cache["conv_in"]["head"] = xp
    p = np.clip(_sigmoid(z[0]), _P_CLIP, 1.0 - _P_CLIP)
    cache["p"] = p
    return p, cache


def _backward(
    spec: BackboneSpec, params: dict[str, np.ndarray], cache: dict, dp: np.ndarray
) -> dict[str, np.ndarray]:
    grads: dict[str, np.ndarray] = {}

    def conv_relu_bwd(name: str, d: np.ndarray) -> np.ndarray:
        dz = d * (cache["relu"][name] > 0)
        dx, dw, db = _conv_bwd(dz, cache["conv_in"][name], params[name + "_w"])
        grads[name + "_w"] = dw
        grads[name + "_b"] = db
        return dx

    p = cache["p"]
    d = (dp * p * (1.0 - p))[np.newaxis]
    d, grads["head_w"], grads["head_b"] = _conv_bwd(d, cache["conv_in"]["head"], params["head_w"])

    dskips: dict[int, np.ndarray] = {}
    for i in range(spec.depth):
        d = conv_relu_bwd(f"dec{i}merge", d)
        c_half = d.shape[0] // 2
        dskips[i] = d[c_half:]
        d = conv_relu_bwd(f"dec{i}up", d[:c_half])
        d = _up_bwd(d)
    d = conv_relu_bwd("mid_b", d)
    d = conv_relu_bwd("mid_a", d)
    for i in reversed(range(spec.depth)):
        idx, shape = cache["pool"][i]
        d = _pool_bwd(d, idx, shape) + dskips[i]
        d = conv_relu_bwd(f"enc{i}b", d)
        d = conv_relu_bwd(f"enc{i}a", d)
    return grads


def forward(spec: BackboneSpec, theta: ParamVector, x: Image) -> ProbMap:
    """Pure forward pass; output has the input's shape, values in (0, 1)."""
    _check_compat(spec, theta, x.shape)
    params = layout_for(spec).unpack(theta.values)
    p, _ = _forward_cached(spec, params, x.pixels)
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
    parts = []
    for img, msk in batch:
        _check_compat(spec, theta, img.shape)
        p, cache = _forward_cached(spec, params, img.pixels)
        if not np.isfinite(p).all():
            raise NonFiniteLoss("forward pass produced non-finite probabilities")
        pm = ProbMap(p)
        lb = loss_total(pm, msk, loss_cfg)
        if not lb.all_finite():
            raise NonFiniteLoss(f"non-finite loss components: {lb}")
        dp = loss_grad(pm, msk, loss_cfg)
        total += layout.pack(_backward(spec, params, cache, dp))
        parts.append(lb)
    total /= len(batch)
    return mean_breakdown(parts), total


@dataclass(frozen=True, eq=False)
class OptState:
    """Optimizer scratch state; advance it only through train_step."""

    algorithm: str
    step: int
    m: np.ndarray
    v: np.ndarray | None

    _SGD_MOMENTUM = 0.9
    _ADAM_B1 = 0.9
    _ADAM_B2 = 0.999
    _ADAM_EPS = 1e-8


def init_opt_state(cfg: OptimizerConfig, n_params: int) -> OptState:
    v = np.zeros(n_params) if cfg.algorithm == "adam" else None
    return OptState(cfg.algorithm, 0, np.zeros(n_params), v)


def _apply_update(
    vals: np.ndarray, grad: np.ndarray, cfg: OptimizerConfig, st: OptState
) -> tuple[np.ndarray, OptState]:
    if cfg.algorithm == "sgd_momentum":
        m = OptState._SGD_MOMENTUM * st.m + grad
        return vals - cfg.learning_rate * m, OptState("sgd_momentum", st.step + 1, m, None)
    b1, b2 = OptState._ADAM_B1, OptState._ADAM_B2
    t = st.step + 1
    m = b1 * st.m + (1.0 - b1) * grad
    v = b2 * st.v + (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    new = vals - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + OptState._ADAM_EPS)
    return new, OptState("adam", t, m, v)


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
        opt_state = init_opt_state(cfg, len(theta))
    if opt_state.algorithm != cfg.algorithm:
        raise ValueOutOfRange(
            f"optimizer state is for {opt_state.algorithm!r}, config wants {cfg.algorithm!r}"
        )
    lb, grad = loss_and_grad(spec, theta, batch, loss_cfg)
    new_vals, new_state = _apply_update(theta.values, grad, cfg, opt_state)
    return ParamVector(new_vals, theta.layout_id), new_state, lb
