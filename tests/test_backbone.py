import numpy as np
import pytest

from curriseg import (
    AlignmentError,
    BackboneSpec,
    GaussianKernel,
    Image,
    LayoutMismatch,
    LossConfig,
    Mask,
    NonFiniteLoss,
    OptimizerConfig,
    ParamVector,
    ProbMap,
    Rng,
    ValueOutOfRange,
    forward,
    init_params,
    loss_and_grad,
    loss_grad,
    loss_total,
    param_count,
    train_step,
)
from curriseg.backbone import layout_for

TINY = BackboneSpec(depth=1, base_channels=2)
LOSS = LossConfig()


def small_pair(seed: int, h: int = 8, w: int = 8):
    rng = Rng(seed)
    img = Image(np.clip(0.5 + 0.2 * rng.normals(h * w).reshape(h, w), 0.02, 0.98))
    msk = Mask((img.pixels > 0.55).astype(np.uint8))
    return img, msk


# ----------------------------------------------------------------- counting


def _count_oracle(depth: int, base: int) -> int:
    # independent layer-by-layer walk of the architecture:
    # [double conv]*depth -> double conv bottleneck -> [up conv + merge conv]
    # per level -> 1x1 head
    def conv(cin, cout, k):
        return cout * cin * k * k + cout

    total = 0
    cin, ch = 1, base
    for _ in range(depth):
        total += conv(cin, ch, 3) + conv(ch, ch, 3)
        cin, ch = ch, ch * 2
    total += conv(cin, ch, 3) + conv(ch, ch, 3)
    upper = ch
    for _ in range(depth):
        ch //= 2
        total += conv(upper, ch, 3) + conv(2 * ch, ch, 3)
        upper = ch
    return total + conv(ch, 1, 1)


@pytest.mark.parametrize("depth,base", [(1, 2), (2, 8), (2, 4), (3, 4)])
def test_param_count_closed_form(depth, base):
    spec = BackboneSpec(depth=depth, base_channels=base)
    want = _count_oracle(depth, base)
    assert param_count(spec) == want
    assert len(init_params(spec, 0)) == want


def test_default_spec_count():
    assert param_count(BackboneSpec()) == 29617


def test_layout_id_tracks_architecture():
    a = BackboneSpec(depth=2, base_channels=8)
    b = BackboneSpec(depth=2, base_channels=8)
    c = BackboneSpec(depth=1, base_channels=8)
    assert a.layout_id == b.layout_id
    assert a.layout_id != c.layout_id
    assert a.input_align == 4 and c.input_align == 2


def test_layout_entries_cover_vector_exactly():
    layout = layout_for(TINY)
    offsets = [off for _, _, off, _ in layout.entries]
    sizes = [size for _, _, _, size in layout.entries]
    assert offsets[0] == 0
    for i in range(1, len(offsets)):
        assert offsets[i] == offsets[i - 1] + sizes[i - 1]  # contiguous
    assert offsets[-1] + sizes[-1] == layout.total == param_count(TINY)


# --------------------------------------------------------------------- init


def test_init_deterministic_and_seed_sensitive():
    a = init_params(TINY, 42)
    b = init_params(TINY, 42)
    c = init_params(TINY, 43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.layout_id == TINY.layout_id


def test_init_biases_zero():
    layout = layout_for(TINY)
    params = layout.unpack(init_params(TINY, 3).values)
    for name, arr in params.items():
        if name.endswith("_b"):
            assert np.all(arr == 0.0)
        else:
            assert np.any(arr != 0.0)


# ------------------------------------------------------------------ forward


def test_forward_shape_range_determinism():
    theta = init_params(TINY, 7)
    img, _ = small_pair(1)
    p1 = forward(TINY, theta, img)
    p2 = forward(TINY, theta, img)
    assert p1.shape == img.shape
    assert np.all(p1.probs > 0.0) and np.all(p1.probs < 1.0)
    assert np.array_equal(p1.probs, p2.probs)


def test_forward_alignment_and_layout_errors():
    theta = init_params(TINY, 7)
    with pytest.raises(AlignmentError):
        forward(TINY, theta, Image(np.full((7, 8), 0.5)))  # 7 not divisible by 2
    other = init_params(BackboneSpec(depth=2, base_channels=2), 7)
    with pytest.raises(LayoutMismatch):
        forward(TINY, other, Image(np.full((8, 8), 0.5)))


def test_forward_fully_convolutional():
    theta = init_params(TINY, 9)
    for h, w in [(8, 8), (8, 16), (24, 10)]:
        img, _ = small_pair(h * 100 + w, h, w)
        assert forward(TINY, theta, img).shape == (h, w)


# ---------------------------------------------------------------- gradients


def _fd_param_grad(spec, theta, batch, cfg, h=1e-5):
    def L(v):
        bd, _ = loss_and_grad(spec, ParamVector(v, theta.layout_id), batch, cfg)
        return bd.l_total

    fd = np.zeros(len(theta))
    for i in range(len(theta)):
        vp = theta.values.copy()
        vm = theta.values.copy()
        vp[i] += h
        vm[i] -= h
        fd[i] = (L(vp) - L(vm)) / (2 * h)
    return fd


def _max_rel_err(g, fd):
    err = np.abs(g - fd)
    scale = np.maximum(np.abs(g), np.abs(fd))
    return float(np.where(scale < 1e-6, err, err / np.maximum(scale, 1e-12)).max())


def _jittered(spec, theta_seed, jit_seed):
    # biases start at exactly zero, which parks whole channels on the ReLU
    # kink (zero receptive field -> pre-activation == bias == 0); a small
    # jitter moves the evaluation point where the loss is differentiable
    base = init_params(spec, theta_seed)
    vals = base.values + 0.02 * Rng(jit_seed).normals(base.values.size)
    return ParamVector(vals, base.layout_id)


@pytest.mark.parametrize("s", [1, 2])
def test_parameter_gradient_finite_differences(s):
    cfg = LossConfig(kernel=GaussianKernel(sigma=1.0, radius=2))
    img, msk = small_pair(10 * s)
    theta = _jittered(TINY, 10 * s + 1, 10 * s + 2)
    _, g = loss_and_grad(TINY, theta, [(img, msk)], cfg)
    fd = _fd_param_grad(TINY, theta, [(img, msk)], cfg)
    assert _max_rel_err(g, fd) < 1e-4


def test_toy_linear_sigmoid_gradient():
    # 3-parameter model p = sigmoid(w1*x + w2*y + b) chained through
    # loss_grad by hand; finite differences must agree
    x = Rng(4).uniforms(36).reshape(6, 6)
    y = Rng(5).uniforms(36).reshape(6, 6)
    t = Mask((Rng(6).uniforms(36).reshape(6, 6) < 0.3).astype(np.uint8))
    w = np.array([0.8, -0.5, 0.1])

    def model(wv):
        z = wv[0] * x + wv[1] * y + wv[2]
        return 1.0 / (1.0 + np.exp(-z))

    def L(wv):
        return loss_total(ProbMap(model(wv)), t, LOSS).l_total

    p = model(w)
    dp = loss_grad(ProbMap(p), t, LOSS)
    dz = dp * p * (1.0 - p)
    g = np.array([(dz * x).sum(), (dz * y).sum(), dz.sum()])
    fd = np.zeros(3)
    h = 1e-6
    for i in range(3):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        fd[i] = (L(wp) - L(wm)) / (2 * h)
    assert _max_rel_err(g, fd) < 1e-4


def test_loss_and_grad_nonfinite_guard():
    img = Image(np.full((8, 8), 0.5))
    msk = Mask(np.zeros((8, 8), dtype=np.uint8))
    base = init_params(TINY, 0)
    blown = ParamVector(base.values * 1e160, base.layout_id)
    with pytest.raises(NonFiniteLoss), np.errstate(all="ignore"):
        loss_and_grad(TINY, blown, [(img, msk)], LOSS)


# --------------------------------------------------------------- train_step


def test_zero_lr_is_null_step():
    theta = init_params(TINY, 11)
    img, msk = small_pair(2)
    cfg = OptimizerConfig(learning_rate=0.0, batch_size=1, epochs=1)
    new, st, lb = train_step(TINY, theta, [(img, msk)], cfg, LOSS)
    assert np.array_equal(new.values, theta.values)
    assert st.step == 1


def test_returned_loss_is_pre_step():
    theta = init_params(TINY, 12)
    img, msk = small_pair(3)
    cfg = OptimizerConfig(learning_rate=0.01, batch_size=1, epochs=1)
    lb_direct, _ = loss_and_grad(TINY, theta, [(img, msk)], LOSS)
    _, _, lb = train_step(TINY, theta, [(img, msk)], cfg, LOSS)
    assert lb.l_total == lb_direct.l_total


def test_adam_first_step_oracle():
    theta = init_params(TINY, 13)
    img, msk = small_pair(4)
    cfg = OptimizerConfig(learning_rate=2e-3, batch_size=1, epochs=1)
    _, g = loss_and_grad(TINY, theta, [(img, msk)], LOSS)
    # bias-corrected first step: m_hat = g, v_hat = g^2
    want = theta.values - cfg.learning_rate * g / (np.sqrt(g * g) + 1e-8)
    new, st, _ = train_step(TINY, theta, [(img, msk)], cfg, LOSS)
    np.testing.assert_allclose(new.values, want, rtol=1e-12, atol=0)
    assert st.step == 1


def test_train_step_reproducible():
    img, msk = small_pair(6)
    cfg = OptimizerConfig(learning_rate=1e-3, batch_size=1, epochs=1)

    def one():
        theta = init_params(TINY, 15)
        st = None
        for _ in range(3):
            theta, st, _ = train_step(TINY, theta, [(img, msk)], cfg, LOSS, st)
        return theta.values

    assert np.array_equal(one(), one())


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_smoke_training_halves_loss(seed):
    # one trivially-easy item: bright 3x3 block, mask = thresholded copy.
    # 4 channels, not 2: a 2-channel net can lose every feature to dead
    # ReLUs on an unlucky draw and then no optimizer can move it.
    spec = BackboneSpec(depth=1, base_channels=4)
    img_arr = np.full((8, 8), 0.2)
    img_arr[2:5, 3:6] = 0.9
    img = Image(img_arr)
    msk = Mask((img_arr > 0.5).astype(np.uint8))
    theta = init_params(spec, seed)
    cfg = OptimizerConfig(learning_rate=3e-3, batch_size=1, epochs=1)
    st = None
    first = None
    for _ in range(200):
        theta, st, lb = train_step(spec, theta, [(img, msk)], cfg, LOSS, st)
        if first is None:
            first = lb.l_total
    assert lb.l_total <= 0.5 * first


def test_optimizer_config_validation():
    with pytest.raises(ValueOutOfRange):
        OptimizerConfig(learning_rate=1.0)
    with pytest.raises(ValueOutOfRange):
        OptimizerConfig(batch_size=0)
    with pytest.raises(ValueOutOfRange):
        OptimizerConfig(epochs=-1)
