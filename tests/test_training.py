"""Training loop behavior and the checkpoint format."""
import io
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from noisetilt import autodiff as ad
from noisetilt import rowblocks, training
from noisetilt.generators import make_generator
from noisetilt.hypernet import init_hypernet
from noisetilt.rewards import LinearReward, RednessReward
from noisetilt.training import (CheckpointError, TrainConfig, clip_global_norm,
                                load_checkpoint, save_checkpoint,
                                train_hypernoise)
from test_baselines import NanFromCall

A = np.array([[1.0, 0.2], [0.0, 0.8]])
C = np.array([0.7, -0.4])


def affine_setup(seed=0):
    g = make_generator({"variant": "affine", "latent_dim": 2,
                        "matrix": A.tolist(), "bias": [0.1, 0.2]}, seed=0)
    hn = init_hypernet(g, rank=1, alpha=1.0, seed=seed)
    return g, hn, LinearReward(C)


def test_converges_to_closed_form_shift():
    g, hn, r = affine_setup()
    cfg = TrainConfig(steps=300, batch_size=64, learning_rate=0.1, seed=1)
    hist = train_hypernoise(hn, g, r, cfg)
    target = A.T @ C
    x = np.random.default_rng(5).standard_normal((500, 2))
    got = hn.perturb(x).mean(axis=0)
    assert np.linalg.norm(got - target) / np.linalg.norm(target) < 0.02
    assert hist[-1][1] < hist[0][1]


def test_deterministic_given_seed():
    results = []
    for _ in range(2):
        g, hn, r = affine_setup(seed=3)
        cfg = TrainConfig(steps=50, batch_size=16, learning_rate=0.05, seed=4)
        train_hypernoise(hn, g, r, cfg)
        results.append({k: v.copy() for k, v in hn.params().items()})
    for k in results[0]:
        np.testing.assert_array_equal(results[0][k], results[1][k])


def test_adam_and_momentum_paths():
    for opt, mom in [("adam", 0.0), ("sgd", 0.9)]:
        g, hn, r = affine_setup()
        cfg = TrainConfig(steps=100, batch_size=32, learning_rate=0.05,
                          optimizer=opt, momentum=mom, seed=2)
        hist = train_hypernoise(hn, g, r, cfg)
        assert hist[-1][1] < hist[0][1]


# cause -> (reward, config, the abort's message up to its reason)
ABORTS = {
    # the loss raises at step 7, as the tape does on a non-finite value
    "injected": (lambda: LinearReward(C), TrainConfig(steps=50, batch_size=8, seed=0),
                 "training aborted: step 7: injected"),
    # the reward turns NaN at its 13th trace, step 12
    "nan-reward": (lambda: NanFromCall(C, 13), TrainConfig(steps=50, batch_size=8, seed=0),
                   "training aborted: step 12: non-finite reward at sample index 0"),
    # a large step without clipping blows up the perturbation energy
    "energy": (lambda: LinearReward(C),
               TrainConfig(steps=200, batch_size=8, learning_rate=3.0, clip_norm=0.0,
                           seed=0),
               "training aborted: step 3: perturbation energy"),
}


@pytest.mark.parametrize("cause", ABORTS)
def test_abort_rolls_back_and_raises(monkeypatch, cause):
    reward, cfg, message = ABORTS[cause]
    step = int(re.search(r"step (\d+)", message).group(1))
    g, hn, _ = affine_setup()
    real, seen = training.hypernoise_loss, []

    def loss(hn, *args, **kwargs):
        # the parameters each step's loss is computed at
        seen.append({k: v.copy() for k, v in hn.params().items()})
        if cause == "injected" and len(seen) == step + 1:
            raise FloatingPointError("injected")
        return real(hn, *args, **kwargs)
    monkeypatch.setattr(training, "hypernoise_loss", loss)
    with pytest.raises(FloatingPointError) as info:
        train_hypernoise(hn, g, reward(), cfg)
    assert str(info.value).startswith(message)
    assert len(seen) == step + 1
    for k, v in hn.params().items():
        assert np.array_equal(v, seen[step - 1][k]), k
        assert not np.array_equal(v, seen[step][k]), k


def test_eval_hook_called_at_log_points():
    g, hn, r = affine_setup()
    seen = []
    cfg = TrainConfig(steps=30, batch_size=8, learning_rate=0.05, seed=1,
                      log_every=10)
    train_hypernoise(hn, g, r, cfg, eval_hook=lambda s, net: seen.append(s))
    assert seen == [0, 10, 20, 29]


def test_config_validation():
    for bad in [dict(steps=0), dict(batch_size=0), dict(learning_rate=0.0),
                dict(optimizer="lbfgs"), dict(alpha=0.0), dict(log_every=0)]:
        with pytest.raises(ValueError):
            TrainConfig(**bad).validate()


def test_clip_global_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
    pre = clip_global_norm(grads, 1.0)
    assert pre == pytest.approx(5.0)
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    assert total == pytest.approx(1.0)
    grads = {"a": np.array([0.3])}
    assert clip_global_norm(grads, 1.0) == pytest.approx(0.3)
    np.testing.assert_allclose(grads["a"], [0.3])


def test_checkpoint_roundtrip(tmp_path):
    g, hn, r = affine_setup()
    cfg = TrainConfig(steps=40, batch_size=16, learning_rate=0.05, seed=6)
    train_hypernoise(hn, g, r, cfg)
    path = str(tmp_path / "ck.bin")
    save_checkpoint(path, hn, extra={"steps": 40})
    g2, hn2, _ = affine_setup()
    extra = load_checkpoint(path, hn2)
    assert extra == {"steps": 40}
    for k in hn.params():
        np.testing.assert_array_equal(hn.params()[k], hn2.params()[k])


def test_checkpoint_refuses_wrong_backbone(tmp_path):
    g, hn, _ = affine_setup()
    path = str(tmp_path / "ck.bin")
    save_checkpoint(path, hn)
    other = make_generator({"variant": "affine", "latent_dim": 2}, seed=9)
    hn_other = init_hypernet(other, rank=1, alpha=1.0, seed=0)
    with pytest.raises(CheckpointError, match="backbone"):
        load_checkpoint(path, hn_other)


def test_checkpoint_refuses_wrong_rank(tmp_path):
    g, hn, _ = affine_setup()
    path = str(tmp_path / "ck.bin")
    save_checkpoint(path, hn)
    hn2 = init_hypernet(g, rank=2, alpha=1.0, seed=0)
    with pytest.raises(CheckpointError, match="rank"):
        load_checkpoint(path, hn2)


def rearchived(path, **changes):
    """The bytes of checkpoint `path` archived again with `changes` (None drops a name)."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {**archive, **changes}
    buf = io.BytesIO()
    np.savez(buf, **{name: arr for name, arr in arrays.items() if arr is not None})
    return buf.getvalue()


def flip_data_byte(raw, path, hn):
    at = raw.index(hn.params()["head.down"].tobytes()) + 4
    return raw[:at] + bytes([raw[at] ^ 0x01]) + raw[at + 1:]


def npy_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


# name -> damaged(raw checkpoint bytes, its path, the network saved) -> bytes
CORRUPTIONS = {
    "empty": lambda raw, path, hn: b"",
    "truncated_4": lambda raw, path, hn: raw[:4],
    "truncated_20": lambda raw, path, hn: raw[:20],
    "truncated_half": lambda raw, path, hn: raw[:len(raw) // 2],
    "one_byte_short": lambda raw, path, hn: raw[:-1],
    "random_bytes": lambda raw, path, hn: np.random.default_rng(0).bytes(len(raw)),
    "plain_npy": lambda raw, path, hn: npy_bytes(np.zeros(3)),
    "no_header": lambda raw, path, hn: rearchived(path, **{training._HEADER: None}),
    "object_header": lambda raw, path, hn: rearchived(
        path, **{training._HEADER: np.array({"version": 2}, dtype=object)}),
    "header_not_json": lambda raw, path, hn: rearchived(
        path, **{training._HEADER: np.array("{version: 2")}),
    "flipped_data_byte": flip_data_byte,
    "wrong_shape": lambda raw, path, hn: rearchived(path, **{"head.bias": np.zeros(3)}),
    "wrong_dtype": lambda raw, path, hn: rearchived(
        path, **{"head.bias": np.zeros(2, dtype=np.float32)}),
    "missing_param": lambda raw, path, hn: rearchived(path, **{"head.bias": None}),
    "extra_param": lambda raw, path, hn: rearchived(path, nope=np.zeros(2)),
}


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_checkpoint_corruption_detected(tmp_path, case):
    g, hn, _ = affine_setup()
    rng = np.random.default_rng(3)
    for arr in hn.params().values():
        arr[...] = rng.standard_normal(arr.shape)
    path = str(tmp_path / "ck.bin")
    save_checkpoint(path, hn)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(CORRUPTIONS[case](Path(path).read_bytes(), path, hn))
    _, fresh, _ = affine_setup()
    before = {name: arr.copy() for name, arr in fresh.params().items()}
    with pytest.raises(CheckpointError, match=re.escape(str(bad))):
        load_checkpoint(str(bad), fresh)
    for name, arr in fresh.params().items():    # a refused file changes nothing
        np.testing.assert_array_equal(arr, before[name])


def test_wide_training_steps_reuse_the_arena(monkeypatch):
    # the train-wide shape: 128 rows through a 256 -> 3072 layer that two
    # workers split; step 3 takes exactly step 2's buffers, and allocates
    # less at its peak than one block's share of that layer's output
    monkeypatch.setattr(rowblocks, "WORKERS", 2)
    g = make_generator({"variant": "decoder", "latent_dim": 64, "hidden": [256],
                        "height": 32, "width": 32}, seed=1)
    hn = init_hypernet(g, rank=4, alpha=8.0, seed=0)
    held, peaks, splits = [], [], []
    enter, leave = ad.Arena.__enter__, ad.Arena.__exit__
    even_blocks = rowblocks.even_blocks

    def on_enter(arena):
        tracemalloc.reset_peak()
        peaks.append(tracemalloc.get_traced_memory()[0])
        return enter(arena)

    def on_exit(arena, *exc):
        held.append(list(arena._buffers))
        peaks[-1] = tracemalloc.get_traced_memory()[1] - peaks[-1]
        return leave(arena, *exc)

    monkeypatch.setattr(ad.Arena, "__enter__", on_enter)
    monkeypatch.setattr(ad.Arena, "__exit__", on_exit)
    monkeypatch.setattr(rowblocks, "even_blocks", lambda n: splits.append(
        len(even_blocks(n))) or even_blocks(n))
    tracemalloc.start()
    try:
        train_hypernoise(hn, g, RednessReward(0.01),
                         TrainConfig(steps=3, batch_size=128, learning_rate=0.05, seed=2))
    finally:
        tracemalloc.stop()
    assert len(held) == 3 and 2 in splits
    assert len(held[2]) == len(held[1]) and all(a is b for a, b in zip(held[2], held[1]))
    assert peaks[2] < 64 * 3072 * 8, peaks
