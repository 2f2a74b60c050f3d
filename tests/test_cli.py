"""End-to-end runs of the command-line interface."""
import json
import os
import re
import resource
import stat
import tempfile
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from noisetilt import autodiff as ad
from noisetilt import cli, generators, oracles, reporting, rowblocks, training
from noisetilt.cli import _mean_pairwise, main
from noisetilt.config import ConfigError, load_config
from noisetilt.generators import Generator
from noisetilt.hypernet import init_hypernet
from noisetilt.objectives import exact_noise_kl
from noisetilt.oracles import kl_knn
from noisetilt.reporting import read_csv
from noisetilt.training import load_checkpoint
from method_configs import as_method, readers
from test_baselines import NanFromCall

AFFINE_TRAIN = """
[run]
method = hypernoise
seed = 1

[generator]
variant = affine
latent_dim = 2
matrix = 1 0.3; 0 0.9
bias = 0.2 -0.1

[reward]
variant = linear
c = 0.6 -0.5

[train]
steps = 120
batch_size = 64
learning_rate = 0.1
log_every = 20

[evaluation]
heldout = 1000
fidelity_metric = closed_form_gaussian_kl
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_train_run_and_artifacts(tmp_path):
    cfg = write(tmp_path, "t.ini", AFFINE_TRAIN)
    out = str(tmp_path / "out")
    assert main(["train", "--config", cfg, "--out", out, "--quiet"]) == 0
    for name in ("report.csv", "history.csv", "checkpoint.bin",
                 "config-resolved.ini", "run.log"):
        assert os.path.exists(os.path.join(out, name)), name
    assert os.path.exists(os.path.join(out, "plots", "history.svg"))
    header, rows = read_csv(os.path.join(out, "report.csv"))
    assert header[:4] == ["method", "step", "generation_steps", "reward_mean"]
    assert rows[0][0] == "hypernoise"
    assert float(rows[0][3]) > float(rows[0][5])    # beats the base reward


def test_rerun_byte_identical(tmp_path):
    cfg = write(tmp_path, "t.ini", AFFINE_TRAIN)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["train", "--config", cfg, "--out", out1, "--quiet"]) == 0
    assert main(["train", "--config", cfg, "--out", out2, "--quiet"]) == 0
    for name in ("report.csv", "history.csv", "checkpoint.bin",
                 os.path.join("plots", "history.svg")):
        a = Path(out1, name).read_bytes()
        b = Path(out2, name).read_bytes()
        assert a == b, name


def test_seed_override_changes_report(tmp_path):
    cfg = write(tmp_path, "t.ini", AFFINE_TRAIN)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["train", "--config", cfg, "--out", out1, "--quiet"]) == 0
    assert main(["train", "--config", cfg, "--out", out2, "--quiet",
                 "--seed-override", "99"]) == 0
    a = Path(out1, "report.csv").read_text()
    b = Path(out2, "report.csv").read_text()
    assert a != b


def test_malformed_config_exit_2(tmp_path):
    cfg = write(tmp_path, "bad.ini",
                AFFINE_TRAIN.replace("variant = linear", "variant = moonbeam"))
    out = str(tmp_path / "out")
    assert main(["train", "--config", cfg, "--out", out, "--quiet"]) == 2
    assert not os.path.exists(os.path.join(out, "report.csv"))


def test_multi_step_on_nonsquare_generator_exit_2(tmp_path):
    text = (AFFINE_TRAIN.replace("variant = affine", "variant = mlp\noutput_dim = 3")
            .replace("matrix = 1 0.3; 0 0.9\nbias = 0.2 -0.1\n", "")
            .replace("c = 0.6 -0.5", "c = 0.6 -0.5 0.1"))
    assert main(["train", "--config", write(tmp_path, "one.ini", text),
                 "--out", str(tmp_path / "one"), "--quiet"]) == 0
    out = str(tmp_path / "two")
    assert main(["train", "--config", write(tmp_path, "two.ini", text + "multi_step = 1 2\n"),
                 "--out", out, "--quiet"]) == 2
    assert not os.path.exists(os.path.join(out, "report.csv"))


def test_condition_dim_is_an_unknown_key_exit_2(tmp_path, capsys):
    # no subcommand routes a condition, so the key is rejected at load time
    # instead of failing every run with exit 1
    text = AFFINE_TRAIN.replace("latent_dim = 2", "latent_dim = 2\ncondition_dim = 2")
    for argv in (["train"], ["baseline"], ["validate-theory"], ["diversity"]):
        out = str(tmp_path / argv[0])
        assert main(argv + ["--config", write(tmp_path, "c.ini", text),
                            "--out", out, "--quiet"]) == 2
        assert not os.path.exists(os.path.join(out, "report.csv"))
    assert "[generator] condition_dim: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("section,line", [
    ("train", "optimizer = adamw"),        # failed at run time, exit 1
    ("direct_ft", "optimizer = adamw"),    # silently ran SGD
    ("direct_ft", "eval_every = 0"),       # modulo by zero
    ("noise_opt", "steps = 0"),
    ("best_of_n", "counts = 0 4"),
    ("direct_ft", "steps = 0"),            # empty history, IndexError
    ("direct_ft", "batch_size = 0"),       # nan reward, empty history
    ("theory", "n = 999"),                 # "need at least 1e3 samples"
    ("theory", "knn_k = 0"),               # the k-d tree query crashed; now an
    ("theory", "knn_k = 10000"),           # unknown key: the suite's rank is KNN_K
    ("train", "learning_rate = 0"),        # each [train] case: FAILED, exit 1
    ("train", "alpha = 0"),
    ("train", "log_every = 0"),
    ("train", "batch_size = 0"),
    ("direct_ft", "learning_rate = -0.05"),  # ran, the drift growing 0.13 -> 233
    ("noise_opt", "learning_rate = 0"),      # reported the initial draw
    ("noise_opt", "learning_rate = -0.05"),
])
def test_run_time_failures_rejected_at_load_exit_2(tmp_path, capsys, section, line):
    # each section as a config of the method that reads it
    if section == "theory":
        text = f"[run]\nmethod = theory\n[theory]\n{line}\n"
    elif section == "train":
        key = line.split(" = ")[0]
        text = re.sub(rf"^{key} = .*$", line, AFFINE_TRAIN, flags=re.M)
        if line not in text:
            text = text.replace("[train]", f"[train]\n{line}")
    else:
        text = as_method(AFFINE_TRAIN, section, **{section: line})
    out = str(tmp_path / "out")
    command = {"theory": "validate-theory", "train": "train"}.get(section, "baseline")
    assert main([command, "--config", write(tmp_path, "c.ini", text),
                 "--out", out, "--quiet"]) == 2
    assert not os.path.exists(os.path.join(out, "report.csv"))
    key = line.split(" = ")[0]
    err = capsys.readouterr().err
    assert f"[{section}] {key}:" in err and "applies only when" not in err
    if key == "knn_k":
        assert "[theory] knn_k: unknown key" in err


KNN_TRAIN = AFFINE_TRAIN.replace("closed_form_gaussian_kl", "knn_kl")


@pytest.mark.parametrize("text,line", [
    # nan in reward_se and diversity_mean_pairwise, exit 0
    (AFFINE_TRAIN, "heldout = 1"),
    # too few points for the kNN fidelity, exit 1
    (KNN_TRAIN, "heldout = 5"),
    # nan in diversity_mean_pairwise, exit 0
    (AFFINE_TRAIN, "heldout = 1000\ndiversity_samples = 1"),
], ids=["heldout", "heldout-knn_kl", "diversity_samples"])
def test_unusable_evaluation_counts_exit_2(tmp_path, capsys, text, line):
    out = str(tmp_path / "out")
    cfg = write(tmp_path, "c.ini", text.replace("heldout = 1000", line))
    assert main(["train", "--config", cfg, "--out", out, "--quiet"]) == 2
    assert not os.path.exists(os.path.join(out, "report.csv"))
    key = line.splitlines()[-1].split(" = ")[0]
    assert f"[evaluation] {key}:" in capsys.readouterr().err


SMALL_TRAIN = """
[run]
method = hypernoise
seed = 1

[generator]
{generator}

[reward]
{reward}

[train]
{train}
batch_size = 4

[direct_ft]
{direct_ft}

[evaluation]
heldout = 8
fidelity_metric = closed_form_gaussian_kl
diversity_samples = 2
"""


def small_train(generator, reward, train="steps = 2", direct_ft=""):
    return SMALL_TRAIN.format(generator=generator, reward=reward, train=train,
                              direct_ft=direct_ft)


@pytest.mark.parametrize("generator,reward,key", [
    ("variant = mlp\nlatent_dim = 2\nhidden = 4\nactivation = relu",
     "variant = linear\nc = 1 -1", "[generator] activation"),
    ("variant = mlp\nlatent_dim = 2\nhidden = 0",
     "variant = linear\nc = 1 -1", "[generator] hidden"),
    ("variant = decoder\nlatent_dim = 2\nheight = 0",
     "variant = redness", "[generator] height"),
    ("variant = affine\nlatent_dim = 3\nmatrix = 1 0; 0 1",
     "variant = linear\nc = 1 -1 0.5", "[generator] matrix"),
    ("variant = affine\nlatent_dim = 3\nbias = 1 2",
     "variant = linear\nc = 1 -1 0.5", "[generator] bias"),
    ("variant = affine\nlatent_dim = 2\noutput_dim = -2",
     "variant = linear\nc = 1 -1", "[generator] output_dim"),
    ("variant = affine\nlatent_dim = 3",
     "variant = linear\nc = 1 -1", "[reward] c"),
    ("variant = affine\nlatent_dim = 2",
     "variant = quadratic\nq = 1 2; 0 1", "[reward] q"),
    ("variant = affine\nlatent_dim = 2\nstep_mix = 7.5",   # its 4-step fidelity read -8.75
     "variant = linear\nc = 1 -1", "[generator] step_mix"),
], ids=["activation", "hidden", "height", "matrix", "bias", "output_dim",
        "linear_c", "nonsymmetric_q", "step_mix"])
def test_unbuildable_configs_rejected_at_load_exit_2(tmp_path, capsys, generator,
                                                     reward, key):
    out = str(tmp_path / "out")
    cfg = write(tmp_path, "c.ini", small_train(generator, reward))
    assert main(["train", "--config", cfg, "--out", out, "--quiet"]) == 2
    assert not os.path.exists(out)
    assert f"config error: {key}:" in capsys.readouterr().err


# a buildable generator and reward under each variant or optimizer
OWNERS = {
    "affine": ("variant = affine\nlatent_dim = 2", "variant = linear\nc = 1 -1"),
    "mlp": ("variant = mlp\nlatent_dim = 2", "variant = linear\nc = 1 -1"),
    "decoder": ("variant = decoder\nlatent_dim = 2\nheight = 1\nwidth = 1",
                "variant = redness"),
    "quadratic": ("variant = affine\nlatent_dim = 2", "variant = quadratic\nq = 1 0; 0 1"),
}
OWNERS.update(linear=OWNERS["affine"], redness=OWNERS["decoder"], adam=OWNERS["affine"])
# the key whose values scope each owner's keys
OWNER_KEYS = {"affine": "[generator] variant", "mlp": "[generator] variant",
              "decoder": "[generator] variant", "quadratic": "[reward] variant",
              "linear": "[reward] variant", "redness": "[reward] variant",
              "adam": "[train] optimizer"}


@pytest.mark.parametrize("owner,section,line", [
    ("decoder", "generator", "output_dim = 3"),
    ("affine", "generator", "hidden = 5"),
    ("affine", "generator", "activation = relu"),
    ("affine", "generator", "height = 99"),
    ("mlp", "generator", "height = 2"),
    ("affine", "generator", "width = 2"),
    ("mlp", "generator", "width = 2"),
    ("mlp", "generator", "matrix = 1 0; 0 1"),
    ("decoder", "generator", "matrix = 1 0; 0 1; 1 1"),
    ("mlp", "generator", "bias = 0 0"),
    ("decoder", "generator", "bias = 0 0 0"),
    ("quadratic", "reward", "c = 1 -1"),
    ("redness", "reward", "c = 1 -1 1"),
    ("linear", "reward", "q = 1 0; 0 1"),
    ("redness", "reward", "q = 1"),
    ("linear", "reward", "sign = 1"),
    ("redness", "reward", "sign = 1"),
    ("linear", "reward", "scale = 0.5"),
    ("quadratic", "reward", "scale = 0.5"),
    ("adam", "train", "momentum = 0.9"),
    ("affine", "direct_ft", "rank = 7"),
    ("affine", "direct_ft", "eval_samples = 1"),
])
def test_keys_outside_their_scope_exit_2(tmp_path, capsys, owner, section, line):
    # each loaded, ran and was echoed, but did nothing
    generator, reward = OWNERS[owner]
    parts = {"generator": generator, "reward": reward, "direct_ft": "",
             "train": "steps = 2\noptimizer = " + ("adam" if owner == "adam" else "sgd")}
    parts[section] += "\n" + line
    out = str(tmp_path / "out")
    method = "direct_ft" if section == "direct_ft" else "hypernoise"
    cfg = write(tmp_path, "c.ini", as_method(small_train(**parts), method))
    command = "baseline" if method == "direct_ft" else "train"
    assert main([command, "--config", cfg, "--out", out, "--quiet"]) == 2
    assert not os.path.exists(out)
    key = line.split(" = ")[0]
    assert (f"config error: [{section}] {key}: applies only when {OWNER_KEYS[owner]} is"
            in capsys.readouterr().err)


@pytest.mark.parametrize("section,line", [
    ("generator", "variant = mlp"), ("generator", "latent_dim = 2"), ("reward", "scale = 1"),
    ("train", "steps = 7"), ("direct_ft", "rank = 3"), ("noise_opt", "steps = 5"),
    ("best_of_n", "counts = 4"), ("evaluation", "heldout = 50"),
])
def test_theory_config_keys_outside_run_and_theory_exit_2(tmp_path, capsys, section, line):
    # the suite builds its own fixtures: each key loaded, was echoed into
    # config-resolved.ini and did nothing
    text = f"[run]\nmethod = theory\n[theory]\nn = 2000\n[{section}]\n{line}\n"
    out = str(tmp_path / "out")
    assert main(["validate-theory", "--config", write(tmp_path, "c.ini", text),
                 "--out", out, "--quiet"]) == 2
    assert not os.path.exists(out)
    key = line.split(" = ")[0]
    assert (f"config error: [{section}] {key}: applies only when [run] method is "
            f"{' or '.join(readers(section, key))}") in capsys.readouterr().err


@pytest.mark.parametrize("method", ["hypernoise", "direct_ft", "noise_opt", "best_of_n"])
def test_theory_section_outside_a_theory_config_exit_2(tmp_path, capsys, method):
    text = as_method(AFFINE_TRAIN, method)
    out = str(tmp_path / "out")
    cfg = write(tmp_path, "c.ini", text + "\n[theory]\nn = 5000\n")
    command = "train" if method == "hypernoise" else "baseline"
    assert main([command, "--config", cfg, "--out", out, "--quiet"]) == 2
    assert not os.path.exists(out)
    assert ("config error: [theory] n: applies only when [run] method is theory"
            in capsys.readouterr().err)


# a key of each section only some methods read, with a value it could take
UNREAD = [("train", "steps = 7"), ("direct_ft", "steps = 3"), ("noise_opt", "steps = 5"),
          ("best_of_n", "counts = 4"), ("evaluation", "fidelity_metric = knn_kl"),
          ("evaluation", "multi_step = 1"), ("evaluation", "diversity_seeds = 20"),
          ("evaluation", "diversity_samples = 64"), ("generator", "step_mix = 0.5")]


@pytest.mark.parametrize("method,section,line", [
    (method, section, line) for method in ("hypernoise", "direct_ft", "noise_opt", "best_of_n")
    for section, line in UNREAD if method not in readers(section, line.split(" = ")[0])])
def test_keys_another_method_reads_exit_2(tmp_path, capsys, method, section, line):
    # each loaded, was echoed into config-resolved.ini and did nothing (a
    # noise_opt config's [train] generation_steps could even reject it)
    text = as_method(AFFINE_TRAIN, method)
    text = (text.replace(f"[{section}]\n", f"[{section}]\n{line}\n") if f"[{section}]" in text
            else text + f"\n[{section}]\n{line}\n")
    out = str(tmp_path / "out")
    command = "train" if method == "hypernoise" else "baseline"
    assert main([command, "--config", write(tmp_path, "c.ini", text),
                 "--out", out, "--quiet"]) == 2
    assert not os.path.exists(out)
    key = line.split(" = ")[0]
    assert (f"config error: [{section}] {key}: applies only when [run] method is "
            f"{' or '.join(readers(section, key))}\n") in capsys.readouterr().err


@pytest.mark.parametrize("method", ["hypernoise", "direct_ft"])
def test_tiny_generator_runs_its_own_adapter_rank(tmp_path, method):
    # a 1 -> 1 -> 1 mlp takes rank 1; the default rank 2 of the adapter
    # stack the other method builds rejected each config at load
    section = "train" if method == "hypernoise" else "direct_ft"
    text = as_method(small_train("variant = mlp\nlatent_dim = 1\noutput_dim = 1\nhidden = 1",
                                 "variant = linear\nc = 1", train="steps = 2\nrank = 1",
                                 direct_ft="steps = 2\nbatch_size = 4\neval_every = 1\n"
                                           "eval_samples = 8\nrank = 1"), method)
    cfg = load_config(text, is_text=True)
    assert cfg[section]["rank"] == 1
    other = "direct_ft" if section == "train" else "train"
    assert cfg[other]["rank"] == 2
    out = str(tmp_path / "out")
    command = "train" if method == "hypernoise" else "baseline"
    assert main([command, "--config", write(tmp_path, "c.ini", text),
                 "--out", out, "--quiet"]) == 0
    assert os.path.exists(os.path.join(out, "report.csv"))


def test_empty_multi_step_rejected_at_load_exit_2(tmp_path, capsys):
    # exited 0 and wrote a report.csv of only its header
    out = str(tmp_path / "out")
    cfg = write(tmp_path, "c.ini", AFFINE_TRAIN + "multi_step =\n")
    assert main(["train", "--config", cfg, "--out", out, "--quiet"]) == 2
    assert not os.path.exists(out)
    assert "[evaluation] multi_step: needs at least one entry" in capsys.readouterr().err


def test_negative_train_steps_rejected_at_load(tmp_path, capsys):
    # diversity treated a negative step count as none, and ran zero steps;
    # with a step to run, every other [train] rule still applies
    generator, reward = "variant = affine\nlatent_dim = 2", "variant = linear\nc = 1 -1"
    for train in ("steps = -3", "steps = 0", "steps = 1\noptimizer = adamw"):
        out = str(tmp_path / "out")
        cfg = write(tmp_path, "c.ini", small_train(generator, reward, train))
        assert main(["diversity", "--config", cfg, "--out", out, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("[train] steps: must be >= 1") == 2
    assert "[train] optimizer:" in err


@pytest.mark.parametrize("momentum", ["-0.5", "1.0", "1.5"])
def test_momentum_outside_unit_interval_rejected_at_load(tmp_path, capsys, momentum):
    # a negative momentum ran as plain SGD, bytes equal to momentum 0; at 1.5
    # the velocity grew until the energy guard aborted the run with exit 1
    text = AFFINE_TRAIN.replace("[train]", f"[train]\nmomentum = {momentum}")
    out = str(tmp_path / "out")
    assert main(["train", "--config", write(tmp_path, "c.ini", text),
                 "--out", out, "--quiet"]) == 2
    assert not os.path.exists(out)
    assert f"[train] momentum: must be in [0, 1), got {momentum}" in capsys.readouterr().err


def test_momentum_below_one_runs(tmp_path):
    text = AFFINE_TRAIN.replace("[train]", "[train]\nmomentum = 0.9")
    out = str(tmp_path / "out")
    assert main(["train", "--config", write(tmp_path, "c.ini", text),
                 "--out", out, "--quiet"]) == 0
    assert os.path.exists(os.path.join(out, "report.csv"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["clip_norm", "learning_rate", "adapter_alpha"])
def test_non_finite_train_floats_rejected_at_load_exit_2(tmp_path, capsys, key, value):
    # clip_norm = nan silently turned clipping off (exit 0); learning_rate =
    # inf and adapter_alpha = nan failed the run with exit 1
    text = re.sub(rf"^{key} = .*\n", "", AFFINE_TRAIN, flags=re.M)
    text = text.replace("[train]", f"[train]\n{key} = {value}")
    out = str(tmp_path / "out")
    assert main(["train", "--config", write(tmp_path, "c.ini", text),
                 "--out", out, "--quiet"]) == 2
    assert not os.path.exists(out)
    assert f"[train] {key}: {value} is not a finite number" in capsys.readouterr().err


def _ints(values):
    return " ".join(str(v) for v in values)


def _rows(matrix):
    return "; ".join(_ints(row) for row in matrix)


@st.composite
def small_configs(draw):
    """(INI text of a small `train` config, clean, stray).
    At most two knobs draw from wide ranges, the rest from the ranges their
    generator, reward and adapters can be built from; a clean config has
    no wide knob and sets only keys that apply to its variants and
    optimizer (the "scope" knob may set others).  A stray config sets a key
    of a section only other methods read (the scope knob again)."""
    wide = draw(st.sets(st.sampled_from(
        ["output_dim", "sizes", "activation", "matrix", "bias", "reward", "q",
         "steps", "optimizer", "rank", "float", "scope"]), max_size=2))

    def pick(knob, buildable, wider):
        return draw(wider if knob in wide else buildable)

    def keep(applies):
        """Whether to set a key: always where it applies, and under the
        scope knob sometimes where it does not."""
        return applies or ("scope" in wide and draw(st.booleans()))

    sizes = st.integers(1, 3), st.integers(0, 3)
    variant = draw(st.sampled_from(["affine", "mlp", "decoder"]))
    latent = draw(st.integers(1, 4))
    output_dim = pick("output_dim", st.integers(0, 4), st.integers(-1, 4))
    height, width = pick("sizes", *sizes), pick("sizes", *sizes)
    activations = sorted(ad.ACTIVATIONS)
    activation = pick("activation", st.sampled_from(activations),
                      st.sampled_from(activations + ["relu"]))
    keys = {"output_dim": output_dim, "hidden": pick("sizes", *sizes),
            "height": height, "width": width, "activation": activation}
    out = height * width * 3 if variant == "decoder" else max(output_dim, 0) or latent
    entries = st.integers(-2, 2)

    def matrix(rows, cols):
        return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    if draw(st.booleans()):
        shape = pick("matrix", st.just((out, latent)),
                     st.tuples(st.integers(1, 4), st.integers(1, 4)))
        keys["matrix"] = _rows(matrix(*shape))
    if draw(st.booleans()):
        n = pick("bias", st.just(out), st.integers(1, 4))
        keys["bias"] = _ints(matrix(1, n)[0])
    scoped = {"affine": ("output_dim", "matrix", "bias"),
              "mlp": ("output_dim", "hidden", "activation"),
              "decoder": ("hidden", "activation", "height", "width")}[variant]
    generator = [f"variant = {variant}", f"latent_dim = {latent}"] + [
        f"{key} = {value}" for key, value in keys.items() if keep(key in scoped)]
    rewards = ["linear", "quadratic", "redness"]
    if "reward" not in wide and out % 3:
        rewards.remove("redness")       # it reads an image: three channels
    if out > 4:
        rewards.remove("quadratic")     # a decoder's q would be up to 27 x 27
    reward = draw(st.sampled_from(rewards))
    n = pick("reward", st.just(out), st.integers(0, 4))
    payload = {"c": "1", "q": "1", "sign": "1", "scale": "0.5"}
    if reward == "linear":
        payload["c"] = _ints(matrix(1, n)[0])
    elif reward == "quadratic":
        q = np.array(matrix(n, n), dtype=int).reshape(n, n)
        if pick("q", st.just(True), st.booleans()):
            q = q + q.T
        payload["q"] = _rows(q.tolist())
    scoped = {"linear": ("c",), "quadratic": ("q", "sign"), "redness": ("scale",)}[reward]
    payload = [f"{key} = {value}" for key, value in payload.items() if keep(key in scoped)]
    steps = pick("steps", st.integers(1, 2), st.integers(-1, 2))
    optimizer = pick("optimizer", st.sampled_from(["sgd", "adam"]),
                     st.sampled_from(["sgd", "adam", "adamw"]))
    ranks = "rank", st.just(1), st.integers(0, 5)
    train = [f"steps = {steps}", f"optimizer = {optimizer}", f"rank = {pick(*ranks)}"]
    if keep(optimizer == "sgd"):
        train.append("momentum = 0.5")
    float_key = draw(st.sampled_from(["clip_norm", "learning_rate", "adapter_alpha"]))
    train.append(f"{float_key} = " + pick("float", st.just("0.5"),
                                          st.sampled_from(["0.5", "nan", "inf", "-inf"])))
    direct_ft = f"rank = {pick(*ranks)}" if keep(False) else ""
    stray = [f"\n[{section}]\n{line}\n" for section, line in (
        ("noise_opt", "steps = 2"), ("best_of_n", "counts = 4"), ("theory", "n = 2000"))
        if keep(False)]
    text = small_train("\n".join(generator), "\n".join([f"variant = {reward}"] + payload),
                       "\n".join(train), direct_ft) + "".join(stray)
    return text, not wide, bool(direct_ft or stray)


@settings(max_examples=40, deadline=None)
@given(small_configs())
def test_every_accepted_config_runs(case):
    text, clean, stray = case
    try:
        load_config(text, is_text=True)
        accepted = True
    except ConfigError:
        accepted = False
    assert accepted or not clean, text
    assert not (accepted and stray), text
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "c.ini")
        with open(cfg, "w") as fh:
            fh.write(text)
        code = main(["train", "--config", cfg, "--out", os.path.join(tmp, "out"),
                     "--quiet"])
    assert code == (0 if accepted else 2), text


DECODER_TRAIN = """
[run]
method = hypernoise
seed = 3

[generator]
variant = decoder
latent_dim = 4
height = 3
width = 3
hidden = 8

[reward]
variant = redness
scale = 1.0

[train]
steps = 30
batch_size = 16
learning_rate = 0.1
generation_steps = {steps}

[evaluation]
heldout = 200
fidelity_metric = closed_form_gaussian_kl
"""


def test_train_generation_steps_reaches_training(tmp_path):
    reports = []
    for steps in (1, 2):
        cfg = write(tmp_path, f"d{steps}.ini", DECODER_TRAIN.format(steps=steps))
        out = str(tmp_path / f"out{steps}")
        assert main(["train", "--config", cfg, "--out", out, "--quiet"]) == 0
        reports.append(Path(out, "report.csv").read_bytes())
    assert reports[0] != reports[1]


def test_multi_step_rows_measure_their_own_fidelity(tmp_path):
    text = DECODER_TRAIN.format(steps=1).replace("closed_form_gaussian_kl", "knn_kl")
    cfg_path = write(tmp_path, "m.ini", text + "multi_step = 1 2\n")
    out = str(tmp_path / "out")
    assert main(["train", "--config", cfg_path, "--out", out, "--quiet"]) == 0
    _, rows = read_csv(os.path.join(out, "report.csv"))
    assert [r[2] for r in rows] == ["1", "2"]
    cfg = load_config(cfg_path)
    g, _ = cli._build(cfg)
    hn = init_hypernet(g, rank=cfg["train"]["rank"], alpha=cfg["train"]["adapter_alpha"],
                       seed=cfg.seed)
    load_checkpoint(os.path.join(out, "checkpoint.bin"), hn)
    x = cli._heldout_noise(cfg, g)
    ref = np.random.default_rng(cfg.seed + 910_000).standard_normal(
        (cfg["evaluation"]["heldout"], g.latent_dim))
    # at the latent's dimension, as the CLI estimates them
    fidelity = [kl_knn(g.generate(x + hn.perturb(x), steps=s), g.generate(ref, steps=s),
                       d=min(g.latent_dim, g.output_dim)) for s in (1, 2)]
    assert [float(r[6]) for r in rows] == fidelity
    assert fidelity[1] != fidelity[0]


def test_fidelity_estimate_obeys_the_dpi_on_the_readme_network():
    # the kNN output KL at the latent's dimension is at most the exact noise
    # KL; at the ambient 48 the step-1 fidelity read 0.955 against 0.0845
    cfg = load_config(str(BENCH_CONFIGS / "paper_small.ini"))
    g, r = cli._build(cfg)
    hn = init_hypernet(g, rank=cfg["train"]["rank"], alpha=cfg["train"]["adapter_alpha"],
                       seed=cfg.seed)
    training.train_hypernoise(hn, g, r, cfg.train_config())
    exact = exact_noise_kl(hn, cli._heldout_noise(cfg, g)).exact_kl
    estimates = []
    for seed in range(1000, 1008):
        rng = np.random.default_rng(seed)
        x_mod, x_base = rng.standard_normal((2, 2000, g.latent_dim))
        estimates.append(kl_knn(g.generate(x_mod + hn.perturb(x_mod)), g.generate(x_base),
                                d=min(g.latent_dim, g.output_dim)))
    se = np.std(estimates, ddof=1) / np.sqrt(len(estimates))
    assert np.mean(estimates) <= exact + 2 * se


@pytest.mark.parametrize("section", ["train", "direct_ft"])
def test_adapter_rank_checked_at_load_time(tmp_path, section, capsys):
    # the bound is 4: the decoder's 8x4 first layer and, for the
    # hypernetwork, its 4x8 head
    text = DECODER_TRAIN.format(steps=1)
    if section == "direct_ft":
        text = as_method(text, "direct_ft", direct_ft="steps = 5\nbatch_size = 8\n"
                                                      "eval_every = 5\neval_samples = 50")
    argv = ["train"] if section == "train" else ["baseline"]
    for rank, code in ((0, 2), (5, 2), (4, 0)):
        cfg = write(tmp_path, f"r{rank}.ini",
                    text.replace(f"[{section}]", f"[{section}]\nrank = {rank}"))
        out = str(tmp_path / f"out{rank}")
        assert main(argv + ["--config", cfg, "--out", out, "--quiet"]) == code, rank
        assert os.path.exists(os.path.join(out, "report.csv")) == (code == 0)
    err = capsys.readouterr().err
    assert f"[{section}] rank: must be >= 1" in err
    assert f"[{section}] rank: 5 exceeds 4" in err


def test_drift_eval_samples_checked_at_load_time(tmp_path, capsys):
    # too few points for the kNN drift of a decoder, exit 1 at run time;
    # an affine generator measures its drift in closed form
    for samples, code in ((5, 2), (6, 0)):
        cfg = write(tmp_path, f"e{samples}.ini", as_method(
            DECODER_TRAIN.format(steps=1), "direct_ft",
            direct_ft=f"steps = 2\nbatch_size = 4\neval_samples = {samples}"))
        out = str(tmp_path / f"out{samples}")
        assert main(["baseline", "--config", cfg, "--out", out, "--quiet"]) == code
    assert "[direct_ft] eval_samples:" in capsys.readouterr().err


def test_run_log_names_knn_workers(tmp_path):
    cfg = write(tmp_path, "t.ini", AFFINE_TRAIN)
    out = str(tmp_path / "out")
    assert main(["train", "--config", cfg, "--out", out, "--quiet"]) == 0
    lines = Path(out, "run.log").read_text().splitlines()
    assert lines.count(f"workers {rowblocks.WORKERS}") == 1


def test_drift_evaluations_logged_as_evaluate(tmp_path, monkeypatch):
    pause = 0.1
    real = cli.measure_drift

    def slow_drift(*args):
        time.sleep(pause)
        return real(*args)

    monkeypatch.setattr(cli, "measure_drift", slow_drift)
    cfg_h, cfg_d = tradeoff_configs(tmp_path)
    runs = {"tradeoff": ["tradeoff", cfg_h, cfg_d],
            "baseline": ["baseline", "--config", cfg_d]}
    for name, argv in runs.items():
        out = str(tmp_path / name)
        assert main(argv + ["--out", out, "--quiet"]) == 0
        lines = Path(out, "run.log").read_text().splitlines()
        walls = {line.split()[1]: float(line.split()[2])
                 for line in lines if line.startswith("phase ")}
        # 7 drift evaluations: steps 0, 20, ..., 100 and the last, 119
        assert walls["evaluate"] >= 7 * pause, name


KNN_DECODER = (DECODER_TRAIN.format(steps=1).replace("closed_form_gaussian_kl", "knn_kl")
               + "multi_step = 1 2 4\n")


def knn_runs(tmp_path):
    """argv of each subcommand whose kNN estimates run on the evaluator:
    train's 3 multi-step rows, tradeoff's 4 + 4 logged steps and the
    direct_ft baseline's 4 drift evaluations."""
    hyper = write(tmp_path, "h.ini", KNN_DECODER)
    direct = write(tmp_path, "d.ini", as_method(
        KNN_DECODER, "direct_ft",
        direct_ft="steps = 30\nbatch_size = 8\neval_every = 10\neval_samples = 200"))
    return {"train": ["train", "--config", hyper], "tradeoff": ["tradeoff", hyper, direct],
            "baseline": ["baseline", "--config", direct]}


class InlineExecutor:
    """Runs each submitted call at once, on the submitting thread."""

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def artifacts(out):
    """Relative path -> bytes of every file a run wrote but run.log."""
    found = {}
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            if name != "run.log":
                found[os.path.relpath(path, out)] = Path(path).read_bytes()
    return found


def test_background_estimates_write_the_same_bytes_as_inline(tmp_path, monkeypatch):
    runs = knn_runs(tmp_path)
    written = {}
    for mode in ("background", "inline"):
        if mode == "inline":
            monkeypatch.setattr(rowblocks, "pool", lambda workers: InlineExecutor())
        for name, argv in runs.items():
            out = str(tmp_path / mode / name)
            assert main(argv + ["--out", out, "--quiet"]) == 0, (mode, name)
            written[mode, name] = artifacts(out)
            estimates = {"train": 3, "tradeoff": 8, "baseline": 4}[name]
            assert f"evaluator {estimates} estimates, busy " in Path(
                out, "run.log").read_text()
    for name in runs:
        assert "config-resolved.ini" in written["background", name]
        assert written["background", name] == written["inline", name], name


def counting_kl_knn(monkeypatch, fail_on=None, pause=0.005):
    """Rebind oracles.kl_knn to a wrapper that counts its calls and the most
    running at once, and raises on call number `fail_on`."""
    state = {"calls": 0, "running": 0, "most": 0}
    lock = threading.Lock()
    real = oracles.kl_knn

    def wrapper(*args, **kwargs):
        with lock:
            state["calls"] += 1
            state["running"] += 1
            state["most"] = max(state["most"], state["running"])
            call = state["calls"]
        try:
            time.sleep(pause)
            if call == fail_on:
                raise ValueError(f"estimate {call} failed")
            return real(*args, **kwargs)
        finally:
            with lock:
                state["running"] -= 1

    monkeypatch.setattr(oracles, "kl_knn", wrapper)
    return state


def test_one_estimate_in_flight_and_none_after_main(tmp_path, monkeypatch):
    # a submit starts its estimate before it waits for the one before, so
    # two run at once on two threads; one is left in flight between
    # submissions, and none once main returns
    monkeypatch.setattr(rowblocks, "WORKERS", max(2, rowblocks.WORKERS))
    state = counting_kl_knn(monkeypatch, pause=0.05)
    for name, argv in knn_runs(tmp_path).items():
        assert main(argv + ["--out", str(tmp_path / name), "--quiet"]) == 0
        assert state["running"] == 0, name
    assert state["calls"] == 3 + 8 + 4 and state["most"] == 2


def test_one_thread_runs_one_estimate_at_a_time(tmp_path, monkeypatch):
    # on one worker the evaluator has one thread and waits for each
    # estimate before it starts the next, so a failed estimate is the last
    monkeypatch.setattr(rowblocks, "WORKERS", 1)
    state = counting_kl_knn(monkeypatch)
    runs = knn_runs(tmp_path)
    for name, argv in runs.items():
        out = tmp_path / "ok" / name
        assert main(argv + ["--out", str(out), "--quiet"]) == 0
        assert state["running"] == 0, name
        assert " on 1 threads\n" in (out / "run.log").read_text()
    assert state["calls"] == 3 + 8 + 4 and state["most"] == 1
    check_failed_estimate_reported(tmp_path / "failed", runs,
                                   counting_kl_knn(monkeypatch, fail_on=3), started_past=0)


def abort_training_at(monkeypatch, step):
    """Make train_hypernoise's loss raise FloatingPointError at `step`, which
    aborts the training."""
    real, calls = training.hypernoise_loss, []

    def loss(*args, **kwargs):
        calls.append(1)
        if len(calls) == step + 1:
            raise FloatingPointError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "hypernoise_loss", loss)


@pytest.mark.parametrize("abort", [False, True], ids=["runs-on", "training-aborts"])
def test_failed_estimate_reported_as_when_made_inline(tmp_path, monkeypatch, abort):
    # inline, the third estimate raised where it was made; the run stops at
    # it, and an abort of the training after that step does not hide it
    runs = knn_runs(tmp_path)
    if abort:
        # tradeoff's third estimate is step 20's; the fourth would be 29's
        runs = {"tradeoff": runs["tradeoff"]}
        abort_training_at(monkeypatch, 25)
    monkeypatch.setattr(rowblocks, "WORKERS", max(2, rowblocks.WORKERS))
    state = counting_kl_knn(monkeypatch, fail_on=3)
    check_failed_estimate_reported(tmp_path, runs, state, started_past=1)


def check_failed_estimate_reported(tmp_path, runs, state, started_past):
    """Each run exits 1 and reports the error of its third estimate, after
    which at most `started_past` more estimates started."""
    for name, argv in runs.items():
        state["calls"] = 0
        out = str(tmp_path / name)
        assert main(argv + ["--out", out, "--quiet"]) == 1, name
        assert Path(out, "FAILED").read_text() == "ValueError: estimate 3 failed\n"
        assert 3 <= state["calls"] <= 3 + started_past and state["running"] == 0, name
        assert "FAILED: ValueError: estimate 3 failed" in Path(out, "run.log").read_text()


def test_training_abort_waits_for_the_estimate_in_flight(tmp_path, monkeypatch):
    abort_training_at(monkeypatch, 25)
    state = counting_kl_knn(monkeypatch, pause=0.2)
    out = str(tmp_path / "out")
    assert main(knn_runs(tmp_path)["tradeoff"] + ["--out", out, "--quiet"]) == 1
    assert state["running"] == 0 and state["calls"] == 3
    assert Path(out, "FAILED").read_text() == (
        "FloatingPointError: training aborted: step 25: injected\n")


def test_closed_form_train_starts_no_evaluator(tmp_path, monkeypatch):
    pools = []
    monkeypatch.setattr(rowblocks, "pool", pools.append)
    out = str(tmp_path / "out")
    cfg = write(tmp_path, "d.ini", DECODER_TRAIN.format(steps=1))
    assert main(["train", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert pools == []
    assert "evaluator" not in Path(out, "run.log").read_text()


def test_run_log_phase_lines(tmp_path):
    cfg_h, cfg_d = tradeoff_configs(tmp_path)
    cfg_n = write(tmp_path, "n.ini", as_method(AFFINE_TRAIN, "noise_opt", noise_opt="steps = 20"))
    cfg_b = write(tmp_path, "b.ini", as_method(AFFINE_TRAIN, "best_of_n",
                                               best_of_n="counts = 4 64"))
    every = ["build", "evaluate", "train", "write"]
    # name -> (argv, the phases its run.log reports); best_of_n trains nothing
    runs = {"train": (["train", "--config", cfg_h], every),
            "tradeoff": (["tradeoff", cfg_h, cfg_d], every),
            "diversity": (["diversity", "--config", cfg_h], every),
            "direct_ft": (["baseline", "--config", cfg_d], every),
            "noise_opt": (["baseline", "--config", cfg_n], every),
            "best_of_n": (["baseline", "--config", cfg_b], ["build", "evaluate", "write"])}
    for name, (argv, expected) in runs.items():
        out = str(tmp_path / name)
        assert main(argv + ["--out", out, "--quiet"]) == 0
        lines = Path(out, "run.log").read_text().splitlines()
        phases = phase_peaks(lines)
        assert sorted(phases) == expected, name
        assert sum(phases.values()) <= float(lines[-1].split()[1]), name


def phase_peaks(lines):
    """{phase: how far the peak memory rose inside it, in MB} of run.log's
    phase lines, in order, checking each line's form."""
    rises = {}
    for line in lines:
        if line.startswith("phase "):
            _, name, wall, unit, faults, *rest, rise = line.split()
            assert float(wall) >= 0 and unit == "s," and int(faults) >= 0
            assert rest == ["minor", "page", "faults,", "peak_rss_rise_mb"]
            rises[name] = float(rise)
            assert rises[name] >= 0
    return rises


def test_phase_reports_only_its_own_rise(tmp_path, monkeypatch):
    # ru_maxrss (KiB) as each getrusage call reads it: "write" rises by 1024
    # and 512 KiB in its two stints, "evaluate" by 4096 between them, and
    # nothing is charged outside a phase
    readings = iter([10240, 11264, 12288, 16384, 16384, 16896, 20480])

    def usage(who):
        return resource.struct_rusage((0.0, 0.0, next(readings)) + (0,) * 13)
    monkeypatch.setattr(cli.resource, "getrusage", usage)
    ctx = cli.RunContext(str(tmp_path), quiet=True)
    with ctx.phase("write"):
        pass
    with ctx.phase("evaluate"):
        pass
    with ctx.phase("write"):
        pass
    ctx.finish()
    lines = Path(tmp_path, "run.log").read_text().splitlines()
    assert phase_peaks(lines) == {"write": 1.5, "evaluate": 4.0}
    assert lines[-1] == "peak_rss_mb 20.0"


def test_run_log_ends_with_peak_rss(tmp_path):
    cfg_h, cfg_d = tradeoff_configs(tmp_path)
    bad = write(tmp_path, "bad.ini", AFFINE_TRAIN.replace(
        "learning_rate = 0.1", "learning_rate = 80.0\nclip_norm = 0"))
    runs = {"train": (["train", "--config", cfg_h], 0),
            "baseline": (["baseline", "--config", cfg_d], 0),
            "failed": (["train", "--config", bad], 1)}
    for name, (argv, code) in runs.items():
        out = str(tmp_path / name)
        assert main(argv + ["--out", out, "--quiet"]) == code, name
        *_, wall, peak = Path(out, "run.log").read_text().splitlines()
        assert wall.startswith("wall_time_s "), name
        key, value = peak.split()
        # the peak so far: positive, and no higher than the peak after the run
        assert key == "peak_rss_mb", name
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert 0 < float(value) <= round(after, 1), name


# a 16 x 16 x 3 = 768-output decoder: its row blocks hold 4096 * 48 / 768 =
# 256 rows, so the 700 held-out rows take three blocks.  Its latent 64 and
# hidden 256 make a product of four rows or fewer take another BLAS path, so
# diversity rows generated on their own would differ in the last bits
WIDE_DECODER = """
[run]
method = hypernoise
seed = 5

[generator]
variant = decoder
latent_dim = 64
height = 16
width = 16
hidden = 256

[reward]
variant = redness
scale = 1.0

[train]
steps = 20
batch_size = 16
learning_rate = 0.1
log_every = 10

[evaluation]
heldout = 700
fidelity_metric = closed_form_gaussian_kl
"""
WIDE_BLOCK = 256 * 768


def one_shot_train_columns(cfg_path, out):
    """reward_mean, reward_se, base_reward_mean and diversity of each row of
    a closed-form train's report, from one pass over all held-out rows."""
    cfg = load_config(cfg_path)
    g, r = cli._build(cfg)
    hn = init_hypernet(g, rank=cfg["train"]["rank"], alpha=cfg["train"]["adapter_alpha"],
                       seed=cfg.seed)
    load_checkpoint(os.path.join(out, "checkpoint.bin"), hn)
    x = cli._heldout_noise(cfg, g)
    x_mod = x + hn.perturb(x)
    columns = []
    for steps in cfg["evaluation"]["multi_step"]:
        y = g.generate(x_mod, steps=steps)
        vals = r.evaluate_batch(y)
        columns.append([vals.mean(), vals.std(ddof=1) / np.sqrt(len(vals)),
                        r.evaluate_batch(g.generate(x, steps=steps)).mean(),
                        _mean_pairwise(y[:cfg["evaluation"]["diversity_samples"]])])
    return columns


def wide_runs(tmp_path, diversity_samples):
    """argv of a closed-form train (multi_step 1 2), a tradeoff and a
    best_of_n baseline on the wide decoder."""
    hyper = write(tmp_path, "h.ini", WIDE_DECODER + (
        f"multi_step = 1 2\ndiversity_samples = {diversity_samples}\n"))
    direct = write(tmp_path, "d.ini", as_method(
        WIDE_DECODER, "direct_ft",
        direct_ft="steps = 20\nbatch_size = 8\neval_every = 10\neval_samples = 100"))
    best = write(tmp_path, "b.ini", as_method(WIDE_DECODER, "best_of_n",
                                              best_of_n="counts = 1 8"))
    return {"train": ["train", "--config", hyper], "tradeoff": ["tradeoff", hyper, direct],
            "baseline": ["baseline", "--config", best]}


@pytest.mark.parametrize("diversity_samples", [3, 64])
def test_streamed_evaluation_writes_the_bytes_of_one_block(tmp_path, monkeypatch,
                                                           diversity_samples):
    runs = wide_runs(tmp_path, diversity_samples)
    sizes = []      # the values of every output batch the runs generate
    real = Generator.generate

    def generate(self, x0, **kwargs):
        sizes.append(np.atleast_2d(x0).shape[0] * self.output_dim)
        return real(self, x0, **kwargs)

    monkeypatch.setattr(Generator, "generate", generate)
    written = {}
    for mode in ("streamed", "one block"):
        if mode == "one block":
            # every map is then one block, and the diversity rows come from
            # one pass over all held-out rows
            monkeypatch.setattr(rowblocks, "MIN_BLOCK_ROWS", 10 ** 9)
        for name, argv in runs.items():
            out = str(tmp_path / mode / name)
            assert main(argv + ["--out", out, "--quiet"]) == 0, (mode, name)
            written[mode, name] = artifacts(out)
        if mode == "streamed":
            assert sizes and max(sizes) <= WIDE_BLOCK
            _, rows = read_csv(os.path.join(tmp_path, mode, "train", "report.csv"))
            assert [[float(row[i]) for i in (3, 4, 5, 7)] for row in rows] == \
                one_shot_train_columns(runs["train"][2], str(tmp_path / mode / "train"))
    for name in runs:
        report = "tradeoff.csv" if name == "tradeoff" else "report.csv"
        assert report in written["streamed", name]
        assert written["streamed", name] == written["one block", name], name
    assert max(sizes) == 700 * 768      # the one-block runs did take all rows


def test_zero_train_steps_rejected_before_training(tmp_path, capsys):
    # train and tradeoff refused zero steps after making the output
    # directory; diversity ran them and audited the untrained network
    text = AFFINE_TRAIN.replace("steps = 120", "steps = 0")
    cfg_h = write(tmp_path, "h0.ini", text)
    cfg_d = write(tmp_path, "d0.ini", as_method(text, "direct_ft", direct_ft="steps = 1"))
    for argv in (["train", "--config", cfg_h], ["tradeoff", cfg_h, cfg_d],
                 ["diversity", "--config", cfg_h]):
        out = str(tmp_path / argv[0])
        assert main(argv + ["--out", out, "--quiet"]) == 2, argv[0]
        assert not os.path.exists(out), argv[0]
    assert capsys.readouterr().err.count("[train] steps: must be >= 1") == 3


def test_runtime_failure_exit_1_with_marker(tmp_path):
    text = AFFINE_TRAIN.replace("learning_rate = 0.1", "learning_rate = 80.0")
    text = text.replace("[train]", "[train]\nclip_norm = 0\n")
    cfg = write(tmp_path, "diverge.ini", text)
    out = str(tmp_path / "out")
    assert main(["train", "--config", cfg, "--out", out, "--quiet"]) == 1
    assert os.path.exists(os.path.join(out, "FAILED"))


def test_aborted_train_keeps_its_history(tmp_path):
    # only FAILED, config-resolved.ini and run.log were left
    text = AFFINE_TRAIN.replace("learning_rate = 0.1", "learning_rate = 80.0\nclip_norm = 0")
    out = tmp_path / "out"
    assert main(["train", "--config", write(tmp_path, "bad.ini", text),
                 "--out", str(out), "--quiet"]) == 1
    assert (out / "FAILED").read_text().startswith(
        "FloatingPointError: training aborted: step 1: ")
    header, rows = read_csv(str(out / "history.csv"))
    assert header == ["step", "loss", "l2_term", "reward_term", "grad_norm"]
    assert [row[0] for row in rows] == ["0"]
    assert not (out / "report.csv").exists() and not (out / "checkpoint.bin").exists()


def test_history_csv_holds_the_rows_training_returns(tmp_path):
    cfg_path = write(tmp_path, "a.ini", AFFINE_TRAIN)
    out = tmp_path / "out"
    assert main(["train", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    cfg = load_config(cfg_path)
    g, r, hn = cli._build_hypernoise(cfg)
    rows = training.train_hypernoise(hn, g, r, cfg.train_config())
    header, written = read_csv(str(out / "history.csv"))
    assert header == training.HISTORY_COLUMNS
    assert written == [[reporting.fmt(v) for v in row] for row in rows]


BENCH_CONFIGS = Path(__file__).resolve().parent.parent / "bench" / "configs"


@pytest.mark.parametrize("argv,message", [
    # exited 0, ignoring the [generator] and [train] keys
    (["validate-theory", "--config", str(BENCH_CONFIGS / "paper_small.ini")],
     "validate-theory expects theory, got 'hypernoise'"),
    # trained a 500-step hypernetwork
    (["diversity", "--config", str(BENCH_CONFIGS / "noise_opt.ini")],
     "diversity expects hypernoise, got 'noise_opt'"),
    (["tradeoff", str(BENCH_CONFIGS / "direct_ft.ini"), str(BENCH_CONFIGS / "direct_ft.ini")],
     "tradeoff expects hypernoise, got 'direct_ft'"),
    (["tradeoff", str(BENCH_CONFIGS / "paper_small.ini"),
      str(BENCH_CONFIGS / "paper_small.ini")],
     "tradeoff's second config expects direct_ft, got 'hypernoise'"),
], ids=["validate-theory", "diversity", "tradeoff", "tradeoff-second"])
def test_subcommands_reject_another_method_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out), "--quiet"]) == 2
    assert os.listdir(out) == []
    assert f"config error: [run] method: {message}\n" in capsys.readouterr().err


# the [run] method of each bench config
BENCH_METHODS = {"best_of_n.ini": "best_of_n", "direct_ft.ini": "direct_ft",
                 "noise_opt.ini": "noise_opt", "paper_small.ini": "hypernoise",
                 "theory_audit.ini": "theory", "train_wide.ini": "hypernoise"}
# (id, argv with None for the config under test, the methods it may name,
# what the error says it expects)
METHOD_CHECKS = [
    ("validate-theory", ["validate-theory", "--config", None], ("theory",),
     "validate-theory expects theory"),
    ("train", ["train", "--config", None], ("hypernoise",), "train expects hypernoise"),
    ("baseline", ["baseline", "--config", None], ("noise_opt", "best_of_n", "direct_ft"),
     "baseline expects noise_opt, best_of_n, or direct_ft"),
    ("tradeoff", ["tradeoff", None, str(BENCH_CONFIGS / "direct_ft.ini")], ("hypernoise",),
     "tradeoff expects hypernoise"),
    ("tradeoff-second", ["tradeoff", str(BENCH_CONFIGS / "paper_small.ini"), None],
     ("direct_ft",), "tradeoff's second config expects direct_ft"),
    ("diversity", ["diversity", "--config", None], ("hypernoise",),
     "diversity expects hypernoise"),
]


def test_method_checks_cover_every_subcommand_and_bench_config():
    assert {argv[0] for _, argv, _, _ in METHOD_CHECKS} == set(cli.SUBCOMMANDS)
    assert set(BENCH_METHODS) == {p.name for p in BENCH_CONFIGS.glob("*.ini")}
    for name, method in BENCH_METHODS.items():
        assert load_config(str(BENCH_CONFIGS / name)).method == method


@pytest.mark.parametrize("argv,message", [
    pytest.param([str(BENCH_CONFIGS / name) if arg is None else arg for arg in argv],
                 f"{expects}, got {method!r}", id=f"{case}-{name[:-4]}")
    for case, argv, methods, expects in METHOD_CHECKS
    for name, method in BENCH_METHODS.items() if method not in methods])
def test_every_subcommand_rejects_each_bench_config_of_another_method(tmp_path, capsys,
                                                                      argv, message):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out), "--quiet"]) == 2
    assert os.listdir(out) == []
    assert f"config error: [run] method: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("command", [*cli.SUBCOMMANDS, "plot"])
def test_every_subcommand_prints_its_help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: noisetilt {command} ")


def test_diversity_run_log_names_its_workers(tmp_path):
    # its training splits wide layers across the workers, yet its log left them out
    out = tmp_path / "out"
    assert main(["diversity", "--config", write(tmp_path, "t.ini", AFFINE_TRAIN),
                 "--out", str(out), "--quiet"]) == 0
    lines = (out / "run.log").read_text().splitlines()
    assert lines.count(f"workers {rowblocks.WORKERS}") == 1


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["022", "077"])
def test_artifacts_take_the_umask(tmp_path, umask, mode):
    # every artifact was 0600 whatever the umask
    cfg = write(tmp_path, "t.ini", AFFINE_TRAIN)
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert main(["train", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    finally:
        os.umask(old)
    for name in ("report.csv", "checkpoint.bin", "run.log", "plots/history.svg"):
        assert stat.S_IMODE(os.stat(out / name).st_mode) == mode, name


def test_generator_too_large_for_the_host_exit_2(tmp_path, capsys, monkeypatch):
    # numpy's MemoryError left load_config as a traceback, exit 1; the failed
    # allocation is simulated, since under overcommit a real one can succeed
    def refuse(rng, n_in, n_out, activation):
        raise MemoryError(f"Unable to allocate an array with shape ({n_out}, {n_in})")

    monkeypatch.setattr(generators, "_init_layer", refuse)
    text = (BENCH_CONFIGS / "best_of_n.ini").read_text()
    text = text.replace("hidden = 16", "hidden = 100000000000")
    out = tmp_path / "out"
    assert main(["baseline", "--config", write(tmp_path, "c.ini", text),
                 "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    assert ("config error: [generator] Unable to allocate an array with shape "
            "(100000000000, 6)\n") in capsys.readouterr().err


def test_bench_checkpoint_is_a_plain_npz_archive(tmp_path):
    # the network a paper_small train call saves, read back by numpy alone
    cfg_path = str(BENCH_CONFIGS / "paper_small.ini")
    out = tmp_path / "out"
    assert main(["train", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    cfg = load_config(cfg_path)
    t = cfg["train"]
    hn = init_hypernet(cli._build(cfg)[0], rank=t["rank"], alpha=t["adapter_alpha"])
    with np.load(out / "checkpoint.bin", allow_pickle=False) as archive:
        assert archive.files == [*hn.params(), training._HEADER]
        params = {name: archive[name] for name in hn.params()}
        header = json.loads(archive[training._HEADER][()])
    assert header["version"] == 2
    assert load_checkpoint(str(out / "checkpoint.bin"), hn) == {"steps": t["steps"],
                                                                "seed": cfg.seed}
    for name, arr in hn.params().items():
        np.testing.assert_array_equal(arr, params[name])
    assert not [name for name in os.listdir(out) if name.startswith(".tmp-")]


@pytest.mark.parametrize("edit,flags,message", [
    # loaded, then failed the run with exit 1: "expected non-negative integer"
    (("seed = 1", "seed = -3"), [], "[run] seed: must be >= 0, got -3"),
    (None, ["--seed-override", "-2"],
     "--seed-override: must be >= 0, got -2"),
    # exited 2 with "[generator] expected non-negative integer"
    (("hidden = 16", "hidden = 16\nweight_seed = -1"), [],
     "[generator] weight_seed: must be >= 0, got -1"),
], ids=["run-seed", "seed-override", "weight_seed"])
def test_negative_seeds_rejected_before_anything_is_written(tmp_path, capsys, edit,
                                                             flags, message):
    text = (BENCH_CONFIGS / "best_of_n.ini").read_text()
    text = text.replace(*edit) if edit else text
    out = tmp_path / "out"
    assert main(["baseline", "--config", write(tmp_path, "c.ini", text),
                 "--out", str(out), "--quiet"] + flags) == 2
    assert not out.exists()
    assert f"config error: {message}\n" in capsys.readouterr().err


def test_empty_out_dir_rejected_at_load_exit_2(tmp_path, capsys, monkeypatch):
    # os.makedirs("") raised FileNotFoundError: exit 1, a traceback, no FAILED
    monkeypatch.chdir(tmp_path)
    text = AFFINE_TRAIN.replace("seed = 1", "seed = 1\nout_dir =")
    assert main(["train", "--config", write(tmp_path, "c.ini", text), "--quiet"]) == 2
    assert "config error: [run] out_dir: must not be empty\n" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["c.ini"]


def test_uncreatable_output_directory_exit_2(tmp_path, capsys):
    # an --out naming a file raised FileExistsError with a traceback
    cfg = write(tmp_path, "c.ini", AFFINE_TRAIN)
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "sub"):
        assert main(["train", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert f"config error: cannot create output directory {out}: " in \
            capsys.readouterr().err
    assert taken.read_text() == ""


def test_every_artifact_is_written_by_rename(tmp_path, monkeypatch):
    # checkpoint.bin was written in place, so a crash could leave half of it
    targets = set()
    replace = os.replace

    def spy(src, dst, **kwargs):
        targets.add(os.path.abspath(dst))
        return replace(src, dst, **kwargs)

    monkeypatch.setattr(os, "replace", spy)
    cfg_h, cfg_d = tradeoff_configs(tmp_path)
    runs = {
        "train": ["train", "--config", cfg_h],
        "direct_ft": ["baseline", "--config", cfg_d],
        "noise_opt": ["baseline", "--config", write(
            tmp_path, "no.ini", as_method(AFFINE_TRAIN, "noise_opt", noise_opt="steps = 20"))],
        "best_of_n": ["baseline", "--config", write(
            tmp_path, "bon.ini", as_method(AFFINE_TRAIN, "best_of_n", best_of_n="counts = 1 8"))],
        "tradeoff": ["tradeoff", cfg_h, cfg_d],
        "validate-theory": ["validate-theory", "--config", write(
            tmp_path, "th.ini", "[run]\nmethod = theory\n[theory]\nn = 2000\n")],
        "diversity": ["diversity", "--config", cfg_h],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        assert main(argv + ["--out", str(out), "--quiet"]) == 0, name
        written = {os.path.abspath(p) for p in out.rglob("*") if p.is_file()}
        assert os.path.join(out, "run.log") in written, name
        assert written <= targets, (name, sorted(written - targets))


def test_validate_theory(tmp_path):
    cfg = write(tmp_path, "th.ini", "[run]\nmethod = theory\nseed = 0\n"
                "[theory]\nn = 6000\n")
    out = str(tmp_path / "out")
    assert main(["validate-theory", "--config", cfg, "--out", out, "--quiet"]) == 0
    header, rows = read_csv(os.path.join(out, "report.csv"))
    assert header == ["check", "statistic", "tolerance", "status"]
    assert rows and all(r[3] in ("pass", "inconclusive") for r in rows)


def test_validate_theory_same_bytes_on_one_and_many_workers(tmp_path, monkeypatch):
    cfg = write(tmp_path, "th.ini", "[run]\nmethod = theory\nseed = 0\n"
                "[theory]\nn = 20000\n")
    reports = []
    for workers in (1, max(2, rowblocks.WORKERS)):
        monkeypatch.setattr(rowblocks, "WORKERS", workers)
        out = str(tmp_path / f"out{workers}")
        assert main(["validate-theory", "--config", cfg, "--out", out, "--quiet"]) == 0
        reports.append(Path(out, "report.csv").read_bytes())
        assert f"workers {workers}" in Path(out, "run.log").read_text()
    assert reports[0] == reports[1]


def test_wide_train_same_bytes_on_one_and_two_workers(tmp_path, monkeypatch):
    # batch 128 through a 64 -> 768 decoder layer: 6.3 million multiply-adds,
    # so two workers split it into 64-row halves
    cfg = write(tmp_path, "wide.ini", DECODER_TRAIN.format(steps=1).replace(
        "latent_dim = 4\nheight = 3\nwidth = 3\nhidden = 8",
        "latent_dim = 8\nheight = 16\nwidth = 16\nhidden = 64").replace(
        "steps = 30\nbatch_size = 16", "steps = 4\nbatch_size = 128"))
    splits = []
    even_blocks = rowblocks.even_blocks
    monkeypatch.setattr(rowblocks, "even_blocks",
                        lambda n: splits.append(len(even_blocks(n))) or even_blocks(n))
    written = []
    for workers in (1, 2):
        monkeypatch.setattr(rowblocks, "WORKERS", workers)
        splits.clear()
        out = str(tmp_path / f"out{workers}")
        assert main(["train", "--config", cfg, "--out", out, "--quiet"]) == 0
        assert max(splits) == workers
        written.append({name: Path(out, name).read_bytes()
                        for name in ("report.csv", "history.csv", "checkpoint.bin")})
    assert written[0] == written[1]


def test_validate_theory_logs_each_check_group(tmp_path):
    cfg = write(tmp_path, "th.ini", "[run]\nmethod = theory\nseed = 0\n"
                "[theory]\nn = 2000\n")
    out = str(tmp_path / "out")
    assert main(["validate-theory", "--config", cfg, "--out", out, "--quiet"]) == 0
    lines = Path(out, "run.log").read_text().splitlines()
    phases = phase_peaks(lines)
    assert list(phases) == ["tilted_sampler", "pushforward", "stein", "knn",
                            "dpi", "bilipschitz", "logdet"]
    # the groups run one after another, so their rises add up to at most
    # the run's peak so far
    assert sum(phases.values()) <= float(lines[-1].split()[1])


def test_baseline_best_of_n(tmp_path):
    cfg = write(tmp_path, "bon.ini", as_method(AFFINE_TRAIN, "best_of_n",
                                               best_of_n="counts = 1 8 64"))
    out = str(tmp_path / "out")
    assert main(["baseline", "--config", cfg, "--out", out, "--quiet"]) == 0
    _, rows = read_csv(os.path.join(out, "report.csv"))
    best = [float(r[3]) for r in rows]
    assert best == sorted(best) and len(best) == 3


def test_baseline_runs_below_the_knn_heldout_minimum(tmp_path):
    # best_of_n makes no estimate, but the knn_kl minimum of 6 rejected it
    cfg = write(tmp_path, "bon.ini", as_method(AFFINE_TRAIN, "best_of_n",
                                               evaluation="heldout = 3"))
    out = str(tmp_path / "out")
    assert main(["baseline", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert os.path.exists(os.path.join(out, "report.csv"))


def test_baseline_noise_opt(tmp_path):
    cfg = write(tmp_path, "no.ini", as_method(AFFINE_TRAIN, "noise_opt"))
    out = str(tmp_path / "out")
    assert main(["baseline", "--config", cfg, "--out", out, "--quiet"]) == 0
    _, rows = read_csv(os.path.join(out, "report.csv"))
    assert rows[0][0] == "noise_opt"


def test_baseline_wrong_method_exit_2(tmp_path):
    cfg = write(tmp_path, "t.ini", AFFINE_TRAIN)
    assert main(["baseline", "--config", cfg, "--out",
                 str(tmp_path / "out"), "--quiet"]) == 2


def test_tradeoff_mismatch_exit_2(tmp_path, capsys):
    cfg_h = write(tmp_path, "h.ini", AFFINE_TRAIN)
    cfg_d = write(tmp_path, "d.ini", as_method(AFFINE_TRAIN, "direct_ft")
                  .replace("seed = 1", "seed = 2"))
    assert main(["tradeoff", cfg_h, cfg_d, "--out", str(tmp_path / "out"),
                 "--quiet"]) == 2
    assert "tradeoff configs disagree on [run] seed" in capsys.readouterr().err
    # two kNN curves from different sample counts: knn_runs' tradeoff, whose
    # heldout is 200, against a direct fine-tune estimating from 100 points
    argv = knn_runs(tmp_path)["tradeoff"]
    Path(argv[2]).write_text(Path(argv[2]).read_text().replace("eval_samples = 200",
                                                               "eval_samples = 100"))
    out = tmp_path / "knn"
    assert main(argv + ["--out", str(out), "--quiet"]) == 2
    assert ("tradeoff configs disagree on the kNN sample count: [evaluation] heldout = 200, "
            "[direct_ft] eval_samples = 100") in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_tradeoff_refuses_more_than_one_generation_step_exit_2(tmp_path, capsys):
    # the direct fine-tune generates in one step; the hypernoise curve was
    # measured at one step too, for a network trained at two
    text = AFFINE_TRAIN.replace("log_every = 20", "log_every = 20\ngeneration_steps = 2")
    cfg_h, cfg_d = tradeoff_configs(tmp_path, text)
    out = tmp_path / "out"
    assert main(["tradeoff", cfg_h, cfg_d, "--out", str(out), "--quiet"]) == 2
    assert ("config error: [train] generation_steps: tradeoff compares against a direct "
            "fine-tune, which generates in one step, so must be 1, got 2"
            in capsys.readouterr().err)
    assert not out.exists() or not any(out.iterdir())


def test_tradeoff_pairs_a_hypernoise_step_mix_with_a_direct_config(tmp_path):
    # the direct fine-tune reads no step_mix, so its config cannot set one
    # to match; the configs are compared on the keys the direct one reads
    text = AFFINE_TRAIN.replace("[generator]\n", "[generator]\nstep_mix = 0.9\n")
    cfg_h, cfg_d = tradeoff_configs(tmp_path, text)
    assert "step_mix" not in Path(cfg_d).read_text()
    out = tmp_path / "out"
    assert main(["tradeoff", cfg_h, cfg_d, "--out", str(out), "--quiet"]) == 0
    assert read_csv(str(out / "tradeoff.csv"))[1]


def tradeoff_configs(tmp_path, text=AFFINE_TRAIN):
    cfg_h = write(tmp_path, "h.ini", text)
    cfg_d = write(tmp_path, "d.ini", as_method(
        text, "direct_ft",
        direct_ft="steps = 120\neval_every = 20\noptimizer = sgd\nlearning_rate = 0.01"))
    return cfg_h, cfg_d


@pytest.mark.parametrize("command", ["baseline", "tradeoff"])
def test_direct_ft_non_finite_gradient_fails_the_run(tmp_path, monkeypatch, command):
    # the reward's gradient turns NaN at direct fine-tune step 29; tradeoff
    # first spends 120 calls on the hypernoise training
    bad = 30 if command == "baseline" else 150
    monkeypatch.setattr(cli, "make_reward", lambda spec: NanFromCall(spec["c"], bad))
    cfg_h, cfg_d = tradeoff_configs(tmp_path)
    argv = ["baseline", "--config", cfg_d] if command == "baseline" else \
        ["tradeoff", cfg_h, cfg_d]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out), "--quiet"]) == 1
    assert (out / "FAILED").read_text() == (
        "FloatingPointError: direct fine-tune aborted: step 29: non-finite gradient\n")
    assert not (out / "report.csv").exists() and not (out / "tradeoff.csv").exists()


def test_theory_suite_fires_every_benchmark_span(tmp_path, monkeypatch):
    # the traced theory-audit benchmark counts a listed span that never
    # fires as a failure; this runs the same subcommand at a small n
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from tracer import Tracer, instrument, missing_spans
    from workloads import WORKLOADS
    cfg = write(tmp_path, "th.ini", "[run]\nmethod = theory\nseed = 1\n"
                "[theory]\nn = 10000\n")
    tracer = Tracer()
    undo = instrument(tracer)
    try:
        assert cli.main(["validate-theory", "--config", cfg,
                         "--out", str(tmp_path / "out"), "--quiet"]) == 0
    finally:
        undo()
    assert missing_spans(tracer.summary(), WORKLOADS["theory-audit"].spans) == []


def test_paper_small_calls_fire_every_benchmark_span(tmp_path, monkeypatch):
    # the same check for the paper-small workload's four calls, on tiny
    # configs; the training loop calls the optimizer update and the
    # clipping that two of its spans watch
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from tracer import Tracer, instrument, missing_spans
    from workloads import WORKLOADS
    # the estimates run inline, so every span opens on this thread
    monkeypatch.setattr(rowblocks, "pool", lambda workers: InlineExecutor())
    knn = knn_runs(tmp_path)
    runs = {"train": knn["train"], "tradeoff": knn["tradeoff"]}
    for method, lines in (("noise_opt", "steps = 20"), ("best_of_n", "counts = 1 4 16")):
        cfg = write(tmp_path, f"{method}.ini", as_method(KNN_DECODER, method,
                                                         **{method: lines}))
        runs[method] = ["baseline", "--config", cfg]
    tracer = Tracer()
    undo = instrument(tracer)
    try:
        for name, argv in runs.items():
            assert cli.main(argv + ["--out", str(tmp_path / name), "--quiet"]) == 0, name
    finally:
        undo()
    assert missing_spans(tracer.summary(), WORKLOADS["paper-small"].spans) == []


def test_tradeoff_runs(tmp_path):
    cfg_h, cfg_d = tradeoff_configs(tmp_path)
    out = str(tmp_path / "out")
    assert main(["tradeoff", cfg_h, cfg_d, "--out", out, "--quiet"]) == 0
    header, rows = read_csv(os.path.join(out, "tradeoff.csv"))
    assert header[0] == "step" and rows
    assert os.path.exists(os.path.join(out, "plots", "tradeoff.svg"))


def test_tradeoff_rerun_byte_identical(tmp_path):
    cfg_h, cfg_d = tradeoff_configs(
        tmp_path, AFFINE_TRAIN.replace("closed_form_gaussian_kl", "knn_kl"))
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert main(["tradeoff", cfg_h, cfg_d, "--out", out, "--quiet"]) == 0
    for name in ("tradeoff.csv", os.path.join("plots", "tradeoff.svg")):
        a = Path(out1, name).read_bytes()
        b = Path(out2, name).read_bytes()
        assert a == b, name


def test_plot_curve_of_a_tradeoff_csv(tmp_path):
    # the two methods log at different steps, so each column has blank
    # cells; the plot exited 2 with "curve plots need numeric columns"
    cfg_h, _ = tradeoff_configs(tmp_path)
    cfg_d = write(tmp_path, "d30.ini", as_method(
        AFFINE_TRAIN, "direct_ft", direct_ft="steps = 120\neval_every = 30\noptimizer = sgd"))
    out = tmp_path / "out"
    assert main(["tradeoff", cfg_h, cfg_d, "--out", str(out), "--quiet"]) == 0
    _, rows = read_csv(str(out / "tradeoff.csv"))
    assert any("" in row for row in rows)
    svg = tmp_path / "tradeoff.svg"
    assert main(["plot", str(out / "tradeoff.csv"), "--kind", "curve",
                 "--out", str(svg), "--quiet"]) == 0
    assert svg.read_text().count("<polyline") == 4


def test_diversity_of_a_constant_generator_exits_0(tmp_path):
    # the log's modulated/base ratio divided by a zero base mean: exit 1
    # after report.csv and the SVG were written
    text = AFFINE_TRAIN.replace("matrix = 1 0.3; 0 0.9", "matrix = 0 0; 0 0")
    out = str(tmp_path / "out")
    assert main(["diversity", "--config", write(tmp_path, "c.ini", text),
                 "--out", out, "--quiet"]) == 0
    assert not os.path.exists(os.path.join(out, "FAILED"))
    _, rows = read_csv(os.path.join(out, "report.csv"))
    assert rows[-2][:3] == ["mean", "0.0", "0.0"]
    assert "(ratio nan)" in Path(out, "run.log").read_text()


def test_diversity_audits_at_the_trained_generation_steps(tmp_path):
    # both output sets were generated in one step, for a network trained at two
    text = DECODER_TRAIN.format(steps=2) + "diversity_seeds = 3\ndiversity_samples = 10\n"
    cfg_path = write(tmp_path, "d2.ini", text)
    out = tmp_path / "out"
    assert main(["diversity", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    cfg = load_config(cfg_path)
    g, r, hn = cli._build_hypernoise(cfg)
    training.train_hypernoise(hn, g, r, cfg.train_config())
    audits = {}
    for steps in (1, 2):
        xs = [np.random.default_rng(cfg.seed + 700_000 + i).standard_normal((10, 4))
              for i in range(3)]
        audits[steps] = [[_mean_pairwise(g.generate(x, steps=steps)),
                          _mean_pairwise(g.generate(x + hn.perturb(x), steps=steps))]
                         for x in xs]
    _, rows = read_csv(str(out / "report.csv"))
    assert [row[1:] for row in rows[:3]] == [[repr(v) for v in pair] for pair in audits[2]]
    assert audits[1] != audits[2]


def test_train_needs_the_diversity_rows_it_averages(tmp_path, capsys):
    # train averaged the 10 held-out rows it had, not the 64 configured;
    # diversity draws its own rows and keeps running such a config
    text = AFFINE_TRAIN.replace("heldout = 1000", "heldout = 10\ndiversity_samples = 64")
    cfg = write(tmp_path, "c.ini", text)
    out = str(tmp_path / "train")
    assert main(["train", "--config", cfg, "--out", out, "--quiet"]) == 2
    assert os.listdir(out) == []
    assert ("config error: [evaluation] diversity_samples: train averages that many of the "
            "heldout rows, so must be <= 10, got 64") in capsys.readouterr().err
    out = str(tmp_path / "diversity")
    assert main(["diversity", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert os.path.exists(os.path.join(out, "report.csv"))
    text = AFFINE_TRAIN.replace("heldout = 1000", "heldout = 64\ndiversity_samples = 64")
    assert main(["train", "--config", write(tmp_path, "ok.ini", text),
                 "--out", str(tmp_path / "ok"), "--quiet"]) == 0


def test_mean_pairwise_matches_pdist():
    y = np.random.default_rng(3).standard_normal((40, 7))
    assert _mean_pairwise(y) == pytest.approx(pdist(y).mean(), rel=1e-14)
    assert np.isnan(_mean_pairwise(y[:1]))


def test_plot_subcommand(tmp_path):
    csv = tmp_path / "c.csv"
    csv.write_text("x,y\n0,1.0\n1,2.0\n")
    out = str(tmp_path / "c.svg")
    assert main(["plot", str(csv), "--kind", "curve", "--out", out,
                 "--quiet"]) == 0
    assert os.path.exists(out)
    empty = tmp_path / "e.csv"
    empty.write_text("x,y\n")
    assert main(["plot", str(empty), "--kind", "curve", "--out",
                 str(tmp_path / "e.svg"), "--quiet"]) == 2


@pytest.mark.parametrize("kind,text", [("curve", "x,y,z\n0,1,2\n1,2\n"),
                                       ("bars", "label,value\na\n")])
def test_plot_short_row_exit_2(tmp_path, capsys, kind, text):
    # an IndexError traceback, exit 1
    csv = tmp_path / "short.csv"
    csv.write_text(text)
    out = tmp_path / "short.svg"
    assert main(["plot", str(csv), "--kind", kind, "--out", str(out), "--quiet"]) == 2
    assert not out.exists()
    row = 2 if kind == "curve" else 1
    assert f"error: {csv}: row {row} has" in capsys.readouterr().err
