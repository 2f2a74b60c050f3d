"""End-to-end runs of the command-line interface."""
import os

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from noisetilt.cli import _mean_pairwise, main
from noisetilt.reporting import read_csv

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
    for name in ("report.csv", "history.csv", os.path.join("plots", "history.svg")):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, name


def test_seed_override_changes_report(tmp_path):
    cfg = write(tmp_path, "t.ini", AFFINE_TRAIN)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["train", "--config", cfg, "--out", out1, "--quiet"]) == 0
    assert main(["train", "--config", cfg, "--out", out2, "--quiet",
                 "--seed-override", "99"]) == 0
    a = open(os.path.join(out1, "report.csv")).read()
    b = open(os.path.join(out2, "report.csv")).read()
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
        reports.append(open(os.path.join(out, "report.csv"), "rb").read())
    assert reports[0] != reports[1]


def test_runtime_failure_exit_1_with_marker(tmp_path):
    text = AFFINE_TRAIN.replace("learning_rate = 0.1", "learning_rate = 80.0")
    text = text.replace("[train]", "[train]\nclip_norm = 0\n")
    cfg = write(tmp_path, "diverge.ini", text)
    out = str(tmp_path / "out")
    assert main(["train", "--config", cfg, "--out", out, "--quiet"]) == 1
    assert os.path.exists(os.path.join(out, "FAILED"))


def test_validate_theory(tmp_path):
    cfg = write(tmp_path, "th.ini", "[run]\nmethod = theory\nseed = 0\n"
                "[theory]\nn = 6000\n")
    out = str(tmp_path / "out")
    assert main(["validate-theory", "--config", cfg, "--out", out, "--quiet"]) == 0
    header, rows = read_csv(os.path.join(out, "report.csv"))
    assert header == ["check", "statistic", "tolerance", "status"]
    assert rows and all(r[3] in ("pass", "inconclusive") for r in rows)


def test_baseline_best_of_n(tmp_path):
    text = AFFINE_TRAIN.replace("method = hypernoise", "method = best_of_n")
    text += "\n[best_of_n]\ncounts = 1 8 64\n"
    cfg = write(tmp_path, "bon.ini", text)
    out = str(tmp_path / "out")
    assert main(["baseline", "--config", cfg, "--out", out, "--quiet"]) == 0
    _, rows = read_csv(os.path.join(out, "report.csv"))
    best = [float(r[3]) for r in rows]
    assert best == sorted(best) and len(best) == 3


def test_baseline_noise_opt(tmp_path):
    text = AFFINE_TRAIN.replace("method = hypernoise", "method = noise_opt")
    cfg = write(tmp_path, "no.ini", text)
    out = str(tmp_path / "out")
    assert main(["baseline", "--config", cfg, "--out", out, "--quiet"]) == 0
    _, rows = read_csv(os.path.join(out, "report.csv"))
    assert rows[0][0] == "noise_opt"


def test_baseline_wrong_method_exit_2(tmp_path):
    cfg = write(tmp_path, "t.ini", AFFINE_TRAIN)
    assert main(["baseline", "--config", cfg, "--out",
                 str(tmp_path / "out"), "--quiet"]) == 2


def test_tradeoff_mismatch_exit_2(tmp_path):
    cfg_h = write(tmp_path, "h.ini", AFFINE_TRAIN)
    cfg_d = write(tmp_path, "d.ini", AFFINE_TRAIN
                  .replace("method = hypernoise", "method = direct_ft")
                  .replace("seed = 1", "seed = 2"))
    assert main(["tradeoff", cfg_h, cfg_d, "--out", str(tmp_path / "out"),
                 "--quiet"]) == 2


def tradeoff_configs(tmp_path, text=AFFINE_TRAIN):
    cfg_h = write(tmp_path, "h.ini", text)
    cfg_d = write(tmp_path, "d.ini", text
                  .replace("method = hypernoise", "method = direct_ft")
                  + "\n[direct_ft]\nsteps = 120\neval_every = 20\n"
                    "optimizer = sgd\nlearning_rate = 0.01\neval_samples = 500\n")
    return cfg_h, cfg_d


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
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, name


def test_diversity_zero_steps_identical(tmp_path):
    text = AFFINE_TRAIN.replace("steps = 120", "steps = 0")
    cfg = write(tmp_path, "div.ini", text)
    out = str(tmp_path / "out")
    assert main(["diversity", "--config", cfg, "--out", out, "--quiet"]) == 0
    _, rows = read_csv(os.path.join(out, "report.csv"))
    numeric = [r for r in rows if r[0] not in ("mean", "sd")]
    for r in numeric:
        assert float(r[1]) == float(r[2])   # zero-init network leaves outputs


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
