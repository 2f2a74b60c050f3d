"""Acceptance suite: ten numbered criteria, one printed verdict line each.

Each test computes its statistic, prints "[ACCEPTANCE] n name: PASS/FAIL
(detail)", and then asserts, so the verdict line survives even when the
assertion fires.
"""
import os
from pathlib import Path

import numpy as np
import pytest

from noisetilt import autodiff as ad
from noisetilt.baselines import (DirectFinetuneConfig, NoiseOptConfig, measure_drift,
                                 noise_opt, train_direct_finetune)
from noisetilt.cli import main as cli_main
from noisetilt.generators import make_generator
from noisetilt.hypernet import init_hypernet
from noisetilt.objectives import (error_term, exact_noise_kl, hypernoise_loss,
                                  theorem_bound)
from noisetilt.oracles import (dpi_check, dpi_closed_form, exact_pushforward_z, kl_knn,
                               pushforward_check, sample_tilted_noise, stein_check)
from noisetilt.rewards import LinearReward, QuadraticReward, RednessReward
from noisetilt.training import TrainConfig, train_hypernoise


def verdict(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[ACCEPTANCE] {number} {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def rel_close(got, want, rtol, floor):
    return np.all(np.abs(got - want) <= rtol * np.maximum(np.abs(want), floor))


# -- shared fixtures --------------------------------------------------------

BUDGETS = [0.05, 0.1, 0.3, 0.5]


def budgeted_networks():
    """20 networks, 5 per Lipschitz budget, d=8."""
    nets = []
    idx = 0
    for lip in BUDGETS:
        for _ in range(5):
            g = make_generator({"variant": "mlp", "latent_dim": 8,
                                "output_dim": 8, "hidden": [12]}, seed=100 + idx)
            hn = init_hypernet(g, rank=3, alpha=2.0, seed=200 + idx)
            hn.randomize_adapters(300 + idx)
            hn.set_lipschitz_budget(lip)
            nets.append((lip, hn))
            idx += 1
    return nets


@pytest.fixture(scope="module")
def nets():
    return budgeted_networks()


AFF_A = np.array([[1.0, 0.2, 0.0, 0.0], [0.0, 0.8, 0.1, 0.0],
                  [0.0, 0.0, 1.1, 0.3], [0.1, 0.0, 0.0, 0.9]])
AFF_B = np.array([0.5, -0.2, 0.1, 0.0])
AFF_C = np.array([0.8, -0.4, 0.2, 0.5])


def affine_benchmark():
    g = make_generator({"variant": "affine", "latent_dim": 4,
                        "matrix": AFF_A.tolist(), "bias": AFF_B.tolist()}, seed=0)
    return g, LinearReward(AFF_C)


@pytest.fixture(scope="module")
def decoder_runs():
    """Trained decoder hypernetwork and matched direct fine-tune, shared by
    the contrast and diversity criteria."""
    g = make_generator({"variant": "decoder", "latent_dim": 6, "height": 4,
                        "width": 4, "hidden": [16]}, seed=2)
    r = RednessReward(0.01)
    heldout = np.random.default_rng(77).standard_normal((1500, 6))
    base_out = g.generate(np.random.default_rng(78).standard_normal((1500, 6)))

    hn = init_hypernet(g, rank=2, alpha=2.0, seed=2)
    curve_h = []

    def hook(step, net):
        y = g.generate(heldout + net.perturb(heldout))
        # at the latent's dimension, as the CLI and the direct drift estimate
        curve_h.append((float(r.evaluate_batch(y).mean()),
                        max(kl_knn(y, base_out, d=min(g.latent_dim, g.output_dim)), 0.0)))

    train_hypernoise(
        hn, g, r,
        TrainConfig(steps=300, batch_size=64, learning_rate=0.05,
                    optimizer="adam", alpha=1e-3, seed=3, log_every=25),
        eval_hook=hook)

    cfg_d = DirectFinetuneConfig(steps=300, batch_size=64, learning_rate=0.02,
                                 seed=3, eval_every=25, eval_samples=1500)
    drifts = []
    _, rows_d = train_direct_finetune(
        g, r, cfg_d, eval_hook=lambda step, net: drifts.append(measure_drift(net, cfg_d, step)))
    curve_d = list(zip([rw for _, rw in rows_d],
                       [max(v, 0.0) for v in drifts]))
    return g, r, hn, curve_h, curve_d


# -- criteria ---------------------------------------------------------------

def test_01_autodiff_soundness():
    rng = np.random.default_rng(0)
    ok = True
    worst = 0.0

    def fd(fn, x, eps=1e-6):
        g = np.zeros_like(x)
        for i in range(x.size):
            step = np.zeros_like(x)
            step.flat[i] = eps
            g.flat[i] = (fn(x + step) - fn(x - step)) / (2 * eps)
        return g

    # every primitive, at 100 random points each (one vector entry = one point)
    x = rng.standard_normal(100)
    y = rng.standard_normal(100)
    unary = {"tanh": ad.tanh, "sigmoid": ad.sigmoid, "silu": ad.silu,
             "identity": ad.identity, "neg": ad.neg}
    for name, op in unary.items():
        leaf = ad.param(x)
        got = ad.backprop(ad.asum(op(leaf)))[id(leaf)]
        ref = fd(lambda v: float(op(ad.constant(v)).value.sum()), x)
        ok &= rel_close(got, ref, 1e-6, 1.0)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    binary = {"add": ad.add, "sub": ad.sub, "mul": ad.mul,
              "dot_rows": ad.dot_rows}
    for name, op in binary.items():
        la, lb = ad.param(x), ad.param(y)
        grads = ad.backprop(ad.asum(op(la, lb)))
        for leaf, other, which in ((la, y, 0), (lb, x, 1)):
            def f(v):
                args = (v, other) if which == 0 else (other, v)
                return float(op(ad.constant(args[0]), ad.constant(args[1])).value.sum())
            ref = fd(f, x if which == 0 else y)
            ok &= rel_close(grads[id(leaf)], ref, 1e-6, 1.0)
    # linear / concat / batched reductions are exercised end-to-end by the
    # full-loss check below, which flows every primitive the loss uses
    leaf = ad.param(x)
    got = ad.backprop(ad.sumsq_rows(leaf))[id(leaf)]
    ok &= rel_close(got, 2 * x, 1e-6, 1.0)
    leaf = ad.param(x)
    got = ad.backprop(ad.amean(leaf))[id(leaf)]
    ok &= rel_close(got, np.full(100, 0.01), 1e-6, 1.0)
    leaf = ad.param(x)
    got = ad.backprop(ad.asum(ad.slice_last(leaf, 10, 60)))[id(leaf)]
    ref = np.zeros(100)
    ref[10:60] = 1.0
    ok &= np.array_equal(got, ref)

    # full training loss at 100 random noise points, every parameter entry
    g = make_generator({"variant": "mlp", "latent_dim": 3, "output_dim": 3,
                        "hidden": [8]}, seed=1)
    hn = init_hypernet(g, rank=2, alpha=2.0, seed=1)
    hn.randomize_adapters(2)
    r = LinearReward([1.0, -0.5, 0.2])
    worst_loss = 0.0
    for _ in range(100):
        pt = rng.standard_normal((1, 3))
        _, grads = hypernoise_loss(hn, g, r, pt, alpha=1.5)
        for name, arr in hn.params().items():
            for flat in range(arr.size):
                orig = arr.flat[flat]
                arr.flat[flat] = orig + 1e-6
                hi, _ = hypernoise_loss(hn, g, r, pt, alpha=1.5)
                arr.flat[flat] = orig - 1e-6
                lo, _ = hypernoise_loss(hn, g, r, pt, alpha=1.5)
                arr.flat[flat] = orig
                ref = (hi.total - lo.total) / 2e-6
                gap = abs(grads[name].flat[flat] - ref)
                worst_loss = max(worst_loss, gap / max(abs(ref), 1.0))
    ok &= worst_loss <= 1e-5
    verdict(1, "autodiff-soundness", ok,
            f"worst primitive gap {worst:.2e}, worst loss rel gap {worst_loss:.2e}")


def test_02_logdet_error_bound(nets):
    rng = np.random.default_rng(10)
    violations = 0
    worst_ratio = 0.0
    for lip, hn in nets:
        bound = theorem_bound(8, lip)
        x = rng.standard_normal((200, 8))
        for jac in hn.jacobian_batch(x):
            err = abs(error_term(jac))
            worst_ratio = max(worst_ratio, err / bound)
            if err > bound:
                violations += 1
    small_ok = all(theorem_bound(8, lip) <= 1.1 * 8 * lip ** 2 / 2
                   for lip in BUDGETS if lip <= 0.1)
    verdict(2, "logdet-error-bound", violations == 0 and small_ok,
            f"0 violations target, got {violations}; worst |err|/bound "
            f"{worst_ratio:.3f}; small-L quadratic check {small_ok}")


def test_03_kl_approximation(nets):
    rng = np.random.default_rng(11)
    ok = True
    worst = 0.0
    for lip, hn in nets:
        kb = exact_noise_kl(hn, rng.standard_normal((20, 8)))
        ok &= kb.bound is not None and abs(kb.approx_error) <= kb.bound
        worst = max(worst, abs(kb.approx_error))
    # constant shift: exact KL equals the L2 term and the Gaussian closed form
    g = make_generator({"variant": "mlp", "latent_dim": 4, "output_dim": 4,
                        "hidden": [6]}, seed=3)
    hn = init_hypernet(g, rank=2, alpha=1.0, seed=3)
    c = np.array([0.6, -0.3, 0.2, 0.4])
    hn.set_constant(c)
    kb = exact_noise_kl(hn, rng.standard_normal((10, 4)))
    const_ok = (abs(kb.exact_kl - kb.l2_term) <= 1e-10
                and abs(kb.exact_kl - 0.5 * float(c @ c)) <= 1e-10)
    verdict(3, "kl-approximation", ok and const_ok,
            f"worst |approx error| {worst:.2e}; constant-shift gap "
            f"{abs(kb.exact_kl - 0.5 * float(c @ c)):.2e}")


def test_04_stein_identity():
    ok = True
    worst_z = 0.0
    idx = 0
    for d in (2, 4, 8):
        for trial in range(7 if d < 8 else 6):
            g = make_generator({"variant": "mlp", "latent_dim": d,
                                "output_dim": d, "hidden": [10]}, seed=400 + idx)
            hn = init_hypernet(g, rank=2, alpha=2.0, seed=500 + idx)
            hn.randomize_adapters(600 + idx)
            hn.set_lipschitz_budget(0.4)
            lhs, rhs, se = stein_check(lambda xb: hn.perturb(xb), d, 100000,
                                       seed=700 + idx)
            z = abs(lhs - rhs) / se
            worst_z = max(worst_z, z)
            ok &= z <= 4.0
            idx += 1
    verdict(4, "stein-identity", ok, f"20 networks, worst |lhs-rhs|/SE {worst_z:.2f}")


def test_05_tilted_recovery():
    g, r = affine_benchmark()
    hn = init_hypernet(g, rank=2, alpha=2.0, seed=1)
    train_hypernoise(hn, g, r, TrainConfig(steps=300, batch_size=128,
                                           learning_rate=0.1, seed=3))
    target = AFF_A.T @ AFF_C
    x = np.random.default_rng(9).standard_normal((2000, 4))
    rel = float(np.mean(np.linalg.norm(hn.perturb(x) - target, axis=1))
                / np.linalg.norm(target))
    res = noise_opt(g, r, NoiseOptConfig(steps=500, learning_rate=0.1, seed=0),
                    init=np.zeros(4))
    learned_shift = hn.perturb(np.zeros(4))
    agree = float(np.linalg.norm(res.noise - learned_shift)
                  / np.linalg.norm(learned_shift))
    ok = rel <= 0.02 and agree <= 0.05
    verdict(5, "tilted-recovery", ok,
            f"mean shift error {rel:.2e} (tol 0.02), "
            f"noise-opt agreement {agree:.2e} (tol 0.05)")


def test_06_pushforward_identity():
    checks = []
    g_aff, r_lin = affine_benchmark()
    # on the affine generator both rewards tilt the noise to a Gaussian
    # N(P^-1 h, P^-1): exp(c.(A x + b)) to P = I, h = A^T c, and
    # exp(-(A x + b)^T Q (A x + b) / 2) to P = I + A^T Q A, h = -A^T Q b;
    # route (a) is also held to that tilt's pushforward, N(A P^-1 h + b,
    # A P^-1 A^T), as the two routes agree whatever tilt both draw
    q = 0.1 * np.eye(4)
    exact_z = []
    for r, seed, precision, h in (
            (r_lin, 20, np.eye(4), AFF_A.T @ AFF_C),
            (QuadraticReward(q, sign=-1), 21, np.eye(4) + AFF_A.T @ q @ AFF_A,
             -AFF_A.T @ q @ AFF_B)):
        checks.append(pushforward_check(g_aff, r, 1.0, 20000, seed=seed))
        cov = np.linalg.inv(precision)
        mean = AFF_A @ cov @ h + AFF_B
        second = np.diag(AFF_A @ cov @ AFF_A.T) + mean ** 2
        exact_z.append(exact_pushforward_z(
            g_aff, sample_tilted_noise(g_aff, r, 1.0, 20000, seed), mean, second))
    g_mlp = make_generator({"variant": "mlp", "latent_dim": 4, "output_dim": 4,
                            "hidden": [10]}, seed=22)
    checks.append(pushforward_check(g_mlp, r_lin, 1.0, 20000, seed=22))
    g_dec = make_generator({"variant": "decoder", "latent_dim": 6, "height": 4,
                            "width": 4, "hidden": [16]}, seed=23)
    r_red = RednessReward(0.01)
    checks.append(pushforward_check(g_dec, r_red, 0.005, 20000, seed=23,
                                    method="snis"))
    checks.append(pushforward_check(g_dec, r_red, 0.005, 20000, seed=24,
                                    method="rejection"))
    worst = max(c.max_z for c in checks)
    ok = all(c.max_z <= 4.0 and not c.inconclusive for c in checks)
    ok = ok and max(exact_z) <= 4.0
    verdict(6, "pushforward-identity", ok,
            f"{len(checks)} pairings, worst moment gap {worst:.2f} SE, affine route (a) "
            f"against the exact tilt {max(exact_z):.2f} SE (tol 4)")


def test_07_data_processing_inequality():
    g = make_generator({"variant": "affine", "latent_dim": 3, "output_dim": 1,
                        "matrix": [[1.0, 0.0, 0.0]], "bias": [0.0]}, seed=0)
    hn = init_hypernet(g, rank=1, alpha=1.0, seed=0)
    c = np.array([0.6, 0.8, -0.5])
    hn.set_constant(c)
    rep = dpi_closed_form(hn, g)
    expected = 0.5 * float(c[1:] @ c[1:])
    closed_ok = rep.margin >= 0.0 and abs(rep.margin - expected) <= 1e-12

    margins = []
    for i in range(3):
        g2 = make_generator({"variant": "mlp", "latent_dim": 4, "output_dim": 4,
                             "hidden": [10]}, seed=40 + i)
        hn2 = init_hypernet(g2, rank=2, alpha=2.0, seed=40 + i)
        hn2.randomize_adapters(50 + i)
        hn2.set_lipschitz_budget(0.4)
        margins.append(dpi_check(hn2, g2, 8000, seed=60 + i).margin)
    est_ok = all(m >= -0.05 for m in margins)
    verdict(7, "data-processing-inequality", closed_ok and est_ok,
            f"closed-form margin {rep.margin:.6f} (expected {expected:.6f}), "
            f"estimated margins {[round(m, 3) for m in margins]} (tol -0.05)")


def test_08_reward_hacking_contrast(decoder_runs):
    _, _, _, curve_h, curve_d = decoder_runs
    # fidelity cost each method pays to first reach a given reward level
    def cost_at(curve, level):
        feasible = [f for rw, f in curve if rw >= level]
        return min(feasible) if feasible else None

    top = max(rw for rw, _ in curve_h)
    lo_level = max(min(rw for rw, _ in curve_h), top / 2.0)
    levels = np.linspace(lo_level + 0.25 * (top - lo_level), top, 8)
    gaps = []
    contrast_ok = True
    for level in levels:
        ch = cost_at(curve_h, level)
        cd = cost_at(curve_d, level)
        if ch is None or cd is None:
            contrast_ok = False
            continue
        gaps.append(cd - ch)
        contrast_ok &= cd > ch

    # affine direct baseline: bias drift exactly linear in the step count
    g_aff, r_lin = affine_benchmark()
    drifts = []
    for steps in (50, 100):
        adapted, _ = train_direct_finetune(
            g_aff, r_lin,
            DirectFinetuneConfig(steps=steps, batch_size=32, learning_rate=0.01,
                                 optimizer="sgd", seed=4, eval_every=steps))
        drifts.append(np.linalg.norm(adapted.bias_delta))
    linear_ok = abs(drifts[1] - 2.0 * drifts[0]) <= 1e-9 * drifts[1]
    verdict(8, "reward-hacking-contrast", contrast_ok and linear_ok,
            f"direct minus residual fidelity cost at matched reward: min gap "
            f"{min(gaps):.2f} KL over {len(gaps)} levels; affine drift ratio "
            f"{drifts[1] / drifts[0]:.6f} (expected 2)")


def test_09_diversity_guard(decoder_runs):
    g, _, hn, _, _ = decoder_runs
    ratios = []
    from scipy.spatial.distance import pdist
    for i in range(20):
        x = np.random.default_rng(800 + i).standard_normal((64, 6))
        base = pdist(g.generate(x)).mean()
        mod = pdist(g.generate(x + hn.perturb(x))).mean()
        ratios.append(mod / base)
    mean_ratio = float(np.mean(ratios))
    ok = 0.8 <= mean_ratio <= 1.2 and all(0.8 <= v <= 1.2 for v in ratios)
    verdict(9, "diversity-guard", ok,
            f"20 seeds, diversity ratio mean {mean_ratio:.4f}, "
            f"range [{min(ratios):.4f}, {max(ratios):.4f}] (tol 0.8-1.2)")


CONFIG_TEXT = """
[run]
method = hypernoise
seed = 5

[generator]
variant = affine
latent_dim = 2
matrix = 1 0.3; 0 0.9
bias = 0.2 -0.1

[reward]
variant = linear
c = 0.6 -0.5

[train]
steps = 80
batch_size = 64
learning_rate = 0.1
log_every = 20

[evaluation]
heldout = 1000
fidelity_metric = closed_form_gaussian_kl
"""


def test_10_determinism(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(CONFIG_TEXT)
    outs = [str(tmp_path / "run1"), str(tmp_path / "run2")]
    for out in outs:
        assert cli_main(["train", "--config", str(cfg), "--out", out,
                         "--quiet"]) == 0
    pairs = []
    for name in ("report.csv", "history.csv"):
        a = Path(outs[0], name).read_bytes()
        b = Path(outs[1], name).read_bytes()
        pairs.append(a == b)
    verdict(10, "determinism", all(pairs),
            "report.csv and history.csv byte-identical across re-runs")
