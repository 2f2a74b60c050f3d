"""Command-line experiment runner.

Subcommands: validate-theory, train, baseline, tradeoff, diversity, plot.
Exit codes: 0 success, 1 runtime failure (partial artifacts kept next to a
FAILED marker) or a failed theory check, 2 configuration error.  All
randomness flows from the config seed, so re-running a config reproduces
report.csv byte for byte; wall-clock timings go to run.log, which is
excluded from that guarantee.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import resource
import sys
import time
import traceback
from typing import Optional

import numpy as np

from . import oracles, reporting, rowblocks
from .baselines import (DirectFinetuneConfig, best_of_n, measure_drift, noise_opt,
                        train_direct_finetune)
from .config import ConfigError, ExperimentConfig, load_config, parse_seed
from .generators import Generator, make_generator
from .hypernet import NoiseHypernetwork, init_hypernet
from .oracles import kl_knn  # noqa: F401  (bench/test_bench.py: the tracer rebinds it)
from .rewards import Reward, make_reward
from .training import HISTORY_COLUMNS, save_checkpoint, train_hypernoise

REPORT_COLUMNS = ["method", "step", "generation_steps", "reward_mean",
                  "reward_se", "base_reward_mean", "fidelity",
                  "diversity_mean_pairwise", "lipschitz_audit"]

# subcommand -> (help, the [run] methods each config it reads may name)
SUBCOMMANDS = {
    "validate-theory": ("run every oracle check", ("theory",)),
    "train": ("train the residual noise network", ("hypernoise",)),
    "baseline": ("run the configured baseline method", ("noise_opt", "best_of_n", "direct_ft")),
    "tradeoff": ("reward-vs-fidelity curves, both methods", ("hypernoise",), ("direct_ft",)),
    "diversity": ("pairwise-distance collapse audit", ("hypernoise",)),
}


class RunContext:
    def __init__(self, out_dir: str, quiet: bool):
        self.out_dir = out_dir
        self.quiet = quiet
        self.t0 = time.monotonic()
        self.log_lines: list[str] = []
        # name -> [wall s, minor page faults, KiB by which ru_maxrss rose]
        self.phases: dict[str, list] = {}
        self._open: list[str] = []
        self._mark = (self.t0, 0, 0)
        # the run's kNN estimates; waiting for one counts as evaluate
        self.evaluator = oracles.KnnEvaluator(wait=lambda: self.phase("evaluate"))

    @contextlib.contextmanager
    def phase(self, name: str):
        """Charge to phase `name` the wall time and minor page faults spent
        inside it, and how far the process's peak memory rose meanwhile; a
        phase opened inside another pauses the outer one, so each phase
        is charged only while it is the innermost one open."""
        self._charge()
        self._open.append(name)
        try:
            yield
        finally:
            self._charge()
            self._open.pop()

    def _charge(self):
        now = time.monotonic()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        if self._open:
            totals = self.phases.setdefault(self._open[-1], [0.0, 0, 0])
            totals[0] += now - self._mark[0]
            totals[1] += usage.ru_minflt - self._mark[1]
            totals[2] += usage.ru_maxrss - self._mark[2]
        self._mark = (now, usage.ru_minflt, usage.ru_maxrss)

    def path(self, *parts) -> str:
        return os.path.join(self.out_dir, *parts)

    def log(self, msg: str):
        self.log_lines.append(msg)
        if not self.quiet:
            print(msg)

    def finish(self):
        if self.evaluator.estimates:
            self.log_lines.append(f"evaluator {self.evaluator.estimates} estimates, "
                                  f"busy {self.evaluator.busy_s:.3f} s "
                                  f"on {self.evaluator.threads} threads")
        # ru_maxrss is in KiB on Linux
        for name, (wall, faults, rise_kib) in self.phases.items():
            self.log_lines.append(f"phase {name} {wall:.3f} s, {faults} minor page faults, "
                                  f"peak_rss_rise_mb {rise_kib / 1024:.1f}")
        self.log_lines.append(f"wall_time_s {time.monotonic() - self.t0:.3f}")
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.log_lines.append(f"peak_rss_mb {peak_kib / 1024:.1f}")
        reporting.atomic_write(self.path("run.log"), "\n".join(self.log_lines) + "\n")

    def fail(self, message: str):
        reporting.atomic_write(self.path("FAILED"), message + "\n")
        self.log_lines.append(f"FAILED: {message}")
        self.finish()


def _echo_config(ctx: RunContext, cfg: ExperimentConfig):
    reporting.atomic_write(ctx.path("config-resolved.ini"), cfg.resolved_echo())


def _build(cfg: ExperimentConfig) -> tuple[Generator, Reward]:
    g = make_generator(cfg.generator_spec(), seed=cfg["generator"]["weight_seed"])
    r = make_reward(cfg.reward_spec())
    return g, r


def _build_hypernoise(cfg: ExperimentConfig) -> tuple[Generator, Reward, NoiseHypernetwork]:
    """The generator, the reward and the untrained noise network."""
    g, r = _build(cfg)
    t = cfg["train"]
    return g, r, init_hypernet(g, rank=t["rank"], alpha=t["adapter_alpha"], seed=cfg.seed)


def _heldout_noise(cfg: ExperimentConfig, g: Generator) -> np.ndarray:
    rng = np.random.default_rng(cfg.seed + 900_000)
    return rng.standard_normal((cfg["evaluation"]["heldout"], g.latent_dim))


def _mean_pairwise(y: np.ndarray) -> float:
    """Mean Euclidean distance over the pairs i < j (nan below two rows),
    built one row at a time so the differences stay small."""
    dists = [np.linalg.norm(y[i + 1:] - y[i], axis=1) for i in range(len(y) - 1)]
    return float(np.mean(np.concatenate(dists))) if dists else float("nan")


def _fidelity_reference(cfg: ExperimentConfig, g: Generator,
                        steps: int = 1) -> Optional[np.ndarray]:
    """Base-model outputs at `steps` generation steps that the kNN fidelity
    is measured against, or None for the closed-form metric.  The draw is
    fixed by the seed, so a run makes it once per step count and reuses it
    at every evaluation."""
    if cfg["evaluation"]["fidelity_metric"] == "closed_form_gaussian_kl":
        return None
    rng = np.random.default_rng(cfg.seed + 910_000)
    return g.generate(rng.standard_normal((cfg["evaluation"]["heldout"], g.latent_dim)),
                      steps=steps)


def _modulated(ctx: RunContext, g: Generator, r: Reward, y_ref: Optional[np.ndarray],
               delta: np.ndarray, x_mod: np.ndarray,
               steps: int = 1) -> tuple[np.ndarray, float | oracles.Estimate]:
    """The reward per row of the modulated draws `x_mod`, and the
    distributional closeness of the modulated run to the base run: a float
    from the noise perturbation `delta`, or the kNN estimate running on the
    run's evaluator, which float() resolves.  Only the estimate needs the
    outputs whole; without one, the rewards stream through row blocks."""
    if y_ref is None:
        # noise-space KL in its L2 form; exact for constant shifts
        return (oracles.reward_values(g, r, x_mod, steps),
                float(0.5 * np.mean(np.sum(delta * delta, axis=1))))
    y_mod = g.generate(x_mod, steps=steps)
    estimate = ctx.evaluator.submit(y_mod, y_ref, d=g.manifold_dim)
    return r.evaluate_batch(y_mod), estimate


def _direct_curve(ctx: RunContext, g: Generator, r: Reward,
                  cfg: DirectFinetuneConfig) -> list[tuple]:
    """Train the direct fine-tune and return its (step, reward, drift) at
    each logged step.  Each drift is measured at once, charged to the
    evaluate phase; its kNN estimate runs on the run's evaluator while
    training goes on, and all are resolved, in submission order, after."""
    drifts = []

    def hook(step, adapted):
        with ctx.phase("evaluate"):
            drifts.append(measure_drift(adapted, cfg, step, ctx.evaluator.submit))

    _, rows = train_direct_finetune(g, r, cfg, eval_hook=hook)
    return [(step, reward, float(drift)) for (step, reward), drift in zip(rows, drifts)]


def _expect_method(cfg: ExperimentConfig, what: str, *methods: str):
    """Raise a ConfigError unless cfg's [run] method is one `what` runs."""
    if cfg.method not in methods:
        expected = f"{', '.join(methods[:-1])}, or {methods[-1]}" if methods[1:] else methods[0]
        raise ConfigError(f"[run] method: {what} expects {expected}, got {cfg.method!r}")


# ---------------------------------------------------------------------------
# Subcommand bodies (raise on failure; exit-code mapping happens in main)
# ---------------------------------------------------------------------------

def run_validate_theory(cfg: ExperimentConfig, ctx: RunContext) -> int:
    _echo_config(ctx, cfg)
    report = oracles.run_theory_suite(cfg["theory"]["n"], cfg.seed, ctx.phase)
    rows = [[c.name, c.statistic, c.tolerance, c.status] for c in report.checks]
    reporting.write_csv(ctx.path("report.csv"),
                        ["check", "statistic", "tolerance", "status"], rows)
    for c in report.checks:
        ctx.log(f"{c.name}: {c.status} (stat {c.statistic:.6g}, tol {c.tolerance:.6g})")
    if not report.all_pass():
        ctx.log("theory suite: FAIL")
        return 1
    ctx.log("theory suite: all checks pass")
    return 0


def run_train(cfg: ExperimentConfig, ctx: RunContext) -> int:
    n_div, heldout = cfg["evaluation"]["diversity_samples"], cfg["evaluation"]["heldout"]
    if n_div > heldout:     # diversity is measured on held-out rows; `diversity` draws its own
        raise ConfigError(f"[evaluation] diversity_samples: train averages that many of the "
                          f"heldout rows, so must be <= {heldout}, got {n_div}")
    _echo_config(ctx, cfg)
    with ctx.phase("build"):
        g, r, hn = _build_hypernoise(cfg)
    history = []
    try:
        with ctx.phase("train"):
            train_hypernoise(hn, g, r, cfg.train_config(), history=history)
    finally:    # an aborted training keeps the steps it logged
        with ctx.phase("write"):
            reporting.write_csv(ctx.path("history.csv"), HISTORY_COLUMNS, history)
    logged = dict(zip(HISTORY_COLUMNS, zip(*history)))     # column name -> values
    with ctx.phase("write"):
        save_checkpoint(ctx.path("checkpoint.bin"), hn,
                        extra={"steps": cfg["train"]["steps"], "seed": cfg.seed})

    with ctx.phase("evaluate"):
        x = _heldout_noise(cfg, g)
        delta = hn.perturb(x)
        x_mod = x + delta
        lip = hn.lipschitz_upper_bound()
        rows = []
        for gen_steps in cfg["evaluation"]["multi_step"]:
            vals, fidelity = _modulated(ctx, g, r, _fidelity_reference(cfg, g, gen_steps),
                                        delta, x_mod, gen_steps)
            base_mean = float(oracles.reward_values(g, r, x, gen_steps).mean())
            # a block of at least MIN_BLOCK_ROWS rows: very few rows would
            # take another BLAS path and change the last bits
            y_div = g.generate(x_mod[:max(n_div, rowblocks.MIN_BLOCK_ROWS)], steps=gen_steps)
            rows.append(["hypernoise", logged["step"][-1], gen_steps, float(vals.mean()),
                         float(vals.std(ddof=1) / np.sqrt(len(vals))), base_mean,
                         fidelity, _mean_pairwise(y_div[:n_div]), lip])
        for row in rows:    # the estimates, resolved in submission order
            row[6] = float(row[6])
            _, _, gen_steps, mean, _, base_mean, fidelity, _, _ = row
            ctx.log(f"steps={gen_steps}: reward {mean:.6g} (base {base_mean:.6g}), "
                    f"fidelity {fidelity:.6g}")

    with ctx.phase("write"):
        reporting.write_csv(ctx.path("report.csv"), REPORT_COLUMNS, rows)
        svg = reporting.svg_curve(
            [("loss", logged["step"], logged["loss"]),
             ("reward", logged["step"], logged["reward_term"])],
            title="training", xlabel="step")
        reporting.atomic_write(ctx.path("plots", "history.svg"), svg)
    return 0


def run_baseline(cfg: ExperimentConfig, ctx: RunContext) -> int:
    _echo_config(ctx, cfg)
    g, r = _build(cfg)
    base_mean = float(oracles.reward_values(g, r, _heldout_noise(cfg, g)).mean())
    rows = []
    if cfg.method == "noise_opt":
        res = noise_opt(g, r, cfg.noise_opt_config())
        fidelity = 0.5 * float(res.noise @ res.noise)
        rows.append(["noise_opt", cfg["noise_opt"]["steps"], 1, res.reward,
                     0.0, base_mean, fidelity, "", ""])
        ctx.log(f"noise_opt: reward {res.reward:.6g}, objective {res.objective:.6g}")
    elif cfg.method == "best_of_n":
        res = best_of_n(g, r, cfg["best_of_n"]["counts"], seed=cfg.seed)
        for n, best in zip(res.counts, res.best_rewards):
            rows.append(["best_of_n", n, 1, best, 0.0, base_mean, "", "", ""])
        ctx.log(f"best_of_n: best reward {res.best_rewards[-1]:.6g} "
                f"at n={res.counts[-1]}")
    else:
        with ctx.phase("train"):
            curve = _direct_curve(ctx, g, r, cfg.direct_ft_config())
        for step, rew, drift in curve:
            rows.append(["direct_ft", step, 1, rew, 0.0, base_mean, drift, "", ""])
        ctx.log(f"direct_ft: reward {curve[-1][1]:.6g}, final drift {curve[-1][2]:.6g}")
    reporting.write_csv(ctx.path("report.csv"), REPORT_COLUMNS, rows)
    return 0


def run_tradeoff(cfg_h: ExperimentConfig, cfg_d: ExperimentConfig,
                 ctx: RunContext) -> int:
    for section in ("generator", "reward"):     # the keys the direct fine-tune reads
        if any(cfg_h[section][key] != cfg_d[section][key] for key in cfg_d.applying(section)):
            raise ConfigError(f"tradeoff configs disagree in [{section}]")
    if cfg_h.seed != cfg_d.seed:
        raise ConfigError("tradeoff configs disagree on [run] seed")
    if cfg_h["train"]["steps"] != cfg_d["direct_ft"]["steps"]:
        raise ConfigError("tradeoff configs disagree on the step budget")
    if cfg_h["train"]["generation_steps"] != 1:     # both curves at the same step count
        raise ConfigError("[train] generation_steps: tradeoff compares against a direct "
                          "fine-tune, which generates in one step, so must be 1, "
                          f"got {cfg_h['train']['generation_steps']}")
    # a kNN estimate's bias depends on its sample count, so when both curves
    # are kNN estimates (eval_samples applies to a network's drift) they share one
    ev, samples = cfg_h["evaluation"], cfg_d["direct_ft"]["eval_samples"]
    if (ev["fidelity_metric"] == "knn_kl" and "eval_samples" in cfg_d.applying("direct_ft")
            and ev["heldout"] != samples):
        raise ConfigError("tradeoff configs disagree on the kNN sample count: [evaluation] "
                          f"heldout = {ev['heldout']}, [direct_ft] eval_samples = {samples}")
    _echo_config(ctx, cfg_h)
    with ctx.phase("build"):
        g, r, hn = _build_hypernoise(cfg_h)
        x = _heldout_noise(cfg_h, g)
    with ctx.phase("evaluate"):
        y_ref = _fidelity_reference(cfg_h, g)
    curve_h: list[tuple] = []      # (step, reward, fidelity or its Estimate)

    def hook(step, net):
        with ctx.phase("evaluate"):
            delta = net.perturb(x)
            vals, fidelity = _modulated(ctx, g, r, y_ref, delta, x + delta)
            curve_h.append((step, float(vals.mean()), fidelity))

    with ctx.phase("train"):
        train_hypernoise(hn, g, r, cfg_h.train_config(), eval_hook=hook)
        curve_d = _direct_curve(ctx, g, r, cfg_d.direct_ft_config())
    curve_h = [(s, rw, float(fi)) for s, rw, fi in curve_h]

    steps = sorted({s for s, _, _ in curve_h} | {s for s, _, _ in curve_d})
    h_map = {s: (rw, fi) for s, rw, fi in curve_h}
    d_map = {s: (rw, fi) for s, rw, fi in curve_d}
    rows = []
    for s in steps:
        hr, hf = h_map.get(s, ("", ""))
        dr, df = d_map.get(s, ("", ""))
        rows.append([s, hr, hf, dr, df])
    with ctx.phase("write"):
        reporting.write_csv(
            ctx.path("tradeoff.csv"),
            ["step", "hypernoise_reward", "hypernoise_fidelity",
             "direct_ft_reward", "direct_ft_fidelity"], rows)
        svg = reporting.svg_curve(
            [("hypernoise", [f for _, _, f in curve_h], [rw for _, rw, _ in curve_h]),
             ("direct_ft", [f for _, _, f in curve_d], [rw for _, rw, _ in curve_d])],
            title="reward vs fidelity cost", xlabel="fidelity (KL)", ylabel="reward")
        reporting.atomic_write(ctx.path("plots", "tradeoff.svg"), svg)
    ctx.log(f"tradeoff: {len(curve_h)} points (residual method), "
            f"{len(curve_d)} points (direct fine-tune)")
    return 0


def run_diversity(cfg: ExperimentConfig, ctx: RunContext) -> int:
    _echo_config(ctx, cfg)
    g, r, hn = _build_hypernoise(cfg)
    train_hypernoise(hn, g, r, cfg.train_config())
    ev, gen_steps = cfg["evaluation"], cfg["train"]["generation_steps"]
    n_samples = ev["diversity_samples"]
    rows = []
    base_vals, mod_vals = [], []
    for i in range(ev["diversity_seeds"]):
        rng = np.random.default_rng(cfg.seed + 700_000 + i)
        x = rng.standard_normal((n_samples, g.latent_dim))
        base = _mean_pairwise(g.generate(x, steps=gen_steps))
        mod = _mean_pairwise(g.generate(x + hn.perturb(x), steps=gen_steps))
        base_vals.append(base)
        mod_vals.append(mod)
        rows.append([str(i), base, mod])
    bmean, mmean = float(np.mean(base_vals)), float(np.mean(mod_vals))
    ratio = mmean / bmean if bmean else float("nan")    # nan: a constant generator
    rows.append(["mean", bmean, mmean])
    rows.append(["sd", float(np.std(base_vals, ddof=1)),
                 float(np.std(mod_vals, ddof=1))])
    reporting.write_csv(ctx.path("report.csv"),
                        ["seed", "base_mean_pairwise", "modulated_mean_pairwise"],
                        rows)
    svg = reporting.svg_bars(["base", "modulated"], [bmean, mmean],
                             title="output diversity", ylabel="mean pairwise distance")
    reporting.atomic_write(ctx.path("plots", "diversity.svg"), svg)
    ctx.log(f"diversity: base {bmean:.6g}, modulated {mmean:.6g} "
            f"(ratio {ratio:.4f})")
    return 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="noisetilt", description="noise-space reward tilting experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *methods) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if len(methods) > 1:
            p.add_argument("config_hypernoise")
            p.add_argument("config_direct")
        else:
            p.add_argument("--config", required=True)
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed-override", type=int, default=None)
        p.add_argument("--quiet", action="store_true")
    p_p = sub.add_parser("plot", help="render a CSV as a deterministic SVG")
    p_p.add_argument("csv_path")
    p_p.add_argument("--kind", choices=["curve", "bars"], required=True)
    p_p.add_argument("--out", required=True)
    p_p.add_argument("--title", default="")
    p_p.add_argument("--quiet", action="store_true")

    args = parser.parse_args(argv)

    if args.command == "plot":
        try:
            reporting.plot_csv(args.csv_path, args.kind, args.out, title=args.title)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not args.quiet:
            print(f"wrote {args.out}")
        return 0

    methods = SUBCOMMANDS[args.command][1:]
    try:
        paths = [args.config_hypernoise, args.config_direct] if len(methods) > 1 else [args.config]
        cfgs = [load_config(path) for path in paths]
        if args.seed_override is not None:
            try:
                seed = parse_seed(args.seed_override)
            except ValueError as exc:
                raise ConfigError(f"--seed-override: {exc}") from None
            for cfg in cfgs:
                cfg["run"]["seed"] = seed
        out_dir = args.out or cfgs[0]["run"]["out_dir"]
        ctx = RunContext(out_dir, args.quiet)
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out_dir}: "
                              f"{exc.strerror or exc}") from None
        for i, (cfg, allowed) in enumerate(zip(cfgs, methods)):
            _expect_method(cfg, f"{args.command}'s second config" if i else args.command,
                           *allowed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    # wall times depend on how many threads the kNN queries, the theory
    # suite's row blocks and the wide training layers had
    ctx.log(f"workers {rowblocks.WORKERS}")
    # looked up per call, so a wrapper rebound over a run_* name is the one called
    run = {"validate-theory": run_validate_theory, "train": run_train,
           "baseline": run_baseline, "tradeoff": run_tradeoff,
           "diversity": run_diversity}[args.command]
    try:
        try:
            code = run(*cfgs, ctx)
        finally:
            # an estimate still in flight was submitted before anything
            # raised here, so its error is the one to report
            ctx.evaluator.close()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        ctx.fail(f"{type(exc).__name__}: {exc}")
        print(f"runtime failure: {exc}", file=sys.stderr)
        if not args.quiet:
            traceback.print_exc()
        return 1
    ctx.finish()
    return code


if __name__ == "__main__":
    sys.exit(main())
