"""Workloads and metric tables of the noisetilt benchmark.

A workload is a fixed list of CLI calls, run one after another in one fresh
interpreter (a closed loop with a single client).  Configs live in
``bench/configs``; the benchmark seed reaches the program only as
``--seed-override``.  ``BENCHMARK.json`` mirrors the tables below, and
``test_bench.py`` checks that the two agree.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

CONFIG_DIR = os.path.join("bench", "configs")

TRAIN_ARTIFACTS = ("report.csv", "history.csv", "checkpoint.bin",
                   "config-resolved.ini", "run.log", "plots/history.svg")
BASELINE_ARTIFACTS = ("report.csv", "config-resolved.ini", "run.log")
TRADEOFF_ARTIFACTS = ("tradeoff.csv", "config-resolved.ini", "run.log",
                      "plots/tradeoff.svg")
THEORY_ARTIFACTS = ("report.csv", "config-resolved.ini", "run.log")


@dataclass(frozen=True)
class Call:
    """One CLI call; `--out`, `--seed-override` and `--quiet` are appended."""
    argv: tuple
    artifacts: tuple

    @property
    def configs(self) -> tuple:
        a = self.argv
        if a[0] == "tradeoff":
            return a[1], a[2]
        return tuple(a[i + 1] for i, v in enumerate(a) if v == "--config")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple
    spans: tuple    # spans the traced run must see fire at least once

    @property
    def configs(self) -> tuple:
        seen = []
        for call in self.calls:
            seen.extend(c for c in call.configs if c not in seen)
        return tuple(seen)

    def to_json(self) -> dict:
        return {"name": self.name, "why": self.why, "spans": list(self.spans),
                "configs": list(self.configs),
                "calls": [{"argv": list(c.argv), "artifacts": list(c.artifacts)}
                          for c in self.calls]}


def _cfg(name: str) -> str:
    return os.path.join(CONFIG_DIR, name)


_TRAINING_SPANS = (
    "config.load_config", "generators.make_generator", "generators.generate",
    "generators.node", "hypernet.init_hypernet", "hypernet.perturb",
    "hypernet.delta_node", "hypernet.lipschitz_upper_bound",
    "rewards.evaluate_batch", "rewards.node_rows", "objectives.hypernoise_loss",
    "autodiff.backprop", "training.train_hypernoise", "training.optimizer_update",
    "training.clip_global_norm", "training.save_checkpoint", "linalg.spectral_norm",
    "reporting.write_csv", "reporting.atomic_write", "reporting.svg_curve",
    "cli.run_train",
)

WORKLOADS = {w.name: w for w in (
    Workload(
        "paper-small",
        "README config: train, noise_opt, best_of_n, tradeoff; small tensors, "
        "per-call overhead and kNN-KL fidelity (repeated reference sets) dominate",
        (Call(("train", "--config", _cfg("paper_small.ini")), TRAIN_ARTIFACTS),
         Call(("baseline", "--config", _cfg("noise_opt.ini")), BASELINE_ARTIFACTS),
         Call(("baseline", "--config", _cfg("best_of_n.ini")), BASELINE_ARTIFACTS),
         Call(("tradeoff", _cfg("paper_small.ini"), _cfg("direct_ft.ini")),
              TRADEOFF_ARTIFACTS)),
        _TRAINING_SPANS + (
            "cli.run_baseline", "cli.run_tradeoff", "baselines.noise_opt",
            "baselines.best_of_n", "baselines.train_direct_finetune",
            "baselines.adapted_node", "oracles.kl_knn"),
    ),
    Workload(
        "train-wide",
        "train at latent 64 -> 3072 outputs, batch 128, closed-form fidelity: "
        "BLAS-bound tape matmuls and allocations; makes no kNN call",
        (Call(("train", "--config", _cfg("train_wide.ini")), TRAIN_ARTIFACTS),),
        _TRAINING_SPANS,
    ),
    Workload(
        "theory-audit",
        "validate-theory at n = 100000: large forward-only batches, tilted "
        "sampling, Stein probes, low-dim kNN, spectral norms and log-dets",
        (Call(("validate-theory", "--config", _cfg("theory_audit.ini")),
              THEORY_ARTIFACTS),),
        ("config.load_config", "cli.run_validate_theory", "oracles.run_theory_suite",
         "oracles.sample_tilted_noise", "oracles.pushforward_check",
         "oracles.stein_check", "oracles.kl_knn", "oracles.dpi_check",
         "oracles.bilipschitz_check", "generators.make_generator",
         "generators.generate", "hypernet.init_hypernet", "hypernet.perturb",
         "hypernet.delta_node", "hypernet.jacobian_batch",
         "hypernet.lipschitz_upper_bound", "rewards.evaluate_batch",
         "objectives.exact_noise_kl", "autodiff.backprop", "linalg.logdet_and_trace",
         "linalg.spectral_norm", "linalg.jacobian_fd", "reporting.write_csv",
         "reporting.atomic_write"),
    ),
)}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float = 0.0          # end-to-end metrics only
    moves: str = ""             # per-layer metrics: which end-to-end metric, where


# Bounds: on a shared 2-core machine one pass's run time varies by about 9%,
# and the machine's speed drifts by up to 30% within minutes (import time,
# the same work on every seed, drifts with it), so run medians spread by
# 8-15% over ten seeds and the time bounds sit at the 0.25 ceiling.  Peak
# memory repeats to within 1%.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("run_s", "s", "lower", 0.25),
    Metric("cpu_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
)


def _group(moves: str, *specs: str) -> list:
    """Per-layer metrics sharing one prediction; a spec is 'name unit better'."""
    out = []
    for spec in specs:
        name, unit, better = spec.split()
        out.append(Metric(name, unit, better, moves=moves))
    return out


PER_LAYER = tuple(
    _group("run_s, cpu_s on paper-small; a little on theory-audit; none on train-wide",
           "oracles.kl_knn.calls count lower", "oracles.kl_knn.s s lower",
           "oracles.kl_knn.points count lower", "oracles.kl_knn.repeated_ref count lower")
    + _group("run_s on theory-audit",
             "oracles.sample_tilted_noise.calls count lower",
             "oracles.sample_tilted_noise.s s lower",
             "oracles.sample_tilted_noise.acceptance_rate ratio higher",
             "oracles.stein_check.s s lower", "oracles.pushforward_check.s s lower",
             "oracles.dpi_check.s s lower", "oracles.bilipschitz_check.s s lower",
             "oracles.run_theory_suite.self_s s lower")
    + _group("run_s on train-wide (BLAS regime) and paper-small (overhead regime); "
             "about zero share on theory-audit",
             "autodiff.backprop.calls count lower", "autodiff.backprop.s s lower",
             "autodiff.nodes count lower")
    + _group("run_s on train-wide and paper-small",
             "objectives.hypernoise_loss.calls count lower",
             "objectives.hypernoise_loss.s s lower",
             "objectives.hypernoise_loss.self_s s lower",
             "objectives.hypernoise_loss.p50_ms ms lower",
             "objectives.hypernoise_loss.p95_ms ms lower")
    + _group("run_s on theory-audit, the only workload that calls it",
             "objectives.exact_noise_kl.s s lower")
    + _group("run_s on theory-audit",
             "generators.generate.calls count lower", "generators.generate.rows count lower",
             "generators.generate.s s lower", "generators.generate.flops flop lower",
             "generators.generate.gflops_per_s Gflop/s higher")
    + _group("run_s on train-wide", "generators.node.calls count lower",
             "generators.node.s s lower")
    + _group("run_s on every workload (small)", "generators.make_generator.s s lower")
    + _group("run_s on theory-audit", "hypernet.perturb.calls count lower",
             "hypernet.perturb.rows count lower", "hypernet.perturb.s s lower")
    + _group("run_s on train-wide", "hypernet.delta_node.calls count lower",
             "hypernet.delta_node.s s lower")
    + _group("run_s on theory-audit", "hypernet.jacobian_batch.calls count lower",
             "hypernet.jacobian_batch.s s lower")
    + _group("run_s on every workload (small)", "hypernet.lipschitz_upper_bound.s s lower",
             "hypernet.init_hypernet.s s lower")
    + _group("run_s on theory-audit and paper-small",
             "rewards.evaluate_batch.calls count lower",
             "rewards.evaluate_batch.rows count lower", "rewards.evaluate_batch.s s lower",
             "rewards.node_rows.calls count lower", "rewards.node_rows.s s lower")
    + _group("run_s on paper-small",
             "training.train_hypernoise.s s lower", "training.train_hypernoise.self_s s lower",
             "training.optimizer_update.calls count lower",
             "training.optimizer_update.s s lower",
             "training.clip_global_norm.calls count lower",
             "training.clip_global_norm.clipped count lower",
             "training.clip_ratio ratio lower",
             "training.save_checkpoint.s s lower", "training.save_checkpoint.bytes bytes lower",
             "baselines.noise_opt.calls count lower", "baselines.noise_opt.s s lower",
             "baselines.best_of_n.s s lower", "baselines.train_direct_finetune.s s lower",
             "baselines.train_direct_finetune.self_s s lower",
             "baselines.adapted_node.s s lower")
    + _group("run_s on theory-audit",
             "linalg.logdet_and_trace.calls count lower", "linalg.logdet_and_trace.s s lower",
             "linalg.spectral_norm.calls count lower", "linalg.spectral_norm.s s lower",
             "linalg.jacobian_fd.calls count lower", "linalg.jacobian_fd.s s lower")
    + _group("run_s on paper-small",
             "reporting.write_csv.calls count lower", "reporting.write_csv.s s lower",
             "reporting.write_csv.bytes bytes lower", "reporting.atomic_write.calls count lower",
             "reporting.atomic_write.s s lower", "reporting.atomic_write.bytes bytes lower",
             "reporting.svg_curve.s s lower")
    + _group("setup_s on every workload", "config.load_config.s s lower")
    + _group("run_s on the workload that makes the call; self time is evaluation glue "
             "(held-out draws, fidelity set-up)",
             "cli.run_train.s s lower", "cli.run_train.self_s s lower",
             "cli.run_baseline.s s lower", "cli.run_tradeoff.s s lower",
             "cli.run_tradeoff.self_s s lower", "cli.run_validate_theory.s s lower")
    + _group("setup_s on every workload", "setup.import_s s lower",
             "setup.import_scipy_s s lower")
    + _group("run_s and peak_rss_mb on train-wide", "process.sys_s s lower",
             "process.minor_faults count lower")
    + _group("none: traced run_s minus untraced run_s", "trace.overhead_s s lower")
)

# Per-layer metrics that are properties of the program's work, not of the
# clock: they must repeat exactly across runs of one seed.
EXACT_UNITS = ("count", "flop", "ratio")
PROCESS_METRICS = ("setup.import_s", "setup.import_scipy_s", "process.sys_s",
                   "process.minor_faults", "trace.overhead_s")


def exact_metrics() -> list:
    return [m.name for m in PER_LAYER
            if m.unit in EXACT_UNITS and m.name not in PROCESS_METRICS]
