"""Tests of the benchmark harness itself (not collected by the repo's suite).

    python3 -m pytest -q bench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from tracer import Tracer, instrument, missing_spans
from workloads import END_TO_END, PER_LAYER, WORKLOADS, Call, Workload, exact_metrics

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_json_matches_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert doc["end_to_end"] == [{"name": m.name, "unit": m.unit, "better": m.better,
                                  "bound": m.bound} for m in END_TO_END]
    assert doc["per_layer"] == [{"name": m.name, "unit": m.unit, "better": m.better}
                                for m in PER_LAYER]
    assert max(m.bound for m in END_TO_END) == END_TO_END[0].bound  # setup_s widest


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_arithmetic_on_fake_nested_call():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner(cost):
        clock.now += cost

    inner_w = tracer.wrap("inner", inner)

    def outer():
        clock.now += 1.0
        inner_w(2.0)
        clock.now += 0.5
        inner_w(3.0)
        clock.now += 0.25

    def recursive(depth):
        clock.now += 1.0
        if depth:
            recursive_w(depth - 1)

    recursive_w = tracer.wrap("recursive", recursive)
    tracer.wrap("outer", outer)()
    recursive_w(2)
    spans = tracer.summary()["spans"]
    assert spans["outer"] == pytest.approx(
        {"calls": 1, "s": 6.75, "self_s": 1.75, "p50_ms": 6750.0, "p95_ms": 6750.0})
    assert spans["inner"]["calls"] == 2
    assert spans["inner"]["s"] == pytest.approx(5.0)
    assert spans["inner"]["self_s"] == pytest.approx(5.0)
    assert spans["inner"]["p50_ms"] == pytest.approx(2000.0)
    assert spans["inner"]["p95_ms"] == pytest.approx(3000.0)
    # nested calls of one name: inclusive time counts the outermost span once
    assert spans["recursive"]["calls"] == 3
    assert spans["recursive"]["s"] == pytest.approx(3.0)
    assert spans["recursive"]["self_s"] == pytest.approx(3.0)


def test_instrument_rebinds_every_import_site():
    sys.path.insert(0, str(ROOT / "src"))
    import noisetilt.cli as cli
    from noisetilt import baselines, config, objectives, oracles, training
    originals = (oracles.kl_knn, objectives.hypernoise_loss, config.load_config,
                 training.clip_global_norm)
    tracer = Tracer()
    undo = instrument(tracer)
    try:
        for module_fn, *importers in (
                (oracles.kl_knn, cli.kl_knn, baselines.kl_knn),
                (objectives.hypernoise_loss, training.hypernoise_loss),
                (config.load_config, cli.load_config),
                (training.clip_global_norm, baselines.clip_global_norm),
                (training.train_hypernoise, cli.train_hypernoise),
                (baselines.noise_opt, cli.noise_opt)):
            assert hasattr(module_fn, "__wrapped__")
            assert all(f is module_fn for f in importers)
        rng = np.random.default_rng(0)
        p, q = rng.standard_normal((2, 20, 2))
        oracles.kl_knn(p, q)
        oracles.kl_knn(q, q.copy())
        assert tracer.summary()["spans"]["oracles.kl_knn"]["calls"] == 2
        assert tracer.counts["oracles.kl_knn.repeated_ref"] == 1
        assert missing_spans(tracer.summary(), ["oracles.kl_knn", "linalg.jacobian_fd"]) \
            == ["linalg.jacobian_fd"]
    finally:
        undo()
    assert (oracles.kl_knn, objectives.hypernoise_loss, config.load_config,
            training.clip_global_norm) == originals
    assert cli.kl_knn is oracles.kl_knn and baselines.clip_global_norm is originals[3]


_TINY = """
[run]
method = {method}
seed = 1
[generator]
variant = decoder
latent_dim = 4
height = 2
width = 2
hidden = 8
[reward]
variant = redness
[evaluation]
heldout = 200
diversity_samples = 16
"""


def _tiny_workload(tmp_path: Path) -> Workload:
    hyper = tmp_path / "hyper.ini"
    hyper.write_text(_TINY.format(method="hypernoise")
                     + "[train]\nsteps = 20\noptimizer = adam\nalpha = 0.01\n")
    direct = tmp_path / "direct.ini"
    direct.write_text(_TINY.format(method="direct_ft")
                      + "[direct_ft]\nsteps = 20\neval_every = 10\neval_samples = 200\n")
    return Workload(
        "harness-test", "tiny workload for the harness tests",
        (Call(("train", "--config", str(hyper)), run.WORKLOADS["train-wide"].calls[0].artifacts),
         Call(("tradeoff", str(hyper), str(direct)), run.WORKLOADS["paper-small"].calls[3].artifacts),
         Call(("train", "--config", str(tmp_path / "missing.ini")), ("report.csv",))),
        ("objectives.hypernoise_loss", "oracles.kl_knn", "baselines.train_direct_finetune"))


def test_traced_counts_repeat_and_injected_failure_is_counted(tmp_path):
    wl = _tiny_workload(tmp_path)
    rec = run.measure(wl, seed=5, seconds=0.0, trace=True)
    assert rec["passes"] == 3                      # traced, untraced, traced
    assert rec["attempted"] == 9
    assert rec["failed"] == 3                      # the bad config path, every pass
    assert all("call 2 (train): exit code 2" in p for p in rec["problems"]), rec["problems"]
    assert not rec["correct"]
    layers = rec["layers"]
    assert layers["objectives.hypernoise_loss.calls"] == 40
    # train's fidelity, then 3 logged steps each of hypernoise and direct_ft;
    # the 3 hypernoise hooks reuse train's reference sample
    assert layers["oracles.kl_knn.calls"] == 1 + 3 + 3
    assert layers["oracles.kl_knn.repeated_ref"] == 3
    assert layers["autodiff.nodes"] > 0
    assert set(exact_metrics()) <= set(layers)


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_check_call_flags_each_kind_of_bad_output(tmp_path):
    theory = Call(("validate-theory", "--config", "x.ini"), ("report.csv", "run.log"))
    good = tmp_path / "good"
    _write(good / "report.csv", "check,statistic,tolerance,status\nknn_null,0.01,0.05,pass\n")
    _write(good / "run.log", "wall_time_s 1.0\n")
    reference = run.digest_tree(good)
    assert run.check_call(theory, 0, good, reference) == []

    bad = tmp_path / "bad"
    _write(bad / "report.csv", "check,statistic,tolerance,status\nknn_null,nan,0.05,fail\n")
    _write(bad / "FAILED", "boom\n")
    problems = run.check_call(theory, 1, bad, reference)
    assert "exit code 1" in problems
    assert "FAILED marker present" in problems
    assert "missing artifact run.log" in problems
    assert any("non-finite" in p for p in problems)
    assert "theory check knn_null: fail" in problems
    assert any(p.startswith("output bytes differ") for p in problems)


def test_scipy_import_seconds_parses_importtime_log():
    log = ("import time: self [us] | cumulative | imported package\n"
           "import time:       100 |        100 |   numpy.core\n"
           "import time:       250 |        900 | scipy.spatial\n"
           "import time:        50 |         50 |     scipy\n")
    assert run.scipy_import_seconds(log) == pytest.approx(300e-6)


def test_exits_nonzero_without_result_when_sources_are_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "paper-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
