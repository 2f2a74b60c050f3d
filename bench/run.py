"""noisetilt benchmark: end-to-end run metrics and a traced per-layer breakdown.

    python3 bench/run.py --workload paper-small --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each pass is one fresh interpreter
(``bench/child.py``) with BLAS threads pinned to 1 that runs the workload's
CLI calls in order: a closed loop with one client.  Passes repeat while the
next one is expected to end within ``--seconds`` (at least two), and every
metric is the median over passes; setup_s also takes set-up-only
interpreters.  With ``--trace 1`` passes alternate between traced and
untraced; the per-layer metrics come from the traced ones, and the traced
minus untraced run_s is the tracing overhead.

Every CLI call is one operation.  It fails on a non-zero exit, a missing
artifact or FAILED marker, a non-finite number in report.csv or
tradeoff.csv, a theory check that does not pass, or output bytes (all but
run.log) that differ from the first pass of the same seed.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import END_TO_END, PER_LAYER, PROCESS_METRICS, WORKLOADS, Workload, exact_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ".bench_work"
HARD_LIMIT_S = 150.0     # stop starting passes so that a run ends within 180 s
BLAS_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
CHECKED_CSVS = ("report.csv", "tradeoff.csv")
MIN_PASSES = 2
SETUP_PROBES = 1         # set-up-only interpreters after each untraced pass


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------

def run_pass(wl: Workload, seed: int, pass_dir: Path, traced: bool,
             timeout: float, setup_only: bool = False) -> dict:
    """Run one fresh interpreter over the workload (or only its set-up);
    returns its result, or {"error": ...} when the interpreter failed."""
    pass_dir.mkdir(parents=True, exist_ok=True)
    spec = wl.to_json()
    if setup_only:
        spec["calls"] = []
    spec_path = pass_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    result_path = pass_dir / "result.json"
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [str(BENCH_DIR / "child.py"), str(spec_path), str(pass_dir), str(seed),
            str(result_path)] + (["--trace"] if traced else [])
    env = dict(os.environ, **BLAS_ENV)
    env.pop("PYTHONPATH", None)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {timeout:.0f} s",
                "wall_s": time.perf_counter() - t0}
    wall = time.perf_counter() - t0
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"child exited {proc.returncode}: {' | '.join(tail)}", "wall_s": wall}
    result = json.loads(result_path.read_text())
    result["wall_s"] = wall
    if traced:
        result["import_scipy_s"] = scipy_import_seconds(proc.stderr)
    return result


def scipy_import_seconds(importtime_log: str) -> float:
    """Sum of the self times of scipy modules in a `-X importtime` log."""
    total_us = 0
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        module = parts[2].strip()
        if module == "scipy" or module.startswith("scipy."):
            try:
                total_us += int(parts[0])
            except ValueError:
                continue            # the header line
    return total_us / 1e6


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def digest_tree(directory: Path) -> dict:
    """sha256 of every file below `directory` except run.log (timings)."""
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file() and path.name != "run.log":
            out[str(path.relative_to(directory))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def nonfinite_cells(path: Path) -> list:
    """Cells of a CSV that parse as numbers but are not finite."""
    bad = []
    with open(path, newline="") as fh:
        for r, row in enumerate(csv.reader(fh)):
            for c, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    bad.append(f"row {r} col {c} = {cell}")
    return bad


def check_call(call, code: int, call_dir: Path, reference: dict | None) -> list:
    """Problems with one CLI call's outcome; empty when it succeeded."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if (call_dir / "FAILED").exists():
        problems.append("FAILED marker present")
    for name in call.artifacts:
        if not (call_dir / name).is_file():
            problems.append(f"missing artifact {name}")
    for name in CHECKED_CSVS:
        path = call_dir / name
        if path.is_file():
            problems += [f"{name}: non-finite {cell}" for cell in nonfinite_cells(path)]
    if call.argv[0] == "validate-theory" and (call_dir / "report.csv").is_file():
        with open(call_dir / "report.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                if row["status"] != "pass":
                    problems.append(f"theory check {row['check']}: {row['status']}")
    if reference is not None and call_dir.is_dir():
        digests = digest_tree(call_dir)
        differ = sorted(k for k in set(digests) | set(reference)
                        if digests.get(k) != reference.get(k))
        if differ:
            problems.append(f"output bytes differ from the first pass: {differ}")
    return problems


def reward_mean(report: Path):
    """Final hypernoise reward_mean at generation_steps 1, or None."""
    if not report.is_file():
        return None
    with open(report, newline="") as fh:
        for row in csv.DictReader(fh):
            if row.get("method") == "hypernoise" and row.get("generation_steps") == "1":
                return float(row["reward_mean"])
    return None


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def layer_values(summary: dict) -> dict:
    """Per-layer metrics of one traced pass (process metrics excluded)."""
    spans, counts = summary["spans"], summary["counts"]
    out = {}
    for m in PER_LAYER:
        if m.name in PROCESS_METRICS:
            continue
        span, _, field = m.name.rpartition(".")
        if span in spans and field in spans[span]:
            out[m.name] = spans[span][field]
        elif field in ("calls", "s", "self_s", "p50_ms", "p95_ms"):
            out[m.name] = 0 if field == "calls" else 0.0
        else:
            out[m.name] = counts.get(m.name, 0)
    gen_s = out["generators.generate.s"]
    out["generators.generate.gflops_per_s"] = (
        out["generators.generate.flops"] / gen_s / 1e9 if gen_s > 0 else 0.0)
    clip_calls = out["training.clip_global_norm.calls"]
    out["training.clip_ratio"] = (
        out["training.clip_global_norm.clipped"] / clip_calls if clip_calls else 0.0)
    n_rate = counts.get("oracles.sample_tilted_noise.acceptance_n", 0)
    out["oracles.sample_tilted_noise.acceptance_rate"] = (
        counts.get("oracles.sample_tilted_noise.acceptance_sum", 0.0) / n_rate if n_rate else 0.0)
    return out


def _median(values):
    return statistics.median(values) if values else float("nan")


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat passes for about `seconds` and check every call; returns the
    record.  Untraced runs add SETUP_PROBES set-up-only interpreters after
    each pass, so that setup_s is a median over many samples."""
    work = ROOT / WORK_DIR / wl.name / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    warm = run_pass(wl, seed, work / "warmup", False, HARD_LIMIT_S,
                    setup_only=True)                 # writes bytecode caches
    if "error" in warm:
        return {"workload": wl.name, "seed": seed, "fatal": warm["error"]}

    passes, setups, problems, cycles = [], [], [], []
    references: list = [None] * len(wl.calls)
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        t_cycle = time.perf_counter()
        traced = trace and len(passes) % 2 == 0
        res = run_pass(wl, seed, work / f"pass{len(passes)}", traced,
                       HARD_LIMIT_S + 20 - (t_cycle - t_start))
        res["traced"] = traced
        passes.append(res)
        for i, call in enumerate(wl.calls):
            attempted += 1
            call_dir = work / f"pass{len(passes) - 1}" / f"call{i}"
            if "error" in res:
                issues = [res["error"]]
            else:
                issues = check_call(call, res["calls"][i]["code"], call_dir, references[i])
                if references[i] is None and call_dir.is_dir():
                    references[i] = digest_tree(call_dir)
            if issues:
                failed += 1
                problems.append(f"pass {len(passes) - 1} call {i} ({call.argv[0]}): "
                                + "; ".join(issues))
        for _ in range(0 if trace else SETUP_PROBES):
            probe = run_pass(wl, seed, work / f"setup{len(setups)}", False, 60,
                             setup_only=True)
            if "error" in probe:
                problems.append(f"set-up probe {len(setups)}: {probe['error']}")
            setups.append(probe)
        now = time.perf_counter()
        cycles.append(now - t_cycle)
        n_traced = sum(1 for p in passes if p["traced"])
        enough = len(passes) >= MIN_PASSES and (
            not trace or (n_traced >= 2 and len(passes) - n_traced >= 1))
        next_end = now - t_start + _median(cycles[-2:])
        if enough and next_end > seconds:
            break
        if next_end > HARD_LIMIT_S:
            if not enough:
                problems.append(f"time limit reached after {len(passes)} passes")
            break

    ok = [p for p in passes if "error" not in p]
    plain = [p for p in ok if not p["traced"]]
    traced_ok = [p for p in ok if p["traced"]]
    record = {
        "workload": wl.name, "seed": seed, "trace": trace, "seconds": seconds,
        "passes": len(passes), "attempted": attempted, "failed": failed,
        "problems": problems,
        "call_names": [c.argv[0] for c in wl.calls],
        "calls_wall_s": [_median([p["calls"][i]["wall_s"] for p in plain])
                         for i in range(len(wl.calls))],
        "reward_mean": None,
        "env": dict(ok[0]["env"] if ok else {}, nproc=os.cpu_count(),
                    blas_threads=BLAS_ENV["OPENBLAS_NUM_THREADS"],
                    git_sha=git_sha(), src_digest=src_digest()),
    }
    for i, call in enumerate(wl.calls):
        if call.argv[0] == "train" and record["reward_mean"] is None:
            record["reward_mean"] = reward_mean(work / "pass0" / f"call{i}" / "report.csv")
    record["metrics"] = {
        "setup_s": _median([p["setup_s"] for p in plain + setups if "error" not in p]),
        "run_s": _median([p["run_s"] for p in plain]),
        "cpu_s": _median([p["cpu_s"] for p in plain]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
    }
    if trace:
        record["layers"] = traced_layers(traced_ok, plain, problems)
        record["top_self_s"] = top_self_times(traced_ok)
    record["correct"] = failed == 0 and not problems and bool(plain)
    return record


def traced_layers(traced: list, plain: list, problems: list) -> dict:
    """Per-layer metrics: medians of times over traced passes; counts must
    repeat exactly; process metrics from the untraced passes."""
    if not traced:
        problems.append("no traced pass finished")
        return {}
    for i, p in enumerate(traced):
        if p["missing_spans"]:
            problems.append(f"traced pass {i}: spans never fired: {p['missing_spans']}")
    per_pass = [layer_values(p["trace"]) for p in traced]
    exact = exact_metrics()
    out = {}
    for name in per_pass[0]:
        values = [v[name] for v in per_pass]
        if name in exact:
            if len(set(values)) != 1:
                problems.append(f"count {name} differs across traced passes: {values}")
            out[name] = values[0]
        else:
            out[name] = _median(values)
    out["setup.import_s"] = _median([p["import_s"] for p in plain])
    out["setup.import_scipy_s"] = _median([p["import_scipy_s"] for p in traced])
    out["process.sys_s"] = _median([p["sys_s"] for p in plain])
    out["process.minor_faults"] = _median([p["minor_faults"] for p in plain])
    out["trace.overhead_s"] = (_median([p["run_s"] for p in traced])
                               - _median([p["run_s"] for p in plain]))
    return out


def top_self_times(traced: list, n: int = 5) -> list:
    """The spans with the largest median self time, over every span traced."""
    names = {name for p in traced for name in p["trace"]["spans"]}
    medians = {name: _median([p["trace"]["spans"].get(name, {}).get("self_s", 0.0)
                              for p in traced]) for name in names}
    return sorted(medians.items(), key=lambda kv: -kv[1])[:n]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_digest() -> str:
    """Identifies the measured sources where no git metadata exists."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def report_lines(rec: dict) -> list:
    m = rec["metrics"]
    units = {e.name: e.unit for e in END_TO_END}
    rate = rec["failed"] / rec["attempted"] if rec["attempted"] else float("nan")
    lines = [
        f"{rec['workload']}  seed {rec['seed']}  trace {int(rec['trace'])}  "
        f"passes {rec['passes']}  env {json.dumps(rec['env'], sort_keys=True)}",
        "  " + "  ".join(f"{k} {v:.4g} {units[k]}" for k, v in m.items())
        + f"  error_rate {rate:.4g} ({rec['failed']}/{rec['attempted']} calls)"
        + (f"  reward_mean {rec['reward_mean']:.6g}" if rec["reward_mean"] is not None else ""),
        "  call wall s (median): " + ", ".join(
            f"{name} {t:.3f}" for name, t in zip(rec["call_names"], rec["calls_wall_s"])),
    ]
    if rec.get("layers"):
        for metric in PER_LAYER:
            lines.append(f"  {metric.name:48s} {rec['layers'][metric.name]:>14.6g} "
                         f"{metric.unit:8s} moves: {metric.moves}")
        lines.append("  largest self times: " + ", ".join(
            f"{name} {s:.4g} s" for name, s in rec["top_self_s"]))
    lines += [f"  problem: {p}" for p in rec["problems"]]
    return lines


def result_json(records: list, trace: bool) -> dict:
    names = PER_LAYER if trace else END_TO_END
    metrics = {}
    for rec in records:
        values = rec["layers"] if trace else rec["metrics"]
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        for metric in names:
            metrics[prefix + metric.name] = {"value": values.get(metric.name, float("nan")),
                                             "unit": metric.unit}
    return {"correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "noisetilt" / "cli.py").is_file():
        print(f"error: no noisetilt sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        rec = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        if "fatal" in rec:
            print(f"error: {name}: {rec['fatal']}", file=sys.stderr)
            return 1
        records.append(rec)
        for line in report_lines(rec):
            print(line)
        out = ROOT / WORK_DIR / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(rec, indent=1, sort_keys=True))
    result = result_json(records, bool(args.trace))
    if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
        print("error: a metric could not be measured", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
