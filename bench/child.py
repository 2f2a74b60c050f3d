"""One pass of a workload in a fresh interpreter.

Run by ``run.py`` with BLAS threads pinned through the environment before
numpy loads.  It imports ``noisetilt`` from the checkout's ``src``, loads
the workload's configs (set-up), runs the workload's CLI calls through
``noisetilt.cli.main`` one after another, and writes a JSON result.

    python3 bench/child.py SPEC_JSON OUT_DIR SEED RESULT_JSON [--trace]
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time

from tracer import Tracer, instrument, missing_spans


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main(argv) -> int:
    spec_path, out_dir, seed, result_path = argv[:4]
    trace = "--trace" in argv[4:]
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import noisetilt.cli as cli
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != src:
        raise RuntimeError(f"imported noisetilt from {cli.__file__}, not from {src}")
    tracer = Tracer() if trace else None
    if tracer is not None:
        instrument(tracer)
    config_errors = []
    for path in spec["configs"]:
        try:
            cli.load_config(path)
        except cli.ConfigError as exc:       # the CLI call will report it too
            config_errors.append(str(exc))
    setup_s = time.perf_counter() - t0

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    calls = []
    for i, call in enumerate(spec["calls"]):
        c0 = time.perf_counter()
        argv_i = call["argv"] + ["--out", os.path.join(out_dir, f"call{i}"),
                                 "--seed-override", seed, "--quiet"]
        try:
            code = cli.main(argv_i)
        except SystemExit as exc:        # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        calls.append({"code": code, "wall_s": time.perf_counter() - c0})
    run_s = time.perf_counter() - w0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    import numpy
    import scipy
    result = {
        "import_s": import_s,
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": _cpu(ru1) - _cpu(ru0),
        "sys_s": ru1.ru_stime - ru0.ru_stime,
        "minor_faults": ru1.ru_minflt - ru0.ru_minflt,
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,      # ru_maxrss is in KiB on Linux
        "calls": calls,
        "config_errors": config_errors,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__},
    }
    if tracer is not None:
        summary = tracer.summary()
        result["trace"] = summary
        result["missing_spans"] = missing_spans(summary, spec["spans"])
        with open(os.path.join(out_dir, "spans.json"), "w") as fh:
            json.dump(tracer.spans, fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
