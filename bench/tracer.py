"""Outside-in tracing of noisetilt's layers.

`instrument` wraps each layer's public functions and methods in a span.  A
function that other modules imported by name (``from .oracles import
kl_knn``) is rebound in every noisetilt module that holds it, so no call
site escapes the wrapper.  Spans stay in memory and are summarised once the
pass ends; a layer's self time is its span minus the time its direct child
spans cover.
"""
from __future__ import annotations

import functools
import hashlib
import math
import os
import sys
import time
from collections import Counter

PACKAGE = "noisetilt"

# (span name, module, attribute path); "Class.method" wraps a method.
LAYERS = (
    ("config.load_config", "config", "load_config"),
    ("generators.make_generator", "generators", "make_generator"),
    ("generators.generate", "generators", "Generator.generate"),
    ("generators.node", "generators", "Generator.node"),
    ("hypernet.init_hypernet", "hypernet", "init_hypernet"),
    ("hypernet.perturb", "hypernet", "NoiseHypernetwork.perturb"),
    ("hypernet.delta_node", "hypernet", "NoiseHypernetwork.delta_node"),
    ("hypernet.jacobian_batch", "hypernet", "NoiseHypernetwork.jacobian_batch"),
    ("hypernet.lipschitz_upper_bound", "hypernet", "NoiseHypernetwork.lipschitz_upper_bound"),
    ("rewards.evaluate_batch", "rewards", "Reward.evaluate_batch"),
    ("rewards.node_rows", "rewards", "Reward.node_rows"),
    ("objectives.hypernoise_loss", "objectives", "hypernoise_loss"),
    ("objectives.exact_noise_kl", "objectives", "exact_noise_kl"),
    ("autodiff.backprop", "autodiff", "backprop"),
    ("oracles.kl_knn", "oracles", "kl_knn"),
    ("oracles.sample_tilted_noise", "oracles", "sample_tilted_noise"),
    ("oracles.stein_check", "oracles", "stein_check"),
    ("oracles.pushforward_check", "oracles", "pushforward_check"),
    ("oracles.dpi_check", "oracles", "dpi_check"),
    ("oracles.bilipschitz_check", "oracles", "bilipschitz_check"),
    ("oracles.run_theory_suite", "oracles", "run_theory_suite"),
    ("training.train_hypernoise", "training", "train_hypernoise"),
    ("training.optimizer_update", "training", "Adam.update"),
    ("training.optimizer_update", "training", "Sgd.update"),
    ("training.clip_global_norm", "training", "clip_global_norm"),
    ("training.save_checkpoint", "training", "save_checkpoint"),
    ("baselines.noise_opt", "baselines", "noise_opt"),
    ("baselines.best_of_n", "baselines", "best_of_n"),
    ("baselines.train_direct_finetune", "baselines", "train_direct_finetune"),
    ("baselines.adapted_node", "baselines", "AdaptedGenerator.node"),
    ("linalg.logdet_and_trace", "linalg", "logdet_and_trace"),
    ("linalg.spectral_norm", "linalg", "spectral_norm"),
    ("linalg.jacobian_fd", "linalg", "jacobian_fd"),
    ("reporting.write_csv", "reporting", "write_csv"),
    ("reporting.atomic_write", "reporting", "atomic_write"),
    ("reporting.svg_curve", "reporting", "svg_curve"),
    ("cli.run_train", "cli", "run_train"),
    ("cli.run_baseline", "cli", "run_baseline"),
    ("cli.run_tradeoff", "cli", "run_tradeoff"),
    ("cli.run_validate_theory", "cli", "run_validate_theory"),
)


class Tracer:
    """Spans of one single-threaded pass, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []      # [name, parent index, start, end]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._ref_digests: set[bytes] = set()

    def call(self, name: str, fn, args, kwargs):
        parent = self._open[-1] if self._open else -1
        span = [name, parent, self.clock(), None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = self.clock()
            self._open.pop()

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return wrapper

    def seen_before(self, arr) -> bool:
        """True if an array with these exact bytes was offered before."""
        digest = hashlib.blake2b(arr.tobytes(), digest_size=16).digest()
        if digest in self._ref_digests:
            return True
        self._ref_digests.add(digest)
        return False

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, p50/p95 ms.

        Inclusive time counts only the outermost span of a name, so a
        recursive call is not counted twice."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict] = {}
        durations: dict[str, list] = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["self_s"] += (end - start) - child_time[i]
            if not self._has_ancestor_named(i, name):
                st["s"] += end - start
            durations.setdefault(name, []).append(end - start)
        for name, ds in durations.items():
            ds.sort()
            stats[name]["p50_ms"] = 1e3 * _nearest_rank(ds, 0.50)
            stats[name]["p95_ms"] = 1e3 * _nearest_rank(ds, 0.95)
        return {"spans": stats, "counts": dict(self.counts)}

    def _has_ancestor_named(self, i: int, name: str) -> bool:
        p = self.spans[i][1]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][1]
        return False


def _nearest_rank(sorted_values: list, q: float) -> float:
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


# ---------------------------------------------------------------------------
# Counters recorded at the same boundaries as the spans
# ---------------------------------------------------------------------------

def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _observe_generate(t, args, kwargs, result):
    g, x0 = args[0], _arg(args, kwargs, 1, "x0")
    steps = _arg(args, kwargs, 3, "steps", 1)
    rows = _rows(x0)
    per_row = sum(l.weight.size for l in g.layers)
    if steps > 1:
        per_row += (steps - 1) * sum(l.weight.size for l in (g.refiner or g.layers))
    t.counts["generators.generate.rows"] += rows
    t.counts["generators.generate.flops"] += 2 * rows * per_row   # computed, not measured


def _observe_rows(counter, arg_name):
    def observe(t, args, kwargs, result):
        t.counts[counter] += _rows(_arg(args, kwargs, 1, arg_name))
    return observe


def _observe_kl_knn(t, args, kwargs, result):
    p, q = _arg(args, kwargs, 0, "samples_p"), _arg(args, kwargs, 1, "samples_q")
    t.counts["oracles.kl_knn.points"] += len(p) + len(q)
    if t.seen_before(q):
        t.counts["oracles.kl_knn.repeated_ref"] += 1


def _observe_tilted(t, args, kwargs, result):
    if result.acceptance_rate is not None:
        t.counts["oracles.sample_tilted_noise.acceptance_sum"] += result.acceptance_rate
        t.counts["oracles.sample_tilted_noise.acceptance_n"] += 1


def _observe_clip(t, args, kwargs, result):
    ceiling = _arg(args, kwargs, 1, "ceiling")
    if ceiling > 0 and result > ceiling:
        t.counts["training.clip_global_norm.clipped"] += 1


def _observe_file(counter):
    def observe(t, args, kwargs, result):
        t.counts[counter] += os.path.getsize(_arg(args, kwargs, 0, "path"))
    return observe


def _observe_atomic_write(t, args, kwargs, result):
    t.counts["reporting.atomic_write.bytes"] += len(_arg(args, kwargs, 1, "data").encode())


OBSERVERS = {
    "generators.generate": _observe_generate,
    "hypernet.perturb": _observe_rows("hypernet.perturb.rows", "x0"),
    "rewards.evaluate_batch": _observe_rows("rewards.evaluate_batch.rows", "x"),
    "oracles.kl_knn": _observe_kl_knn,
    "oracles.sample_tilted_noise": _observe_tilted,
    "training.clip_global_norm": _observe_clip,
    "training.save_checkpoint": _observe_file("training.save_checkpoint.bytes"),
    "reporting.write_csv": _observe_file("reporting.write_csv.bytes"),
    "reporting.atomic_write": _observe_atomic_write,
}


def instrument(tracer: Tracer):
    """Wrap every layer in LAYERS and count tape nodes; returns an undo
    function.  A module-level function is rebound in every noisetilt module
    that holds it, so name imports see the wrapper too."""
    undo: list = []

    def setattr_undoable(owner, attr, value):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    for name, mod_name, path in LAYERS:
        module = sys.modules[f"{PACKAGE}.{mod_name}"]
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            fn = cls.__dict__[meth]
            setattr_undoable(cls, meth, tracer.wrap(name, fn, OBSERVERS.get(name)))
            continue
        fn = getattr(module, path)
        wrapped = tracer.wrap(name, fn, OBSERVERS.get(name))
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr_undoable(m, attr, wrapped)

    node_cls = sys.modules[f"{PACKAGE}.autodiff"].Node
    node_init = node_cls.__init__

    def counting_init(self, *args, **kwargs):
        tracer.counts["autodiff.nodes"] += 1
        node_init(self, *args, **kwargs)

    setattr_undoable(node_cls, "__init__", counting_init)

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return restore


def missing_spans(summary: dict, expected) -> list:
    """Coverage self-check: expected spans that never fired."""
    return [s for s in expected if summary["spans"].get(s, {}).get("calls", 0) == 0]
