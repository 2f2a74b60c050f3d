"""Experiment configuration: a flat INI file with typed sections.

Unknown sections or keys are hard errors (they are almost always typos),
every default the run ends up using appears in the resolved echo, and the
echo itself parses back to an identical configuration.
"""
from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field
from typing import Any, Optional

from .training import TrainConfig
from .baselines import DirectFinetuneConfig, NoiseOptConfig


class ConfigError(ValueError):
    """Invalid configuration; the message names section and key."""


_REQUIRED = object()

# section -> key -> (type, default). Types: int, float, str,
# ints/floats (comma-separated), matrix (semicolon-separated rows).
_SCHEMA: dict[str, dict[str, tuple[str, Any]]] = {
    "run": {
        "method": ("str", "hypernoise"),   # hypernoise | direct_ft | noise_opt | best_of_n | theory
        "seed": ("int", 0),
        "out_dir": ("str", "out"),
    },
    "generator": {
        "variant": ("str", _REQUIRED),     # affine | mlp | decoder
        "latent_dim": ("int", _REQUIRED),
        "output_dim": ("int", 0),          # 0 = derived
        "hidden": ("ints", []),
        "activation": ("str", "tanh"),
        "height": ("int", 8),
        "width": ("int", 8),
        "matrix": ("matrix", []),
        "bias": ("floats", []),
        "step_mix": ("float", 0.5),
        "weight_seed": ("int", 0),
    },
    "reward": {
        "variant": ("str", _REQUIRED),     # linear | quadratic | redness
        "c": ("floats", []),
        "q": ("matrix", []),
        "sign": ("int", -1),
        "scale": ("float", 0.01),
    },
    "train": {
        "steps": ("int", 500),
        "batch_size": ("int", 64),
        "learning_rate": ("float", 0.05),
        "optimizer": ("str", "sgd"),
        "momentum": ("float", 0.0),
        "clip_norm": ("float", 1.0),
        "alpha": ("float", 1.0),
        "log_every": ("int", 10),
        "rank": ("int", 2),
        "adapter_alpha": ("float", 2.0),
        "generation_steps": ("int", 1),
    },
    "noise_opt": {
        "steps": ("int", 300),
        "learning_rate": ("float", 0.05),
        "prior_weight": ("float", 1.0),
    },
    "best_of_n": {
        "counts": ("ints", [1, 4, 16, 64, 256]),
    },
    "direct_ft": {
        "steps": ("int", 300),
        "batch_size": ("int", 64),
        "learning_rate": ("float", 0.05),
        "optimizer": ("str", "adam"),
        "clip_norm": ("float", 1.0),
        "rank": ("int", 2),
        "eval_every": ("int", 25),
        "eval_samples": ("int", 2000),
    },
    "evaluation": {
        "heldout": ("int", 2000),
        "fidelity_metric": ("str", "knn_kl"),  # knn_kl | closed_form_gaussian_kl
        "multi_step": ("ints", [1]),
        "diversity_seeds": ("int", 20),
        "diversity_samples": ("int", 64),
    },
    "theory": {
        "n": ("int", 20000),
        "knn_k": ("int", 5),
    },
}

_METHODS = ("hypernoise", "direct_ft", "noise_opt", "best_of_n", "theory")
_FIDELITY = ("knn_kl", "closed_form_gaussian_kl")


def _parse_value(section: str, key: str, kind: str, raw: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "str":
            return raw
        if kind == "ints":
            return [int(t) for t in raw.replace(",", " ").split()] if raw else []
        if kind == "floats":
            return [float(t) for t in raw.replace(",", " ").split()] if raw else []
        if kind == "matrix":
            if not raw:
                return []
            return [[float(t) for t in row.replace(",", " ").split()]
                    for row in raw.split(";")]
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None
    raise ConfigError(f"[{section}] {key}: unknown type {kind!r}")


def _format_value(kind: str, value) -> str:
    if kind in ("ints", "floats"):
        return " ".join(repr(v) if kind == "floats" else str(v) for v in value)
    if kind == "matrix":
        return "; ".join(" ".join(repr(x) for x in row) for row in value)
    if kind == "float":
        return repr(float(value))
    return "" if value is None else str(value)


@dataclass
class ExperimentConfig:
    values: dict[str, dict[str, Any]] = field(default_factory=dict)

    def __getitem__(self, section: str) -> dict[str, Any]:
        return self.values[section]

    @property
    def method(self) -> str:
        return self.values["run"]["method"]

    @property
    def seed(self) -> int:
        return self.values["run"]["seed"]

    def generator_spec(self) -> dict:
        g = self.values["generator"]
        spec = {"variant": g["variant"], "latent_dim": g["latent_dim"],
                "step_mix": g["step_mix"]}
        if g["variant"] == "affine":
            if g["output_dim"]:
                spec["output_dim"] = g["output_dim"]
            if g["matrix"]:
                spec["matrix"] = g["matrix"]
            if g["bias"]:
                spec["bias"] = g["bias"]
        elif g["variant"] == "mlp":
            spec["output_dim"] = g["output_dim"] or g["latent_dim"]
            spec["hidden"] = g["hidden"] or [2 * g["latent_dim"]]
            spec["activation"] = g["activation"]
        elif g["variant"] == "decoder":
            spec["height"] = g["height"]
            spec["width"] = g["width"]
            spec["hidden"] = g["hidden"] or [2 * g["latent_dim"]]
            spec["activation"] = g["activation"]
        return spec

    def reward_spec(self) -> dict:
        r = self.values["reward"]
        if r["variant"] == "linear":
            return {"variant": "linear", "c": r["c"]}
        if r["variant"] == "quadratic":
            return {"variant": "quadratic", "q": r["q"], "sign": r["sign"]}
        if r["variant"] == "redness":
            return {"variant": "redness", "scale": r["scale"]}
        raise ConfigError(f"[reward] variant: unknown value {r['variant']!r}")

    def train_config(self, seed: Optional[int] = None) -> TrainConfig:
        t = self.values["train"]
        return TrainConfig(
            steps=t["steps"], batch_size=t["batch_size"],
            learning_rate=t["learning_rate"], optimizer=t["optimizer"],
            momentum=t["momentum"], clip_norm=t["clip_norm"], alpha=t["alpha"],
            seed=self.seed if seed is None else seed, log_every=t["log_every"],
            generation_steps=t["generation_steps"])

    def noise_opt_config(self, seed: Optional[int] = None) -> NoiseOptConfig:
        n = self.values["noise_opt"]
        return NoiseOptConfig(
            steps=n["steps"], learning_rate=n["learning_rate"],
            prior_weight=n["prior_weight"],
            seed=self.seed if seed is None else seed)

    def direct_ft_config(self, seed: Optional[int] = None) -> DirectFinetuneConfig:
        d = self.values["direct_ft"]
        return DirectFinetuneConfig(
            steps=d["steps"], batch_size=d["batch_size"],
            learning_rate=d["learning_rate"], optimizer=d["optimizer"],
            clip_norm=d["clip_norm"], rank=d["rank"],
            seed=self.seed if seed is None else seed,
            eval_every=d["eval_every"], eval_samples=d["eval_samples"])

    def resolved_echo(self) -> str:
        """INI text with every key the run will use, defaults included."""
        out = io.StringIO()
        for section in _SCHEMA:
            out.write(f"[{section}]\n")
            for key, (kind, _) in _SCHEMA[section].items():
                out.write(f"{key} = {_format_value(kind, self.values[section][key])}\n")
            out.write("\n")
        return out.getvalue()


def _validate(cfg: ExperimentConfig, missing: list[str]):
    run = cfg.values["run"]
    if run["method"] not in _METHODS:
        raise ConfigError(f"[run] method: must be one of {_METHODS}, got {run['method']!r}")
    if run["method"] == "theory":
        # the theory suite builds its own fixtures; generator/reward optional
        return
    if missing:
        raise ConfigError(f"{missing[0]}: required key is missing")
    g = cfg.values["generator"]
    if g["variant"] not in ("affine", "mlp", "decoder"):
        raise ConfigError(f"[generator] variant: unknown value {g['variant']!r}")
    if g["latent_dim"] < 1:
        raise ConfigError("[generator] latent_dim: must be >= 1")
    r = cfg.values["reward"]
    if r["variant"] not in ("linear", "quadratic", "redness"):
        raise ConfigError(f"[reward] variant: unknown value {r['variant']!r}")
    if r["variant"] == "linear" and not r["c"]:
        raise ConfigError("[reward] c: required for the linear reward")
    if r["variant"] == "quadratic" and not r["q"]:
        raise ConfigError("[reward] q: required for the quadratic reward")
    ev = cfg.values["evaluation"]
    if ev["fidelity_metric"] not in _FIDELITY:
        raise ConfigError(
            f"[evaluation] fidelity_metric: must be one of {_FIDELITY}, "
            f"got {ev['fidelity_metric']!r}")
    if ev["diversity_seeds"] < 2:
        raise ConfigError("[evaluation] diversity_seeds: must be >= 2")
    # multi-call generation refines the latent with a square map: the
    # decoder's own refiner, or the whole generator when it maps d -> d
    square = g["variant"] == "decoder" or g["output_dim"] in (0, g["latent_dim"])
    for key, steps in (("[train] generation_steps", [cfg.values["train"]["generation_steps"]]),
                       ("[evaluation] multi_step", ev["multi_step"])):
        if any(s < 1 for s in steps):
            raise ConfigError(f"{key}: entries must be >= 1")
        if not square and any(s > 1 for s in steps):
            raise ConfigError(
                f"{key}: more than one step needs a square generator; this "
                f"{g['variant']} generator maps {g['latent_dim']} -> {g['output_dim']}")


def load_config(path_or_text: str, is_text: bool = False) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if is_text:
            parser.read_string(path_or_text)
        else:
            with open(path_or_text) as fh:
                parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"config does not parse: {exc}") from None

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"[{section}] {key}: unknown key")

    values: dict[str, dict[str, Any]] = {}
    missing: list[str] = []
    for section, keys in _SCHEMA.items():
        values[section] = {}
        for key, (kind, default) in keys.items():
            if parser.has_option(section, key):
                values[section][key] = _parse_value(section, key, kind,
                                                   parser.get(section, key))
            elif default is _REQUIRED:
                values[section][key] = None
                missing.append(f"[{section}] {key}")
            else:
                values[section][key] = default if not isinstance(default, list) else list(default)
    cfg = ExperimentConfig(values)
    _validate(cfg, missing)
    return cfg
