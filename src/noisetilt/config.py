"""Experiment configuration: a flat INI file with typed sections.

Unknown sections or keys are hard errors (they are almost always typos), and
so is a key set outside its scope: the [run] methods that read it (each
method its own section, see `_READERS`) and the variants or optimizer it
acts under.  The resolved echo holds every key that applies, defaults
included, and parses back to an identical configuration.
Every config `load_config` accepts runs; others raise a ConfigError naming
section and key (exit 2).  Validation builds what the run builds and calls
the library's checks on the keys that apply, so each rule lives once, where
the library needs it; the [train], [noise_opt] and [direct_ft] keys are
settings dataclass fields.
"""
from __future__ import annotations

import configparser
import contextlib
import inspect
import io
import math
from dataclasses import dataclass, field, fields
from typing import Any, Optional

from .baselines import AdaptedGenerator, DirectFinetuneConfig, NoiseOptConfig, check_counts
from .generators import SPEC_DEFAULTS, make_generator
from .hypernet import init_hypernet
from .oracles import check_knn_points, check_theory_scale, kd_tree
from .rewards import QuadraticReward, RednessReward, make_reward
from .training import TrainConfig


class ConfigError(ValueError):
    """Invalid configuration; the message names section and key."""


_REQUIRED = object()

# the scope of a key that acts only on a generator built of layers
_NETWORK = ("generator", "variant", ("mlp", "decoder"))
# the scope of the keys only the noise network's runs read
_HYPERNOISE = ("run", "method", ("hypernoise",))
_METHODS = ("hypernoise", "direct_ft", "noise_opt", "best_of_n", "theory")
_BUILDS = _METHODS[:-1]     # the methods that build the generator and reward
# section -> the [run] methods that read it; the theory suite builds its own fixtures
_READERS = {"run": _METHODS, "generator": _BUILDS, "reward": _BUILDS,
            "train": ("hypernoise",), "noise_opt": ("noise_opt",),
            "best_of_n": ("best_of_n",), "direct_ft": ("direct_ft",),
            "evaluation": _BUILDS, "theory": ("theory",)}


def _fields(cls, **scopes) -> dict[str, tuple]:
    """Schema entries, type and default, for the fields of settings dataclass
    `cls` but seed (which [run] sets), with their scopes from `scopes`."""
    return {f.name: (f.type, f.default) + ((scopes[f.name],) if f.name in scopes else ())
            for f in fields(cls) if f.name != "seed"}


def _default(fn, name: str):
    """The library's default for parameter `name` of `fn`."""
    return inspect.signature(fn).parameters[name].default


# section -> key -> (type, default[, scope]). Types: int, float, str, seed,
# ints/floats (comma-separated), matrix (semicolon-separated rows), or the
# tuple of strings the key may be.  A key with a scope (section, owner key,
# owner values) acts only under those values.
_SCHEMA: dict[str, dict[str, tuple]] = {
    "run": {
        "method": (_METHODS, "hypernoise"),
        "seed": ("seed", 0),
        "out_dir": ("str", "out"),
    },
    "generator": {
        "variant": ("str", _REQUIRED),     # affine | mlp | decoder
        "latent_dim": ("int", _REQUIRED),
        "output_dim": ("int", 0, ("generator", "variant", ("affine", "mlp"))),  # 0: derived
        "hidden": ("ints", [], _NETWORK),
        "activation": ("str", SPEC_DEFAULTS["activation"], _NETWORK),
        "height": ("int", SPEC_DEFAULTS["height"], ("generator", "variant", ("decoder",))),
        "width": ("int", SPEC_DEFAULTS["width"], ("generator", "variant", ("decoder",))),
        "matrix": ("matrix", [], ("generator", "variant", ("affine",))),
        "bias": ("floats", [], ("generator", "variant", ("affine",))),
        "step_mix": ("float", SPEC_DEFAULTS["step_mix"], _HYPERNOISE),  # multi-step only
        "weight_seed": ("seed", 0),
    },
    "reward": {
        "variant": ("str", _REQUIRED),     # linear | quadratic | redness
        "c": ("floats", [], ("reward", "variant", ("linear",))),
        "q": ("matrix", [], ("reward", "variant", ("quadratic",))),
        "sign": ("int", _default(QuadraticReward, "sign"), ("reward", "variant", ("quadratic",))),
        "scale": ("float", _default(RednessReward, "scale"), ("reward", "variant", ("redness",))),
    },
    "train": {**_fields(TrainConfig, momentum=("train", "optimizer", ("sgd",))),
              "rank": ("int", 2),               # the noise network's adapters
              "adapter_alpha": ("float", 2.0)},
    "noise_opt": _fields(NoiseOptConfig),
    "best_of_n": {
        "counts": ("ints", [1, 4, 16, 64, 256]),
    },
    # an affine generator's adapter is a bias shift, its drift closed form
    "direct_ft": _fields(DirectFinetuneConfig, rank=_NETWORK, eval_samples=_NETWORK),
    "evaluation": {     # a baseline's base reward mean reads heldout
        "heldout": ("int", 2000),
        "fidelity_metric": (("knn_kl", "closed_form_gaussian_kl"), "knn_kl", _HYPERNOISE),
        "multi_step": ("ints", [1], _HYPERNOISE),
        "diversity_seeds": ("int", 20, _HYPERNOISE),
        # a direct_ft config of the benchmark harness's tests sets it, unread
        "diversity_samples": ("int", 64, ("run", "method", ("hypernoise", "direct_ft"))),
    },
    "theory": {
        "n": ("int", 20000),
    },
}


def _finite(token: str) -> float:
    """A float that is neither nan nor infinite: no key has a use for one
    (a nan `clip_norm` silently turned clipping off)."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} is not a finite number")
    return value


def parse_seed(token) -> int:
    """A seed numpy's generators take: an integer >= 0."""
    value = int(token)
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


def _parse_value(section: str, key: str, kind: str | tuple, raw: str):
    raw = raw.strip()
    scalars = {"int": int, "float": _finite, "str": str, "seed": parse_seed}
    try:
        if isinstance(kind, tuple):
            if raw not in kind:
                raise ValueError(f"must be one of {kind}, got {raw!r}")
            return raw
        if kind in scalars:
            return scalars[kind](raw)
        if kind in ("ints", "floats"):
            return [scalars[kind[:-1]](t) for t in raw.replace(",", " ").split()]
        if kind == "matrix":
            if not raw:
                return []
            rows = [[_finite(t) for t in row.replace(",", " ").split()]
                    for row in raw.split(";")]
            if len({len(row) for row in rows}) > 1:
                raise ValueError("rows differ in length")
            return rows
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
    return str(value)


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

    def _outside(self, section: str, key: str) -> list[tuple]:
        """The scopes of `key` this config falls outside: the [run] methods
        that read its section, then the key's own methods, variants or optimizer."""
        scopes = [("run", "method", _READERS[section])] + list(_SCHEMA[section][key][2:])
        return [(s, owner, allowed) for s, owner, allowed in scopes
                if self.values[s][owner] not in allowed]

    def applying(self, section: str) -> list[str]:
        """The keys of `section` that act under this config's method, variants and optimizer."""
        return [key for key in _SCHEMA[section] if not self._outside(section, key)]

    def generator_spec(self) -> dict:
        """The [generator] keys that apply, but weight_seed and an unset (0 or
        empty) output_dim, hidden, matrix or bias, which make_generator derives."""
        g = self.values["generator"]
        derived = ("output_dim", "hidden", "matrix", "bias")
        return {key: g[key] for key in self.applying("generator")
                if key != "weight_seed" and (g[key] or key not in derived)}

    def reward_spec(self) -> dict:
        return {key: self.values["reward"][key] for key in self.applying("reward")}

    def _settings(self, cls, section: str):
        """`cls` from the keys of `section` it has a field for, and [run] seed."""
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in self.values[section].items() if k in names},
                   seed=self.seed)

    def train_config(self) -> TrainConfig:
        return self._settings(TrainConfig, "train")

    def noise_opt_config(self) -> NoiseOptConfig:
        return self._settings(NoiseOptConfig, "noise_opt")

    def direct_ft_config(self) -> DirectFinetuneConfig:
        return self._settings(DirectFinetuneConfig, "direct_ft")

    def resolved_echo(self) -> str:
        """INI text with every key that applies, defaults included."""
        out = io.StringIO()
        for section in _SCHEMA:
            keys = self.applying(section)
            if keys:
                out.write(f"[{section}]\n")
                for key in keys:
                    value = _format_value(_SCHEMA[section][key][0], self.values[section][key])
                    out.write(f"{key} = {value}\n")
                out.write("\n")
        return out.getvalue()


@contextlib.contextmanager
def _section(name: str, key: str = ""):
    """Re-raise a ValueError, or a MemoryError from building what the config
    asks for, as a ConfigError naming `name` and, if given, `key`."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"[{name}] {key}{': ' if key else ''}{exc}") from None


def _knn_key(cfg: ExperimentConfig) -> Optional[tuple[str, str]]:
    """The section and key that make this config's run estimate kNN KLs, or
    None: the theory suite, a hypernoise run's knn_kl fidelity, and a direct
    fine-tune's drift on a network generator (an affine one's is closed
    form).  The subcommand is not known here, so a diversity call on a
    knn_kl config counts too."""
    if cfg.method == "theory":
        return "run", "method"
    if cfg.method == "hypernoise" and cfg.values["evaluation"]["fidelity_metric"] == "knn_kl":
        return "evaluation", "fidelity_metric"
    if cfg.method == "direct_ft" and cfg.values["generator"]["variant"] in _NETWORK[2]:
        return "generator", "variant"
    return None


def _validate(cfg: ExperimentConfig):
    knn = _knn_key(cfg)
    if knn is not None:
        # scipy loads here, with the config, not in the middle of the run
        try:
            kd_tree()
        except ImportError as exc:
            section, key = knn
            raise ConfigError(f"[{section}] {key}: {cfg.values[section][key]} makes kNN "
                              f"estimates, which need scipy ({exc})") from None
    v = cfg.values
    if not v["run"]["out_dir"]:
        raise ConfigError("[run] out_dir: must not be empty")
    if cfg.method == "theory":
        # the theory suite builds its own fixtures from n alone
        with _section("theory"):
            check_theory_scale(v["theory"]["n"])
        return
    with _section("generator"):
        gen = make_generator(cfg.generator_spec(), v["generator"]["weight_seed"])
    with _section("reward"):
        make_reward(cfg.reward_spec()).evaluate_batch([[0.0] * gen.output_dim])
    ev = v["evaluation"]
    # reward_se and the mean pairwise distance need two rows
    for key in ("diversity_seeds", "diversity_samples", "heldout"):
        if key in cfg.applying("evaluation") and ev[key] < 2:
            raise ConfigError(f"[evaluation] {key}: must be >= 2")
    # each method's own section and the adapter stack it builds
    if cfg.method == "hypernoise":
        t = v["train"]
        with _section("train"):
            init_hypernet(gen, t["rank"], t["adapter_alpha"])
            cfg.train_config().validate()
        if ev["fidelity_metric"] == "knn_kl":
            with _section("evaluation", "heldout"):
                check_knn_points(ev["heldout"], "for the knn_kl fidelity")
        for section, key, steps in (("train", "generation_steps", [t["generation_steps"]]),
                                    ("evaluation", "multi_step", ev["multi_step"])):
            with _section(section, key):
                gen.check_steps(steps)
    elif cfg.method == "direct_ft":
        d = v["direct_ft"]
        with _section("direct_ft"):
            AdaptedGenerator(gen, d["rank"])
            cfg.direct_ft_config().validate()
        with _section("direct_ft", "eval_samples"):     # on affine it holds its default
            check_knn_points(d["eval_samples"], "to estimate the drift of a "
                             f"{v['generator']['variant']} generator")
    elif cfg.method == "noise_opt":
        with _section("noise_opt"):
            cfg.noise_opt_config().validate()
    else:
        with _section("best_of_n"):
            check_counts(v["best_of_n"]["counts"])


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

    values: dict[str, dict[str, Any]] = {}
    for section, keys in _SCHEMA.items():
        values[section] = {}
        for key, (kind, default, *_) in keys.items():
            if parser.has_option(section, key):
                values[section][key] = _parse_value(section, key, kind,
                                                   parser.get(section, key))
            elif default is _REQUIRED:
                values[section][key] = None
            else:
                values[section][key] = default if not isinstance(default, list) else list(default)
    cfg = ExperimentConfig(values)
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"[{section}] {key}: unknown key")
            if outside := cfg._outside(section, key):
                owner_section, owner, allowed = outside[0]
                raise ConfigError(f"[{section}] {key}: applies only when [{owner_section}] "
                                  f"{owner} is {' or '.join(allowed)}")
    for section in _SCHEMA:
        for key in cfg.applying(section):
            if values[section][key] is None:    # a required key left unset
                raise ConfigError(f"[{section}] {key}: required key is missing")
    _validate(cfg)
    return cfg
