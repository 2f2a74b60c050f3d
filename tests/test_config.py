"""Config parsing, validation, and echo round-trips."""
import glob
import itertools
import os

import pytest

from noisetilt.baselines import DirectFinetuneConfig, NoiseOptConfig
from noisetilt.config import ConfigError, load_config
from noisetilt.generators import make_generator
from noisetilt.rewards import QuadraticReward, RednessReward, make_reward
from noisetilt.training import TrainConfig
from method_configs import as_method

GOOD = """
[run]
method = hypernoise
seed = 7

[generator]
variant = affine
latent_dim = 2
matrix = 1 0.5; 0 1
bias = 0.1 0.2

[reward]
variant = linear
c = 1.0 -2.0

[train]
steps = 25
learning_rate = 0.2
"""


def test_parse_and_defaults():
    cfg = load_config(GOOD, is_text=True)
    assert cfg.method == "hypernoise"
    assert cfg.seed == 7
    assert cfg["generator"]["matrix"] == [[1.0, 0.5], [0.0, 1.0]]
    assert cfg["reward"]["c"] == [1.0, -2.0]
    assert cfg["train"]["steps"] == 25
    assert cfg["train"]["batch_size"] == 64          # default
    assert cfg["evaluation"]["fidelity_metric"] == "knn_kl"


def test_specs_built_from_config():
    cfg = load_config(GOOD, is_text=True)
    assert cfg.generator_spec()["matrix"] == [[1.0, 0.5], [0.0, 1.0]]
    assert cfg.reward_spec() == {"variant": "linear", "c": [1.0, -2.0]}
    tc = cfg.train_config()
    assert tc.steps == 25 and tc.seed == 7 and tc.learning_rate == 0.2


def test_minimal_configs_build_what_the_library_builds():
    # every generator and reward key a config leaves unset takes the
    # library's default
    def minimal(generator, reward):
        return load_config(f"[generator]\n{generator}\n[reward]\n{reward}\n", is_text=True)

    cfg = minimal("variant = decoder\nlatent_dim = 3", "variant = redness")
    built = make_generator(cfg.generator_spec(), cfg["generator"]["weight_seed"])
    library = make_generator({"variant": "decoder", "latent_dim": 3})
    assert built.weight_checksum() == library.weight_checksum()
    assert built.step_mix == library.step_mix
    assert make_reward(cfg.reward_spec()).scale == RednessReward().scale
    cfg = minimal("variant = affine\nlatent_dim = 2", "variant = quadratic\nq = 1 0; 0 2")
    q = [[1.0, 0.0], [0.0, 2.0]]
    assert make_reward(cfg.reward_spec()).sign == QuadraticReward(q).sign


@pytest.mark.parametrize("generator,reward,derived", [
    ("variant = mlp\nlatent_dim = 4", "variant = linear\nc = 1 0 0 0",
     {"output_dim": 4, "hidden": [8]}),
    ("variant = decoder\nlatent_dim = 3", "variant = redness", {"hidden": [6]}),
    ("variant = affine\nlatent_dim = 2", "variant = linear\nc = 1 0", {}),
])
def test_config_and_library_derive_the_same_generator(generator, reward, derived):
    # make_generator({"variant": "mlp", "latent_dim": 4}) raised "output_dim:
    # required key is missing" while the same config ran; the spec hash is
    # the one of the spec with the derived keys written out
    cfg = load_config(f"[generator]\n{generator}\n[reward]\n{reward}\n", is_text=True)
    spec = cfg.generator_spec()
    assert not spec.keys() & {"output_dim", "hidden", "matrix", "bias"}
    built = make_generator(spec, cfg["generator"]["weight_seed"])
    bare = make_generator({key: spec[key] for key in ("variant", "latent_dim")})
    assert built.weight_checksum() == bare.weight_checksum()
    assert built.spec == {**spec, **derived}
    assert built.spec_hash() == make_generator({**spec, **derived}).spec_hash()


def test_unknown_section_and_key():
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(GOOD + "\n[mystery]\nx = 1\n", is_text=True)
    with pytest.raises(ConfigError, match=r"\[train\] stepz"):
        load_config(GOOD + "\nstepz = 3\n", is_text=True)


def test_type_errors_name_the_field():
    with pytest.raises(ConfigError, match=r"\[train\] steps"):
        load_config(GOOD.replace("steps = 25", "steps = many"), is_text=True)


@pytest.mark.parametrize("old,new,key", [
    ("learning_rate = 0.2", "learning_rate = inf", r"\[train\] learning_rate"),
    ("c = 1.0 -2.0", "c = 1.0 nan", r"\[reward\] c"),
    ("matrix = 1 0.5; 0 1", "matrix = 1 0.5; -inf 1", r"\[generator\] matrix"),
])
def test_non_finite_floats_name_the_field(old, new, key):
    # each float kind: float, floats, matrix
    with pytest.raises(ConfigError, match=key + ": .* is not a finite number"):
        load_config(GOOD.replace(old, new), is_text=True)


def test_missing_required_key():
    with pytest.raises(ConfigError, match="latent_dim"):
        load_config(GOOD.replace("latent_dim = 2\n", ""), is_text=True)


def test_missing_reward_payload():
    with pytest.raises(ConfigError, match=r"\[reward\] c"):
        load_config(GOOD.replace("c = 1.0 -2.0\n", ""), is_text=True)


def test_invalid_enums():
    with pytest.raises(ConfigError, match="method"):
        load_config(GOOD.replace("hypernoise", "magic"), is_text=True)
    with pytest.raises(ConfigError, match="fidelity_metric"):
        load_config(GOOD + "\n[evaluation]\nfidelity_metric = vibes\n",
                    is_text=True)


def test_theory_method_needs_no_generator():
    cfg = load_config("[run]\nmethod = theory\nseed = 3\n", is_text=True)
    assert cfg.method == "theory"
    assert cfg["theory"]["n"] == 20000


def test_echo_round_trips():
    cfg = load_config(GOOD, is_text=True)
    echo = cfg.resolved_echo()
    cfg2 = load_config(echo, is_text=True)
    assert cfg.values == cfg2.values
    assert cfg2.resolved_echo() == echo
    # every key that applies appears in the echo, defaults included
    assert "batch_size = 64" in echo
    assert "fidelity_metric = knn_kl" in echo


# the keys that act only under some variants or optimizers, and where
SCOPED = {"generator": ("output_dim", "hidden", "activation", "height", "width",
                        "matrix", "bias"),
          "reward": ("c", "q", "sign", "scale"), "train": ("momentum",),
          "direct_ft": ("rank", "eval_samples")}
APPLIES = {"affine": {"generator": ("output_dim", "matrix", "bias")},
           "mlp": {"generator": ("output_dim", "hidden", "activation"),
                   "direct_ft": ("rank", "eval_samples")},
           "decoder": {"generator": ("hidden", "activation", "height", "width"),
                       "direct_ft": ("rank", "eval_samples")},
           "linear": {"reward": ("c",)}, "quadratic": {"reward": ("q", "sign")},
           "redness": {"reward": ("scale",)}, "sgd": {"train": ("momentum",)}, "adam": {}}


def echoed_keys(echo):
    keys, section = {}, None
    for line in echo.splitlines():
        if line.startswith("["):
            section = keys.setdefault(line.strip("[]"), [])
        elif line:
            section.append(line.split(" = ")[0])
    return keys


@pytest.mark.parametrize("generator,reward,optimizer", itertools.product(
    ["affine", "mlp", "decoder"], ["linear", "quadratic", "redness"], ["sgd", "adam"]))
def test_echo_lists_exactly_the_keys_that_apply(generator, reward, optimizer):
    # every variant here maps latent 3 to 3 outputs
    text = (f"[generator]\nvariant = {generator}\nlatent_dim = 3\n"
            + {"affine": "", "mlp": "hidden = 4\n", "decoder": "height = 1\nwidth = 1\n"}[
                generator]
            + f"[reward]\nvariant = {reward}\n"
            + {"linear": "c = 1 0 -1\n", "quadratic": "q = 1 0 0; 0 1 0; 0 0 1\n",
               "redness": ""}[reward]
            + f"[train]\noptimizer = {optimizer}\n")
    cfg = load_config(text, is_text=True)
    echo = cfg.resolved_echo()
    cfg2 = load_config(echo, is_text=True)
    assert cfg.values == cfg2.values
    assert cfg2.resolved_echo() == echo
    full = echoed_keys(load_config(GOOD, is_text=True).resolved_echo())
    applying = {}
    for owner in (generator, reward, optimizer):
        applying.update(APPLIES[owner])
    for section, keys in echoed_keys(echo).items():
        scoped = SCOPED.get(section, ())
        expected = [key for key in full[section] if key not in scoped]
        expected += [key for key in scoped if key in applying.get(section, ())]
        assert sorted(keys) == sorted(expected), section


def test_theory_echo_round_trips():
    # a theory run reads [run] and [theory] alone, and its echo lists only
    # those (it once listed 36 keys, 31 of them ignored)
    cfg = load_config("[run]\nmethod = theory\nseed = 3\n", is_text=True)
    echo = cfg.resolved_echo()
    assert load_config(echo, is_text=True).values == cfg.values
    assert echo == "[run]\nmethod = theory\nseed = 3\nout_dir = out\n\n[theory]\nn = 20000\n\n"


BENCH_CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "configs")
PAPER_SMALL_GENERATOR = {"variant": "decoder", "latent_dim": 6, "step_mix": 0.5,
                         "height": 4, "width": 4, "hidden": [16], "activation": "tanh"}
# a baseline generates in one step, so its spec holds no step_mix
BASELINE_GENERATOR = {k: v for k, v in PAPER_SMALL_GENERATOR.items() if k != "step_mix"}
REDNESS = {"variant": "redness", "scale": 0.01}
SPECS = {
    "best_of_n.ini": (BASELINE_GENERATOR, REDNESS),
    "direct_ft.ini": (BASELINE_GENERATOR, REDNESS),
    "noise_opt.ini": (BASELINE_GENERATOR, REDNESS),
    "paper_small.ini": (PAPER_SMALL_GENERATOR, REDNESS),
    "theory_audit.ini": None,       # no generator or reward: the suite builds its own
    "train_wide.ini": ({"variant": "decoder", "latent_dim": 64, "step_mix": 0.5,
                        "height": 32, "width": 32, "hidden": [256],
                        "activation": "tanh"}, REDNESS),
}


def test_specs_keep_their_values():
    # the generator spec is hashed into checkpoint.bin
    paths = sorted(glob.glob(os.path.join(BENCH_CONFIGS, "*.ini")))
    assert [os.path.basename(p) for p in paths] == sorted(SPECS)
    for path in paths:
        cfg = load_config(path)
        if cfg.method == "theory":
            assert cfg.applying("generator") == cfg.applying("reward") == []
        else:
            assert (cfg.generator_spec(), cfg.reward_spec()) == SPECS[os.path.basename(path)]
    cfg = load_config(GOOD, is_text=True)
    assert cfg.generator_spec() == {"variant": "affine", "latent_dim": 2, "step_mix": 0.5,
                                    "matrix": [[1.0, 0.5], [0.0, 1.0]], "bias": [0.1, 0.2]}
    assert cfg.reward_spec() == {"variant": "linear", "c": [1.0, -2.0]}


# the keys a bench config can set: the sum of len(cfg.applying(section))
SETTABLE = {"best_of_n.ini": 14, "direct_ft.ini": 22, "noise_opt.ini": 16,
            "paper_small.ini": 28, "theory_audit.ini": 4, "train_wide.ini": 28}


def test_settable_keys_follow_the_method():
    # [run] method, seed, out_dir and [theory] n for the theory suite; for
    # the others [generator], [reward], the method's own section and
    # [evaluation] (a baseline's heldout, and a direct_ft's diversity_samples)
    paths = sorted(glob.glob(os.path.join(BENCH_CONFIGS, "*.ini")))
    for path in paths:
        cfg = load_config(path)
        assert sum(len(cfg.applying(s)) for s in cfg.values) == SETTABLE[os.path.basename(path)]
        assert bool(cfg.applying("theory")) == (cfg.method == "theory")


NONSQUARE = (GOOD.replace("variant = affine", "variant = mlp\noutput_dim = 3")
             .replace("matrix = 1 0.5; 0 1\nbias = 0.1 0.2\n", "")
             .replace("c = 1.0 -2.0", "c = 1.0 -2.0 0.5"))


@pytest.mark.parametrize("section,key", [("train", "generation_steps"),
                                         ("evaluation", "multi_step")])
def test_generation_steps_checked_at_load_time(section, key):
    def with_steps(text, n):
        if section == "train":
            return text.replace("[train]", f"[train]\n{key} = {n}")
        return text + f"\n[{section}]\n{key} = {n}\n"

    assert load_config(with_steps(GOOD, 2), is_text=True)[section][key] in (2, [2])
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: entries must be >= 1"):
        load_config(with_steps(GOOD, 0), is_text=True)
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: .*square generator"):
        load_config(with_steps(NONSQUARE, 2), is_text=True)
    assert load_config(with_steps(NONSQUARE, 1), is_text=True)


def test_settings_sections_default_to_their_dataclasses():
    # the [train], [noise_opt] and [direct_ft] defaults are the fields'
    cfg = load_config("[generator]\nvariant = mlp\nlatent_dim = 2\n"
                      "[reward]\nvariant = linear\nc = 1 -1\n", is_text=True)
    for settings, cls in ((cfg.train_config(), TrainConfig),
                          (cfg.noise_opt_config(), NoiseOptConfig),
                          (cfg.direct_ft_config(), DirectFinetuneConfig)):
        assert settings == cls(seed=cfg.seed), cls.__name__


THEORY = "[run]\nmethod = theory\n[theory]\n"
MLP_DRIFT = as_method(NONSQUARE, "direct_ft", direct_ft="eval_samples = 5")


@pytest.mark.parametrize("text,message", [
    (THEORY + "n = 999\n",
     "[theory] n: must be >= 1000, the smallest sample the moment checks accept"),
    # the suite's kNN rank is the run's, oracles.KNN_K
    (THEORY + "n = 2000\nknn_k = 1000\n", "[theory] knn_k: unknown key"),
    (as_method(GOOD, "best_of_n", best_of_n="counts ="),
     "[best_of_n] counts: needs at least one entry, all >= 1"),
    (GOOD + "[evaluation]\nheldout = 5\n",
     "[evaluation] heldout: must be >= 6 for the knn_kl fidelity"),
    (MLP_DRIFT, "[direct_ft] eval_samples: must be >= 6 to estimate the drift of a mlp "
                "generator"),
    (NONSQUARE + "[evaluation]\nmulti_step = 1 3\n",
     "[evaluation] multi_step: more than one step needs a square generator; this mlp "
     "generator maps 2 -> 3"),
], ids=["theory-n", "theory-knn_k", "counts", "heldout", "eval_samples", "square"])
def test_library_rules_rejected_at_load_with_their_messages(text, message):
    with pytest.raises(ConfigError) as info:
        load_config(text, is_text=True)
    assert str(info.value) == message
