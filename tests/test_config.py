"""Config parsing, validation, and echo round-trips."""
import pytest

from noisetilt.config import ConfigError, load_config

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
    # every schema key appears in the echo, defaults included
    assert "batch_size = 64" in echo
    assert "fidelity_metric = knn_kl" in echo


NONSQUARE = (GOOD.replace("variant = affine", "variant = mlp\noutput_dim = 3")
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
