"""scipy loads only for configs whose run makes kNN estimates, and when the
config loads.  Each case runs in a fresh interpreter: other test modules
import scipy at module level."""
import configparser
import os
import subprocess
import sys
from pathlib import Path

import pytest

from method_configs import as_method

ROOT = Path(__file__).resolve().parent.parent
BENCH_CONFIGS = ROOT / "bench" / "configs"
# the bench configs whose runs make kNN estimates
KNN_CONFIGS = {"paper_small.ini", "direct_ft.ini", "theory_audit.ini"}

# exits with cli.main's code for the given arguments, scipy unimportable
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from noisetilt.cli import main
sys.exit(main(sys.argv[1:]))
"""

# imports the CLI and loads argv[1]; if that loaded no scipy module, blocks
# scipy and runs the CLI with argv[2:]; prints whether the load loaded scipy
LOAD_THEN_RUN = """
import sys
import noisetilt.cli as cli
def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not scipy_modules(), scipy_modules()
cli.load_config(sys.argv[1])
loaded = bool(scipy_modules())
print("loaded scipy" if loaded else "no scipy")
if not loaded:
    sys.modules["scipy"] = None
    sys.exit(cli.main(sys.argv[2:]))
"""

SMALL = """
[run]
method = {method}
seed = 1

[generator]
{generator}

[reward]
variant = linear
c = 0.6 -0.5

[train]
steps = 20
batch_size = 16

[direct_ft]
steps = 2

[evaluation]
heldout = 64
fidelity_metric = {metric}
"""
AFFINE = "variant = affine\nlatent_dim = 2"
MLP = "variant = mlp\nlatent_dim = 2\nhidden = 4"


def small(method: str, generator: str, metric: str) -> str:
    """SMALL as a `method` config, with only the keys that method reads."""
    return as_method(SMALL.format(method=method, generator=generator, metric=metric), method)


def python(script: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def subcommand(config: Path) -> str:
    """The CLI call that runs `config`'s method."""
    parser = configparser.ConfigParser()
    parser.read(config)
    method = parser.get("run", "method")
    return {"theory": "validate-theory", "hypernoise": "train"}.get(method, "baseline")


@pytest.mark.parametrize("method,generator,metric,key", [
    ("hypernoise", AFFINE, "knn_kl", "[evaluation] fidelity_metric"),
    ("direct_ft", MLP, "closed_form_gaussian_kl", "[generator] variant"),
    ("theory", None, None, "[run] method"),     # a theory config reads [run] and [theory]
], ids=["knn_kl", "direct_ft-mlp", "theory"])
def test_knn_config_without_scipy_exit_2(tmp_path, method, generator, metric, key):
    cfg = tmp_path / "c.ini"
    cfg.write_text(small(method, generator, metric) if generator
                   else f"[run]\nmethod = {method}\n")
    proc = python(WITHOUT_SCIPY, subcommand(cfg), "--config", str(cfg), "--out", "out",
                  "--quiet", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert f"config error: {key}: " in proc.stderr
    assert "need scipy" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_closed_form_train_runs_without_scipy(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text(small("hypernoise", AFFINE, "closed_form_gaussian_kl"))
    proc = python(WITHOUT_SCIPY, "train", "--config", str(cfg), "--out", "out", "--quiet",
                  cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "report.csv").exists()


@pytest.mark.parametrize("config", sorted(p.name for p in BENCH_CONFIGS.glob("*.ini"))
                         + ["direct_ft_affine.ini"])
def test_configs_that_load_no_scipy_run_without_it(tmp_path, config):
    # the load-time rule is complete: a config whose load imports no scipy
    # runs its CLI call with scipy blocked
    path = BENCH_CONFIGS / config
    if config == "direct_ft_affine.ini":    # its drift is closed form
        path = tmp_path / config
        path.write_text(small("direct_ft", AFFINE, "knn_kl"))
    proc = python(LOAD_THEN_RUN, str(path), subcommand(path), "--config", str(path),
                  "--out", "out", "--quiet", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ("loaded scipy" if config in KNN_CONFIGS else "no scipy")
