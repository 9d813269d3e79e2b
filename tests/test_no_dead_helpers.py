"""Guards on the package's structure: no helper that only tests use, one
module that fits and scores the model, metrics that do not pull in the
model, and commands that load neither ``numpy.random`` nor OpenSSL.

Every public module-level function and class of ``src/sda``, and every
public method of a public class, must be named somewhere in ``src/sda``
outside ``__init__.py`` (as a name or an attribute), or be a deliberate
entry point listed in ``ALLOWED``. A helper that no command reaches is
either deleted or, where a test needs it as an oracle, written into that
test file.
"""

import ast
import os
import subprocess
import sys

import sda
from sda.synth import make_block_dataset, write_dataset_files

from conftest import write_config_file

SRC = os.path.dirname(sda.__file__)

# entry points and test-data generators that the package itself never calls;
# one tree is fitted and routed through the ensemble's code paths
ALLOWED = {"cli.main", "boost.fit_regression_tree", "boost.RegressionTree.apply"}
ALLOWED_MODULES = {"synth"}


def _modules():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                yield name[:-3], ast.parse(fh.read(), filename=name)


def _public_definitions(module, tree):
    """Qualified names of the public functions and classes of ``tree``, and
    of the public methods of its public classes, with their own names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name


def test_every_public_definition_is_used_in_the_package():
    modules = dict(_modules())
    used = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        qualified
        for module, tree in modules.items()
        if module not in ALLOWED_MODULES
        for qualified, name in _public_definitions(module, tree)
        if name not in used and qualified not in ALLOWED
    ]
    assert not unused, f"named nowhere in src/sda outside __init__.py: {unused}"


# the model's fit and score steps: only ``model`` runs them
MODEL_STEPS = {"gbdt_fit", "smo_train", "svm_decision"}


def test_only_the_model_module_fits_and_scores():
    callers = []
    for module, tree in _modules():
        if module == "model":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in MODEL_STEPS:
                    callers.append(f"{module}.py:{node.lineno}: {name}")
    assert not callers, f"fit or score steps outside model.py: {callers}"


def test_metrics_do_not_import_the_model():
    # the CV loop lives in ``pipeline``; ``svm`` imports the metrics at
    # module top, so a metrics import of the model would be a cycle
    code = "import sys, sda.evaluation; print(*sys.modules, sep='\\n')"
    src = os.path.dirname(SRC)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    modules = set(proc.stdout.splitlines())
    assert "sda.evaluation" in modules
    assert "sda.model" not in modules


def test_run_loads_neither_numpy_random_nor_openssl(tmp_path):
    # every seeded draw uses ``random.Random``, which ``tempfile`` loads
    # anyway; numpy.random and hashlib (with OpenSSL's libcrypto) would cost
    # every command about 6 MB of peak resident memory and 9-17 ms of imports
    am, ft, dag = make_block_dataset(
        n_snornas=30, n_diseases=10, n_blocks=2, within=0.7, across=0.02,
        n_features=12, seed=3,
    )
    paths = write_dataset_files(str(tmp_path / "data"), am, ft, dag)
    cfg = write_config_file(
        tmp_path / "cfg.txt", association_path=paths["association"],
        feature_path=paths["features"], dag_path=paths["dag"],
        output_dir=str(tmp_path / "out"), k=4, svm_c="10", svm_gamma="0.1",
        holdout_fraction=0.2,
    )
    code = (
        "import sys; from sda.cli import main\n"
        "for command in ('evaluate', 'rank', 'holdout'):\n"
        "    assert main([command, '--config', sys.argv[1]]) == 0, command\n"
        "print(*sys.modules, sep='\\n')"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code, cfg], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stdout.splitlines())
    assert "sda.pipeline" in modules
    assert not {"numpy.random", "hashlib", "_hashlib"} & modules
