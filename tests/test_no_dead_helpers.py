"""Guards on the package's structure: no helper that only tests use, and
one module that fits and scores the model.

Every public module-level function and class of ``src/sda`` must be named
somewhere in ``src/sda`` outside ``__init__.py`` (as a name or an attribute),
or be a deliberate entry point listed in ``ALLOWED``. A helper that no
command reaches is either deleted or, where a test needs it as an oracle,
written into that test file.
"""

import ast
import os

import sda

SRC = os.path.dirname(sda.__file__)

# entry points and test-data generators that the package itself never calls
ALLOWED = {"cli.main", "boost.fit_regression_tree"}
ALLOWED_MODULES = {"synth"}


def _modules():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                yield name[:-3], ast.parse(fh.read(), filename=name)


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
        f"{module}.{node.name}"
        for module, tree in modules.items()
        if module not in ALLOWED_MODULES
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
        and f"{module}.{node.name}" not in ALLOWED
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
