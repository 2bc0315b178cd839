"""The package namespace: each public name loads its module on first use, so
a bare ``import taskpick`` loads no submodule and no numpy."""

import ast
import json

import pytest

import taskpick
from conftest import run_python

# the package's public names, as they were before they loaded lazily
PUBLIC = [
    "AllocationVector", "KernelSpec", "Pool", "PromptRecord", "STRATEGIES", "Scores",
    "SelectionResult", "StrategyConfig", "TaskPartition", "TaskpickError", "allocate_active_it",
    "allocate_task_diversity", "allocate_weighted", "ceil_allocation", "load_pool",
    "manifest_payload", "read_embeddings", "round_robin", "run_strategy", "save_pool", "score_pool",
    "select_dpp", "select_facility_location", "select_k_center", "select_random",
    "select_uncertainty", "task_mean_confidence", "write_embeddings",
]
SUBMODULES = ("allocation", "cli", "errors", "manifest", "pool", "scoring", "selectors")


def loaded_after(code):
    """taskpick's modules, and whether numpy is loaded, after ``code`` runs in
    a fresh process that compiles every module, as with no bytecode cache."""
    probe = "print(json.dumps([sorted(m for m in sys.modules if m.startswith('taskpick')), 'numpy' in sys.modules]))"
    out = run_python("-c", f"import json, sys; {code}; {probe}", env={"PYTHONDONTWRITEBYTECODE": "1"},
                     check=True)
    return json.loads(out.stdout)


def test_a_bare_import_loads_no_submodule_and_no_numpy():
    assert loaded_after("import taskpick") == [["taskpick"], False]


def test_load_pool_loads_only_the_pool_reader():
    assert loaded_after("import taskpick; taskpick.load_pool") == [
        ["taskpick", "taskpick.errors", "taskpick.pool"], True]


def test_a_submodule_resolves_after_a_bare_import():
    modules, _ = loaded_after("import taskpick; assert taskpick.selectors.run_strategy")
    assert "taskpick.selectors" in modules and "taskpick.cli" not in modules


def test_all_is_pinned_and_version_is_a_literal():
    # pyproject.toml reads __version__ without importing the package
    assert taskpick.__all__ == PUBLIC
    tree = ast.parse(open(taskpick.__file__, encoding="utf-8").read())
    versions = [node.value.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__version__"]]
    assert versions == [taskpick.__version__]


@pytest.mark.parametrize("name", PUBLIC)
def test_each_name_is_its_defining_module_attribute(name):
    value = getattr(taskpick, name)
    # STRATEGIES is a tuple, with no __module__ of its own
    module = getattr(value, "__module__", "taskpick.selectors")
    assert module.startswith("taskpick.")
    assert getattr(getattr(taskpick, module.split(".")[1]), name) is value


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from taskpick import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert all(namespace[name] is getattr(taskpick, name) for name in PUBLIC)
    assert set(PUBLIC) | set(SUBMODULES) <= set(dir(taskpick))


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodules_resolve_to_themselves(name):
    assert getattr(taskpick, name).__name__ == f"taskpick.{name}"


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        taskpick.no_such_name
    assert not hasattr(taskpick, "load")
