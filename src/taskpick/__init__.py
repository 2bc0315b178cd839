"""Budget-constrained prompt selection for annotation.

Load a task-partitioned prompt pool, split an annotation budget across
tasks (uniformly or by inverse model confidence), and materialize the
selection with round-robin sampling. Diversity (k-center, facility
location, DPP) and uncertainty (confidence, entropy, margin) baselines
share the same pool format and selection interface.

Each name loads its module on first use (PEP 562), so a bare
``import taskpick`` imports no submodule and no numpy, and
``taskpick.load_pool`` compiles only the pool reader.
"""

import importlib

__version__ = "0.1.0"

# module: the public names it defines; a submodule's own name loads it too
_EXPORTS = {
    "allocation": ("AllocationVector", "allocate_active_it", "allocate_task_diversity",
                   "allocate_weighted", "ceil_allocation"),
    "cli": (),
    "errors": ("TaskpickError",),
    "manifest": ("manifest_payload",),
    "pool": ("Pool", "PromptRecord", "TaskPartition", "load_pool", "read_embeddings", "save_pool",
             "write_embeddings"),
    "scoring": ("Scores", "score_pool", "task_mean_confidence"),
    "selectors": ("STRATEGIES", "KernelSpec", "SelectionResult", "StrategyConfig", "round_robin",
                  "run_strategy", "select_dpp", "select_facility_location", "select_k_center",
                  "select_random", "select_uncertainty"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name):
    """Import the module that defines ``name`` on first access, and keep the object."""
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_ORIGIN[name]}", __name__)
    value = globals()[name] = module if name in _EXPORTS else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_ORIGIN})
