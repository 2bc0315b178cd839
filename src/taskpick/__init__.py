"""Budget-constrained prompt selection for annotation.

Load a task-partitioned prompt pool, split an annotation budget across
tasks (uniformly or by inverse model confidence), and materialize the
selection with round-robin sampling. Diversity (k-center, facility
location, DPP) and uncertainty (confidence, entropy, margin) baselines
share the same pool format and selection interface.
"""

from .allocation import (
    AllocationVector,
    allocate_active_it,
    allocate_task_diversity,
    allocate_weighted,
    ceil_allocation,
)
from .errors import TaskpickError
from .manifest import manifest_payload
from .pool import (
    Pool,
    PromptRecord,
    TaskPartition,
    load_pool,
    read_embeddings,
    save_pool,
    write_embeddings,
)
from .scoring import (
    Scores,
    score_pool,
    task_mean_confidence,
)
from .selectors import (
    STRATEGIES,
    KernelSpec,
    SelectionResult,
    StrategyConfig,
    round_robin,
    run_strategy,
    select_dpp,
    select_facility_location,
    select_k_center,
    select_random,
    select_uncertainty,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationVector",
    "KernelSpec",
    "Pool",
    "PromptRecord",
    "STRATEGIES",
    "Scores",
    "SelectionResult",
    "StrategyConfig",
    "TaskPartition",
    "TaskpickError",
    "allocate_active_it",
    "allocate_task_diversity",
    "allocate_weighted",
    "ceil_allocation",
    "load_pool",
    "manifest_payload",
    "read_embeddings",
    "round_robin",
    "run_strategy",
    "save_pool",
    "score_pool",
    "select_dpp",
    "select_facility_location",
    "select_k_center",
    "select_random",
    "select_uncertainty",
    "task_mean_confidence",
    "write_embeddings",
]
