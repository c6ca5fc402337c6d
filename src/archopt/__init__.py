"""Many-objective search over software architecture refactoring plans.

Evaluates candidate architectures on performance variation (closed
queueing network + mean value analysis), closed-form reliability,
performance-antipattern count, and architectural distance, and runs
NSGA-II / SPEA2 / PESA-II to produce Pareto fronts of refactoring
sequences.
"""

from .antipatterns import Thresholds, detect
from .model import (
    Architecture,
    CallStep,
    CompiledChunk,
    Component,
    ModelFormatError,
    NetworkLink,
    Operation,
    ProcessorNode,
    RoutingError,
    UsageScenario,
    digest,
    invocation_matrix,
    load,
    save,
    validate,
)
from .moea import Evaluator, Individual, ParetoFront, SearchConfig, run
from .pareto import crowding_distance, dominates, fast_nondominated_sort, hypervolume
from .perfqn import PerformanceResult, QnModel, QnSolution, SolverError, perfq, solve_amva, solve_amva_many, solve_exact_mva, to_qn
from .refactoring import (
    DEFAULT_BRF,
    ActionKind,
    CloneComponent,
    InfeasibleActionError,
    MoveOperationToComponent,
    MoveOperationToNewComponent,
    RedeployComponent,
    apply_sequence,
    distance,
    is_feasible,
    random_action,
    random_sequence,
    repair,
)
from .reliability import reliability

__version__ = "0.1.0"
