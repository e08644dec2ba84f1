"""Shared infrastructure: simulated clock, errors, configuration, ids."""

from repro.common.clock import SimulatedClock
from repro.common.errors import (
    PrestoError,
    SyntaxError_,
    SemanticError,
    PlanningError,
    ExecutionError,
    InsufficientResourcesError,
    SchemaEvolutionError,
    ConnectorError,
    StorageError,
)

__all__ = [
    "SimulatedClock",
    "PrestoError",
    "SyntaxError_",
    "SemanticError",
    "PlanningError",
    "ExecutionError",
    "InsufficientResourcesError",
    "SchemaEvolutionError",
    "ConnectorError",
    "StorageError",
]
