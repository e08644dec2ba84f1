"""Query execution: operators, driver, coordinator/worker control plane.

Section III: a plan is divided into fragments; "each running plan fragment
is called a stage ... Stage consists of tasks, which are processing one or
many splits of input data."  In this single-process reproduction queries
run *staged*: one :class:`repro.execution.scheduler.QueryScheduler` per
query expands each fragment into tasks (one per connector split for leaf
stages) and moves pages between stages over
:class:`repro.execution.exchange.ExchangeBuffer` objects, while every
task's operators execute as a pull-based pipeline of vectorized operators
(:mod:`repro.execution.driver`).  The control plane — coordinator,
workers, task scheduling, graceful shutdown — is modeled explicitly in
:mod:`repro.execution.cluster` for the federation and elasticity
experiments, and consumes the task records staged execution produces.
"""

from repro.execution.context import ExecutionContext, QueryStats
from repro.execution.driver import execute_plan
from repro.execution.engine import PrestoEngine, QueryResult
from repro.execution.exchange import ExchangeBuffer
from repro.execution.scheduler import QueryScheduler

__all__ = [
    "ExecutionContext",
    "QueryStats",
    "execute_plan",
    "PrestoEngine",
    "QueryResult",
    "ExchangeBuffer",
    "QueryScheduler",
]
