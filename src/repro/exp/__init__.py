"""repro.exp — parallel experiment orchestration with result caching.

The experiment layer's scaling story (the sim core's is
:mod:`repro.noc.network`): sweep points are embarrassingly parallel, so
:class:`ExperimentRunner` fans them out over worker processes and a
content-addressed cache makes re-runs free.  Caches are pluggable
behind the :class:`CacheBackend` protocol (sharded-dir
:class:`ResultCache`, in-memory, tiered local-over-remote); task specs
are the versioned ``repro-job/v2`` wire schema (:func:`validate_job`).
See ``docs/api.md`` and ``docs/service.md`` for the full contract
(cache-key semantics, resumability, crash retry).
"""

from repro.exp.backends import (
    CacheBackend,
    MemoryBackend,
    TieredBackend,
)
from repro.exp.cache import CODE_VERSION, ResultCache, cache_key, git_revision
from repro.exp.runner import ExperimentRunner, RunnerStats, WorkerCrashError
from repro.exp.schemas import JOB_SCHEMA, JobSchemaError, validate_job
from repro.exp.tasks import execute_spec, sweep_point_spec, workload_spec

__all__ = [
    "CODE_VERSION",
    "CacheBackend",
    "ExperimentRunner",
    "JOB_SCHEMA",
    "JobSchemaError",
    "MemoryBackend",
    "ResultCache",
    "RunnerStats",
    "TieredBackend",
    "WorkerCrashError",
    "cache_key",
    "execute_spec",
    "git_revision",
    "sweep_point_spec",
    "validate_job",
    "workload_spec",
]
