"""The versioned job wire schema (``repro-job/v1``) and its validator.

Task specs (:func:`repro.exp.tasks.sweep_point_spec` /
:func:`~repro.exp.tasks.workload_spec`) are no longer an internal detail
of the runner: they travel over the network (``repro.service`` accepts
them, ``repro.client`` emits them) and live on disk (the result cache,
the service's job queue).  That makes them a *wire format*, so every
spec carries an explicit schema tag::

    {"schema": "repro-job/v1", "kind": "sweep_point", ...}

:func:`validate_job` is the single entry point shared by the service,
the CLI and the runner (:func:`repro.exp.tasks.execute_spec` refuses
unvalidated kinds).  It is strict by design: a missing or foreign schema
tag, a missing field, a mis-typed field or an *unknown* field are all
rejected with errors that say exactly which field is wrong and what
would be accepted — silent tolerance of unknown fields would let a typo
(``"paterrn"``) quietly fall back to a default and poison the
content-addressed cache with a mislabelled entry.
"""

from __future__ import annotations

import difflib
from typing import Dict, Mapping, Tuple

#: the wire-schema tag every job spec must carry.
JOB_SCHEMA = "repro-job/v1"

#: kinds this schema version defines, mapping to their field tables.
_NUMBER = (int, float)

#: field name -> (accepted types, "human type label").  ``None`` in the
#: accepted-types tuple marks the field as nullable.
_COMMON_FIELDS: Dict[str, Tuple[tuple, str]] = {
    "schema": ((str,), "string"),
    "kind": ((str,), "string"),
    "topology": ((str,), "registered topology name (string)"),
    "cfg": ((dict,), "NocConfig.to_dict() mapping"),
    "cfg_fingerprint": ((str,), "NocConfig.fingerprint() string"),
    "scheme": ((str,), "registered scheme name (string)"),
    "upp_cfg": ((dict, type(None)), "UPPConfig.to_dict() mapping or null"),
    "upp_cfg_fingerprint": ((str, type(None)), "fingerprint string or null"),
}

_KIND_FIELDS: Dict[str, Dict[str, Tuple[tuple, str]]] = {
    "sweep_point": {
        **_COMMON_FIELDS,
        "pattern": ((str,), "traffic pattern name (string)"),
        "rate": (_NUMBER, "injection rate (number)"),
        "warmup": ((int,), "warmup cycles (integer)"),
        "measure": ((int,), "measured cycles (integer)"),
        "allow_deadlock": ((bool,), "boolean"),
    },
    "workload": {
        **_COMMON_FIELDS,
        "profile": ((dict,), "WorkloadProfile mapping"),
        "max_cycles": ((int,), "cycle budget (integer)"),
    },
}


class JobSchemaError(ValueError):
    """A job spec violates the ``repro-job/v1`` wire schema."""


def job_kinds() -> Tuple[str, ...]:
    """The kinds the current schema version defines."""
    return tuple(_KIND_FIELDS)


def _suggest(name: str, candidates) -> str:
    close = difflib.get_close_matches(name, list(candidates), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def validate_job(spec: Mapping) -> Dict[str, object]:
    """Validate one job spec against ``repro-job/v1``; returns a dict copy.

    Raises :class:`JobSchemaError` with an actionable message on any
    violation: wrong/missing schema tag, unknown kind, missing field,
    mis-typed field, a field the schema does not define, a sweep
    point's ``rate`` outside the traffic generator's range [0, 1], or a
    cycle window the service would reject (``warmup < 0``,
    ``measure <= 0``, ``max_cycles <= 0``).
    """
    if not isinstance(spec, Mapping):
        raise JobSchemaError(
            f"job spec must be a JSON object, not {type(spec).__name__}"
        )
    schema = spec.get("schema")
    if schema is None:
        raise JobSchemaError(
            'job spec has no "schema" field; add "schema": '
            f'"{JOB_SCHEMA}" (this build speaks only {JOB_SCHEMA})'
        )
    if schema != JOB_SCHEMA:
        raise JobSchemaError(
            f"unsupported job schema {schema!r}; this build speaks {JOB_SCHEMA}"
        )
    kind = spec.get("kind")
    if kind not in _KIND_FIELDS:
        raise JobSchemaError(
            f"unknown job kind {kind!r}{_suggest(str(kind), _KIND_FIELDS)}; "
            f"{JOB_SCHEMA} defines: {', '.join(job_kinds())}"
        )
    fields = _KIND_FIELDS[kind]
    missing = [name for name in fields if name not in spec]
    if missing:
        raise JobSchemaError(
            f"{kind} spec is missing required field(s): {', '.join(missing)}"
        )
    unknown = [name for name in spec if name not in fields]
    if unknown:
        hints = "".join(_suggest(name, fields) for name in unknown[:1])
        raise JobSchemaError(
            f"{kind} spec has unknown field(s): {', '.join(sorted(unknown))}"
            f"{hints}; {JOB_SCHEMA} {kind} accepts: {', '.join(fields)}"
        )
    for name, (types, label) in fields.items():
        value = spec[name]
        # bool is an int subclass; don't let True pass as an integer.
        if isinstance(value, bool) and bool not in types:
            pass
        elif isinstance(value, types):
            continue
        raise JobSchemaError(
            f"{kind} field {name!r} must be {label}, "
            f"got {type(value).__name__} ({value!r})"
        )
    if kind == "sweep_point" and not 0 <= spec["rate"] <= 1:  # NaN fails too
        raise JobSchemaError(
            f"sweep_point field 'rate' must be an injection rate in [0, 1], "
            f"got {spec['rate']!r}"
        )
    if kind == "sweep_point" and (spec["warmup"] < 0 or spec["measure"] <= 0):
        raise JobSchemaError(
            "sweep_point windows must satisfy warmup >= 0 and measure > 0, "
            f"got warmup={spec['warmup']}, measure={spec['measure']}"
        )
    if kind == "workload" and spec["max_cycles"] <= 0:
        raise JobSchemaError(
            "workload field 'max_cycles' must be positive, "
            f"got {spec['max_cycles']}"
        )
    return dict(spec)
