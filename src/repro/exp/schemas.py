"""The versioned job wire schema (``repro-job/v2``) and its validator.

Task specs (:func:`repro.exp.tasks.sweep_point_spec` /
:func:`~repro.exp.tasks.workload_spec`) are not an internal detail of
the runner: they are pickled to worker processes and live on disk as the
hashed payload of the result cache.  That makes them a *wire format*, so
every spec carries an explicit schema tag::

    {"schema": "repro-job/v2", "kind": "sweep_point", ...}

:func:`validate_job` is the one gate a spec passes:
:func:`repro.exp.tasks.execute_spec` applies it before running any spec,
whichever caller built it (the service and the CLI submit whole requests,
checked by :mod:`repro.service.schemas` and argparse, and reach specs
only through :mod:`repro.api`).  It is strict by design: a missing or
foreign schema tag, a missing field, a mis-typed field or an *unknown*
field are all rejected with errors that say exactly which field is wrong
and what would be accepted — silent tolerance of unknown fields would
let a typo (``"paterrn"``) quietly fall back to a default and poison the
content-addressed cache with a mislabelled entry.
"""

from __future__ import annotations

import difflib
from typing import Dict, Mapping, Tuple

from repro.topology.chiplet import (
    TopologyParamError,
    check_boundary_placement,
    check_chiplet_grid,
    system_size,
)
from repro.topology.faults import check_fault_count

#: the wire-schema tag every job spec must carry.
JOB_SCHEMA = "repro-job/v2"

_NUMBER = (int, float)


def _unit(value) -> bool:
    return 0 <= value <= 1  # NaN fails too


def _pair(value, low: int) -> bool:
    """A ``[a, b]`` list of integers (not bools) of at least ``low``."""
    ints = isinstance(value, list) and len(value) == 2
    return ints and all(type(item) is int and item >= low for item in value)


#: spec field -> (accepted types, what is accepted, range predicate or
#: None); every table below has this shape.  ``type(None)`` among the
#: types makes a field nullable; a bool (an int subclass) passes only
#: where ``bool`` is listed.  The windows are the ones the service accepts.
_COMMON_FIELDS: Dict[str, Tuple[tuple, str, object]] = {
    "schema": ((str,), "a string", None),
    "kind": ((str,), "a string", None),
    "topology": ((dict,), "a topology parameter mapping", None),
    "cfg": ((dict,), "a NocConfig.to_dict() mapping", None),
    "cfg_fingerprint": ((str,), "a NocConfig.fingerprint() string", None),
    "scheme": ((str,), "a registered scheme name (string)", None),
    "upp_cfg": ((dict, type(None)), "a UPPConfig.to_dict() mapping or null", None),
    "upp_cfg_fingerprint": ((str, type(None)), "a fingerprint string or null", None),
}

#: kinds this schema version defines, mapping to their field tables.
_KIND_FIELDS: Dict[str, Dict[str, Tuple[tuple, str, object]]] = {
    "sweep_point": {
        **_COMMON_FIELDS,
        "pattern": ((str,), "a traffic pattern name (string)", None),
        "rate": (_NUMBER, "an injection rate in [0, 1]", _unit),
        "warmup": ((int,), "a warmup cycle count >= 0", lambda v: v >= 0),
        "measure": ((int,), "a measured cycle count >= 1", lambda v: v >= 1),
        "allow_deadlock": ((bool,), "a boolean", None),
    },
    "workload": {
        **_COMMON_FIELDS,
        "profile": ((dict,), "a WorkloadProfile mapping", None),
        "max_cycles": ((int,), "a cycle budget >= 1", lambda v: v >= 1),
    },
}

#: ``WorkloadProfile`` field -> (accepted types, what is accepted, range
#: predicate or None).  Exactly the dataclass's fields (a unit test pins
#: the two together); the ranges keep a profile from stalling until its
#: cycle budget runs out (``issue_rate`` or ``mlp`` of 0 never issues).
_PROFILE_FIELDS: Dict[str, Tuple[tuple, str, object]] = {
    "name": ((str,), "a string", None),
    "issue_rate": (_NUMBER, "a number in (0, 1]", lambda v: 0 < v <= 1),
    "mlp": ((int,), "an integer >= 1", lambda v: v >= 1),
    "locality": (_NUMBER, "a number in [0, 1]", _unit),
    "directory_fraction": (_NUMBER, "a number in [0, 1]", _unit),
    "forward_fraction": (_NUMBER, "a number in [0, 1]", _unit),
    "requests_per_core": ((int,), "an integer >= 1", lambda v: v >= 1),
}

_SHAPE = ((list,), "a [rows, cols] pair of integers >= 1", lambda v: _pair(v, 1))

#: topology parameter -> as :data:`_PROFILE_FIELDS`; exactly the keys of
#: :data:`repro.topology.registry.DEFAULT_PARAMS` (a unit test pins them).
_TOPOLOGY_FIELDS: Dict[str, Tuple[tuple, str, object]] = {
    "interposer_shape": _SHAPE,
    "chiplet_shape": _SHAPE,
    "chiplet_grid": _SHAPE,
    "boundary_per_chiplet": ((int,), "an integer >= 1", lambda v: v >= 1),
    "boundary_coords": (
        (list, type(None)),
        "null or a non-empty list of [row, col] pairs of integers >= 0",
        lambda v: v is None or (v and all(_pair(c, 0) for c in v)),
    ),
    "faults": ((int,), "an integer >= 0", lambda v: v >= 0),
    "fault_seed": ((int,), "an integer", None),
}


class JobSchemaError(ValueError):
    """A job spec violates the ``repro-job/v2`` wire schema."""


def job_kinds() -> Tuple[str, ...]:
    """The kinds the current schema version defines."""
    return tuple(_KIND_FIELDS)


def _suggest(name: str, candidates) -> str:
    close = difflib.get_close_matches(name, list(candidates), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _validate_fields(prefix: str, table, mapping: Mapping) -> None:
    """``mapping`` holds exactly ``table``'s fields, each of its type and in
    its range; errors name a field ``prefix`` + its name (``"profile."``)."""
    missing = [name for name in table if name not in mapping]
    unknown = sorted(str(name) for name in mapping if name not in table)
    if missing or unknown:
        problems = []
        if missing:
            problems.append(f"is missing required field(s) {', '.join(missing)}")
        if unknown:
            hints = _suggest(unknown[0], table)
            problems.append(f"has unknown field(s) {', '.join(unknown)}{hints}")
        owner = f"field {prefix[:-1]!r}" if prefix else "spec"
        raise JobSchemaError(
            f"job {owner} {' and '.join(problems)}; it accepts: {', '.join(table)}"
        )
    for name, (types, label, in_range) in table.items():
        value = mapping[name]
        if (
            (isinstance(value, bool) and bool not in types)
            or not isinstance(value, types)
            or (in_range is not None and not in_range(value))
        ):
            raise JobSchemaError(
                f"job field '{prefix}{name}' must be {label}, got {value!r}"
            )


def _validate_buildable(topology: Mapping) -> None:
    """Parameters each in range can still describe a system that cannot
    be built; this runs ``build_system``'s and ``inject_faults``' own
    checks on them, without building it."""
    try:
        check_chiplet_grid(topology["interposer_shape"], topology["chiplet_grid"])
    except ValueError as exc:
        raise JobSchemaError(
            f"job field 'topology.chiplet_grid' {topology['chiplet_grid']!r} "
            f"cannot build: {exc} (interposer_shape "
            f"{topology['interposer_shape']!r})"
        ) from None
    try:
        check_boundary_placement(
            topology["interposer_shape"],
            topology["chiplet_shape"],
            topology["chiplet_grid"],
            topology["boundary_per_chiplet"],
            topology["boundary_coords"],
        )
    except TopologyParamError as exc:
        raise JobSchemaError(
            f"job field 'topology.{exc.param}' {topology[exc.param]!r} "
            f"cannot build: {exc}"
        ) from None
    if topology["faults"]:
        size = system_size(
            topology["interposer_shape"],
            topology["chiplet_shape"],
            topology["chiplet_grid"],
        )
        try:
            check_fault_count(topology["faults"], *size)
        except ValueError as exc:
            raise JobSchemaError(
                f"job field 'topology.faults' {topology['faults']!r} cannot "
                f"build: {exc}"
            ) from None


def validate_job(spec: Mapping) -> Dict[str, object]:
    """Validate one job spec against ``repro-job/v2``; returns a dict copy.

    Raises :class:`JobSchemaError` with an actionable message on any
    violation: wrong/missing schema tag, unknown kind, or a spec,
    ``topology`` or workload ``profile`` field that is missing, unknown,
    mis-typed or out of range (:data:`_KIND_FIELDS`,
    :data:`_TOPOLOGY_FIELDS`, :data:`_PROFILE_FIELDS`): a sweep point's
    ``rate`` outside the traffic generator's range [0, 1], a cycle window
    the service would reject, a profile that never issues, a chiplet grid
    that does not tile the interposer, boundary routers ``build_system``
    cannot place or more faults than the layers can lose and stay
    connected.
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
    _validate_fields("", _KIND_FIELDS[kind], spec)
    _validate_fields("topology.", _TOPOLOGY_FIELDS, spec["topology"])
    _validate_buildable(spec["topology"])
    if kind == "workload":
        _validate_fields("profile.", _PROFILE_FIELDS, spec["profile"])
    return dict(spec)
