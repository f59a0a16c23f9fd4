"""Wire schemas for service submissions (sweep / workload requests).

A *request* is what a client POSTs: a whole sweep or workload
comparison by preset/scheme/pattern name.  The service normalises it
(defaults filled, names resolved against the live registries) before it
becomes a :class:`~repro.service.jobs.Job`; the normalised request is
what gets fingerprinted for single-flight dedup and what the runner
expands into ``repro-job/v2`` point specs
(:mod:`repro.exp.schemas`).

Validation follows the same contract as :func:`repro.exp.schemas.validate_job`:
unknown fields, bad types and unknown preset/scheme/pattern/workload
names are rejected with errors that name the offending field and the
accepted values — never silently defaulted.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Tuple

from repro.exp.cache import CODE_VERSION, git_revision
from repro.exp.schemas import JobSchemaError, _suggest
from repro.fingerprint import stable_fingerprint

SWEEP_REQUEST_SCHEMA = "repro-sweep-request/v1"
WORKLOAD_REQUEST_SCHEMA = "repro-workload-request/v1"

_NUMBER = (int, float)

#: field -> (default, accepted types, human label).  ``...`` as the
#: default means "fill from this table"; validators below enforce the
#: value constraints the type system can't express.
_SWEEP_FIELDS: Dict[str, Tuple[object, tuple, str]] = {
    "schema": (SWEEP_REQUEST_SCHEMA, (str,), "schema tag (string)"),
    "preset": ("baseline", (str,), "preset name (string)"),
    "scheme": ("upp", (str,), "scheme name (string)"),
    "pattern": ("uniform_random", (str,), "traffic pattern name (string)"),
    "rates": ([0.01, 0.03, 0.05, 0.07, 0.09], (list, tuple),
              "non-empty list of positive injection rates"),
    "warmup": (2000, (int,), "warmup cycles (non-negative integer)"),
    "measure": (8000, (int,), "measured cycles (positive integer)"),
    "saturation_latency": (200.0, _NUMBER,
                           "early-stop latency (positive number)"),
    "threshold": (None, (int, type(None)),
                  "UPP detection threshold (positive integer or null)"),
}

_WORKLOAD_FIELDS: Dict[str, Tuple[object, tuple, str]] = {
    "schema": (WORKLOAD_REQUEST_SCHEMA, (str,), "schema tag (string)"),
    "preset": ("baseline", (str,), "preset name (string)"),
    "workload": ("canneal", (str,), "workload name (string)"),
    "schemes": (["composable", "remote_control", "upp"], (list, tuple, str),
                "scheme name or list of scheme names"),
    "scale": (0.25, _NUMBER, "workload scale factor (positive number)"),
    "max_cycles": (400_000, (int,), "cycle budget (positive integer)"),
}


def _normalise(kind: str, schema_tag: str, fields, body: Mapping) -> Dict[str, object]:
    if not isinstance(body, Mapping):
        raise JobSchemaError(
            f"{kind} request must be a JSON object, not {type(body).__name__}"
        )
    unknown = [name for name in body if name not in fields]
    if unknown:
        hint = _suggest(unknown[0], fields)
        raise JobSchemaError(
            f"{kind} request has unknown field(s): {', '.join(sorted(unknown))}"
            f"{hint}; {schema_tag} accepts: {', '.join(fields)}"
        )
    request: Dict[str, object] = {}
    for name, (default, types, label) in fields.items():
        value = body.get(name, default)
        if isinstance(value, bool) or not isinstance(value, types):
            raise JobSchemaError(
                f"{kind} field {name!r} must be {label}, "
                f"got {type(value).__name__} ({value!r})"
            )
        request[name] = value
    if request["schema"] != schema_tag:
        raise JobSchemaError(
            f"unsupported {kind} request schema {request['schema']!r}; "
            f"this build speaks {schema_tag}"
        )
    return request


def _check_name(kind: str, field: str, value: str, names) -> None:
    names = tuple(names)
    if value not in names:
        raise JobSchemaError(
            f"{kind} field {field!r}: unknown name {value!r}"
            f"{_suggest(value, names)}; known: {', '.join(names)}"
        )


def validate_sweep_request(body: Mapping) -> Dict[str, object]:
    """Normalise and validate one ``POST /v1/sweeps`` body."""
    from repro import api
    from repro.traffic.synthetic import PATTERNS

    request = _normalise("sweep", SWEEP_REQUEST_SCHEMA, _SWEEP_FIELDS, body)
    _check_name("sweep", "preset", request["preset"], api.preset_names())
    _check_name("sweep", "scheme", request["scheme"], api.scheme_names())
    _check_name("sweep", "pattern", request["pattern"], PATTERNS)
    rates = request["rates"]
    if not rates or not all(
        isinstance(r, _NUMBER) and not isinstance(r, bool) and 0 < r <= 1
        for r in rates
    ):
        raise JobSchemaError(
            "sweep field 'rates' must be a non-empty list of injection rates "
            f"in (0, 1], got {rates!r}"
        )
    request["rates"] = [float(r) for r in rates]
    if request["warmup"] < 0 or request["measure"] <= 0:
        raise JobSchemaError(
            "sweep windows must satisfy warmup >= 0 and measure > 0, got "
            f"warmup={request['warmup']}, measure={request['measure']}"
        )
    latency = request["saturation_latency"]
    if not latency > 0:  # NaN fails too: it would never stop early
        raise JobSchemaError(
            f"sweep field 'saturation_latency' must be positive, got {latency!r}"
        )
    request["saturation_latency"] = float(latency)
    threshold = request["threshold"]
    if threshold is not None and threshold < 1:
        raise JobSchemaError(
            f"sweep field 'threshold' must be a positive integer or null, "
            f"got {threshold!r}"
        )
    return request


def validate_workload_request(body: Mapping) -> Dict[str, object]:
    """Normalise and validate one ``POST /v1/workloads`` body."""
    from repro import api
    from repro.traffic.workloads import workload_names

    request = _normalise(
        "workload", WORKLOAD_REQUEST_SCHEMA, _WORKLOAD_FIELDS, body
    )
    _check_name("workload", "preset", request["preset"], api.preset_names())
    _check_name("workload", "workload", request["workload"], workload_names())
    schemes = request["schemes"]
    if isinstance(schemes, str):
        schemes = [schemes]
    schemes = list(schemes)
    if not schemes or not all(isinstance(s, str) for s in schemes):
        raise JobSchemaError(
            "workload field 'schemes' must be a scheme name or non-empty "
            f"list of scheme names, got {request['schemes']!r}"
        )
    for scheme in schemes:
        _check_name("workload", "schemes", scheme, api.scheme_names())
    request["schemes"] = schemes
    scale = request["scale"]
    if not (math.isfinite(scale) and scale > 0) or request["max_cycles"] <= 0:
        raise JobSchemaError(
            "workload fields 'scale' (finite) and 'max_cycles' must be "
            f"positive, got scale={scale}, max_cycles={request['max_cycles']}"
        )
    request["scale"] = float(request["scale"])
    return request


_VALIDATORS = {
    "sweep": validate_sweep_request,
    "workload": validate_workload_request,
}


def validate_request(kind: str, body: Mapping) -> Dict[str, object]:
    """Dispatch to the kind's validator (kinds: sweep, workload)."""
    try:
        validator = _VALIDATORS[kind]
    except KeyError:
        raise JobSchemaError(
            f"unknown request kind {kind!r}; kinds: {', '.join(_VALIDATORS)}"
        ) from None
    return validator(body)


def request_fingerprint(kind: str, request: Mapping) -> str:
    """The single-flight identity of a normalised request.

    Includes the code identity (:data:`CODE_VERSION` + git revision) so
    two builds never share a flight — mirroring the result cache's key
    discipline (:func:`repro.exp.cache.cache_key`).
    """
    return stable_fingerprint(
        "repro-service-job/v1",
        {
            "kind": kind,
            "request": dict(request),
            "code_version": CODE_VERSION,
            "git_rev": git_revision(),
        },
    )


def job_fingerprint(kind: str, body: Mapping) -> Tuple[Dict[str, object], str]:
    """Validate ``body`` and return (normalised request, fingerprint)."""
    request = validate_request(kind, body)
    return request, request_fingerprint(kind, request)
