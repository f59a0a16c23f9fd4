"""Scheme registry: one canonical name -> factory table.

Every consumer that used to hardcode the scheme list — the CLI's
``--scheme`` choices, the Table I taxonomy rows, the certifier's preset
matrix, the experiment harnesses' ``make_scheme`` — derives from this
registry, so adding a scheme is one ``@register_scheme`` decoration and
every surface picks it up.

A factory takes the (optional) :class:`~repro.core.config.UPPConfig` and
returns a fresh scheme instance; schemes that do not consume the UPP
configuration simply ignore it, and are registered without
``reads_upp_config`` so a spec of theirs carries none
(:func:`spec_upp_config`).  Registration order is meaningful: it is the
paper's presentation order and the order every derived listing uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.config import UPPConfig
from repro.schemes.base import DeadlockScheme
from repro.schemes.composable import ComposableRoutingScheme
from repro.schemes.none import UnprotectedScheme
from repro.schemes.remote_control import RemoteControlScheme
from repro.schemes.upp import UPPScheme

SchemeFactory = Callable[[Optional[UPPConfig]], DeadlockScheme]


@dataclass(frozen=True)
class SchemeEntry:
    """One registered scheme: its factory plus derivation metadata."""

    name: str
    factory: SchemeFactory
    #: whether the scheme is one of the paper's modular Table I rows
    #: (the unprotected baseline is a demonstration aid, not a row).
    table1_row: bool
    description: str
    #: whether the factory reads its UPP config argument (a None
    #: argument standing for the default ``UPPConfig()``).
    reads_upp_config: bool


_REGISTRY: Dict[str, SchemeEntry] = {}


def register_scheme(
    name: str,
    *,
    table1_row: bool = True,
    description: str = "",
    reads_upp_config: bool = False,
) -> Callable[[SchemeFactory], SchemeFactory]:
    """Decorator registering ``factory`` under ``name``.

    Rejects duplicate names: a silent override would let two modules
    disagree about what a scheme name means mid-process.
    """

    def decorate(factory: SchemeFactory) -> SchemeFactory:
        if name in _REGISTRY:
            raise ValueError(f"scheme {name!r} is already registered")
        _REGISTRY[name] = SchemeEntry(
            name=name,
            factory=factory,
            table1_row=table1_row,
            description=description,
            reads_upp_config=reads_upp_config,
        )
        return factory

    return decorate


def make_scheme(name: str, upp_cfg: Optional[UPPConfig] = None) -> DeadlockScheme:
    """Instantiate a registered scheme by name."""
    try:
        entry = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; registered schemes: "
            f"{', '.join(scheme_names())}"
        ) from None
    return entry.factory(upp_cfg)


def scheme_names() -> Tuple[str, ...]:
    """Every registered scheme name, in registration order."""
    return tuple(_REGISTRY)


def table1_scheme_names() -> Tuple[str, ...]:
    """The modular schemes that appear as Table I rows."""
    return tuple(e.name for e in _REGISTRY.values() if e.table1_row)


def spec_upp_config(name: str, upp_cfg: Optional[UPPConfig]) -> Optional[UPPConfig]:
    """The UPP config a run of scheme ``name`` depends on: ``upp_cfg``,
    or the default :class:`UPPConfig` for None, when the scheme reads it;
    None for every other scheme.  Specs store this, so one simulation
    has one spec and one cache key.  An unknown name gives None: the run
    fails in :func:`make_scheme`, naming the registered schemes."""
    entry = _REGISTRY.get(name)
    if entry is None or not entry.reads_upp_config:
        return None
    return upp_cfg if upp_cfg is not None else UPPConfig()


# --------------------------------------------------------------------- #
# Built-in schemes, in the paper's presentation order (Table I bottom up:
# the two baselines, then UPP; the unprotected scheme last).


@register_scheme(
    "composable",
    description="design-time turn restrictions per chiplet (avoidance)",
)
def _make_composable(upp_cfg: Optional[UPPConfig] = None) -> DeadlockScheme:
    return ComposableRoutingScheme()


@register_scheme(
    "remote_control",
    description="boundary-buffer reservation handshake (isolation)",
)
def _make_remote_control(upp_cfg: Optional[UPPConfig] = None) -> DeadlockScheme:
    return RemoteControlScheme()


@register_scheme(
    "upp",
    description="upward packet popup detection + recovery (the paper)",
    reads_upp_config=True,
)
def _make_upp(upp_cfg: Optional[UPPConfig] = None) -> DeadlockScheme:
    return UPPScheme(upp_cfg)


@register_scheme(
    "none",
    table1_row=False,
    description="no protection; deadlocks form (demonstration baseline)",
)
def _make_none(upp_cfg: Optional[UPPConfig] = None) -> DeadlockScheme:
    return UnprotectedScheme()
