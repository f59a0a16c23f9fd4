#!/usr/bin/env python
"""Repo-specific AST lint for the UPP reproduction (stdlib only).

Three rules, each protecting a property the simulator's correctness
arguments depend on:

* **R001 — determinism**: no unseeded randomness or wall-clock reads in
  the simulation core (``src/repro/core``, ``src/repro/noc``,
  ``src/repro/sim``).  Module-level ``random.<fn>()`` calls draw from the
  process-global RNG and ``time.<fn>()`` reads the host clock; both make
  runs irreproducible.  ``random.Random(<seed>)`` with an explicit seed is
  the sanctioned construction.
* **R002 — flit ownership**: flit / packet / signal objects flow through
  many components, but only the designated owners (``src/repro/noc``,
  ``src/repro/core``) may mutate their fields; anywhere else a write to a
  receiver named like a flit (``flit``, ``sig``, ``packet``, ``req``,
  ``ack``) is flagged.  The statistics fields ``hops`` and ``popup_count``
  are exempt (append-only counters, not protocol state).
* **R003 — import hygiene**: no import cycles among ``repro.*``
  sub-packages, counting module-level imports only (function-local lazy
  imports are the sanctioned way to break a would-be cycle).
* **R004 — mirror write-through**: the vector datapath keeps numpy
  mirrors of VC head eligibility / popup tags and link delivery queues,
  and parks blocked heads until a route change, pop or credit return
  re-arms them; every mutation of a mirror-backed attribute inside
  ``src/repro/noc`` and ``src/repro/schemes`` must flow through a
  ``@mirror_hook``-decorated write-through site (the property setters
  and mutator methods in ``repro.noc.buffer`` / ``repro.noc.link`` and
  the network's link drain).  Output-port ``credits`` / ``vc_busy``
  have no array but stay covered, because ``OutputPort.return_credit``
  is the re-arm event for cells parked on the port.  A raw rebind,
  subscript write or container mutation anywhere else silently
  desynchronises the arrays or strands a parked head.  The pass
  tracks simple local aliases (``flits = link._flits`` followed by
  ``flits.popleft()``) and flags ``.queue`` mutations only on VC-like
  receivers (``vc.queue.append`` — VC queues must go through
  ``push``/``pop``).  The engine itself (``repro/noc/vector.py``) and
  the marker module are exempt.

Usage: ``python tools/repro_lint.py [paths...]`` (default ``src``).
Exit code 1 when any violation is found.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import Dict, Iterator, List, Set, Tuple

#: directories (relative to the scanned root) that the determinism rule
#: covers: the simulation core, where a stray RNG/clock read breaks
#: bit-identical reproducibility.
R001_SCOPES = ("repro/core", "repro/noc", "repro/sim")

#: random-module helpers that draw from the process-global RNG.
R001_RANDOM_FUNCS = {
    "random", "randint", "randrange", "choice", "choices", "sample",
    "shuffle", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "gammavariate", "triangular", "vonmisesvariate",
    "paretovariate", "weibullvariate", "lognormvariate", "getrandbits",
    "seed", "random_bytes", "binomialvariate",
}

#: time-module wall-clock / sleep functions (any use is a violation in
#: the core: simulated time is the only clock).
R001_TIME_FUNCS = {
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns", "sleep",
    "localtime", "gmtime",
}

#: packages allowed to mutate flit/packet/signal fields (the owners).
R002_OWNER_SCOPES = ("repro/noc", "repro/core")

#: receiver names treated as flit-like objects.
R002_RECEIVERS = {"flit", "sig", "signal", "packet", "req", "ack", "credit"}

#: statistics fields any component may bump (not protocol state).
R002_EXEMPT_FIELDS = {"hops", "popup_count"}

#: packages whose code the mirror write-through rule covers.
R004_SCOPES = ("repro/noc", "repro/schemes")

#: files exempt from R004: the vector engine (it *owns* the arrays and
#: binds them to objects) and the marker module itself.
R004_EXEMPT_FILES = ("repro/noc/vector.py", "repro/noc/mirror.py")

#: attributes with a numpy mirror or a parking re-arm hook (kept in sync
#: with ``repro.noc.mirror.MIRRORED_ATTRS`` — the lint must stay
#: stdlib-only, so the set is duplicated here and cross-checked by the
#: test suite).
R004_MIRRORED_ATTRS = {
    "_out_port", "_popup_tagged",
    "_cell", "_adue", "_atag", "_aeng",
    "credits", "vc_busy", "_orow", "_aunpark",
    "_flits", "_credits", "_vec_due", "_vec_min",
    "_batch_ok", "_dst_vcs", "_dst_iport",
    "_dst_router", "_src_router", "_src_oport",
    "_dst_pt", "_src_ni", "_dst_ni",
}

#: methods that mutate a list/deque in place.
R004_MUTATORS = {
    "append", "appendleft", "extend", "extendleft", "insert",
    "pop", "popleft", "remove", "clear", "rotate", "sort", "reverse",
}

#: ``.queue`` is mirror-coupled only on VirtualChannel objects (pushes
#: and pops maintain the occupancy arrays); mutations are flagged only
#: when the receiver is named like a VC so unrelated queues (e.g. a
#: permission controller's request queue) stay clean.
R004_VC_RECEIVERS = {"vc", "ivc", "ovc", "in_vc", "dst_vc", "src_vc", "vchan"}


class Violation:
    """One lint finding."""

    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _python_files(paths: List[str]) -> Iterator[str]:
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def _in_scope(path: str, scopes: Tuple[str, ...]) -> bool:
    norm = path.replace(os.sep, "/")
    return any(f"/{scope}/" in f"/{norm}" or norm.startswith(scope) for scope in scopes)


# --------------------------------------------------------------------- #
# R001: determinism


def check_determinism(path: str, tree: ast.Module) -> List[Violation]:
    """Flag unseeded RNG draws and wall-clock reads."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)):
            continue
        module, attr = func.value.id, func.attr
        if module == "random":
            if attr == "Random":
                if not node.args and not node.keywords:
                    found.append(Violation(
                        path, node.lineno, "R001",
                        "random.Random() without an explicit seed draws "
                        "entropy from the OS; pass a seed",
                    ))
            elif attr in R001_RANDOM_FUNCS:
                found.append(Violation(
                    path, node.lineno, "R001",
                    f"random.{attr}() uses the process-global RNG; use a "
                    f"seeded random.Random instance",
                ))
        elif module == "time" and attr in R001_TIME_FUNCS:
            found.append(Violation(
                path, node.lineno, "R001",
                f"time.{attr}() reads the host clock; the simulation core "
                f"must only observe simulated cycles",
            ))
    return found


# --------------------------------------------------------------------- #
# R002: flit-field ownership


def check_flit_ownership(path: str, tree: ast.Module) -> List[Violation]:
    """Flag writes to flit-like receivers outside the owner packages."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                violation = _flit_write(path, target, node.lineno)
                if violation is not None:
                    found.append(violation)
    return found


def _flit_write(path: str, target: ast.expr, line: int):
    if not (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)):
        return None
    receiver, attr = target.value.id, target.attr
    if receiver not in R002_RECEIVERS or attr in R002_EXEMPT_FIELDS:
        return None
    return Violation(
        path, line, "R002",
        f"mutation of {receiver}.{attr} outside the flit owners "
        f"({', '.join(R002_OWNER_SCOPES)}); store derived state in the "
        f"component, not on the flit",
    )


# --------------------------------------------------------------------- #
# R004: mirror write-through


def _is_mirror_hook(decorator: ast.expr) -> bool:
    return (isinstance(decorator, ast.Name) and decorator.id == "mirror_hook") or (
        isinstance(decorator, ast.Attribute) and decorator.attr == "mirror_hook"
    )


def _vc_like(node: ast.expr) -> bool:
    """True when ``node`` names a VirtualChannel-looking receiver."""
    if isinstance(node, ast.Name):
        return node.id in R004_VC_RECEIVERS
    if isinstance(node, ast.Attribute):
        return node.attr in R004_VC_RECEIVERS
    return False


def check_mirror_writethrough(path: str, tree: ast.Module) -> List[Violation]:
    """Flag mutations of mirror-backed state outside ``@mirror_hook``
    functions (raw rebinds, subscript writes, container mutator calls),
    tracking simple local aliases within each function."""
    found: List[Violation] = []

    def scan_body(body, aliases: Set[str]) -> None:
        for stmt in body:
            scan_stmt(stmt, aliases)

    def scan_stmt(stmt: ast.stmt, aliases: Set[str]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not any(_is_mirror_hook(d) for d in stmt.decorator_list):
                scan_body(stmt.body, set())  # fresh local-alias scope
            return
        if isinstance(stmt, ast.ClassDef):
            scan_body(stmt.body, set())
            return
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            else:
                targets = [stmt.target]
            for target in targets:
                check_write(target, stmt.lineno, aliases)
            # alias creation: name = <expr>.mirrored_attr
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Attribute)
            ):
                attr = stmt.value.attr
                if attr in R004_MIRRORED_ATTRS or (
                    attr == "queue" and _vc_like(stmt.value.value)
                ):
                    aliases.add(stmt.targets[0].id)
                else:
                    aliases.discard(stmt.targets[0].id)
            elif (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                aliases.discard(stmt.targets[0].id)
        # descend into compound statements and expressions
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                scan_expr(child, stmt.lineno, aliases)
            elif isinstance(child, ast.stmt):
                scan_stmt(child, aliases)
            elif isinstance(child, (ast.ExceptHandler, ast.withitem)):
                for grandchild in ast.iter_child_nodes(child):
                    if isinstance(grandchild, ast.stmt):
                        scan_stmt(grandchild, aliases)
                    elif isinstance(grandchild, ast.expr):
                        scan_expr(grandchild, stmt.lineno, aliases)

    def check_write(target: ast.expr, line: int, aliases: Set[str]) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                check_write(element, line, aliases)
            return
        if isinstance(target, ast.Attribute):
            if target.attr in R004_MIRRORED_ATTRS:
                found.append(Violation(
                    path, line, "R004",
                    f"raw assignment to mirror-backed attribute "
                    f".{target.attr} bypasses the vector write-through; "
                    f"route it through a @mirror_hook site",
                ))
            return
        if isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Attribute) and base.attr in R004_MIRRORED_ATTRS:
                found.append(Violation(
                    path, line, "R004",
                    f"subscript write to mirror-backed .{base.attr} "
                    f"bypasses the vector write-through; route it through "
                    f"a @mirror_hook site",
                ))
            elif isinstance(base, ast.Name) and base.id in aliases:
                found.append(Violation(
                    path, line, "R004",
                    f"subscript write through alias '{base.id}' of a "
                    f"mirror-backed attribute bypasses the vector "
                    f"write-through; route it through a @mirror_hook site",
                ))

    def scan_expr(node: ast.expr, line: int, aliases: Set[str]) -> None:
        for call in ast.walk(node):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)):
                continue
            if call.func.attr not in R004_MUTATORS:
                continue
            receiver = call.func.value
            if isinstance(receiver, ast.Attribute) and (
                receiver.attr in R004_MIRRORED_ATTRS
                or (receiver.attr == "queue" and _vc_like(receiver.value))
            ):
                found.append(Violation(
                    path, call.lineno, "R004",
                    f"in-place mutation .{receiver.attr}.{call.func.attr}() "
                    f"of mirror-backed state bypasses the vector "
                    f"write-through; route it through a @mirror_hook site",
                ))
            elif isinstance(receiver, ast.Name) and receiver.id in aliases:
                found.append(Violation(
                    path, call.lineno, "R004",
                    f"in-place mutation {receiver.id}.{call.func.attr}() "
                    f"through an alias of mirror-backed state bypasses the "
                    f"vector write-through; route it through a "
                    f"@mirror_hook site",
                ))

    scan_body(tree.body, set())
    return found


# --------------------------------------------------------------------- #
# R003: import cycles


def _module_of(path: str, root: str) -> str:
    """Dotted module name of a file relative to the scan root."""
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    rel = rel[:-3]  # .py
    if rel.endswith("/__init__"):
        rel = rel[: -len("/__init__")]
    return rel.replace("/", ".")


def _package_of(module: str) -> str:
    """Sub-package granularity: repro.noc.flit -> repro.noc."""
    parts = module.split(".")
    return ".".join(parts[:2]) if len(parts) >= 2 else parts[0]


def _module_level_imports(tree: ast.Module, module: str) -> Iterator[Tuple[int, str]]:
    """(line, imported module) for module-level imports only.

    Descends into top-level ``try`` blocks (optional-dependency guards)
    but not into functions/classes — a function-local import is the
    sanctioned lazy form — and skips ``if TYPE_CHECKING:`` bodies, which
    never execute.
    """
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Try):
            stack.extend(node.body)
            stack.extend(node.orelse)
            for handler in node.handlers:
                stack.extend(handler.body)
        elif isinstance(node, ast.If):
            test = node.test
            name = (
                test.attr if isinstance(test, ast.Attribute)
                else test.id if isinstance(test, ast.Name) else ""
            )
            if name != "TYPE_CHECKING":
                stack.extend(node.body)
                stack.extend(node.orelse)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # relative import: resolve against this module's package
                parts = module.split(".")[: -node.level]
                target = ".".join(parts + ([node.module] if node.module else []))
                yield node.lineno, target
            elif node.module:
                yield node.lineno, node.module


def check_import_cycles(files: Dict[str, ast.Module], root: str) -> List[Violation]:
    """Detect cycles in the repro.* sub-package import graph."""
    edges: Dict[str, Set[str]] = {}
    sites: Dict[Tuple[str, str], Tuple[str, int]] = {}
    for path, tree in files.items():
        module = _module_of(path, root)
        if not module.startswith("repro"):
            continue
        src_pkg = _package_of(module)
        for line, imported in _module_level_imports(tree, module):
            if not imported.startswith("repro"):
                continue
            dst_pkg = _package_of(imported)
            if dst_pkg == src_pkg or dst_pkg == "repro" or src_pkg == "repro":
                continue
            edges.setdefault(src_pkg, set()).add(dst_pkg)
            sites.setdefault((src_pkg, dst_pkg), (path, line))

    found = []
    for cycle in _find_cycles(edges):
        pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
        path, line = sites[pairs[0]]
        chain = " -> ".join(cycle + [cycle[0]])
        found.append(Violation(
            path, line, "R003",
            f"import cycle across sub-packages: {chain}; break it with a "
            f"function-local import",
        ))
    return found


def _find_cycles(edges: Dict[str, Set[str]]) -> List[List[str]]:
    """Elementary cycles at package granularity (DFS; graphs are tiny)."""
    cycles = []
    seen_keys = set()
    nodes = sorted(edges)

    def dfs(start: str, node: str, trail: List[str]) -> None:
        for neighbor in sorted(edges.get(node, ())):
            if neighbor == start:
                cycle = trail[:]
                key = frozenset(cycle)
                if key not in seen_keys:
                    seen_keys.add(key)
                    cycles.append(cycle)
            elif neighbor not in trail and neighbor > start:
                dfs(start, neighbor, trail + [neighbor])

    for node in nodes:
        dfs(node, node, [node])
    return cycles


# --------------------------------------------------------------------- #


def lint(paths: List[str], root: str) -> List[Violation]:
    """Run every rule over ``paths``; returns all findings."""
    trees: Dict[str, ast.Module] = {}
    violations: List[Violation] = []
    for path in _python_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            violations.append(Violation(path, exc.lineno or 0, "E000", str(exc)))
            continue
        trees[path] = tree
        if _in_scope(path, R001_SCOPES):
            violations.extend(check_determinism(path, tree))
        if not _in_scope(path, R002_OWNER_SCOPES):
            violations.extend(check_flit_ownership(path, tree))
        norm = path.replace(os.sep, "/")
        if _in_scope(path, R004_SCOPES) and not norm.endswith(R004_EXEMPT_FILES):
            violations.extend(check_mirror_writethrough(path, tree))
    violations.extend(check_import_cycles(trees, root))
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--root", default="src",
                        help="import root for module-name resolution")
    args = parser.parse_args(argv)
    violations = lint(args.paths, args.root)
    for violation in sorted(violations, key=lambda v: (v.path, v.line)):
        print(violation)
    if violations:
        print(f"{len(violations)} violation(s)")
        return 1
    print("repro_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
