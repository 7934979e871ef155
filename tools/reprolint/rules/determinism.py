"""Determinism rules: patterns that make a run depend on something other
than the seed.

The repo's headline guarantee is that a seed fully determines every
schedule, every commit log, and every measurement (tests assert
byte-identical fingerprints across engines).  Three things silently break
that in Python: address-ordered ``set`` iteration (varies with
``PYTHONHASHSEED``), wall-clock reads (vary with the host), and the
module-global ``random`` state (shared, unseeded, import-order
dependent).  These rules turn the conventions documented in
``src/repro/ce/depgraph.py`` ("all collections that the controller
iterates are dicts used as ordered sets") into machine-checked law.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from tools.reprolint.engine import Module
from tools.reprolint.findings import Finding
from tools.reprolint.registry import rule

# --------------------------------------------------------------------------
# Shared helpers: set-type inference and import alias maps
# --------------------------------------------------------------------------

_SET_CONSTRUCTORS = {"set", "frozenset"}
_SET_RETURNING_METHODS = {"union", "intersection", "difference",
                          "symmetric_difference", "copy"}
_SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet", "AbstractSet",
                    "MutableSet"}


def _annotation_is_set(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Name):
        return node.id in _SET_ANNOTATIONS
    if isinstance(node, ast.Attribute):  # typing.Set, typing.FrozenSet
        return node.attr in _SET_ANNOTATIONS
    if isinstance(node, ast.Subscript):  # Set[str], set[str]
        return _annotation_is_set(node.value)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotations: "Set[str]"
        text = node.value.split("[", 1)[0].strip()
        return text.rsplit(".", 1)[-1] in _SET_ANNOTATIONS
    return False


class _SetTypes:
    """Flow-insensitive, scope-local inference of set-typed expressions.

    A *name* is set-typed when every assignment to it in the scope is a
    set-typed expression (one contrary assignment clears it — better to
    miss a finding than to flag a rebound name).  ``self.attr`` names are
    tracked the same way across a whole class body.
    """

    def __init__(self) -> None:
        self.names: Dict[str, bool] = {}  # name -> still set-typed

    def observe_assign(self, target: ast.expr, value: ast.expr) -> None:
        key = self._key(target)
        if key is None:
            return
        is_set = self.is_set(value)
        if key in self.names:
            self.names[key] = self.names[key] and is_set
        else:
            self.names[key] = is_set

    def observe_annotation(self, target: ast.expr,
                           annotation: ast.expr) -> None:
        key = self._key(target)
        if key is not None and _annotation_is_set(annotation):
            self.names.setdefault(key, True)

    @staticmethod
    def _key(node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            return f"self.{node.attr}"
        return None

    def is_set(self, node: ast.expr) -> bool:
        """Is this expression statically known to produce a set?"""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SET_CONSTRUCTORS:
                return True
            if isinstance(func, ast.Attribute) \
                    and func.attr in _SET_RETURNING_METHODS \
                    and self.is_set(func.value):
                return True
            return False
        if isinstance(node, ast.BinOp) \
                and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub,
                                         ast.BitXor)):
            return self.is_set(node.left) or self.is_set(node.right)
        key = self._key(node)
        if key is not None:
            return bool(self.names.get(key, False))
        return False


def _class_attr_types(cls: ast.ClassDef) -> _SetTypes:
    """Set-typed ``self.attr`` names across every method of a class, plus
    dataclass-style ``field(default_factory=set)`` class attributes."""
    types = _SetTypes()
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                          ast.Name):
            if _annotation_is_set(stmt.annotation) or (
                    stmt.value is not None
                    and _field_factory_is_set(stmt.value)):
                types.names[f"self.{stmt.target.id}"] = True
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute):
                    types.observe_assign(target, node.value)
        elif isinstance(node, ast.AnnAssign) and node.target is not None:
            if isinstance(node.target, ast.Attribute):
                types.observe_annotation(node.target, node.annotation)
                if node.value is not None:
                    types.observe_assign(node.target, node.value)
    return types


def _field_factory_is_set(value: ast.expr) -> bool:
    if not (isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "field"):
        return False
    for keyword in value.keywords:
        if keyword.arg == "default_factory" \
                and isinstance(keyword.value, ast.Name) \
                and keyword.value.id in _SET_CONSTRUCTORS:
            return True
    return False


def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested function scopes
    (each function gets its own pass with its own inferred types)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _scopes(module: Module) -> Iterator[Tuple[ast.AST, _SetTypes]]:
    """(scope node, inferred set types) for the module and each function.

    Function scopes inherit the enclosing class's ``self.attr`` verdicts
    so ``for x in self._some_set`` is caught inside methods.
    """
    module_types = _SetTypes()
    _seed_scope_types(module.tree, module_types)
    yield module.tree, module_types
    class_types: Dict[int, _SetTypes] = {}
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(module.tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef):
            class_types[id(node)] = _class_attr_types(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            types = _SetTypes()
            owner = parents.get(id(node))
            if isinstance(owner, ast.ClassDef):
                if id(owner) not in class_types:
                    class_types[id(owner)] = _class_attr_types(owner)
                types.names.update(class_types[id(owner)].names)
            for arg in (list(node.args.posonlyargs) + list(node.args.args)
                        + list(node.args.kwonlyargs)):
                if _annotation_is_set(arg.annotation):
                    types.names[arg.arg] = True
            _seed_scope_types(node, types)
            yield node, types


def _seed_scope_types(scope: ast.AST, types: _SetTypes) -> None:
    """Record every assignment directly in ``scope`` (nested functions are
    their own scopes and do not pollute this one)."""
    for node in _walk_scope(scope):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                types.observe_assign(target, node.value)
        elif isinstance(node, ast.AnnAssign):
            types.observe_annotation(node.target, node.annotation)
            if node.value is not None:
                types.observe_assign(node.target, node.value)
        elif isinstance(node, ast.AugAssign):
            pass  # |= etc. keep the existing verdict


def _import_aliases(module: Module) -> Dict[str, str]:
    """Name bound in this module -> fully qualified origin.

    ``import time`` binds ``time -> time``; ``import time as t`` binds
    ``t -> time``; ``from time import perf_counter as pc`` binds
    ``pc -> time.perf_counter``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".", 1)[0]
                aliases[bound] = alias.name if alias.asname else \
                    alias.name.split(".", 1)[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            base = node.module or ""
            for alias in node.names:
                bound = alias.asname or alias.name
                aliases[bound] = f"{base}.{alias.name}" if base \
                    else alias.name
    return aliases


def _qualified(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve a Name/Attribute chain to its imported qualified name."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    origin = aliases.get(current.id)
    if origin is None:
        return None
    return ".".join([origin] + list(reversed(parts)))


# --------------------------------------------------------------------------
# D101 — set iteration whose order can escape
# --------------------------------------------------------------------------

_ORDER_ESCAPING_CALLS = {"list", "tuple", "min", "max", "enumerate"}


@rule(id="D101", name="set-iteration")
def check_set_iteration(module: Module) -> Iterator[Finding]:
    """Iterating a ``set``/``frozenset`` where the order can escape.

    Why: CPython sets iterate in address/hash order, which varies with
    ``PYTHONHASHSEED`` and allocation history — any schedule, log, or
    collection built from such an iteration breaks the bit-identical
    fingerprints the whole test pyramid relies on.  The controller's
    convention (``repro/ce/depgraph.py`` module docstring) is dicts used
    as ordered sets; membership tests, ``len``, and set algebra are fine,
    and ``sorted(s)`` launders the order deterministically.  Flagged:
    ``for x in s``, comprehension iteration, ``list(s)``, ``tuple(s)``,
    ``min(s)``/``max(s)`` (ties resolve in iteration order),
    ``enumerate(s)``, and ``next(iter(s))``.
    """
    for scope, types in _scopes(module):
        for node in _walk_scope(scope):
            if isinstance(node, ast.For) and types.is_set(node.iter):
                yield module.finding(
                    "D101", node,
                    "iterates a set in unordered (hash) order; iterate an "
                    "insertion-ordered dict or wrap in sorted()")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for comp in node.generators:
                    if types.is_set(comp.iter):
                        yield module.finding(
                            "D101", node,
                            "comprehension over a set iterates in unordered "
                            "(hash) order; wrap the source in sorted()")
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) \
                        and func.id in _ORDER_ESCAPING_CALLS \
                        and node.args and types.is_set(node.args[0]) \
                        and not any(kw.arg == "key" for kw in node.keywords):
                    yield module.finding(
                        "D101", node,
                        f"{func.id}() over a set captures unordered (hash) "
                        f"order; use sorted() or an ordered source")
                elif isinstance(func, ast.Name) and func.id == "iter" \
                        and node.args and types.is_set(node.args[0]):
                    yield module.finding(
                        "D101", node,
                        "iter() over a set yields hash order (e.g. "
                        "next(iter(s)) picks an arbitrary element)")


# --------------------------------------------------------------------------
# D102 — wall-clock reads
# --------------------------------------------------------------------------

_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: Paths where wall-clock reads are the point (measuring real elapsed
#: time), not a determinism leak into simulated behavior.
_WALL_CLOCK_ALLOWED_PREFIXES = ("benchmarks/", "tools/")


@rule(id="D102", name="wall-clock")
def check_wall_clock(module: Module) -> Iterator[Finding]:
    """Wall-clock reads (``time.time``, ``datetime.now``, ``perf_counter``
    …) outside ``benchmarks/``.

    Why: simulated components must take *all* time from
    ``Environment.now`` — a wall-clock read makes behavior depend on host
    speed and load, so two runs of the same seed diverge.  Benchmarks
    (and repo tooling) measure real elapsed time by design and are
    exempt.
    """
    if module.relpath.startswith(_WALL_CLOCK_ALLOWED_PREFIXES):
        return
    aliases = _import_aliases(module)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        qualified = _qualified(node.func, aliases)
        if qualified in _WALL_CLOCK:
            yield module.finding(
                "D102", node,
                f"wall-clock read {qualified}() in simulated code; take "
                f"time from Environment.now (benchmarks/ are exempt)")


# --------------------------------------------------------------------------
# D103 — module-global random state
# --------------------------------------------------------------------------

_GLOBAL_RANDOM_FUNCS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "lognormvariate",
    "expovariate", "betavariate", "gammavariate", "triangular",
    "vonmisesvariate", "paretovariate", "weibullvariate", "getrandbits",
    "randbytes", "seed", "setstate", "getstate",
}


@rule(id="D103", name="global-random")
def check_global_random(module: Module) -> Iterator[Finding]:
    """Calls on the module-global ``random`` state (``random.random()``,
    ``from random import shuffle``, …).

    Why: the global RNG is shared process-wide, so any third party
    drawing from it perturbs every later draw — reproducibility then
    depends on import order and call interleaving.  All stochastic
    behavior must flow through a seeded ``random.Random`` instance
    (``repro.sim.rng.make_rng``/``derive_rng``); constructing
    ``random.Random(seed)`` is of course allowed.
    """
    aliases = _import_aliases(module)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        qualified = _qualified(node.func, aliases)
        if qualified is None:
            continue
        parts = qualified.split(".")
        if len(parts) == 2 and parts[0] == "random" \
                and parts[1] in _GLOBAL_RANDOM_FUNCS:
            yield module.finding(
                "D103", node,
                f"{qualified}() draws from the process-global RNG; use a "
                f"seeded random.Random (repro.sim.rng.make_rng)")


# --------------------------------------------------------------------------
# D104 — id()/hash() as an ordering key
# --------------------------------------------------------------------------

_SORTING_CALLS = {"sorted", "min", "max"}


def _key_uses_identity(keyword: ast.keyword) -> bool:
    value = keyword.value
    if isinstance(value, ast.Name) and value.id in ("id", "hash"):
        return True
    if isinstance(value, ast.Lambda):
        for node in ast.walk(value.body):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id in ("id", "hash"):
                return True
    return False


@rule(id="D104", name="id-order")
def check_id_order(module: Module) -> Iterator[Finding]:
    """``id()`` or default object ``hash()`` used as a sort/min/max key.

    Why: ``id()`` is an address and the default ``object.__hash__`` is
    derived from it, so an ordering keyed on either changes from run to
    run with allocation history.  Ordering must key on stable domain
    identifiers (``tx_id``, ``order_index``, names) — exactly how
    ``repro.ce.validation`` orders a block's entries
    (``(order_index, tx_id)``).  Whole-graph walks over
    ``DependencyGraph`` adjacency live in the test-only
    ``tests/ce/graph_reference.py`` and key on ``id()`` only for
    membership, never for order.
    """
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        is_sort = (isinstance(node.func, ast.Name)
                   and node.func.id in _SORTING_CALLS) \
            or (isinstance(node.func, ast.Attribute)
                and node.func.attr == "sort")
        if not is_sort:
            continue
        for keyword in node.keywords:
            if keyword.arg == "key" and _key_uses_identity(keyword):
                yield module.finding(
                    "D104", node,
                    "ordering keyed on id()/hash() varies with allocation "
                    "history; key on a stable domain identifier")


# --------------------------------------------------------------------------
# D105 — environment variable reads
# --------------------------------------------------------------------------

#: Configuration and benchmark entry points may consult the environment;
#: library code deciding behavior from it makes runs machine-dependent.
_ENV_ALLOWED_PREFIXES = ("benchmarks/", "tools/")
_ENV_ALLOWED_MODULES = {"repro.core.config", "repro.__main__"}


@rule(id="D105", name="env-read")
def check_env_read(module: Module) -> Iterator[Finding]:
    """``os.environ`` / ``os.getenv`` reads outside config and benchmark
    entry points.

    Why: an environment variable consulted deep in library code is an
    invisible input — two hosts running the same seed can behave
    differently with nothing in the experiment configuration recording
    why.  Environment reads belong at the edges (``repro.core.config``,
    ``__main__``, ``benchmarks/``), where they become explicit, logged
    configuration.
    """
    if module.relpath.startswith(_ENV_ALLOWED_PREFIXES) \
            or module.name in _ENV_ALLOWED_MODULES:
        return
    aliases = _import_aliases(module)
    for node in ast.walk(module.tree):
        qualified: Optional[str] = None
        if isinstance(node, ast.Call):
            qualified = _qualified(node.func, aliases)
            if qualified == "os.getenv" or (
                    qualified is not None
                    and qualified.startswith("os.environ.")):
                yield module.finding(
                    "D105", node,
                    f"{qualified}() read outside config/benchmark entry "
                    f"points; thread it through explicit configuration")
        elif isinstance(node, ast.Subscript):
            qualified = _qualified(node.value, aliases)
            if qualified == "os.environ":
                yield module.finding(
                    "D105", node,
                    "os.environ[...] read outside config/benchmark entry "
                    "points; thread it through explicit configuration")
