"""Expansion of pattern instantiations into flat ontologies.

An ExpansionEnv holds every top-level pattern and ontology definition from a
set of documents.  Expanding a named ontology walks its spec tree and adds
what every node contributes to one OntologyBuilder, frozen once at the end:
basic fragments are stratified, instantiations are bound, substituted, and
expanded recursively, and references to other named ontologies reuse a
memoized expansion.  Verification obligations are collected per named
ontology as instantiations are encountered.

List recursion consumes one element per frame and hands its tail on as the
very tuple it bound, so a frame recognises tails an earlier frame of the same
expansion has seen: their items are declared once, and a frame whose
obligations provably repeat an earlier frame's is not asked for them again.
That keeps the work per frame proportional to what the frame adds.

A kind clash is reported as the first one a fold of per-node values with
`Ontology.union` would meet.  The single accumulator finds a clash no later
than that fold does, but not always the same one, so on a clash the
expansion is rerun with one builder per node, which reproduces the fold.

Recursion depth is bounded by a budget counted in nested instantiation
frames.  Deeply recursive patterns are legitimate, so the public entry points
run the walk on a worker thread with a large stack; CPython's default
main-thread stack cannot take the recursion a ten-thousand-frame budget
implies.
"""

from __future__ import annotations

import sys
import threading
from collections import ChainMap
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, TypeVar

from .errors import (
    ArityMismatch, CyclicImport, DepthExceeded, EmptyForRequired, GdolError,
    KindClash, KindMismatch, ListLengthMismatch, SubstitutionError,
    UnknownPattern,
)
from .model import (
    Argument, Axiom, BasicSpec, ConsArg, Decl, Document, EmptyArg, EmptySpec,
    ExtensionSpec, InstSpec, LetSpec, ListArg, Name, Obligation, Ontology,
    OntologyBuilder, OntologyDef, Parameter, PatternDef, Spec, SymbolArg,
    SymbolKind, TopDecl, UnionSpec, axiom_names, canon_axiom, map_axiom,
    map_ontology, stratify, subst_axiom, substitute,
)

DEFAULT_DEPTH_BUDGET = 10000

_T = TypeVar("_T")


def run_deep(fn: Callable[[], _T], depth_budget: int = DEFAULT_DEPTH_BUDGET) -> _T:
    """Run fn on a thread with a large stack and a recursion limit sized for
    the given instantiation budget."""
    limit = depth_budget * 12 + 10000
    result: list[_T] = []
    error: list[BaseException] = []

    def work() -> None:
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, old_limit))
        try:
            result.append(fn())
        except BaseException as exc:  # re-raised on the calling thread
            error.append(exc)
        finally:
            sys.setrecursionlimit(old_limit)

    old_stack = threading.stack_size()
    threading.stack_size(512 * 1024 * 1024)
    try:
        worker = threading.Thread(target=work, name="gdol-expand")
        worker.start()
        worker.join()
    finally:
        threading.stack_size(old_stack)
    if error:
        raise error[0]
    return result[0]


# --- argument binding --------------------------------------------------------

@dataclass(frozen=True)
class Binding:
    """Result of matching arguments against a parameter list."""

    mapping: dict[str, Argument]  # param and tail names -> bound arguments
    lists: dict[str, tuple[Argument, ...]]  # full element lists per list param
    exhausted: bool  # every list parameter received an empty list


def _as_list(pattern: str, param: str, arg: Argument) -> tuple[Argument, ...]:
    match arg:
        case ListArg(items):
            return items
        case EmptyArg():
            return ()
        case ConsArg(head, tail):
            rest = _as_list(pattern, param, tail)
            return (head,) + rest
        case SymbolArg(name, _):
            raise SubstitutionError(
                f"{pattern}: parameter {param!r} needs a list, got name {name}"
            )
    raise TypeError(f"not an argument: {arg!r}")


def bind_arguments(pdef: PatternDef, args: tuple[Argument, ...]) -> Binding:
    if len(args) != len(pdef.params):
        raise ArityMismatch(pdef.name, len(pdef.params), len(args))
    mapping: dict[str, Argument] = {}
    lists: dict[str, tuple[Argument, ...]] = {}
    lengths: dict[str, int] = {}
    for param, arg in zip(pdef.params, args):
        if isinstance(arg, SymbolArg) and arg.kind is not None and arg.kind is not param.kind:
            raise KindMismatch(pdef.name, param.name, param.kind.value, arg.kind.value)
        if param.is_list:
            items = _as_list(pdef.name, param.name, arg)
            lists[param.name] = items
            lengths[param.name] = len(items)
            mapping[param.name] = items[0] if items else EmptyArg()
            assert param.list_tail is not None
            mapping[param.list_tail] = ListArg(items[1:]) if items else ListArg()
        else:
            match arg:
                case EmptyArg():
                    if not param.optional:
                        raise EmptyForRequired(pdef.name, param.name)
                    mapping[param.name] = EmptyArg()
                case SymbolArg(_, _):
                    mapping[param.name] = arg
                case _:
                    raise SubstitutionError(
                        f"{pdef.name}: parameter {param.name!r} needs a single name"
                    )
    if len(set(lengths.values())) > 1:
        detail = ", ".join(f"{k}={v}" for k, v in sorted(lengths.items()))
        raise ListLengthMismatch(pdef.name, detail)
    exhausted = bool(lengths) and all(v == 0 for v in lengths.values())
    return Binding(mapping, lists, exhausted)


# --- environment -------------------------------------------------------------

@dataclass(frozen=True)
class _Closure:
    pdef: PatternDef
    scope: Mapping[str, object]


def _bases(n: Name):
    yield n.base
    for a in n.args:
        yield from _bases(a)


def _mentions(axioms: Iterable[Axiom], names: set[str]) -> bool:
    return any(not names.isdisjoint(_bases(n)) for a in axioms for n in axiom_names(a))


class _Run:
    """State of one named-ontology or standalone-spec expansion.

    `declared` and `frames` remember list tails by identity; each entry keeps
    the tuples it is keyed by alive, so no other object can take their ids.
    """

    def __init__(self, exact: bool) -> None:
        self.exact = exact  # one builder per spec node: the kind-clash rerun
        self.sink: list[Obligation] = []
        self.declared: dict[tuple[int, SymbolKind], tuple[Argument, ...]] = {}
        self.frames: dict[tuple[int, ...], tuple] = {}

    def undeclared(self, kind: SymbolKind, items: tuple[Argument, ...],
                   tail: tuple[Argument, ...]) -> bool:
        """Whether a frame still has to declare items as kind: not when they
        are the tail of a list an earlier frame declared.  Marks tail."""
        self.declared[id(tail), kind] = tail
        return self.exact or (id(items), kind) not in self.declared

    def repeats(self, pdef: PatternDef, binding: Binding) -> bool:
        """Whether every obligation of this frame was already raised by an
        earlier frame of the same pattern that bound each list to one more
        element and every other parameter alike.  Element i here then sees
        what element i + 1 saw there, unless a constraint mentions a tail,
        or a scalar parameter's constraint mentions a list head."""
        lists = [p for p in pdef.params if p.is_list]
        if not lists:
            return False
        scalars = tuple(binding.mapping[p.name] for p in pdef.params if not p.is_list)
        tails = tuple(binding.mapping[p.list_tail].items for p in lists)
        seen = self.frames.get((id(pdef), *(id(binding.lists[p.name]) for p in lists)))
        self.frames[(id(pdef), *map(id, tails))] = (pdef, tails, scalars)
        if seen is None or seen[2] != scalars:
            return False
        tail_names = {p.list_tail for p in lists}
        head_names = {p.name for p in lists}
        return not any(_mentions(p.constraints, tail_names if p.is_list else tail_names | head_names)
                       for p in pdef.params)


class ExpansionEnv:
    """Shared state for expanding one set of documents."""

    def __init__(self, library: Mapping[str, TopDecl], depth_budget: int = DEFAULT_DEPTH_BUDGET):
        self.depth_budget = depth_budget
        self.diagnostics: list[str] = []
        self.library: dict[str, TopDecl] = dict(library)
        self._cache: dict[str, Ontology] = {}
        self._cache_obs: dict[str, tuple[Obligation, ...]] = {}
        self._stack: list[str] = []
        self._depth = 0
        self._run = _Run(exact=False)  # replaced for the length of each expansion
        self._reported: KindClash | None = None  # raised by an exact rerun
        self._stratified: set[str] = set()
        self._plain: set[str] = set()
        self._warned: set[str] = set()
        scope: dict[str, object] = {}
        for name, decl in self.library.items():
            scope[name] = _Closure(decl, scope) if isinstance(decl, PatternDef) else decl
        self._global_scope: Mapping[str, object] = scope

    @classmethod
    def from_documents(cls, docs: Iterable[Document], depth_budget: int = DEFAULT_DEPTH_BUDGET) -> "ExpansionEnv":
        library: dict[str, TopDecl] = {}
        for doc in docs:
            for decl in doc.decls:
                if isinstance(decl, (PatternDef, OntologyDef)):
                    if decl.name in library:
                        raise GdolError(f"duplicate definition of {decl.name!r} across documents")
                    library[decl.name] = decl
        return cls(library, depth_budget)

    # --- name stratification with collision tracking ---

    def _strat(self, n: Name) -> Name:
        if not n.args:
            self._plain.add(n.base)
            if n.base in self._stratified and n.base not in self._warned:
                self._warned.add(n.base)
                self.diagnostics.append(
                    f"stratified name {n.base!r} coincides with a plain name; the two merge"
                )
            return n
        flat = stratify(n)
        self._stratified.add(flat)
        if flat in self._plain and flat not in self._warned:
            self._warned.add(flat)
            self.diagnostics.append(
                f"stratified name {flat!r} coincides with a plain name; the two merge"
            )
        return Name(flat)

    # --- named ontologies ---

    def expand_named(self, name: str) -> Ontology:
        if name in self._cache:
            return self._cache[name]
        if name in self._stack:
            cycle = tuple(self._stack[self._stack.index(name):]) + (name,)
            raise CyclicImport(cycle)
        decl = self.library.get(name)
        if decl is None:
            raise UnknownPattern(name)
        if not isinstance(decl, OntologyDef):
            raise GdolError(f"{name!r} is a pattern; a reference must name an ontology")
        self._stack.append(name)
        try:
            result, sink = self._expand_root(decl.spec, decl.imports)
        finally:
            self._stack.pop()
        self._cache[name] = result
        self._cache_obs[name] = self._finalize(sink, name, result)
        return result

    def obligations(self, name: str) -> tuple[Obligation, ...]:
        self.expand_named(name)
        return self._cache_obs[name]

    @staticmethod
    def _finalize(sink: list[Obligation], name: str, context: Ontology) -> tuple[Obligation, ...]:
        seen = set()
        out = []
        for ob in sink:
            if ob.axiom in seen:
                continue
            seen.add(ob.axiom)
            out.append(replace(ob, ontology=name, context=context))
        return tuple(out)

    # --- spec walking ---

    def _expand_root(self, spec: Spec, imports: tuple[str, ...] = ()) -> tuple[Ontology, list[Obligation]]:
        """Expand spec, then unite the given named imports, in one run.  A
        kind clash is confirmed by an exact rerun, which reports the clash
        a per-node fold meets first."""
        try:
            return self._expand_run(spec, imports, exact=False)
        except KindClash as clash:
            if clash is not self._reported:  # else a nested expansion reran
                try:
                    self._expand_run(spec, imports, exact=True)
                except KindClash as exact:
                    self._reported = exact
                    raise
            raise

    def _expand_run(self, spec: Spec, imports: tuple[str, ...],
                    exact: bool) -> tuple[Ontology, list[Obligation]]:
        outer, self._run = self._run, _Run(exact)
        try:
            out = OntologyBuilder()
            self._expand_spec(spec, self._global_scope, out)
            for imp in imports:
                out.add(self.expand_named(imp))
            return out.freeze(), self._run.sink
        finally:
            self._run = outer

    def _expand_part(self, spec: Spec, scope: Mapping[str, object], out: OntologyBuilder) -> None:
        """Expand one operand of a union.  An exact run gives it a builder
        of its own, checked against its siblings only once complete."""
        if not self._run.exact:
            self._expand_spec(spec, scope, out)
            return
        part = OntologyBuilder()
        self._expand_spec(spec, scope, part)
        out.add(part.freeze())

    def _expand_spec(self, spec: Spec, scope: Mapping[str, object], out: OntologyBuilder) -> None:
        match spec:
            case BasicSpec(ontology):
                out.add(map_ontology(ontology, self._strat))
            case UnionSpec(left, right) | ExtensionSpec(left, right):
                self._expand_part(left, scope, out)
                self._expand_part(right, scope, out)
            case InstSpec():
                self._expand_inst(spec, scope, out)
            case LetSpec(locals_, body):
                inner: dict[str, object] = {}
                chained: Mapping[str, object] = ChainMap(inner, scope)
                for p in locals_:
                    inner[p.name] = _Closure(p, chained)
                self._expand_spec(body, chained, out)
            case EmptySpec():
                pass
            case _:
                raise TypeError(f"not a spec: {spec!r}")

    def _expand_inst(self, spec: InstSpec, scope: Mapping[str, object], out: OntologyBuilder) -> None:
        target = scope.get(spec.pattern)
        if target is None:
            raise UnknownPattern(spec.pattern)
        if isinstance(target, OntologyDef):
            if spec.bracketed:
                raise GdolError(f"{spec.pattern!r} names an ontology and takes no arguments")
            out.add(self.expand_named(spec.pattern))
            return
        assert isinstance(target, _Closure)
        pdef = target.pdef
        self._depth += 1
        try:
            if self._depth > self.depth_budget:
                raise DepthExceeded(self.depth_budget, pdef.name)
            binding = bind_arguments(pdef, spec.args)
            if binding.exhausted:
                return
            self._collect_obligations(pdef, binding)
            out.add(map_ontology(Ontology.of(self._param_decls(pdef, binding)), self._strat))
            for imp in pdef.imports:
                out.add(self.expand_named(imp))
            self._expand_part(substitute(pdef.body, binding.mapping), target.scope, out)
        finally:
            self._depth -= 1

    def _param_decls(self, pdef: PatternDef, binding: Binding) -> list[Decl]:
        decls: list[Decl] = []
        for param in pdef.params:
            if param.is_list:
                items = binding.lists[param.name]
                tail = binding.mapping[param.list_tail]
                assert isinstance(tail, ListArg)
                if self._run.undeclared(param.kind, items, tail.items):
                    decls.extend((param.kind, item.name) for item in items
                                 if isinstance(item, SymbolArg))
            else:
                bound = binding.mapping[param.name]
                if isinstance(bound, SymbolArg):
                    decls.append((param.kind, bound.name))
        return decls

    # --- obligations ---

    def _collect_obligations(self, pdef: PatternDef, binding: Binding) -> None:
        if not any(param.constraints for param in pdef.params) or self._run.repeats(pdef, binding):
            return
        for param in pdef.params:
            if not param.constraints:
                continue
            if param.is_list:
                for i in range(len(binding.lists[param.name])):
                    # every list runs in parallel: element i of each
                    element_view = dict(binding.mapping)
                    for other, items in binding.lists.items():
                        element_view[other] = items[i]
                    self._emit_obligations(pdef.name, param, i, element_view)
            else:
                if isinstance(binding.mapping[param.name], EmptyArg):
                    continue
                self._emit_obligations(pdef.name, param, 0, binding.mapping)

    def _emit_obligations(self, pattern: str, param: Parameter, index: int,
                          view: Mapping[str, Argument]) -> None:
        for constraint in param.constraints:
            ax = subst_axiom(constraint, view)
            if ax is None:
                continue
            ax = canon_axiom(map_axiom(ax, self._strat))
            self._run.sink.append(Obligation(ax, "", pattern, param.name, index))


# --- public entry points -----------------------------------------------------

def expand_spec_standalone(env: ExpansionEnv, spec: Spec) -> tuple[Ontology, tuple[Obligation, ...]]:
    """Expand a bare spec against an environment; the obligations come back
    with the expansion itself as context."""

    def work() -> tuple[Ontology, tuple[Obligation, ...]]:
        result, sink = env._expand_root(spec)
        return result, env._finalize(sink, "", result)

    return run_deep(work, env.depth_budget)
