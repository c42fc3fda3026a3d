"""Expansion of pattern instantiations into flat ontologies.

An ExpansionEnv holds every top-level pattern and ontology definition from a
set of documents.  Expanding a named ontology walks its spec tree and adds
what every node contributes to one OntologyBuilder, frozen once at the end.
An instantiation walks its pattern body with its binding: basic fragments
are substituted, stratified and canonicalized in one rebuild straight into
the builder, nested instantiations substitute their arguments, a let-bound
pattern closes over the binding in force where its `let` is walked, and
references to other named ontologies reuse a memoized expansion.  A local's
body and constraints are substituted under that binding with the local's
own parameters over it, so an argument is substituted once, where it is
written, and no name in it is captured.  Verification obligations are
collected per named ontology as instantiations are encountered.  A name
takes part in a merge warning only once the value it belongs to is kept.

List recursion consumes one element per frame and hands its tail on as the
very tuple it bound, so a frame recognises tails an earlier frame of the same
expansion has seen: their items are declared once, and a frame whose
obligations provably repeat an earlier frame's is not asked for them again.
That keeps the work per frame proportional to what the frame adds.

A kind clash is reported where the walk first adds a declaration that
contradicts the builder it goes into, whether a node's own or a referenced
ontology's once expanded, naming the least clashing flat name there in
(name, kind) order.

The walk is one loop over an explicit stack of work items, so no nesting of
patterns, unions or references is too deep for it.  Union operands, let and
pattern bodies, a frame's `given` imports and references to other named
ontologies are items, pushed so that they pop in the pre-order of the spec
tree; the order obligations are found in, which error is raised first and
the frame order list tails are recognised in all follow from that.  Each
item carries the instantiation depth it is expanded at, so the budget
counts nested instantiation frames.  A named ontology that is not cached
opens a run with a builder of its own, and a closing item freezes it,
caches it and adds it to the builder that referenced it.
"""

from __future__ import annotations

from collections import ChainMap
from typing import Iterable, Mapping

from .errors import (
    ArityMismatch, CyclicImport, DepthExceeded, EmptyForRequired, GdolError,
    KindMismatch, ListLengthMismatch, SubstitutionError, UnknownPattern,
)
from .model import (
    Argument, Axiom, BasicSpec, ConsArg, Decl, Document, EmptyArg, EmptySpec,
    ExtensionSpec, InstSpec, LetSpec, ListArg, Name, Node, Obligation, Ontology,
    OntologyBuilder, OntologyDef, Parameter, PatternDef, Spec, SymbolArg,
    SymbolKind, TopDecl, UnionSpec, axiom_names, stratify,
    subst_arguments, subst_axiom, subst_decls,
)

_Found = tuple[Axiom, str, str, int]  # an obligation's axiom, pattern, param, index

DEFAULT_DEPTH_BUDGET = 10000

_SPEC, _NAMED, _CLOSE = range(3)  # work item tags, see ExpansionEnv._walk


def run_deep(fn, depth_budget=DEFAULT_DEPTH_BUDGET):
    """Call fn.  Kept for scripts written when expansion ran on a deep stack."""
    return fn()


# --- argument binding --------------------------------------------------------

class Binding(Node):
    """Result of matching arguments against a parameter list."""

    mapping: dict[str, Argument]  # param and tail names -> bound arguments
    lists: dict[str, tuple[Argument, ...]]  # full element lists per list param
    exhausted: bool  # every list parameter received an empty list


def _as_list(pattern: str, param: str, arg: Argument) -> tuple[Argument, ...]:
    heads: list[Argument] = []
    while isinstance(arg, ConsArg):
        heads.append(arg.head)
        arg = arg.tail
    match arg:
        case ListArg(items):
            return (*heads, *items) if heads else items  # a list as given keeps its identity
        case EmptyArg():
            return tuple(heads)
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
    for param, arg in zip(pdef.params, args):
        t = type(arg)
        if t is SymbolArg and arg.kind is not None and arg.kind is not param.kind:
            raise KindMismatch(pdef.name, param.name, param.kind.value, arg.kind.value)
        if param.list_tail is not None:
            items = arg.items if t is ListArg else _as_list(pdef.name, param.name, arg)
            lists[param.name] = items
            mapping[param.name] = items[0] if items else EmptyArg()
            mapping[param.list_tail] = ListArg(items[1:])
        elif t is SymbolArg:
            mapping[param.name] = arg
        elif t is EmptyArg:
            if not param.optional:
                raise EmptyForRequired(pdef.name, param.name)
            mapping[param.name] = arg
        else:
            raise SubstitutionError(f"{pdef.name}: parameter {param.name!r} needs a single name")
    lengths = {len(items) for items in lists.values()}
    if len(lengths) > 1:
        detail = ", ".join(f"{k}={len(v)}" for k, v in sorted(lists.items()))
        raise ListLengthMismatch(pdef.name, detail)
    return Binding(mapping, lists, lengths == {0})


# --- environment -------------------------------------------------------------

class _Closure(Node, eq=False):  # hashed by identity, as a key of _Run.frames
    pdef: PatternDef
    scope: Mapping[str, object]
    binding: Mapping[str, Argument]  # in force where its let is walked; {} at top level


def _bases(n: Name):
    yield n.base
    for a in n.args:
        yield from _bases(a)


def _mentions(axioms: Iterable[Axiom], names: set[str]) -> bool:
    return any(not names.isdisjoint(_bases(n)) for a in axioms for n in axiom_names(a))


class _Run:
    """State of one named-ontology or standalone-spec expansion: its name,
    the builder its nodes go into and the builder its result goes into once
    complete (None for the outermost run), and its obligations.

    `declared` and `frames` remember list tails by identity; each entry keeps
    the tuples (and closure) it is keyed by alive, so no other object can
    take their ids.
    """

    def __init__(self, name: str | None, into: OntologyBuilder | None) -> None:
        self.name = name  # None for a standalone spec
        self.into = into
        self.out = OntologyBuilder()
        self.sink: list[_Found] = []
        self.declared: dict[tuple[int, SymbolKind], tuple[Argument, ...]] = {}
        self.frames: dict[tuple, tuple] = {}

    def undeclared(self, kind: SymbolKind, items: tuple[Argument, ...],
                   tail: tuple[Argument, ...]) -> bool:
        """Whether a frame still has to declare items as kind: not when they
        are the tail of a list an earlier frame declared.  Marks tail."""
        self.declared[id(tail), kind] = tail
        return (id(items), kind) not in self.declared

    def repeats(self, closure: _Closure, binding: Binding) -> bool:
        """Whether every obligation of this frame was already raised by an
        earlier frame of the same closure (so under the same outer binding)
        that bound each list to one more element and every other parameter
        alike.  Element i here then sees what element i + 1 saw there, unless
        a constraint mentions a tail, or a scalar parameter's constraint
        mentions a list head."""
        pdef = closure.pdef
        lists = [p for p in pdef.params if p.is_list]
        if not lists:
            return False
        scalars = tuple(binding.mapping[p.name] for p in pdef.params if not p.is_list)
        tails = tuple(binding.mapping[p.list_tail].items for p in lists)
        seen = self.frames.get((closure, *(id(binding.lists[p.name]) for p in lists)))
        self.frames[(closure, *map(id, tails))] = (tails, scalars)
        if seen is None or seen[1] != scalars:
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
        self._stratified: set[str] = set()
        self._plain: set[str] = set()
        self._warned: set[str] = set()
        self._queued: list[tuple[str, bool]] = []  # (flat name, stratified) for _note
        self._work: list[tuple] = []  # the current walk's items, see _walk
        self._runs: list[_Run] = []  # the current walk's open runs, innermost last
        scope: dict[str, object] = {}
        for name, decl in self.library.items():
            scope[name] = _Closure(decl, scope, {}) if isinstance(decl, PatternDef) else decl
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
        """Stratify a name of a value under substitution; queue it for `_note`."""
        if not n.args:
            self._queued.append((n.base, False))
            return n
        flat = stratify(n)
        self._queued.append((flat, True))
        return Name(flat)

    def _note(self) -> None:
        """Record the queued names of a kept value; warn once for each flat
        name that is both a stratified and a plain name."""
        for flat, stratified in self._queued:
            (self._stratified if stratified else self._plain).add(flat)
            if flat in self._stratified and flat in self._plain:
                self._warn(f"stratified name {flat!r} coincides with a plain name; the two merge")
        self._queued.clear()

    def _warn(self, message: str) -> None:
        if message not in self._warned:
            self._warned.add(message)
            self.diagnostics.append(message)

    # --- named ontologies ---

    def expand_named(self, name: str) -> Ontology:
        if name not in self._cache:
            self._walk(name, None)
        return self._cache[name]

    def obligations(self, name: str) -> tuple[Obligation, ...]:
        self.expand_named(name)
        return self._cache_obs[name]

    @staticmethod
    def _finalize(sink: list[_Found], name: str, context: Ontology) -> tuple[Obligation, ...]:
        first: dict[Axiom, _Found] = {}  # the first raised of each axiom, in order
        for found in sink:
            first.setdefault(found[0], found)
        return tuple(Obligation(axiom, name, pattern, param, index, context)
                     for axiom, pattern, param, index in first.values())

    # --- spec walking ---

    def _walk(self, name: str | None, spec: Spec | None) -> tuple[Ontology, tuple[Obligation, ...]]:
        """Expand the named ontology name, or else spec standalone: pop work
        items until the outermost run closes, and return its ontology and
        obligations.

        Items, by their first field:
            _SPEC, spec, scope, out, binding, depth: expand spec into out
            _NAMED, name, out, depth: add a named ontology to out
            _CLOSE: the innermost run has expanded its spec and imports
        """
        work, runs = self._work, self._runs = [], []
        if name is None:
            assert spec is not None
            self._open(None, spec, (), None, 0)
        else:
            self._reference(name, None, 0)
        while True:
            item = work.pop()
            tag = item[0]
            if tag == _SPEC:
                self._spec(*item[1:])
            elif tag == _NAMED:
                self._reference(*item[1:])
            else:
                run = runs.pop()
                result = run.out.freeze()
                obligations = self._finalize(run.sink, run.name or "", result)
                if run.name is not None:
                    self._cache[run.name] = result
                    self._cache_obs[run.name] = obligations
                if run.into is None:
                    return result, obligations
                run.into.add(result)

    def _open(self, name: str | None, spec: Spec, imports: tuple[str, ...],
              into: OntologyBuilder | None, depth: int) -> None:
        """Start a run: its spec, then its imports, then its closing item."""
        run = _Run(name, into)
        self._runs.append(run)
        work = self._work
        work.append((_CLOSE,))
        for imp in reversed(imports):
            work.append((_NAMED, imp, run.out, depth))
        work.append((_SPEC, spec, self._global_scope, run.out, {}, depth))

    def _reference(self, name: str, into: OntologyBuilder | None, depth: int) -> None:
        """Add a named ontology to into, opening a run for it unless cached."""
        cached = self._cache.get(name)
        if cached is not None:
            assert into is not None
            into.add(cached)
            return
        open_names = [run.name for run in self._runs]
        if name in open_names:
            raise CyclicImport(tuple(open_names[open_names.index(name):]) + (name,))
        decl = self.library.get(name)
        if decl is None:
            raise UnknownPattern(name)
        if not isinstance(decl, OntologyDef):
            raise GdolError(f"{name!r} is a pattern; a reference must name an ontology")
        self._open(name, decl.spec, decl.imports, into, depth)

    def _spec(self, spec: Spec, scope: Mapping[str, object], out: OntologyBuilder,
              binding: Mapping[str, Argument], depth: int) -> None:
        """Expand one spec node with binding substituted into it on the way;
        queue its children."""
        match spec:
            case BasicSpec(ontology):
                self._add(ontology.decls, ontology.axioms, binding, out)
            case UnionSpec(ops) | ExtensionSpec(ops):
                for op in reversed(ops):
                    self._work.append((_SPEC, op, scope, out, binding, depth))
            case InstSpec():
                args = subst_arguments(spec.args, binding)
                if args is not None:  # else an argument mentions an empty-bound name
                    self._instantiate(spec, args, scope, out, depth)
            case LetSpec(locals_, body):
                inner: dict[str, object] = {}
                chained: Mapping[str, object] = ChainMap(inner, scope)
                for p in locals_:
                    shadowed = sorted(p.param_names & binding.keys())
                    if shadowed:
                        self._warn(f"parameters {shadowed} of local pattern {p.name!r}"
                                   " shadow outer bindings")
                    inner[p.name] = _Closure(p, chained, binding)
                self._work.append((_SPEC, body, chained, out, binding, depth))
            case EmptySpec():
                pass
            case _:
                raise TypeError(f"not a spec: {spec!r}")

    def _subst_axioms(self, axioms: Iterable[Axiom], binding: Mapping[str, Argument]) -> list[Axiom]:
        """Substitute, stratify and canonicalize axioms in one rebuild each.
        One deleted by an empty binding leaves none of its names queued."""
        kept = []
        for a in axioms:
            mark = len(self._queued)
            b = subst_axiom(a, binding, self._strat)
            if b is None:
                del self._queued[mark:]
            else:
                kept.append(b)
        return kept

    def _add(self, decls: Iterable[Decl], axioms: Iterable[Axiom],
             binding: Mapping[str, Argument], out: OntologyBuilder) -> None:
        """Substitute, stratify and canonicalize one node into out, then
        record its names.  A declaration that contradicts out raises the
        KindClash of the least clashing flat name."""
        self._queued.clear()
        decls = subst_decls(decls, binding, self._strat)
        axioms = self._subst_axioms(axioms, binding)
        out.extend(decls, axioms)
        self._note()

    def _instantiate(self, spec: InstSpec, args: tuple[Argument, ...],
                     scope: Mapping[str, object], out: OntologyBuilder, depth: int) -> None:
        """Open a frame one level deeper: obligations and parameter
        declarations now, then the given imports and the body in order."""
        target = scope.get(spec.pattern)
        if target is None:
            raise UnknownPattern(spec.pattern)
        if isinstance(target, OntologyDef):
            if spec.bracketed:
                raise GdolError(f"{spec.pattern!r} names an ontology and takes no arguments")
            self._reference(spec.pattern, out, depth)
            return
        assert isinstance(target, _Closure)
        pdef = target.pdef
        depth += 1
        if depth > self.depth_budget:
            raise DepthExceeded(self.depth_budget, pdef.name)
        binding = bind_arguments(pdef, args)
        if binding.exhausted:
            return
        mapping = {**target.binding, **binding.mapping}  # own names shadow outer ones
        self._collect_obligations(target, binding, mapping)
        self._add(self._param_decls(pdef, binding), (), {}, out)
        self._work.append((_SPEC, pdef.body, target.scope, out, mapping, depth))
        for imp in reversed(pdef.imports):
            self._work.append((_NAMED, imp, out, depth))

    def _param_decls(self, pdef: PatternDef, binding: Binding) -> list[Decl]:
        decls: list[Decl] = []
        for param in pdef.params:
            if param.is_list:
                items = binding.lists[param.name]
                tail = binding.mapping[param.list_tail]
                assert isinstance(tail, ListArg)
                if self._runs[-1].undeclared(param.kind, items, tail.items):
                    decls.extend((param.kind, item.name) for item in items
                                 if isinstance(item, SymbolArg))
            else:
                bound = binding.mapping[param.name]
                if isinstance(bound, SymbolArg):
                    decls.append((param.kind, bound.name))
        return decls

    # --- obligations ---

    def _collect_obligations(self, closure: _Closure, binding: Binding,
                             mapping: Mapping[str, Argument]) -> None:
        """Raise the frame's obligations: each constraint substituted under
        mapping, the closure's binding with the frame's own over it."""
        pdef = closure.pdef
        if not any(param.constraints for param in pdef.params) or self._runs[-1].repeats(closure, binding):
            return
        for param in pdef.params:
            if not param.constraints:
                continue
            if param.is_list:
                for i in range(len(binding.lists[param.name])):
                    # every list runs in parallel: element i of each
                    element_view = dict(mapping)
                    for other, items in binding.lists.items():
                        element_view[other] = items[i]
                    self._emit_obligations(pdef.name, param, i, element_view)
            else:
                if isinstance(mapping[param.name], EmptyArg):
                    continue
                self._emit_obligations(pdef.name, param, 0, mapping)

    def _emit_obligations(self, pattern: str, param: Parameter, index: int,
                          view: Mapping[str, Argument]) -> None:
        self._queued.clear()
        for ax in self._subst_axioms(param.constraints, view):
            self._runs[-1].sink.append((ax, pattern, param.name, index))
        self._note()


# --- public entry points -----------------------------------------------------

def expand_spec_standalone(env: ExpansionEnv, spec: Spec) -> tuple[Ontology, tuple[Obligation, ...]]:
    """Expand a bare spec against an environment; the obligations come back
    with the expansion itself as context."""
    return env._walk(None, spec)
