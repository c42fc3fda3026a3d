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
collected per named ontology as instantiations are encountered, and cached
with its expansion.

Merge warnings are read off two sets of flat names, the stratified and the
plain names of the values expansion kept: a name in both is a stratified
name that merges with a plain one.  Substitution logs each name it builds
on one of two lists of the environment, and drops what it logged for an
axiom an empty binding deletes, so those names never warn; warnings of
local parameters shadowing outer bindings go on a third.  A run notes the
lengths of the three logs when it opens, and when it closes moves what
lies past them into the environment's sets, so an expansion that failed
leaves no warning behind.  `diagnostics` lists these warnings sorted, the
same under any hash seed.

A let's scope is a dict of the local patterns in force: a copy of the
enclosing let's, then this let's own, which close over that same dict so
that siblings can call each other.  A name that is not a local is looked
up among the top-level definitions of the environment.

A frame walks its parameters once: each raises its constraints as
obligations (for a list, once per element, with every list parameter bound
to its element at that index) and gives its declarations, which go into
the builder in one batch after all the obligations.

An argument written `h :: t` stays a cons under substitution; `_as_list`,
binding it to a list parameter, is the one place a cons becomes a list.
An element's kind is checked in one place too, where a frame declares it,
so a binding error comes first however a list is written.
A list parameter is bound to the `ListArg` its list was given as: a tuple
and the offset of its first element.  List recursion consumes one element
per frame and binds its tail as a `ListArg` of the same tuple one element
on, so handing the tail on copies nothing.  Substitution hands a bound
argument on as it is, and `_as_list` a list without cons heads, so a frame
recognises a tail the frame instantiating it bound by identity: its items
were declared there, and when both frames are of the same closure, with
every list the other's tail and equal other arguments, its obligations
repeat the other's and are not raised again.  A tail handed on through a
frame that does not bind it is not recognised, and its items are declared
again.  A tail is copied only where a cons builds a new list in front of
it or its items are spliced into a value.  That keeps the work per frame
proportional to what the frame adds.

What depends only on a pattern is worked out once per environment and
kept on it: each pattern's shape (whether it has constraints, its list and
scalar parameters, whether a frame can repeat an earlier one's
obligations, which `model._strings` tells from the names its constraints
mention), each parameterized name's stratified form, and for each
pattern body axiom and constraint a plan, a closure tree that substitutes
a binding into it and builds the result canonical.  A named ontology's own
axioms, substituted under no binding and walked once, get a plan for that
one use.  The walk decides by a node's exact class, not by `match`.

A kind clash is reported where the walk first adds a declaration that
contradicts the builder it goes into, whether a node's own or a referenced
ontology's once expanded, naming the least clashing flat name there in
(name, kind) order.

The walk is one loop over an explicit stack of work items, so no nesting of
patterns, unions or references is too deep for it.  Union operands, let and
pattern bodies, a frame's `given` imports and references to other named
ontologies are items, pushed so that they pop in the pre-order of the spec
tree; the order obligations are found in and which error is raised first
follow from that.  A spec item carries the frame it is walked in, a record
of one instantiation (a run's outermost spec gets one with no closure),
and a reference item the depth it is met at, so the budget counts nested
instantiation frames.  A named ontology that is not cached
opens a run with a builder of its own, and a closing item freezes it,
caches it and adds it to the builder of the run below.  Items carry no
builder: every node goes into the innermost open run's.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterable, Mapping

from .errors import (
    ArityMismatch, CyclicImport, DepthExceeded, EmptyForRequired, GdolError,
    KindMismatch, ListLengthMismatch, SubstitutionError, UnknownPattern,
)
from .model import (
    Argument, Axiom, BasicSpec, ConsArg, Decl, Document, EmptyArg, EmptySpec,
    ExtensionSpec, InstSpec, LetSpec, ListArg, Name, Node, Obligation, Ontology,
    OntologyBuilder, OntologyDef, Parameter, PatternDef, Spec, SymbolArg,
    SymbolKind, TopDecl, UnionSpec, _strings, decl_key, node_key, plan_axiom,
    stratify, subst_arguments, subst_axiom, subst_decls,
)

_Found = tuple[str, str, int]  # where an obligation was raised: pattern, param, index

DEFAULT_DEPTH_BUDGET = 10000

_SPEC, _NAMED, _CLOSE = range(3)  # work item tags, see ExpansionEnv._walk


def run_deep(fn, depth_budget=DEFAULT_DEPTH_BUDGET):
    """Call fn.  Kept for scripts written when expansion ran on a deep stack."""
    return fn()


# --- argument binding --------------------------------------------------------

class Binding(Node):
    """Result of matching arguments against a parameter list."""

    mapping: dict[str, Argument]  # param and tail names -> bound arguments
    lists: dict[str, ListArg]  # full element lists per list param
    exhausted: bool  # every list parameter received an empty list


def _as_list(pattern: str, param: Parameter, arg: Argument) -> ListArg:
    """The elements of an argument bound to a list parameter: a list as it
    is, or a cons's heads in a new tuple in front of the list its tail ends
    in.  The elements' kinds are checked where a frame declares them."""
    heads: list[Argument] = []
    while type(arg) is ConsArg:
        heads.append(arg.head)
        arg = arg.tail
    t = type(arg)
    if t is ListArg:
        return ListArg((*heads, *islice(arg.items, arg.start, None))) if heads else arg
    if t is EmptyArg:
        return ListArg(tuple(heads))
    if t is SymbolArg:
        raise SubstitutionError(f"{pattern}: parameter {param.name!r} needs a list, got name {arg.name}")
    raise TypeError(f"not an argument: {arg!r}")


def bind_arguments(pdef: PatternDef, args: tuple[Argument, ...]) -> Binding:
    if len(args) != len(pdef.params):
        raise ArityMismatch(pdef.name, len(pdef.params), len(args))
    mapping: dict[str, Argument] = {}
    lists: dict[str, ListArg] = {}
    for param, arg in zip(pdef.params, args):
        t = type(arg)
        if t is SymbolArg and arg.kind is not None and arg.kind is not param.kind:
            raise KindMismatch(pdef.name, param.name, param.kind.value, arg.kind.value)
        if param.list_tail is not None:
            elements = lists[param.name] = _as_list(pdef.name, param, arg)
            if len(elements):
                mapping[param.name] = elements.items[elements.start]
                mapping[param.list_tail] = ListArg(elements.items, elements.start + 1)
            else:
                mapping[param.name] = EmptyArg()
                mapping[param.list_tail] = elements
        elif t is SymbolArg:
            mapping[param.name] = arg
        elif t is EmptyArg:
            if not param.optional:
                raise EmptyForRequired(pdef.name, param.name)
            mapping[param.name] = arg
        else:
            raise SubstitutionError(f"{pdef.name}: parameter {param.name!r} needs a single name")
    lengths = {len(elements) for elements in lists.values()}
    if len(lengths) > 1:
        detail = ", ".join(f"{k}={len(v)}" for k, v in sorted(lists.items()))
        raise ListLengthMismatch(pdef.name, detail)
    return Binding(mapping, lists, lengths == {0})


# --- environment -------------------------------------------------------------

class _Closure:
    """A pattern, the local patterns its body sees and the binding in force
    where its let is walked ({} both at top level).  Frames of one closure
    share that binding, which `_Frame.repeats` relies on."""

    __slots__ = ("pdef", "scope", "binding")

    def __init__(self, pdef: PatternDef, scope: dict, binding: Mapping[str, Argument]) -> None:
        self.pdef, self.scope, self.binding = pdef, scope, binding


class _Run:
    """State of one named-ontology or standalone-spec expansion: its name,
    the builder its nodes go into, its obligations (where each axiom was
    first raised), and the lengths of the environment's logs when it
    opened: what lies past them when it closes is its own."""

    def __init__(self, name: str | None, marks: tuple[int, ...]) -> None:
        self.name = name  # None for a standalone spec
        self.marks = marks
        self.out = OntologyBuilder()
        self.sink: dict[Axiom, _Found] = {}


class _Shape:
    """What every frame of one pattern shares: whether any parameter has
    constraints, the list and the scalar parameters, and whether a frame
    can repeat an earlier frame's obligations (see `_Frame.repeats`)."""

    __slots__ = ("pdef", "constrained", "lists", "scalars", "may_repeat")

    def __init__(self, pdef: PatternDef) -> None:
        self.pdef = pdef  # keeps the id it is cached under taken
        self.constrained = any(p.constraints for p in pdef.params)
        self.lists = tuple(p for p in pdef.params if p.list_tail is not None)
        self.scalars = tuple(p for p in pdef.params if p.list_tail is None)
        tails = {p.list_tail for p in self.lists}
        heads = tails | {p.name for p in self.lists}
        self.may_repeat = bool(self.lists) and not any(
            not (tails if p.list_tail is not None else heads).isdisjoint(_strings(p.constraints))
            for p in pdef.params)


class _Frame:
    """One instantiation: its closure, its pattern's shape, the mapping its
    body is walked under (where its own arguments shadow outer ones) and
    its depth.  A run's outermost spec is walked in a frame with no
    closure, which binds nothing."""

    __slots__ = ("closure", "shape", "mapping", "depth")

    def __init__(self, closure: _Closure | None, shape: _Shape | None,
                 mapping: Mapping[str, Argument], depth: int) -> None:
        self.closure, self.shape, self.mapping, self.depth = closure, shape, mapping, depth

    def bound_tail(self, kind: SymbolKind, elements: ListArg) -> bool:
        """Whether elements is the tail this frame bound to a list
        parameter of kind, so this frame declared its items as kind."""
        for p in self.shape.lists if self.shape is not None else ():
            if p.kind is kind and self.mapping[p.list_tail] is elements:
                return True
        return False

    def repeats(self, closure: _Closure, binding: Binding) -> bool:
        """Whether a frame of closure under binding, instantiated in this
        one, repeats every obligation this frame raised: it is of the same
        closure (so under the same outer binding), each of its lists is the
        tail this frame bound to that parameter and its other arguments are
        equal.  Element i there then sees what element i + 1 saw here; the
        caller asks only when its shape's `may_repeat`, as no constraint
        mentions a tail, nor a scalar parameter's constraint a list head."""
        if closure is not self.closure:
            return False
        return (all(binding.lists[p.name] is self.mapping[p.list_tail] for p in self.shape.lists)
                and all(binding.mapping[p.name] == self.mapping[p.name] for p in self.shape.scalars))


class ExpansionEnv:
    """Shared state for expanding one set of documents."""

    def __init__(self, library: Mapping[str, TopDecl], depth_budget: int = DEFAULT_DEPTH_BUDGET):
        if type(depth_budget) is not int or depth_budget < 1:  # not isinstance: True is no budget
            raise ValueError(f"depth_budget must be a positive int, got {depth_budget!r}")
        self.depth_budget = depth_budget
        # every top-level name, a pattern as a closure over no locals
        self._global: dict[str, _Closure | TopDecl] = {
            name: _Closure(decl, {}, {}) if isinstance(decl, PatternDef) else decl
            for name, decl in library.items()}
        self._cache: dict[str, tuple[Ontology, tuple[Obligation, ...]]] = {}
        # what the open runs logged, each past its marks: the plain and the
        # stratified flat names of the values they kept, and the warnings
        # of local parameters shadowing outer ones
        self._logs: tuple[list[str], list[str], list[str]] = ([], [], [])
        # the same three, of every run that closed; a name both plain and
        # stratified is a merge warning
        self._kept: tuple[set[str], set[str], set[str]] = (set(), set(), set())
        # worked out once per environment; an id-keyed entry holds its key's
        # object, so no other object can take the id
        self._flat: dict[Name, Name] = {}  # parameterized name -> stratified name
        self._plans: dict[int, tuple[Axiom, Callable]] = {}  # axiom id -> (axiom, its plan)
        self._shapes: dict[int, _Shape] = {}  # pattern id -> its frames' shape
        flat_names, (plain, flat, _) = self._flat, self._logs

        def strat(n: Name) -> Name:
            """Stratify a name of a value under substitution; log its flat
            name.  Plans hold this function, and it holds no reference to
            the environment, so a dropped environment, with every expansion
            it caches, is freed at once."""
            if not n.args:
                plain.append(n.base)
                return n
            name = flat_names.get(n)
            if name is None:
                name = flat_names[n] = Name(stratify(n))
            flat.append(name.base)
            return name
        self._strat: Callable[[Name], Name] = strat

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

    @property
    def diagnostics(self) -> list[str]:
        """The warnings so far, sorted: each local parameter shadowing an
        outer binding, and each flat name that is both a stratified and a
        plain name of kept values, which merge."""
        plain, stratified, shadowing = self._kept
        merged = (f"stratified name {name!r} coincides with a plain name; the two merge"
                  for name in stratified & plain)
        return sorted([*shadowing, *merged])

    # --- named ontologies ---

    def expand_named(self, name: str) -> Ontology:
        if name not in self._cache:
            self._walk(name, None)
        return self._cache[name][0]

    def obligations(self, name: str) -> tuple[Obligation, ...]:
        self.expand_named(name)
        return self._cache[name][1]

    # --- spec walking ---

    def _walk(self, name: str | None, spec: Spec | None) -> tuple[Ontology, tuple[Obligation, ...]]:
        """Expand the named ontology name, or else spec standalone: pop work
        items until the outermost run closes, and return its ontology and
        obligations.

        Items, by their first field:
            _SPEC, spec, scope, frame: expand spec, walked in frame, into the
                innermost run
            _NAMED, name, depth: add a named ontology to the innermost run
            _CLOSE: the innermost run has expanded its spec and imports; its
                result goes into the run below, or is returned if none is left
        """
        # the current walk's items and its open runs, innermost last
        work, runs = self._work, self._runs = [], []
        for log in self._logs:  # a failed walk leaves its names behind
            log.clear()
        if name is None:
            assert spec is not None
            self._open(None, spec, (), 0)
        else:
            self._reference(name, 0)
        while True:
            item = work.pop()
            tag = item[0]
            if tag == _SPEC:
                self._spec(*item[1:])
            elif tag == _NAMED:
                self._reference(*item[1:])
            else:
                run = runs.pop()
                for log, kept, mark in zip(self._logs, self._kept, run.marks):
                    kept.update(islice(log, mark, None))
                    del log[mark:]
                result = run.out.freeze()
                obligations = tuple(Obligation(axiom, run.name or "", *found, result)
                                    for axiom, found in run.sink.items())
                if run.name is not None:
                    self._cache[run.name] = result, obligations
                if not runs:
                    return result, obligations
                runs[-1].out.extend(result.decls, result.axioms)

    def _open(self, name: str | None, spec: Spec, imports: tuple[str, ...], depth: int) -> None:
        """Start a run: its spec, then its imports, then its closing item."""
        self._runs.append(_Run(name, tuple(map(len, self._logs))))
        work = self._work
        work.append((_CLOSE,))
        for imp in reversed(imports):
            work.append((_NAMED, imp, depth))
        work.append((_SPEC, spec, {}, _Frame(None, None, {}, depth)))

    def _reference(self, name: str, depth: int) -> None:
        """Add a named ontology to the innermost run, opening a run for it
        unless cached."""
        cached = self._cache.get(name)
        if cached is not None:
            self._runs[-1].out.extend(cached[0].decls, cached[0].axioms)
            return
        open_names = [run.name for run in self._runs]
        if name in open_names:
            raise CyclicImport(tuple(open_names[open_names.index(name):]) + (name,))
        decl = self._global.get(name)
        if decl is None:
            raise UnknownPattern(name)
        if not isinstance(decl, OntologyDef):
            raise GdolError(f"{name!r} is a pattern; a reference must name an ontology")
        self._open(name, decl.spec, decl.imports, depth)

    def _spec(self, spec: Spec, scope: dict[str, _Closure], frame: _Frame) -> None:
        """Expand one spec node into the innermost run with frame's mapping
        substituted into it on the way; queue its children."""
        cls = spec.__class__
        if cls is BasicSpec:
            self._add(spec.ontology.decls, spec.ontology.axioms, frame.mapping)
        elif cls is UnionSpec or cls is ExtensionSpec:
            for op in reversed(spec.operands):
                self._work.append((_SPEC, op, scope, frame))
        elif cls is InstSpec:
            args = subst_arguments(spec.args, frame.mapping)
            if args is not None:  # else an argument mentions an empty-bound name
                self._instantiate(spec, args, scope, frame)
        elif cls is LetSpec:
            inner = dict(scope)  # the locals share it, so siblings see each other
            for p in spec.locals:
                shadowed = sorted(p.param_names & frame.mapping.keys())
                if shadowed:
                    self._logs[2].append(  # the shadowing log
                        f"parameters {shadowed} of local pattern {p.name!r} shadow outer bindings")
                inner[p.name] = _Closure(p, inner, frame.mapping)
            self._work.append((_SPEC, spec.body, inner, frame))
        elif cls is not EmptySpec:
            raise TypeError(f"not a spec: {spec!r}")

    def _subst_axioms(self, axioms: Iterable[Axiom], binding: Mapping[str, Argument]) -> list[Axiom]:
        """Substitute, stratify and canonicalize axioms in one rebuild each,
        through the axiom's plan: under a binding one built once per
        environment, and with none (a named ontology's own axioms, walked
        once) one built for that use.  One deleted by an empty binding
        leaves none of its names logged."""
        kept = []
        (plain, flat, _), plans = self._logs, self._plans
        for a in axioms:
            mark, flat_mark = len(plain), len(flat)
            if binding:
                plan = plans.get(id(a))
                if plan is None:
                    plan = plans[id(a)] = a, plan_axiom(a, self._strat)
                b = plan[1](binding)
            else:
                b = subst_axiom(a, binding, self._strat)
            if b is None:
                del plain[mark:], flat[flat_mark:]
            else:
                kept.append(b)
        return kept

    def _add(self, decls: Iterable[Decl], axioms: Iterable[Axiom],
             binding: Mapping[str, Argument]) -> None:
        """Substitute, stratify and canonicalize one node into the innermost
        run's builder.  A declaration that contradicts the builder raises
        the KindClash of the least clashing flat name.  A node's decls and
        axioms are sets, walked in hash order, so a substitution error is
        raised as the first in key order, declarations before axioms: the
        same under any hash seed."""
        try:
            new_decls = subst_decls(decls, binding, self._strat)
            new_axioms = self._subst_axioms(axioms, binding)
        except SubstitutionError:
            subst_decls(sorted(decls, key=decl_key), binding, self._strat)
            self._subst_axioms(sorted(axioms, key=node_key), binding)
            raise
        self._runs[-1].out.extend(new_decls, new_axioms)

    def _instantiate(self, spec: InstSpec, args: tuple[Argument, ...],
                     scope: dict[str, _Closure], parent: _Frame) -> None:
        """Open a frame one level below parent: one pass over the parameters
        raises their obligations and gathers their declarations, added after
        all the obligations; then the given imports and the body in order.
        Items of a list that is a tail parent bound are not declared again,
        nor obligations that repeat parent's raised."""
        target = scope.get(spec.pattern) or self._global.get(spec.pattern)
        if target is None:
            raise UnknownPattern(spec.pattern)
        if isinstance(target, OntologyDef):
            if spec.bracketed:
                raise GdolError(f"{spec.pattern!r} names an ontology and takes no arguments")
            self._reference(spec.pattern, parent.depth)
            return
        assert isinstance(target, _Closure)
        pdef = target.pdef
        depth = parent.depth + 1
        if depth > self.depth_budget:
            raise DepthExceeded(self.depth_budget, pdef.name)
        binding = bind_arguments(pdef, args)
        if binding.exhausted:
            return
        mapping = {**target.binding, **binding.mapping}  # own names shadow outer ones
        shape = self._shapes.get(id(pdef))
        if shape is None:
            shape = self._shapes[id(pdef)] = _Shape(pdef)
        oblige = shape.constrained and not (shape.may_repeat and parent.repeats(target, binding))
        decls: list[Decl] = []
        for param in pdef.params:
            if param.list_tail is not None:
                bound = binding.lists[param.name]
                if oblige and param.constraints:
                    for i in range(len(bound)):
                        # every list runs in parallel: element i of each
                        element_view = dict(mapping)
                        for other, elements in binding.lists.items():
                            element_view[other] = elements.items[elements.start + i]
                        self._oblige(pdef.name, param, i, element_view)
                if not parent.bound_tail(param.kind, bound):
                    for item in islice(bound.items, bound.start, None):
                        if isinstance(item, SymbolArg):
                            if item.kind is not None and item.kind is not param.kind:
                                raise KindMismatch(pdef.name, param.name, param.kind.value,
                                                   item.kind.value)
                            decls.append((param.kind, item.name))
            else:
                bound = binding.mapping[param.name]
                if isinstance(bound, SymbolArg):
                    if oblige and param.constraints:
                        self._oblige(pdef.name, param, 0, mapping)
                    decls.append((param.kind, bound.name))
        self._add(decls, (), {})
        self._work.append((_SPEC, pdef.body, target.scope, _Frame(target, shape, mapping, depth)))
        for imp in reversed(pdef.imports):
            self._work.append((_NAMED, imp, depth))

    def _oblige(self, pattern: str, param: Parameter, index: int,
                view: Mapping[str, Argument]) -> None:
        """Raise param's constraints, substituted under view, as obligations
        of the innermost run."""
        sink = self._runs[-1].sink
        for ax in self._subst_axioms(param.constraints, view):
            sink.setdefault(ax, (pattern, param.name, index))


# --- public entry points -----------------------------------------------------

def expand_spec_standalone(env: ExpansionEnv, spec: Spec) -> tuple[Ontology, tuple[Obligation, ...]]:
    """Expand a bare spec against an environment; the obligations come back
    with the expansion itself as context."""
    return env._walk(None, spec)
