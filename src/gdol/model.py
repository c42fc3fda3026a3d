"""Core data model: names, axioms, ontologies, patterns, specs.

Everything here is an immutable value except `OntologyBuilder`, the mutable
accumulator an expansion collects its ontology in before freezing it.  The
three primitive operations the rest of the compiler builds on live here too:
stratification of parameterized names, ontology union under
Same-Name-Same-Thing, and simultaneous substitution of arguments for
parameter names, which also renames every name it builds in the same pass.

Axioms, class expressions and property expressions are frozen dataclasses,
and the jobs that only follow their structure (ordering keys, substitution,
collecting names and sub-expressions, the shape-neutral part of
canonicalization) are one walk through each node's dataclass fields.  The
order the node classes are declared in is the order their keys sort in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Callable, Collection, Iterable, Mapping, Union, get_args

from .errors import KindClash, SubstitutionError

_BAD_NAME_CHARS = set("[],;:?{}()| \t\r\n")


class SymbolKind(Enum):
    CLASS = "Class"
    OBJECT_PROPERTY = "ObjectProperty"
    DATA_PROPERTY = "DataProperty"
    INDIVIDUAL = "Individual"

    @property
    def keyword(self) -> str:
        return self.value

    @classmethod
    def from_keyword(cls, kw: str) -> "SymbolKind":
        for k in cls:
            if k.value == kw:
                return k
        raise ValueError(f"not a symbol kind: {kw!r}")


@dataclass(frozen=True, eq=False)
class Name:
    """Plain identifier, or parameterized name such as performs[MotherRole].

    A name keeps its written form and its hash, built from its arguments'
    when it is constructed, so comparing, hashing, printing and stratifying
    a name never walks its arguments however deeply they nest.  The written
    form is unambiguous because a base contains no bracket, comma or space.
    """

    base: str
    args: tuple["Name", ...] = ()
    _text: str = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.base or (set(self.base) & _BAD_NAME_CHARS):
            raise ValueError(f"invalid identifier {self.base!r}")
        text = f"{self.base}[{', '.join(a._text for a in self.args)}]" if self.args else self.base
        object.__setattr__(self, "_text", text)
        object.__setattr__(self, "_hash", hash((self.base, self.args)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Name:
            return NotImplemented
        return self is other or self._text == other._text

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_plain(self) -> bool:
        return not self.args

    def __str__(self) -> str:
        return self._text


def stratify(n: Name) -> str:
    """Flatten a parameterized name: brackets and commas become underscores.

    Equivalent to writing the name out and mapping '[' and ',' to '_' while
    deleting ']' (and the space after each comma), which makes nested
    bracketings associative.
    """
    if not n.args:
        return n.base
    return str(n).replace("[", "_").replace(", ", "_").replace("]", "")


@dataclass(frozen=True)
class PropExpr:
    name: Name
    inverse: bool = False


# --- class expressions -------------------------------------------------

@dataclass(frozen=True)
class Named:
    name: Name


@dataclass(frozen=True)
class Some:
    prop: PropExpr
    filler: "ClassExpr"


@dataclass(frozen=True)
class Only:
    prop: PropExpr
    filler: "ClassExpr"


@dataclass(frozen=True)
class Max:
    n: int
    prop: PropExpr
    filler: "ClassExpr"


@dataclass(frozen=True)
class And:
    operands: tuple["ClassExpr", ...]


@dataclass(frozen=True)
class OneOf:
    members: tuple[Name, ...]  # enumeration order is meaningful, kept as written


ClassExpr = Union[Named, Some, Only, Max, And, OneOf]


# --- axioms ------------------------------------------------------------

@dataclass(frozen=True)
class SubClassOf:
    sub: ClassExpr
    sup: ClassExpr


@dataclass(frozen=True)
class EquivalentClasses:
    a: ClassExpr
    b: ClassExpr


@dataclass(frozen=True)
class DisjointClasses:
    a: ClassExpr
    b: ClassExpr


@dataclass(frozen=True)
class SubPropertyOf:
    sub: PropExpr
    sup: PropExpr


@dataclass(frozen=True)
class InverseProps:
    a: Name
    b: Name


@dataclass(frozen=True)
class Domain:
    prop: Name
    cls: ClassExpr


@dataclass(frozen=True)
class Range:
    prop: Name
    cls: ClassExpr


@dataclass(frozen=True)
class Functional:
    prop: Name


@dataclass(frozen=True)
class Transitive:
    prop: Name


@dataclass(frozen=True)
class SubPropertyChain:
    prop: Name
    chain: tuple[PropExpr, ...]  # length >= 2


@dataclass(frozen=True)
class ClassAssertion:
    cls: ClassExpr
    individual: Name


@dataclass(frozen=True)
class PropAssertion:
    prop: Name
    subject: Name
    obj: Name


@dataclass(frozen=True)
class DifferentIndividuals:
    members: tuple[Name, ...]  # length >= 1


Axiom = Union[
    SubClassOf, EquivalentClasses, DisjointClasses, SubPropertyOf, InverseProps,
    Domain, Range, Functional, Transitive, SubPropertyChain,
    ClassAssertion, PropAssertion, DifferentIndividuals,
]


# --- the generic walk ----------------------------------------------------
# Node classes are walked through their dataclass fields (`__match_args__`).
# A field holds a Name, a node, a tuple of either, or a plain value that
# the walk keeps (Max's cardinality, PropExpr's inverse flag).  Declaration
# order is key order: a node's tag is its class's position within its
# group (PropExpr; the class expressions; the axioms), and the emitter's
# clause order follows from it.

_FIELDS: dict[type, tuple[int, tuple[str, ...]]] = {
    cls: (tag, cls.__match_args__)
    for group in ((PropExpr,), get_args(ClassExpr), get_args(Axiom))
    for tag, cls in enumerate(group)
}
_CLASS_EXPRS = frozenset(get_args(ClassExpr))


def name_key(n: Name):
    return (n.base, tuple(name_key(a) for a in n.args))


def node_key(x):
    """Ordering key of a property expression, class expression or axiom:
    nested tuples led by the tag, so values of different shapes never get
    compared component-wise."""
    tag, fields = _FIELDS[type(x)]
    key: list = [tag]
    for f in fields:
        v = getattr(x, f)
        t = type(v)
        if t is Name:
            v = name_key(v)
        elif t is tuple:
            v = tuple(name_key(c) if type(c) is Name else node_key(c) for c in v)
        elif t in _FIELDS:
            v = node_key(v)
        key.append(v)
    return tuple(key)


def class_exprs(x):
    """Every class expression in a node, x itself included when it is one."""
    stack = [x]
    while stack:
        y = stack.pop()
        if type(y) in _CLASS_EXPRS:
            yield y
        for f in _FIELDS[type(y)][1]:
            v = getattr(y, f)
            t = type(v)
            if t is tuple:
                stack.extend(c for c in v if type(c) is not Name)
            elif t in _FIELDS:
                stack.append(v)


def axiom_names(a: Axiom) -> set[Name]:
    """The names an axiom mentions (not the names inside their arguments)."""
    found: set[Name] = set()
    stack = [a]
    while stack:
        x = stack.pop()
        for f in _FIELDS[type(x)][1]:
            v = getattr(x, f)
            t = type(v)
            if t is Name:
                found.add(v)
            elif t is tuple:
                for c in v:
                    if type(c) is Name:
                        found.add(c)
                    else:
                        stack.append(c)
            elif t in _FIELDS:
                stack.append(v)
    return found


# --- canonicalization ---------------------------------------------------

def _dedupe(seq, key):
    seen = set()
    out = []
    for x in seq:
        k = key(x)
        if k not in seen:
            seen.add(k)
            out.append(x)
    return out


def _canon_fields(x):
    """x with every class expression field canonical; x itself when none
    changes."""
    vals = []
    changed = False
    for f in _FIELDS[type(x)][1]:
        v = getattr(x, f)
        if type(v) in _CLASS_EXPRS:
            c = canon_expr(v)
            changed = changed or c is not v
            v = c
        vals.append(v)
    return type(x)(*vals) if changed else x


def canon_expr(e: ClassExpr) -> ClassExpr:
    match e:
        case And(operands):
            flat: list[ClassExpr] = []
            for c in operands:
                c = canon_expr(c)
                if isinstance(c, And):
                    flat.extend(c.operands)
                else:
                    flat.append(c)
            flat = _dedupe(sorted(flat, key=node_key), node_key)
            if len(flat) == 1:
                return flat[0]
            return And(tuple(flat))
        case OneOf(members):
            return OneOf(tuple(_dedupe(members, name_key)))
    return _canon_fields(e)


def canon_axiom(a: Axiom) -> Axiom:
    match a:
        case EquivalentClasses(x, y) | DisjointClasses(x, y):
            x, y = sorted((canon_expr(x), canon_expr(y)), key=node_key)
            return type(a)(x, y)
        case DifferentIndividuals(members):
            return DifferentIndividuals(tuple(_dedupe(sorted(members, key=name_key), name_key)))
    return _canon_fields(a)


# --- ontologies ----------------------------------------------------------

Decl = tuple[SymbolKind, Name]


def _kind_clash(decls: Iterable[Decl]) -> KindClash:
    """The clash a scan of decls in (name, kind keyword) order meets first.
    Only called once a clash is known to exist."""
    kinds: dict[Name, SymbolKind] = {}
    for kind, name in sorted(decls, key=lambda d: (name_key(d[1]), d[0].value)):
        prev = kinds.setdefault(name, kind)
        if prev is not kind:
            return KindClash(str(name), (prev.value, kind.value))
    raise AssertionError("no kind clash among the declarations")


@dataclass(frozen=True)
class Ontology:
    decls: frozenset[Decl] = frozenset()
    axioms: frozenset[Axiom] = frozenset()

    def __post_init__(self) -> None:
        # decls is a set of (kind, name) pairs: fewer names than pairs
        # means some name has two kinds
        if len({name for _, name in self.decls}) != len(self.decls):
            raise _kind_clash(self.decls)

    @classmethod
    def of(cls, decls: Iterable[Decl] = (), axioms: Iterable[Axiom] = ()) -> "Ontology":
        return cls(frozenset(decls), frozenset(canon_axiom(a) for a in axioms))

    def union(self, other: "Ontology") -> "Ontology":
        return Ontology(self.decls | other.decls, self.axioms | other.axioms)

    @cached_property
    def _kinds(self) -> dict[Name, SymbolKind]:
        return {name: kind for kind, name in self.decls}

    def kind_of(self, name: Name) -> SymbolKind | None:
        return self._kinds.get(name)

    @property
    def is_empty(self) -> bool:
        return not self.decls and not self.axioms


EMPTY_ONTOLOGY = Ontology()


def union(a: Ontology, b: Ontology) -> Ontology:
    return a.union(b)


class OntologyBuilder:
    """Mutable accumulator for the union of many ontologies.

    `add` checks only the added declarations against the name->kind map
    collected so far, so gathering n declarations costs O(n) where a chain
    of `Ontology.union` calls re-checks everything on every step.
    """

    def __init__(self) -> None:
        self._kinds: dict[Name, SymbolKind] = {}
        self._axioms: set[Axiom] = set()

    def _decls(self) -> Iterable[Decl]:
        return ((kind, name) for name, kind in self._kinds.items())

    def add(self, o: Ontology) -> None:
        """Merge o in place; raises the KindClash that uniting everything
        added so far with o would raise."""
        self.extend(o.decls, o.axioms)

    def extend(self, decls: Collection[Decl], axioms: Iterable[Axiom] = ()) -> None:
        """`add` for declarations and canonical axioms not made an Ontology."""
        kinds = self._kinds
        for kind, name in decls:
            if kinds.setdefault(name, kind) is not kind:
                raise _kind_clash(chain(self._decls(), decls))
        self._axioms.update(axioms)

    def freeze(self) -> Ontology:
        return Ontology(frozenset(self._decls()), frozenset(self._axioms))


# --- name rewriting helpers ---------------------------------------------

NameFn = Callable[[Name], Name]


def map_axiom(a: Axiom, fn: NameFn) -> Axiom:
    """Apply fn to every name of an axiom: a substitution that binds nothing."""
    return subst_axiom(a, {}, fn)  # type: ignore[return-value]  # never None


def map_ontology(o: Ontology, fn: NameFn) -> Ontology:
    return Ontology.of(
        ((kind, fn(name)) for kind, name in o.decls),
        (map_axiom(a, fn) for a in o.axioms),
    )


# --- arguments ------------------------------------------------------------

@dataclass(frozen=True)
class SymbolArg:
    name: Name
    kind: SymbolKind | None = None  # set when the source annotates the argument


@dataclass(frozen=True)
class ListArg:
    items: tuple["Argument", ...] = ()


@dataclass(frozen=True)
class EmptyArg:
    pass


@dataclass(frozen=True)
class ConsArg:
    """Head :: tail written in argument position; collapses to ListArg once
    the tail is known."""

    head: "Argument"
    tail: "Argument"


Argument = Union[SymbolArg, ListArg, EmptyArg, ConsArg]


# --- parameters, specs, declarations --------------------------------------

@dataclass(frozen=True)
class Parameter:
    kind: SymbolKind
    name: str
    optional: bool = False
    list_tail: str | None = None  # tail identifier for head::tail parameters
    constraints: tuple[Axiom, ...] = ()

    @property
    def is_list(self) -> bool:
        return self.list_tail is not None


@dataclass(frozen=True)
class BasicSpec:
    ontology: Ontology


@dataclass(frozen=True)
class UnionSpec:
    left: "Spec"
    right: "Spec"


@dataclass(frozen=True)
class ExtensionSpec:
    base: "Spec"
    ext: "Spec"


@dataclass(frozen=True)
class InstSpec:
    pattern: str
    args: tuple[Argument, ...] = ()
    bracketed: bool = True  # False for a bare reference to a named ontology/pattern
    loc: tuple[int, int] = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class LetSpec:
    locals: tuple["PatternDef", ...]
    body: "Spec"


@dataclass(frozen=True)
class EmptySpec:
    pass


Spec = Union[BasicSpec, UnionSpec, ExtensionSpec, InstSpec, LetSpec, EmptySpec]


@dataclass(frozen=True)
class PatternDef:
    name: str
    params: tuple[Parameter, ...]
    body: Spec
    imports: tuple[str, ...] = ()

    @property
    def param_names(self) -> set[str]:
        """The names the parameters bind: each name and each list tail."""
        return {q.name for q in self.params} | {q.list_tail for q in self.params if q.list_tail}


@dataclass(frozen=True)
class OntologyDef:
    name: str
    spec: Spec
    imports: tuple[str, ...] = ()


@dataclass(frozen=True)
class RefinementDef:
    name: str
    source: Spec
    target: Spec
    symbol_map: tuple[tuple[Name, Name], ...] = ()


TopDecl = Union[PatternDef, OntologyDef, RefinementDef]


@dataclass(frozen=True)
class Document:
    decls: tuple[TopDecl, ...] = ()

    def pattern_defs(self) -> dict[str, PatternDef]:
        return {d.name: d for d in self.decls if isinstance(d, PatternDef)}

    def ontology_defs(self) -> dict[str, OntologyDef]:
        return {d.name: d for d in self.decls if isinstance(d, OntologyDef)}

    def refinement_defs(self) -> dict[str, RefinementDef]:
        return {d.name: d for d in self.decls if isinstance(d, RefinementDef)}


@dataclass(frozen=True)
class Obligation:
    """One verification condition: axiom must hold in the context theory."""

    axiom: Axiom
    ontology: str  # named ontology whose expansion produced it
    pattern: str  # instantiated pattern the constraint came from
    param: str  # constrained parameter
    index: int = 0  # element index for list parameters
    context: Ontology = EMPTY_ONTOLOGY
    status: str = "unproven"
    diagnostic: str = ""


# --- substitution ----------------------------------------------------------

class _MentionsEmpty(Exception):
    """Internal signal: the value under substitution mentions an empty-bound
    parameter.  Never escapes this module."""


def _same(n: Name) -> Name:
    return n


def _subst_name(n: Name, binding: Mapping[str, Argument], fn: NameFn = _same) -> Name:
    """Substitute into one name, then apply fn to the result (not to the
    arguments inside it)."""
    if not binding:
        return fn(n)
    new_args = tuple(_subst_name(a, binding) for a in n.args) if n.args else ()
    bound = binding.get(n.base)
    if bound is None:
        return fn(Name(n.base, new_args) if n.args else n)
    match bound:
        case SymbolArg(name=repl):
            # a parameterized replacement keeps its own arguments in front
            return fn(Name(repl.base, repl.args + new_args) if new_args else repl)
        case EmptyArg():
            raise _MentionsEmpty
        case ListArg(_) | ConsArg(_, _):
            raise SubstitutionError(
                f"list argument bound to {n.base!r} used where a single name is expected"
            )
    raise TypeError(f"not an argument: {bound!r}")


def _subst_members(members: tuple[Name, ...], binding: Mapping[str, Argument],
                   fn: NameFn) -> tuple[Name, ...]:
    """Individual-enumeration positions: a name bound to a list splices its
    elements in place (Fig-11 style `{v0, vs}`)."""
    out: list[Name] = []
    for m in members:
        bound = binding.get(m.base) if m.is_plain else None
        if isinstance(bound, ListArg):
            for item in bound.items:
                match item:
                    case SymbolArg(name=nm):
                        out.append(fn(nm))
                    case EmptyArg():
                        raise _MentionsEmpty
                    case _:
                        raise SubstitutionError("nested list in individual enumeration")
        else:
            out.append(_subst_name(m, binding, fn))
    return tuple(out)


def _subst(x, binding: Mapping[str, Argument], fn: NameFn):
    """Rebuild a node with every name substituted and then passed to fn."""
    vals = []
    for f in _FIELDS[type(x)][1]:
        v = getattr(x, f)
        t = type(v)
        if t is Name:
            v = _subst_name(v, binding, fn)
        elif t is tuple:
            if v and type(v[0]) is Name:
                v = _subst_members(v, binding, fn)
            else:
                v = tuple([_subst(c, binding, fn) for c in v])
        elif t in _FIELDS:
            v = _subst(v, binding, fn)
        vals.append(v)
    return type(x)(*vals)


def subst_axiom(a: Axiom, binding: Mapping[str, Argument], fn: NameFn = _same) -> Axiom | None:
    """Substitute into one axiom and apply fn to every name of the result,
    in one rebuild; None when it mentions an empty-bound name and is
    therefore deleted.  fn may already have seen some names of a deleted
    axiom."""
    try:
        return _subst(a, binding, fn)
    except _MentionsEmpty:
        return None


def subst_decls(decls: Iterable[Decl], binding: Mapping[str, Argument],
                fn: NameFn = _same) -> list[Decl]:
    """Substitute into declarations, then apply fn to each name; those
    naming an empty-bound parameter are dropped."""
    out: list[Decl] = []
    for kind, name in decls:
        try:
            out.append((kind, _subst_name(name, binding, fn)))
        except _MentionsEmpty:
            continue
    return out


def subst_argument(arg: Argument, binding: Mapping[str, Argument]) -> Argument:
    """Substitute inside an instantiation argument.  Raises _MentionsEmpty
    internally when the argument mentions an empty-bound name; callers inside
    this module turn that into the whole-instantiation elision rule."""
    match arg:
        case SymbolArg(name=n, kind=k):
            if n.is_plain and n.base in binding:
                bound = binding[n.base]
                if isinstance(bound, EmptyArg):
                    raise _MentionsEmpty
                return bound
            return SymbolArg(_subst_name(n, binding), k)
        case ListArg(items):
            out: list[Argument] = []
            for item in items:
                sub = subst_argument(item, binding)
                if isinstance(sub, ListArg):
                    out.extend(sub.items)
                else:
                    out.append(sub)
            return ListArg(tuple(out))
        case EmptyArg():
            return arg
        case ConsArg(head, tail):
            new_head = subst_argument(head, binding)
            new_tail = subst_argument(tail, binding)
            if isinstance(new_tail, ListArg):
                return ListArg((new_head,) + new_tail.items)
            if isinstance(new_tail, EmptyArg):
                return ListArg((new_head,))
            return ConsArg(new_head, new_tail)
    raise TypeError(f"not an argument: {arg!r}")


def subst_arguments(args: tuple[Argument, ...],
                    binding: Mapping[str, Argument]) -> tuple[Argument, ...] | None:
    """Substitute into an instantiation's arguments; None when one mentions
    an empty-bound name, which elides the whole instantiation."""
    if not binding:
        return args
    try:
        return tuple(subst_argument(a, binding) for a in args)
    except _MentionsEmpty:
        return None


def subst_pattern_def(p: PatternDef, binding: Mapping[str, Argument]) -> PatternDef:
    """Substitute into a let-bound pattern definition; its own parameters
    shadow the outer binding."""
    own = p.param_names
    inner = {k: v for k, v in binding.items() if k not in own}
    params = []
    for q in p.params:
        kept = [c for c in (subst_axiom(a, inner) for a in q.constraints) if c is not None]
        params.append(Parameter(q.kind, q.name, q.optional, q.list_tail, tuple(kept)))
    return PatternDef(p.name, tuple(params), substitute(p.body, inner), p.imports)


def substitute(spec: Spec, binding: Mapping[str, Argument]) -> Spec:
    """Simultaneously replace bound parameter names throughout a spec tree.

    Applies the elision rules for empty bindings on the way: basic axioms
    mentioning an empty-bound name are deleted, and instantiations whose
    arguments mention one collapse to the empty spec.
    """
    if not binding:
        return spec
    match spec:
        case BasicSpec(o):
            axioms = [b for a in o.axioms if (b := subst_axiom(a, binding)) is not None]
            return BasicSpec(Ontology.of(subst_decls(o.decls, binding), axioms))
        case UnionSpec(left, right):
            return UnionSpec(substitute(left, binding), substitute(right, binding))
        case ExtensionSpec(base, ext):
            return ExtensionSpec(substitute(base, binding), substitute(ext, binding))
        case InstSpec(pattern, args, bracketed, loc):
            new_args = subst_arguments(args, binding)
            if new_args is None:
                return EmptySpec()
            return InstSpec(pattern, new_args, bracketed, loc)
        case LetSpec(locals_, body):
            return LetSpec(
                tuple(subst_pattern_def(p, binding) for p in locals_),
                substitute(body, binding),
            )
        case EmptySpec():
            return spec
    raise TypeError(f"not a spec: {spec!r}")
