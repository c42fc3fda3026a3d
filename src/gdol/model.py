"""Core data model: names, axioms, ontologies, patterns, specs.

Everything here is an immutable value except `OntologyBuilder`, the mutable
accumulator an expansion collects its ontology in before freezing it.  The
three primitive operations the rest of the compiler builds on live here too:
stratification of parameterized names, ontology union under
Same-Name-Same-Thing, and simultaneous substitution of arguments for
parameter names, which also renames every name it builds in the same pass
and returns canonical axioms: it builds each And, OneOf, symmetric pair
and DifferentIndividuals through that shape's canonical constructor.  The
one engine for that rebuild is a plan, `plan_axiom`: a function of the
binding compiled for an axiom's shape, which passes every name it builds to
the one name function it was planned with.  `subst_axiom` builds one and
applies it once (under an empty binding it only renames, as `map_ontology`
does); the expander keeps one per pattern axiom, applied under many
bindings.

Every value class derives from `Node`, a frozen record of the fields its
class body annotates.  The jobs that only follow the structure of axioms,
class expressions and property expressions (ordering keys, substitution,
collecting names and sub-expressions, the shape-neutral part of
canonicalization) are one walk through each node's fields.  The order the
node classes are declared in is the order their keys sort in.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain
from typing import Callable, Collection, Iterable, Mapping, Union, get_args

from .errors import KindClash, SubstitutionError
from .node import NodeMeta, _setattr

_BAD_NAME_CHARS = frozenset("[],;:?{}()| \t\r\n")


class Node(metaclass=NodeMeta):
    """Base of gdol's immutable values: a frozen record of the fields its
    class body annotates, in declaration order, which is `__match_args__`.

    Each subclass gets an `__init__` that takes the fields positionally or
    by keyword, a value given in the class body being a field's default,
    and then calls `__post_init__` if the class has one; an `__eq__` under
    which only instances of the same class are equal; and a `__hash__` that
    is the hash of the tuple of compared fields.  So they do what
    `dataclass(frozen=True, slots=True)` generates.  Fields named in
    `uncompared` take no part in eq and hash.  The fields, and any
    `__slots__` the body names, are the class's slots: a node has no
    `__dict__` and no `__weakref__`.  A copy or an unpickled node is built
    anew through its class from its fields, so what `__post_init__` works
    out (a `Name`'s hash) is worked out again.  The metaclass and the
    derived methods live in `node.py`; a method the class body defines is
    kept.
    """

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, f) for f in self.__match_args__])

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"


class SymbolKind(Enum):
    CLASS = "Class"
    OBJECT_PROPERTY = "ObjectProperty"
    DATA_PROPERTY = "DataProperty"
    INDIVIDUAL = "Individual"


class Name(Node):
    """Plain identifier, or parameterized name such as performs[MotherRole].

    A name keeps its written form and its hash, built from its arguments'
    when it is constructed, so comparing, hashing, printing and stratifying
    a name never walks its arguments however deeply they nest.  The written
    form is unambiguous because a base contains no bracket, comma or space.
    """

    __slots__ = ("_text", "_hash")
    base: str
    args: tuple["Name", ...] = ()

    def __post_init__(self) -> None:
        if not self.base or not _BAD_NAME_CHARS.isdisjoint(self.base):
            raise ValueError(f"invalid identifier {self.base!r}")
        text = f"{self.base}[{', '.join(a._text for a in self.args)}]" if self.args else self.base
        _setattr(self, "_text", text)
        _setattr(self, "_hash", hash((self.base, self.args)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Name:
            return NotImplemented
        return self is other or self._text == other._text

    def __hash__(self) -> int:
        return self._hash

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


class PropExpr(Node):
    name: Name
    inverse: bool = False


# --- class expressions -------------------------------------------------

class Named(Node):
    name: Name


class Some(Node):
    prop: PropExpr
    filler: "ClassExpr"


class Only(Node):
    prop: PropExpr
    filler: "ClassExpr"


class Max(Node):
    n: int
    prop: PropExpr
    filler: "ClassExpr"


class And(Node):
    operands: tuple["ClassExpr", ...]


class OneOf(Node):
    members: tuple[Name, ...]  # enumeration order is meaningful, kept as written


ClassExpr = Union[Named, Some, Only, Max, And, OneOf]


# --- axioms ------------------------------------------------------------

class SubClassOf(Node):
    sub: ClassExpr
    sup: ClassExpr


class EquivalentClasses(Node):
    a: ClassExpr
    b: ClassExpr


class DisjointClasses(Node):
    a: ClassExpr
    b: ClassExpr


class SubPropertyOf(Node):
    sub: PropExpr
    sup: PropExpr


class InverseProps(Node):
    a: Name
    b: Name


class Domain(Node):
    prop: Name
    cls: ClassExpr


class Range(Node):
    prop: Name
    cls: ClassExpr


class Functional(Node):
    prop: Name


class Transitive(Node):
    prop: Name


class SubPropertyChain(Node):
    prop: Name
    chain: tuple[PropExpr, ...]  # length >= 2


class ClassAssertion(Node):
    cls: ClassExpr
    individual: Name


class PropAssertion(Node):
    prop: Name
    subject: Name
    obj: Name


class DifferentIndividuals(Node):
    members: tuple[Name, ...]  # length >= 1


Axiom = Union[
    SubClassOf, EquivalentClasses, DisjointClasses, SubPropertyOf, InverseProps,
    Domain, Range, Functional, Transitive, SubPropertyChain,
    ClassAssertion, PropAssertion, DifferentIndividuals,
]


# --- the generic walk ----------------------------------------------------
# Node classes are walked through their fields (`__match_args__`).
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
    return (n.base, tuple(name_key(a) for a in n.args)) if n.args else (n.base, ())


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
# Five shapes have a canonical constructor, which takes canonical fields: the
# substitution rebuild applies it to the nodes it builds, and canon_expr and
# canon_axiom to parsed and hand-built ones.

def _and(operands) -> ClassExpr:
    """Nested conjunctions flattened, the operands sorted and deduplicated;
    a single operand stands alone."""
    flat = [d for c in operands for d in (c.operands if type(c) is And else (c,))]
    keyed = {node_key(c): c for c in flat}  # equal keys, equal operands
    return flat[0] if len(keyed) == 1 else And(tuple(keyed[k] for k in sorted(keyed)))


def _pair(cls):
    return lambda x, y: cls(*sorted((x, y), key=node_key))


_CANON: dict[type, Callable] = {
    And: _and,
    OneOf: lambda members: OneOf(tuple(dict.fromkeys(members))),  # written order
    EquivalentClasses: _pair(EquivalentClasses),
    DisjointClasses: _pair(DisjointClasses),
    DifferentIndividuals: lambda members: DifferentIndividuals(tuple(sorted(set(members), key=name_key))),
}


def canon_axiom(a: Axiom) -> Axiom:
    """a with its class expressions canonical and its shape's canonical
    constructor applied; a itself when it has none and nothing changes.
    Class expressions other than And are canonicalized the same way."""
    vals = []
    changed = False
    for f in _FIELDS[type(a)][1]:
        v = getattr(a, f)
        if type(v) in _CLASS_EXPRS:
            c = canon_expr(v)
            changed = changed or c is not v
            v = c
        vals.append(v)
    make = _CANON.get(type(a))
    if make is not None:
        return make(*vals)
    return type(a)(*vals) if changed else a


def canon_expr(e: ClassExpr) -> ClassExpr:
    if e.__class__ is Named:
        return e
    if e.__class__ is And:
        return _and([canon_expr(c) for c in e.operands])
    return canon_axiom(e)  # type: ignore[arg-type]


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


class Ontology(Node):
    __slots__ = ("_kinds",)  # name -> kind, filled by the first `kind_of`
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

    def kind_of(self, name: Name) -> SymbolKind | None:
        try:
            kinds = self._kinds
        except AttributeError:
            kinds = {n: kind for kind, n in self.decls}
            _setattr(self, "_kinds", kinds)
        return kinds.get(name)


EMPTY_ONTOLOGY = Ontology()


class OntologyBuilder:
    """Mutable accumulator for the union of many ontologies.

    `extend` checks only the added declarations against the name->kind map
    collected so far, so gathering n declarations costs O(n) where a chain
    of `Ontology.union` calls re-checks everything on every step.
    """

    def __init__(self) -> None:
        self._kinds: dict[Name, SymbolKind] = {}
        self._axioms: set[Axiom] = set()

    def _decls(self) -> Iterable[Decl]:
        return ((kind, name) for name, kind in self._kinds.items())

    def extend(self, decls: Collection[Decl], axioms: Iterable[Axiom] = ()) -> None:
        """Merge declarations and canonical axioms in place; raises the
        KindClash that uniting everything added so far with them would."""
        kinds = self._kinds
        for kind, name in decls:
            if kinds.setdefault(name, kind) is not kind:
                raise _kind_clash(chain(self._decls(), decls))
        self._axioms.update(axioms)

    def freeze(self) -> Ontology:
        return Ontology(frozenset(self._decls()), frozenset(self._axioms))


# --- name rewriting helpers ---------------------------------------------

NameFn = Callable[[Name], Name]


def map_ontology(o: Ontology, fn: NameFn) -> Ontology:
    """Apply fn to every name of an ontology, by a substitution that binds
    nothing; its axioms come out canonical and are not canonicalized again."""
    return Ontology(frozenset([(kind, fn(name)) for kind, name in o.decls]),
                    frozenset([subst_axiom(a, {}, fn) for a in o.axioms]))


# --- arguments ------------------------------------------------------------

class SymbolArg(Node):
    name: Name
    kind: SymbolKind | None = None  # set when the source annotates the argument


class ListArg(Node):
    """The list `items[start:]`.  The parser builds one with start 0; the
    expander binds a list's tail to the same tuple one element on, so list
    recursion hands its tail on and copies nothing.  Substitution copies
    the items only where it splices them into a value."""

    items: tuple["Argument", ...] = ()
    start: int = 0

    def __len__(self) -> int:
        return len(self.items) - self.start


class EmptyArg(Node):
    pass


class ConsArg(Node):
    """Head :: tail written in argument position; the expander unrolls it
    into a list when it binds it to a list parameter."""

    head: "Argument"
    tail: "Argument"


Argument = Union[SymbolArg, ListArg, EmptyArg, ConsArg]


# --- parameters, specs, declarations --------------------------------------

class Parameter(Node):
    kind: SymbolKind
    name: str
    optional: bool = False
    list_tail: str | None = None  # tail identifier for head::tail parameters
    constraints: tuple[Axiom, ...] = ()


class BasicSpec(Node):
    ontology: Ontology


class UnionSpec(Node):
    """`A and B and ...`: the union of its operands, held flat in written
    order, so a chain of any length is one node and comparing, hashing or
    printing it does not recurse once per operand."""
    operands: tuple["Spec", ...]


class ExtensionSpec(Node):
    """`A then B then ...`: also a union after flattening; its operands are
    held as `UnionSpec`'s are."""
    operands: tuple["Spec", ...]


class InstSpec(Node, uncompared=("loc",)):
    pattern: str
    args: tuple[Argument, ...] = ()
    bracketed: bool = True  # False for a bare reference to a named ontology/pattern
    loc: tuple[int, int] = (0, 0)


class LetSpec(Node):
    locals: tuple["PatternDef", ...]
    body: "Spec"


class EmptySpec(Node):
    pass


Spec = Union[BasicSpec, UnionSpec, ExtensionSpec, InstSpec, LetSpec, EmptySpec]


class PatternDef(Node):
    name: str
    params: tuple[Parameter, ...]
    body: Spec
    imports: tuple[str, ...] = ()

    @property
    def param_names(self) -> set[str]:
        """The names the parameters bind: each name and each list tail."""
        return {q.name for q in self.params} | {q.list_tail for q in self.params if q.list_tail}


class OntologyDef(Node):
    name: str
    spec: Spec
    imports: tuple[str, ...] = ()


class RefinementDef(Node):
    name: str
    source: Spec
    target: Spec
    symbol_map: tuple[tuple[Name, Name], ...] = ()


TopDecl = Union[PatternDef, OntologyDef, RefinementDef]


class Document(Node):
    decls: tuple[TopDecl, ...] = ()

    def pattern_defs(self) -> dict[str, PatternDef]:
        return {d.name: d for d in self.decls if isinstance(d, PatternDef)}

    def ontology_defs(self) -> dict[str, OntologyDef]:
        return {d.name: d for d in self.decls if isinstance(d, OntologyDef)}

    def refinement_defs(self) -> dict[str, RefinementDef]:
        return {d.name: d for d in self.decls if isinstance(d, RefinementDef)}


class Obligation(Node):
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
    t = type(bound)
    if t is SymbolArg:
        # a parameterized replacement keeps its own arguments in front
        repl = bound.name
        return fn(Name(repl.base, repl.args + new_args) if new_args else repl)
    if t is EmptyArg:
        raise _MentionsEmpty
    if t is ListArg or t is ConsArg:
        raise SubstitutionError(
            f"list argument bound to {n.base!r} used where a single name is expected"
        )
    raise TypeError(f"not an argument: {bound!r}")


def _spliced(arg: Argument | None) -> tuple[Argument, ...] | None:
    """The items a list argument splices into a value, None for any other
    argument."""
    return arg.items[arg.start:] if type(arg) is ListArg else None


def _subst_members(members: tuple[Name, ...], binding: Mapping[str, Argument],
                   fn: NameFn) -> tuple[Name, ...]:
    """Individual-enumeration positions: a name bound to a list splices its
    elements in place (Fig-11 style `{v0, vs}`)."""
    out: list[Name] = []
    for m in members:
        items = _spliced(binding.get(m.base)) if not m.args else None
        if items is not None:
            for item in items:
                t = type(item)
                if t is SymbolArg:
                    out.append(fn(item.name))
                elif t is EmptyArg:
                    raise _MentionsEmpty
                else:
                    raise SubstitutionError("nested list in individual enumeration")
        else:
            out.append(_subst_name(m, binding, fn))
    return tuple(out)


def plan_axiom(a: Axiom, fn: NameFn) -> Callable[[Mapping[str, Argument]], Axiom | None]:
    """`subst_axiom(a, binding, fn)` compiled for a's shape: the returned
    function takes the binding, so an axiom substituted under many bindings
    is planned once.  (The tree's functions take what they use as defaults,
    which costs less memory and time than closure cells.)"""
    def subst(binding: Mapping[str, Argument], run=_plan(a, fn)) -> Axiom | None:
        try:
            return run(binding)
        except _MentionsEmpty:
            return None
    return subst


def _plan_name(n: Name, fn: NameFn):
    if n.args:
        return lambda b, n=n, fn=fn: _subst_name(n, b, fn)

    def name(b, base=n.base, n=n, fn=fn):
        bound = b.get(base)
        if bound is None:
            return fn(n)
        if bound.__class__ is SymbolArg:
            return fn(bound.name)
        return _subst_name(n, b, fn)  # raises as for any name
    return name


def _plan(x, fn: NameFn):
    """A function of a binding that rebuilds x with every name substituted
    and then passed to fn, field by field in order, through its shape's
    canonical constructor where it has one."""
    parts = []
    for f in _FIELDS[x.__class__][1]:
        v = getattr(x, f)
        t = type(v)
        if t is Name:
            parts.append(_plan_name(v, fn))
        elif t is tuple and v and type(v[0]) is Name:
            parts.append(lambda b, v=v, fn=fn: _subst_members(v, b, fn))
        elif t is tuple:
            subs = tuple(_plan(c, fn) for c in v)
            parts.append(lambda b, subs=subs: tuple([s(b) for s in subs]))
        elif t in _FIELDS:
            parts.append(_plan(v, fn))
        else:
            parts.append(lambda b, v=v: v)
    make = _CANON.get(x.__class__, x.__class__)
    if len(parts) == 1:
        return lambda b, make=make, p=parts[0]: make(p(b))
    if len(parts) == 2:
        return lambda b, make=make, p=parts[0], q=parts[1]: make(p(b), q(b))
    p, q, r = parts  # no node has more than three fields
    return lambda b, make=make, p=p, q=q, r=r: make(p(b), q(b), r(b))


def subst_axiom(a: Axiom, binding: Mapping[str, Argument], fn: NameFn = _same) -> Axiom | None:
    """Substitute into one axiom and apply fn to every name of the result,
    in one rebuild that returns it canonical, as canon_axiom would; None
    when it mentions an empty-bound name and is therefore deleted.  fn may
    already have seen some names of a deleted axiom, and sees names that
    canonicalization then drops as repeats."""
    return plan_axiom(a, fn)(binding)


def subst_decls(decls: Iterable[Decl], binding: Mapping[str, Argument],
                fn: NameFn = _same) -> list[Decl]:
    """Substitute into declarations, then apply fn to each name; those
    naming an empty-bound parameter are dropped."""
    if not binding:
        return [(kind, fn(name)) for kind, name in decls]
    out: list[Decl] = []
    for kind, name in decls:
        try:
            out.append((kind, _subst_name(name, binding, fn)))
        except _MentionsEmpty:
            continue
    return out


def subst_argument(arg: Argument, binding: Mapping[str, Argument]) -> Argument:
    """Substitute inside an instantiation argument; a cons keeps its shape
    (the expander's `_as_list` unrolls it).  Raises _MentionsEmpty
    internally when the argument mentions an empty-bound name; callers inside
    this module turn that into the whole-instantiation elision rule."""
    t = type(arg)
    if t is SymbolArg:
        n = arg.name
        if not n.args and n.base in binding:
            bound = binding[n.base]
            if type(bound) is EmptyArg:
                raise _MentionsEmpty
            return bound
        return SymbolArg(_subst_name(n, binding), arg.kind)
    if t is ListArg:
        out: list[Argument] = []
        for item in arg.items[arg.start:]:
            sub = subst_argument(item, binding)
            items = _spliced(sub)
            if items is None:
                out.append(sub)
            else:
                out.extend(items)
        return ListArg(tuple(out))
    if t is ConsArg:
        return ConsArg(subst_argument(arg.head, binding), subst_argument(arg.tail, binding))
    if t is EmptyArg:
        return arg
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


def _strings(x) -> set[str]:
    """Every string inside a value: the bases of its names, its parameter
    and pattern names.  Enough to tell a name that occurs nowhere in it."""
    found: set[str] = set()
    stack = [x]
    while stack:
        y = stack.pop()
        if isinstance(y, str):
            found.add(y)
        elif isinstance(y, (tuple, frozenset)):
            stack.extend(y)
        elif isinstance(y, Node):
            stack.extend(getattr(y, f) for f in y.__match_args__)
    return found


def subst_pattern_def(p: PatternDef, binding: Mapping[str, Argument]) -> PatternDef:
    """Substitute into a let-bound pattern definition.  Its own parameters
    shadow the outer binding, and one that a bound argument mentions is
    renamed, in the same pass, to a name that occurs in neither, so the
    argument's name is not captured."""
    own = p.param_names
    inner: dict[str, Argument] = {k: v for k, v in binding.items() if k not in own}
    captured = own & _strings(tuple(inner.values()))
    rename: dict[str | None, str] = {}
    if captured:
        used = _strings((p, tuple(inner.values())))
        for n in sorted(captured):
            i = 1
            while f"{n}_{i}" in used:
                i += 1
            rename[n] = f"{n}_{i}"
            used.add(rename[n])
            inner[n] = SymbolArg(Name(rename[n]))
    params = []
    for q in p.params:
        kept = [c for c in (subst_axiom(a, inner) for a in q.constraints) if c is not None]
        params.append(Parameter(q.kind, rename.get(q.name, q.name), q.optional,
                                rename.get(q.list_tail, q.list_tail), tuple(kept)))
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
        case UnionSpec(ops) | ExtensionSpec(ops):
            return spec.__class__(tuple(substitute(op, binding) for op in ops))
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
