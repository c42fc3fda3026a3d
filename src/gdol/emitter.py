"""Deterministic Manchester-syntax emission and golden-file comparison.

Output layout is fixed so that two runs over the same input are byte
identical: frames grouped by declaration kind (Class, Individual,
ObjectProperty, DataProperty), names sorted within a group, a frame's
clauses by rank and, where two share one, by the axiom's key, two-space
indents, LF line endings, one trailing newline.
Standalone axioms that have no frame subject (DifferentIndividuals, and the
rare equivalence or disjointness between two complex expressions) come after
all frames.

Every name is written as it stands after expansion: a parameterized name
that was not stratified raises `UnstratifiedName`.  Where an axiom goes (its
frame, clause keyword and value text) comes from a table keyed by the
axiom's class; writing a complex class expression still uses `match`.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import GdolError, UnstratifiedName
from .model import (
    And, Axiom, ClassAssertion, ClassExpr, DifferentIndividuals, DisjointClasses,
    Domain, EquivalentClasses, Functional, InverseProps, Max, Name, Named, Node,
    OneOf, Only, Ontology, PropAssertion, PropExpr, Range, Some, SubClassOf,
    SubPropertyChain, SubPropertyOf, SymbolKind, Transitive, name_key, node_key,
)

_KIND_ORDER = (
    SymbolKind.CLASS,
    SymbolKind.INDIVIDUAL,
    SymbolKind.OBJECT_PROPERTY,
    SymbolKind.DATA_PROPERTY,
)
_KIND_RANK = {kind: rank for rank, kind in enumerate(_KIND_ORDER)}
_HEADERS = tuple(f"{kind.value}: " for kind in _KIND_ORDER)


def _strict_name(n: Name) -> str:
    if n.args:
        raise UnstratifiedName(str(n))
    return n.base


def prop_text(p: PropExpr) -> str:
    return f"inverse {_strict_name(p.name)}" if p.inverse else _strict_name(p.name)


def expr_text(e: ClassExpr) -> str:
    if e.__class__ is Named:
        return _strict_name(e.name)

    def filler(f: ClassExpr) -> str:
        text = expr_text(f)
        return f"({text})" if isinstance(f, And) else text

    match e:
        case Some(prop, f):
            return f"{prop_text(prop)} some {filler(f)}"
        case Only(prop, f):
            return f"{prop_text(prop)} only {filler(f)}"
        case Max(n, prop, f):
            return f"{prop_text(prop)} max {n} {filler(f)}"
        case And(operands):
            return " and ".join([expr_text(c) for c in operands])
        case OneOf(members):
            return "{" + ", ".join(_strict_name(m) for m in members) + "}"
    raise TypeError(f"not a class expression: {e!r}")


# clause rank fixes the order clauses appear inside a frame
_CLAUSES = {
    "SubClassOf": 0, "EquivalentTo": 1, "DisjointWith": 2, "Types": 3,
    "Facts": 4, "Domain": 5, "Range": 6, "Characteristics": 7,
    "SubPropertyOf": 8, "InverseOf": 9, "SubPropertyChain": 10,
}

_C, _P, _I = SymbolKind.CLASS, SymbolKind.OBJECT_PROPERTY, SymbolKind.INDIVIDUAL


def _subclass(x: SubClassOf):
    if x.sub.__class__ is not Named:
        raise GdolError(f"cannot emit a subclass axiom with complex subject {expr_text(x.sub)!r}")
    return x.sub.name, _C, "SubClassOf", expr_text(x.sup)


def _pair(frame_kw: str, standalone_kw: str):
    def place(x):
        if x.a.__class__ is Named:
            return x.a.name, _C, frame_kw, expr_text(x.b)
        return None, _C, standalone_kw, f"{expr_text(x.a)}, {expr_text(x.b)}"
    return place


def _subproperty(x: SubPropertyOf):
    if x.sub.inverse:
        raise GdolError("cannot emit a subproperty axiom for an inverse")
    return x.sub.name, _P, "SubPropertyOf", prop_text(x.sup)


# where an axiom goes, by its class: (frame subject or None, inferred kind,
# clause keyword, clause value text); subject None means standalone
_PLACEMENT = {
    SubClassOf: _subclass,
    EquivalentClasses: _pair("EquivalentTo", "EquivalentClasses"),
    DisjointClasses: _pair("DisjointWith", "DisjointClasses"),
    SubPropertyOf: _subproperty,
    InverseProps: lambda x: (x.a, _P, "InverseOf", _strict_name(x.b)),
    Domain: lambda x: (x.prop, _P, "Domain", expr_text(x.cls)),
    Range: lambda x: (x.prop, _P, "Range", expr_text(x.cls)),
    Functional: lambda x: (x.prop, _P, "Characteristics", "Functional"),
    Transitive: lambda x: (x.prop, _P, "Characteristics", "Transitive"),
    SubPropertyChain: lambda x: (x.prop, _P, "SubPropertyChain",
                                 " o ".join(prop_text(q) for q in x.chain)),
    ClassAssertion: lambda x: (x.individual, _I, "Types", expr_text(x.cls)),
    PropAssertion: lambda x: (x.subject, _I, "Facts",
                              f"{_strict_name(x.prop)} {_strict_name(x.obj)}"),
    DifferentIndividuals: lambda x: (None, _I, "DifferentIndividuals",
                                     ", ".join(_strict_name(m) for m in x.members)),
}


def _placement(a: Axiom) -> tuple[Name | None, SymbolKind, str, str]:
    """Where an axiom goes, from its class's entry in `_PLACEMENT`."""
    place = _PLACEMENT.get(a.__class__)
    if place is None:
        raise TypeError(f"not an axiom: {a!r}")
    return place(a)


def axiom_text(a: Axiom) -> str:
    """One-line rendering used in diagnostics and obligation reports."""
    subject, _, kw, value = _placement(a)
    if subject is None:
        return f"{kw}: {value}"
    return f"{_strict_name(subject)} {kw}: {value}"


def emit_manchester(o: Ontology) -> str:
    """Render an expanded ontology.  All names must be stratified (plain)."""
    # name -> (its kind, its clauses); an Ontology gives each name one kind,
    # so this map needs no order: names are keyed and sorted once, when the
    # frames are written
    frames: dict[Name, tuple[SymbolKind, list[tuple[int, Axiom, str]]]] = {
        name: (kind, []) for kind, name in o.decls}
    # an axiom whose subject is declared goes to its frame as it comes; the
    # others are placed in key order, which kind inference and the choice of
    # a symmetric axiom's side depend on, and so is one that fails, so that
    # the error raised is the first in key order
    rest: list[tuple[Axiom, tuple | None]] = []
    for a in o.axioms:
        try:
            placed = _placement(a)
        except GdolError:
            rest.append((a, None))
            continue
        frame = frames.get(placed[0])
        if frame is None:
            rest.append((a, placed))
        else:
            kw = placed[2]
            frame[1].append((_CLAUSES[kw], a, f"{kw}: {placed[3]}"))
    standalone: list[str] = []
    for a, placed in sorted(rest, key=lambda r: node_key(r[0])):
        subject, inferred, kw, value = placed or _placement(a)
        if subject is None:
            standalone.append(f"{kw}: {value}")
            continue
        frame = frames.get(subject)
        if frame is None:
            # canonical pair order may have led with an undeclared name; a
            # pair whose other side is a declared name hangs off that one,
            # placed with its sides exchanged, so no new declaration is implied
            cls = a.__class__
            if (cls in (EquivalentClasses, DisjointClasses) and a.b.__class__ is Named
                    and a.b.name in frames):
                subject, _, kw, value = _PLACEMENT[cls](cls(a.b, a.a))
                frame = frames[subject]
            else:
                frame = frames[subject] = (inferred, [])
        frame[1].append((_CLAUSES[kw], a, f"{kw}: {value}"))
    # distinct names have distinct keys, so the sort never compares names
    order = sorted([(_KIND_RANK[kind], name_key(name), name, clauses)
                    for name, (kind, clauses) in frames.items()])
    lines: list[str] = []
    for rank, _, name, clauses in order:
        lines.append(_HEADERS[rank] + _strict_name(name))
        if len(clauses) > 1:
            clauses.sort(key=itemgetter(0))  # by rank, then by key where ranks tie
            tied = {c[0] for c, d in zip(clauses, clauses[1:]) if c[0] == d[0]}
            if tied:
                clauses.sort(key=lambda c: (c[0], node_key(c[1]) if c[0] in tied else ()))
        for clause in clauses:
            lines.append("  " + clause[2])
    lines.extend(standalone)
    return "\n".join(lines) + "\n" if lines else ""


# --- golden comparison ------------------------------------------------------

class GoldenDiff(Node):
    only_in_actual: tuple[Axiom, ...]
    only_in_golden: tuple[Axiom, ...]

    @property
    def empty(self) -> bool:
        return not self.only_in_actual and not self.only_in_golden

    def report(self) -> str:
        lines = []
        for a in self.only_in_actual:
            lines.append(f"+ {axiom_text(a)}")
        for a in self.only_in_golden:
            lines.append(f"- {axiom_text(a)}")
        return "\n".join(lines)


def diff_golden(actual: Ontology, golden: Ontology) -> GoldenDiff:
    """Compare axiom sets; declaration-only frames are not significant."""
    extra = sorted(actual.axioms - golden.axioms, key=node_key)
    missing = sorted(golden.axioms - actual.axioms, key=node_key)
    return GoldenDiff(tuple(extra), tuple(missing))
