"""Deterministic Manchester-syntax emission and golden-file comparison.

Output layout is fixed so that two runs over the same input are byte
identical: frames grouped by declaration kind (Class, Individual,
ObjectProperty, DataProperty), names sorted within a group, a frame's
clauses by rank and, where two share one, by the axiom's key, two-space
indents, LF line endings, one trailing newline.
Standalone axioms that have no frame subject (DifferentIndividuals, and the
rare equivalence or disjointness between two complex expressions) come after
all frames.

Where an axiom goes (its frame, clause keyword and value text) comes from a
table keyed by the axiom's class; writing class expressions and rendering
pattern-language source still use `match`.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import GdolError, UnstratifiedName
from .model import (
    And, Argument, Axiom, BasicSpec, ClassAssertion, ClassExpr, ConsArg,
    DifferentIndividuals, DisjointClasses, Document, Domain, EmptyArg,
    EmptySpec, EquivalentClasses, ExtensionSpec, Functional, InstSpec,
    InverseProps, LetSpec, ListArg, Max, Name, Named, Node, OneOf, Only, Ontology,
    OntologyDef, Parameter, PatternDef, PropAssertion, PropExpr, Range,
    RefinementDef, Some, Spec, SubClassOf, SubPropertyChain, SubPropertyOf,
    SymbolArg, SymbolKind, Transitive, UnionSpec, name_key, node_key,
)

_KIND_ORDER = (
    SymbolKind.CLASS,
    SymbolKind.INDIVIDUAL,
    SymbolKind.OBJECT_PROPERTY,
    SymbolKind.DATA_PROPERTY,
)
_KIND_RANK = {kind: rank for rank, kind in enumerate(_KIND_ORDER)}
_HEADERS = tuple(f"{kind.keyword}: " for kind in _KIND_ORDER)


def _strict_name(n: Name) -> str:
    if n.args:
        raise UnstratifiedName(str(n))
    return n.base


def _loose_name(n: Name) -> str:
    return str(n)


def prop_text(p: PropExpr, nm=_strict_name) -> str:
    return f"inverse {nm(p.name)}" if p.inverse else nm(p.name)


def expr_text(e: ClassExpr, nm=_strict_name) -> str:
    if e.__class__ is Named:
        return nm(e.name)

    def filler(f: ClassExpr) -> str:
        text = expr_text(f, nm)
        return f"({text})" if isinstance(f, And) else text

    match e:
        case Some(prop, f):
            return f"{prop_text(prop, nm)} some {filler(f)}"
        case Only(prop, f):
            return f"{prop_text(prop, nm)} only {filler(f)}"
        case Max(n, prop, f):
            return f"{prop_text(prop, nm)} max {n} {filler(f)}"
        case And(operands):
            texts = [expr_text(c, nm) for c in operands]
            if nm is _loose_name:  # in a document body a bare name after `and` starts a spec
                texts[1:] = [f"({t})" if isinstance(c, Named) else t
                             for c, t in zip(operands[1:], texts[1:])]
            return " and ".join(texts)
        case OneOf(members):
            return "{" + ", ".join(nm(m) for m in members) + "}"
    raise TypeError(f"not a class expression: {e!r}")


# clause rank fixes the order clauses appear inside a frame
_CLAUSES = {
    "SubClassOf": 0, "EquivalentTo": 1, "DisjointWith": 2, "Types": 3,
    "Facts": 4, "Domain": 5, "Range": 6, "Characteristics": 7,
    "SubPropertyOf": 8, "InverseOf": 9, "SubPropertyChain": 10,
}

_C, _P, _I = SymbolKind.CLASS, SymbolKind.OBJECT_PROPERTY, SymbolKind.INDIVIDUAL


def _subclass(x: SubClassOf, nm):
    if x.sub.__class__ is not Named:
        raise GdolError(f"cannot emit a subclass axiom with complex subject {expr_text(x.sub, _loose_name)!r}")
    return x.sub.name, _C, "SubClassOf", expr_text(x.sup, nm)


def _pair(frame_kw: str, standalone_kw: str):
    def place(x, nm):
        if x.a.__class__ is Named:
            return x.a.name, _C, frame_kw, expr_text(x.b, nm)
        return None, _C, standalone_kw, f"{expr_text(x.a, nm)}, {expr_text(x.b, nm)}"
    return place


def _subproperty(x: SubPropertyOf, nm):
    if x.sub.inverse:
        raise GdolError("cannot emit a subproperty axiom for an inverse")
    return x.sub.name, _P, "SubPropertyOf", prop_text(x.sup, nm)


# where an axiom goes, by its class: (frame subject or None, inferred kind,
# clause keyword, clause value text); subject None means standalone
_PLACEMENT = {
    SubClassOf: _subclass,
    EquivalentClasses: _pair("EquivalentTo", "EquivalentClasses"),
    DisjointClasses: _pair("DisjointWith", "DisjointClasses"),
    SubPropertyOf: _subproperty,
    InverseProps: lambda x, nm: (x.a, _P, "InverseOf", nm(x.b)),
    Domain: lambda x, nm: (x.prop, _P, "Domain", expr_text(x.cls, nm)),
    Range: lambda x, nm: (x.prop, _P, "Range", expr_text(x.cls, nm)),
    Functional: lambda x, nm: (x.prop, _P, "Characteristics", "Functional"),
    Transitive: lambda x, nm: (x.prop, _P, "Characteristics", "Transitive"),
    SubPropertyChain: lambda x, nm: (x.prop, _P, "SubPropertyChain",
                                     " o ".join(prop_text(q, nm) for q in x.chain)),
    ClassAssertion: lambda x, nm: (x.individual, _I, "Types", expr_text(x.cls, nm)),
    PropAssertion: lambda x, nm: (x.subject, _I, "Facts", f"{nm(x.prop)} {nm(x.obj)}"),
    DifferentIndividuals: lambda x, nm: (None, _I, "DifferentIndividuals",
                                         ", ".join(nm(m) for m in x.members)),
}


def _placement(a: Axiom, nm) -> tuple[Name | None, SymbolKind, str, str]:
    """Where an axiom goes, from its class's entry in `_PLACEMENT`."""
    place = _PLACEMENT.get(a.__class__)
    if place is None:
        raise TypeError(f"not an axiom: {a!r}")
    return place(a, nm)


def axiom_text(a: Axiom, nm=_strict_name) -> str:
    """One-line rendering used in diagnostics and obligation reports."""
    subject, _, kw, value = _placement(a, nm)
    if subject is None:
        return f"{kw}: {value}"
    return f"{nm(subject)} {kw}: {value}"


def _frames_text(o: Ontology, nm) -> str:
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
            placed = _placement(a, nm)
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
        subject, inferred, kw, value = placed or _placement(a, nm)
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
                subject, _, kw, value = _PLACEMENT[cls](cls(a.b, a.a), nm)
                frame = frames[subject]
            else:
                frame = frames[subject] = (inferred, [])
        frame[1].append((_CLAUSES[kw], a, f"{kw}: {value}"))
    # distinct names have distinct keys, so the sort never compares names
    order = sorted([(_KIND_RANK[kind], name_key(name), name, clauses)
                    for name, (kind, clauses) in frames.items()])
    lines: list[str] = []
    for rank, _, name, clauses in order:
        lines.append(_HEADERS[rank] + nm(name))
        if len(clauses) > 1:
            clauses.sort(key=itemgetter(0))  # by rank, then by key where ranks tie
            tied = {c[0] for c, d in zip(clauses, clauses[1:]) if c[0] == d[0]}
            if tied:
                clauses.sort(key=lambda c: (c[0], node_key(c[1]) if c[0] in tied else ()))
        for clause in clauses:
            lines.append("  " + clause[2])
    lines.extend(standalone)
    return "\n".join(lines) + "\n" if lines else ""


def emit_manchester(o: Ontology) -> str:
    """Render an expanded ontology.  All names must be stratified (plain)."""
    return _frames_text(o, _strict_name)


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


# --- source rendering --------------------------------------------------------

def _argument_text(arg: Argument) -> str:
    match arg:
        case SymbolArg(name, kind):
            prefix = f"{kind.keyword}: " if kind else ""
            return prefix + str(name)
        case ListArg(items):
            return "[" + ", ".join(_argument_text(i) for i in items) + "]"
        case EmptyArg():
            return "{}"
        case ConsArg(head, tail):
            return f"{_argument_text(head)} :: {_argument_text(tail)}"
    raise TypeError(f"not an argument: {arg!r}")


def _parameter_text(p: Parameter) -> str:
    constraints = "".join(
        " " + axiom_text(a, _loose_name).split(" ", 1)[1] for a in p.constraints
    )
    core = f"{p.kind.keyword}: {p.name}{constraints}"
    if p.constraints and p.is_list:
        body = "{" + core + "}" + f" :: {p.list_tail}"
    elif p.is_list:
        body = f"{core} :: {p.list_tail}"
    else:
        body = core
    return ("? " if p.optional else "") + body


def _spec_text(s: Spec, indent: str = "  ") -> str:
    match s:
        case UnionSpec(ops) | ExtensionSpec(ops):
            kw = "\nand " if isinstance(s, UnionSpec) else "\nthen "
            texts = [_spec_text(op, indent) for op in ops]
            return kw.join(texts[:1] + [t.lstrip() for t in texts[1:]])
        case BasicSpec(ontology):
            text = _frames_text(ontology, _loose_name)
            return "\n".join(indent + line for line in text.splitlines())
        case InstSpec(pattern, args, bracketed, _):
            if not bracketed:
                return indent + pattern
            inner = "; ".join(_argument_text(a) if not isinstance(a, EmptyArg) else "" for a in args)
            return f"{indent}{pattern}[{inner}]"
        case LetSpec(locals_, body):
            defs = "\n".join(_pattern_text(p) for p in locals_)
            return f"{indent}let\n{defs}\n{indent}in\n{_spec_text(body, indent)}"
        case EmptySpec():
            return indent + "{}"
    raise TypeError(f"not a spec: {s!r}")


def _given_text(imports: tuple[str, ...]) -> str:
    return f" given {', '.join(imports)}" if imports else ""


def _pattern_text(p: PatternDef) -> str:
    params = "; ".join(_parameter_text(q) for q in p.params)
    head = f"pattern {p.name} [ {params} ]" if params else f"pattern {p.name} []"
    return f"{head}{_given_text(p.imports)} =\n{_spec_text(p.body)}"


def render_document(doc: Document) -> str:
    """Print a document back to pattern-language source."""
    parts: list[str] = []
    for d in doc.decls:
        match d:
            case PatternDef():
                parts.append(_pattern_text(d))
            case OntologyDef(name, spec, imports):
                parts.append(f"ontology {name}{_given_text(imports)} =\n{_spec_text(spec)}")
            case RefinementDef(name, source, target, symbol_map):
                text = f"refinement {name} =\n{_spec_text(source)}\nrefined to\n{_spec_text(target)}"
                if symbol_map:
                    pairs = ", ".join(f"{a} |-> {b}" for a, b in symbol_map)
                    text += f"\nwith {pairs}"
                parts.append(text)
    return "\n\n".join(parts) + "\n" if parts else ""
