"""Deterministic Manchester-syntax emission and golden-file comparison.

Output layout is fixed so that two runs over the same input are byte
identical: frames grouped by declaration kind (Class, Individual,
ObjectProperty, DataProperty), names sorted within a group, a frame's
clauses by rank and, where two share one, by the axiom's key, two-space
indents, LF line endings, one trailing newline.
Standalone axioms that have no frame subject (DifferentIndividuals, and the
rare equivalence or disjointness between two complex expressions) come after
all frames.
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


def _strict_name(n: Name) -> str:
    if n.args:
        raise UnstratifiedName(str(n))
    return n.base


def _loose_name(n: Name) -> str:
    return str(n)


def prop_text(p: PropExpr, nm=_strict_name) -> str:
    return f"inverse {nm(p.name)}" if p.inverse else nm(p.name)


def expr_text(e: ClassExpr, nm=_strict_name) -> str:
    def filler(f: ClassExpr) -> str:
        text = expr_text(f, nm)
        return f"({text})" if isinstance(f, And) else text

    match e:
        case Named(name):
            return nm(name)
        case Some(prop, f):
            return f"{prop_text(prop, nm)} some {filler(f)}"
        case Only(prop, f):
            return f"{prop_text(prop, nm)} only {filler(f)}"
        case Max(n, prop, f):
            return f"{prop_text(prop, nm)} max {n} {filler(f)}"
        case And(operands):
            return " and ".join(expr_text(c, nm) for c in operands)
        case OneOf(members):
            return "{" + ", ".join(nm(m) for m in members) + "}"
    raise TypeError(f"not a class expression: {e!r}")


# clause rank fixes the order clauses appear inside a frame
_CLAUSES = {
    "SubClassOf": 0, "EquivalentTo": 1, "DisjointWith": 2, "Types": 3,
    "Facts": 4, "Domain": 5, "Range": 6, "Characteristics": 7,
    "SubPropertyOf": 8, "InverseOf": 9, "SubPropertyChain": 10,
}


def _placement(a: Axiom, nm) -> tuple[Name | None, SymbolKind, str, str]:
    """Where an axiom goes: (frame subject or None, inferred kind, clause
    keyword, clause value text).  Subject None means standalone."""
    match a:
        case SubClassOf(Named(sub), sup):
            return sub, SymbolKind.CLASS, "SubClassOf", expr_text(sup, nm)
        case SubClassOf(sub, _):
            raise GdolError(f"cannot emit a subclass axiom with complex subject {expr_text(sub, _loose_name)!r}")
        case EquivalentClasses(Named(x), y):
            return x, SymbolKind.CLASS, "EquivalentTo", expr_text(y, nm)
        case EquivalentClasses(x, y):
            return None, SymbolKind.CLASS, "EquivalentClasses", f"{expr_text(x, nm)}, {expr_text(y, nm)}"
        case DisjointClasses(Named(x), y):
            return x, SymbolKind.CLASS, "DisjointWith", expr_text(y, nm)
        case DisjointClasses(x, y):
            return None, SymbolKind.CLASS, "DisjointClasses", f"{expr_text(x, nm)}, {expr_text(y, nm)}"
        case SubPropertyOf(sub, sup):
            if sub.inverse:
                raise GdolError("cannot emit a subproperty axiom for an inverse")
            return sub.name, SymbolKind.OBJECT_PROPERTY, "SubPropertyOf", prop_text(sup, nm)
        case InverseProps(x, y):
            return x, SymbolKind.OBJECT_PROPERTY, "InverseOf", nm(y)
        case Domain(p, c):
            return p, SymbolKind.OBJECT_PROPERTY, "Domain", expr_text(c, nm)
        case Range(p, c):
            return p, SymbolKind.OBJECT_PROPERTY, "Range", expr_text(c, nm)
        case Functional(p):
            return p, SymbolKind.OBJECT_PROPERTY, "Characteristics", "Functional"
        case Transitive(p):
            return p, SymbolKind.OBJECT_PROPERTY, "Characteristics", "Transitive"
        case SubPropertyChain(p, chain):
            return p, SymbolKind.OBJECT_PROPERTY, "SubPropertyChain", " o ".join(prop_text(q, nm) for q in chain)
        case ClassAssertion(c, i):
            return i, SymbolKind.INDIVIDUAL, "Types", expr_text(c, nm)
        case PropAssertion(p, s, o):
            return s, SymbolKind.INDIVIDUAL, "Facts", f"{nm(p)} {nm(o)}"
        case DifferentIndividuals(members):
            return None, SymbolKind.INDIVIDUAL, "DifferentIndividuals", ", ".join(nm(m) for m in members)
    raise TypeError(f"not an axiom: {a!r}")


def axiom_text(a: Axiom, nm=_strict_name) -> str:
    """One-line rendering used in diagnostics and obligation reports."""
    subject, _, kw, value = _placement(a, nm)
    if subject is None:
        return f"{kw}: {value}"
    return f"{nm(subject)} {kw}: {value}"


def _swapped(a: Axiom, nm) -> tuple[Name, str, str] | None:
    """Symmetric axioms can hang off either operand; offer the other side."""
    match a:
        case EquivalentClasses(x, Named(y)):
            return y, "EquivalentTo", expr_text(x, nm)
        case DisjointClasses(x, Named(y)):
            return y, "DisjointWith", expr_text(x, nm)
    return None


def _frames_text(o: Ontology, nm) -> str:
    # an Ontology gives each name one kind, so this map needs no order:
    # names are keyed and sorted once, when the frames are written
    kinds = {name: kind for kind, name in o.decls}
    clauses: dict[Name, list[tuple[int, Axiom, str]]] = {n: [] for n in kinds}
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
        subject, _, kw, value = placed
        if subject in kinds:
            clauses[subject].append((_CLAUSES[kw], a, f"{kw}: {value}"))
        else:
            rest.append((a, placed))
    standalone: list[str] = []
    for a, placed in sorted(rest, key=lambda r: node_key(r[0])):
        subject, inferred, kw, value = placed or _placement(a, nm)
        if subject is None:
            standalone.append(f"{kw}: {value}")
            continue
        if subject not in kinds:
            # canonical pair order may have led with an undeclared name;
            # prefer a declared subject so no new declaration is implied
            alt = _swapped(a, nm)
            if alt is not None and alt[0] in kinds:
                subject, kw, value = alt
            else:
                kinds[subject] = inferred
                clauses[subject] = []
        clauses[subject].append((_CLAUSES[kw], a, f"{kw}: {value}"))
    lines: list[str] = []
    frames = sorted(kinds.items(), key=lambda frame: name_key(frame[0]))
    for kind in _KIND_ORDER:
        for name in (n for n, k in frames if k is kind):
            lines.append(f"{kind.keyword}: {nm(name)}")
            frame = clauses[name]
            frame.sort(key=itemgetter(0))  # by rank, then by key where ranks tie
            tied = {c[0] for c, d in zip(frame, frame[1:]) if c[0] == d[0]}
            if tied:
                frame.sort(key=lambda c: (c[0], node_key(c[1]) if c[0] in tied else ()))
            lines.extend(f"  {text}" for _, _, text in frame)
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
