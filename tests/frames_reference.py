"""Reference frame layout for the emitter differential in test_emitter.py,
and the frame bodies of the source renderer in source_reference.py.

This is the layout written the plain way: every axiom is keyed with
`node_key` and placed in key order, so kind inference for undeclared
subjects, the choice of side for a symmetric axiom, the clause order inside
a frame and the first error raised all follow from one sort.  Where an
axiom goes and how a class expression is written are the structural
`match` versions, kept here apart from the emitter's class tables, so a
mistake in those tables shows as a difference.  The emitter must write the
same text and raise the same error.

Names are written through a name function: `_strict_name`, the emitter's,
or `loose_name`, which writes a parameterized name as source (`f[A, B]`)
and, in an intersection, parenthesises a named class after `and`, where a
document body would read a bare name as the start of a spec.  The emitter
writes strict names only.
"""
from __future__ import annotations

from operator import itemgetter

from gdol.emitter import _CLAUSES, _KIND_ORDER, _strict_name
from gdol.errors import GdolError
from gdol.model import (
    And, ClassAssertion, DifferentIndividuals, DisjointClasses, Domain,
    EquivalentClasses, Functional, InverseProps, Max, Name, Named, OneOf, Only,
    Ontology, PropAssertion, Range, Some, SubClassOf, SubPropertyChain,
    SubPropertyOf, SymbolKind, Transitive, name_key, node_key,
)


def loose_name(n: Name) -> str:
    return str(n)


def prop_text(p, nm) -> str:
    return f"inverse {nm(p.name)}" if p.inverse else nm(p.name)


def expr_text(e, nm) -> str:
    def filler(f) -> str:
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
            texts = [expr_text(c, nm) for c in operands]
            if nm is loose_name:  # in a document body a bare name after `and` starts a spec
                texts[1:] = [f"({t})" if isinstance(c, Named) else t
                             for c, t in zip(operands[1:], texts[1:])]
            return " and ".join(texts)
        case OneOf(members):
            return "{" + ", ".join(nm(m) for m in members) + "}"
    raise TypeError(f"not a class expression: {e!r}")


def placement(a, nm):
    match a:
        case SubClassOf(Named(sub), sup):
            return sub, SymbolKind.CLASS, "SubClassOf", expr_text(sup, nm)
        case SubClassOf(sub, _):
            raise GdolError(f"cannot emit a subclass axiom with complex subject {expr_text(sub, _strict_name)!r}")
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


def swapped(a, nm):
    match a:
        case EquivalentClasses(x, Named(y)):
            return y, "EquivalentTo", expr_text(x, nm)
        case DisjointClasses(x, Named(y)):
            return y, "DisjointWith", expr_text(x, nm)
    return None


def frames_text(o: Ontology, nm) -> str:
    kinds = {name: kind for kind, name in o.decls}
    clauses: dict[Name, list[tuple[int, object, str]]] = {n: [] for n in kinds}
    standalone: list[tuple[object, str]] = []
    for key, a in sorted(((node_key(a), a) for a in o.axioms), key=itemgetter(0)):
        subject, inferred, kw, value = placement(a, nm)
        if subject is None:
            standalone.append((key, f"{kw}: {value}"))
            continue
        if subject not in kinds:
            alt = swapped(a, nm)
            if alt is not None and alt[0] in kinds:
                subject, kw, value = alt
            else:
                kinds[subject] = inferred
                clauses[subject] = []
        clauses[subject].append((_CLAUSES[kw], key, f"{kw}: {value}"))
    lines: list[str] = []
    frames = sorted(kinds.items(), key=lambda frame: name_key(frame[0]))
    for kind in _KIND_ORDER:
        for name in (n for n, k in frames if k is kind):
            lines.append(f"{kind.value}: {nm(name)}")
            for _, _, text in sorted(clauses[name], key=lambda c: (c[0], c[1])):
                lines.append(f"  {text}")
    for _, text in sorted(standalone, key=lambda s: s[0]):
        lines.append(text)
    return "\n".join(lines) + "\n" if lines else ""
