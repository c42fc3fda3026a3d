"""Reference frame layout for the emitter differential in test_emitter.py.

This is the layout written the plain way: every axiom is keyed with
`node_key` and placed in key order, so kind inference for undeclared
subjects, the choice of side for a symmetric axiom, the clause order inside
a frame and the first error raised all follow from one sort.  The emitter
must write the same text and raise the same error.
"""
from __future__ import annotations

from operator import itemgetter

from gdol.emitter import _CLAUSES, _KIND_ORDER, _placement, _swapped
from gdol.model import Name, Ontology, name_key, node_key


def frames_text(o: Ontology, nm) -> str:
    kinds = {name: kind for kind, name in o.decls}
    clauses: dict[Name, list[tuple[int, object, str]]] = {n: [] for n in kinds}
    standalone: list[tuple[object, str]] = []
    for key, a in sorted(((node_key(a), a) for a in o.axioms), key=itemgetter(0)):
        subject, inferred, kw, value = _placement(a, nm)
        if subject is None:
            standalone.append((key, f"{kw}: {value}"))
            continue
        if subject not in kinds:
            alt = _swapped(a, nm)
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
            lines.append(f"{kind.keyword}: {nm(name)}")
            for _, _, text in sorted(clauses[name], key=lambda c: (c[0], c[1])):
                lines.append(f"  {text}")
    for _, text in sorted(standalone, key=lambda s: s[0]):
        lines.append(text)
    return "\n".join(lines) + "\n" if lines else ""
