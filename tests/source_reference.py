"""Pattern-language source for a parsed document: the round-trip oracle of
test_parser.py, which checks that `parse_document(render_document(doc))`
gives back `doc`.

A basic spec's frames are written by `frames_reference.frames_text` with
`loose_name`, so a parameterized name keeps its source form (`f[A, B]`)
and a named class after `and` is parenthesised.  The output parses to the
same document for every tree the parser builds.  A hand-built spec tree the
syntax cannot write, such as a union with an extension operand
(`UnionSpec((ExtensionSpec((A, B)), C))`), is out of scope: it prints as
`A then B and C`, which parses to another tree with the same expansion.
"""
from __future__ import annotations

from frames_reference import frames_text, loose_name, placement

from gdol.model import (
    Argument, BasicSpec, ConsArg, Document, EmptyArg, EmptySpec, ExtensionSpec,
    InstSpec, LetSpec, ListArg, OntologyDef, Parameter, PatternDef, RefinementDef,
    Spec, SymbolArg, UnionSpec,
)


def _argument_text(arg: Argument) -> str:
    match arg:
        case SymbolArg(name, kind):
            prefix = f"{kind.value}: " if kind else ""
            return prefix + str(name)
        case ListArg(items):
            return "[" + ", ".join(_argument_text(i) for i in items) + "]"
        case EmptyArg():
            return "{}"
        case ConsArg(head, tail):
            return f"{_argument_text(head)} :: {_argument_text(tail)}"
    raise TypeError(f"not an argument: {arg!r}")


def _clause_text(a) -> str:
    # a constraint is a clause of its parameter's frame: keyword and value only
    _, _, kw, value = placement(a, loose_name)
    return f"{kw}: {value}"


def _parameter_text(p: Parameter) -> str:
    constraints = "".join(" " + _clause_text(a) for a in p.constraints)
    core = f"{p.kind.value}: {p.name}{constraints}"
    if p.list_tail is None:
        body = core
    elif p.constraints:
        body = "{" + core + "}" + f" :: {p.list_tail}"
    else:
        body = f"{core} :: {p.list_tail}"
    return ("? " if p.optional else "") + body


def _spec_text(s: Spec, indent: str = "  ") -> str:
    match s:
        case UnionSpec(ops) | ExtensionSpec(ops):
            kw = "\nand " if isinstance(s, UnionSpec) else "\nthen "
            texts = [_spec_text(op, indent) for op in ops]
            return kw.join(texts[:1] + [t.lstrip() for t in texts[1:]])
        case BasicSpec(ontology):
            text = frames_text(ontology, loose_name)
            return "\n".join(indent + line for line in text.splitlines())
        case InstSpec(pattern, args, bracketed, _):
            if not bracketed:
                return indent + pattern
            inner = "; ".join(_argument_text(a) for a in args)
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
