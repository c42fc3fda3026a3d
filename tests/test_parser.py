"""Surface syntax: pattern headers, specs, frames, and error reporting."""
from __future__ import annotations

import random
import sys

import pytest
from conftest import GOLDEN, corpus_files
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdol import (
    And,
    BasicSpec,
    ClassAssertion,
    Domain,
    EmptyArg,
    EmptySpec,
    ExpansionEnv,
    ExtensionSpec,
    GdolError,
    InstSpec,
    Name,
    Named,
    OneOf,
    ParseError,
    Range,
    Some,
    SubClassOf,
    SymbolArg,
    SymbolKind,
    UnionSpec,
    check_obligations,
    check_refinement,
    emit_manchester,
    parse_document,
    parse_manchester_fragment,
    render_document,
    substitute,
)
from gdol.errors import UnbalancedBracket, UnknownKeyword
from gdol.parser import tokenize


@pytest.fixture(scope="module")
def corpus_patterns():
    docs = [parse_document(p.read_text()) for p in corpus_files()]
    defs = {}
    for d in docs:
        defs.update(d.pattern_defs())
    return defs


# --- pattern headers ----------------------------------------------------------

def test_optional_parameters(corpus_patterns):
    params = corpus_patterns["ROLE_Explicit"].params
    assert [q.name for q in params] == [
        "Rle", "Performer", "performedBy", "performs",
        "Provider", "providedBy", "provides"]
    assert [q.optional for q in params] == [False] * 4 + [True] * 3


def test_list_parameter_with_tail(corpus_patterns):
    params = corpus_patterns["VAL_Set"].params
    val, greater, v0 = params
    assert not val.is_list and not val.optional
    assert greater.optional and greater.kind is SymbolKind.OBJECT_PROPERTY
    assert v0.is_list and v0.list_tail == "vs"


def test_constrained_parameter_carries_its_axioms(corpus_patterns):
    params = {q.name: q for q in corpus_patterns["DATA_Role"].params}
    performs = params["performs"]
    assert performs.constraints == (
        Domain(Name("performs"), Named(Name("Performer"))),
        Range(Name("performs"), Named(Name("R"))),
    )


def test_braced_list_parameter(corpus_patterns):
    params = {q.name: q for q in corpus_patterns["Tabular_AND_3"].params}
    assert len(corpus_patterns["Tabular_AND_3"].params) == 15
    x = params["x"]
    assert x.is_list and x.list_tail == "xChain"
    assert x.constraints == (ClassAssertion(Named(Name("Gradex")), Name("x")),)


def test_given_imports(corpus_patterns):
    assert corpus_patterns["CHANGE_PD"].imports == ("Foundation",)


# --- specification operators --------------------------------------------------

def test_union_binds_tighter_than_extension():
    doc = parse_document("ontology O = P[x] and Q[y] then R[z]\n")
    spec = doc.ontology_defs()["O"].spec
    assert isinstance(spec, ExtensionSpec) and len(spec.operands) == 2
    union, r = spec.operands
    assert isinstance(union, UnionSpec)
    assert [op.pattern for op in union.operands] == ["P", "Q"]
    assert r.pattern == "R"


def test_and_before_restriction_stays_inside_the_axiom():
    doc = parse_document("ontology O = Class: D SubClassOf: p some R and p only R\n")
    spec = doc.ontology_defs()["O"].spec
    assert isinstance(spec, BasicSpec)
    (ax,) = spec.ontology.axioms
    assert isinstance(ax.sup, And) and len(ax.sup.operands) == 2


def test_and_before_instantiation_starts_a_union():
    doc = parse_document("ontology O = Class: D SubClassOf: p some R and Q[y]\n")
    spec = doc.ontology_defs()["O"].spec
    assert isinstance(spec, UnionSpec)
    basic, inst = spec.operands
    assert isinstance(basic, BasicSpec)
    assert inst == InstSpec("Q", (inst.args[0],))


def test_bare_name_conjunct_needs_parentheses():
    with_parens = parse_document("ontology O = Class: D SubClassOf: A and (B)\n")
    spec = with_parens.ontology_defs()["O"].spec
    assert isinstance(spec, BasicSpec)
    (ax,) = spec.ontology.axioms
    assert ax.sup == And((Named(Name("A")), Named(Name("B"))))

    without = parse_document("ontology O = Class: D SubClassOf: A and B\n")
    spec = without.ontology_defs()["O"].spec
    assert isinstance(spec, UnionSpec)
    assert spec.operands[1:] == (InstSpec("B", (), bracketed=False),)


def test_empty_braces_are_an_argument_a_spec_or_end_an_expression():
    doc = parse_document("ontology O = P[{}; x] and {} and Class: D SubClassOf: A and {a, b}\n")
    spec = doc.ontology_defs()["O"].spec
    inst, empty, basic = spec.operands
    assert inst == InstSpec("P", (EmptyArg(), SymbolArg(Name("x"))))
    assert empty == EmptySpec()
    (ax,) = basic.ontology.axioms
    assert ax.sup == And((Named(Name("A")), OneOf((Name("a"), Name("b")))))


def test_inverse_starts_a_conjunct():
    doc = parse_document(
        "ontology O = Class: D SubClassOf: p some R and inverse q some R\n")
    spec = doc.ontology_defs()["O"].spec
    assert isinstance(spec, BasicSpec)
    (ax,) = spec.ontology.axioms
    ops = ax.sup.operands
    assert isinstance(ops[1], Some) and ops[1].prop.inverse


# --- frames ---------------------------------------------------------------

def test_golden_fragment_shape():
    o = parse_manchester_fragment(
        (GOLDEN / "temporal_extent_vehicle_log.omn").read_text())
    assert len(o.axioms) == 2
    assert len(o.decls) == 3


def test_data_property_frames():
    o = parse_manchester_fragment("DataProperty: hasAge Domain: Person\nClass: Person\n")
    assert (SymbolKind.DATA_PROPERTY, Name("hasAge")) in o.decls
    assert Domain(Name("hasAge"), Named(Name("Person"))) in o.axioms


def test_standalone_frames():
    o = parse_manchester_fragment(
        "DifferentIndividuals: a, b\n"
        "EquivalentClasses: p some A, q only B\n"
        "DisjointClasses: p some A, B\n")
    assert len(o.axioms) == 3


def test_empty_fragment_is_the_empty_ontology():
    assert parse_manchester_fragment("").is_empty


# --- errors ---------------------------------------------------------------

def test_unbalanced_bracket():
    with pytest.raises(UnbalancedBracket):
        parse_document("pattern P [ Class: X = Class: X SubClassOf: X\n")


def test_unknown_characteristic():
    with pytest.raises(UnknownKeyword):
        parse_document("ontology O = ObjectProperty: r Characteristics: Reflexive\n")


def test_empty_enumeration_is_rejected():
    with pytest.raises(ParseError):
        parse_document("ontology O = Class: A SubClassOf: {}\n")


def test_duplicate_parameter_names():
    with pytest.raises(ParseError):
        parse_document("pattern P [ Class: X; Class: X ] = Class: X\n")


def test_duplicate_top_level_names():
    with pytest.raises(ParseError):
        parse_document("ontology O = Class: A\nontology O = Class: B\n")


def test_fragment_rejects_trailing_content():
    with pytest.raises(ParseError):
        parse_manchester_fragment("Class: A\npattern")


def _cons(n: int) -> str:
    return " :: ".join(f"a{i}" for i in range(n))


# each document, with the line of the error and that line up to the token
# that opens the 101st level: 100 levels are the most any document may nest
_TOO_DEEP = {
    "let": ("ontology O = " + "let pattern L [Class: X] = Class: X in " * 400 + "L[A]\n",
            1, "ontology O = " + "let pattern L [Class: X] = Class: X in " * 100),
    # a parenthesised restriction is two levels
    "restriction": ("ontology O = Class: A SubClassOf: " + "p some (" * 400 + "B" + ")" * 400 + "\n",
                    1, "ontology O = Class: A SubClassOf: " + "p some (" * 50 + "p some "),
    "name": ("ontology O = Class: " + "w[" * 5000 + "A" + "]" * 5000 + "\n",
             1, "ontology O = Class: " + "w[" * 101),
    "cons": ("pattern P [Class: x :: xs] = Class: x\nontology O = P[" + _cons(1000) + " :: []]\n",
             2, "ontology O = P[" + _cons(101) + " :: "),
}


@pytest.mark.parametrize("kind", sorted(_TOO_DEEP))
def test_nesting_too_deep_is_a_located_parse_error(kind):
    text, line, before = _TOO_DEEP[kind]
    with pytest.raises(ParseError, match="nesting too deep") as info:
        parse_document(text)
    assert (info.value.line, info.value.column) == (line, len(before) + 1)


# one document per kind that nests exactly 100 levels, inside a pattern so
# that substituting and stratifying walk it as well
_AT_LIMIT = {
    "let": "pattern P [Class: X] = " + "let pattern L [Class: X] = " * 100 + "Class: X"
           + " in L[X]" * 100 + "\nontology O = P[A]\n",
    "restriction": "pattern P [Class: X] = Class: X SubClassOf: " + "p some " * 100 + "X\n"
                   "  ObjectProperty: p\nontology O = P[A]\n",
    "parenthesised": "pattern P [Class: X] = Class: X SubClassOf: " + "(X and p some " * 50 + "X"
                     + ")" * 50 + "\n  ObjectProperty: p\nontology O = P[A]\n",
    "name": "pattern P [Class: X] = Class: " + "w[" * 100 + "X" + "]" * 100 + " SubClassOf: X\n"
            "ontology O = P[A]\n",
    "cons": "pattern P [Class: x :: xs] = Class: x\nontology O = P[" + _cons(100) + " :: []]\n",
}


@pytest.mark.parametrize("kind", sorted(_AT_LIMIT))
def test_documents_at_the_nesting_limit_pass_every_stage(kind):
    doc = parse_document(_AT_LIMIT[kind])
    assert parse_document(render_document(doc)) == doc
    env = ExpansionEnv.from_documents([doc])
    emit_manchester(env.expand_named("O"))
    check_obligations(env.obligations("O"))
    refinement = parse_document("refinement R = O refined to O\n").refinement_defs()["R"]
    assert check_refinement(refinement, env).ok


# one malformed input per distinct error the parser raises: the exception
# class and the exact `line:col: message`
_ERRORS = [
    (parse_document, "ontology O = Class: A SubClassOf: B $\n",
     ParseError, "1:37: unexpected character '$'"),
    (parse_document, "ontology O =",
     ParseError, "1:13: expected a spec, found 'end of input'"),
    (parse_document, "pattern",
     ParseError, "1:8: expected 'a name', found 'end of input'"),
    (parse_document, "ontology 3 = P\n",
     ParseError, "1:10: expected 'a name', found '3'"),
    (parse_document, "pattern P [ Class: x ] Class: x\n",
     ParseError, "1:24: expected '=', found 'Class'"),
    (parse_document, "ontology O = let pattern L [ Class: x ] = Class: x L[A]\n",
     ParseError, "1:52: expected 'in', found 'L'"),
    (parse_document, "refinement R = A refined B\n",
     ParseError, "1:26: expected 'to', found 'B'"),
    (parse_document, "refinement R = A refined to B with a b\n",
     ParseError, "1:38: expected '|->', found 'b'"),
    (parse_document, "ontology O = Class: A\n  SubClassOf: (B\n",
     UnbalancedBracket, "3:1: expected ')', found 'end of input'"),
    (parse_document, "ontology O = Class: A SubClassOf: {a, b\n",
     UnbalancedBracket, "2:1: expected '}', found 'end of input'"),
    (parse_document, "ontology O = P[x\n",
     UnbalancedBracket, "2:1: expected ']', found 'end of input'"),
    (parse_document, "ontology O = ObjectProperty: r Characteristics: Functional, Reflexive\n",
     UnknownKeyword, "1:61: unsupported characteristic 'Reflexive'"),
    (parse_document, "ontology O = Class: A SubClassOf: p max B\n",
     ParseError, "1:41: max needs a cardinality"),
    (parse_document, "ontology O = Class: A SubClassOf: inverse p\n",
     ParseError, "2:1: inverse must be followed by a restriction"),
    (parse_document, "ontology O = ObjectProperty: r SubPropertyChain: p\n",
     ParseError, "2:1: a property chain needs at least two links"),
    (parse_document, "ontology O = Class: A SubClassOf: {}\n",
     ParseError, "1:36: empty enumeration is not a class expression"),
    (parse_document, "ontology O = let in P[x]\n",
     ParseError, "1:18: let needs at least one local pattern"),
    (parse_document, "pattern P [ Foo: x ] = Class: x\n",
     ParseError, "1:13: expected a parameter kind, found 'Foo'"),
    (parse_document, "pattern P [ { Foo: x } ] = Class: x\n",
     ParseError, "1:15: expected a symbol kind, found 'Foo'"),
    (parse_document, "pattern P [ Class: X; ObjectProperty: X ] = Class: X\n",
     ParseError, "1:43: duplicate parameter name 'X' in pattern 'P'"),
    (parse_document, "ontology O = Class: A\nontology O = Class: B\n",
     ParseError, "3:1: duplicate declaration 'O'"),
    (parse_document, "ontology O = ]\n",
     ParseError, "1:14: expected a spec, found ']'"),
    (parse_document, "Class: A\n",
     ParseError, "1:1: expected pattern, ontology, or refinement, found 'Class'"),
    (parse_manchester_fragment, "pattern",
     ParseError, "1:1: expected a declaration frame"),
    (parse_manchester_fragment, "Class: A\npattern",
     ParseError, "2:1: unexpected 'pattern' after frames"),
]


@pytest.mark.parametrize("parse, text, cls, message", _ERRORS,
                         ids=[e[3].split(": ", 1)[1] for e in _ERRORS])
def test_each_parse_error_is_located(parse, text, cls, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert type(info.value) is cls
    assert str(info.value) == message


def test_errors_carry_positions():
    try:
        parse_document("ontology O =\n  Class: A SubClassOf: {}\n")
    except ParseError as e:
        assert e.line == 2
    else:
        pytest.fail("expected a parse error")


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.stem)
def test_a_rejected_character_is_located_at_its_offset(path):
    text = path.read_text()
    rng = random.Random(path.name)
    checked = 0
    for i in sorted(rng.sample(range(len(text) + 1), 25)):
        line_start = text.rfind("\n", 0, i) + 1
        if "%%" in text[line_start:i] or text[max(i - 1, 0):i + 1] in ("%%", "|-", "->"):
            continue  # inside a comment, or splitting `%%` or `|->`
        with pytest.raises(ParseError, match="unexpected character '!'") as info:
            parse_document(text[:i] + "!" + text[i:])
        assert (info.value.line, info.value.column) == (text[:i].count("\n") + 1, i - line_start + 1)
        checked += 1
    assert checked >= 10


def test_a_name_that_starts_with_a_non_decimal_digit_is_located():
    with pytest.raises(ParseError) as info:
        parse_document("ontology O = Class: A\n  SubClassOf: é3 and p some ²B\n")
    assert str(info.value) == "2:29: unexpected character '²'"


def test_a_non_decimal_digit_may_continue_a_name():
    o = parse_manchester_fragment("Class: a² SubClassOf: b①\nClass: b①\n")
    assert o.decls == {(SymbolKind.CLASS, Name("a²")), (SymbolKind.CLASS, Name("b①"))}
    assert o.axioms == {SubClassOf(Named(Name("a²")), Named(Name("b①")))}


def test_instantiations_carry_their_line_and_column():
    text = ("%% P and Q\n"
            "pattern P [ Class: x ] = Class: x\n"
            "\n"
            "ontology O =\n"
            "  Class: A\n"
            "  and\n"
            "\tP[B] then Q\n")
    spec = parse_document(text).ontology_defs()["O"].spec
    union, q = spec.operands
    assert (union.operands[1].loc, q.loc) == ((7, 2), (7, 12))


def test_token_list_ends_with_one_end_of_input():
    text = "ontology O = P[a; b]  %% x\n"
    toks = tokenize(text)
    assert toks == ["ontology", "O", "=", "P", "[", "a", ";", "b", "]", ""]
    assert toks.offsets == [0, 9, 11, 13, 14, 15, 16, 18, 19, len(text)]


# --- round trip -------------------------------------------------------------

@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.stem)
def test_corpus_documents_round_trip(path):
    doc = parse_document(path.read_text())
    again = parse_document(render_document(doc))
    assert again == doc


@pytest.mark.parametrize("text", [
    "ontology O = EquivalentClasses: A and (B), r some C\n",
    "pattern P [ {Individual: v Types: A and (B)} ] = Individual: v\n",
    "ontology O = Class: A SubClassOf: r some (B and C) and (D) and (f[E])\n",
])
def test_intersections_of_named_classes_round_trip(text):
    # canonical order puts a bare name right after `and`, where a document
    # body would read it as a spec
    doc = parse_document(text)
    assert parse_document(render_document(doc)) == doc


@pytest.mark.parametrize("text", [
    "ontology O = {}\n",
    "ontology O = P[A] and {}\n",
    "refinement R = P[A] refined to Q[B] with A |-> B, p |-> q\n",
])
def test_empty_specs_and_symbol_maps_round_trip(text):
    doc = parse_document(text)
    assert parse_document(render_document(doc)) == doc


@pytest.mark.parametrize("op", ["and", "then"])
def test_long_chains_round_trip(op):
    text = "ontology O = " + f" {op} ".join(
        f"Class: C{i} SubClassOf: C{i + 1}" for i in range(3000)) + "\n"
    assert sys.getrecursionlimit() == 1000
    doc = parse_document(text)
    spec = doc.decls[0].spec
    assert len(spec.operands) == 3000
    again = parse_document(render_document(doc))
    assert again == doc and hash(again) == hash(doc)
    assert repr(again) == repr(doc)
    # a chain that differs only in its first operand
    assert parse_document(text.replace("C1 ", "D1 ", 1)) != doc
    assert hash(spec) == hash((spec.operands,))
    renamed = parse_document(text.replace("C0 ", "D0 ", 1)).decls[0].spec
    assert substitute(spec, {"C0": SymbolArg(Name("D0"))}) == renamed


# --- mutation fuzz ----------------------------------------------------------

_CORPUS_TEXTS = [p.read_text() for p in corpus_files()]
# tokens of the language and characters the lexer must reject or accept:
# `²` and `①` are digits but not decimal digits, `٣` is one, `é` is a letter
_INSERTIONS = ["²", "①", "٣", "é", "%%", "::", "|->", "max", "some", "inverse", "and",
               "then", "let", "in", "o", "[", "]", "{", "}", "(", ")", ";", ",", ":",
               "?", "=", "\n", "x", "Class:", "1"]


@st.composite
def _mutants(draw) -> str:
    """A corpus file after one to four token insertions, deletions or
    duplications of a slice."""
    text = draw(st.sampled_from(_CORPUS_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "duplicate"]))
        if edit == "insert":
            pad = draw(st.sampled_from(["", " "]))
            text = text[:i] + pad + draw(st.sampled_from(_INSERTIONS)) + pad + text[i:]
        else:
            j = draw(st.integers(i, min(len(text), i + 40)))
            text = text[:i] + text[i:j] * (2 if edit == "duplicate" else 0) + text[j:]
    return text


# random edits seldom land next to the corpus's one `max`, so a cardinality
# that is a digit but not a decimal digit is given as an explicit example
@example(next(t for t in _CORPUS_TEXTS if " max 1 " in t).replace(" max 1 ", " max ² "))
@settings(max_examples=500, deadline=None)
@given(_mutants())
def test_mutated_corpus_files_fail_cleanly_or_round_trip(text):
    try:
        doc = parse_document(text)
    except GdolError:
        return
    assert parse_document(render_document(doc)) == doc
