"""Surface syntax: pattern headers, specs, frames, and error reporting."""
from __future__ import annotations

import pytest
from conftest import GOLDEN, corpus_files

from gdol import (
    And,
    BasicSpec,
    ClassAssertion,
    Domain,
    ExpansionEnv,
    ExtensionSpec,
    InstSpec,
    Name,
    Named,
    ParseError,
    Range,
    Some,
    SymbolKind,
    UnionSpec,
    check_obligations,
    check_refinement,
    emit_manchester,
    parse_document,
    parse_manchester_fragment,
    render_document,
)
from gdol.errors import UnbalancedBracket, UnknownKeyword


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
    assert isinstance(spec, ExtensionSpec)
    assert isinstance(spec.base, UnionSpec)
    assert spec.base.left.pattern == "P"
    assert spec.base.right.pattern == "Q"
    assert spec.ext.pattern == "R"


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
    assert isinstance(spec.left, BasicSpec)
    assert spec.right == InstSpec("Q", (spec.right.args[0],))


def test_bare_name_conjunct_needs_parentheses():
    with_parens = parse_document("ontology O = Class: D SubClassOf: A and (B)\n")
    spec = with_parens.ontology_defs()["O"].spec
    assert isinstance(spec, BasicSpec)
    (ax,) = spec.ontology.axioms
    assert ax.sup == And((Named(Name("A")), Named(Name("B"))))

    without = parse_document("ontology O = Class: D SubClassOf: A and B\n")
    spec = without.ontology_defs()["O"].spec
    assert isinstance(spec, UnionSpec)
    assert spec.right == InstSpec("B", (), bracketed=False)


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


@pytest.mark.filterwarnings("ignore::gdol.ShadowWarning")
@pytest.mark.parametrize("kind", sorted(_AT_LIMIT))
def test_documents_at_the_nesting_limit_pass_every_stage(kind):
    doc = parse_document(_AT_LIMIT[kind])
    assert parse_document(render_document(doc)) == doc
    env = ExpansionEnv.from_documents([doc])
    emit_manchester(env.expand_named("O"))
    check_obligations(env.obligations("O"))
    refinement = parse_document("refinement R = O refined to O\n").refinement_defs()["R"]
    assert check_refinement(refinement, env).ok


def test_errors_carry_positions():
    try:
        parse_document("ontology O =\n  Class: A SubClassOf: {}\n")
    except ParseError as e:
        assert e.line == 2
    else:
        pytest.fail("expected a parse error")


# --- round trip -------------------------------------------------------------

@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.stem)
def test_corpus_documents_round_trip(path):
    doc = parse_document(path.read_text())
    again = parse_document(render_document(doc))
    assert again == doc


def _chain(spec) -> list:
    """The operands of a left-deep union or extension chain, with the
    operator before each, so that comparing chains recurses no deeper than
    comparing one operand."""
    out = []
    while True:
        match spec:
            case UnionSpec(left, right) | ExtensionSpec(left, right):
                out.append((type(spec), right))
                spec = left
            case _:
                return out + [spec]


@pytest.mark.parametrize("op", ["and", "then"])
def test_long_chains_round_trip(op):
    doc = parse_document("ontology O = " + f" {op} ".join(
        f"Class: C{i} SubClassOf: C{i + 1}" for i in range(3000)) + "\n")
    (again,) = parse_document(render_document(doc)).decls
    assert again.name == "O"
    assert _chain(again.spec) == _chain(doc.decls[0].spec)
