"""Deterministic Manchester output and golden-file comparison."""
from __future__ import annotations

import random

import pytest
from conftest import golden_files

from gdol import (
    ClassAssertion,
    DifferentIndividuals,
    ExpansionEnv,
    Functional,
    Name,
    Named,
    Ontology,
    PropAssertion,
    PropExpr,
    Some,
    SubClassOf,
    SymbolKind,
    UnstratifiedName,
    diff_golden,
    emit_manchester,
    parse_manchester_fragment,
)


def test_frame_layout():
    r = Name("r")
    o = Ontology.of(
        decls=[(SymbolKind.CLASS, Name("B")), (SymbolKind.CLASS, Name("A")),
               (SymbolKind.INDIVIDUAL, Name("i")),
               (SymbolKind.OBJECT_PROPERTY, r),
               (SymbolKind.DATA_PROPERTY, Name("d"))],
        axioms=[
            SubClassOf(Named(Name("A")), Some(PropExpr(r), Named(Name("B")))),
            ClassAssertion(Named(Name("B")), Name("i")),
            PropAssertion(r, Name("i"), Name("i")),
            Functional(r),
            DifferentIndividuals((Name("i"), Name("j"))),
        ],
    )
    assert emit_manchester(o) == (
        "Class: A\n"
        "  SubClassOf: r some B\n"
        "Class: B\n"
        "Individual: i\n"
        "  Types: B\n"
        "  Facts: r i\n"
        "ObjectProperty: r\n"
        "  Characteristics: Functional\n"
        "DataProperty: d\n"
        "DifferentIndividuals: i, j\n"
    )


def test_empty_ontology_emits_nothing():
    assert emit_manchester(Ontology.of()) == ""


def test_emission_is_invariant_under_input_order(expand):
    o = expand("Driver_log")
    text = emit_manchester(o)
    decls, axioms = list(o.decls), list(o.axioms)
    rng = random.Random(7)
    for _ in range(3):
        rng.shuffle(decls)
        rng.shuffle(axioms)
        assert emit_manchester(Ontology.of(decls, axioms)) == text


def test_emission_is_identical_across_environments(corpus_docs):
    texts = []
    for _ in range(2):
        env = ExpansionEnv.from_documents(corpus_docs)
        texts.append(emit_manchester(env.expand_named("Data_Driver_log")))
    assert texts[0] == texts[1]


def test_parameterized_names_cannot_be_emitted():
    o = Ontology.of(decls=[(SymbolKind.CLASS, Name("Mf", (Name("X"),)))])
    with pytest.raises(UnstratifiedName):
        emit_manchester(o)


@pytest.mark.parametrize("path", golden_files(), ids=lambda p: p.stem)
def test_golden_files_reach_a_fixed_point(path):
    first = parse_manchester_fragment(path.read_text())
    text1 = emit_manchester(first)
    second = parse_manchester_fragment(text1)
    assert second == first
    assert emit_manchester(second) == text1


def test_diff_is_empty_on_identical_axiom_sets(expand):
    o = expand("OrdGRADE_MaxSeats")
    assert diff_golden(o, o).empty


def test_diff_reports_both_directions(expand):
    o = expand("OrdGRADE_MaxSeats")
    some_axiom = next(iter(o.axioms))
    extra = ClassAssertion(Named(Name("Ghost")), Name("g0"))
    mutated = Ontology.of(o.decls, (set(o.axioms) - {some_axiom}) | {extra})
    d = diff_golden(mutated, o)
    assert not d.empty
    assert extra in d.only_in_actual
    assert some_axiom in d.only_in_golden
    assert "+" in d.report() and "-" in d.report()
