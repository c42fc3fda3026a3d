"""Deterministic Manchester output and golden-file comparison."""
from __future__ import annotations

import os
import random
import subprocess
import sys

import frames_reference
import pytest
from conftest import CORPUS, ROOT, golden_files
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdol import (
    And,
    ClassAssertion,
    DifferentIndividuals,
    DisjointClasses,
    Domain,
    EquivalentClasses,
    ExpansionEnv,
    Functional,
    GdolError,
    InverseProps,
    Max,
    Name,
    Named,
    OneOf,
    Only,
    Ontology,
    PropAssertion,
    PropExpr,
    Range,
    Some,
    SubClassOf,
    SubPropertyChain,
    SubPropertyOf,
    SymbolKind,
    Transitive,
    UnstratifiedName,
    diff_golden,
    emit_manchester,
    parse_manchester_fragment,
)
from gdol.cli import main
from gdol.emitter import _strict_name


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


# --- clause order against the plain layout ------------------------------------

_PLAIN = [Name(s) for s in "ABCDE"]
_UNSTRATIFIED = [Name("f", (Name("A"),)), Name("g", (Name("B"), Name("C")))]


def _layout_cases(faulty: bool):
    """Declarations and axioms over few names, so that subjects are often
    undeclared, symmetric axioms have a Named on one side, the other or
    both, one subject gets several clauses of one rank, and standalone
    axioms occur.  Faulty cases also use unstratified names, complex
    subclass subjects and inverse subproperties."""
    names = st.sampled_from(_PLAIN + _UNSTRATIFIED if faulty else _PLAIN)
    props = st.builds(PropExpr, names, st.booleans())
    named = st.builds(Named, names)
    leaf = st.one_of(named, named, st.lists(names, min_size=1, max_size=3).map(
        lambda xs: OneOf(tuple(xs))))
    expr = st.one_of(
        leaf, leaf,
        st.builds(Some, props, leaf),
        st.builds(Only, props, leaf),
        st.builds(Max, st.integers(0, 2), props, leaf),
        st.lists(leaf, min_size=2, max_size=3).map(lambda xs: And(tuple(xs))),
    )
    sub = expr if faulty else named
    sub_prop = props if faulty else st.builds(PropExpr, names)
    axiom = st.one_of(
        st.builds(SubClassOf, sub, expr),
        st.builds(EquivalentClasses, expr, expr),
        st.builds(EquivalentClasses, named, named),
        st.builds(DisjointClasses, expr, expr),
        st.builds(DisjointClasses, named, named),
        st.builds(SubPropertyOf, sub_prop, props),
        st.builds(InverseProps, names, names),
        st.builds(Domain, names, expr),
        st.builds(Range, names, expr),
        st.builds(Functional, names),
        st.builds(Transitive, names),
        st.builds(SubPropertyChain, names, st.lists(props, min_size=2, max_size=3).map(tuple)),
        st.builds(ClassAssertion, expr, names),
        st.builds(PropAssertion, names, names, names),
        st.lists(names, min_size=1, max_size=3).map(lambda xs: DifferentIndividuals(tuple(xs))),
    )
    decls = st.dictionaries(names, st.sampled_from(list(SymbolKind)), max_size=4).map(
        lambda kinds: [(k, n) for n, k in kinds.items()])
    return st.tuples(decls, st.lists(axiom, min_size=1, max_size=10))


def _reference(o: Ontology) -> str:
    return frames_reference.frames_text(o, _strict_name)


def _layout(o: Ontology, frames):
    try:
        return frames(o)
    except GdolError as exc:
        return type(exc).__name__, str(exc)


# the two axioms the emitter cannot place, each beside one it can
_COMPLEX_SUBJECT = ([], [SubClassOf(Some(PropExpr(Name("A")), Named(Name("B"))), Named(Name("C"))),
                         SubClassOf(Named(Name("A")), Named(Name("B")))])
_INVERSE_SUBPROPERTY = ([], [SubPropertyOf(PropExpr(Name("A"), True), PropExpr(Name("B"))),
                             Functional(Name("A"))])
# a complex subject is written as the emitter writes any class expression:
# an intersection without parentheses, and an unstratified name an error
_AND_SUBJECT = ([], [SubClassOf(And((Named(Name("A")), Named(Name("B")))), Named(Name("C"))),
                     SubClassOf(Named(Name("A")), Named(Name("B")))])
_UNSTRATIFIED_SUBJECT = ([], [SubClassOf(Some(PropExpr(Name("A")), Named(_UNSTRATIFIED[0])),
                                         Named(Name("C"))),
                              SubClassOf(Named(Name("A")), Named(Name("B")))])


@pytest.mark.parametrize("case, error", [
    (_COMPLEX_SUBJECT, ("GdolError", "cannot emit a subclass axiom with complex subject 'A some B'")),
    (_INVERSE_SUBPROPERTY, ("GdolError", "cannot emit a subproperty axiom for an inverse")),
    (_AND_SUBJECT, ("GdolError", "cannot emit a subclass axiom with complex subject 'A and B'")),
    (_UNSTRATIFIED_SUBJECT, ("UnstratifiedName", "cannot emit parameterized name 'f[A]'; "
                                                 "expansion did not stratify it")),
], ids=["complex-subject", "inverse-subproperty", "and-subject", "unstratified-subject"])
def test_the_emitter_and_the_reference_raise_the_same_first_error(case, error):
    decls, axioms = case
    for frames in (_reference, emit_manchester):
        assert _layout(Ontology.of(decls, axioms), frames) == error


@settings(max_examples=400, deadline=None)
@given(st.one_of(_layout_cases(False), _layout_cases(True)), st.randoms(use_true_random=False))
@example(_COMPLEX_SUBJECT, random.Random(0))
@example(_INVERSE_SUBPROPERTY, random.Random(0))
def test_frames_match_the_layout_that_sorts_every_axiom(case, rng):
    """Same text, or the same first error, as placing every axiom in
    `node_key` order, whatever order the ontology's sets iterate in."""
    decls, axioms = case
    shuffled = axioms[:]
    rng.shuffle(shuffled)
    want = _layout(Ontology.of(decls, axioms), _reference)
    for order in (axioms, shuffled, shuffled[::-1]):
        assert _layout(Ontology.of(decls, order), emit_manchester) == want


_SEED_PROBE = """
from gdol import *
A, B, C, r = Name("A"), Name("B"), Name("C"), Name("r")
fA = Name("f", (A,))
decls = [(SymbolKind.CLASS, A), (SymbolKind.OBJECT_PROPERTY, r)]
cases = [
    [SubClassOf(Named(A), Named(B)), SubClassOf(Named(A), Named(C)),
     SubClassOf(Named(A), Some(PropExpr(r), Named(B))), Functional(r), Transitive(r),
     EquivalentClasses(Named(C), Named(A)), DisjointClasses(Named(B), Named(C)),
     DisjointClasses(Named(C), Some(PropExpr(r), Named(A))), ClassAssertion(Named(A), B),
     EquivalentClasses(Some(PropExpr(r), Named(A)), Only(PropExpr(r), Named(B))),
     DifferentIndividuals((B, C))],
    [SubClassOf(Named(A), Named(fA)), SubClassOf(Some(PropExpr(r), Named(A)), Named(B)),
     SubPropertyOf(PropExpr(r, True), PropExpr(r)), ClassAssertion(Named(fA), B)],
]
for axioms in cases:
    try:
        print(emit_manchester(Ontology.of(decls, axioms)), end="")
    except GdolError as exc:
        print(type(exc).__name__, exc)
"""


def test_frames_are_the_same_under_any_hash_seed():
    outs = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        r = subprocess.run([sys.executable, "-c", _SEED_PROBE],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        outs.add(r.stdout)
    assert len(outs) == 1
    (out,) = outs
    assert "  SubClassOf: B\n  SubClassOf: C\n  SubClassOf: r some B\n" in out
    assert out.count("UnstratifiedName") + out.count("GdolError") == 1


# --- byte snapshots of the corpus logs' expansion -------------------------------

SNAPSHOTS = ROOT / "tests" / "snapshots" / "expand"
_LIBS = ["--lib", str(CORPUS / "patterns"), "--lib", str(CORPUS / "logs"),
         "--lib", str(CORPUS / "aux")]


@pytest.mark.parametrize("log", sorted(p.stem for p in (CORPUS / "logs").glob("*.gdol")))
def test_expanding_a_corpus_log_writes_its_snapshot_bytes(tmp_path, capsys, log):
    """`gdol expand corpus/logs/LOG.gdol --lib corpus/patterns --lib
    corpus/logs --lib corpus/aux` writes the .omn files kept under
    tests/snapshots/expand/LOG, byte for byte, and the warnings kept in its
    stderr.txt."""
    want = SNAPSHOTS / log
    assert main(["expand", str(CORPUS / "logs" / f"{log}.gdol"), *_LIBS,
                 "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == (want / "stderr.txt").read_text(encoding="utf-8")
    written = {p.name: p.read_bytes() for p in tmp_path.glob("*.omn")}
    assert written == {p.name: p.read_bytes() for p in want.glob("*.omn")}


# --- emitted Manchester parses back ---------------------------------------------

@settings(max_examples=400, deadline=None)
@given(_layout_cases(False))
def test_emitted_frames_parse_back_to_the_same_axioms(case):
    """Every intersection the emitter writes, `B and C` at the top of a
    clause and `r some (B and C)` in a filler, reads back as one."""
    decls, axioms = case
    o = Ontology.of(decls, axioms)
    again = parse_manchester_fragment(emit_manchester(o))
    assert again.axioms == o.axioms
    assert again.decls >= o.decls  # the emitter declares undeclared subjects


@pytest.mark.parametrize("log", ["driver", "change_pd"])
def test_exported_obligations_parse_back_to_their_context(tmp_path, capsys, corpus_docs, log):
    main(["check", str(CORPUS / "logs" / f"{log}.gdol"), *_LIBS,
          "--emit-obligations", str(tmp_path)])
    files = sorted(tmp_path.glob("*.omn"))
    assert len(files) == {"driver": 12, "change_pd": 4}[log]
    env = ExpansionEnv.from_documents(corpus_docs)
    for path in files:
        text = path.read_text(encoding="utf-8")
        context = env.expand_named(text.split("%% from: ", 1)[1].split(" ::", 1)[0])
        again = parse_manchester_fragment(text)
        assert again.axioms == context.axioms, path.name
        assert again.decls >= context.decls, path.name
