"""Axiom canonicalization, ontology union, and substitution."""
from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gdol import (
    And,
    ClassAssertion,
    DifferentIndividuals,
    DisjointClasses,
    Domain,
    EmptyArg,
    EmptySpec,
    EquivalentClasses,
    Functional,
    InstSpec,
    InverseProps,
    KindClash,
    ListArg,
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
    SymbolArg,
    SymbolKind,
    Transitive,
    canon_axiom,
    canon_expr,
    parse_document,
    substitute,
)
from gdol.errors import SubstitutionError
from gdol.model import (
    Max, axiom_names, class_exprs, map_axiom, node_key, stratify, subst_argument, subst_axiom,
    union,
)

A, B, C = Name("A"), Name("B"), Name("C")
p = PropExpr(Name("p"))


# --- canonical forms ----------------------------------------------------------

def test_and_is_flattened_sorted_and_deduplicated():
    e = And((Named(B), And((Named(A), Named(B)))))
    assert canon_expr(e) == And((Named(A), Named(B)))


def test_singleton_and_collapses():
    assert canon_expr(And((Named(A),))) == Named(A)


def test_oneof_preserves_order_but_drops_repeats():
    e = OneOf((B, A, B))
    assert canon_expr(e) == OneOf((B, A))


def test_equivalence_puts_plain_name_first():
    e = EquivalentClasses(Some(p, Named(B)), Named(A))
    assert canon_axiom(e) == EquivalentClasses(Named(A), Some(p, Named(B)))


def test_inverse_pair_order_is_significant():
    a = canon_axiom(SubPropertyOf(PropExpr(A), PropExpr(B)))
    b = canon_axiom(SubPropertyOf(PropExpr(B), PropExpr(A)))
    assert a != b


def test_different_individuals_members_are_sorted():
    d = canon_axiom(DifferentIndividuals((B, A, B)))
    assert d == DifferentIndividuals((A, B))


# --- the walk over node fields ------------------------------------------------

# key order of the shapes, which fixes the order the emitter writes clauses in
_EXPR_ORDER = (Named, Some, Only, Max, And, OneOf)
_AXIOM_ORDER = (
    SubClassOf, EquivalentClasses, DisjointClasses, SubPropertyOf, InverseProps,
    Domain, Range, Functional, Transitive, SubPropertyChain, ClassAssertion,
    PropAssertion, DifferentIndividuals,
)
_SHAPE = re.compile(r"\b(Named|Some|Only|Max|And|OneOf)\(")


def _every_shape():
    """One class expression of each shape and one axiom of each shape, in
    alphabetical order, with a distinct name in every name slot; the axioms'
    class expression slots take the expression shapes in turn."""
    names = (Name(f"n{i}") for i in itertools.count())

    def nm() -> Name:
        return next(names)

    def pe() -> PropExpr:
        return PropExpr(nm(), True)

    makers = [
        lambda: And((Named(nm()), Some(pe(), Named(nm())))),
        lambda: Max(2, pe(), OneOf((nm(), nm()))),
        lambda: Named(nm()),
        lambda: OneOf((nm(), nm(), nm())),
        lambda: Only(pe(), And((Named(nm()), Named(nm())))),
        lambda: Some(pe(), Max(0, pe(), Named(nm()))),
    ]
    exprs = [make() for make in makers]
    turn = itertools.cycle(makers)

    def ce():
        return next(turn)()

    axioms = [
        ClassAssertion(ce(), nm()),
        DifferentIndividuals((nm(), nm(), nm())),
        DisjointClasses(ce(), ce()),
        Domain(nm(), ce()),
        EquivalentClasses(ce(), ce()),
        Functional(nm()),
        InverseProps(nm(), nm()),
        PropAssertion(nm(), nm(), nm()),
        Range(nm(), ce()),
        SubClassOf(ce(), ce()),
        SubPropertyChain(nm(), (pe(), pe(), pe())),
        SubPropertyOf(pe(), pe()),
        Transitive(nm()),
    ]
    return exprs, axioms


def _written_names(x) -> set[Name]:
    return {Name(b) for b in re.findall(r"base='(\w+)'", repr(x))}


@pytest.mark.parametrize("a", _every_shape()[1], ids=lambda a: type(a).__name__)
def test_the_walk_reaches_every_field(a):
    names = _written_names(a)
    assert axiom_names(a) == names
    shapes = sorted(type(e).__name__ for e in class_exprs(a))
    assert shapes == sorted(_SHAPE.findall(repr(a)))

    renamed = subst_axiom(a, {n.base: SymbolArg(Name(n.base + "_r")) for n in names})
    assert _written_names(renamed) == {Name(n.base + "_r") for n in names}
    assert subst_axiom(renamed, {n.base + "_r": SymbolArg(n) for n in names}) == a
    for n in names:
        assert subst_axiom(a, {n.base: EmptyArg()}) is None


def test_class_exprs_of_an_expression_include_itself():
    for e in _every_shape()[0]:
        found = list(class_exprs(e))
        assert found[0] is e
        assert sorted(type(x).__name__ for x in found) == sorted(_SHAPE.findall(repr(e)))


def test_keys_sort_shapes_in_declaration_order():
    exprs, axioms = _every_shape()
    assert tuple(type(e) for e in sorted(exprs, key=node_key)) == _EXPR_ORDER
    assert tuple(type(a) for a in sorted(axioms, key=node_key)) == _AXIOM_ORDER


# --- ontology union -----------------------------------------------------------

def _ont(decls=(), axioms=()):
    return Ontology.of(decls, axioms)


def test_union_merges_and_deduplicates():
    left = _ont([(SymbolKind.CLASS, A)], [SubClassOf(Named(A), Named(B))])
    right = _ont([(SymbolKind.CLASS, A), (SymbolKind.CLASS, B)],
                 [SubClassOf(Named(A), Named(B))])
    u = union(left, right)
    assert u.decls == left.decls | right.decls
    assert u.axioms == {canon_axiom(SubClassOf(Named(A), Named(B)))}


def test_same_name_with_two_kinds_is_rejected():
    with pytest.raises(KindClash):
        _ont([(SymbolKind.CLASS, A), (SymbolKind.INDIVIDUAL, A)])
    with pytest.raises(KindClash):
        union(_ont([(SymbolKind.CLASS, A)]),
              _ont([(SymbolKind.OBJECT_PROPERTY, A)]))


_names = st.sampled_from([Name(s) for s in "ABCXYZ"])
_props = st.builds(PropExpr, _names, st.booleans())


def _exprs(depth: int):
    leaf = st.builds(Named, _names)
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.builds(Some, _props, sub),
        st.builds(Only, _props, sub),
        st.builds(Max, st.integers(0, 3), _props, sub),
        st.lists(sub, min_size=1, max_size=3).map(lambda xs: And(tuple(xs))),
        st.lists(_names, min_size=1, max_size=3).map(lambda xs: OneOf(tuple(xs))),
    )


_axioms = st.one_of(
    st.builds(SubClassOf, _exprs(1), _exprs(1)),
    st.builds(EquivalentClasses, _exprs(1), _exprs(1)),
    st.builds(DisjointClasses, _exprs(1), _exprs(1)),
    st.builds(SubPropertyOf, _props, _props),
    st.builds(InverseProps, _names, _names),
    st.builds(Domain, _names, _exprs(1)),
    st.builds(Range, _names, _exprs(1)),
    st.builds(Functional, _names),
    st.builds(Transitive, _names),
    st.builds(ClassAssertion, _exprs(0), _names),
    st.builds(PropAssertion, _names, _names, _names),
    st.lists(_names, min_size=1, max_size=4).map(
        lambda xs: DifferentIndividuals(tuple(xs))),
    st.builds(SubPropertyChain, _names,
              st.lists(_props, min_size=2, max_size=3).map(tuple)),
)

_DECL_POOL = (
    [(SymbolKind.CLASS, Name(c)) for c in "ABC"]
    + [(SymbolKind.OBJECT_PROPERTY, Name("r")), (SymbolKind.OBJECT_PROPERTY, Name("s"))]
    + [(SymbolKind.INDIVIDUAL, Name("i")), (SymbolKind.INDIVIDUAL, Name("j"))]
)

_onts = st.builds(
    _ont,
    st.lists(st.sampled_from(_DECL_POOL), max_size=4),
    st.lists(_axioms, max_size=4),
)


@given(_axioms)
def test_canonicalization_is_idempotent(a):
    assert canon_axiom(canon_axiom(a)) == canon_axiom(a)


@given(_onts, _onts, _onts)
def test_union_is_commutative_associative_idempotent(a, b, c):
    assert union(a, b) == union(b, a)
    assert union(a, union(b, c)) == union(union(a, b), c)
    assert union(a, a) == a
    assert union(a, _ont()) == a


# --- substitution -------------------------------------------------------------

def test_substitution_renames_and_extends_parameterized_names():
    ax = Domain(Name("p", (Name("X"),)), Named(Name("X")))
    out = subst_axiom(ax, {"p": SymbolArg(Name("q", (Name("z"),))),
                           "X": SymbolArg(A)})
    assert out == Domain(Name("q", (Name("z"), A)), Named(A))


def test_axiom_mentioning_an_empty_name_is_deleted():
    ax = Domain(Name("p"), Named(Name("X")))
    assert subst_axiom(ax, {"X": EmptyArg()}) is None
    nested = PropAssertion(Name("f", (Name("X"),)), A, B)
    assert subst_axiom(nested, {"X": EmptyArg()}) is None


def test_list_argument_splices_into_enumerations():
    ax = EquivalentClasses(Named(Name("Val")), OneOf((Name("v0"), Name("vs"))))
    out = subst_axiom(ax, {"vs": ListArg((SymbolArg(Name("v1")),
                                          SymbolArg(Name("v2"))))})
    assert out == EquivalentClasses(
        Named(Name("Val")), OneOf((Name("v0"), Name("v1"), Name("v2"))))

    d = DifferentIndividuals((Name("v0"), Name("vs")))
    out = subst_axiom(d, {"vs": ListArg(())})
    assert out == DifferentIndividuals((Name("v0"),))


def test_instantiation_with_an_empty_argument_collapses():
    spec = InstSpec("P", (SymbolArg(Name("f", (Name("X"),))),))
    assert substitute(spec, {"X": EmptyArg()}) == EmptySpec()


def test_let_locals_shadow_outer_parameters():
    doc = parse_document(
        "pattern Outer [ Class: X ] =\n"
        "  let pattern L [ Class: X ] = Class: X SubClassOf: X\n"
        "  in L[X]\n")
    body = doc.pattern_defs()["Outer"].body
    out = substitute(body, {"X": SymbolArg(A)})
    # the local's own parameter wins inside its body ...
    assert out.locals[0].body == body.locals[0].body
    # ... while the instantiation argument in the let body is replaced
    assert out.body.args == (SymbolArg(A),)


_rename_keys = st.sampled_from(list("ABCXYZ"))
_renames = st.dictionaries(_rename_keys, _names.map(SymbolArg), max_size=3)


@given(_axioms, _renames, _renames)
def test_rename_substitutions_compose(a, b1, b2):
    composed = {k: subst_argument(v, b2) for k, v in b1.items()}
    for k, v in b2.items():
        composed.setdefault(k, v)
    assert subst_axiom(subst_axiom(a, b1), b2) == subst_axiom(a, composed)


# --- substitution fused with stratification ------------------------------------

_fX = Name("f", (Name("X"),))
_fused_names = st.sampled_from([Name(s) for s in ("A", "B", "X", "Y", "vs", "f_A")] + [_fX])
_fused_props = st.builds(PropExpr, _fused_names, st.booleans())
_symbols = st.sampled_from([Name("A"), Name("B"), Name("f_A"), Name("g", (Name("A"),))]).map(SymbolArg)
_fused_values = st.one_of(
    _symbols,
    st.just(EmptyArg()),
    st.lists(st.one_of(_symbols, st.just(EmptyArg())), max_size=3).map(
        lambda xs: ListArg(tuple(xs))),
)
_fused_bindings = st.dictionaries(st.sampled_from(["X", "Y", "vs"]), _fused_values, max_size=3)


def _fused_exprs(depth: int):
    leaf = st.one_of(st.builds(Named, _fused_names),
                     st.lists(_fused_names, min_size=1, max_size=4).map(lambda xs: OneOf(tuple(xs))))
    if depth == 0:
        return leaf
    sub = _fused_exprs(depth - 1)
    return st.one_of(
        leaf,
        st.builds(Some, _fused_props, sub),
        st.lists(sub, min_size=1, max_size=3).map(lambda xs: And(tuple(xs))),
    )


_fused_axioms = st.one_of(
    st.builds(SubClassOf, _fused_exprs(2), _fused_exprs(2)),
    st.builds(EquivalentClasses, _fused_exprs(1), _fused_exprs(1)),
    st.builds(Domain, _fused_names, _fused_exprs(1)),
    st.builds(ClassAssertion, _fused_exprs(1), _fused_names),
    st.builds(PropAssertion, _fused_names, _fused_names, _fused_names),
    st.builds(SubPropertyChain, _fused_names,
              st.lists(_fused_props, min_size=2, max_size=3).map(tuple)),
    st.lists(_fused_names, min_size=1, max_size=5).map(
        lambda xs: DifferentIndividuals(tuple(xs))),
)


def _strat(n: Name) -> Name:
    return Name(stratify(n))


def _outcome(fn):
    try:
        return fn()
    except SubstitutionError as exc:
        return str(exc)


@given(_fused_axioms, _fused_bindings)
def test_stratifying_while_substituting_matches_stratifying_after(a, binding):
    """One rebuild with a name function gives what substituting, mapping
    and canonicalizing gave as separate passes, including list splicing in
    enumerations and deletion by empty-bound names."""
    def fused():
        b = subst_axiom(a, binding, _strat)
        return None if b is None else canon_axiom(b)

    def separate():
        b = subst_axiom(a, binding)
        return None if b is None else canon_axiom(map_axiom(b, _strat))

    def twice_canonical():  # the old fragment path canonicalized before and after
        b = subst_axiom(a, binding)
        return None if b is None else canon_axiom(map_axiom(canon_axiom(b), _strat))

    assert _outcome(fused) == _outcome(separate) == _outcome(twice_canonical)


def test_fused_substitution_splices_and_deletes():
    members = DifferentIndividuals((Name("vs"), _fX, Name("f_A")))
    assert subst_axiom(members, {"vs": ListArg((SymbolArg(_fX), SymbolArg(A))),
                                 "X": SymbolArg(A)}, _strat) == \
        DifferentIndividuals((Name("f_X"), A, Name("f_A"), Name("f_A")))
    assert subst_axiom(members, {"vs": ListArg((EmptyArg(),))}, _strat) is None
    assert subst_axiom(Domain(_fX, Named(A)), {"X": EmptyArg()}, _strat) is None
    seen: list[Name] = []  # fn sees each name of the result, not the names inside it
    gA = Name("g", (A,))
    subst_axiom(Domain(_fX, Named(Name("X"))), {"X": SymbolArg(gA)}, lambda n: seen.append(n) or n)
    assert seen == [Name("f", (gA,)), gA]
