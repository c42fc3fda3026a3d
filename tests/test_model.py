"""Axiom canonicalization, ontology union, substitution, and the node contract."""
from __future__ import annotations

import copy
import itertools
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gdol
from gdol import (
    And,
    ClassAssertion,
    ConsArg,
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
    RuleEngineConfig,
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
    ExtensionSpec, Max, OntologyDef, PatternDef, UnionSpec, axiom_names, class_exprs,
    node_key, stratify, subst_argument, subst_axiom,
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
    assert subst_axiom(renamed, {n.base + "_r": SymbolArg(n) for n in names}) == canon_axiom(a)
    for n in names:
        assert subst_axiom(a, {n.base: EmptyArg()}) is None


@pytest.mark.parametrize("a", _every_shape()[1], ids=lambda a: type(a).__name__)
def test_substitution_returns_canonical_axioms(a):
    """Seeded random bindings that merge names, reorder them, splice lists
    into enumerations and delete by empty arguments: whatever survives the
    rebuild is canonical already."""
    rng = random.Random(type(a).__name__)
    names = sorted(b.base for b in _written_names(a))
    pool = [Name(s) for s in ("A", "B", "n0")] + [Name("f", (A,)), Name("f", (B,))]

    def argument():
        r = rng.random()
        if r < 0.75:
            return SymbolArg(rng.choice(pool))
        if r < 0.95:
            return ListArg(tuple(SymbolArg(rng.choice(pool)) for _ in range(rng.randrange(3))))
        return EmptyArg()

    kept = 0
    for _ in range(200):
        binding = {n: argument() for n in names if rng.random() < 0.6}
        try:
            b = subst_axiom(a, binding)
        except SubstitutionError:  # a list where a single name is expected
            continue
        if b is not None:
            kept += 1
            assert b == canon_axiom(b)
    assert kept >= 10


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
    u = left.union(right)
    assert u.decls == left.decls | right.decls
    assert u.axioms == {canon_axiom(SubClassOf(Named(A), Named(B)))}


def test_same_name_with_two_kinds_is_rejected():
    with pytest.raises(KindClash):
        _ont([(SymbolKind.CLASS, A), (SymbolKind.INDIVIDUAL, A)])
    with pytest.raises(KindClash):
        _ont([(SymbolKind.CLASS, A)]).union(_ont([(SymbolKind.OBJECT_PROPERTY, A)]))


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
    assert a.union(b) == b.union(a)
    assert a.union(b.union(c)) == a.union(b).union(c)
    assert a.union(a) == a
    assert a.union(_ont()) == a


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


def test_a_substituted_cons_stays_a_cons():
    a, b, c = (SymbolArg(n) for n in (A, B, C))
    spec = InstSpec("L", (ConsArg(a, SymbolArg(Name("xs"))), ConsArg(a, EmptyArg())))
    out = substitute(spec, {"xs": ListArg((b,)), "A": c})
    assert out.args == (ConsArg(c, ListArg((b,))), ConsArg(c, EmptyArg()))


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


def test_a_local_parameter_does_not_capture_a_bound_argument():
    from gdol import ExpansionEnv, expand_spec_standalone
    from gdol.emitter import emit_manchester

    doc = parse_document(
        "pattern Outer [ Class: X ] =\n"
        "  let pattern L [ Class: Y ] = Class: Y SubClassOf: X\n"
        "  in L[Foo]\n")
    env = ExpansionEnv.from_documents([doc])
    out = substitute(doc.pattern_defs()["Outer"].body, {"X": SymbolArg(Name("Y"))})
    substituted, _ = expand_spec_standalone(env, out)
    expanded, _ = expand_spec_standalone(env, InstSpec("Outer", (SymbolArg(Name("Y")),)))
    # Outer[Y] also declares its argument; the axioms are the same
    assert substituted.axioms == expanded.axioms
    assert emit_manchester(substituted) == "Class: Foo\n  SubClassOf: Y\n"


def test_a_renamed_list_tail_keeps_its_role():
    doc = parse_document(
        "pattern Outer [ Class: X ] =\n"
        "  let pattern L [ Class: y :: ys ] = Class: y SubClassOf: X then L[ys]\n"
        "  in L[[a, b]]\n")
    body = doc.pattern_defs()["Outer"].body
    local = substitute(body, {"X": SymbolArg(Name("ys"))}).locals[0]
    (param,) = local.params
    assert (param.name, param.list_tail) == ("y", "ys_1")
    # the recursive call passes the renamed tail; the bound argument keeps its name
    assert local.body == substitute(body.locals[0].body, {"X": SymbolArg(Name("ys")),
                                                          "ys": SymbolArg(Name("ys_1"))})


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
    enumerations and deletion by empty-bound names.  The rebuild's result
    is canonical as it is, so canon_axiom(b) == b, which map_ontology
    relies on."""
    def fused():
        b = subst_axiom(a, binding, _strat)
        assert b is None or canon_axiom(b) == b
        return b

    def separate():
        b = subst_axiom(a, binding)
        return None if b is None else canon_axiom(subst_axiom(b, {}, _strat))

    def twice_canonical():  # the old fragment path canonicalized before and after
        b = subst_axiom(a, binding)
        return None if b is None else canon_axiom(subst_axiom(canon_axiom(b), {}, _strat))

    assert _outcome(fused) == _outcome(separate) == _outcome(twice_canonical)


def test_fused_substitution_splices_and_deletes():
    members = DifferentIndividuals((Name("vs"), _fX, Name("f_A")))
    spliced: list[Name] = []  # dedupe hides one f_A, so check what fn saw
    assert subst_axiom(members, {"vs": ListArg((SymbolArg(_fX), SymbolArg(A))),
                                 "X": SymbolArg(A)}, lambda n: spliced.append(n) or _strat(n)) == \
        DifferentIndividuals((A, Name("f_A"), Name("f_X")))
    assert spliced == [_fX, A, Name("f", (A,)), Name("f_A")]
    assert subst_axiom(members, {"vs": ListArg((EmptyArg(),))}, _strat) is None
    assert subst_axiom(Domain(_fX, Named(A)), {"X": EmptyArg()}, _strat) is None
    seen: list[Name] = []  # fn sees each name of the result, not the names inside it
    gA = Name("g", (A,))
    subst_axiom(Domain(_fX, Named(Name("X"))), {"X": SymbolArg(gA)}, lambda n: seen.append(n) or n)
    assert seen == [Name("f", (gA,)), gA]


# --- the node contract ----------------------------------------------------------

def _node_classes() -> list[type]:
    from gdol import emitter, expander, model, verifier

    return [c for m in (model, verifier, expander, emitter) for c in vars(m).values()
            if isinstance(c, type) and c.__module__ == m.__name__ and "__match_args__" in c.__dict__]


_NODE_CLASSES = _node_classes()


def _sample(cls: type, tag: str = ""):
    """An instance with a distinct value in every field."""
    if cls is Name:
        return Name("n" + tag, (Name("m" + tag),))
    if cls is Ontology:
        return Ontology(frozenset({(SymbolKind.CLASS, Name("n" + tag))}),
                        frozenset({SubClassOf(Named(Name("n" + tag)), Named(Name("m")))}))
    if cls is RuleEngineConfig:
        return RuleEngineConfig(frozenset({"R2" if tag else "R1"}), 2 if tag else 1)
    if cls is ListArg:
        return ListArg(("items" + tag, "more"), 2 if tag else 1)
    return cls(*(f"{f}{tag}" for f in cls.__match_args__))


def _compared(x) -> tuple:
    return tuple(getattr(x, f) for f in type(x).__match_args__
                 if not (type(x) is InstSpec and f == "loc"))


def test_every_node_class_is_checked():
    assert len(_NODE_CLASSES) == 43


@pytest.mark.parametrize("cls", _NODE_CLASSES, ids=lambda c: c.__name__)
def test_node_contract(cls):
    import inspect

    x = _sample(cls)
    fields = cls.__match_args__
    # the constructor takes the fields in declaration order, by position or keyword
    assert tuple(inspect.signature(cls).parameters) == fields
    declared = [f for f in cls.__dict__.get("__annotations__", {}) if f in fields]
    assert tuple(declared) == fields
    kw = cls(**{f: getattr(x, f) for f in fields})
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(x, f, getattr(kw, f))
        assert getattr(x, f) is getattr(kw, f)
    assert repr(x) == f"{cls.__qualname__}({', '.join(f'{f}={getattr(x, f)!r}' for f in fields)})"
    # slotted: no per-instance dict and no weak references
    assert not hasattr(x, "__dict__") and not hasattr(x, "__weakref__")
    with pytest.raises(TypeError):
        vars(x)
    if cls is Ontology:
        # the kinds map a question fills is not copied, and a copy fills its own
        assert x.kind_of(Name("n")) is SymbolKind.CLASS
        for dup in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert dup.kind_of(Name("n")) is SymbolKind.CLASS and dup.kind_of(Name("m")) is None
    other = _sample(cls, "2")
    assert x == kw and hash(x) == hash(kw) == hash(_compared(x))
    if fields:
        assert x != other and not (x == other)
    # a field left out takes the declared default
    params = inspect.signature(cls).parameters.values()
    required = [getattr(x, q.name) for q in params if q.default is q.empty]
    short = cls(*required)
    for q in params:
        if q.default is not q.empty:
            assert getattr(short, q.name) == q.default


def _copies_differ(copies: list, fresh: list) -> list[str]:
    """The classes whose copy does not equal the fresh sample, hashes
    differently or is not found in a set of the fresh samples."""
    every = set(fresh)
    return [type(y).__name__ for x, y in zip(copies, fresh)
            if not (x == y and hash(x) == hash(y) and x in every)]


_PICKLE_ACROSS = """
import pickle, sys
from test_model import _NODE_CLASSES, _copies_differ, _sample
fresh = [_sample(c) for c in _NODE_CLASSES]
if sys.argv[1] == "dump":
    sys.stdout.buffer.write(pickle.dumps(fresh))
else:
    print(_copies_differ(pickle.loads(sys.stdin.buffer.read()), fresh))
"""


def test_copies_are_rebuilt_through_their_class():
    fresh = [_sample(cls) for cls in _NODE_CLASSES]
    for dup in (copy.copy, copy.deepcopy):
        assert _copies_differ([dup(x) for x in fresh], fresh) == []
    # pickled under one hash seed and loaded under another: a name's hash is
    # computed in the loading process, so sets and dicts find the copy
    path = os.pathsep.join([str(Path(gdol.__file__).parents[1]), str(Path(__file__).parent),
                            os.environ.get("PYTHONPATH", "")])

    def child(seed: str, arg: str, data: bytes = b"") -> bytes:
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        return subprocess.run([sys.executable, "-c", _PICKLE_ACROSS, arg], input=data,
                              capture_output=True, env=env, check=True).stdout

    assert child("1", "load", child("0", "dump")).decode() == "[]\n"


@pytest.mark.parametrize("make, message", [
    (lambda: Named(), "Named.__init__() missing 1 required positional argument: 'name'"),
    (lambda: Domain(Name("p")), "Domain.__init__() missing 1 required positional argument: 'cls'"),
    (lambda: Named(nme=A), "Named.__init__() got an unexpected keyword argument 'nme'"),
    (lambda: Named(A, B), "Named.__init__() takes 2 positional arguments but 3 were given"),
], ids=["missing", "second-missing", "unknown-keyword", "one-too-many"])
def test_constructor_errors_name_the_class_and_its_fields(make, message):
    with pytest.raises(TypeError) as err:
        make()
    # newer interpreters may append a suggestion, which must not be a placeholder either
    assert str(err.value).startswith(message) and not re.search(r"\b_\d+\b", str(err.value))


def test_classes_of_one_signature_share_their_methods_bytecode():
    from gdol import node

    for i, name in enumerate(node._METHODS):
        derived = [c.__dict__[name].__code__ for c in _NODE_CLASSES
                   if c.__dict__[name].__globals__ is node._GLOBALS]
        assert {c.co_code for c in derived} <= {t[i].co_code for t in node._TEMPLATES.values()}
        assert not any(re.fullmatch(r"_\d+", s) for c in derived for s in c.co_varnames + c.co_names)
        # Some and Only have one signature: one bytecode, each with its own fields
        some, only = Some.__dict__[name].__code__, Only.__dict__[name].__code__
        assert some is not only and some.co_code == only.co_code
    assert Name.__eq__.__globals__ is not node._GLOBALS  # a method the class defines is kept
    assert len(node._TEMPLATES) < len(_NODE_CLASSES)


def test_a_field_without_a_default_cannot_follow_one_with_a_default():
    from gdol.model import Node

    with pytest.raises(TypeError, match="Bad: a field without a default follows one with a default"):
        class Bad(Node):
            first: int = 0
            second: int


def test_nodes_of_different_classes_are_unequal():
    a, b = Named(A), Named(B)
    assert EquivalentClasses(a, b) != DisjointClasses(a, b)
    assert Some(p, a) != Only(p, a)
    assert Some(p, a) == Some(p, a) and hash(Some(p, a)) == hash(Only(p, a))


def test_instantiations_differing_only_in_location_are_equal():
    here, there = InstSpec("P", (SymbolArg(A),), True, (1, 2)), InstSpec("P", (SymbolArg(A),), True, (3, 4))
    assert here == there and hash(here) == hash(there) == hash(("P", (SymbolArg(A),), True))
    assert here != InstSpec("Q", (SymbolArg(A),), True, (1, 2))


@pytest.mark.parametrize("op", [UnionSpec, ExtensionSpec], ids=lambda c: c.__name__)
def test_chains_sharing_a_node_compare_equal(op):
    x, y = InstSpec("X"), InstSpec("Y")
    inner = op((op((x, y)), x))
    u = op((inner, y))
    assert u == u and not (u != u)
    # distinct chains sharing an inner chain as first operand, or as a later one
    assert op((inner, y)) == u and op((inner, x)) != u
    assert op((y, inner)) == op((y, inner)) and op((y, inner)) != op((x, inner))
    assert op((inner, y)) != op((inner, y, x))
    # a union and an extension of the same operands differ
    other = ExtensionSpec if op is UnionSpec else UnionSpec
    assert other((inner, y)) != u
    # declarations sharing a body
    assert OntologyDef("O", u) == OntologyDef("O", u)
    assert PatternDef("P", (), u) == PatternDef("P", (), u)


def test_checks_run_on_construction():
    with pytest.raises(ValueError):
        Name("a b")
    with pytest.raises(KindClash):
        Ontology(frozenset({(SymbolKind.CLASS, A), (SymbolKind.INDIVIDUAL, A)}))
