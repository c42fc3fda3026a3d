"""Expansion: argument binding, elision, list recursion, scoping, guards."""
from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import threading
import weakref
from collections import Counter

import pytest

from gdol import (
    And,
    ArityMismatch,
    ClassAssertion,
    CyclicImport,
    DepthExceeded,
    DifferentIndividuals,
    DisjointClasses,
    Domain,
    EmptyArg,
    EmptyForRequired,
    EquivalentClasses,
    ExpansionEnv,
    GdolError,
    InstSpec,
    KindClash,
    KindMismatch,
    ListArg,
    ListLengthMismatch,
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
    SubPropertyOf,
    SubstitutionError,
    SymbolArg,
    SymbolKind,
    UnknownPattern,
    bind_arguments,
    check_obligations,
    check_refinement,
    expand_spec_standalone,
    parse_document,
)
from gdol import emitter, expander, model
from gdol.model import OntologyBuilder, axiom_names, canon_axiom


def S(n: str) -> SymbolArg:
    return SymbolArg(Name(n))


def shown(bound: ListArg) -> tuple:
    """The items a bound list shows."""
    return bound.items[bound.start:]


def names_of(o: Ontology) -> set[str]:
    out = {n.base for _, n in o.decls}
    for a in o.axioms:
        out |= {n.base for n in axiom_names(a)}
    return out


# --- argument binding -----------------------------------------------------

def test_binding_scalars_optionals_and_lists(corpus_docs):
    defs = {}
    for d in corpus_docs:
        defs.update(d.pattern_defs())
    val_set = defs["VAL_Set"]

    b = bind_arguments(val_set, (S("Grade"), EmptyArg(),
                                 ListArg((S("g1"), S("g2")))))
    assert b.mapping["Val"] == S("Grade")
    assert b.mapping["greater"] == EmptyArg()
    assert b.mapping["v0"] == S("g1")
    assert shown(b.mapping["vs"]) == (S("g2"),)
    assert not b.exhausted

    b = bind_arguments(val_set, (S("Grade"), S("gt"), ListArg(())))
    assert b.mapping["v0"] == EmptyArg()
    assert shown(b.mapping["vs"]) == ()
    assert b.exhausted

    with pytest.raises(ArityMismatch):
        bind_arguments(val_set, (S("Grade"),))
    with pytest.raises(EmptyForRequired):
        bind_arguments(val_set, (EmptyArg(), EmptyArg(), ListArg((S("g"),))))


def test_cons_arguments_prepend(corpus_docs):
    from gdol import ConsArg

    defs = {}
    for d in corpus_docs:
        defs.update(d.pattern_defs())
    g0 = SymbolArg(Name("g0"), SymbolKind.INDIVIDUAL)  # a head may carry its parameter's kind
    b = bind_arguments(defs["VAL_Set"],
                       (S("Grade"), EmptyArg(),
                        ConsArg(g0, ListArg((S("g1"),)))))
    assert shown(b.lists["v0"]) == (g0, S("g1"))


def test_list_literals_splice_and_cons_cells_end_under_a_binding():
    doc = parse_document(
        "pattern L [ Class: x :: xs ] = Class: x SubClassOf: Top then L[xs]\n"
        "pattern M [ Class: y :: ys ] = L[[y, ys]]\n"
        "pattern N [ Class: a ] = L[a :: {}]\n"
        "ontology O1 = M[[c, d, e]]\nontology O2 = N[f]\nontology O3 = L[Class: g :: []]\n")
    env = ExpansionEnv.from_documents([doc])

    def under_top(*names):
        return {SubClassOf(Named(Name(n)), Named(Name("Top"))) for n in names}

    assert env.expand_named("O1").axioms == under_top("c", "d", "e")
    assert env.expand_named("O2").axioms == under_top("f")
    assert env.expand_named("O3").axioms == under_top("g")


def test_unequal_list_lengths_are_rejected(corpus_docs):
    defs = {}
    for d in corpus_docs:
        defs.update(d.pattern_defs())
    with pytest.raises(ListLengthMismatch):
        bind_arguments(defs["OVERLOAD_Domain"],
                       (S("D"), S("map"), ListArg((S("R1"),)), ListArg(())))


def test_kind_annotated_arguments_must_match(corpus_docs):
    defs = {}
    for d in corpus_docs:
        defs.update(d.pattern_defs())
    bad = SymbolArg(Name("x"), kind=SymbolKind.CLASS)
    with pytest.raises(KindMismatch):
        bind_arguments(defs["Strict_ORDER"], (S("X"), bad))


def test_a_list_items_kind_is_checked_however_the_list_is_written():
    """An annotated item that reaches a list parameter by substitution is
    checked like a cons head, so a list literal and a cons cell give the
    same error; an item annotated with the parameter's kind is declared."""
    doc = parse_document(
        "pattern L [ Class: x :: xs ] = Class: x\n"
        "pattern M [ ObjectProperty: y ] = L[[y]]\n"
        "pattern N [ ObjectProperty: y ] = L[y :: []]\n"
        "pattern K [ Class: z ] = L[[z, b]]\n"
        "ontology OM = M[ObjectProperty: a]\nontology ON = N[ObjectProperty: a]\n"
        "ontology OK = K[Class: a]\n")
    env = ExpansionEnv.from_documents([doc])
    errors = []
    for name in ("OM", "ON"):
        with pytest.raises(KindMismatch) as info:
            env.expand_named(name)
        assert info.type is KindMismatch
        errors.append(str(info.value))
    assert errors == ["L: argument for 'x' annotated ObjectProperty, parameter declared Class"] * 2
    assert env.expand_named("OK").decls == {(SymbolKind.CLASS, Name("a")), (SymbolKind.CLASS, Name("b"))}


def test_a_binding_error_comes_before_an_items_kind_error_however_the_list_is_written():
    """An item's kind is checked only where its frame declares it, so a cons
    head and a list literal's item meet a length mismatch, or another
    parameter's kind error, the same way; with no other error both report
    the item's kind."""
    doc = parse_document(
        "pattern L2 [ Class: x :: xs; Class: y :: ys ] = Class: x\n"
        "pattern M [ ObjectProperty: a ] = L2[a :: []; [b, c]]\n"
        "pattern N [ ObjectProperty: a ] = L2[[a]; [b, c]]\n"
        "pattern K [ ObjectProperty: a ] = L2[a :: []; [b]]\n"
        "pattern S [ Class: x :: xs; Class: z ] = Class: x\n"
        "pattern T [ ObjectProperty: a ] = S[a :: []; ObjectProperty: q]\n"
        "pattern U [ ObjectProperty: a ] = S[[a]; ObjectProperty: q]\n"
        "ontology OM = M[ObjectProperty: p]\nontology ON = N[ObjectProperty: p]\n"
        "ontology OK = K[ObjectProperty: p]\nontology OT = T[ObjectProperty: p]\n"
        "ontology OU = U[ObjectProperty: p]\n")
    env = ExpansionEnv.from_documents([doc])
    errors = []
    for name in ("OM", "ON", "OK", "OT", "OU"):
        with pytest.raises(GdolError) as info:
            env.expand_named(name)
        errors.append((info.type, str(info.value)))
    length = (ListLengthMismatch, "L2: parallel list arguments differ in length (x=1, y=2)")
    kind = (KindMismatch, "L2: argument for 'x' annotated ObjectProperty, parameter declared Class")
    scalar = (KindMismatch, "S: argument for 'z' annotated ObjectProperty, parameter declared Class")
    assert errors == [length, length, kind, scalar, scalar]


def test_a_list_argument_is_bound_as_its_own_tuple():
    """A list literal is bound as it is, and its tail as a ListArg of the
    same tuple, which later frames recognise; a cons builds a new one."""
    from gdol import ConsArg

    (pdef,) = parse_document("pattern L [ Class: x :: xs ] = Class: x\n").decls
    items = (S("a"), S("b"))
    b = bind_arguments(pdef, (ListArg(items),))
    assert b.lists["x"].items is items and shown(b.lists["x"]) == items
    assert b.mapping["xs"].items is items and shown(b.mapping["xs"]) == (S("b"),)
    assert bind_arguments(pdef, (b.mapping["xs"],)).lists["x"] is b.mapping["xs"]
    consed = bind_arguments(pdef, (ConsArg(S("c"), ListArg(items)),)).lists["x"]
    assert shown(consed) == (S("c"), *items) and consed.items is not items
    assert shown(bind_arguments(pdef, (ConsArg(S("c"), EmptyArg()),)).lists["x"]) == (S("c"),)


def test_a_bound_tail_reaches_every_place_a_list_can_go():
    """A frame's tail is handed on by the recursive call, consed onto, held
    in a list literal, spliced into an enumeration and DifferentIndividuals,
    and ends empty; in a single-name position it is an error."""
    doc = parse_document(
        "pattern Mark [ Class: K; Individual: i :: is ] = Individual: i Types: K then Mark[K; is]\n"
        "pattern Tail [ Individual: v :: vs ] =\n"
        "    Class: After[v] EquivalentTo: {vs}\n"
        "    DifferentIndividuals: v, vs\n"
        "then Tail[vs] and Mark[Consed[v]; z :: vs] and Mark[Listed[v]; [vs, z]]\n"
        "pattern One [ Class: y ] = Class: y\n"
        "pattern InName [ Class: x :: xs ] = Class: xs\n"
        "pattern InArg [ Class: x :: xs ] = One[xs]\n"
        "ontology O = Tail[[a, b, c]]\n"
        "ontology OName = InName[[a, b]]\nontology OArg = InArg[[a, b]]\n")
    env = ExpansionEnv.from_documents([doc])
    assert emitter.emit_manchester(env.expand_named("O")) == "".join(
        line + "\n" for line in [
            "Class: After_a", "  EquivalentTo: {b, c}", "Class: After_b", "  EquivalentTo: {c}",
            "Class: After_c", "  EquivalentTo: {}",
            "Class: Consed_a", "Class: Consed_b", "Class: Consed_c",
            "Class: Listed_a", "Class: Listed_b", "Class: Listed_c",
            "Individual: a",
            "Individual: b", "  Types: Consed_a", "  Types: Listed_a",
            "Individual: c", "  Types: Consed_a", "  Types: Consed_b",
            "  Types: Listed_a", "  Types: Listed_b",
            "Individual: z", "  Types: Consed_a", "  Types: Consed_b", "  Types: Consed_c",
            "  Types: Listed_a", "  Types: Listed_b", "  Types: Listed_c",
            "DifferentIndividuals: a, b, c", "DifferentIndividuals: b, c",
            "DifferentIndividuals: c"])
    errors = []
    for name in ("OName", "OArg"):
        with pytest.raises(SubstitutionError) as info:
            env.expand_named(name)
        errors.append(str(info.value))
    assert errors == ["list argument bound to 'xs' used where a single name is expected",
                      "One: parameter 'y' needs a single name"]


def test_a_hand_built_list_with_a_start_is_the_list_it_shows():
    """ListArg(items, start), written as an argument, expands as
    ListArg(items[start:]) does: bound, consed onto, held in a list
    literal, spliced into `{v0, vs}` and DifferentIndividuals, and in a
    single-name position."""
    from gdol import ConsArg

    doc = parse_document(
        "pattern Mark [ Class: K; Individual: i :: is ] = Individual: i Types: K then Mark[K; is]\n"
        "pattern Tail [ Individual: v :: vs ] =\n"
        "    Class: After[v] EquivalentTo: {vs}\n"
        "    DifferentIndividuals: v, vs\n"
        "then Tail[vs] and Mark[Consed[v]; z :: vs] and Mark[Listed[v]; [vs, z]]\n"
        "pattern One [ Class: y ] = Class: y\n"
        "pattern InName [ Class: x :: xs ] = Class: xs\n")
    tail = doc.pattern_defs()["Tail"]
    enum = EquivalentClasses(Named(Name("Val")), OneOf((Name("v0"), Name("vs"))))
    different = DifferentIndividuals((Name("v0"), Name("vs")))
    single = SubClassOf(Named(Name("vs")), Named(Name("Val")))

    def outcome(arg) -> list:
        """What each path makes of one list argument: the text or error of
        each expansion, and the bound, consed and substituted lists."""
        env = ExpansionEnv.from_documents([doc])
        out: list = []
        for pattern, head in (("Tail", ()), ("InName", ()), ("One", ()), ("Mark", (S("K"),))):
            for written in (arg, ConsArg(S("c"), arg)):
                try:
                    o, _ = expand_spec_standalone(env, InstSpec(pattern, (*head, written)))
                    out.append(emitter.emit_manchester(o))
                except GdolError as exc:
                    out.append((type(exc), str(exc)))
        b = bind_arguments(tail, (arg,))
        consed = bind_arguments(tail, (ConsArg(S("c"), arg),))
        out += [shown(b.lists["v"]), b.mapping["v"], shown(b.mapping["vs"]),
                shown(consed.lists["v"]), shown(consed.mapping["vs"])]
        binding = {"v0": S("v0"), "vs": arg}
        held = model.subst_argument(ListArg((S("w"), S("vs"), arg, S("z"))), binding)
        out += [held, model.subst_argument(ConsArg(S("w"), S("vs")), binding).tail is arg,
                model.subst_axiom(enum, binding), model.subst_axiom(different, binding)]
        with pytest.raises(SubstitutionError) as info:
            model.subst_axiom(single, binding)
        return [*out, str(info.value)]

    items = tuple(S(n) for n in ("x", "a", "b", "c"))
    for start in range(len(items) + 1):
        assert outcome(ListArg(items, start)) == outcome(ListArg(items[start:])), start


# --- whole-ontology expansion ----------------------------------------------

def test_scoped_relation_expansion_matches_hand_construction(expand):
    te = Name("hasTemporalExtent")
    extent = Named(Name("TemporalExtent"))
    expected = Ontology.of(
        decls=[(SymbolKind.CLASS, Name("Vehicle")),
               (SymbolKind.CLASS, Name("TemporalExtent")),
               (SymbolKind.OBJECT_PROPERTY, te)],
        axioms=[
            SubClassOf(Named(Name("Vehicle")),
                       And((Some(PropExpr(te), extent),
                            Only(PropExpr(te), extent)))),
            DisjointClasses(extent, Named(Name("Vehicle"))),
        ],
    )
    assert expand("TEMPORAL_Extent_Vehicle_log") == expected


def test_expanded_output_never_contains_brackets(expand):
    for name in ("Driver_log", "Change_PD_Vehicle_log", "OrdGRADE_MaxSeats",
                 "Data_Driver_log"):
        o = expand(name)
        for base in names_of(o):
            assert "[" not in base and "]" not in base


# --- elision ------------------------------------------------------------------

def test_value_set_without_an_order(env):
    spec = InstSpec("VAL_Set", (S("Val"), EmptyArg(), ListArg((S("v0"),))))
    ont, _ = expand_spec_standalone(env, spec)
    assert ont.axioms == {
        ClassAssertion(Named(Name("Val")), Name("v0")),
        DifferentIndividuals((Name("v0"),)),
        EquivalentClasses(Named(Name("Val")), OneOf((Name("v0"),))),
    }
    assert "greater" not in names_of(ont)


def test_value_set_order_facts_only_with_an_order(env):
    spec = InstSpec("VAL_Set", (S("Val"), EmptyArg(),
                                ListArg((S("v0"), S("v1")))))
    ont, _ = expand_spec_standalone(env, spec)
    assert ont.axioms == {
        ClassAssertion(Named(Name("Val")), Name("v0")),
        ClassAssertion(Named(Name("Val")), Name("v1")),
        DifferentIndividuals((Name("v0"), Name("v1"))),
        EquivalentClasses(Named(Name("Val")), OneOf((Name("v0"), Name("v1")))),
    }

    ordered, _ = expand_spec_standalone(
        env, InstSpec("VAL_Set", (S("Val"), S("before"),
                                  ListArg((S("v0"), S("v1"))))))
    assert PropAssertion(Name("before"), Name("v1"), Name("v0")) in ordered.axioms


def test_role_without_a_provider_drops_the_provider_half(env):
    full = InstSpec("ROLE_Explicit", (S("DriverRole"), S("Person"),
                                      S("performedBy"), S("performs"),
                                      S("Org"), S("providedBy"), S("provides")))
    trimmed = InstSpec("ROLE_Explicit", (S("DriverRole"), S("Person"),
                                         S("performedBy"), S("performs"),
                                         EmptyArg(), EmptyArg(), EmptyArg()))
    big, _ = expand_spec_standalone(env, full)
    small, _ = expand_spec_standalone(env, trimmed)
    assert {"providedBy", "provides", "Org"} <= names_of(big)
    assert not {"providedBy", "provides", "Org"} & names_of(small)
    assert "performedBy" in names_of(small)
    assert small.axioms < big.axioms


# --- list recursion -------------------------------------------------------

def overload(env, ranges, props):
    spec = InstSpec("OVERLOAD_Domain",
                    (S("D"), S("map"),
                     ListArg(tuple(S(r) for r in ranges)),
                     ListArg(tuple(S(p) for p in props))))
    ont, _ = expand_spec_standalone(env, spec)
    return ont


def test_list_recursion_contributes_per_element(env):
    assert len(overload(env, [], []).axioms) == 0
    assert len(overload(env, ["R1"], ["p1"]).axioms) == 3
    assert len(overload(env, ["R1", "R2", "R3"], ["p1", "p2", "p3"]).axioms) == 9


def test_empty_cells_inside_lists_void_single_calls(expand):
    # a {} table cell silences the per-row calls that mention it, so the
    # grade-intersection property exists only where the table has an entry
    def spo(a: str, b: str) -> SubPropertyOf:
        return SubPropertyOf(PropExpr(Name(a)), PropExpr(Name(b)))

    o = expand("Driver_log")
    assert spo("licencedFor_D1LightBus", "mightDrive_gt3500to7500kg") in o.axioms
    assert spo("licencedFor_D1LightBus", "mightDrive_gt9to17Seats") in o.axioms
    assert spo("licencedFor_D1LightBus", "mightDrive_le3500kg") not in o.axioms
    assert spo("licencedFor_D1LightBus", "mightDrive_gt7500kg") not in o.axioms
    assert spo("licencedFor_BMotorVehicle", "mightDrive_le9Seats") in o.axioms
    assert spo("licencedFor_BMotorVehicle", "mightDrive_gt9to17Seats") not in o.axioms


# --- scoping and guards -----------------------------------------------------

def test_an_empty_spec_adds_nothing():
    doc = parse_document(
        "pattern P [ Class: C; {ObjectProperty: p Domain: C} ] = Class: C SubClassOf: p some C\n"
        "ontology E = {}\nontology U = P[A; q] and {}\nontology V = P[A; q]\n")
    env = ExpansionEnv.from_documents([doc])
    assert env.expand_named("E") == Ontology()
    assert env.expand_named("U") == env.expand_named("V")
    assert obligation_rows(env, "U") == obligation_rows(env, "V") == [("q Domain: A", "P", "p", 0)]


def test_a_declaration_naming_an_empty_bound_parameter_is_dropped():
    doc = parse_document(
        "pattern P [ ? ObjectProperty: p; Class: C ] =\n"
        "  ObjectProperty: p Characteristics: Functional Class: C\n"
        "ontology O = P[; A]\n")
    assert ExpansionEnv.from_documents([doc]).expand_named("O") == \
        Ontology.of([(SymbolKind.CLASS, Name("A"))])


def test_let_locals_are_not_visible_outside(env):
    # GradedRels is a let-local of GRADED_Rels
    with pytest.raises(UnknownPattern):
        expand_spec_standalone(env, InstSpec("GradedRels", (ListArg(()),)))


def test_bare_references_must_name_ontologies():
    doc = parse_document("pattern P [Class: X] = Class: X\nontology O = Q\n")
    env = ExpansionEnv.from_documents([doc])
    with pytest.raises(GdolError, match="pattern"):
        env.expand_named("P")
    with pytest.raises(UnknownPattern):
        env.expand_named("O")


def test_cyclic_references_are_reported():
    doc = parse_document("ontology A = B\nontology B = A\n")
    env = ExpansionEnv.from_documents([doc])
    with pytest.raises(CyclicImport):
        env.expand_named("A")


def test_depth_budget_stops_unfounded_recursion():
    doc = parse_document(
        "pattern Loop [Class: R :: Rs] = Class: R SubClassOf: R then Loop[R :: Rs]\n"
        "ontology Bad = Loop[[A, B]]\n")
    env = ExpansionEnv.from_documents([doc], depth_budget=40)
    with pytest.raises(DepthExceeded):
        env.expand_named("Bad")


@pytest.mark.parametrize("budget", [-5, 0, True])
def test_a_depth_budget_must_be_a_positive_int(budget):
    """As for the prover's step limit, True is not taken for 1."""
    with pytest.raises(ValueError) as info:
        ExpansionEnv.from_documents([], depth_budget=budget)
    assert str(info.value) == f"depth_budget must be a positive int, got {budget!r}"


def test_depth_budget_counts_frames_across_given_imports():
    # Inner takes four frames (the last one exhausted); imported by a Wrap
    # frame, they run one level deeper
    doc = parse_document(
        "pattern Loop3 [Class: x :: xs] = Class: x then Loop3[xs]\n"
        "pattern Wrap [Class: y] given Inner = Class: y\n"
        "ontology Inner = Loop3[[a, b, c]]\n"
        "ontology Outer = Wrap[z]\n")
    assert ExpansionEnv.from_documents([doc], depth_budget=4).expand_named("Inner").decls
    with pytest.raises(DepthExceeded):
        ExpansionEnv.from_documents([doc], depth_budget=4).expand_named("Outer")
    assert ExpansionEnv.from_documents([doc], depth_budget=5).expand_named("Outer").decls


def test_the_depth_error_names_long_lists():
    """Each list element nests one frame, so a well-founded recursion over a
    list longer than the budget stops too, and the message says how to go on."""
    doc = parse_document("pattern P [Class: x :: xs] = Class: x then P[xs]\n"
                         "ontology O = P[[a, b, c, d]]\n")
    with pytest.raises(DepthExceeded) as info:
        ExpansionEnv.from_documents([doc], depth_budget=4).expand_named("O")
    assert str(info.value) == (
        "instantiation depth budget (4) exceeded while expanding 'P'; the pattern is"
        " probably not well founded, or recurses over a list too long for the budget:"
        " each list element counts one level, and --depth raises the budget")
    assert len(ExpansionEnv.from_documents([doc], depth_budget=5).expand_named("O").decls) == 4


def test_name_collision_diagnostic(env):
    env.expand_named("Data_Driver_log")
    assert any("licencedFor_le_BMotorVehicle" in d for d in env.diagnostics)


def test_names_of_deleted_axioms_and_obligations_never_merge():
    doc = parse_document(
        "pattern P [ Class: X; ? Class: E; {ObjectProperty: p Domain: k[X] some E} ] =\n"
        "  Class: X SubClassOf: g[X] some E\n"
        "  Class: X SubClassOf: h[X]\n"
        "ontology O = P[a; ; r] and Class: g_a Class: h_a Class: k_a\n")
    env = ExpansionEnv.from_documents([doc])
    env.obligations("O")
    assert env.diagnostics == ["stratified name 'h_a' coincides with a plain name; the two merge"]


_DIAGNOSTICS_PROBE = """
import json
from gdol import parse_document
from gdol.expander import ExpansionEnv
doc = parse_document(
    "pattern P [ Class: X ] =\\n"
    "  Class: f[X] Class: g[X] Class: h[X] Class: k[X]\\n"
    "  Class: f_a Class: g_a Class: h_a Class: k_a\\n"
    "  and let pattern L [ Class: X ] = Class: X in L[X]\\n"
    "ontology O = P[a]\\n")
env = ExpansionEnv.from_documents([doc])
env.expand_named("O")
print(json.dumps(env.diagnostics))
"""


def test_diagnostics_are_sorted_the_same_under_any_hash_seed():
    """Four merges found in one fragment, whose declarations are a set, and
    a shadowed parameter: the list is the same whatever the hash seed."""
    src = os.path.dirname(os.path.dirname(expander.__file__))
    outs = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        r = subprocess.run([sys.executable, "-c", _DIAGNOSTICS_PROBE],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        outs.add(r.stdout)
    assert len(outs) == 1
    assert json.loads(outs.pop()) == [
        "parameters ['X'] of local pattern 'L' shadow outer bindings",
        *(f"stratified name '{c}_a' coincides with a plain name; the two merge" for c in "fghk"),
    ]


def test_shadowing_warns_but_expands():
    doc = parse_document(
        "pattern Outer [ Class: X ] =\n"
        "  let pattern L [ Class: X ] = Class: X SubClassOf: X\n"
        "  in L[X]\n"
        "ontology O = Outer[A] and Outer[B]\n")
    env = ExpansionEnv.from_documents([doc])
    o = env.expand_named("O")
    assert o.axioms == {SubClassOf(Named(Name(c)), Named(Name(c))) for c in "AB"}
    # once, although both instantiations shadow X
    assert env.diagnostics == ["parameters ['X'] of local pattern 'L' shadow outer bindings"]


def test_shadowing_inside_a_local_body_is_reported():
    # M reuses Outer's X inside L, where substituting Outer's binding meets it
    doc = parse_document(
        "pattern Outer [ Class: X; Class: Z ] =\n"
        "  let pattern L [ Class: Y ] =\n"
        "    let pattern M [ Class: X :: Z ] = Class: X SubClassOf: Y\n"
        "    in M[[Y]]\n"
        "  in L[X]\n"
        "ontology O = Outer[A; B]\n")
    env = ExpansionEnv.from_documents([doc])
    assert env.expand_named("O").axioms == {SubClassOf(Named(Name("A")), Named(Name("A")))}
    assert env.diagnostics == ["parameters ['X', 'Z'] of local pattern 'M' shadow outer bindings"]


_LEAK = (
    "pattern C [ Individual: x Types: Top ] = Individual: x\n"
    "pattern Outer [ Class: X ] =\n"
    "  let pattern L [ Class: X ] = Class: X SubClassOf: X\n"
    "  in L[X]\n"
    "ontology Bad = Class: p_a and ObjectProperty: p_a\n"
    "ontology BadQueue = Class: x and ObjectProperty: x Individual: p_a\n"
    "ontology BadLet = Outer[A] and Class: z and ObjectProperty: z\n"
    "ontology Good = C[p[a]]\n")


@pytest.mark.parametrize("failed", ["Bad", "BadQueue", "BadLet"])
def test_a_failed_expansion_leaves_no_warning_in_its_environment(failed):
    """Good alone warns of nothing; an expansion that raised before it, in
    the same environment, adds none of its names or shadowing warnings.
    The failed walk leaves what it logged behind; the next walk starts from
    empty logs, and a completed walk leaves them empty."""
    env = ExpansionEnv.from_documents([parse_document(_LEAK)])
    with pytest.raises(KindClash):
        env.expand_named(failed)
    assert any(env._logs)
    env.expand_named("Good")
    assert env._logs == ([], [], [])
    assert env.diagnostics == []


def test_an_ontology_expanded_inside_a_failed_one_keeps_its_warnings():
    """Shadow closes, and is cached, before BadRef raises: expanding it
    again adds nothing, so its warning must already be recorded."""
    doc = parse_document(_LEAK + "ontology Shadow = Outer[A]\n"
                                 "ontology BadRef = Shadow and Class: z and ObjectProperty: z\n")
    env = ExpansionEnv.from_documents([doc])
    with pytest.raises(KindClash):
        env.expand_named("BadRef")
    assert any(env._logs)
    env.expand_named("Shadow")
    env.expand_named("Good")
    assert env._logs == ([], [], [])
    assert env.diagnostics == ["parameters ['X'] of local pattern 'L' shadow outer bindings"]


def test_a_local_does_not_capture_an_outer_argument():
    # Outer's argument is the name Y, which L's parameter Y must not rebind
    doc = parse_document(
        "pattern Outer [ Class: X ] =\n"
        "  let pattern L [ {Individual: Y Types: X} ] = Individual: Y Types: X\n"
        "  in L[Foo]\n"
        "ontology O = Outer[Y]\n")
    env = ExpansionEnv.from_documents([doc])
    goal = ClassAssertion(Named(Name("Y")), Name("Foo"))
    assert goal in env.expand_named("O").axioms
    assert [ob.axiom for ob in env.obligations("O")] == [goal]


def test_let_scopes_resolve_siblings_shadowing_and_nesting():
    # Even and Odd call each other; the local L shadows the global L inside
    # the let, and the nested let's N reaches both Odd and that local L; the
    # L[g] before the let, and the one in O, reach the global L
    doc = parse_document(
        "pattern L [ Class: X ] = Class: X SubClassOf: Global\n"
        "pattern P [ Class: g :: gs ] =\n"
        "  L[g] and\n"
        "  let\n"
        "    pattern Even [ Class: x :: xs ] = Class: x SubClassOf: EvenC then Odd[xs]\n"
        "    pattern Odd [ Class: x :: xs ] = Class: x SubClassOf: OddC then Even[xs]\n"
        "    pattern L [ Class: X ] = Class: X SubClassOf: Local\n"
        "  in Even[g :: gs] and L[g] and\n"
        "    let pattern N [ Class: y ] = Odd[[y]] and L[y]\n"
        "    in N[n]\n"
        "ontology O = P[[a, b, c]] and L[h]\n")
    env = ExpansionEnv.from_documents([doc])

    def sub(c, d):
        return SubClassOf(Named(Name(c)), Named(Name(d)))

    assert env.expand_named("O").axioms == {
        sub("a", "Global"), sub("h", "Global"),
        sub("a", "EvenC"), sub("b", "OddC"), sub("c", "EvenC"),
        sub("a", "Local"),
        sub("n", "OddC"), sub("n", "Local"),
    }
    assert env.diagnostics == []


def test_given_imports_are_unioned_into_the_instantiation(expand):
    o = expand("Change_PD_Vehicle_log")
    assert (SymbolKind.CLASS, Name("Manifestation")) in o.decls
    assert SubClassOf(Named(Name("Vehicle")),
                      Named(Name("Manifestation"))) in o.axioms


def test_expansion_is_cached_and_repeatable(env, expand):
    first = expand("Driver_log")
    second = env.expand_named("Driver_log")
    assert first is second  # memoized per environment


def test_union_of_named_ontologies(env, expand):
    whole = expand("Roles_Driver_log")
    part = expand("Role_PotentialDriver_log")
    assert part.decls <= whole.decls
    assert part.axioms <= whole.axioms


# --- obligations of list patterns ---------------------------------------------

_LIST_OBLIGATIONS = """
pattern Walk [ Class: D; {ObjectProperty: p Domain: D} :: ps ] =
  Class: D then Walk[Next[D]; ps]
pattern Spread [ Class: D; {Individual: v Types: {vs}} :: vs ] =
  Class: D then Spread[D; vs]
pattern Shared [ ] = AND_nRels[S; T; r; [q0, q1, q2]]
ontology Walked = Walk[A; [p0, p1, p2]]
ontology Spreads = Spread[D; [v0, v1, v2]]
ontology First = Shared[]
ontology Second = Shared[] and Class: Extra
"""


def obligation_rows(env, name):
    from gdol.emitter import axiom_text

    obs = env.obligations(name)
    return [(axiom_text(o.axiom), o.pattern, o.param, o.index) for o in obs]


@pytest.fixture()
def list_env(corpus_docs):
    return ExpansionEnv.from_documents([*corpus_docs, parse_document(_LIST_OBLIGATIONS)])


def test_and_nrels_emits_two_obligations_per_property_in_order(corpus_docs):
    n = 12
    props = [f"q{i}" for i in range(n)]
    doc = parse_document(f"ontology Many = AND_nRels[S; T; r; [{', '.join(props)}]]\n")
    env = ExpansionEnv.from_documents([*corpus_docs, doc])
    rows = obligation_rows(env, "Many")
    expected = []
    for i, q in enumerate(props):
        expected += [(f"{q} Domain: S", "AND_nRels", "p", i),
                     (f"{q} Range: T", "AND_nRels", "p", i)]
    assert rows == expected
    obs = env.obligations("Many")
    context = env.expand_named("Many")
    assert all(o.ontology == "Many" and o.context is context for o in obs)


def test_recursion_with_a_changed_argument_keeps_tail_obligations(list_env):
    # each step moves the domain, so every frame's obligations are new
    assert obligation_rows(list_env, "Walked") == [
        ("p0 Domain: A", "Walk", "p", 0),
        ("p1 Domain: A", "Walk", "p", 1),
        ("p2 Domain: A", "Walk", "p", 2),
        ("p1 Domain: Next_A", "Walk", "p", 0),
        ("p2 Domain: Next_A", "Walk", "p", 1),
        ("p2 Domain: Next_Next_A", "Walk", "p", 0),
    ]


def test_constraints_mentioning_the_tail_differ_per_frame(list_env):
    assert obligation_rows(list_env, "Spreads") == [
        ("v0 Types: {v1, v2}", "Spread", "v", 0),
        ("v1 Types: {v1, v2}", "Spread", "v", 1),
        ("v2 Types: {v1, v2}", "Spread", "v", 2),
        ("v1 Types: {v2}", "Spread", "v", 0),
        ("v2 Types: {v2}", "Spread", "v", 1),
        ("v2 Types: {}", "Spread", "v", 0),
    ]


def test_a_list_head_inside_a_parameterized_name_is_no_repeat(monkeypatch):
    """y's constraint mentions the list head x only inside f[x], so each
    frame raises an obligation of its own: the same as when no frame is
    taken for a repeat of an earlier one."""
    doc = parse_document(
        "pattern H [ Class: x :: xs; {Individual: y Types: f[x]} ] = Individual: y then H[xs; y]\n"
        "ontology O = H[[a, b, c]; z]\n")
    env = ExpansionEnv.from_documents([doc])
    assert obligation_rows(env, "O") == [(f"z Types: f_{v}", "H", "y", 0) for v in "abc"]
    monkeypatch.setattr(expander._Run, "repeats", lambda self, *frame: False)
    reference = ExpansionEnv.from_documents([doc])
    assert (reference.expand_named("O"), reference.obligations("O")) == \
        (env.expand_named("O"), env.obligations("O"))


def test_named_ontologies_sharing_a_list_each_get_every_obligation(list_env):
    expected = []
    for i in range(3):
        expected += [(f"q{i} Domain: S", "AND_nRels", "p", i),
                     (f"q{i} Range: T", "AND_nRels", "p", i)]
    assert obligation_rows(list_env, "First") == expected
    assert obligation_rows(list_env, "Second") == expected


# --- expansion work -------------------------------------------------------------

def _expansion_work(corpus_docs, monkeypatch, n):
    counts = {"strat": 0, "construct": 0, "checked_decls": 0}
    init = Ontology.__init__

    def counting_init(self, *args, **kwargs):
        counts["construct"] += 1
        init(self, *args, **kwargs)
        counts["checked_decls"] += len(self.decls)

    values = ", ".join(f"g{i}" for i in range(n))
    doc = parse_document(f"ontology Deep = OrdGRADE[Top; Grade; [{values}]]\n")
    env = ExpansionEnv.from_documents([*corpus_docs, doc])
    strat = env._strat  # the plans built while expanding take the wrapper

    def counting_strat(name):
        counts["strat"] += 1
        return strat(name)

    with monkeypatch.context() as m:
        m.setattr(env, "_strat", counting_strat)
        m.setattr(Ontology, "__init__", counting_init)
        env.expand_named("Deep")
    return counts


def test_list_recursion_work_grows_linearly(corpus_docs, monkeypatch):
    small = _expansion_work(corpus_docs, monkeypatch, 40)
    large = _expansion_work(corpus_docs, monkeypatch, 160)
    for what in ("strat", "construct", "checked_decls"):
        assert large[what] <= 4.5 * small[what], (what, small, large)


def test_list_recursion_copies_linearly_many_elements(corpus_docs, monkeypatch):
    """Each frame binds its list, and its tail, as ListArgs of the tuple the
    list was given in, so the list elements that frames' bindings hold,
    counted once per distinct tuple, grow with the list and not with its
    square."""
    held: list[dict[int, tuple]] = []  # per expansion: id -> the tuple, kept alive
    bind = expander.bind_arguments

    def recording_bind(pdef, args):
        binding = bind(pdef, args)
        for bound in (*binding.lists.values(), *binding.mapping.values()):
            items = bound if type(bound) is tuple else getattr(bound, "items", None)
            if type(items) is tuple:
                held[-1][id(items)] = items
        return binding

    monkeypatch.setattr(expander, "bind_arguments", recording_bind)
    for n in (40, 160):
        held.append({})
        _ordgrade(corpus_docs, n)
    small, large = (sum(map(len, tuples.values())) for tuples in held)
    assert large <= 4.5 * small, (small, large)


def test_expansion_builds_no_ontology_per_fragment(corpus_docs, monkeypatch):
    """Fragments and parameter declarations go straight into the builder,
    and the let-bound OrderStep is walked under the binding it closes over,
    so an expansion constructs one Ontology, when it freezes, however long
    the list."""
    for n in (40, 160):
        assert _expansion_work(corpus_docs, monkeypatch, n)["construct"] == 1


def test_kind_clash_work_grows_linearly(monkeypatch):
    """A clash met after a long list is reported from the one builder the
    list went into: each declaration reaches a builder once."""
    counts = []
    extend = OntologyBuilder.extend

    def counting_extend(self, decls, axioms=()):
        counts[-1] += len(decls)
        extend(self, decls, axioms)

    monkeypatch.setattr(OntologyBuilder, "extend", counting_extend)
    for n in (40, 160):
        counts.append(0)
        doc = parse_document(
            "pattern P [ Class: x :: xs ] = Class: x then P[xs]\n"
            f"ontology O = P[[{', '.join(f'g{i}' for i in range(n))}]]"
            f" and ObjectProperty: g{n - 1}\n")
        with pytest.raises(KindClash) as info:
            ExpansionEnv.from_documents([doc]).expand_named("O")
        assert (info.value.name, info.value.kinds) == (f"g{n - 1}", ("Class", "ObjectProperty"))
    small, large = counts
    assert large <= 4.5 * small, counts


def _ordgrade(corpus_docs, n: int) -> Ontology:
    values = ", ".join(f"g{i}" for i in range(n))
    doc = parse_document(f"ontology Deep = OrdGRADE[Top; Grade; [{values}]]\n")
    return ExpansionEnv.from_documents([*corpus_docs, doc]).expand_named("Deep")


def _counted(counts: Counter, fn):
    def counting(*args):
        counts[fn.__name__] += 1
        return fn(*args)
    return counting


def test_substitution_canonicalizes_in_its_one_rebuild(corpus_docs, monkeypatch):
    """Each substituted axiom is built canonical, so expanding OrdGRADE over
    200 values canonicalizes nothing a second time."""
    counts: Counter = Counter()
    with monkeypatch.context() as m:
        for module in (model, expander):
            if hasattr(module, "canon_axiom"):
                m.setattr(module, "canon_axiom", _counted(counts, model.canon_axiom))
        o = _ordgrade(corpus_docs, 200)
    assert counts["canon_axiom"] == 0
    assert len(o.axioms) == 415
    assert all(model.canon_axiom(a) == a for a in o.axioms)


def _standalone_and_tied(text: str) -> int:
    """Standalone axioms, plus clauses whose keyword (so rank) another
    clause of their frame has too."""
    frames: list[list[str]] = []
    standalone = 0
    for line in text.splitlines():
        keyword = line.split(":")[0]
        if line.startswith("  "):
            frames[-1].append(keyword)
        elif keyword in ("Class", "Individual", "ObjectProperty", "DataProperty"):
            frames.append([])
        else:
            standalone += 1
    return standalone + sum(n for f in frames for n in Counter(f).values() if n > 1)


def test_emission_keys_only_standalone_and_tied_clauses(corpus_docs, monkeypatch):
    """Clauses order by rank, so a clause's key is built only where two
    clauses of one frame share a rank; standalone axioms are keyed too."""
    o = _ordgrade(corpus_docs, 200)
    counts: Counter = Counter()
    monkeypatch.setattr(emitter, "node_key", _counted(counts, model.node_key))
    text = emitter.emit_manchester(o)
    assert counts["node_key"] == _standalone_and_tied(text) == 1


# --- work done once per environment ------------------------------------------------

def test_each_parameterized_name_is_stratified_once(corpus_docs, monkeypatch):
    """OrdGRADE's 200 OrderStep frames each name gt[Grade]; the environment
    stratifies it once."""
    stratified: list[Name] = []

    def recording(n):
        stratified.append(n)
        return model.stratify(n)

    monkeypatch.setattr(expander, "stratify", recording)
    o = _ordgrade(corpus_docs, 200)
    assert len(o.axioms) == 415
    assert Name("gt", (Name("Grade"),)) in stratified
    assert len(stratified) == len(set(stratified))


def _data_roles(m: int) -> str:
    """m ontologies each instantiating DATA_Role over their own names, every
    other one with axioms of its own, as in the many-contexts benchmark."""
    lines = []
    for k in range(m):
        spec = f"DATA_Role[R{k}; P{k}; does{k}; V{k}; by{k}; perf{k}; prov{k}; rle{k}]"
        if k % 2 == 0:
            spec += f" then ObjectProperty: does{k} Domain: P{k} Range: R{k}"
        lines.append(f"ontology O{k} = {spec}\n")
    return "".join(lines)


def test_a_plan_is_built_once_per_pattern_axiom(corpus_docs, monkeypatch):
    """400 DATA_Role instantiations substitute its 5 body axioms and 4
    constraints through 9 plans; the ontologies' own axioms, substituted
    under no binding, get none."""
    planned: list = []

    def recording(a, fn):
        planned.append(a)
        return model.plan_axiom(a, fn)

    monkeypatch.setattr(expander, "plan_axiom", recording)
    doc = parse_document(_data_roles(400))
    env = ExpansionEnv.from_documents([*corpus_docs, doc])
    for name in doc.ontology_defs():
        env.expand_named(name)
        assert len(env.obligations(name)) == 4
    pdef = next(d for c in corpus_docs for d in c.decls if d.name == "DATA_Role")
    pattern_axioms = [*pdef.body.ontology.axioms, *(c for p in pdef.params for c in p.constraints)]
    assert len(pattern_axioms) == 9
    assert sorted(map(id, planned)) == sorted(map(id, pattern_axioms))


def test_the_repeat_analysis_runs_once_per_pattern(corpus_docs, monkeypatch):
    """AND_nRels over 100 properties asks in each frame whether it repeats
    the last one's obligations; which constraints mention a tail or a head
    is worked out once, one `_strings` per parameter."""
    calls: list = []

    def recording(constraints):
        calls.append(constraints)
        return strings(constraints)

    strings = expander._strings
    monkeypatch.setattr(expander, "_strings", recording)
    props = ", ".join(f"q{i}" for i in range(100))
    doc = parse_document(f"ontology Shared = AND_nRels[S; T; r; [{props}]]\n")
    env = ExpansionEnv.from_documents([*corpus_docs, doc])
    assert len(env.obligations("Shared")) == 200
    assert len(calls) == 4  # S, T, r and the list p :: ps


def _everything(env: ExpansionEnv, names) -> list:
    return [(env.expand_named(n), env.obligations(n)) for n in names] + [env.diagnostics]


def _caches(env: ExpansionEnv) -> tuple:
    return env._flat, env._plans, env._shapes


_OWN_PATTERNS = """pattern Role [ Class: R; ObjectProperty: p Domain: R; Individual: i; Individual: j ] =
  Individual: i Types: R Facts: p j
pattern Chain [ Class: C; Individual: x :: xs ] =
  Individual: x Types: C then Chain[C; xs]
"""


def test_work_done_once_is_cached_per_environment():
    """A fresh environment starts with empty caches and expanding in one
    leaves another's empty.  An id-keyed entry holds its object, so once an
    environment and its documents are dropped, axioms parsed later cannot
    be taken for theirs."""
    uses = "".join(f"ontology O{k} = Role[R{k}; p{k}; i{k}; j{k}] and Chain[f[C]; [a{k}, b{k}]]\n"
                   for k in range(20))
    names = [f"O{k}" for k in range(20)]
    first, other = (ExpansionEnv.from_documents([parse_document(_OWN_PATTERNS + uses)])
                    for _ in range(2))
    assert _caches(first) == _caches(other) == ({}, {}, {})
    _everything(first, names)
    assert all(_caches(first)) and _caches(other) == ({}, {}, {})
    assert all(id(a) == key for key, (a, _) in first._plans.items())
    assert all(id(shape.pdef) == key for key, shape in first._shapes.items())
    del first
    gc.collect()
    # other pattern bodies, parsed into objects that may take the dropped ids
    changed = _OWN_PATTERNS.replace("Types: R Facts: p j", "Facts: p i").replace(
        "Types: C then", "Types: C Facts: r x then")
    again = ExpansionEnv.from_documents([parse_document(changed + uses)])
    got = _everything(again, names)
    assert got == _everything(ExpansionEnv.from_documents([parse_document(changed + uses)]), names)
    assert got != _everything(other, names)


def test_a_dropped_environment_is_freed_at_once():
    """Nothing an environment caches refers back to it, so dropping it
    frees it, with every expansion it holds, without the cycle collector."""
    uses = "".join(f"ontology O{k} = Role[R{k}; p{k}; i{k}; j{k}] and Chain[f[C]; [a{k}]]\n"
                   for k in range(3))
    doc = parse_document(_OWN_PATTERNS + uses)
    gc.disable()
    try:
        env = ExpansionEnv.from_documents([doc])
        _everything(env, ["O0", "O1", "O2"])
        assert all(_caches(env))
        dropped = weakref.ref(env)
        del env
        assert dropped() is None
    finally:
        gc.enable()


# --- kind clashes through expansion ---------------------------------------------

@pytest.mark.parametrize("source, name, kinds", [
    # the first frame declares every item, so its body clashes on the head
    ("pattern P [ Class: x :: xs ] = ObjectProperty: x then P[xs]\n"
     "ontology O = P[[a, b, c]]\n", "a", ("Class", "ObjectProperty")),
    # Q[A; B] declares A as a class and B as a property at once: A is least
    ("pattern Q [ Class: X; ObjectProperty: r ] = Class: X SubClassOf: r some X\n"
     "ontology O = Q[B; A] and Q[A; B]\n", "A", ("Class", "ObjectProperty")),
    ("pattern R [ Individual: i :: is ] = Class: i then R[is]\n"
     "ontology O = R[[m, n]] and Class: z\n", "m", ("Class", "Individual")),
    # a node whose own names clash once substituted names them as emitted
    ("pattern K [ Class: x; ObjectProperty: y ] = Class: x\n"
     "ontology O = K[f[a]; f[a]]\n", "f_a", ("Class", "ObjectProperty")),
    ("pattern F [ Class: x; Class: y ] = Class: x ObjectProperty: y\n"
     "ontology O = F[f[a]; f[a]] and Class: f_a\n", "f_a", ("Class", "ObjectProperty")),
    # a referenced ontology is united once expanded, before the operand
    # after it, whose clash on the lesser name a is never met
    ("ontology O = Class: z and O1 and ObjectProperty: a\n"
     "ontology O1 = ObjectProperty: z and Class: a\n", "z", ("Class", "ObjectProperty")),
    # a frame's given imports come after its declarations and before its
    # body, whose own clash on the lesser name b is never met
    ("ontology M = ObjectProperty: z\n"
     "pattern G [ Class: X ] given M = ObjectProperty: b and Class: b\n"
     "ontology O = G[z]\n", "z", ("Class", "ObjectProperty")),
])
def test_kind_clash_through_expansion_names_the_first_clash(source, name, kinds):
    """The clash reported is met at the first node, in pre-order, that
    contradicts its run's declarations so far; of the names clashing there,
    the least in (name, kind) order."""
    env = ExpansionEnv.from_documents([parse_document(source)])
    with pytest.raises(KindClash) as info:
        env.expand_named("O")
    assert (info.value.name, info.value.kinds) == (name, kinds)


def test_expansion_visits_nodes_in_preorder():
    """Obligations keep their first occurrence and the first error met is
    raised, so both show the order of the walk: union and extension
    operands left to right, a frame's own obligations before its body's,
    a pattern's given imports before its body, a named ontology's spec
    before its given imports, and imports in the order written."""
    doc = parse_document(
        "pattern Q [ {ObjectProperty: r Domain: D}; Class: D ] = Class: D\n"
        "pattern R [ {ObjectProperty: r Range: D}; Class: D ] = Q[r; D] and Q[s[r]; D]\n"
        "pattern G [ Class: X ] given M1, M2 = Missing[X]\n"
        "ontology O = Q[p1; A] and R[p2; B] then Q[p3; C] and Q[p4; D]\n"
        "ontology Bad1 = G[A]\n"
        "ontology Bad2 given M3, M4 = Class: A\n"
        "ontology Bad3 given M5 = Missing0 and Missing1\n")
    env = ExpansionEnv.from_documents([doc])

    def n(name):
        return Name(name)

    assert [ob.axiom for ob in env.obligations("O")] == [
        Domain(n("p1"), Named(n("A"))), Range(n("p2"), Named(n("B"))),
        Domain(n("p2"), Named(n("B"))), Domain(n("s_p2"), Named(n("B"))),
        Domain(n("p3"), Named(n("C"))), Domain(n("p4"), Named(n("D")))]
    for name, missing in (("Bad1", "M1"), ("Bad2", "M3"), ("Bad3", "Missing0")):
        with pytest.raises(UnknownPattern, match=f"'{missing}'"):
            env.expand_named(name)


# --- shortcuts against the plain fold --------------------------------------------

_FUZZ_PATTERNS = """
pattern Clash [ Class: x :: xs ] = ObjectProperty: x then Clash[xs]
pattern Walk [ Class: D; {ObjectProperty: p Domain: D} :: ps ] =
  Class: D then Walk[Next[D]; ps]
pattern Stay [ Class: D; {ObjectProperty: p Domain: D Range: D} :: ps ] =
  Class: D then Stay[D; ps]
pattern Spread [ Class: D; {Individual: v Types: {vs}} :: vs ] =
  Class: D then Spread[D; vs]
pattern Head [ {ObjectProperty: r Domain: h}; Class: h :: hs ] =
  ObjectProperty: r then Head[r; hs]
pattern Hand [ Class: x :: xs ] = Hand2[xs]
pattern Hand2 [ Individual: y :: ys ] = Individual: y then Hand[ys]
pattern Dup [ Class: S; {ObjectProperty: p Domain: S} :: ps ] =
  AND_nRels[S; S; r[S]; p :: ps] and Dup[S; ps] and Stay[S; p :: ps]
"""


def _fuzz_document(seed: int) -> str:
    import random

    rng = random.Random(seed)
    pool = ["a", "b", "c", "f_a", "Top"] if rng.random() < 0.4 else \
        [f"{n}{k}" for n in "abcdefg" for k in range(3)]

    def name():
        return rng.choice(["f[a]", "n[b]"]) if rng.random() < 0.1 else rng.choice(pool)

    def items():
        return "[" + ", ".join("{}" if rng.random() < 0.05 else name()
                               for _ in range(rng.randint(0, 5))) + "]"

    shapes = [
        lambda: f"Clash[{items()}]",
        lambda: f"Walk[{name()}; {items()}]",
        lambda: f"Stay[{name()}; {items()}]",
        lambda: f"Spread[{name()}; [{', '.join(name() for _ in range(rng.randint(0, 4)))}]]",
        lambda: f"Head[{name()}; {items()}]",
        lambda: f"Hand[{items()}]",
        lambda: f"Dup[{name()}; {items()}]",
        lambda: f"AND_nRels[{name()}; {name()}; {name()}; {items()}]",
        lambda: f"{rng.choice(['Class', 'ObjectProperty', 'Individual'])}: {name()}",
    ]
    lines = [_FUZZ_PATTERNS]
    for j in range(rng.randint(1, 4)):
        parts = [rng.choice(shapes)() for _ in range(rng.randint(1, 3))]
        if j and rng.random() < 0.3:
            parts.append(f"O{rng.randrange(j)}")
        lines.append(f"ontology O{j} = " + " and ".join(parts))
    return "\n".join(lines) + "\n"


def _expand_all(corpus_docs, doc):
    env = ExpansionEnv.from_documents([*corpus_docs, doc])
    out = []
    for name in doc.ontology_defs():
        try:
            out.append((env.expand_named(name), env.obligations(name)))
        except GdolError as exc:
            out.append((type(exc).__name__, str(exc)))
    return out, env.diagnostics


@pytest.mark.parametrize("seed", range(60))
def test_shortcuts_match_one_union_per_spec_node(corpus_docs, monkeypatch, seed):
    """Declaring a list's items once and skipping repeated obligations
    change nothing against every frame declaring its items and raising its
    obligations: not the ontologies, the obligations, the diagnostics, nor
    which kind clash is reported."""
    from gdol.expander import _Run

    doc = parse_document(_fuzz_document(seed))
    fast = _expand_all(corpus_docs, doc)
    with monkeypatch.context() as m:
        m.setattr(_Run, "undeclared", lambda self, kind, items, tail: True)
        m.setattr(_Run, "repeats", lambda self, *frame: False)
        reference = _expand_all(corpus_docs, doc)
    assert fast == reference


def test_every_obligation_is_canonical(corpus_docs):
    """The expander builds each obligation's axiom through the canonical
    constructors, so canonicalizing it changes nothing."""
    env = ExpansionEnv.from_documents(corpus_docs)
    obs = [ob for d in corpus_docs for name in d.ontology_defs() for ob in env.obligations(name)]
    assert len(obs) == 68
    for seed in range(60):
        doc = parse_document(_fuzz_document(seed))
        for ontology, found in _expand_all(corpus_docs, doc)[0]:
            if isinstance(ontology, Ontology):
                obs += found
    assert len(obs) > 250
    assert [ob.axiom for ob in obs if canon_axiom(ob.axiom) != ob.axiom] == []


# --- deep inputs on the main thread ------------------------------------------------

@pytest.fixture()
def main_thread(monkeypatch):
    """Fail if the test starts a thread or changes the recursion limit."""
    def refuse(*args):
        raise AssertionError("expansion must run on the calling thread's stack")

    assert threading.current_thread() is threading.main_thread()
    threads = threading.active_count()
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    yield
    assert threading.active_count() == threads


def _classes(names) -> frozenset:
    return frozenset((SymbolKind.CLASS, Name(n)) for n in names)


@pytest.mark.parametrize("op", ["and", "then"])
def test_long_union_and_extension_chains(main_thread, op):
    n = 3000
    doc = parse_document("ontology O = " + f" {op} ".join(
        f"Class: C{i} SubClassOf: C{i + 1}" for i in range(n)) + "\n")
    env = ExpansionEnv.from_documents([doc])
    o = env.expand_named("O")
    assert o.decls == _classes(f"C{i}" for i in range(n))
    assert o.axioms == {SubClassOf(Named(Name(f"C{i}")), Named(Name(f"C{i + 1}")))
                        for i in range(n)}
    assert env.obligations("O") == ()


@pytest.mark.parametrize("form", [
    "ontology O{i} = O{j} and Class: C{i}\n",
    "ontology O{i} given O{j} = Class: C{i}\n",
])
def test_long_chains_of_named_references(main_thread, form):
    n = 1200
    doc = parse_document("".join(form.format(i=i, j=i + 1) for i in range(n))
                         + f"ontology O{n} = Class: C{n}\n")
    env = ExpansionEnv.from_documents([doc])
    assert env.expand_named("O0").decls == _classes(f"C{i}" for i in range(n + 1))
    # every ontology of the chain was expanded on the way and is cached
    assert env.expand_named("O600").decls == _classes(f"C{i}" for i in range(600, n + 1))
    assert env.obligations("O0") == ()


def test_kind_clash_at_the_end_of_a_long_list(main_thread):
    # the first frame declares g0 .. g1199 as classes and its body then
    # makes g0 an object property: the clash is met before any deeper frame
    doc = parse_document(
        "pattern P [ Class: x :: xs ] = ObjectProperty: x then P[xs]\n"
        "ontology O = P[[" + ", ".join(f"g{i}" for i in range(1200)) + "]]\n")
    env = ExpansionEnv.from_documents([doc])
    with pytest.raises(KindClash) as info:
        env.expand_named("O")
    assert (info.value.name, info.value.kinds) == ("g0", ("Class", "ObjectProperty"))


def test_names_nested_by_argument_passing(main_thread):
    # frame k binds c to w[...w[A]...] with k w's, declares it and g_k, and
    # raises the obligation Domain(p, c); the frame after the last element
    # is exhausted and adds nothing
    n = 1500
    doc = parse_document(
        "pattern NestC [ {ObjectProperty: r Domain: c}; Class: c; Individual: v :: vs ] =\n"
        "  Class: c SubClassOf: Top then NestC[r; w[c]; vs]\n"
        "ontology O = ObjectProperty: p Domain: A and NestC[p; A; ["
        + ", ".join(f"g{i}" for i in range(n)) + "]]\n")
    env = ExpansionEnv.from_documents([doc])
    c = [Name("w_" * k + "A") for k in range(n)]
    o = env.expand_named("O")
    assert o.decls == ({(SymbolKind.OBJECT_PROPERTY, Name("p"))}
                       | {(SymbolKind.CLASS, ck) for ck in c}
                       | {(SymbolKind.INDIVIDUAL, Name(f"g{i}")) for i in range(n)})
    top = Named(Name("Top"))
    assert o.axioms == {Domain(Name("p"), Named(Name("A")))} | {
        SubClassOf(Named(ck), top) for ck in c}
    obs = env.obligations("O")
    assert [ob.axiom for ob in obs] == [Domain(Name("p"), Named(ck)) for ck in c]
    assert {(ob.pattern, ob.param, ob.index) for ob in obs} == {("NestC", "r", 0)}
    # only the first is told; Top is never declared, so no SubClassOf of it holds
    assert [ob.status for ob in check_obligations(obs)] == ["proven"] + ["unproven"] * (n - 1)
    ref = parse_document("refinement R = O refined to O\n").refinement_defs()["R"]
    unproven = {axiom for axiom, result in check_refinement(ref, env).results
                if not result.proven}
    assert unproven == {SubClassOf(Named(ck), top) for ck in c}
