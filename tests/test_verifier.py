"""Entailment rules, obligation checking, refinement, and export."""
from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from conftest import ROOT
from prover_reference import ReferenceTheory

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
    MapKindMismatch,
    Name,
    Named,
    Obligation,
    OneOf,
    Ontology,
    PropAssertion,
    PropExpr,
    Range,
    RuleEngineConfig,
    SubClassOf,
    SubPropertyChain,
    Some,
    SubPropertyOf,
    SymbolKind,
    Transitive,
    check_obligations,
    check_refinement,
    entails,
    export_obligations,
    parse_document,
    parse_manchester_fragment,
)
from gdol import verifier
from gdol.model import axiom_names, canon_axiom, map_ontology, subst_axiom
from gdol.verifier import ALL_RULES


def N(s: str) -> Named:
    return Named(Name(s))


def P(s: str, inverse: bool = False) -> PropExpr:
    return PropExpr(Name(s), inverse)


def proven(theory_text: str, goal, **cfg) -> bool:
    config = RuleEngineConfig(**cfg) if cfg else RuleEngineConfig()
    return entails(parse_manchester_fragment(theory_text), goal, config).proven


# --- subsumption ----------------------------------------------------------

SUBCLASS_THEORY = "Class: A SubClassOf: B\nClass: B SubClassOf: C\nClass: C\n"


def test_subclass_reachability_is_reflexive_and_transitive():
    assert proven(SUBCLASS_THEORY, SubClassOf(N("A"), N("C")))
    assert proven(SUBCLASS_THEORY, SubClassOf(N("A"), N("A")))
    assert not proven(SUBCLASS_THEORY, SubClassOf(N("C"), N("A")))


def test_equivalence_contributes_edges_both_ways():
    t = "Class: A EquivalentTo: B\nClass: B SubClassOf: C\nClass: C\n"
    assert proven(t, SubClassOf(N("B"), N("A")))
    assert proven(t, SubClassOf(N("A"), N("C")))
    assert proven(t, EquivalentClasses(N("A"), N("B")))
    assert not proven(t, EquivalentClasses(N("A"), N("C")))


def test_intersection_introduction_and_elimination():
    intro = "Class: A SubClassOf: B\nClass: A SubClassOf: C\nClass: B\nClass: C\n"
    assert proven(intro, SubClassOf(N("A"), And((N("B"), N("C")))))
    elim = "Class: A SubClassOf: B and (C)\nClass: B\nClass: C\n"
    assert proven(elim, SubClassOf(N("A"), N("B")))
    assert proven(elim, SubClassOf(N("A"), N("C")))
    # an intersection only the goal mentions is eliminated too
    assert proven(intro, SubClassOf(And((N("B"), N("C"))), N("C")))


def test_disjointness_lifts_through_subclasses():
    t = ("Class: C DisjointWith: D\nClass: A SubClassOf: C\n"
         "Class: B SubClassOf: D\n")
    assert proven(t, DisjointClasses(N("A"), N("B")))
    assert proven(t, DisjointClasses(N("B"), N("A")))
    assert not proven(t, DisjointClasses(N("A"), N("C")))


# --- property hierarchy -----------------------------------------------------

PROP_THEORY = ("ObjectProperty: r SubPropertyOf: s\n"
               "ObjectProperty: s SubPropertyOf: t\nObjectProperty: t\n"
               "ObjectProperty: rinv InverseOf: r\n")


def test_subproperty_reachability():
    assert proven(PROP_THEORY, SubPropertyOf(P("r"), P("t")))
    assert not proven(PROP_THEORY, SubPropertyOf(P("t"), P("r")))


def test_inverse_declarations_transfer_the_hierarchy():
    assert proven(PROP_THEORY, SubPropertyOf(P("rinv"), P("s", inverse=True)))
    assert proven(PROP_THEORY, InverseProps(Name("rinv"), Name("r")))
    assert proven(PROP_THEORY, InverseProps(Name("r"), Name("rinv")))


def test_domain_and_range_lift_through_both_hierarchies():
    t = ("ObjectProperty: p Domain: C Range: R\n"
         "ObjectProperty: q SubPropertyOf: p\n"
         "Class: C SubClassOf: D\nClass: D\n"
         "Class: R SubClassOf: S\nClass: S\n"
         "ObjectProperty: pinv InverseOf: p\n")
    assert proven(t, Domain(Name("q"), N("D")))
    assert proven(t, Range(Name("q"), N("S")))
    assert proven(t, Domain(Name("pinv"), N("S")))
    assert proven(t, Range(Name("pinv"), N("D")))
    assert not proven(t, Domain(Name("p"), N("R")))


def test_scoped_axioms_do_not_yield_global_domains():
    t = ("Class: D SubClassOf: p some R and p only R\n"
         "Class: R\nObjectProperty: p\n")
    assert not proven(t, Domain(Name("p"), N("D")))
    assert not proven(t, Range(Name("p"), N("R")))


# --- individuals -------------------------------------------------------------

def test_facts_lift_through_subproperties_and_inverses():
    t = ("Individual: a Facts: r b\nIndividual: b\n"
         "ObjectProperty: r SubPropertyOf: s\nObjectProperty: s\n"
         "ObjectProperty: rinv InverseOf: r\n")
    assert proven(t, PropAssertion(Name("r"), Name("a"), Name("b")))
    assert proven(t, PropAssertion(Name("s"), Name("a"), Name("b")))
    assert proven(t, PropAssertion(Name("rinv"), Name("b"), Name("a")))
    assert not proven(t, PropAssertion(Name("s"), Name("b"), Name("a")))


def test_class_membership_via_enumerations():
    t = ("Class: C EquivalentTo: {a, b}\nClass: C SubClassOf: D\nClass: D\n"
         "Individual: a\nIndividual: b\n")
    assert proven(t, ClassAssertion(N("C"), Name("a")))
    assert proven(t, ClassAssertion(N("D"), Name("b")))
    assert not proven(t, ClassAssertion(N("C"), Name("C")))


def test_functional_lifts_but_transitive_does_not():
    t = ("ObjectProperty: q Characteristics: Functional, Transitive\n"
         "ObjectProperty: p SubPropertyOf: q\n")
    assert proven(t, Functional(Name("p")))
    assert proven(t, Transitive(Name("q")))
    assert not proven(t, Transitive(Name("p")))


def test_chains_match_exactly():
    t = "ObjectProperty: same SubPropertyChain: f o inverse f\nObjectProperty: f\n"
    assert proven(t, SubPropertyChain(Name("same"), (P("f"), P("f", inverse=True))))
    assert not proven(t, SubPropertyChain(Name("same"), (P("f"), P("f"))))


def test_distinctness_holds_for_subsets():
    t = ("Individual: a\nIndividual: b\nIndividual: c\nIndividual: d\n"
         "DifferentIndividuals: a, b, c\n")
    assert proven(t, DifferentIndividuals((Name("a"), Name("c"))))
    assert not proven(t, DifferentIndividuals((Name("a"), Name("d"))))


# --- engine mechanics ---------------------------------------------------------

def test_goals_over_undeclared_names_are_rejected_with_a_diagnostic():
    res = entails(parse_manchester_fragment("Class: A SubClassOf: B\nClass: B\n"),
                  SubClassOf(N("A"), N("Zzz")))
    assert not res.proven
    assert "Zzz" in res.reason
    assert not res.step_limited


def test_step_limit_is_reported():
    res = entails(parse_manchester_fragment(SUBCLASS_THEORY),
                  SubClassOf(N("A"), N("C")),
                  RuleEngineConfig(step_limit=1))
    assert not res.proven
    assert res.step_limited


@pytest.mark.parametrize("limit", [-1, True, "5", 5.0], ids=["negative", "bool", "str", "float"])
def test_a_step_limit_that_is_no_count_is_rejected(limit):
    with pytest.raises(ValueError) as info:
        RuleEngineConfig(step_limit=limit)
    assert str(info.value) == f"step_limit must be a non-negative int, got {limit!r}"
    assert RuleEngineConfig(step_limit=0).step_limit == 0


def test_rules_can_be_disabled_individually():
    others = frozenset({"R2", "R3", "R4", "R5", "R6", "R7"})
    assert not proven(SUBCLASS_THEORY, SubClassOf(N("A"), N("C")), rules=others)
    no_r4 = frozenset({"R1", "R2", "R3", "R5", "R6", "R7"})
    assert not proven(PROP_THEORY, SubPropertyOf(P("r"), P("t")), rules=no_r4)


def test_the_readme_rule_table_has_one_row_per_label():
    """The README's rows, `ALL_RULES` and the labels on the prover's told
    and goal tables are one set, so every rule gates at least one entry."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    labels = re.findall(r"^\| (R\d+) \|", text, flags=re.MULTILINE)
    assert sorted(labels) == sorted(ALL_RULES)
    told = {label for entries in verifier._TOLD.values() for label, _ in entries}
    goals = {label for label, _ in verifier._GOALS.values()}
    assert (told | goals) - {None} == ALL_RULES


@pytest.mark.parametrize("rules", [(ALL_RULES - {"R1"}) | {"r1"}, frozenset({"R8"})],
                         ids=["r1", "R8"])
def test_an_unknown_rule_label_is_rejected(rules):
    unknown = next(iter(rules - ALL_RULES))
    with pytest.raises(ValueError, match=f"unknown rule labels: '{unknown}'$"):
        RuleEngineConfig(rules)
    assert RuleEngineConfig(rules & ALL_RULES).rules == rules & ALL_RULES


def test_a_goals_own_conjunction_is_introduced_with_r3_off():
    """As the README's rule table states: without R3 a told conjunction
    gives no edge to its conjuncts, but a goal's own is still introduced."""
    theory = "Class: A SubClassOf: B, C\nClass: B\nClass: C\nClass: D SubClassOf: B and C\n"
    no_r3 = ALL_RULES - {"R3"}
    assert proven(theory, SubClassOf(N("A"), And((N("B"), N("C")))), rules=no_r3)
    assert not proven(theory, SubClassOf(N("D"), N("B")), rules=no_r3)
    assert proven(theory, SubClassOf(N("D"), N("B")))


def test_an_empty_conjunction_is_never_introduced():
    """As the README states: no parser or canonical constructor builds
    And(()), and a walk reaches a conjunction only when popping a conjunct
    counts it down to none left, so a goal naming the empty one is unproven
    under every rule subset."""
    theory = "Class: A SubClassOf: B\nClass: B\n"
    for rules in RULE_SUBSETS:
        assert not proven(theory, SubClassOf(N("A"), And(())), rules=rules)


def test_entailment_is_monotone_under_union(env):
    theory = parse_manchester_fragment(SUBCLASS_THEORY)
    goal = SubClassOf(N("A"), N("C"))
    bigger = theory.union(env.expand_named("Driver_log"))
    assert entails(theory, goal).proven
    assert entails(bigger, goal).proven


# --- obligations over the corpus ---------------------------------------------

FROZEN_ROLES_UNPROVEN = {
    Domain(Name("isDriverRoleOf"), N("Driver")),
    Range(Name("hasLicence"), N("DrivingLicence")),
    Domain(Name("hasLicence"), N("PotentialDriver")),
    Range(Name("hasTemporalExtent"), N("TemporalExtent")),
    Domain(Name("isPotentialDriverRoleOf"), N("PotentialDriver")),
    Range(Name("isPotentialDriverRoleOf"), N("Person")),
}


def test_role_log_obligations_all_fail_without_global_declarations(env):
    obs = env.obligations("Roles_Driver_log")
    checked = check_obligations(obs)
    assert len(checked) == 6
    assert all(ob.status == "unproven" for ob in checked)
    assert {ob.axiom for ob in checked} == FROZEN_ROLES_UNPROVEN


def test_driver_log_obligations(env):
    checked = check_obligations(env.obligations("Driver_log"))
    assert len(checked) == 47
    unproven = {ob.axiom for ob in checked if ob.status == "unproven"}
    assert unproven == {
        Domain(Name("licencedAs"), N("Person")),
        Range(Name("licencedAs"), N("LicencedPerson")),
        Domain(Name("mightDrive"), N("PotentialDriver")),
        Range(Name("mightDrive"), N("RoadVehicle")),
        Domain(Name("licencedFor"), N("PotentialDriver")),
        Range(Name("licencedFor"), N("RoadVehicle")),
    }
    # table cells produce per-element membership obligations that do prove
    assert ClassAssertion(N("DrivingLicence"), Name("D1LightBus")) in {
        ob.axiom for ob in checked if ob.status == "proven"}


def test_data_log_discharges_everything_including_the_precondition(env):
    checked = check_obligations(env.obligations("Data_Driver_log"))
    assert len(checked) == 11
    assert all(ob.status == "proven" for ob in checked)
    precondition = PropAssertion(Name("licencedFor_le_BMotorVehicle"),
                                 Name("bkb_PotentialDriver"), Name("bkbs_VWBus"))
    assert precondition in {ob.axiom for ob in checked}


def test_ontologies_without_constraints_have_no_obligations(env):
    assert env.obligations("TEMPORAL_Extent_Vehicle_log") == ()


def test_obligations_reference_their_own_ontology(env):
    obs = env.obligations("Data_Driver_log")
    assert {ob.ontology for ob in obs} == {"Data_Driver_log"}
    assert {ob.pattern for ob in obs} == {"DATA_Role", "DATA_Driver_Role"}


def test_le_chain_is_derivable_from_the_expanded_log(env):
    driver = env.expand_named("Driver_log")
    goal = SubPropertyOf(P("licencedFor_le_DBus"), P("licencedFor_BMotorVehicle"))
    assert entails(driver, goal).proven


# --- refinement -------------------------------------------------------------

def test_refinement_chain_holds(corpus_docs, env):
    refs = {}
    for d in corpus_docs:
        refs.update(d.refinement_defs())
    assert len(refs) == 3
    for name, refdef in refs.items():
        report = check_refinement(refdef, env)
        assert report.ok, f"{name}: {report.unproven}"


def test_weakened_target_fails_on_exactly_the_dropped_axiom(corpus_docs):
    weak = parse_document(
        "refinement Weak = TotalRELATION_Scoped[D; p; R]\n"
        "  refined to TotalRELATION_ScopedRange[D; p; R]\n")
    env = ExpansionEnv.from_documents(list(corpus_docs) + [weak])
    report = check_refinement(weak.refinement_defs()["Weak"], env)
    assert len(report.results) == 2
    assert len(report.unproven) == 1
    assert isinstance(report.unproven[0], EquivalentClasses)


def test_symbol_maps_must_preserve_kinds(corpus_docs):
    bad = parse_document(
        "refinement M = CLOSED_Scope[Class: D; Class: R; ObjectProperty: p]\n"
        "  refined to CLOSED_Scope[Class: D2; Class: R2; ObjectProperty: p2]\n"
        "  with D |-> p2\n")
    env = ExpansionEnv.from_documents(list(corpus_docs) + [bad])
    with pytest.raises(MapKindMismatch):
        check_refinement(bad.refinement_defs()["M"], env)


def test_symbol_maps_rename_the_source(corpus_docs):
    ref = parse_document(
        "refinement R = CLOSED_Scope[Class: D; Class: R; ObjectProperty: p]\n"
        "  refined to CLOSED_Scope[Class: D2; Class: R2; ObjectProperty: p2]\n"
        "  with D |-> D2, R |-> R2, p |-> p2\n")
    env = ExpansionEnv.from_documents(list(corpus_docs) + [ref])
    report = check_refinement(ref.refinement_defs()["R"], env)
    assert report.ok


@pytest.mark.parametrize("pairs, first, second", [
    ("D |-> D2, R |-> R2, p |-> p2, D |-> R2", "D |-> D2", "D |-> R2"),
    ("f[D] |-> D2, f_D |-> R2", "f[D] |-> D2", "f_D |-> R2"),
], ids=["repeated-source", "stratified-source"])
def test_a_symbol_map_is_a_function_of_stratified_names(corpus_docs, pairs, first, second):
    doc = parse_document(
        "refinement M = CLOSED_Scope[Class: D; Class: R; ObjectProperty: p]\n"
        f"  refined to CLOSED_Scope[Class: D2; Class: R2; ObjectProperty: p2] with {pairs}\n")
    env = ExpansionEnv.from_documents(list(corpus_docs) + [doc])
    with pytest.raises(GdolError) as err:
        check_refinement(doc.refinement_defs()["M"], env)
    assert str(err.value) == (
        f"refinement M: symbol map entries {first} and {second} send one name to two targets")


# --- export -------------------------------------------------------------------

def test_export_writes_one_file_per_obligation(env, tmp_path):
    checked = check_obligations(env.obligations("Data_Driver_log"))
    paths = export_obligations(checked, tmp_path)
    assert len(paths) == 11
    assert len({p.name for p in paths}) == 11
    names = {p.name for p in paths}
    assert "Data_Driver_log__DATA_Role__performs__0.omn" in names
    assert "Data_Driver_log__DATA_Role__performs__1.omn" in names
    body = (tmp_path / "Data_Driver_log__DATA_Role__performs__0.omn").read_text()
    assert "%% goal:" in body and "%% from: Data_Driver_log :: DATA_Role/performs#0" in body
    # the context theory is embedded in full
    assert "ObjectProperty: licencedAs" in body


def test_export_never_writes_two_obligations_to_one_file(tmp_path):
    goal = SubClassOf(N("A"), N("B"))
    # ontology A instantiating B__C and ontology A__B instantiating C both
    # name their first obligation on X `A__B__C__X__0`
    obs = [Obligation(goal, "A__B", "C", "X", 0), Obligation(goal, "A", "B__C", "X", 0),
           Obligation(goal, "A", "B__C", "X", 1), Obligation(goal, "A__B", "C", "Y", 0)]
    paths = export_obligations(obs, tmp_path)
    assert [p.name for p in paths] == ["A__B__C__X__0.omn", "A__B__C__X__2.omn",
                                       "A__B__C__X__1.omn", "A__B__C__Y__0.omn"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in paths)
    for p, ob in zip(paths, obs):
        assert p.read_text().endswith(f"%% from: {ob.ontology} :: {ob.pattern}/{ob.param}#{ob.index}\n")


def test_export_takes_the_directory_as_a_string(tmp_path):
    out = tmp_path / "new"
    paths = export_obligations([Obligation(SubClassOf(N("A"), N("B")), "O", "P", "X")], str(out))
    assert paths == [out / "O__P__X__0.omn"] and paths[0].is_file()


# --- shared theories: batch checking matches goal-at-a-time checking ------------

CLASS_NAMES = [N(c) for c in "ABCDE"]
PROP_NAMES = ["p", "q", "r", "s"]
INDIVIDUALS = ["a", "b", "c"]
# every rule, each one dropped, none, and each one alone: a rule that is
# wrong alone could hide behind another
RULE_SUBSETS = ([ALL_RULES] + [ALL_RULES - {r} for r in sorted(ALL_RULES)]
                + [frozenset()] + [frozenset({r}) for r in sorted(ALL_RULES)])
STEP_LIMITS = [1, 3, 7, 20, 100, RuleEngineConfig().step_limit]


def _random_expr(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth >= 2 or roll < 0.45:
        return rng.choice(CLASS_NAMES)
    if roll < 0.75:
        return And(tuple(_random_expr(rng, depth + 1) for _ in range(rng.randint(2, 3))))
    if roll < 0.9:
        return Some(P(rng.choice(PROP_NAMES), rng.random() < 0.3), _random_expr(rng, depth + 1))
    return OneOf(tuple(Name(i) for i in rng.sample(INDIVIDUALS, rng.randint(1, 2))))


def _random_axiom(rng: random.Random):
    c, d = _random_expr(rng), _random_expr(rng)
    p, q = (Name(x) for x in rng.choices(PROP_NAMES, k=2))
    pe, qe = (PropExpr(n, rng.random() < 0.3) for n in (p, q))
    i, j = (Name(x) for x in rng.choices(INDIVIDUALS, k=2))
    return rng.choice([
        SubClassOf(c, d), SubClassOf(c, d), EquivalentClasses(c, d), DisjointClasses(c, d),
        SubPropertyOf(pe, qe), InverseProps(p, q), Domain(p, c), Range(p, c),
        Functional(p), Transitive(p), SubPropertyChain(p, (pe, qe)),
        ClassAssertion(c, i), PropAssertion(p, i, j), DifferentIndividuals((i, j)),
    ])


def _random_obligations(seed: int) -> list[Obligation]:
    """Goals over two random contexts, the first checked again after the
    second.  Many goals carry And-nodes their context lacks; each
    subsumption goal is followed by one from the same class, so goals with
    and without such And-nodes walk from the same start.  A few goals
    mention an undeclared name."""
    rng = random.Random(seed)
    decls = ([(SymbolKind.CLASS, n.name) for n in CLASS_NAMES]
             + [(SymbolKind.OBJECT_PROPERTY, Name(p)) for p in PROP_NAMES]
             + [(SymbolKind.INDIVIDUAL, Name(i)) for i in INDIVIDUALS])
    contexts = [Ontology.of(decls, (_random_axiom(rng) for _ in range(rng.randint(4, 16))))
                for _ in range(2)]
    obs = []
    for ctx in (contexts[0], contexts[1], contexts[0]):
        for k in range(10):
            goal = _random_axiom(rng)
            if rng.random() < 0.05:
                goal = SubClassOf(_random_expr(rng), N("Undeclared"))
            obs.append(Obligation(goal, "random", "P", "x", k, ctx))
            if isinstance(goal, SubClassOf):
                obs.append(Obligation(SubClassOf(goal.sub, _random_expr(rng)), "random", "P", "y", k, ctx))
    return obs


def _generated_document(seed: int, n: int = 8) -> str:
    """A shared context under AND_nRels, as in the benchmark, plus small
    DATA_Role ontologies, some stating the global domain and range."""
    rng = random.Random(seed)
    props = [f"q{i}" for i in range(n)]
    frames = ["Class: S0 SubClassOf: S1", "Class: S1 SubClassOf: S", "Class: S",
              "Class: T0 SubClassOf: T", "Class: T", "Class: U",
              "ObjectProperty: hubA Domain: S0 Range: T0",
              "ObjectProperty: hubB Domain: S0 Range: U"]
    frames += [f"ObjectProperty: {q} SubPropertyOf: {rng.choice(['hubA', 'hubB'])}" for q in props]
    rng.shuffle(frames)
    lines = ["ontology Ctx =\n  " + "\n  ".join(frames),
             f"ontology Shared = Ctx and AND_nRels[S; T; r; [{', '.join(props)}]]"]
    for i in range(3):
        spec = f"DATA_Role[R{i}; P{i}; does{i}; V{i}; by{i}; perf{i}; prov{i}; rle{i}]"
        if rng.random() < 0.5:
            spec += f" and ObjectProperty: does{i} Domain: P{i} Range: R{i}"
        lines.append(f"ontology Role{i} = {spec}")
    return "\n".join(lines) + "\n"


def _named_obligations(env, names) -> list[Obligation]:
    return [ob for n in names for ob in env.obligations(n)]


@pytest.fixture(scope="module")
def corpus_and_generated_obligations(corpus_docs) -> list[Obligation]:
    env = ExpansionEnv.from_documents(corpus_docs)
    names = sorted(name for d in corpus_docs for name in d.ontology_defs())
    obs = _named_obligations(env, names)
    for seed in range(3):
        gen = ExpansionEnv.from_documents([*corpus_docs, parse_document(_generated_document(seed))])
        obs += _named_obligations(gen, ["Shared", "Role0", "Role1", "Role2"])
    return obs


def _with_steps(monkeypatch, check):
    """check()'s result and the steps charged to each goal that got past
    the declared-name check, in the order the goals were checked."""
    counters = []

    class Recording(verifier._Counter):
        def __init__(self, limit):
            super().__init__(limit)
            counters.append(self)

    with monkeypatch.context() as m:
        m.setattr(verifier, "_Counter", Recording)
        result = check()
    # a goal stopped at the limit may have been charged a cached walk at once
    return result, [min(c.n, c.limit + 1) for c in counters]


def _results(obs) -> list[tuple[str, str]]:
    return [(ob.status, ob.diagnostic) for ob in obs]


def _assert_batch_matches_single_goals(monkeypatch, obs, config):
    def one_at_a_time():
        out = []
        for ob in obs:
            res = entails(ob.context, ob.axiom, config)
            out.append(("proven" if res.proven else "unproven", res.reason))
        return out

    alone, steps = _with_steps(monkeypatch, one_at_a_time)
    batch, batch_steps = _with_steps(monkeypatch, lambda: check_obligations(obs, config))
    assert _results(batch) == alone
    assert batch_steps == steps
    backwards, back_steps = _with_steps(monkeypatch, lambda: check_obligations(obs[::-1], config))
    assert _results(backwards)[::-1] == alone
    assert back_steps[::-1] == steps


def _subset_id(rules) -> str:
    if len(rules) < 2:
        return f"only-{min(rules)}" if rules else "none"
    return "-".join(sorted(ALL_RULES - rules)) or "all"


@pytest.mark.parametrize("rules", RULE_SUBSETS, ids=_subset_id)
@pytest.mark.parametrize("step_limit", STEP_LIMITS)
def test_batches_over_random_theories_match_single_goals(monkeypatch, rules, step_limit):
    config = RuleEngineConfig(rules, step_limit)
    for seed in range(12):
        _assert_batch_matches_single_goals(monkeypatch, _random_obligations(seed), config)


@pytest.mark.parametrize("rules", RULE_SUBSETS, ids=_subset_id)
def test_batches_over_corpus_and_generated_contexts_match_single_goals(
        monkeypatch, corpus_and_generated_obligations, rules):
    obs = corpus_and_generated_obligations
    assert len({id(ob.context) for ob in obs}) > 10
    for step_limit in STEP_LIMITS:
        _assert_batch_matches_single_goals(monkeypatch, obs, RuleEngineConfig(rules, step_limit))


# iteration order too: a goal that stops at its first success is charged
# the steps of the walks it made before it
_INDEX = ("class_edges", "and_nodes", "prop_edges", "prop_redges", "domains", "func_nodes",
          "holds", "types", "diffs", "disjoints")


def _in_order(value):
    if isinstance(value, dict):
        return [(k, _in_order(v)) for k, v in value.items()]
    return list(value)


def _charged(told, goal) -> tuple[bool | None, int]:
    counter = verifier._Counter(RuleEngineConfig().step_limit)
    try:
        proven = told.for_goal(goal).prove(goal, counter)
    except verifier._StepLimit:
        proven = None
    return proven, counter.n


@pytest.mark.parametrize("rules", RULE_SUBSETS, ids=_subset_id)
def test_told_index_and_steps_match_the_structural_reference(rules):
    """The class tables index a context as the structural `match` does,
    field by field and in iteration order, and charge every goal the same
    steps, so no verdict under any step limit can move."""
    config = RuleEngineConfig(rules)
    for seed in range(12):
        obs = _random_obligations(seed)
        theories = {}
        for ob in obs:
            if id(ob.context) not in theories:
                told, ref = verifier._Theory(ob.context, config), ReferenceTheory(ob.context, config)
                for field in _INDEX:
                    assert _in_order(getattr(told, field)) == _in_order(getattr(ref, field)), field
                theories[id(ob.context)] = told, ref
            told, ref = theories[id(ob.context)]
            goal = canon_axiom(ob.axiom)
            assert _charged(told, goal) == _charged(ref, goal), goal


# hand-built, so not canonical: an And-node can be another's operand, and an
# operand can repeat; the inner conjunction is also told below the outer one
_INNER, _TWICE = And((N("B"), N("C"))), And((N("A"), N("A")))
_OUTER = And((N("A"), _INNER))
_NESTED = Ontology(axioms=frozenset({
    SubClassOf(N("S"), N("A")), SubClassOf(N("S"), N("B")), SubClassOf(N("S"), N("C")),
    SubClassOf(N("X"), _OUTER), EquivalentClasses(N("F"), _OUTER),
    SubClassOf(_INNER, N("D")), SubClassOf(_TWICE, N("E")), SubClassOf(_INNER, _OUTER),
}))


@pytest.mark.parametrize("rules", [ALL_RULES, ALL_RULES - {"R3"}], ids=_subset_id)
def test_nested_and_repeated_conjunctions_match_the_structural_reference(rules):
    config = RuleEngineConfig(rules)
    told, ref = verifier._Theory(_NESTED, config), ReferenceTheory(_NESTED, config)
    exprs = [N(c) for c in "SABCDEFX"] + [
        _INNER, _TWICE, _OUTER, And((N("D"), N("E"))), And((N("E"), N("E"))),
        And((N("F"), And((N("D"), N("E"))))), And((_OUTER, _TWICE))]
    proven = 0
    for sub in exprs:
        for sup in exprs:
            goal = SubClassOf(sub, sup)
            charged = _charged(told, goal)
            assert charged == _charged(ref, goal), goal
            proven += charged[0] is True
    assert proven > len(exprs)  # some goals need an And-node introduced


def _and_chain(k: int) -> Ontology:
    """S below A0 and B, and for each i < k, Xi equivalent to Ai and B and
    below A(i+1): the walk from S to Ak introduces the k And-nodes one
    frontier at a time."""
    return parse_manchester_fragment("Class: B\nClass: S SubClassOf: A0 and B\n" + "".join(
        f"Class: X{i} EquivalentTo: A{i} and B\nClass: X{i} SubClassOf: A{i + 1}\n"
        for i in range(k)) + f"Class: A{k}\n")


def test_the_and_chain_is_charged_steps_linear_in_its_length():
    for k, steps in ((100, 903), (200, 1803), (400, 3603), (800, 7203)):
        chain = _and_chain(k)
        goal = SubClassOf(N("S"), N(f"A{k}"))
        assert _charged(verifier._Theory(chain, RuleEngineConfig()), goal) == (True, steps)
        assert _charged(ReferenceTheory(chain, RuleEngineConfig()), goal) == (True, steps)
        assert entails(chain, goal) == verifier.EntailmentResult(True)


class _CountingSlot:
    """Stands in for a slot of a node class and counts its reads."""

    def __init__(self, slot) -> None:
        self.slot, self.reads = slot, 0

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        self.reads += 1
        return self.slot.__get__(obj, cls)

    def __set__(self, obj, value) -> None:
        self.slot.__set__(obj, value)


def test_a_walk_examines_each_and_node_a_bounded_number_of_times(monkeypatch):
    """Every look at an And-node reads its operands: hashing it, counting
    it down, or checking them all.  A walk that scanned every And-node each
    time its frontier drained would read them k times as often on the chain
    of k; counted down by operand, the reads grow with k."""
    reads = {}
    for k in (200, 800):
        told = verifier._Theory(_and_chain(k), RuleEngineConfig())
        counting = _CountingSlot(And.__dict__["operands"])
        with monkeypatch.context() as m:
            m.setattr(And, "operands", counting)
            assert told.prove(SubClassOf(N("S"), N(f"A{k}")), verifier._Counter(10 ** 6))
        reads[k] = counting.reads
    assert reads[800] <= 4.2 * reads[200]


def test_random_goals_reach_every_verdict():
    # the differential tests above mean little unless all outcomes occur
    seen = set()
    for step_limit in (20, RuleEngineConfig().step_limit):
        for seed in range(12):
            for ob in check_obligations(_random_obligations(seed), RuleEngineConfig(step_limit=step_limit)):
                seen.add((ob.status, ob.diagnostic.split(" ")[0]))
    assert seen == {("proven", ""), ("unproven", "not"), ("unproven", "step"),
                    ("unproven", "goal")}


def _verdicts(theory, goals, step_limit):
    obs = [Obligation(g, "t", "P", "x", 0, theory) for g in goals]
    return [ob.diagnostic or ob.status
            for ob in check_obligations(obs, RuleEngineConfig(step_limit=step_limit))]


def test_each_goal_is_charged_the_steps_a_fresh_engine_spends():
    t = parse_manchester_fragment("Class: C DisjointWith: D\nClass: A SubClassOf: D\n"
                                  "Class: B SubClassOf: C\nClass: D\n")
    a_in_d, disjoint = SubClassOf(N("A"), N("D")), DisjointClasses(N("A"), N("B"))
    # walking from A or from B takes 3 steps; the disjointness goal walks
    # from A, fails its first disjunct, reuses that walk, then walks from B
    assert _verdicts(t, [disjoint], 6) == ["proven"]
    assert _verdicts(t, [disjoint], 5) == ["step limit 5 reached"]
    # the walk from A that an earlier goal cached is charged again
    assert _verdicts(t, [a_in_d, disjoint], 5) == ["proven", "step limit 5 reached"]
    # the goal's own And-node lengthens the walk from A (5 -> 9 steps) for that goal only
    intro = parse_manchester_fragment("Class: A SubClassOf: B\nClass: A SubClassOf: C\n"
                                      "Class: B\nClass: C\n")
    both, one = SubClassOf(N("A"), And((N("B"), N("C")))), SubClassOf(N("A"), N("B"))
    assert _verdicts(intro, [both, one], 5) == ["step limit 5 reached", "proven"]
    assert _verdicts(intro, [one, both], 8) == ["proven", "step limit 8 reached"]
    assert _verdicts(intro, [both, one], 9) == ["proven", "proven"]


# each goal has a candidate behind the ten-class chain X0 ... X9 and one
# that proves it in a few steps (b's types X0 and Y; p's domain X0 and q's
# X5 and Y; the disjoint pairs X9, D and C, D), so the order candidates are
# tried in could set its steps
_NEAR_LIMIT = """
from gdol import (ClassAssertion, DisjointClasses, Domain, Name, Named, RuleEngineConfig,
                  entails, parse_manchester_fragment)
chain = "".join(f"Class: X{i} SubClassOf: X{i + 1}\\n" for i in range(9))
theory = parse_manchester_fragment(
    chain + "Class: X9 DisjointWith: D\\nClass: C DisjointWith: D\\nClass: D\\n"
    "Class: Y SubClassOf: D\\nClass: A SubClassOf: X0\\nClass: B SubClassOf: Y\\n"
    "Individual: b Types: X0, Y\\n"
    "ObjectProperty: p SubPropertyOf: q Domain: X0\\nObjectProperty: q Domain: X5, Y\\n")
D = Named(Name("D"))
for goal in (ClassAssertion(D, Name("b")), Domain(Name("p"), D),
             DisjointClasses(Named(Name("A")), Named(Name("B")))):
    # the least step limit that proves the goal is the steps it is charged
    print(next(k for k in range(1, 41)
               if entails(theory, goal, RuleEngineConfig(step_limit=k)).proven))
"""


def test_verdicts_near_the_step_limit_do_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = set()
    for seed in range(6):
        env = {**os.environ, "PYTHONHASHSEED": str(seed),
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", _NEAR_LIMIT], capture_output=True, text=True,
                              env=env, check=True)
        outs.add(proc.stdout)
    assert outs == {"22\n34\n26\n"}


def _theory_builds(monkeypatch, check):
    builds = []
    init = verifier._Theory.__init__

    def counting_init(self, ont, config):
        builds.append(ont)
        init(self, ont, config)

    with monkeypatch.context() as m:
        m.setattr(verifier._Theory, "__init__", counting_init)
        check()
    return builds


def test_a_context_is_built_once_per_run_of_its_obligations(corpus_docs, monkeypatch):
    n = 20
    props = ", ".join(f"q{i}" for i in range(n))
    doc = parse_document(f"ontology Many = AND_nRels[S; T; r; [{props}]]\n"
                         "ontology Other = AND_nRels[S; T; r; [z0, z1]]\n")
    env = ExpansionEnv.from_documents([*corpus_docs, doc])
    many, other = _named_obligations(env, ["Many"]), _named_obligations(env, ["Other"])
    assert len(many) == 2 * n
    assert len(_theory_builds(monkeypatch, lambda: check_obligations(many))) == 1
    builds = _theory_builds(monkeypatch, lambda: check_obligations([*many, *other, *many]))
    assert [b is many[0].context for b in builds] == [True, False, True]


def test_a_batch_frees_the_last_context_before_building_the_next(corpus_docs, monkeypatch):
    doc = parse_document("ontology One = AND_nRels[S; T; r; [q0, q1]]\n"
                         "ontology Two = AND_nRels[S; T; r; [z0, z1]]\n")
    obligations = _named_obligations(ExpansionEnv.from_documents([*corpus_docs, doc]), ["One", "Two"])
    built: list[weakref.ref] = []
    alive: list[int] = []  # told parts still reachable as each one is built
    init = verifier._Theory.__init__

    def watching_init(self, ont, config):
        alive.append(sum(ref() is not None for ref in built))
        built.append(weakref.ref(self))
        init(self, ont, config)

    monkeypatch.setattr(verifier._Theory, "__init__", watching_init)
    check_obligations([*obligations, *obligations])
    assert alive == [0, 0, 0, 0]


def test_a_refinement_target_is_built_once(corpus_docs, env, monkeypatch):
    refs = [r for d in corpus_docs for r in d.refinement_defs().values()]
    sentences = 0
    for refdef in refs:
        reports = []
        assert len(_theory_builds(monkeypatch, lambda: reports.append(check_refinement(refdef, env)))) == 1
        sentences += len(reports[0].results)
    assert sentences > len(refs)


# --- what a goal costs besides its proof ------------------------------------------

def _traced_entails(monkeypatch) -> list:
    """Wrap `verifier.entails` at its module name, as bench/spans.py does,
    and record each call's goal and result."""
    calls = []
    inner = verifier.entails

    def traced(theory, goal, *args, **kwargs):
        result = inner(theory, goal, *args, **kwargs)
        calls.append((goal, result))
        return result

    monkeypatch.setattr(verifier, "entails", traced)
    return calls


def test_check_obligations_calls_entails_once_per_obligation(
        monkeypatch, corpus_and_generated_obligations):
    obs = corpus_and_generated_obligations
    calls = _traced_entails(monkeypatch)
    checked = check_obligations(obs)
    assert [goal for goal, _ in calls] == [ob.axiom for ob in obs]
    assert all(type(res) is verifier.EntailmentResult for _, res in calls)
    assert [(res.proven, res.reason) for _, res in calls] == [
        (ob.status == "proven", ob.diagnostic) for ob in checked]


def test_check_refinement_calls_entails_once_per_sentence(corpus_docs, env, monkeypatch):
    calls = _traced_entails(monkeypatch)
    refs = [r for d in corpus_docs for r in d.refinement_defs().values()]
    for refdef in refs:
        calls.clear()
        report = check_refinement(refdef, env)
        assert [goal for goal, _ in calls] == [a for a, _ in report.results]
        assert [res for _, res in calls] == [res for _, res in report.results]
        assert all(type(res) is verifier.EntailmentResult for _, res in calls)


def _compound(goal) -> bool:
    """Whether a field of goal is neither a name nor, in a class-expression
    field, a bare named class."""
    exprs = verifier._EXPR_FIELDS.get(goal.__class__, ())
    for f in goal.__match_args__:
        cls = getattr(goal, f).__class__
        if cls is not Name and not (cls is Named and f in exprs):
            return True
    return False


def test_only_a_compound_goal_reaches_for_goal(
        monkeypatch, corpus_docs, env, corpus_and_generated_obligations):
    """A goal's fields are scanned once, in `entails`.  Only a compound goal
    whose names are all declared reaches `for_goal`, which checks it for
    And-nodes the context lacks; a goal of names alone, or one that
    mentions an undeclared name, never does."""
    calls = []
    for_goal = verifier._Theory.for_goal

    def counting(self, goal):
        calls.append(goal)
        return for_goal(self, goal)

    monkeypatch.setattr(verifier._Theory, "for_goal", counting)

    def expected(obs, checked):
        return [g for g, ob in zip((canon_axiom(ob.axiom) for ob in obs), checked)
                if _compound(g) and not ob.diagnostic.startswith("goal mentions")]

    # the corpus's obligations, and generated DATA_Role and AND_nRels ones
    # as in the benchmark, are names alone
    obs = corpus_and_generated_obligations
    assert expected(obs, check_obligations(obs)) == calls == []
    goals = compound = 0
    for seed in range(12):
        obs = _random_obligations(seed)
        checked = check_obligations(obs)
        assert calls == expected(obs, checked)
        goals, compound = goals + len(obs), compound + len(calls)
        calls.clear()
    assert 0 < compound < goals
    # every corpus refinement sentence has a compound side
    for refdef in (r for d in corpus_docs for r in d.refinement_defs().values()):
        results = check_refinement(refdef, env).results
        assert calls == [a for a, _ in results if _compound(a)] != []
        calls.clear()


def test_every_renamed_refinement_sentence_is_canonical(corpus_docs, env):
    sentences = [a for d in corpus_docs for r in d.refinement_defs().values()
                 for a, _ in check_refinement(r, env).results]
    assert len(sentences) >= 6
    assert [a for a in sentences if canon_axiom(a) != a] == []


_K_A, _Q_A = Name("K", (Name("A"),)), Name("q", (Name("A"),))  # parameterized, declared


def _names_path_goals():
    """Goals of every class whose class-expression fields `_EXPR_FIELDS`
    lists, and of classes with only name fields, over declared, undeclared
    and parameterized names, with bare and compound class expressions."""
    classes = [Name("A"), Name("B"), _K_A, Name("Zc"), Name("K", (Name("Zc"),))]
    props = [Name("p"), _Q_A, Name("Zp"), Name("q", (Name("B"),))]
    inds = [Name("i"), Name("j"), Name("Zi")]
    exprs = [Named(c) for c in classes]
    exprs += [And((Named(c), N("B"))) for c in classes] + [Some(P("p"), Named(c)) for c in classes]
    exprs.append(Some(PropExpr(Name("Zp")), N("A")))
    goals = []
    for c in exprs:
        for d in (N("B"), N("Zc"), Named(_K_A), And((N("A"), N("B")))):
            goals += [SubClassOf(c, d), SubClassOf(d, c), EquivalentClasses(c, d),
                      DisjointClasses(c, d)]
        for p in props:
            goals += [Domain(p, c), Range(p, c)]
        for i in inds:
            goals.append(ClassAssertion(c, i))
    for p in props:
        goals += [Functional(p), Transitive(p)]
        for q in props:
            goals.append(InverseProps(p, q))
        for i in inds:
            for j in inds:
                goals.append(PropAssertion(p, i, j))
    assert set(map(type, goals)) >= set(verifier._EXPR_FIELDS)
    return goals


def test_a_goals_names_are_read_off_its_fields_as_axiom_names_finds_them(monkeypatch):
    declared = ([(SymbolKind.CLASS, n) for n in (Name("A"), Name("B"), _K_A)]
                + [(SymbolKind.OBJECT_PROPERTY, n) for n in (Name("p"), _Q_A)]
                + [(SymbolKind.INDIVIDUAL, n) for n in (Name("i"), Name("j"))])
    theory = Ontology.of(declared, [
        SubClassOf(N("A"), N("B")), Domain(Name("p"), N("A")), Range(_Q_A, Named(_K_A)),
        InverseProps(Name("p"), _Q_A), Functional(Name("p")), Transitive(_Q_A),
        ClassAssertion(N("A"), Name("i")), PropAssertion(Name("p"), Name("i"), Name("j"))])
    names = {n for _, n in declared}
    walks = []
    monkeypatch.setattr(verifier, "axiom_names", lambda a: walks.append(a) or axiom_names(a))
    reasons = set()
    for goal in _names_path_goals():
        walks.clear()
        res = entails(theory, goal)
        canon = canon_axiom(goal)
        missing = axiom_names(canon) - names
        if missing:
            reason = "goal mentions undeclared names: " + ", ".join(sorted(map(str, missing)))
            assert res == verifier.EntailmentResult(False, False, reason), goal
        else:
            proven, _ = _charged(verifier._Theory(theory, RuleEngineConfig()), canon)
            assert res == verifier.EntailmentResult(proven, False, "" if proven else "not derivable")
            # a verdict with no detail of its goal is one shared value
            assert res is entails(theory, SubClassOf(N("A") if proven else N("B"), N("A")))
        fields = [getattr(canon, f) for f in canon.__match_args__]
        bare = all(type(v) in (Name, Named) for v in fields)
        assert walks == ([] if bare and not missing else [canon]), goal
        reasons.add(res.reason)
    assert {"", "not derivable"} < reasons and len(reasons) > 10


# --- metamorphic checks over random theories -------------------------------------

def _renaming(seed: int):
    """A bijection on the random theories' names that changes their order:
    each kind's names are permuted and given a prefix."""
    rng = random.Random(seed)
    renamed = {}
    for names in ([n.name.base for n in CLASS_NAMES], PROP_NAMES, INDIVIDUALS):
        for old, new in zip(names, rng.sample(names, len(names))):
            renamed[old] = f"z{new}"
    return lambda n: Name(renamed.get(n.base, n.base), n.args)


def test_renaming_every_symbol_keeps_every_verdict():
    for seed in range(30):
        obs = _random_obligations(seed)
        fn = _renaming(seed)
        contexts = {id(ob.context): map_ontology(ob.context, fn) for ob in obs}
        renamed = [Obligation(subst_axiom(ob.axiom, {}, fn), ob.ontology, ob.pattern, ob.param,
                              ob.index, contexts[id(ob.context)]) for ob in obs]
        before, after = check_obligations(obs), check_obligations(renamed)
        assert [ob.status for ob in after] == [ob.status for ob in before]
        assert not any("step limit" in ob.diagnostic for ob in before + after)


def test_dropping_a_rule_never_proves_more(corpus_and_generated_obligations):
    batches = [_random_obligations(seed) for seed in range(30)]
    batches.append(corpus_and_generated_obligations)
    for obs in batches:
        proven = [ob.status == "proven" for ob in check_obligations(obs)]
        for rule in sorted(ALL_RULES):
            fewer = check_obligations(obs, RuleEngineConfig(ALL_RULES - {rule}))
            gained = [ob.axiom for ob, was in zip(fewer, proven) if ob.status == "proven" and not was]
            assert gained == [], f"without {rule}"
