"""Acceptance suite.

One test per shipping criterion; `pytest -v` prints one pass/fail line for
each.  Expected values come from the bundled goldens under corpus/golden/
and from hand-derived counts that were computed independently before the
expander existed.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest
from conftest import CORPUS, GOLDEN, corpus_files

from gdol import (
    ClassAssertion,
    DepthExceeded,
    DisjointClasses,
    Domain,
    EmptyArg,
    ExpansionEnv,
    InstSpec,
    ListArg,
    ListLengthMismatch,
    Name,
    Named,
    PropAssertion,
    PropExpr,
    Range,
    SubPropertyOf,
    SymbolArg,
    Transitive,
    check_obligations,
    check_refinement,
    diff_golden,
    emit_manchester,
    entails,
    expand_spec_standalone,
    parse_document,
    parse_manchester_fragment,
    stratify,
)
from gdol.model import axiom_names


def S(n: str) -> SymbolArg:
    return SymbolArg(Name(n))


def golden(name: str):
    return parse_manchester_fragment((GOLDEN / name).read_text())


def assert_matches_golden(actual, golden_name: str):
    d = diff_golden(actual, golden(golden_name))
    assert d.empty, f"{golden_name} differs:\n{d.report()}"


def test_01_scoped_temporal_extent_expansion_matches_golden(expand):
    assert_matches_golden(expand("TEMPORAL_Extent_Vehicle_log"),
                          "temporal_extent_vehicle_log.omn")


def test_02_phased_design_expansion_matches_golden_including_extent_block(expand):
    o = expand("Change_PD_Vehicle_log")
    assert_matches_golden(o, "change_pd_vehicle_log.omn")
    # the temporal-extent contribution belongs to the expansion even though
    # published listings tend to elide it
    assert DisjointClasses(Named(Name("TemporalExtent")),
                           Named(Name("Vehicle"))) in o.axioms


def test_03_graded_value_set_expansion_matches_golden_with_merged_frame(expand):
    o = expand("OrdGRADE_MaxSeats")
    assert_matches_golden(o, "ordgrade_maxseats.omn")
    text = emit_manchester(o)
    # same stratified name from two patterns: one merged frame, not two
    assert text.count("ObjectProperty: gt_MaxSeats\n") == 1
    frame = text.split("ObjectProperty: gt_MaxSeats\n", 1)[1]
    frame = frame.split("ObjectProperty:", 1)[0]
    assert "Characteristics: Transitive" in frame
    assert "SubPropertyOf: ge_MaxSeats" in frame


def test_04_final_data_instantiation_contributes_the_published_frames(env, expand):
    doc = parse_document((CORPUS / "logs" / "data_driver.gdol").read_text())
    spec = doc.ontology_defs()["Data_Driver_log"].spec
    final_call = spec.operands[-1]
    assert isinstance(final_call, InstSpec)
    assert final_call.pattern == "DATA_Driver_Role"

    # the call imports Driver_log, so its own contribution is what remains
    # after that import is taken out again
    contribution, _ = expand_spec_standalone(env, final_call)
    driver = expand("Driver_log")
    block = golden("data_driver_last_inst.omn")
    assert contribution.axioms - driver.axioms == block.axioms

    full = expand("Data_Driver_log")
    assert block.axioms <= full.axioms
    assert driver.axioms <= full.axioms
    assert driver.decls <= full.decls


def test_05_stratification_is_bracketing_invariant_and_total(expand):
    a = Name("f", (Name("A"), Name("B", (Name("C"),))))
    b = Name("f", (Name("A", (Name("B"),)), Name("C")))
    c = Name("f", (Name("A"), Name("B"), Name("C")))
    assert stratify(a) == stratify(b) == stratify(c) == "f_A_B_C"

    for path in corpus_files():
        doc = parse_document(path.read_text())
        for name in doc.ontology_defs():
            o = expand(name)
            for _, n in o.decls:
                assert "[" not in str(n)
            for ax in o.axioms:
                for n in axiom_names(ax):
                    assert "[" not in str(n)


def test_06_empty_optional_arguments_elide_their_axioms(env):
    trimmed, _ = expand_spec_standalone(
        env, InstSpec("ROLE_Explicit",
                      (S("DriverRole"), S("Person"), S("performedBy"),
                       S("performs"), EmptyArg(), EmptyArg(), EmptyArg())))
    mentioned = {n.base for _, n in trimmed.decls} | {
        n.base for ax in trimmed.axioms for n in axiom_names(ax)}
    assert trimmed.axioms
    assert not {"Provider", "providedBy", "provides"} & mentioned

    values, _ = expand_spec_standalone(
        env, InstSpec("VAL_Set", (S("Val"), EmptyArg(), ListArg((S("v0"),)))))
    assert len(values.axioms) == 3
    keep = {n.base for ax in values.axioms for n in axiom_names(ax)}
    assert "greater" not in keep
    # the strict-order instantiation left no trace
    assert not any(isinstance(ax, (Domain, Range, Transitive))
                   for ax in values.axioms)


def test_07_list_recursion_counts_mismatches_and_depth_guard(env):
    def overload(ranges, props):
        ont, _ = expand_spec_standalone(
            env, InstSpec("OVERLOAD_Domain",
                          (S("D"), S("map"),
                           ListArg(tuple(S(r) for r in ranges)),
                           ListArg(tuple(S(p) for p in props)))))
        return len(ont.axioms)

    assert overload([], []) == 0
    assert overload(["R1"], ["p1"]) == 3
    assert overload(["R1", "R2", "R3"], ["p1", "p2", "p3"]) == 9

    with pytest.raises(ListLengthMismatch):
        expand_spec_standalone(
            env, InstSpec("OVERLOAD_Domain",
                          (S("D"), S("map"), ListArg((S("R1"),)), ListArg(()))))

    looping = parse_document(
        "pattern Loop [Class: R :: Rs] = Class: R SubClassOf: R then Loop[R :: Rs]\n"
        "ontology Bad = Loop[[A, B]]\n")
    bad_env = ExpansionEnv.from_documents([looping])
    with pytest.raises(DepthExceeded):
        bad_env.expand_named("Bad")


def test_08_refinement_chain_holds_and_weakening_is_caught(corpus_docs, env):
    refs = {}
    for d in corpus_docs:
        refs.update(d.refinement_defs())
    assert set(refs) == {"Closed_to_TotalScoped", "TotalScoped_to_ScopedFunction",
                         "ScopedFunction_to_ScopedFunctionInverse"}
    for name, refdef in refs.items():
        report = check_refinement(refdef, env)
        assert report.ok, f"{name} should hold"

    weak = parse_document(
        "refinement Weak = TotalRELATION_Scoped[D; p; R]\n"
        "  refined to TotalRELATION_ScopedRange[D; p; R]\n")
    weak_env = ExpansionEnv.from_documents(list(corpus_docs) + [weak])
    report = check_refinement(weak.refinement_defs()["Weak"], weak_env)
    assert len(report.unproven) == 1


def test_09_obligations_are_deterministic_and_entail_the_published_goals(corpus_docs):
    runs = []
    for _ in range(2):
        env = ExpansionEnv.from_documents(corpus_docs)
        obs = env.obligations("Driver_log") + env.obligations("Data_Driver_log")
        runs.append(check_obligations(obs))
    assert runs[0] == runs[1]

    axioms = {ob.axiom for ob in runs[0]}
    assert Range(Name("hasLicence"), Named(Name("DrivingLicence"))) in axioms
    assert ClassAssertion(Named(Name("DrivingLicence")), Name("DBus")) in axioms
    assert ClassAssertion(Named(Name("MaxSeats")), Name("gt17Seats")) in axioms
    assert PropAssertion(Name("licencedFor_le_BMotorVehicle"),
                         Name("bkb_PotentialDriver"), Name("bkbs_VWBus")) in axioms

    env = ExpansionEnv.from_documents(corpus_docs)
    driver = env.expand_named("Driver_log")
    goal = SubPropertyOf(PropExpr(Name("licencedFor_le_DBus")),
                         PropExpr(Name("licencedFor_BMotorVehicle")))
    assert entails(driver, goal).proven


def _expand_corpus_via_cli(corpus_dir, out_dir, hash_seed):
    files = sorted(str(p) for p in corpus_dir.rglob("*.gdol"))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    r = subprocess.run(
        [sys.executable, "-m", "gdol.cli", "expand", *files, "--out", str(out_dir)],
        capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    return {p.name: p.read_bytes() for p in out_dir.glob("*.omn")}


def test_10_expansion_is_reproducible_and_replay_is_localized(tmp_path):
    first = _expand_corpus_via_cli(CORPUS, tmp_path / "a", hash_seed=0)
    second = _expand_corpus_via_cli(CORPUS, tmp_path / "b", hash_seed=1)
    assert first == second
    assert len(first) == 9

    mutated = tmp_path / "corpus"
    shutil.copytree(CORPUS, mutated)
    orders = mutated / "patterns" / "orders.gdol"
    text = orders.read_text()
    marker = "ObjectProperty: r Domain: X Range: X Characteristics: Transitive"
    assert text.count(marker) == 1
    orders.write_text(text.replace(marker, marker + " SubPropertyOf: r"))

    replayed = _expand_corpus_via_cli(mutated, tmp_path / "c", hash_seed=0)
    changed = {name for name in first if first[name] != replayed[name]}
    assert changed == {"OrdGRADE_MaxSeats.omn", "Driver_log.omn",
                       "Data_Driver_log.omn"}


def test_11_golden_files_round_trip_through_parse_and_emit():
    for path in sorted(GOLDEN.glob("*.omn")):
        first = parse_manchester_fragment(path.read_text())
        text = emit_manchester(first)
        again = parse_manchester_fragment(text)
        assert again == first, path.name
        assert emit_manchester(again) == text, path.name
