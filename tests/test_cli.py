"""Command-line behaviour: exit codes, output shapes, file writing."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import CORPUS, ROOT

from gdol.cli import main

PATTERNS = str(CORPUS / "patterns")
LOGS = str(CORPUS / "logs")
AUX = str(CORPUS / "aux")
LIBS = ["--lib", PATTERNS, "--lib", LOGS, "--lib", AUX]


def test_expand_writes_one_file_per_ontology(tmp_path, capsys):
    rc = main(["expand", str(CORPUS / "logs" / "temporal.gdol"),
               "--lib", PATTERNS, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    written = tmp_path / "TEMPORAL_Extent_Vehicle_log.omn"
    assert written.exists()
    assert f"wrote {written}" in out
    assert "Class: Vehicle" in written.read_text()


def test_expand_honours_target_selection(tmp_path, capsys):
    rc = main(["expand", str(CORPUS / "logs" / "driver.gdol"), *LIBS,
               "--target", "Roles_Driver_log", "--out", str(tmp_path)])
    assert rc == 0
    assert [p.name for p in tmp_path.glob("*.omn")] == ["Roles_Driver_log.omn"]


def test_unknown_target_is_a_usage_error(tmp_path, capsys):
    rc = main(["expand", str(CORPUS / "logs" / "temporal.gdol"),
               "--lib", PATTERNS, "--target", "NoSuch", "--out", str(tmp_path)])
    assert rc == 2
    assert "NoSuch" in capsys.readouterr().err


def test_missing_arguments_are_a_usage_error(capsys):
    assert main([]) == 2
    assert main(["expand"]) == 2


def test_parse_errors_exit_with_two(tmp_path, capsys):
    bad = tmp_path / "bad.gdol"
    bad.write_text("pattern P [ Class: X = nope\n")
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err.strip() != ""


@pytest.mark.parametrize("where", ["input", "lib"])
def test_a_file_that_is_not_utf8_exits_with_two(tmp_path, capsys, where):
    bad = tmp_path / "lib" / "bad.gdol"
    bad.parent.mkdir()
    bad.write_bytes(b"ontology O = Class: A\xff\n")
    good = tmp_path / "good.gdol"
    good.write_text("ontology G = Class: B\n")
    files = [str(bad)] if where == "input" else [str(good), "--lib", str(bad.parent)]
    assert main(["expand", *files, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: not UTF-8 text: invalid start byte at byte offset 21\n")
    assert not list(tmp_path.glob("*.omn"))


_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("where", ["input", "lib"])
def test_a_byte_order_mark_is_dropped(tmp_path, capsys, where):
    source = tmp_path / "lib" / "marked.gdol"
    source.parent.mkdir()
    source.write_bytes(_BOM + b"pattern P [ Class: X ] = Class: X SubClassOf: Top\n"
                       b"ontology O = P[A]\n")
    user = tmp_path / "user.gdol"
    user.write_text("ontology U = P[B]\n")
    files = [str(source)] if where == "input" else [str(user), "--lib", str(source.parent)]
    assert main(["expand", *files, "--out", str(tmp_path / "out")]) == 0
    name = "O" if where == "input" else "U"
    letter = "A" if where == "input" else "B"
    assert (tmp_path / "out" / f"{name}.omn").read_text() == (
        f"Class: {letter}\n  SubClassOf: Top\n")
    assert capsys.readouterr().err == ""


def test_errors_in_a_marked_file_are_located_as_without_the_mark(tmp_path, capsys):
    body = b"ontology O =\n  Class: A SubClassOf: ]\n"
    errors = []
    for prefix in (b"", _BOM):
        source = tmp_path / "doc.gdol"
        source.write_bytes(prefix + body)
        assert main(["expand", str(source), "--out", str(tmp_path)]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and errors[0].startswith(f"error: {source}:2:")
    # an undecodable byte is reported at its offset in the file, mark included
    source.write_bytes(_BOM + b"ontology O = Class: A\xff\n")
    assert main(["expand", str(source), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {source}: not UTF-8 text: invalid start byte at byte offset 24\n")


def test_deeply_nested_document_exits_with_two(tmp_path, capsys):
    deep = tmp_path / "deep.gdol"
    deep.write_text("ontology O = " + "let pattern L [Class: X] = Class: X in " * 400 + "L[A]\n")
    assert main(["expand", str(deep), "--out", str(tmp_path)]) == 2
    # located at the 101st let, one level past the parser's limit
    assert capsys.readouterr().err == f"error: {deep}:1:{13 + 100 * 39 + 1}: nesting too deep\n"


def test_check_reports_no_obligations(capsys):
    rc = main(["check", str(CORPUS / "logs" / "temporal.gdol"),
               "--lib", PATTERNS])
    assert rc == 0
    assert "0 obligations" in capsys.readouterr().out


def test_check_summarises_proven_and_unproven(capsys):
    rc = main(["check", str(CORPUS / "logs" / "driver.gdol"), *LIBS,
               "--target", "Driver_log"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "47 obligations: 41 proven, 6 unproven" in out
    assert "  [Driver_log :: " in out


def test_strict_mode_fails_on_unproven_obligations(capsys):
    rc = main(["check", str(CORPUS / "logs" / "driver.gdol"), *LIBS,
               "--target", "Driver_log", "--strict"])
    assert rc == 1


def test_strict_mode_passes_when_everything_proves(capsys):
    rc = main(["check", str(CORPUS / "logs" / "data_driver.gdol"), *LIBS,
               "--target", "Data_Driver_log", "--strict"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "11 obligations: 11 proven, 0 unproven" in out


def test_check_output_is_deterministic(capsys):
    args = ["check", str(CORPUS / "logs" / "driver.gdol"), *LIBS]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first


def test_unproven_obligations_can_be_exported(tmp_path, capsys):
    rc = main(["check", str(CORPUS / "logs" / "driver.gdol"), *LIBS,
               "--target", "Driver_log",
               "--emit-obligations", str(tmp_path)])
    assert rc == 0
    files = sorted(tmp_path.glob("*.omn"))
    assert len(files) == 6  # only the unproven ones
    assert all("Driver_log__" in p.name for p in files)


def test_depth_budget_is_adjustable(tmp_path, capsys):
    rc = main(["expand", str(CORPUS / "logs" / "driver.gdol"), *LIBS,
               "--target", "Driver_log", "--depth", "3", "--out", str(tmp_path)])
    assert rc == 2
    assert "depth budget" in capsys.readouterr().err


def test_a_depth_that_is_not_positive_is_a_usage_error(tmp_path, capsys):
    rc = main(["expand", str(CORPUS / "logs" / "driver.gdol"), *LIBS,
               "--depth", "-5", "--out", str(tmp_path)])
    assert rc == 2
    assert "argument --depth: must be a positive integer, got '-5'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_refine_reports_holding_chain(capsys):
    rc = main(["refine", str(CORPUS / "refinements" / "scoped_chain.gdol"),
               "--lib", PATTERNS])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count(": holds") == 3


def test_refine_fails_on_a_broken_link(tmp_path, capsys):
    broken = tmp_path / "broken.gdol"
    broken.write_text(
        "refinement Weak = TotalRELATION_Scoped[D; p; R]\n"
        "  refined to TotalRELATION_ScopedRange[D; p; R]\n")
    rc = main(["refine", str(broken), "--lib", PATTERNS])
    out = capsys.readouterr().out
    assert rc == 1
    assert "refinement Weak: FAILS" in out


def test_diagnostics_go_to_stderr(tmp_path, capsys):
    rc = main(["expand", str(CORPUS / "logs" / "data_driver.gdol"), *LIBS,
               "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "warning:" in captured.err
    assert "warning:" not in captured.out


def test_unknown_kind_keyword_is_a_located_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.gdol"
    bad.write_text("pattern P [ Class: S; {Inand l: x Types: S} :: xs ] = Class: S\n")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {bad}:1:") and "'Inand'" in err


@pytest.mark.parametrize("cardinality, message", [
    ("\u00b2", "unexpected character '\u00b2'"),  # a digit, but not a decimal digit
    ("9" * 5000, "cardinality has too many digits"),  # more than int() converts
], ids=["superscript", "5000-digit"])
def test_bad_cardinality_is_a_located_parse_error(tmp_path, capsys, cardinality, message):
    bad = tmp_path / "bad.gdol"
    bad.write_text(f"ontology O = Class: A SubClassOf: p max {cardinality} B\n", encoding="utf-8")
    assert main(["expand", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad}:1:41: {message}\n"
    assert "Traceback" not in err


_L = "pattern L [ Class: x :: xs ] = Class: x then L[xs]\n"
_S = "pattern S [ Class: x ] = Class: x\n"


def _user_error(capsys, argv: list[str]) -> str:
    """What a user error prints to stderr, once it has exited with 2 and
    printed nothing to stdout."""
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    return err


@pytest.mark.parametrize("text, message", [
    (_S + "ontology O = S[[a, b]]\n", "S: parameter 'x' needs a single name"),
    # a cons under a binding stays a cons, and a scalar parameter refuses it too
    (_S + "pattern P [ Class: y :: ys ] = S[y :: ys]\nontology O = P[[a, b]]\n",
     "S: parameter 'x' needs a single name"),
    (_L + "ontology O = L[a]\n", "L: parameter 'x' needs a list, got name a"),
    (_L + "ontology O = L[a :: b]\n", "L: parameter 'x' needs a list, got name b"),
    (_L + "pattern P [ Class: y ] = L[a :: y]\nontology O = P[B]\n",
     "L: parameter 'x' needs a list, got name B"),
    (_L + "ontology O = L[ObjectProperty: a :: []]\n",
     "L: argument for 'x' annotated ObjectProperty, parameter declared Class"),
    # the same annotation carried into a list literal's item by substitution
    (_L + "pattern M [ ObjectProperty: y ] = L[[y]]\nontology O = M[ObjectProperty: a]\n",
     "L: argument for 'x' annotated ObjectProperty, parameter declared Class"),
    ("ontology Base = Class: A\nontology O = Base[x]\n",
     "'Base' names an ontology and takes no arguments"),
    ("pattern Q [ Individual: w :: ws ] = Class: E EquivalentTo: {w, ws}\n"
     "pattern R [ Individual: x :: xs ] = Q[x :: xs :: xs]\nontology O = R[[a, b]]\n",
     "nested list in individual enumeration"),
], ids=["scalar-list", "scalar-cons", "list-name", "list-cons-name", "list-cons-bound-name",
        "list-cons-head-kind", "list-item-kind", "ontology-arguments", "nested-enumeration"])
def test_argument_errors_exit_with_two_and_one_line(tmp_path, capsys, text, message):
    src = tmp_path / "doc.gdol"
    src.write_text(text)
    assert _user_error(capsys, ["expand", str(src), "--out", str(tmp_path)]) == f"error: {message}\n"
    assert not list(tmp_path.glob("*.omn"))


def test_an_empty_ontology_writes_an_empty_file(tmp_path, capsys):
    src = tmp_path / "doc.gdol"
    src.write_text("ontology E = {}\n")
    assert main(["expand", str(src), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "E.omn").read_text() == ""


_P = "pattern P [ Class: x ] = Class: f[x] SubClassOf: x\n"


@pytest.mark.parametrize("text", [
    _P + "ontology S = Class: a SubClassOf: b\n"
    "refinement R = S refined to P[b] with a |-> f[b]\n",
    _P + "ontology S = P[a]\n"
    "refinement R = S refined to Class: c SubClassOf: a Class: a with f[a] |-> c\n",
], ids=["parameterized-target", "parameterized-source"])
def test_a_symbol_maps_names_are_stratified(tmp_path, capsys, text):
    src = tmp_path / "r.gdol"
    src.write_text(text)
    assert main(["refine", str(src)]) == 0
    assert capsys.readouterr().out.endswith("refinement R: holds\n")


def test_a_symbol_map_kind_error_names_the_pair_as_written(tmp_path, capsys):
    src = tmp_path / "r.gdol"
    src.write_text(_P + "ontology S = P[a]\n"
                   "refinement R = S refined to ObjectProperty: q with f[a] |-> q\n")
    assert _user_error(capsys, ["refine", str(src)]) == (
        "error: refinement maps f[a] (Class) to q (ObjectProperty): kinds differ\n")


def test_a_symbol_map_entry_that_matches_nothing_is_a_warning(tmp_path, capsys):
    src = tmp_path / "r.gdol"
    src.write_text("ontology S = Class: a SubClassOf: b\n"
                   "refinement R = S refined to Class: c SubClassOf: b Class: a with aa |-> c\n")
    assert main(["refine", str(src)]) == 1
    assert capsys.readouterr() == (
        "unproven  a SubClassOf: b  [R]\nrefinement R: FAILS\n",
        "warning: refinement R: symbol map entry aa |-> c matches no name of the source\n")
    # b is mentioned only in an axiom, and that is enough
    src.write_text("ontology S = Class: a SubClassOf: b\n"
                   "refinement R = S refined to Class: c SubClassOf: d Class: d with a |-> c, b |-> d\n")
    assert main(["refine", str(src)]) == 0
    assert capsys.readouterr() == ("  proven  c SubClassOf: d  [R]\nrefinement R: holds\n", "")


@pytest.mark.parametrize("pairs, first, second", [
    ("a |-> c, a |-> e, b |-> d", "a |-> c", "a |-> e"),
    ("f[a] |-> c, f_a |-> d", "f[a] |-> c", "f_a |-> d"),
], ids=["repeated-source", "stratified-source"])
def test_a_symbol_map_sending_one_name_to_two_exits_with_two(tmp_path, capsys, pairs, first, second):
    src = tmp_path / "r.gdol"
    src.write_text(_P + "ontology S = P[a] and Class: a SubClassOf: b\n"
                   f"refinement R = S refined to Class: c Class: d Class: e with {pairs}\n")
    assert _user_error(capsys, ["refine", str(src)]) == (
        f"error: refinement R: symbol map entries {first} and {second} "
        "send one name to two targets\n")


def test_a_repeated_symbol_map_entry_is_accepted(tmp_path, capsys):
    src = tmp_path / "r.gdol"
    src.write_text(_P + "ontology S = P[a]\n"
                   "refinement R = S refined to Class: g_b SubClassOf: c Class: c\n"
                   "  with f[a] |-> g[b], a |-> c, f_a |-> g_b, a |-> c\n")
    assert main(["refine", str(src)]) == 0
    assert capsys.readouterr() == ("  proven  g_b SubClassOf: c  [R]\nrefinement R: holds\n", "")


def test_refine_reports_a_standalone_axiom_on_one_line(tmp_path, capsys):
    src = tmp_path / "doc.gdol"
    src.write_text("refinement R = Individual: a Individual: b DifferentIndividuals: a, b\n"
                   "  refined to Individual: a Individual: b DifferentIndividuals: a, b\n")
    assert main(["refine", str(src)]) == 0
    assert capsys.readouterr().out == (
        "  proven  DifferentIndividuals: a, b  [R]\nrefinement R: holds\n")


def test_a_pattern_defined_in_two_documents_exits_with_two(tmp_path, capsys):
    (tmp_path / "lib").mkdir()
    (tmp_path / "lib" / "dup.gdol").write_text(_S)
    src = tmp_path / "doc.gdol"
    src.write_text(_S + "ontology O = S[A]\n")
    err = _user_error(capsys, ["expand", str(src), "--lib", str(tmp_path / "lib"), "--out", str(tmp_path)])
    assert err == "error: duplicate definition of 'S' across documents\n"


def test_an_input_file_given_twice_is_read_once(tmp_path, capsys, monkeypatch):
    (tmp_path / "sub").mkdir()
    src = tmp_path / "doc.gdol"
    src.write_text(_S + "ontology O = S[A]\n")
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    for again in (str(src), "sub/../doc.gdol"):
        assert main(["expand", str(src), again, "--out", str(out)]) == 0
        assert capsys.readouterr() == (f"wrote {out / 'O.omn'}\n", "")
    assert (out / "O.omn").read_text() == "Class: A\n"


def test_a_parse_error_names_the_file_it_was_read_from(tmp_path, capsys, monkeypatch):
    (tmp_path / "lib").mkdir()
    (tmp_path / "lib" / "a.gdol").write_text(_S)
    (tmp_path / "lib" / "bad.gdol").write_text("ontology Broken =\n")
    (tmp_path / "main.gdol").write_text("ontology O = S[A]\n")
    monkeypatch.chdir(tmp_path)
    err = _user_error(capsys, ["expand", "main.gdol", "--lib", "lib", "--out", "out"])
    assert err == f"error: {Path('lib', 'bad.gdol')}:2:1: expected a spec, found 'end of input'\n"
    assert not (tmp_path / "out").exists()


def test_a_lib_that_is_a_file_exits_with_two(tmp_path, capsys):
    src = tmp_path / "doc.gdol"
    src.write_text(_S)
    err = _user_error(capsys, ["expand", str(src), "--lib", str(src), "--out", str(tmp_path)])
    assert err == f"error: --lib {src} is not a directory\n"


def test_shadowing_is_one_warning_line(tmp_path):
    src = tmp_path / "shadow.gdol"
    src.write_text(
        "pattern Outer [ Class: X ] =\n"
        "  let pattern L [ Class: X ] = Class: X SubClassOf: X\n"
        "  in L[X]\n"
        "ontology O = Outer[A] and Outer[B]\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "gdol.cli", "expand", str(src), "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0
    # one line for both instantiations, and no warning location inside gdol
    assert proc.stderr == "warning: parameters ['X'] of local pattern 'L' shadow outer bindings\n"


def _gdol(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "gdol.cli", *args],
                          capture_output=True, text=True, env=env, check=False)


def test_nested_shadowing_is_one_warning_line(tmp_path):
    src = tmp_path / "shadow.gdol"
    src.write_text(
        "pattern Outer [ Class: X ] =\n"
        "  let pattern L [ Class: Y ] =\n"
        "        let pattern M [ Class: X; Class: Y ] = Class: X SubClassOf: Y\n"
        "        in M[Y; X]\n"
        "      pattern K [ Class: W ] =\n"
        "        let pattern N [ Class: X ] = Class: X in N[W]\n"
        "  in L[B]\n"
        "ontology O = Outer[A]\n")
    proc = _gdol("expand", str(src), "--out", str(tmp_path))
    assert proc.returncode == 0
    # M is walked once, under Outer's X and L's Y together; N, in the
    # never instantiated K, is never walked
    assert proc.stderr == "warning: parameters ['X', 'Y'] of local pattern 'M' shadow outer bindings\n"
    assert (tmp_path / "O.omn").read_text() == "Class: A\nClass: B\n  SubClassOf: A\n"


def test_renaming_a_local_parameter_keeps_the_output(tmp_path, capsys):
    text = ("pattern Outer [ Class: X ] =\n"
            "  let pattern L [ Class: Y ] = Class: Y SubClassOf: X\n"
            "  in L[Foo]\n"
            "ontology O = Outer[Y]\n")
    written = []
    for param in ("Y", "W"):
        src = tmp_path / f"{param}.gdol"
        src.write_text(text.replace("[ Class: Y ] = Class: Y", f"[ Class: {param} ] = Class: {param}"))
        assert main(["expand", str(src), "--out", str(tmp_path / param)]) == 0
        written.append((tmp_path / param / "O.omn").read_bytes())
    # the argument Y is a name of Outer's caller, not L's parameter
    assert written == [b"Class: Foo\n  SubClassOf: Y\nClass: Y\n"] * 2


def test_a_long_let_body_under_a_binding_is_no_traceback(tmp_path):
    src = tmp_path / "long.gdol"
    body = " and ".join(f"Class: c{i} SubClassOf: X" for i in range(3000))
    src.write_text(f"pattern Outer [ Class: X ] =\n  let pattern L [ Class: Y ] = {body}\n  in L[X]\n"
                   "ontology O = Outer[A]\n")
    for args in (["expand", str(src), "--out", str(tmp_path)], ["check", str(src)]):
        proc = _gdol(*args)
        assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "O.omn").read_text().count("SubClassOf: A") == 3000


def test_an_unused_local_is_not_expanded(tmp_path, capsys):
    src = tmp_path / "unused.gdol"
    src.write_text(
        "pattern Outer [ Class: X; Class: Z ] =\n"
        "  let pattern L [ Class: Y ] = ObjectProperty: X Class: Z in Class: X\n"
        "ontology O = Outer[a; a]\n")
    assert main(["expand", str(src), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "O.omn").read_text() == "Class: a\n"


def test_an_expansion_error_is_the_same_under_any_hash_seed(tmp_path):
    two_tails = "pattern P [ Class: x :: xs; Class: y :: ys ] = "
    misplaced = "error: list argument bound to 'xs' used where a single name is expected\n"
    cases = [
        ("pattern Q [ Class: X; ObjectProperty: r ] = Class: X SubClassOf: r some X\n"
         "ontology O = Q[B; A] and Q[A; B] and Q[D; C] and Q[C; D]\n",
         "error: 'A' declared both as Class and as ObjectProperty\n"),
        # a clash between substituted names is reported by the name emitted
        ("pattern K [ Class: x; ObjectProperty: y ] = Class: x\n"
         "ontology O = K[f[a]; f[a]]\n",
         "error: 'f_a' declared both as Class and as ObjectProperty\n"),
        # a basic spec's declarations and axioms are sets: the first
        # substitution error in key order is raised
        (two_tails + "Class: A SubClassOf: xs  Class: B SubClassOf: ys\n"
         "ontology O = P[[a]; [b]]\n", misplaced),
        (two_tails + "Class: xs  Class: ys\nontology O = P[[a]; [b]]\n", misplaced),
    ]
    for i, (text, expected) in enumerate(cases):
        src = tmp_path / f"error{i}.gdol"
        src.write_text(text)
        results = set()
        for seed in ("0", "1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
            proc = subprocess.run([sys.executable, "-m", "gdol.cli", "expand", str(src),
                                   "--out", str(tmp_path)],
                                  capture_output=True, text=True, env=env, check=False)
            results.add((proc.returncode, proc.stderr))
        assert results == {(2, expected)}


def test_merge_warnings_are_the_same_under_any_hash_seed(tmp_path):
    src = tmp_path / "merge.gdol"
    src.write_text(
        "pattern P [ Class: X ] =\n"
        "  Class: f[X] Class: g[X] Class: h[X] Class: k[X]\n"
        "  Class: f_a Class: g_a Class: h_a Class: k_a\n"
        "ontology O = P[a]\n")
    results = set()
    for seed in ("0", "1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "gdol.cli", "expand", str(src),
                               "--out", str(tmp_path)],
                              capture_output=True, env=env, check=False)
        results.add((proc.returncode, proc.stderr))
    assert results == {(0, b"".join(
        b"warning: stratified name '%s_a' coincides with a plain name; the two merge\n" % c
        for c in (b"f", b"g", b"h", b"k")))}


def test_exported_obligations_render_each_context_once(tmp_path, capsys, monkeypatch):
    from gdol import emitter

    src = tmp_path / "ex.gdol"
    src.write_text(
        "pattern P [ Class: D; {ObjectProperty: p Domain: D} :: ps ] =\n"
        "  Class: D SubClassOf: Top then P[D; ps]\n"
        "ontology A = P[C; [r, s]]\n"
        "ontology B = P[E; [t]] and ObjectProperty: t\n")
    contexts = []
    emit = emitter.emit_manchester

    def counting_emit(o):
        contexts.append(o)
        return emit(o)

    monkeypatch.setattr(emitter, "emit_manchester", counting_emit)
    out_dir = tmp_path / "obligations"
    assert main(["check", str(src), "--emit-obligations", str(out_dir)]) == 0
    assert len(contexts) == 2  # A's two obligations share one context
    files = {p.name: p.read_bytes() for p in out_dir.glob("*.omn")}
    a_body = b"Class: C\n  SubClassOf: Top\nObjectProperty: r\nObjectProperty: s\n"
    assert files == {
        "A__P__p__0.omn": a_body + b"%% goal: r Domain: C\n%% from: A :: P/p#0\n",
        "A__P__p__1.omn": a_body + b"%% goal: s Domain: C\n%% from: A :: P/p#1\n",
        "B__P__p__0.omn": b"Class: E\n  SubClassOf: Top\nObjectProperty: t\n"
                          b"%% goal: t Domain: E\n%% from: B :: P/p#0\n",
    }


def _fresh(code: str, *argv: str) -> tuple[int, str, str]:
    """Run code in a fresh interpreter without site or environment, and no
    bytecode written, with gdol's sources first on sys.path; argv follows
    the sources' path in sys.argv."""
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c",
                           "import sys; sys.path.insert(0, sys.argv[1])\n" + code,
                           str(ROOT / "src"), *argv],
                          capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = ("import gdol.cli\n"
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    assert _fresh(code) == (0, "[]\n", "")


def test_importing_compiles_each_module_and_each_node_signature_once():
    # a compile gdol asks for: one of its sources, or source exec'd from its code
    code = ("import os\n"
            "events = []\n"
            "sys.addaudithook(lambda event, args: event == 'compile' and events.append(\n"
            "    (str(args[1]), sys._getframe(1).f_code.co_filename)))\n"
            "import gdol.cli, gdol.verifier\n"
            "from gdol import model, node\n"
            "home = os.path.dirname(node.__file__) + os.sep\n"
            "ours = [e for e in events if e[0].startswith(home) or e[1].startswith(home)]\n"
            "modules = [m for m in sys.modules if m == 'gdol' or m.startswith('gdol.')]\n"
            "print(len(ours), len(modules), len(node._TEMPLATES), len(model.Node.__subclasses__()))")
    rc, out, err = _fresh(code)
    assert (rc, err) == (0, "")
    compiles, modules, signatures, classes = map(int, out.split())
    assert compiles <= modules + signatures and signatures < classes


@pytest.mark.parametrize("statement, loaded", [
    ("import gdol", []),
    ("import gdol.cli", ["gdol.emitter"]),
    ("from gdol import ExpansionEnv, parse_document", []),
])
def test_importing_loads_neither_verifier_nor_emitter_unless_used(statement, loaded):
    code = (f"{statement}\n"
            "print(sorted(m for m in ('gdol.verifier', 'gdol.emitter') if m in sys.modules))")
    assert _fresh(code) == (0, f"{loaded}\n", "")


@pytest.mark.parametrize("argv, verifier_loaded", [
    (["expand", str(CORPUS / "logs" / "driver.gdol"), *LIBS, "--target", "Driver_log"], False),
    (["check", str(CORPUS / "logs" / "data_driver.gdol"), *LIBS, "--strict"], True),
    (["refine", str(CORPUS / "refinements" / "scoped_chain.gdol"), "--lib", PATTERNS], True),
])
def test_only_check_and_refine_load_the_verifier(tmp_path, argv, verifier_loaded):
    if argv[0] == "expand":
        argv = [*argv, "--out", str(tmp_path)]
    code = ("import contextlib, io\n"
            "from gdol.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):\n"
            "    rc = main(sys.argv[2:])\n"
            "print(rc, 'gdol.verifier' in sys.modules)")
    assert _fresh(code, *argv) == (0, f"0 {verifier_loaded}\n", "")
