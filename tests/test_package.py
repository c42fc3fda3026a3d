"""The package's public surface: the names `gdol` re-exports, and the
functions and methods the benchmark's tracer looks up by name; and where
its source still uses structural `match`."""
from __future__ import annotations

import ast
import inspect
from importlib import import_module

import pytest
from conftest import ROOT

import gdol

# home submodule -> the names gdol re-exports from it, in __all__'s order
REEXPORTS = {
    "errors": [
        "ArityMismatch", "CyclicImport", "DepthExceeded", "EmptyForRequired", "GdolError",
        "KindClash", "KindMismatch", "ListLengthMismatch", "MapKindMismatch", "ParseError",
        "SubstitutionError", "UnknownPattern", "UnstratifiedName",
    ],
    "model": [
        "And", "Argument", "Axiom", "BasicSpec", "ClassAssertion", "ClassExpr", "ConsArg",
        "DifferentIndividuals", "DisjointClasses", "Document", "Domain", "EmptyArg",
        "EmptySpec", "EquivalentClasses", "ExtensionSpec", "Functional", "InstSpec",
        "InverseProps", "LetSpec", "ListArg", "Max", "Name", "Named", "Obligation", "OneOf",
        "Only", "Ontology", "OntologyDef", "Parameter", "PatternDef", "PropAssertion",
        "PropExpr", "Range", "RefinementDef", "Some", "Spec", "SubClassOf",
        "SubPropertyChain", "SubPropertyOf", "SymbolArg", "SymbolKind", "Transitive",
        "UnionSpec", "canon_axiom", "canon_expr", "stratify", "substitute",
    ],
    "parser": ["parse_document", "parse_manchester_fragment"],
    "expander": [
        "DEFAULT_DEPTH_BUDGET", "Binding", "ExpansionEnv", "bind_arguments",
        "expand_spec_standalone",
    ],
    "verifier": [
        "DEFAULT_CONFIG", "EntailmentResult", "RefinementReport", "RuleEngineConfig",
        "check_obligations", "check_refinement", "entails", "export_obligations",
    ],
    "emitter": ["GoldenDiff", "axiom_text", "diff_golden", "emit_manchester"],
}
ALL = [name for names in REEXPORTS.values() for name in names]


def test_all_lists_the_seventy_nine_reexported_names():
    assert len(ALL) == len(set(ALL)) == 79
    assert gdol.__all__ == ALL


@pytest.mark.parametrize("home", REEXPORTS)
def test_each_reexport_is_its_home_modules_object(home):
    module = import_module(f"gdol.{home}")
    assert getattr(gdol, home) is module
    for name in REEXPORTS[home]:
        assert getattr(gdol, name) is getattr(module, name), name


def test_star_import_binds_every_reexport():
    namespace: dict = {}
    exec("from gdol import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(ALL)
    assert all(namespace[name] is getattr(gdol, name) for name in ALL)


def test_dir_lists_every_reexport_and_submodule():
    listed = dir(gdol)
    assert listed == sorted(listed)
    assert set(ALL) | set(REEXPORTS) | {"__version__"} <= set(listed)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'gdol' has no attribute 'no_such_name'"):
        gdol.no_such_name


# bench/spans.py wraps these by name (module attributes, and entries of the
# classes' own __dict__); removing one makes a traced benchmark run crash
TRACED_FUNCTIONS = {
    "parser": ["tokenize", "parse_document"],
    "expander": ["run_deep", "expand_spec_standalone"],
    "model": ["map_ontology", "substitute"],
    "verifier": ["entails", "check_obligations", "check_refinement"],
    "emitter": ["emit_manchester"],
    "cli": ["main"],
}


@pytest.mark.parametrize("home", TRACED_FUNCTIONS)
def test_the_functions_the_benchmark_traces_exist(home):
    module = import_module(f"gdol.{home}")
    for name in TRACED_FUNCTIONS[home]:
        assert inspect.isfunction(module.__dict__.get(name)), f"gdol.{home}.{name}"


def test_the_methods_the_benchmark_traces_exist():
    from gdol.expander import ExpansionEnv
    from gdol.model import Ontology

    assert isinstance(ExpansionEnv.__dict__["from_documents"], classmethod)
    assert inspect.isfunction(ExpansionEnv.__dict__["expand_named"])
    assert inspect.isfunction(ExpansionEnv.__dict__["obligations"])
    assert inspect.isfunction(Ontology.__dict__["union"])
    assert inspect.isfunction(Ontology.__dict__["__init__"])


def _match_sites(tree: ast.Module) -> list[str]:
    """For each `match`, the name of the innermost function around it."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Match):
                sites.append(where)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            visit(child, inner)

    visit(tree, "<module>")
    return sites


def test_structural_match_remains_only_off_the_hot_paths():
    """Hot paths decide by a node's exact class through a table; `match`
    is left only where a complex class expression is written and in eager
    substitution."""
    found = sorted(f"{path.stem}.{where}" for path in (ROOT / "src" / "gdol").glob("*.py")
                   for where in _match_sites(ast.parse(path.read_text(encoding="utf-8"))))
    assert found == ["emitter.expr_text", "model.substitute"]
