"""Compiler and verifier for a generic ontology-pattern language.

Parse pattern documents, expand instantiations into flat OWL ontologies in
Manchester syntax, and generate and check the verification conditions that
constrained parameters and refinement declarations give rise to.

`import gdol` loads no submodule.  Each name below is looked up in its home
module on first use, so `from gdol import ExpansionEnv` imports the expander
but not the verifier or the emitter.  `gdol.X` is always the object the home
module binds to X.
"""

from importlib import import_module

# home submodule -> the names the package re-exports from it
_EXPORTS = {
    "errors": (
        "ArityMismatch", "CyclicImport", "DepthExceeded", "EmptyForRequired", "GdolError",
        "KindClash", "KindMismatch", "ListLengthMismatch", "MapKindMismatch", "ParseError",
        "SubstitutionError", "UnknownPattern", "UnstratifiedName",
    ),
    "model": (
        "And", "Argument", "Axiom", "BasicSpec", "ClassAssertion", "ClassExpr", "ConsArg",
        "DifferentIndividuals", "DisjointClasses", "Document", "Domain", "EmptyArg",
        "EmptySpec", "EquivalentClasses", "ExtensionSpec", "Functional", "InstSpec",
        "InverseProps", "LetSpec", "ListArg", "Max", "Name", "Named", "Obligation", "OneOf",
        "Only", "Ontology", "OntologyDef", "Parameter", "PatternDef", "PropAssertion",
        "PropExpr", "Range", "RefinementDef", "Some", "Spec", "SubClassOf",
        "SubPropertyChain", "SubPropertyOf", "SymbolArg", "SymbolKind", "Transitive",
        "UnionSpec", "canon_axiom", "canon_expr", "stratify", "substitute",
    ),
    "parser": ("parse_document", "parse_manchester_fragment"),
    "expander": (
        "DEFAULT_DEPTH_BUDGET", "Binding", "ExpansionEnv", "bind_arguments",
        "expand_spec_standalone",
    ),
    "verifier": (
        "DEFAULT_CONFIG", "EntailmentResult", "RefinementReport", "RuleEngineConfig",
        "check_obligations", "check_refinement", "entails", "export_obligations",
    ),
    "emitter": ("GoldenDiff", "axiom_text", "diff_golden", "emit_manchester"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is not None:
        return getattr(import_module(f".{home}", __name__), name)
    if name in _EXPORTS:
        # importing a submodule binds it on the package, so this runs once
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
