"""Compiler and verifier for a generic ontology-pattern language.

Parse pattern documents, expand instantiations into flat OWL ontologies in
Manchester syntax, and generate and check the verification conditions that
constrained parameters and refinement declarations give rise to.
"""

from .errors import (
    ArityMismatch, CyclicImport, DepthExceeded, EmptyForRequired, GdolError,
    KindClash, KindMismatch, ListLengthMismatch, MapKindMismatch, ParseError,
    ShadowWarning, SubstitutionError, UnknownPattern, UnstratifiedName,
)
from .model import (
    And, Argument, Axiom, BasicSpec, ClassAssertion, ClassExpr, ConsArg,
    DifferentIndividuals, DisjointClasses, Document, Domain, EmptyArg,
    EmptySpec, EquivalentClasses, ExtensionSpec, Functional, InstSpec,
    InverseProps, LetSpec, ListArg, Max, Name, Named, Obligation, OneOf,
    Only, Ontology, OntologyDef, Parameter, PatternDef, PropAssertion,
    PropExpr, Range, RefinementDef, Some, Spec, SubClassOf,
    SubPropertyChain, SubPropertyOf, SymbolArg, SymbolKind, Transitive,
    UnionSpec, canon_axiom, canon_expr, stratify, substitute,
)
from .parser import parse_document, parse_manchester_fragment
from .expander import (
    DEFAULT_DEPTH_BUDGET, Binding, ExpansionEnv, bind_arguments,
    expand_spec_standalone,
)
from .verifier import (
    DEFAULT_CONFIG, EntailmentResult, RefinementReport, RuleEngineConfig,
    check_obligations, check_refinement, entails, export_obligations,
)
from .emitter import (
    GoldenDiff, axiom_text, diff_golden, emit_manchester, render_document,
)

__version__ = "0.1.0"
