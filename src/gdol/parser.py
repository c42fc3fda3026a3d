"""Parser for pattern documents and embedded Manchester fragments.

The lexer is one regular expression with a named group per token class.  It
skips newlines, blanks and `%%` comments, which run to the end of the line,
and yields identifiers (a letter or `_`, then letters, digits or `_`),
integers (decimal digits) and punctuation; any other character is an error.

The parser is hand-rolled recursive descent over that flat token list.  All
keywords are contextual: the lexer only knows identifiers, integers, and
punctuation, and the parser decides what an identifier means from its
position.

The one real ambiguity in the grammar is `and`, which both joins specs and
joins conjuncts inside a class expression.  We resolve it with bounded
lookahead: after `and`, a parenthesis, an `inverse`, a non-empty brace
enumeration, or a name followed by some/only/max continues the expression;
anything else returns control to the spec level.  A bare class name used as
a conjunct directly after `and` therefore needs parentheses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from typing import Callable, TypeVar

from .errors import ParseError, UnbalancedBracket, UnknownKeyword
from .model import (
    And, Argument, BasicSpec, ClassAssertion, ClassExpr, ConsArg,
    DifferentIndividuals, DisjointClasses, Document, Domain, EmptyArg,
    EmptySpec, EquivalentClasses, ExtensionSpec, Functional, InstSpec,
    InverseProps, LetSpec, ListArg, Max, Name, Named, OneOf, Only, Ontology,
    OntologyDef, Parameter, PatternDef, PropAssertion, PropExpr, Range,
    RefinementDef, Some, Spec, SubClassOf, SubPropertyChain, SubPropertyOf,
    SymbolArg, SymbolKind, Transitive, TopDecl, UnionSpec,
)

# `[^\W\d]` also admits digits that are not decimal digits (`²`, `①`);
# `tokenize` rejects an identifier that starts with one.
_TOKEN = re.compile(r"""
    (?P<newline>\n)
  | (?P<space>[ \t\r]+)
  | (?P<comment>%%[^\n]*)
  | (?P<ident>[^\W\d]\w*)
  | (?P<int>\d+)
  | (?P<sym>\|->|::|[][{}();,:?=])
  | (?P<other>.)
""", re.VERBOSE)

_KIND_KEYWORDS = {k.keyword for k in SymbolKind}
_RESTRICTIONS = {"some", "only", "max"}
_CLAUSE_KEYWORDS = {
    "SubClassOf", "EquivalentTo", "DisjointWith", "Types", "Facts",
    "Domain", "Range", "Characteristics", "SubPropertyOf", "InverseOf",
    "SubPropertyChain",
}
_PARAM_CONSTRAINT_KEYWORDS = {"Domain", "Range", "Types", "Facts"}
_STANDALONE_KEYWORDS = {"DifferentIndividuals", "EquivalentClasses", "DisjointClasses"}

# a clause whose values are class expressions -> the axiom that one value
# states about the frame's subject
_EXPR_CLAUSES: dict[str, Callable[[Name, ClassExpr], object]] = {
    "SubClassOf": lambda s, v: SubClassOf(Named(s), v),
    "EquivalentTo": lambda s, v: EquivalentClasses(Named(s), v),
    "DisjointWith": lambda s, v: DisjointClasses(Named(s), v),
    "Domain": Domain,
    "Range": Range,
    "Types": lambda s, v: ClassAssertion(v, s),
}
_CHARACTERISTICS = {"Functional": Functional, "Transitive": Transitive}

# How deep lets, parenthesised or restricted class expressions, bracketed
# name arguments and `::` conses may nest, all counted together.  It keeps
# the descent, and every recursive walk over what it builds, well inside the
# default recursion limit, so a document is rejected at the same place on
# every interpreter and from any caller.
_MAX_NESTING = 100

_T = TypeVar("_T")


@dataclass(frozen=True)
class Token:
    type: str  # ident | int | sym | eof
    value: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, value = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "other" or kind == "ident" and not (value[0].isalpha() or value[0] == "_"):
            raise ParseError(f"unexpected character {value[0]!r}", line, col)
        elif kind in ("ident", "int", "sym"):
            toks.append(Token(kind, value, line, col))
    toks.append(Token("eof", "", line, len(text) - line_start + 1))
    return toks


class _Parser:
    def __init__(self, text: str) -> None:
        self.toks = tokenize(text)
        self.pos = 0
        self.depth = 0

    # --- token helpers ---

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.peek()
        if t.type != "eof":
            self.pos += 1
        return t

    def at(self, value: str, k: int = 0) -> bool:
        # symbols and words never share a spelling, so the value alone
        # tells a `[` from an `and`
        return self.peek(k).value == value

    def accept(self, value: str) -> bool:
        """Consume the next token if it is `value`."""
        if self.at(value):
            self.next()
            return True
        return False

    def sep(self, item: Callable[[], _T], by: str = ",") -> list[_T]:
        """`item()`, then one more `item()` after each `by`."""
        items = [item()]
        while self.accept(by):
            items.append(item())
        return items

    def expected(self, what: str, cls: type[ParseError] = ParseError) -> ParseError:
        t = self.peek()
        return cls(f"expected {what}, found {t.value or 'end of input'!r}", t.line, t.col)

    def expect_sym(self, value: str) -> Token:
        if not self.at(value):
            raise self.expected(repr(value), UnbalancedBracket if value in "]})" else ParseError)
        return self.next()

    def expect_ident(self, value: str | None = None) -> Token:
        t = self.peek()
        if t.type != "ident" or (value is not None and t.value != value):
            raise self.expected(repr(value or "a name"))
        return self.next()

    def error(self, message: str) -> ParseError:
        t = self.peek()
        return ParseError(message, t.line, t.col)

    def descend(self) -> None:
        """Enter one level of nesting; the caller leaves it again with
        `self.depth -= 1` (an error abandons the whole parse)."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise self.error("nesting too deep")

    def expect_kind(self) -> SymbolKind:
        t = self.expect_ident()
        if t.value not in _KIND_KEYWORDS:
            raise ParseError(f"expected a symbol kind, found {t.value!r}", t.line, t.col)
        return SymbolKind.from_keyword(t.value)

    # --- names ---

    def parse_name(self) -> Name:
        t = self.expect_ident()
        if not self.accept("["):
            return Name(t.value)
        self.descend()
        args = self.sep(self.parse_name)
        self.expect_sym("]")
        self.depth -= 1
        return Name(t.value, tuple(args))

    # --- class expressions ---

    def _at_frame_start(self, k: int = 0) -> bool:
        t = self.peek(k)
        return (
            t.type == "ident"
            and (t.value in _KIND_KEYWORDS or t.value in _STANDALONE_KEYWORDS)
            and self.at(":", k + 1)
        )

    def _at_clause_start(self, keywords: set[str]) -> bool:
        t = self.peek()
        return t.type == "ident" and t.value in keywords and self.at(":", 1)

    def _conjunct_follows(self) -> bool:
        # called with the cursor on `and`; decide expression vs spec level
        if self.at("(", 1) or self.at("inverse", 1):
            return True
        if self.at("{", 1):
            return not self.at("}", 2)
        if self.peek(1).type != "ident":
            return False
        k = 2
        if self.at("[", k):
            depth = 1
            k += 1
            while depth and self.peek(k).type != "eof":
                if self.at("[", k):
                    depth += 1
                elif self.at("]", k):
                    depth -= 1
                k += 1
        t = self.peek(k)
        return t.type == "ident" and t.value in _RESTRICTIONS

    def parse_expr(self) -> ClassExpr:
        parts = [self.parse_conjunct()]
        while self.at("and") and self._conjunct_follows():
            self.next()
            parts.append(self.parse_conjunct())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_conjunct(self) -> ClassExpr:
        if self.accept("("):
            self.descend()
            e = self.parse_expr()
            self.expect_sym(")")
            self.depth -= 1
            return e
        if self.accept("{"):
            if self.at("}"):
                raise self.error("empty enumeration is not a class expression")
            members = self.sep(self.parse_name)
            self.expect_sym("}")
            return OneOf(tuple(members))
        prop = self._prop()
        t = self.peek()
        if t.type != "ident" or t.value not in _RESTRICTIONS:
            if prop.inverse:
                raise self.error("inverse must be followed by a restriction")
            return Named(prop.name)
        self.next()
        n = self._cardinality() if t.value == "max" else 0
        self.descend()
        filler = self.parse_conjunct()
        self.depth -= 1
        if t.value == "max":
            return Max(n, prop, filler)
        return Some(prop, filler) if t.value == "some" else Only(prop, filler)

    def _cardinality(self) -> int:
        t = self.peek()
        if t.type != "int":
            raise self.error("max needs a cardinality")
        try:
            n = int(t.value)
        except ValueError:  # more digits than the interpreter converts
            raise self.error("cardinality has too many digits") from None
        self.next()
        return n

    def _prop(self) -> PropExpr:
        inverse = self.accept("inverse")
        return PropExpr(self.parse_name(), inverse)

    # --- Manchester frames ---

    def _parse_clauses(self, subject: Name, keywords: set[str]) -> list:
        axioms: list = []
        while self._at_clause_start(keywords):
            kw = self.next().value
            self.next()  # ':'
            if kw in _EXPR_CLAUSES:
                axioms.extend(_EXPR_CLAUSES[kw](subject, v) for v in self.sep(self.parse_expr))
            elif kw == "Facts":
                axioms.extend(self.sep(
                    lambda: PropAssertion(self.parse_name(), subject, self.parse_name())))
            elif kw == "Characteristics":
                axioms.extend(self.sep(lambda: self._characteristic(subject)))
            elif kw == "SubPropertyOf":
                axioms.append(SubPropertyOf(PropExpr(subject), self._prop()))
            elif kw == "InverseOf":
                axioms.append(InverseProps(subject, self.parse_name()))
            else:
                chain = self.sep(self._prop, by="o")
                if len(chain) < 2:
                    raise self.error("a property chain needs at least two links")
                axioms.append(SubPropertyChain(subject, tuple(chain)))
        return axioms

    def _characteristic(self, subject: Name):
        t = self.expect_ident()
        if t.value not in _CHARACTERISTICS:
            raise UnknownKeyword(f"unsupported characteristic {t.value!r}", t.line, t.col)
        return _CHARACTERISTICS[t.value](subject)

    def _parse_standalone(self):
        kw = self.next().value
        self.next()  # ':'
        if kw == "DifferentIndividuals":
            return DifferentIndividuals(tuple(self.sep(self.parse_name)))
        a = self.parse_expr()
        self.expect_sym(",")
        b = self.parse_expr()
        return EquivalentClasses(a, b) if kw == "EquivalentClasses" else DisjointClasses(a, b)

    def parse_basic(self) -> Ontology:
        decls: list = []
        axioms: list = []
        while self._at_frame_start():
            if self.peek().value in _STANDALONE_KEYWORDS:
                axioms.append(self._parse_standalone())
                continue
            kind = self.expect_kind()
            self.next()  # ':'
            subject = self.parse_name()
            decls.append((kind, subject))
            axioms.extend(self._parse_clauses(subject, _CLAUSE_KEYWORDS))
        if not decls and not axioms:
            raise self.error("expected a declaration frame")
        return Ontology.of(decls, axioms)

    # --- instantiation arguments ---

    def _bracketed(self, item: Callable[[], _T], by: str) -> tuple[_T, ...]:
        """`[`, no items or items separated by `by`, `]`."""
        self.expect_sym("[")
        items = () if self.at("]") else tuple(self.sep(item, by))
        self.expect_sym("]")
        return items

    def _list_item(self) -> Argument:
        if self.accept("{"):
            self.expect_sym("}")
            return EmptyArg()
        return SymbolArg(self.parse_name())

    def parse_argument(self) -> Argument:
        if self.at(";") or self.at("]"):
            return EmptyArg()
        if self.accept("{"):
            self.expect_sym("}")
            return EmptyArg()
        if self.at("["):
            return ListArg(self._bracketed(self._list_item, ","))
        kind: SymbolKind | None = None
        if self.peek().value in _KIND_KEYWORDS and self.at(":", 1):
            kind = self.expect_kind()
            self.next()  # ':'
        arg: Argument = SymbolArg(self.parse_name(), kind)
        if not self.accept("::"):
            return arg
        self.descend()
        tail = self.parse_argument()
        self.depth -= 1
        return ConsArg(arg, tail)

    # --- specs ---

    def parse_spec(self) -> Spec:
        return reduce(ExtensionSpec, self.sep(self.parse_union, by="then"))

    def parse_union(self) -> Spec:
        left = self.parse_atom()
        while self.at("and") and not self._conjunct_follows():
            self.next()
            left = UnionSpec(left, self.parse_atom())
        return left

    def parse_atom(self) -> Spec:
        t = self.peek()
        if self.at("{") and self.at("}", 1):
            self.next()
            self.next()
            return EmptySpec()
        if self.at("let"):
            return self._parse_let()
        if self._at_frame_start():
            return BasicSpec(self.parse_basic())
        if t.type != "ident":
            raise self.expected("a spec")
        self.next()
        loc = (t.line, t.col)
        if self.at("["):
            return InstSpec(t.value, self._bracketed(self.parse_argument, ";"), bracketed=True, loc=loc)
        return InstSpec(t.value, (), bracketed=False, loc=loc)

    def _parse_let(self) -> LetSpec:
        self.descend()
        self.expect_ident("let")
        locals_: list[PatternDef] = []
        while self.at("pattern"):
            locals_.append(self._parse_pattern(allow_given=False))
        if not locals_:
            raise self.error("let needs at least one local pattern")
        self.expect_ident("in")
        body = self.parse_spec()
        self.depth -= 1
        return LetSpec(tuple(locals_), body)

    # --- parameters ---

    def parse_parameter(self) -> Parameter:
        optional = self.accept("?")
        braced = self.accept("{")
        if not braced and self.peek().value not in _KIND_KEYWORDS:
            raise self.expected("a parameter kind")
        kind = self.expect_kind()
        self.expect_sym(":")
        name = self.expect_ident().value
        tail = None if braced else self._tail()
        constraints = self._parse_clauses(Name(name), _PARAM_CONSTRAINT_KEYWORDS)
        if braced:
            self.expect_sym("}")
            tail = self._tail()
        return Parameter(kind, name, optional, tail, tuple(constraints))

    def _tail(self) -> str | None:
        return self.expect_ident().value if self.accept("::") else None

    def _parse_given(self) -> tuple[str, ...]:
        if not self.accept("given"):
            return ()
        return tuple(self.sep(lambda: self.expect_ident().value))

    # --- top-level declarations ---

    def _parse_pattern(self, allow_given: bool = True) -> PatternDef:
        self.expect_ident("pattern")
        name = self.expect_ident().value
        params = self._bracketed(self.parse_parameter, ";")
        seen: set[str] = set()
        for p in params:
            for nm in (p.name, p.list_tail):
                if nm is None:
                    continue
                if nm in seen:
                    raise self.error(f"duplicate parameter name {nm!r} in pattern {name!r}")
                seen.add(nm)
        imports = self._parse_given() if allow_given else ()
        self.expect_sym("=")
        return PatternDef(name, params, self.parse_spec(), imports)

    def _parse_ontology(self) -> OntologyDef:
        self.expect_ident("ontology")
        name = self.expect_ident().value
        imports = self._parse_given()
        self.expect_sym("=")
        return OntologyDef(name, self.parse_spec(), imports)

    def _parse_refinement(self) -> RefinementDef:
        self.expect_ident("refinement")
        name = self.expect_ident().value
        self.expect_sym("=")
        source = self.parse_spec()
        self.expect_ident("refined")
        self.expect_ident("to")
        target = self.parse_spec()
        pairs = self.sep(self._map_pair) if self.accept("with") else []
        return RefinementDef(name, source, target, tuple(pairs))

    def _map_pair(self) -> tuple[Name, Name]:
        a = self.parse_name()
        self.expect_sym("|->")
        return a, self.parse_name()

    def parse_document(self) -> Document:
        decls: list[TopDecl] = []
        names: set[str] = set()
        while self.peek().type != "eof":
            if self.at("pattern"):
                decl: TopDecl = self._parse_pattern()
            elif self.at("ontology"):
                decl = self._parse_ontology()
            elif self.at("refinement"):
                decl = self._parse_refinement()
            else:
                raise self.expected("pattern, ontology, or refinement")
            if decl.name in names:
                raise self.error(f"duplicate declaration {decl.name!r}")
            names.add(decl.name)
            decls.append(decl)
        return Document(tuple(decls))


def parse_document(text: str) -> Document:
    p = _Parser(text)
    try:
        return p.parse_document()
    except RecursionError:  # a caller that was already deep in its stack
        raise p.error("nesting too deep") from None


def parse_manchester_fragment(text: str) -> Ontology:
    """Parse a bare Manchester fragment (frames only, no pattern syntax)."""
    p = _Parser(text)
    if p.peek().type == "eof":
        return Ontology()
    ont = p.parse_basic()
    if p.peek().type != "eof":
        raise p.error(f"unexpected {p.peek().value!r} after frames")
    return ont
