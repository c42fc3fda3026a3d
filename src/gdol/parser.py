"""Parser for pattern documents and embedded Manchester fragments.

The lexer blanks out `%%` comments, which run to the end of the line, and
splits the text with one regular expression into blank runs and tokens:
identifiers (a letter or `_`, then letters, digits or `_`), integers
(decimal digits) and punctuation; any other character is an error.  A token
is the plain string it is spelled with, since its first character tells its
kind.  `tokenize` returns those strings and, in a parallel list, the offset
where each starts, both ending with one EOF token: the empty string, at the
end of the text.  The parser pads the token list with more EOF tokens, so
that looking at the current token or a fixed number ahead of it is plain
list indexing and never runs off the end.

Lines and columns are worked out only when they are asked for: when a
`ParseError` is raised, and for an instantiation's `InstSpec.loc`.  The
first question lists the offsets where lines start, and the line of an
offset is then a `bisect` over them.

The parser is hand-rolled recursive descent over the token list.  All
keywords are contextual: the lexer only knows identifiers, integers, and
punctuation, and the parser decides what an identifier means from its
position.

The one real ambiguity in the grammar is `and`, which both joins specs and
joins conjuncts inside a class expression.  It arises only at the top of a
clause value in a document body: inside parentheses, and anywhere in a
Manchester fragment, where there is no spec level, `and` always continues
the class expression.  At the top of a clause value we resolve it with
bounded lookahead: after `and`, a parenthesis, an `inverse`, a non-empty
brace enumeration, or a name followed by some/only/max continues the
expression; anything else returns control to the spec level.  A bare class
name used as a conjunct directly after `and` there therefore needs
parentheses: `A and (B)`.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate
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

_COMMENT = re.compile(r"%%[^\n]*")
# `_TOKEN.split` of a text without comments is a blank run, then a token and
# None, or None and a character the lexer rejects, then a blank run, and so
# on.  `[^\W\d]` also admits digits that are not decimal digits
# (`²`, `①`); `tokenize` rejects an identifier that starts with one.
_TOKEN = re.compile(r"([^\W\d]\w*|\d+|\|->|::|[][{}();,:?=])|([^ \t\r\n])")
_LINE = re.compile(r"^", re.MULTILINE)
_EOF = ""
# EOF tokens after the one `tokenize` ends with: the cursor never moves past
# that one, and no lookahead reads more than two tokens ahead of the cursor
_PAD = [_EOF] * 2

_KIND_KEYWORDS = {k.keyword for k in SymbolKind}
_RESTRICTIONS = {"some", "only", "max"}
_CLAUSE_KEYWORDS = {
    "SubClassOf", "EquivalentTo", "DisjointWith", "Types", "Facts",
    "Domain", "Range", "Characteristics", "SubPropertyOf", "InverseOf",
    "SubPropertyChain",
}
_PARAM_CONSTRAINT_KEYWORDS = {"Domain", "Range", "Types", "Facts"}
_STANDALONE_KEYWORDS = {"DifferentIndividuals", "EquivalentClasses", "DisjointClasses"}
_FRAME_KEYWORDS = _KIND_KEYWORDS | _STANDALONE_KEYWORDS

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


def _line_col(line_starts: list[int], offset: int) -> tuple[int, int]:
    line = bisect_right(line_starts, offset)
    return line, offset - line_starts[line - 1] + 1


def _line_starts(text: str) -> list[int]:
    return [m.start() for m in _LINE.finditer(text)]


class Tokens(list):
    """The tokens of a text, then one EOF token; `offsets[i]` is where token
    i starts in the text, the EOF token at its end."""

    __slots__ = ("offsets",)


def tokenize(text: str) -> Tokens:
    if "%%" in text:  # as many blanks for each comment keep every offset
        text = _COMMENT.sub(lambda m: " " * len(m[0]), text)
    parts = _TOKEN.split(text)
    if any(parts[2::3]) or not text.isascii():
        _reject(text, parts)
    del parts[2::3]  # all None; blank runs and tokens alternate in the rest
    toks = Tokens(parts[1::2])
    toks.append(_EOF)
    toks.offsets = list(accumulate(map(len, parts)))[::2]
    return toks


def _reject(text: str, parts: list) -> None:
    """Raise a located error at the first character the lexer rejects, if
    there is one."""
    for i in range(1, len(parts), 3):
        c = (parts[i] or parts[i + 1])[0]
        if parts[i] is None or c.isalnum() and not (c.isalpha() or c.isdecimal()):
            offset = sum(map(len, filter(None, parts[:i])))
            raise ParseError(f"unexpected character {c!r}", *_line_col(_line_starts(text), offset))


def _is_name(t: str) -> bool:
    """Whether token t is an identifier: one that starts with a letter or `_`."""
    return t.isidentifier() or t[:1].isalpha() or t[:1] == "_"


def _conjunction(parts: list[ClassExpr]) -> ClassExpr:
    return parts[0] if len(parts) == 1 else And(tuple(parts))


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        toks = tokenize(text)
        self.toks = toks + _PAD
        self.offsets = toks.offsets
        self.pos = 0
        self.depth = 0
        self._line_starts: list[int] = []  # filled on first use

    # --- token helpers ---

    def peek(self, k: int = 0) -> str:
        return self.toks[self.pos + k]

    def at(self, value: str, k: int = 0) -> bool:
        # symbols and words never share a spelling, so the value alone
        # tells a `[` from an `and`
        return self.toks[self.pos + k] == value

    def accept(self, value: str) -> bool:
        """Consume the next token if it is `value`."""
        if self.toks[self.pos] == value:
            self.pos += 1
            return True
        return False

    def sep(self, item: Callable[[], _T], by: str = ",") -> list[_T]:
        """`item()`, then one more `item()` after each `by`."""
        items = [item()]
        while self.accept(by):
            items.append(item())
        return items

    def loc(self, i: int | None = None) -> tuple[int, int]:
        """(line, column) of token i, the current token by default."""
        if not self._line_starts:
            self._line_starts = _line_starts(self.text)
        return _line_col(self._line_starts, self.offsets[self.pos if i is None else i])

    def expected(self, what: str, cls: type[ParseError] = ParseError) -> ParseError:
        return cls(f"expected {what}, found {self.peek() or 'end of input'!r}", *self.loc())

    def expect_sym(self, value: str) -> None:
        if not self.accept(value):
            raise self.expected(repr(value), UnbalancedBracket if value in "]})" else ParseError)

    def expect_ident(self, value: str | None = None) -> str:
        t = self.peek()
        if t != value if value else not _is_name(t):
            raise self.expected(repr(value or "a name"))
        self.pos += 1
        return t

    def error(self, message: str) -> ParseError:
        return ParseError(message, *self.loc())

    def descend(self) -> None:
        """Enter one level of nesting; the caller leaves it again with
        `self.depth -= 1` (an error abandons the whole parse)."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise self.error("nesting too deep")

    def expect_kind(self) -> SymbolKind:
        t = self.expect_ident()
        if t not in _KIND_KEYWORDS:
            raise ParseError(f"expected a symbol kind, found {t!r}", *self.loc(self.pos - 1))
        return SymbolKind.from_keyword(t)

    # --- names ---

    def parse_name(self) -> Name:
        t = self.expect_ident()
        if not self.accept("["):
            return Name(t)
        self.descend()
        args = self.sep(self.parse_name)
        self.expect_sym("]")
        self.depth -= 1
        return Name(t, tuple(args))

    # --- class expressions ---

    def _at_frame_start(self) -> bool:
        return self.peek() in _FRAME_KEYWORDS and self.at(":", 1)

    def _at_clause_start(self, keywords: set[str]) -> bool:
        return self.peek() in keywords and self.at(":", 1)

    def _conjunct_follows(self) -> bool:
        # called with the cursor on `and` at the top of a clause value;
        # decide expression vs spec level
        if self.at("(", 1) or self.at("inverse", 1):
            return True
        if self.at("{", 1):
            return not self.at("}", 2)
        if not _is_name(self.peek(1)):
            return False
        toks, k = self.toks, self.pos + 2
        if toks[k] == "[":
            depth = 1
            k += 1
            while depth and toks[k] != _EOF:
                if toks[k] == "[":
                    depth += 1
                elif toks[k] == "]":
                    depth -= 1
                k += 1
        return toks[k] in _RESTRICTIONS

    def parse_expr(self) -> ClassExpr:
        """A class expression at the top of a clause value."""
        parts = [self.parse_conjunct()]
        while self.at("and") and self._conjunct_follows():
            self.pos += 1
            parts.append(self.parse_conjunct())
        return _conjunction(parts)

    def parse_conjunct(self) -> ClassExpr:
        if self.accept("("):
            self.descend()
            e = _conjunction(self.sep(self.parse_conjunct, by="and"))
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
        if t not in _RESTRICTIONS:
            if prop.inverse:
                raise self.error("inverse must be followed by a restriction")
            return Named(prop.name)
        self.pos += 1
        n = self._cardinality() if t == "max" else 0
        self.descend()
        filler = self.parse_conjunct()
        self.depth -= 1
        if t == "max":
            return Max(n, prop, filler)
        return Some(prop, filler) if t == "some" else Only(prop, filler)

    def _cardinality(self) -> int:
        t = self.peek()
        if not t.isdecimal():
            raise self.error("max needs a cardinality")
        try:
            n = int(t)
        except ValueError:  # more digits than the interpreter converts
            raise self.error("cardinality has too many digits") from None
        self.pos += 1
        return n

    def _prop(self) -> PropExpr:
        inverse = self.accept("inverse")
        return PropExpr(self.parse_name(), inverse)

    # --- Manchester frames ---

    def _parse_clauses(self, subject: Name, keywords: set[str]) -> list:
        axioms: list = []
        while self._at_clause_start(keywords):
            kw = self.peek()
            self.pos += 2  # the keyword and ':'
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
        if t not in _CHARACTERISTICS:
            raise UnknownKeyword(f"unsupported characteristic {t!r}", *self.loc(self.pos - 1))
        return _CHARACTERISTICS[t](subject)

    def _parse_standalone(self):
        kw = self.peek()
        self.pos += 2  # the keyword and ':'
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
            if self.peek() in _STANDALONE_KEYWORDS:
                axioms.append(self._parse_standalone())
                continue
            kind = self.expect_kind()
            self.pos += 1  # ':'
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
        t = self.peek()
        if t == ";" or t == "]":
            return EmptyArg()
        if self.accept("{"):
            self.expect_sym("}")
            return EmptyArg()
        if t == "[":
            return ListArg(self._bracketed(self._list_item, ","))
        kind: SymbolKind | None = None
        if t in _KIND_KEYWORDS and self.at(":", 1):
            kind = SymbolKind.from_keyword(t)
            self.pos += 2
        arg: Argument = SymbolArg(self.parse_name(), kind)
        if not self.accept("::"):
            return arg
        self.descend()
        tail = self.parse_argument()
        self.depth -= 1
        return ConsArg(arg, tail)

    # --- specs ---

    def parse_spec(self) -> Spec:
        ops = self.sep(self.parse_union, by="then")
        return ExtensionSpec(tuple(ops)) if len(ops) > 1 else ops[0]

    def parse_union(self) -> Spec:
        ops = [self.parse_atom()]
        while self.at("and") and not self._conjunct_follows():
            self.pos += 1
            ops.append(self.parse_atom())
        return UnionSpec(tuple(ops)) if len(ops) > 1 else ops[0]

    def parse_atom(self) -> Spec:
        t = self.peek()
        if t == "{" and self.at("}", 1):
            self.pos += 2
            return EmptySpec()
        if t == "let":
            return self._parse_let()
        if self._at_frame_start():
            return BasicSpec(self.parse_basic())
        if not _is_name(t):
            raise self.expected("a spec")
        loc = self.loc()
        self.pos += 1
        if self.at("["):
            return InstSpec(t, self._bracketed(self.parse_argument, ";"), bracketed=True, loc=loc)
        return InstSpec(t, (), bracketed=False, loc=loc)

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
        if not braced and self.peek() not in _KIND_KEYWORDS:
            raise self.expected("a parameter kind")
        kind = self.expect_kind()
        self.expect_sym(":")
        name = self.expect_ident()
        tail = None if braced else self._tail()
        constraints = self._parse_clauses(Name(name), _PARAM_CONSTRAINT_KEYWORDS)
        if braced:
            self.expect_sym("}")
            tail = self._tail()
        return Parameter(kind, name, optional, tail, tuple(constraints))

    def _tail(self) -> str | None:
        return self.expect_ident() if self.accept("::") else None

    def _parse_given(self) -> tuple[str, ...]:
        if not self.accept("given"):
            return ()
        return tuple(self.sep(self.expect_ident))

    # --- top-level declarations ---

    def _parse_pattern(self, allow_given: bool = True) -> PatternDef:
        self.expect_ident("pattern")
        name = self.expect_ident()
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
        name = self.expect_ident()
        imports = self._parse_given()
        self.expect_sym("=")
        return OntologyDef(name, self.parse_spec(), imports)

    def _parse_refinement(self) -> RefinementDef:
        self.expect_ident("refinement")
        name = self.expect_ident()
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
        while not self.at(_EOF):
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


class _FragmentParser(_Parser):
    """A fragment has no spec level, so `and` always joins conjuncts."""

    def _conjunct_follows(self) -> bool:
        return True


def parse_manchester_fragment(text: str) -> Ontology:
    """Parse a bare Manchester fragment (frames only, no pattern syntax)."""
    p = _FragmentParser(text)
    if p.at(_EOF):
        return Ontology()
    ont = p.parse_basic()
    if not p.at(_EOF):
        raise p.error(f"unexpected {p.peek()!r} after frames")
    return ont
