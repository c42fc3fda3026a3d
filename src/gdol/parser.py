"""Parser for pattern documents and embedded Manchester fragments.

Hand-rolled recursive descent over a flat token list.  All keywords are
contextual: the tokenizer only knows identifiers, integers, and punctuation,
and the parser decides what an identifier means from its position.

The one real ambiguity in the grammar is `and`, which both joins specs and
joins conjuncts inside a class expression.  We resolve it with bounded
lookahead: after `and`, a parenthesis, an `inverse`, a non-empty brace
enumeration, or a name followed by some/only/max continues the expression;
anything else returns control to the spec level.  A bare class name used as
a conjunct directly after `and` therefore needs parentheses.
"""

from __future__ import annotations

from dataclasses import dataclass

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

_SYMBOLS2 = ("|->", "::")
_SYMBOLS1 = "[]{}();,:?="

_KIND_KEYWORDS = {k.keyword for k in SymbolKind}
_RESTRICTIONS = {"some", "only", "max"}
_CLAUSE_KEYWORDS = {
    "SubClassOf", "EquivalentTo", "DisjointWith", "Types", "Facts",
    "Domain", "Range", "Characteristics", "SubPropertyOf", "InverseOf",
    "SubPropertyChain",
}
_PARAM_CONSTRAINT_KEYWORDS = {"Domain", "Range", "Types", "Facts"}
_STANDALONE_KEYWORDS = {"DifferentIndividuals", "EquivalentClasses", "DisjointClasses"}


@dataclass(frozen=True)
class Token:
    type: str  # ident | int | sym | eof
    value: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i, col = i + 1, col + 1
            continue
        if text.startswith("%%", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        matched = False
        for s in _SYMBOLS2:
            if text.startswith(s, i):
                toks.append(Token("sym", s, line, col))
                i += len(s)
                col += len(s)
                matched = True
                break
        if matched:
            continue
        if c in _SYMBOLS1:
            toks.append(Token("sym", c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str) -> None:
        self.toks = tokenize(text)
        self.pos = 0

    # --- token helpers ---

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.peek()
        if t.type != "eof":
            self.pos += 1
        return t

    def at_sym(self, value: str, k: int = 0) -> bool:
        t = self.peek(k)
        return t.type == "sym" and t.value == value

    def at_ident(self, value: str, k: int = 0) -> bool:
        t = self.peek(k)
        return t.type == "ident" and t.value == value

    def expect_sym(self, value: str) -> Token:
        t = self.peek()
        if not self.at_sym(value):
            if value in "]})":
                raise UnbalancedBracket(f"expected {value!r}, found {t.value or 'end of input'!r}", t.line, t.col)
            raise ParseError(f"expected {value!r}, found {t.value or 'end of input'!r}", t.line, t.col)
        return self.next()

    def expect_ident(self, value: str | None = None) -> Token:
        t = self.peek()
        if t.type != "ident" or (value is not None and t.value != value):
            want = value or "a name"
            raise ParseError(f"expected {want!r}, found {t.value or 'end of input'!r}", t.line, t.col)
        return self.next()

    def error(self, message: str) -> ParseError:
        t = self.peek()
        return ParseError(message, t.line, t.col)

    def expect_kind(self) -> SymbolKind:
        t = self.expect_ident()
        if t.value not in _KIND_KEYWORDS:
            raise ParseError(f"expected a symbol kind, found {t.value!r}", t.line, t.col)
        return SymbolKind.from_keyword(t.value)

    # --- names ---

    def parse_name(self) -> Name:
        t = self.expect_ident()
        if not self.at_sym("["):
            return Name(t.value)
        self.next()
        args = [self.parse_name()]
        while self.at_sym(","):
            self.next()
            args.append(self.parse_name())
        self.expect_sym("]")
        return Name(t.value, tuple(args))

    # --- class expressions ---

    def _at_frame_start(self, k: int = 0) -> bool:
        t = self.peek(k)
        return (
            t.type == "ident"
            and (t.value in _KIND_KEYWORDS or t.value in _STANDALONE_KEYWORDS)
            and self.at_sym(":", k + 1)
        )

    def _at_clause_start(self, keywords: set[str]) -> bool:
        t = self.peek()
        return t.type == "ident" and t.value in keywords and self.at_sym(":", 1)

    def _conjunct_follows(self) -> bool:
        # called with the cursor on `and`; decide expression vs spec level
        if self.at_sym("(", 1):
            return True
        if self.at_sym("{", 1):
            return not self.at_sym("}", 2)
        if self.at_ident("inverse", 1):
            return True
        t = self.peek(1)
        if t.type != "ident":
            return False
        k = 2
        if self.at_sym("[", k):
            depth = 1
            k += 1
            while depth and self.peek(k).type != "eof":
                if self.at_sym("[", k):
                    depth += 1
                elif self.at_sym("]", k):
                    depth -= 1
                k += 1
        t = self.peek(k)
        return t.type == "ident" and t.value in _RESTRICTIONS

    def parse_expr(self) -> ClassExpr:
        parts = [self.parse_conjunct()]
        while self.at_ident("and") and self._conjunct_follows():
            self.next()
            parts.append(self.parse_conjunct())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_conjunct(self) -> ClassExpr:
        if self.at_sym("("):
            self.next()
            e = self.parse_expr()
            self.expect_sym(")")
            return e
        if self.at_sym("{"):
            self.next()
            if self.at_sym("}"):
                raise self.error("empty enumeration is not a class expression")
            members = [self.parse_name()]
            while self.at_sym(","):
                self.next()
                members.append(self.parse_name())
            self.expect_sym("}")
            return OneOf(tuple(members))
        inverse = False
        if self.at_ident("inverse"):
            self.next()
            inverse = True
        name = self.parse_name()
        t = self.peek()
        if t.type == "ident" and t.value in _RESTRICTIONS:
            prop = PropExpr(name, inverse)
            kw = self.next().value
            if kw == "max":
                num = self.peek()
                if num.type != "int":
                    raise self.error("max needs a cardinality")
                self.next()
                return Max(int(num.value), prop, self.parse_conjunct())
            filler = self.parse_conjunct()
            return Some(prop, filler) if kw == "some" else Only(prop, filler)
        if inverse:
            raise self.error("inverse must be followed by a restriction")
        return Named(name)

    # --- Manchester frames ---

    def _parse_chain(self) -> tuple[PropExpr, ...]:
        def elem() -> PropExpr:
            inv = False
            if self.at_ident("inverse"):
                self.next()
                inv = True
            return PropExpr(self.parse_name(), inv)

        chain = [elem()]
        while self.at_ident("o"):
            self.next()
            chain.append(elem())
        if len(chain) < 2:
            raise self.error("a property chain needs at least two links")
        return tuple(chain)

    def _parse_clauses(self, subject: Name, keywords: set[str]) -> list:
        axioms: list = []
        s = Named(subject)
        while self._at_clause_start(keywords):
            kw = self.next().value
            self.next()  # ':'
            if kw in ("SubClassOf", "EquivalentTo", "DisjointWith", "Domain", "Range", "Types"):
                values = [self.parse_expr()]
                while self.at_sym(","):
                    self.next()
                    values.append(self.parse_expr())
                for v in values:
                    if kw == "SubClassOf":
                        axioms.append(SubClassOf(s, v))
                    elif kw == "EquivalentTo":
                        axioms.append(EquivalentClasses(s, v))
                    elif kw == "DisjointWith":
                        axioms.append(DisjointClasses(s, v))
                    elif kw == "Domain":
                        axioms.append(Domain(subject, v))
                    elif kw == "Range":
                        axioms.append(Range(subject, v))
                    else:
                        axioms.append(ClassAssertion(v, subject))
            elif kw == "Facts":
                while True:
                    prop = self.parse_name()
                    obj = self.parse_name()
                    axioms.append(PropAssertion(prop, subject, obj))
                    if not self.at_sym(","):
                        break
                    self.next()
            elif kw == "Characteristics":
                while True:
                    t = self.expect_ident()
                    if t.value == "Functional":
                        axioms.append(Functional(subject))
                    elif t.value == "Transitive":
                        axioms.append(Transitive(subject))
                    else:
                        raise UnknownKeyword(f"unsupported characteristic {t.value!r}", t.line, t.col)
                    if not self.at_sym(","):
                        break
                    self.next()
            elif kw == "SubPropertyOf":
                inv = False
                if self.at_ident("inverse"):
                    self.next()
                    inv = True
                axioms.append(SubPropertyOf(PropExpr(subject), PropExpr(self.parse_name(), inv)))
            elif kw == "InverseOf":
                axioms.append(InverseProps(subject, self.parse_name()))
            elif kw == "SubPropertyChain":
                axioms.append(SubPropertyChain(subject, self._parse_chain()))
            else:
                raise AssertionError(kw)
        return axioms

    def _parse_standalone(self) -> list:
        kw = self.next().value
        self.next()  # ':'
        if kw == "DifferentIndividuals":
            members = [self.parse_name()]
            while self.at_sym(","):
                self.next()
                members.append(self.parse_name())
            return [DifferentIndividuals(tuple(members))]
        a = self.parse_expr()
        self.expect_sym(",")
        b = self.parse_expr()
        return [EquivalentClasses(a, b) if kw == "EquivalentClasses" else DisjointClasses(a, b)]

    def parse_basic(self) -> Ontology:
        decls: list = []
        axioms: list = []
        while True:
            if not self._at_frame_start():
                break
            word = self.peek().value
            if word in _STANDALONE_KEYWORDS:
                axioms.extend(self._parse_standalone())
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

    def _parse_list_literal(self) -> ListArg:
        self.expect_sym("[")
        items: list[Argument] = []
        if not self.at_sym("]"):
            while True:
                if self.at_sym("{"):
                    self.next()
                    self.expect_sym("}")
                    items.append(EmptyArg())
                else:
                    items.append(SymbolArg(self.parse_name()))
                if not self.at_sym(","):
                    break
                self.next()
        self.expect_sym("]")
        return ListArg(tuple(items))

    def parse_argument(self) -> Argument:
        if self.at_sym(";") or self.at_sym("]"):
            return EmptyArg()
        if self.at_sym("{"):
            self.next()
            self.expect_sym("}")
            return EmptyArg()
        if self.at_sym("["):
            return self._parse_list_literal()
        kind: SymbolKind | None = None
        t = self.peek()
        if t.type == "ident" and t.value in _KIND_KEYWORDS and self.at_sym(":", 1):
            kind = self.expect_kind()
            self.next()  # ':'
        arg: Argument = SymbolArg(self.parse_name(), kind)
        if self.at_sym("::"):
            self.next()
            return ConsArg(arg, self.parse_argument())
        return arg

    def _parse_arguments(self) -> tuple[Argument, ...]:
        self.expect_sym("[")
        if self.at_sym("]"):
            self.next()
            return ()
        args = [self.parse_argument()]
        while self.at_sym(";"):
            self.next()
            args.append(self.parse_argument())
        self.expect_sym("]")
        return tuple(args)

    # --- specs ---

    def parse_spec(self) -> Spec:
        left = self.parse_union()
        while self.at_ident("then"):
            self.next()
            left = ExtensionSpec(left, self.parse_union())
        return left

    def parse_union(self) -> Spec:
        left = self.parse_atom()
        while self.at_ident("and") and not self._conjunct_follows():
            self.next()
            left = UnionSpec(left, self.parse_atom())
        return left

    def parse_atom(self) -> Spec:
        t = self.peek()
        if self.at_sym("{") and self.at_sym("}", 1):
            self.next()
            self.next()
            return EmptySpec()
        if self.at_ident("let"):
            return self._parse_let()
        if self._at_frame_start():
            return BasicSpec(self.parse_basic())
        if t.type == "ident":
            name = self.next().value
            loc = (t.line, t.col)
            if self.at_sym("["):
                return InstSpec(name, self._parse_arguments(), bracketed=True, loc=loc)
            return InstSpec(name, (), bracketed=False, loc=loc)
        raise self.error(f"expected a spec, found {t.value or 'end of input'!r}")

    def _parse_let(self) -> LetSpec:
        self.expect_ident("let")
        locals_: list[PatternDef] = []
        while self.at_ident("pattern"):
            locals_.append(self._parse_pattern(allow_given=False))
        if not locals_:
            raise self.error("let needs at least one local pattern")
        self.expect_ident("in")
        return LetSpec(tuple(locals_), self.parse_spec())

    # --- parameters ---

    def _parse_param_constraints(self, subject: Name) -> list:
        return self._parse_clauses(subject, _PARAM_CONSTRAINT_KEYWORDS)

    def parse_parameter(self) -> Parameter:
        optional = False
        if self.at_sym("?"):
            self.next()
            optional = True
        if self.at_sym("{"):
            self.next()
            kind = self.expect_kind()
            self.expect_sym(":")
            name = self.expect_ident().value
            constraints = self._parse_param_constraints(Name(name))
            self.expect_sym("}")
            tail: str | None = None
            if self.at_sym("::"):
                self.next()
                tail = self.expect_ident().value
            return Parameter(kind, name, optional, tail, tuple(constraints))
        t = self.peek()
        if t.type != "ident" or t.value not in _KIND_KEYWORDS:
            raise self.error(f"expected a parameter kind, found {t.value or 'end of input'!r}")
        kind = self.expect_kind()
        self.expect_sym(":")
        name = self.expect_ident().value
        tail = None
        if self.at_sym("::"):
            self.next()
            tail = self.expect_ident().value
        constraints = self._parse_param_constraints(Name(name))
        return Parameter(kind, name, optional, tail, tuple(constraints))

    def _parse_params(self) -> tuple[Parameter, ...]:
        self.expect_sym("[")
        if self.at_sym("]"):
            self.next()
            return ()
        params = [self.parse_parameter()]
        while self.at_sym(";"):
            self.next()
            params.append(self.parse_parameter())
        self.expect_sym("]")
        return tuple(params)

    def _parse_given(self) -> tuple[str, ...]:
        if not self.at_ident("given"):
            return ()
        self.next()
        names = [self.expect_ident().value]
        while self.at_sym(","):
            self.next()
            names.append(self.expect_ident().value)
        return tuple(names)

    # --- top-level declarations ---

    def _parse_pattern(self, allow_given: bool = True) -> PatternDef:
        self.expect_ident("pattern")
        name = self.expect_ident().value
        params = self._parse_params()
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
        pairs: list[tuple[Name, Name]] = []
        if self.at_ident("with"):
            self.next()
            while True:
                a = self.parse_name()
                self.expect_sym("|->")
                b = self.parse_name()
                pairs.append((a, b))
                if not self.at_sym(","):
                    break
                self.next()
        return RefinementDef(name, source, target, tuple(pairs))

    def parse_document(self) -> Document:
        decls: list[TopDecl] = []
        names: set[str] = set()
        while self.peek().type != "eof":
            if self.at_ident("pattern"):
                decl: TopDecl = self._parse_pattern()
            elif self.at_ident("ontology"):
                decl = self._parse_ontology()
            elif self.at_ident("refinement"):
                decl = self._parse_refinement()
            else:
                t = self.peek()
                raise ParseError(
                    f"expected pattern, ontology, or refinement, found {t.value or 'end of input'!r}",
                    t.line, t.col,
                )
            if decl.name in names:
                raise self.error(f"duplicate declaration {decl.name!r}")
            names.add(decl.name)
            decls.append(decl)
        return Document(tuple(decls))


def parse_document(text: str) -> Document:
    p = _Parser(text)
    try:
        return p.parse_document()
    except RecursionError:  # the descent, or canonicalizing what it built
        raise p.error("nesting too deep") from None


def parse_manchester_fragment(text: str) -> Ontology:
    """Parse a bare Manchester fragment (frames only, no pattern syntax)."""
    p = _Parser(text)
    if p.peek().type == "eof":
        return Ontology()
    ont = p.parse_basic()
    t = p.peek()
    if t.type != "eof":
        raise ParseError(f"unexpected {t.value!r} after frames", t.line, t.col)
    return ont
