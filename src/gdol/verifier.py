"""Sound, incomplete entailment checking for verification conditions.

The engine works on two reachability graphs: one over class expressions
(subclass and equivalence edges, plus elimination and introduction steps for
conjunctions) and one over property nodes, where a node is a property name
together with an inversion flag so that inverse reasoning falls out of plain
graph walking.  Domain, range, fact, and typing goals lift through those
graphs.  Scoped range axioms (`p only R` under a named domain) deliberately
contribute nothing to global domain or range goals.

Every verdict is per goal axiom, monotone in the theory, and bounded by a
step limit counted in visited nodes and traversed edges; hitting the limit
reports the goal unproven and flags the result rather than failing.  One
function, `_walk`, walks both graphs.  A goal that stops at the first
candidate proving it (an individual's types, the domains and ranges along
the property graph) tries them in key order, the same under any hash seed.

What a context says (its graphs, domains, facts and And-nodes) is built once
by a batch and passed to `entails` with every goal checked against it:
consecutive obligations with one context, or all sentences of a refinement.
Reach sets of both graphs are cached by one method, `_reach`, with the
steps they took, and a goal is charged that cost the first time it uses
one, so each goal pays exactly the steps a fresh engine would spend on it
alone, and no verdict depends on the order goals are checked in.

Told axioms are indexed, and goals proven, through two tables keyed by
the axiom's class whose entries carry the rule they apply (`None` for what
every config applies): an entry runs only under a config with its rule on.
Under R3, And-nodes are looked for inside told class-expression fields that
are not a bare name; they are indexed under their operands, which a walk
counts down.  A goal's fields are scanned once: a goal of names alone is
checked against the context's told part itself, and only a compound goal
has its names collected by `axiom_names` and gets, through `for_goal`, a
told part built with the And-nodes the context lacks.  Proven and not
derivable, which carry no detail of a goal, are two shared results.
"""

from __future__ import annotations

from itertools import count
from pathlib import Path
from typing import Iterable

from .errors import GdolError, MapKindMismatch
from .model import (
    And, Axiom, ClassAssertion, ClassExpr, DifferentIndividuals,
    DisjointClasses, Domain, EquivalentClasses, Functional, InverseProps,
    Name, Named, Node, Obligation, OneOf, Ontology, PropAssertion, Range, RefinementDef,
    SubClassOf, SubPropertyChain, SubPropertyOf, Transitive, axiom_names,
    canon_axiom, class_exprs, map_ontology, name_key, node_key, stratify,
)

ALL_RULES = frozenset({"R1", "R2", "R3", "R4", "R5", "R6", "R7"})


class RuleEngineConfig(Node):
    rules: frozenset[str] = ALL_RULES
    step_limit: int = 100000

    def __post_init__(self) -> None:
        unknown = self.rules - ALL_RULES
        if unknown:
            raise ValueError(f"unknown rule labels: {', '.join(sorted(map(repr, unknown)))}")


DEFAULT_CONFIG = RuleEngineConfig()


class EntailmentResult(Node):
    proven: bool
    step_limited: bool = False
    reason: str = ""


class _StepLimit(Exception):
    pass


class _Counter:
    """Steps spent on one goal, and the starts of the cached reach sets it
    has paid for (a class expression never equals a property node)."""

    __slots__ = ("n", "limit", "charged")

    def __init__(self, limit: int) -> None:
        self.n = 0
        self.limit = limit
        self.charged: set[object] = set()

    def tick(self, steps: int = 1) -> None:
        self.n += steps
        if self.n > self.limit:
            raise _StepLimit


_PropNode = tuple[Name, bool]


def _walk(start, edges: dict, counter: _Counter, ands_of: dict | None = None) -> set:
    """Every node reachable from start along edges, at one step per node
    popped and per edge followed.  A pop counts down the And-nodes ands_of
    lists under it; each time the frontier drains, those with every operand
    popped that are not yet reached are introduced, at one step each."""
    reached = {start}
    frontier = [start]
    if ands_of is not None:
        left: dict[int, int] = {}  # id of an indexed And-node -> operands not yet popped
        ready = []
    while frontier:
        x = frontier.pop()
        counter.tick()
        for y in edges.get(x, ()):
            counter.tick()
            if y not in reached:
                reached.add(y)
                frontier.append(y)
        if ands_of is not None:
            for an in ands_of.get(x, ()):
                left[id(an)] = n = left.get(id(an), len(an.operands)) - 1
                if not n:
                    ready.append(an)
            if ready and not frontier:
                frontier = [an for an in ready if an not in reached]
                counter.tick(len(frontier))
                reached.update(frontier)
                ready = []
    return reached


class _Theory:
    """The told part of one context under one config, and goal's And-nodes
    even without R3, with reach caches that every goal checked shares."""

    def __init__(self, ont: Ontology, config: RuleEngineConfig, goal: Axiom | None = None) -> None:
        self.ontology = ont
        self.config = config
        self.axioms = ont.axioms
        self.declared = {n for _, n in ont.decls}
        self.class_edges: dict[ClassExpr, set[ClassExpr]] = {}
        self.and_nodes: set[And] = set() if goal is None else {
            e for e in class_exprs(goal) if e.__class__ is And}
        self.prop_edges: dict[_PropNode, set[_PropNode]] = {}
        self.prop_redges: dict[_PropNode, set[_PropNode]] = {}
        self.domains: dict[_PropNode, set[ClassExpr]] = {}
        self.func_nodes: set[_PropNode] = set()
        self.holds: dict[tuple[Name, Name], set[_PropNode]] = {}
        self.types: dict[Name, set[ClassExpr]] = {}
        self.diffs: list[frozenset[Name]] = []
        self.disjoints: list[tuple[ClassExpr, ClassExpr]] = []
        # start -> (reach set, steps its walk took)
        self._class_cache: dict[ClassExpr, tuple[set[ClassExpr], int]] = {}
        self._prop_cache: dict[_PropNode, tuple[set[_PropNode], int]] = {}

        on = {None, *config.rules}
        for a in self.axioms:
            for label, add in _TOLD.get(a.__class__, ()):
                if label in on:
                    add(self, a)
        ands_of: dict[ClassExpr, list[And]] = {}
        for an in self.and_nodes:
            for op in an.operands:
                if "R3" in on:
                    self._class_edge(an, op)
                ands_of.setdefault(op, []).append(an)
        self.ands_of = ands_of or None  # a walk skips an empty index

    def _class_edge(self, a: ClassExpr, b: ClassExpr) -> None:
        self.class_edges.setdefault(a, set()).add(b)

    def _prop_edge(self, a: _PropNode, b: _PropNode) -> None:
        self.prop_edges.setdefault(a, set()).add(b)
        self.prop_redges.setdefault(b, set()).add(a)

    def for_goal(self, goal: Axiom) -> "_Theory":
        """The told part a fresh engine would build for goal: this one, or
        one built with the goal's And-nodes if this one lacks any."""
        new = {e for e in class_exprs(goal) if e.__class__ is And} - self.and_nodes
        return _Theory(self.ontology, self.config, goal) if new else self

    # --- reachability ---

    @staticmethod
    def _reach(cache: dict, start, counter: _Counter, edges: dict, ands_of=None) -> set:
        """`_walk(start, edges, counter, ands_of)`, computed once per cache;
        a goal that finds it cached is charged the steps it took on first
        use, as if it had walked."""
        hit = cache.get(start)
        if hit is None:
            before = counter.n
            reached = _walk(start, edges, counter, ands_of)
            hit = cache[start] = (reached, counter.n - before)
        elif start not in counter.charged:
            counter.tick(hit[1])
        counter.charged.add(start)
        return hit[0]

    def class_reach(self, start: ClassExpr, counter: _Counter) -> set[ClassExpr]:
        return self._reach(self._class_cache, start, counter, self.class_edges, self.ands_of)

    def prop_reach(self, start: _PropNode, counter: _Counter) -> set[_PropNode]:
        return self._reach(self._prop_cache, start, counter, self.prop_edges)

    def prop_reach_back(self, start: _PropNode, counter: _Counter) -> set[_PropNode]:
        return _walk(start, self.prop_redges, counter)

    # --- goals ---

    def _subclass(self, sub: ClassExpr, sup: ClassExpr, counter: _Counter) -> bool:
        return sup in self.class_reach(sub, counter)

    def _domain_goal(self, node: _PropNode, cls: ClassExpr, counter: _Counter) -> bool:
        nodes = [n for n in self.prop_reach(node, counter) if n in self.domains]
        for n in _in_key_order(nodes, _prop_key):
            for have in _in_key_order(self.domains[n], node_key):
                if self._subclass(have, cls, counter):
                    return True
        return False

    def prove(self, goal: Axiom, counter: _Counter) -> bool:
        """By the goal class's entry in `_GOALS`: false if its rule is off."""
        entry = _GOALS.get(goal.__class__)
        if entry is None:
            raise TypeError(f"not an axiom: {goal!r}")
        label, prove = entry
        return (label is None or label in self.config.rules) and prove(self, goal, counter)

    def _disjoint_goal(self, g: DisjointClasses, counter: _Counter) -> bool:
        for c, d in self.disjoints:
            if (self._subclass(g.a, c, counter) and self._subclass(g.b, d, counter)) or (
                self._subclass(g.a, d, counter) and self._subclass(g.b, c, counter)
            ):
                return True
        return False

    def _inverse_goal(self, g: InverseProps, counter: _Counter) -> bool:
        return (g.b, True) in self.prop_reach((g.a, False), counter) and (
            (g.a, False) in self.prop_reach((g.b, True), counter)
        )

    def _type_goal(self, g: ClassAssertion, counter: _Counter) -> bool:
        for have in _in_key_order(self.types.get(g.individual, ()), node_key):
            if self._subclass(have, g.cls, counter):
                return True
        return False

    def _fact_goal(self, g: PropAssertion, counter: _Counter) -> bool:
        asserted = self.holds.get((g.subject, g.obj), set())
        if not asserted:
            return False
        return bool(self.prop_reach_back((g.prop, False), counter) & asserted)


def _in_key_order(candidates, key):
    """A goal's candidates in key order when there are two or more.  A goal
    stops at the first that proves it and pays only for the walks it made,
    so this keeps its steps, and its verdict near the step limit, the same
    under any hash seed."""
    return sorted(candidates, key=key) if len(candidates) > 1 else candidates


def _prop_key(n: _PropNode):
    return name_key(n[0]), n[1]


# --- told axioms and goals, by class --------------------------------------------

# the fields of each axiom class that hold a class expression, last first,
# which is the order `class_exprs` meets them in
_EXPR_FIELDS = {
    SubClassOf: ("sup", "sub"), EquivalentClasses: ("b", "a"), DisjointClasses: ("b", "a"),
    Domain: ("cls",), Range: ("cls",), ClassAssertion: ("cls",),
}


def _told_ands(t: _Theory, a: Axiom) -> None:
    for f in _EXPR_FIELDS[a.__class__]:
        e = getattr(a, f)
        if e.__class__ is not Named:
            t.and_nodes.update(x for x in class_exprs(e) if x.__class__ is And)


def _told_equivalent(t: _Theory, a: EquivalentClasses) -> None:
    t._class_edge(a.a, a.b)
    t._class_edge(a.b, a.a)


def _told_enumeration(t: _Theory, a: EquivalentClasses) -> None:
    for side, other in ((a.a, a.b), (a.b, a.a)):
        if side.__class__ is OneOf:
            for m in side.members:
                t.types.setdefault(m, set()).add(other)


def _told_subproperty(t: _Theory, a: SubPropertyOf) -> None:
    sub, sup = a.sub, a.sup
    t._prop_edge((sub.name, sub.inverse), (sup.name, sup.inverse))
    t._prop_edge((sub.name, not sub.inverse), (sup.name, not sup.inverse))


def _told_inverse(t: _Theory, a: InverseProps) -> None:
    x, y = a.a, a.b
    t._prop_edge((x, False), (y, True))
    t._prop_edge((y, True), (x, False))
    t._prop_edge((x, True), (y, False))
    t._prop_edge((y, False), (x, True))


def _told_fact(t: _Theory, a: PropAssertion) -> None:
    t.holds.setdefault((a.subject, a.obj), set()).add((a.prop, False))
    t.holds.setdefault((a.obj, a.subject), set()).add((a.prop, True))


# what each told axiom adds to a theory's index, as (rule, adder) pairs run
# in order, R3's And-nodes first; Transitive and chains add nothing
_ANDS = ("R3", _told_ands)
_TOLD = {
    SubClassOf: (_ANDS, ("R1", lambda t, a: t._class_edge(a.sub, a.sup))),
    EquivalentClasses: (_ANDS, ("R2", _told_equivalent), ("R7", _told_enumeration)),
    DisjointClasses: (_ANDS, (None, lambda t, a: t.disjoints.append((a.a, a.b)))),
    SubPropertyOf: (("R4", _told_subproperty),),
    InverseProps: (("R4", _told_inverse),),
    Domain: (_ANDS, (None, lambda t, a: t.domains.setdefault((a.prop, False), set()).add(a.cls))),
    Range: (_ANDS, (None, lambda t, a: t.domains.setdefault((a.prop, True), set()).add(a.cls))),
    Functional: ((None, lambda t, a: t.func_nodes.add((a.prop, False))),),
    ClassAssertion: (_ANDS, (None, lambda t, a: t.types.setdefault(a.individual, set()).add(a.cls))),
    PropAssertion: ((None, _told_fact),),
    DifferentIndividuals: ((None, lambda t, a: t.diffs.append(frozenset(a.members))),),
}

# how each goal class is proven, as a (rule, prover) pair
_GOALS = {
    SubClassOf: (None, lambda t, g, c: t._subclass(g.sub, g.sup, c)),
    EquivalentClasses: (None, lambda t, g, c: t._subclass(g.a, g.b, c) and t._subclass(g.b, g.a, c)),
    DisjointClasses: (None, _Theory._disjoint_goal),
    SubPropertyOf: ("R4", lambda t, g, c: (g.sup.name, g.sup.inverse) in t.prop_reach(
        (g.sub.name, g.sub.inverse), c)),
    InverseProps: ("R4", _Theory._inverse_goal),
    Domain: ("R5", lambda t, g, c: t._domain_goal((g.prop, False), g.cls, c)),
    Range: ("R5", lambda t, g, c: t._domain_goal((g.prop, True), g.cls, c)),
    Functional: ("R7", lambda t, g, c: bool(t.prop_reach((g.prop, False), c) & t.func_nodes)),
    Transitive: (None, lambda t, g, c: g in t.axioms),
    SubPropertyChain: (None, lambda t, g, c: g in t.axioms),
    ClassAssertion: ("R7", _Theory._type_goal),
    PropAssertion: ("R6", _Theory._fact_goal),
    DifferentIndividuals: (None, lambda t, g, c: any(frozenset(g.members) <= have for have in t.diffs)),
}


_PROVEN = EntailmentResult(True)
_NOT_DERIVABLE = EntailmentResult(False, False, "not derivable")


def entails(theory: Ontology, goal: Axiom, config: RuleEngineConfig = DEFAULT_CONFIG,
            *, _told: _Theory | None = None) -> EntailmentResult:
    """Decide whether the rule engine can derive goal from theory.

    A batch builds theory's told part once and passes it as `_told` with
    each goal; without it one is built with the goal's And-nodes.  A
    compound goal with And-nodes `_told` lacks gets a told part of its own."""
    goal = canon_axiom(goal)
    told = _Theory(theory, config, goal) if _told is None else _told
    # names read off the fields; a compound field or an undeclared name needs axiom_names
    exprs = _EXPR_FIELDS.get(goal.__class__, ())
    for f in goal.__match_args__:
        v = getattr(goal, f)
        if f in exprs and v.__class__ is Named:
            v = v.name
        if v.__class__ is not Name or v not in told.declared:
            missing = axiom_names(goal) - told.declared
            if missing:
                names = ", ".join(sorted(str(n) for n in missing))
                return EntailmentResult(False, False, f"goal mentions undeclared names: {names}")
            told = told.for_goal(goal)
            break
    counter = _Counter(config.step_limit)
    try:
        proven = told.prove(goal, counter)
    except _StepLimit:
        return EntailmentResult(False, True, f"step limit {config.step_limit} reached")
    return _PROVEN if proven else _NOT_DERIVABLE


def check_obligations(obligations: Iterable[Obligation],
                      config: RuleEngineConfig = DEFAULT_CONFIG) -> tuple[Obligation, ...]:
    """Run the engine over each obligation, filling in status and diagnostic.
    Consecutive obligations with the same context object (the expander hands
    one to all obligations of an ontology) share one told part."""
    theory = told = None
    out = []
    for ob in obligations:
        if ob.context is not theory:
            told = None  # free the last context's part before building the next
            theory = ob.context
            told = _Theory(theory, config)
        res = entails(theory, ob.axiom, config, _told=told)
        status = "proven" if res.proven else "unproven"
        out.append(Obligation(ob.axiom, ob.ontology, ob.pattern, ob.param, ob.index,
                              ob.context, status, res.reason))
    return tuple(out)


# --- refinement ---------------------------------------------------------------

class RefinementReport(Node):
    name: str
    results: tuple[tuple[Axiom, EntailmentResult], ...]
    # symbol-map entries, as written, whose source name the source
    # expansion never mentions
    unmatched: tuple[tuple[Name, Name], ...] = ()

    @property
    def ok(self) -> bool:
        return all(res.proven for _, res in self.results)

    @property
    def unproven(self) -> tuple[Axiom, ...]:
        return tuple(a for a, res in self.results if not res.proven)


def check_refinement(refdef: RefinementDef, env, config: RuleEngineConfig = DEFAULT_CONFIG) -> RefinementReport:
    """A refinement holds when every sentence of the (renamed) source
    expansion is entailed by the target expansion.  The symbol map's names
    are stratified, as an expansion's are, and it sends each source to one
    target; the report lists the entries that rename nothing."""
    from .expander import expand_spec_standalone

    source, _ = expand_spec_standalone(env, refdef.source)
    target, _ = expand_spec_standalone(env, refdef.target)
    mapping: dict[Name, Name] = {}
    sources: list[Name] = []  # each entry's stratified source, in written order
    for a, b in refdef.symbol_map:
        sa, sb = Name(stratify(a)), Name(stratify(b))
        if mapping.setdefault(sa, sb) != sb:
            x, y = refdef.symbol_map[sources.index(sa)]
            raise GdolError(f"refinement {refdef.name}: symbol map entries {x} |-> {y} "
                            f"and {a} |-> {b} send one name to two targets")
        ka, kb = source.kind_of(sa), target.kind_of(sb)
        if ka is not None and kb is not None and ka is not kb:
            raise MapKindMismatch(str(a), str(b), (ka.value, kb.value))
        sources.append(sa)
    matched: set[Name] = set()

    def rename(n: Name) -> Name:
        if n not in mapping:
            return n
        matched.add(n)
        return mapping[n]

    renamed = map_ontology(source, rename)
    told = _Theory(target, config)
    results = []
    for axiom in sorted(renamed.axioms, key=node_key):
        results.append((axiom, entails(target, axiom, config, _told=told)))
    unmatched = tuple(e for e, sa in zip(refdef.symbol_map, sources) if sa not in matched)
    return RefinementReport(refdef.name, tuple(results), unmatched)


# --- obligation export ---------------------------------------------------------

def export_obligations(obligations: Iterable[Obligation], directory: str | Path) -> list[Path]:
    """Write one Manchester file per obligation: the context theory followed
    by a comment block naming the goal.  Each distinct context is rendered
    once."""
    from .emitter import axiom_text, emit_manchester

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    obligations = list(obligations)
    counters: dict[tuple[str, str, str], int] = {}
    stems: list[tuple[str, int]] = []
    for ob in obligations:
        key = (ob.ontology, ob.pattern, ob.param)
        counters[key] = k = counters.get(key, -1) + 1
        stems.append((f"{ob.ontology}__{ob.pattern}__{ob.param}", k))
    # ontology `A` instantiating `B__C` and ontology `A__B` instantiating `C`
    # give the same stem: a name met again takes the next number that no
    # other obligation's name uses, so only a name that would overwrite a
    # file this call wrote changes
    taken = {f"{stem}__{k}" for stem, k in stems}
    used: set[str] = set()
    written: list[Path] = []
    bodies: dict[Ontology, str] = {}
    for ob, (stem, k) in zip(obligations, stems):
        name = f"{stem}__{k}"
        if name in used:
            name = next(n for j in count(k + 1) if (n := f"{stem}__{j}") not in taken)
            taken.add(name)
        used.add(name)
        body = bodies.get(ob.context)
        if body is None:
            body = bodies[ob.context] = emit_manchester(ob.context)
        text = (
            f"{body}"
            f"%% goal: {axiom_text(ob.axiom)}\n"
            f"%% from: {ob.ontology} :: {ob.pattern}/{ob.param}#{ob.index}\n"
        )
        path = directory / f"{name}.omn"
        path.write_text(text, encoding="utf-8", newline="\n")
        written.append(path)
    return written
