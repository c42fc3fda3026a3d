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
and shared by every goal checked against it in a batch: consecutive
obligations with one context, or all sentences of a refinement.  A goal
whose And-nodes the context lacks gets a view that adds them.  Reach sets
are cached with the steps they took, and a goal is charged that cost the
first time it uses one, so each goal pays exactly the steps a fresh engine
would spend on it alone, and no verdict depends on the order goals are
checked in.

Told axioms are indexed, and goals proven, through tables keyed by the
axiom's class.  And-nodes are looked for only inside class-expression
fields that are not a bare name, and a goal whose class-expression fields
are all bare names is checked against the context's theory itself.
"""

from __future__ import annotations

from collections import ChainMap
from copy import copy
from itertools import count
from pathlib import Path
from typing import Iterable

from .errors import MapKindMismatch
from .model import (
    And, Axiom, ClassAssertion, ClassExpr, DifferentIndividuals,
    DisjointClasses, Domain, EquivalentClasses, Functional, InverseProps,
    Name, Named, Node, Obligation, OneOf, Ontology, PropAssertion, Range, RefinementDef,
    SubClassOf, SubPropertyChain, SubPropertyOf, Transitive, axiom_names,
    canon_axiom, class_exprs, map_ontology, name_key, node_key,
)

ALL_RULES = frozenset({"R1", "R2", "R3", "R4", "R5", "R6", "R7"})


class RuleEngineConfig(Node):
    rules: frozenset[str] = ALL_RULES
    step_limit: int = 100000


DEFAULT_CONFIG = RuleEngineConfig()


class EntailmentResult(Node):
    proven: bool
    step_limited: bool = False
    reason: str = ""


class _StepLimit(Exception):
    pass


class _Counter:
    """Steps spent on one goal, and the cached reach sets it has paid for."""

    __slots__ = ("n", "limit", "charged")

    def __init__(self, limit: int) -> None:
        self.n = 0
        self.limit = limit
        self.charged: set[tuple[str, object]] = set()

    def tick(self, steps: int = 1) -> None:
        self.n += steps
        if self.n > self.limit:
            raise _StepLimit


_PropNode = tuple[Name, bool]


def _walk(start, edges: dict, counter: _Counter, and_nodes: Iterable[And] = ()) -> set:
    """Every node reachable from start along edges, at one step per node
    popped and per edge followed.  Each time the frontier drains, every
    And-node of and_nodes whose operands are all reached is introduced, at
    one step each, and the walk goes on from those."""
    reached = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        counter.tick()
        for y in edges.get(x, ()):
            counter.tick()
            if y not in reached:
                reached.add(y)
                frontier.append(y)
        if not frontier:
            for an in and_nodes:
                if an not in reached and all(op in reached for op in an.operands):
                    counter.tick()
                    reached.add(an)
                    frontier.append(an)
    return reached


class _Theory:
    """The told part of one context under one config, with reach caches
    that every goal checked against it shares."""

    def __init__(self, ont: Ontology, config: RuleEngineConfig) -> None:
        r = config.rules
        self.config = config
        self.axioms = ont.axioms
        self.declared = {n for _, n in ont.decls}
        self.class_edges: dict[ClassExpr, set[ClassExpr]] = {}
        self.and_nodes: set[And] = set()
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

        for a in self.axioms:
            cls = a.__class__
            if "R3" in r:
                for f in _EXPR_FIELDS.get(cls, ()):
                    e = getattr(a, f)
                    if e.__class__ is not Named:
                        self.and_nodes.update(x for x in class_exprs(e) if x.__class__ is And)
            told = _TOLD.get(cls)
            if told is not None:
                told(self, a, r)
        if "R3" in r:
            for an in self.and_nodes:
                for op in an.operands:
                    self._class_edge(an, op)

    def _class_edge(self, a: ClassExpr, b: ClassExpr) -> None:
        self.class_edges.setdefault(a, set()).add(b)

    def _prop_edge(self, a: _PropNode, b: _PropNode) -> None:
        self.prop_edges.setdefault(a, set()).add(b)
        self.prop_redges.setdefault(b, set()).add(a)

    def for_goal(self, goal: Axiom) -> "_Theory":
        """The theory a fresh engine would build for goal: this one plus the
        goal's And-nodes it lacks (added even without R3), which then needs
        its own class-reach cache.  Property reach never depends on goal.
        Canonical And-nodes never have And operands, so the step count of
        a class walk does not depend on the order of and_nodes."""
        for f in _EXPR_FIELDS.get(goal.__class__, ()):
            if getattr(goal, f).__class__ is not Named:
                break
        else:
            return self
        new = {e for e in class_exprs(goal) if e.__class__ is And} - self.and_nodes
        if not new:
            return self
        view = copy(self)
        view.and_nodes = self.and_nodes | new
        if "R3" in self.config.rules:
            # with R3 every told And-node is in and_nodes, so a new one has no told edges
            view.class_edges = ChainMap({an: set(an.operands) for an in new}, self.class_edges)
        view._class_cache = {}
        return view

    # --- reachability ---

    @staticmethod
    def _cached(cache: dict, tag: str, start, walk, counter: _Counter):
        """walk(start), computed once per cache; a goal that finds it cached
        is charged the steps it took on first use, as if it had walked."""
        hit = cache.get(start)
        if hit is None:
            before = counter.n
            reached = walk(start, counter)
            hit = cache[start] = (reached, counter.n - before)
        elif (tag, start) not in counter.charged:
            counter.tick(hit[1])
        counter.charged.add((tag, start))
        return hit[0]

    def class_reach(self, start: ClassExpr, counter: _Counter) -> set[ClassExpr]:
        return self._cached(self._class_cache, "class", start,
                            lambda s, c: _walk(s, self.class_edges, c, self.and_nodes), counter)

    def prop_reach(self, start: _PropNode, counter: _Counter) -> set[_PropNode]:
        return self._cached(self._prop_cache, "prop", start,
                            lambda s, c: _walk(s, self.prop_edges, c), counter)

    def prop_reach_back(self, start: _PropNode, counter: _Counter) -> set[_PropNode]:
        return _walk(start, self.prop_redges, counter)

    # --- goals ---

    def _subclass(self, sub: ClassExpr, sup: ClassExpr, counter: _Counter) -> bool:
        return sup in self.class_reach(sub, counter)

    def _domain_goal(self, node: _PropNode, cls: ClassExpr, counter: _Counter) -> bool:
        if "R5" not in self.config.rules:
            return False
        nodes = [n for n in self.prop_reach(node, counter) if n in self.domains]
        for n in _in_key_order(nodes, _prop_key):
            for have in _in_key_order(self.domains[n], node_key):
                if self._subclass(have, cls, counter):
                    return True
        return False

    def prove(self, goal: Axiom, counter: _Counter) -> bool:
        prove = _GOALS.get(goal.__class__)
        if prove is None:
            raise TypeError(f"not an axiom: {goal!r}")
        return prove(self, goal, counter)

    def _disjoint_goal(self, g: DisjointClasses, counter: _Counter) -> bool:
        for c, d in self.disjoints:
            if (self._subclass(g.a, c, counter) and self._subclass(g.b, d, counter)) or (
                self._subclass(g.a, d, counter) and self._subclass(g.b, c, counter)
            ):
                return True
        return False

    def _inverse_goal(self, g: InverseProps, counter: _Counter) -> bool:
        if "R4" not in self.config.rules:
            return False
        return (g.b, True) in self.prop_reach((g.a, False), counter) and (
            (g.a, False) in self.prop_reach((g.b, True), counter)
        )

    def _type_goal(self, g: ClassAssertion, counter: _Counter) -> bool:
        if "R7" not in self.config.rules:
            return False
        for have in _in_key_order(self.types.get(g.individual, ()), node_key):
            if self._subclass(have, g.cls, counter):
                return True
        return False

    def _fact_goal(self, g: PropAssertion, counter: _Counter) -> bool:
        if "R6" not in self.config.rules:
            return False
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


def _told_subclass(t: _Theory, a: SubClassOf, r) -> None:
    if "R1" in r:
        t._class_edge(a.sub, a.sup)


def _told_equivalent(t: _Theory, a: EquivalentClasses, r) -> None:
    x, y = a.a, a.b
    if "R2" in r:
        t._class_edge(x, y)
        t._class_edge(y, x)
    if "R7" in r:
        for side, other in ((x, y), (y, x)):
            if side.__class__ is OneOf:
                for m in side.members:
                    t.types.setdefault(m, set()).add(other)


def _told_subproperty(t: _Theory, a: SubPropertyOf, r) -> None:
    if "R4" in r:
        sub, sup = a.sub, a.sup
        t._prop_edge((sub.name, sub.inverse), (sup.name, sup.inverse))
        t._prop_edge((sub.name, not sub.inverse), (sup.name, not sup.inverse))


def _told_inverse(t: _Theory, a: InverseProps, r) -> None:
    if "R4" in r:
        x, y = a.a, a.b
        t._prop_edge((x, False), (y, True))
        t._prop_edge((y, True), (x, False))
        t._prop_edge((x, True), (y, False))
        t._prop_edge((y, False), (x, True))


def _told_fact(t: _Theory, a: PropAssertion, r) -> None:
    t.holds.setdefault((a.subject, a.obj), set()).add((a.prop, False))
    t.holds.setdefault((a.obj, a.subject), set()).add((a.prop, True))


# what each told axiom adds to a theory's index; Transitive and chains add nothing
_TOLD = {
    SubClassOf: _told_subclass,
    EquivalentClasses: _told_equivalent,
    DisjointClasses: lambda t, a, r: t.disjoints.append((a.a, a.b)),
    SubPropertyOf: _told_subproperty,
    InverseProps: _told_inverse,
    Domain: lambda t, a, r: t.domains.setdefault((a.prop, False), set()).add(a.cls),
    Range: lambda t, a, r: t.domains.setdefault((a.prop, True), set()).add(a.cls),
    Functional: lambda t, a, r: t.func_nodes.add((a.prop, False)),
    ClassAssertion: lambda t, a, r: t.types.setdefault(a.individual, set()).add(a.cls),
    PropAssertion: _told_fact,
    DifferentIndividuals: lambda t, a, r: t.diffs.append(frozenset(a.members)),
}

# how each goal class is proven
_GOALS = {
    SubClassOf: lambda t, g, c: t._subclass(g.sub, g.sup, c),
    EquivalentClasses: lambda t, g, c: t._subclass(g.a, g.b, c) and t._subclass(g.b, g.a, c),
    DisjointClasses: _Theory._disjoint_goal,
    SubPropertyOf: lambda t, g, c: "R4" in t.config.rules and (
        (g.sup.name, g.sup.inverse) in t.prop_reach((g.sub.name, g.sub.inverse), c)),
    InverseProps: _Theory._inverse_goal,
    Domain: lambda t, g, c: t._domain_goal((g.prop, False), g.cls, c),
    Range: lambda t, g, c: t._domain_goal((g.prop, True), g.cls, c),
    Functional: lambda t, g, c: "R7" in t.config.rules and bool(
        t.prop_reach((g.prop, False), c) & t.func_nodes),
    Transitive: lambda t, g, c: g in t.axioms,
    SubPropertyChain: lambda t, g, c: g in t.axioms,
    ClassAssertion: _Theory._type_goal,
    PropAssertion: _Theory._fact_goal,
    DifferentIndividuals: lambda t, g, c: any(frozenset(g.members) <= have for have in t.diffs),
}


class _Slot:
    """The told part of the last context a batch checked: consecutive goals
    over one context share it, and it is dropped when the context changes."""

    __slots__ = ("theory", "config", "told")

    def __init__(self) -> None:
        self.theory: Ontology | None = None
        self.config: RuleEngineConfig | None = None
        self.told: _Theory | None = None

    def get(self, theory: Ontology, config: RuleEngineConfig) -> _Theory:
        if theory is not self.theory or config != self.config:
            self.told = None  # free the last context's part before building the next
            self.told = _Theory(theory, config)
            self.theory, self.config = theory, config
        return self.told


def entails(theory: Ontology, goal: Axiom, config: RuleEngineConfig = DEFAULT_CONFIG,
            *, _slot: _Slot | None = None) -> EntailmentResult:
    """Decide whether the rule engine can derive goal from theory.

    Batch callers pass one `_slot` for all their goals so that goals over
    the same context share its told part."""
    goal = canon_axiom(goal)
    told = (_slot or _Slot()).get(theory, config)
    missing = axiom_names(goal) - told.declared
    if missing:
        names = ", ".join(sorted(str(n) for n in missing))
        return EntailmentResult(False, False, f"goal mentions undeclared names: {names}")
    counter = _Counter(config.step_limit)
    try:
        proven = told.for_goal(goal).prove(goal, counter)
    except _StepLimit:
        return EntailmentResult(False, True, f"step limit {config.step_limit} reached")
    return EntailmentResult(proven, False, "" if proven else "not derivable")


def check_obligations(obligations: Iterable[Obligation],
                      config: RuleEngineConfig = DEFAULT_CONFIG) -> tuple[Obligation, ...]:
    """Run the engine over each obligation, filling in status and diagnostic.
    Consecutive obligations with the same context object (the expander hands
    one to all obligations of an ontology) share one theory."""
    slot = _Slot()
    out = []
    for ob in obligations:
        res = entails(ob.context, ob.axiom, config, _slot=slot)
        status = "proven" if res.proven else "unproven"
        out.append(Obligation(ob.axiom, ob.ontology, ob.pattern, ob.param, ob.index,
                              ob.context, status, res.reason))
    return tuple(out)


# --- refinement ---------------------------------------------------------------

class RefinementReport(Node):
    name: str
    results: tuple[tuple[Axiom, EntailmentResult], ...]

    @property
    def ok(self) -> bool:
        return all(res.proven for _, res in self.results)

    @property
    def unproven(self) -> tuple[Axiom, ...]:
        return tuple(a for a, res in self.results if not res.proven)


def check_refinement(refdef: RefinementDef, env, config: RuleEngineConfig = DEFAULT_CONFIG) -> RefinementReport:
    """A refinement holds when every sentence of the (renamed) source
    expansion is entailed by the target expansion."""
    from .expander import expand_spec_standalone

    source, _ = expand_spec_standalone(env, refdef.source)
    target, _ = expand_spec_standalone(env, refdef.target)
    mapping: dict[Name, Name] = dict(refdef.symbol_map)
    for a, b in refdef.symbol_map:
        ka = source.kind_of(a)
        kb = target.kind_of(b)
        if ka is not None and kb is not None and ka is not kb:
            raise MapKindMismatch(str(a), str(b), (ka.value, kb.value))
    renamed = map_ontology(source, lambda n: mapping.get(n, n))
    slot = _Slot()
    results = []
    for axiom in sorted(renamed.axioms, key=node_key):
        results.append((axiom, entails(target, axiom, config, _slot=slot)))
    return RefinementReport(refdef.name, tuple(results))


# --- obligation export ---------------------------------------------------------

def export_obligations(obligations: Iterable[Obligation], directory: Path) -> list[Path]:
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
