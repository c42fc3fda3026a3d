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
reports the goal unproven and flags the result rather than failing.

What a context says (its graphs, domains, facts and And-nodes) is built once
and shared by every goal checked against it in a batch: consecutive
obligations with one context, or all sentences of a refinement.  A goal
whose And-nodes the context lacks gets a view that adds them.  Reach sets
are cached with the steps they took, and a goal is charged that cost the
first time it uses one, so each goal pays exactly the steps a fresh engine
would spend on it alone, and no verdict depends on the order goals are
checked in.
"""

from __future__ import annotations

from collections import ChainMap
from copy import copy
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import MapKindMismatch
from .model import (
    And, Axiom, ClassAssertion, ClassExpr, DifferentIndividuals,
    DisjointClasses, Domain, EquivalentClasses, Functional, InverseProps,
    Name, Obligation, OneOf, Ontology, PropAssertion, Range, RefinementDef,
    SubClassOf, SubPropertyChain, SubPropertyOf, Transitive, axiom_names,
    canon_axiom, class_exprs, map_ontology, node_key,
)

ALL_RULES = frozenset({"R1", "R2", "R3", "R4", "R5", "R6", "R7"})


@dataclass(frozen=True)
class RuleEngineConfig:
    rules: frozenset[str] = ALL_RULES
    step_limit: int = 100000


DEFAULT_CONFIG = RuleEngineConfig()


@dataclass(frozen=True)
class EntailmentResult:
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
            if "R3" in r:
                for e in class_exprs(a):
                    if isinstance(e, And):
                        self.and_nodes.add(e)
            match a:
                case SubClassOf(sub, sup):
                    if "R1" in r:
                        self._class_edge(sub, sup)
                case EquivalentClasses(x, y):
                    if "R2" in r:
                        self._class_edge(x, y)
                        self._class_edge(y, x)
                    if "R7" in r:
                        for side, other in ((x, y), (y, x)):
                            if isinstance(side, OneOf):
                                for m in side.members:
                                    self.types.setdefault(m, set()).add(other)
                case DisjointClasses(x, y):
                    self.disjoints.append((x, y))
                case SubPropertyOf(sub, sup):
                    if "R4" in r:
                        self._prop_edge((sub.name, sub.inverse), (sup.name, sup.inverse))
                        self._prop_edge((sub.name, not sub.inverse), (sup.name, not sup.inverse))
                case InverseProps(x, y):
                    if "R4" in r:
                        self._prop_edge((x, False), (y, True))
                        self._prop_edge((y, True), (x, False))
                        self._prop_edge((x, True), (y, False))
                        self._prop_edge((y, False), (x, True))
                case Domain(p, c):
                    self.domains.setdefault((p, False), set()).add(c)
                case Range(p, c):
                    self.domains.setdefault((p, True), set()).add(c)
                case Functional(p):
                    self.func_nodes.add((p, False))
                case ClassAssertion(c, i):
                    self.types.setdefault(i, set()).add(c)
                case PropAssertion(p, s, o):
                    self.holds.setdefault((s, o), set()).add((p, False))
                    self.holds.setdefault((o, s), set()).add((p, True))
                case DifferentIndividuals(members):
                    self.diffs.append(frozenset(members))
                case _:
                    pass
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
        new = {e for e in class_exprs(goal) if isinstance(e, And)} - self.and_nodes
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
        return self._cached(self._class_cache, "class", start, self._walk_classes, counter)

    def _walk_classes(self, start: ClassExpr, counter: _Counter) -> set[ClassExpr]:
        reached = {start}
        frontier = [start]
        while True:
            while frontier:
                x = frontier.pop()
                counter.tick()
                for y in self.class_edges.get(x, ()):
                    counter.tick()
                    if y not in reached:
                        reached.add(y)
                        frontier.append(y)
            grew = False
            for an in self.and_nodes:
                if an not in reached and all(op in reached for op in an.operands):
                    counter.tick()
                    reached.add(an)
                    frontier.append(an)
                    grew = True
            if not grew:
                break
        return reached

    def _walk_props(self, start: _PropNode, edges: dict, counter: _Counter) -> set[_PropNode]:
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
        return reached

    def prop_reach(self, start: _PropNode, counter: _Counter) -> set[_PropNode]:
        return self._cached(self._prop_cache, "prop", start,
                            lambda s, c: self._walk_props(s, self.prop_edges, c), counter)

    def prop_reach_back(self, start: _PropNode, counter: _Counter) -> set[_PropNode]:
        return self._walk_props(start, self.prop_redges, counter)

    # --- goals ---

    def _subclass(self, sub: ClassExpr, sup: ClassExpr, counter: _Counter) -> bool:
        return sup in self.class_reach(sub, counter)

    def _domain_goal(self, node: _PropNode, cls: ClassExpr, counter: _Counter) -> bool:
        if "R5" not in self.config.rules:
            return False
        for n in self.prop_reach(node, counter):
            for have in self.domains.get(n, ()):
                if self._subclass(have, cls, counter):
                    return True
        return False

    def prove(self, goal: Axiom, counter: _Counter) -> bool:
        r = self.config.rules
        match goal:
            case SubClassOf(sub, sup):
                return self._subclass(sub, sup, counter)
            case EquivalentClasses(x, y):
                return self._subclass(x, y, counter) and self._subclass(y, x, counter)
            case DisjointClasses(x, y):
                for c, d in self.disjoints:
                    if (self._subclass(x, c, counter) and self._subclass(y, d, counter)) or (
                        self._subclass(x, d, counter) and self._subclass(y, c, counter)
                    ):
                        return True
                return False
            case SubPropertyOf(sub, sup):
                target = (sup.name, sup.inverse)
                return "R4" in r and target in self.prop_reach((sub.name, sub.inverse), counter)
            case InverseProps(x, y):
                if "R4" not in r:
                    return False
                return (y, True) in self.prop_reach((x, False), counter) and (
                    (x, False) in self.prop_reach((y, True), counter)
                )
            case Domain(p, c):
                return self._domain_goal((p, False), c, counter)
            case Range(p, c):
                return self._domain_goal((p, True), c, counter)
            case Functional(p):
                if "R7" not in r:
                    return False
                return bool(self.prop_reach((p, False), counter) & self.func_nodes)
            case Transitive(_) | SubPropertyChain(_, _):
                return goal in self.axioms
            case ClassAssertion(c, i):
                if "R7" not in r:
                    return False
                for have in self.types.get(i, ()):
                    if self._subclass(have, c, counter):
                        return True
                return False
            case PropAssertion(p, s, o):
                if "R6" not in r:
                    return False
                asserted = self.holds.get((s, o), set())
                if not asserted:
                    return False
                return bool(self.prop_reach_back((p, False), counter) & asserted)
            case DifferentIndividuals(members):
                want = frozenset(members)
                return any(want <= have for have in self.diffs)
        raise TypeError(f"not an axiom: {goal!r}")


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

@dataclass(frozen=True)
class RefinementReport:
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
    written: list[Path] = []
    counters: dict[tuple[str, str, str], int] = {}
    bodies: dict[Ontology, str] = {}
    for ob in obligations:
        key = (ob.ontology, ob.pattern, ob.param)
        k = counters.get(key, 0)
        counters[key] = k + 1
        name = f"{ob.ontology}__{ob.pattern}__{ob.param}__{k}.omn"
        body = bodies.get(ob.context)
        if body is None:
            body = bodies[ob.context] = emit_manchester(ob.context)
        text = (
            f"{body}"
            f"%% goal: {axiom_text(ob.axiom)}\n"
            f"%% from: {ob.ontology} :: {ob.pattern}/{ob.param}#{ob.index}\n"
        )
        path = directory / name
        path.write_text(text, encoding="utf-8", newline="\n")
        written.append(path)
    return written
