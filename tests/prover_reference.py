"""Reference told-axiom index, walk and goal dispatch for the prover
differential in test_verifier.py.

`ReferenceTheory` builds a context's graphs, domains, facts and And-nodes
with the structural `match` over each told axiom, finds And-nodes by
walking every told axiom and every goal whole, and dispatches goals the
same way.  It shares no code with the prover's theory: it walks as a fresh
engine does, one goal at a time, straight from the step rule (one step per
node popped and per edge followed, one per And-node introduced when the
frontier drains), walking each reach set on its first use in a goal and
reusing it free later in that goal, and it tries a goal's candidates in
key order.  The prover's class tables, shared walks and reach caches must
build the same index and charge every goal the same steps.
"""
from __future__ import annotations

from collections import ChainMap
from copy import copy

from gdol.model import (
    And, ClassAssertion, DifferentIndividuals, DisjointClasses, Domain,
    EquivalentClasses, Functional, InverseProps, OneOf, PropAssertion, Range,
    SubClassOf, SubPropertyChain, SubPropertyOf, Transitive, class_exprs,
    name_key, node_key,
)


class ReferenceTheory:
    def __init__(self, ont, config) -> None:
        r = config.rules
        self.config = config
        self.axioms = ont.axioms
        self.declared = {n for _, n in ont.decls}
        self.class_edges = {}
        self.and_nodes = set()
        self.prop_edges = {}
        self.prop_redges = {}
        self.domains = {}
        self.func_nodes = set()
        self.holds = {}
        self.types = {}
        self.diffs = []
        self.disjoints = []

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

    def for_goal(self, goal):
        new = {e for e in class_exprs(goal) if isinstance(e, And)} - self.and_nodes
        if not new:
            return self
        view = copy(self)
        view.and_nodes = self.and_nodes | new
        if "R3" in self.config.rules:
            view.class_edges = ChainMap({an: set(an.operands) for an in new}, self.class_edges)
        return view

    def _class_edge(self, a, b) -> None:
        self.class_edges.setdefault(a, set()).add(b)

    def _prop_edge(self, a, b) -> None:
        self.prop_edges.setdefault(a, set()).add(b)
        self.prop_redges.setdefault(b, set()).add(a)

    def prove(self, goal, counter) -> bool:
        r = self.config.rules
        walked = {}  # (graph, start) -> reach set, for this goal only

        def reach(graph, start):
            if (graph, start) not in walked:
                and_nodes = self.and_nodes if graph == "class_edges" else ()
                walked[graph, start] = _walk(start, getattr(self, graph), and_nodes, counter)
            return walked[graph, start]

        def subclass(sub, sup):
            return sup in reach("class_edges", sub)

        def props(start):
            return reach("prop_edges", start)

        def domain(node, cls):
            if "R5" not in r:
                return False
            nodes = sorted((n for n in props(node) if n in self.domains),
                           key=lambda n: (name_key(n[0]), n[1]))
            return any(subclass(have, cls)
                       for n in nodes for have in sorted(self.domains[n], key=node_key))

        match goal:
            case SubClassOf(sub, sup):
                return subclass(sub, sup)
            case EquivalentClasses(x, y):
                return subclass(x, y) and subclass(y, x)
            case DisjointClasses(x, y):
                return any((subclass(x, c) and subclass(y, d))
                           or (subclass(x, d) and subclass(y, c)) for c, d in self.disjoints)
            case SubPropertyOf(sub, sup):
                return "R4" in r and (sup.name, sup.inverse) in props((sub.name, sub.inverse))
            case InverseProps(x, y):
                return ("R4" in r and (y, True) in props((x, False))
                        and (x, False) in props((y, True)))
            case Domain(p, c):
                return domain((p, False), c)
            case Range(p, c):
                return domain((p, True), c)
            case Functional(p):
                return "R7" in r and bool(props((p, False)) & self.func_nodes)
            case Transitive(_) | SubPropertyChain(_, _):
                return goal in self.axioms
            case ClassAssertion(c, i):
                return "R7" in r and any(subclass(have, c)
                                         for have in sorted(self.types.get(i, ()), key=node_key))
            case PropAssertion(p, s, o):
                if "R6" not in r:
                    return False
                asserted = self.holds.get((s, o), set())
                return bool(asserted) and bool(reach("prop_redges", (p, False)) & asserted)
            case DifferentIndividuals(members):
                want = frozenset(members)
                return any(want <= have for have in self.diffs)
        raise TypeError(f"not an axiom: {goal!r}")


def _walk(start, edges, and_nodes, counter):
    """Everything reachable from start: pop a node (one step), follow each
    of its edges (one step each); when the frontier drains, introduce every
    And-node not yet reached whose operands all are (one step each) and go
    on; stop when a drained frontier introduces none."""
    reached = {start}
    frontier = [start]
    while True:
        while frontier:
            x = frontier.pop()
            counter.tick()
            for y in edges.get(x, ()):
                counter.tick()
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        ready = [an for an in and_nodes
                 if an not in reached and all(op in reached for op in an.operands)]
        if not ready:
            return reached
        for an in ready:
            counter.tick()
            reached.add(an)
            frontier.append(an)
