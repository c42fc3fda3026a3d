"""Reference told-axiom index and goal dispatch for the prover differential
in test_verifier.py.

`ReferenceTheory` builds a context's graphs, domains, facts and And-nodes
with the structural `match` over each told axiom, finds And-nodes by
walking every told axiom and every goal whole, and dispatches goals the
same way.  The prover's class tables must build the same index and charge
every goal the same steps.
"""
from __future__ import annotations

from collections import ChainMap
from copy import copy

from gdol.model import (
    And, ClassAssertion, DifferentIndividuals, DisjointClasses, Domain,
    EquivalentClasses, Functional, InverseProps, OneOf, PropAssertion, Range,
    SubClassOf, SubPropertyChain, SubPropertyOf, Transitive, class_exprs,
)
from gdol.verifier import _Theory


class ReferenceTheory(_Theory):
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
        self._class_cache = {}
        self._prop_cache = {}

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
        view._class_cache = {}
        return view

    def prove(self, goal, counter) -> bool:
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
