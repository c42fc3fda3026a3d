"""Spans around gdol's public functions, recorded from outside the program.

`Tracer.install()` replaces the public functions of parser, expander, model,
verifier, emitter and cli with wrappers that time each call.  A span records
its name, start, end, parent span and operation id; functions called very
often (the model layer, tokenize) are folded into one aggregate per
(operation, parent span, name) holding a call count, total and self time.
Counts (tokens, context sizes, bytes, verdicts) are recorded in the same
wrappers.  Everything stays in memory until `dump()`.

Nesting is tracked with one stack shared by all threads.  That is exact for
gdol: `run_deep` runs its work on one worker thread while the calling thread
waits in `join()`, so only one thread ever runs a traced call at a time.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    self_s: float


class Tracer:
    def __init__(self) -> None:
        self.op = ""
        self.spans: list[Span] = []
        # (op, nearest recorded span id, name) -> [calls, total_s, self_s]
        self.aggregates: dict[tuple[str, int | None, str], list] = {}
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.contexts: dict[str, set[int]] = defaultdict(set)
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0

    def count(self, name: str, n: float = 1) -> None:
        self.counts[self.op][name] += n

    def call(self, name: str, aggregate: bool, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        if aggregate:
            sid = parent[0] if parent else None
        else:
            self._next_id += 1
            sid = self._next_id
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            took = end - start
            if parent is not None:
                parent[1] += took
            if aggregate:
                agg = self.aggregates.setdefault((self.op, sid, name), [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += took
                agg[2] += took - frame[1]
            else:
                self.spans.append(Span(sid, name, start, end, parent[0] if parent else None,
                                       self.op, took - frame[1]))

    def _wrap(self, name: str, aggregate: bool, fn, after=None):
        def traced(*args, **kwargs):
            result = self.call(name, aggregate, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def install(self):
        """Wrap gdol's public functions for the duration of the block."""
        import gdol
        from gdol import cli, emitter, expander, model, parser, verifier

        modules = (gdol, parser, expander, model, verifier, emitter, cli)
        saved: list[tuple[object, str, object]] = []

        def patch(owner, attr: str, value) -> None:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        def function(home, attr: str, name: str, aggregate: bool = False, after=None,
                     only=None) -> None:
            """Patch a module-level function wherever gdol looks it up by
            name, or only in the modules given."""
            orig = getattr(home, attr)
            wrapped = self._wrap(name, aggregate, orig, after)
            for mod in only or modules:
                if mod.__dict__.get(attr) is orig:
                    patch(mod, attr, wrapped)

        def on_tokens(args, result) -> None:
            self.count("parser.tokens", len(result))

        def on_entails(args, result) -> None:
            theory = args[0]
            self.contexts[self.op].add(id(theory))
            self.count("verifier.context_axioms", len(theory.axioms))
            self.count("verifier.proven", result.proven)
            self.count("verifier.step_limited", result.step_limited)

        def on_construct(args, result) -> None:
            self.count("model.kindcheck_decls", len(args[0].decls))

        def on_emit(args, result) -> None:
            self.count("emitter.bytes", len(result.encode("utf-8")))

        function(parser, "parse_document", "parser.parse_document")
        function(parser, "tokenize", "parser.tokenize", True, on_tokens)
        function(expander, "run_deep", "expander.run_deep")
        function(expander, "expand_spec_standalone", "expander.expand_spec_standalone")
        # model functions are wrapped at the names the expander looks up
        function(model, "map_ontology", "model.map_ontology", True, only=(expander,))
        function(model, "substitute", "model.substitute", True, only=(expander,))
        function(verifier, "check_obligations", "verifier.check_obligations")
        function(verifier, "entails", "verifier.entails", after=on_entails)
        function(verifier, "check_refinement", "verifier.check_refinement")
        function(emitter, "emit_manchester", "emitter.emit_manchester", after=on_emit)
        function(cli, "main", "cli.main")

        env_cls, ont_cls = expander.ExpansionEnv, model.Ontology
        from_docs = env_cls.__dict__["from_documents"].__func__
        patch(env_cls, "from_documents",
              classmethod(self._wrap("expander.from_documents", False, from_docs)))
        for attr in ("expand_named", "obligations"):
            patch(env_cls, attr, self._wrap(f"expander.{attr}", False, env_cls.__dict__[attr]))
        patch(ont_cls, "union", self._wrap("model.union", True, ont_cls.__dict__["union"]))
        patch(ont_cls, "__init__",
              self._wrap("model.construct", True, ont_cls.__dict__["__init__"], on_construct))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # --- reading the trace ---

    def layer_metrics(self, op: str) -> dict[str, float]:
        """Per-layer figures of one operation (one traced pipeline run)."""
        spans = [s for s in self.spans if s.op == op]
        by_id = {s.id: s for s in spans}
        aggs = {(sid, name): v for (o, sid, name), v in self.aggregates.items() if o == op}
        counts = self.counts[op]

        def total(name: str) -> float:
            return sum(s.end - s.start for s in spans if s.name == name)

        def agg(name: str, i: int) -> float:
            return sum(v[i] for (_, n), v in aggs.items() if n == name)

        expand_names = {"expander.expand_named", "expander.obligations"}
        expand_roots = [s for s in spans if s.name in expand_names
                        and not _inside(s, by_id, expand_names | {"verifier.check_refinement"})]
        expand_s = sum(s.end - s.start for s in expand_roots)
        root_ids = {s.id for s in expand_roots}
        in_expand = [(n, v) for (sid, n), v in aggs.items() if _under(sid, by_id, root_ids)]
        # self times, so nested model calls (a construct inside a union) count once
        model_in_expand = sum(v[2] for n, v in in_expand if n.startswith("model."))
        construct_in_expand = sum(v[1] for n, v in in_expand if n == "model.construct")
        goals = sorted(s.end - s.start for s in spans if s.name == "verifier.entails")
        contexts = len(self.contexts[op])
        parse_s = total("parser.parse_document")
        emit_s = total("emitter.emit_manchester")
        m = {
            "parser.parse_s": parse_s,
            "parser.tokens": counts["parser.tokens"],
            "parser.tokens_per_s": counts["parser.tokens"] / parse_s if parse_s else 0.0,
            "expander.env_s": total("expander.from_documents"),
            "expander.expand_s": expand_s,
            "expander.refine_expand_s": total("expander.expand_spec_standalone"),
            "model.union_calls": agg("model.union", 0),
            "model.union_s": agg("model.union", 1),
            "model.construct_calls": agg("model.construct", 0),
            "model.construct_s": agg("model.construct", 1),
            "model.kindcheck_decls": counts["model.kindcheck_decls"],
            "model.map_ontology_s": agg("model.map_ontology", 1),
            "model.substitute_s": agg("model.substitute", 1),
            "model.expand_share": model_in_expand / expand_s if expand_s else 0.0,
            "model.construct_share": construct_in_expand / expand_s if expand_s else 0.0,
            "verifier.check_s": total("verifier.check_obligations"),
            "verifier.entails_calls": len(goals),
            "verifier.entails_s": sum(goals),
            "verifier.goal_p50_us": statistics.median(goals) * 1e6 if goals else 0.0,
            "verifier.goal_max_us": goals[-1] * 1e6 if goals else 0.0,
            "verifier.contexts": contexts,
            "verifier.goals_per_context": len(goals) / contexts if contexts else 0.0,
            "verifier.context_axioms": counts["verifier.context_axioms"],
            "verifier.proven_ratio": counts["verifier.proven"] / len(goals) if goals else 0.0,
            "verifier.step_limited": counts["verifier.step_limited"],
            "verifier.refine_s": total("verifier.check_refinement"),
            "emitter.emit_s": emit_s,
            "emitter.bytes": counts["emitter.bytes"],
            "emitter.bytes_per_s": counts["emitter.bytes"] / emit_s if emit_s else 0.0,
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (sum(s.self_s for s in spans if s.name.startswith(layer + "."))
                                    + sum(v[2] for (_, n), v in aggs.items()
                                          if n.startswith(layer + ".")))
        return m

    def dump(self, path: Path) -> None:
        aggregates = [{"op": op, "parent": sid, "name": name, "calls": v[0],
                       "total_s": v[1], "self_s": v[2]}
                      for (op, sid, name), v in self.aggregates.items()]
        path.write_text(json.dumps({"spans": [asdict(s) for s in self.spans],
                                    "aggregates": aggregates}) + "\n", encoding="utf-8")


LAYERS = ("parser", "expander", "model", "verifier", "emitter", "cli")


def _inside(span: Span, by_id: dict[int, Span], names: set[str]) -> bool:
    """Whether a proper ancestor of span has one of the names."""
    p = by_id.get(span.parent) if span.parent is not None else None
    while p is not None:
        if p.name in names:
            return True
        p = by_id.get(p.parent) if p.parent is not None else None
    return False


def _under(sid: int | None, by_id: dict[int, Span], roots: set[int]) -> bool:
    while sid is not None:
        if sid in roots:
            return True
        sid = by_id[sid].parent if sid in by_id else None
    return False
