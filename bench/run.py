"""gdol benchmark: one workload, one seed, timed end to end or traced per layer.

    python3 bench/run.py --workload deep_list --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the benchmark imports gdol from
`src/` and runs the CLI as `python -m gdol.cli` with that `src/` on
PYTHONPATH.  It generates its inputs from the seed (see workloads.py), runs
the workload in-process and through the CLI, checks every output against
an expected answer gdol did not produce, and prints its metrics.  The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}; the lines before it are a readable table and the run's metadata,
which are also written to bench/out/.  The exit code is 0 only when every
operation was correct.

--trace 0 reports the end-to-end metrics:
  setup_s       fresh interpreter: import gdol, parse every document, build the env
  run_s         warm in-process time from a fresh env to the final results
  cli_s         wall time of the workload's gdol command(s) as subprocesses
  peak_rss_mib  peak RSS of a CLI child (os.wait4), the largest per command set
  scale_exp     growth of run_s per doubling of N: log2(run_s at N / run_s
                at N/4) / 2, median over adjacent pairs; for corpus, four
                independent corpus runs against one
fail_ratio (failed / attempted operations) is printed in the table; it is
not a JSON metric because it must read 0, and the JSON line carries
`attempted` and `failed` themselves.

--trace 1 wraps gdol's public functions (spans.py) and reports per-layer
figures, each layer's self time and the tracing overhead; spans go to
bench/out/trace-<workload>-seed<seed>.json.

--corrupt count|verdict makes one expected answer wrong; the run must then
fail (bench/selfcheck.py does this for every workload).

All load comes from this one process: CLI children run one at a time.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads as W

SETUP_SAMPLES = 9
MIN_REPS = 3            # in-process and CLI repetitions, whatever --seconds says
RUN_SHARE = 0.45        # share of --seconds spent on in-process runs; the rest on the CLI
CHILD_TIMEOUT_S = 60
TRAMPOLINE_SAMPLES = 25

SETUP_CODE = (
    "import sys\n"
    "from gdol import ExpansionEnv, parse_document\n"
    "ExpansionEnv.from_documents(\n"
    "    [parse_document(open(f, encoding='utf-8').read()) for f in sys.argv[1:]])\n"
)

VERDICT_LINE = re.compile(r"^\s*(proven|unproven)  (.+)  \[(.+)\]$")
REFINEMENT_LINE = re.compile(r"^refinement (\S+): (holds|FAILS)$")

END_TO_END = {"setup_s": "s", "run_s": "s", "cli_s": "s", "peak_rss_mib": "MiB", "scale_exp": "1"}

PER_LAYER = {
    "parser.parse_s": "s", "parser.tokens": "count", "parser.tokens_per_s": "1/s",
    "expander.env_s": "s", "expander.expand_s": "s", "expander.decls_out": "count",
    "expander.axioms_out": "count", "expander.obligations": "count",
    "expander.trampoline_s": "s", "expander.refine_expand_s": "s",
    "model.union_calls": "count", "model.union_s": "s", "model.construct_calls": "count",
    "model.construct_s": "s", "model.kindcheck_decls": "count", "model.map_ontology_s": "s",
    "model.substitute_s": "s", "model.expand_share": "1", "model.construct_share": "1",
    "verifier.check_s": "s", "verifier.entails_calls": "count", "verifier.entails_s": "s",
    "verifier.goal_p50_us": "us", "verifier.goal_max_us": "us", "verifier.contexts": "count",
    "verifier.goals_per_context": "1", "verifier.context_axioms": "count",
    "verifier.proven_ratio": "1", "verifier.step_limited": "count", "verifier.refine_s": "s",
    "emitter.emit_s": "s", "emitter.bytes": "B", "emitter.bytes_per_s": "B/s",
    "cli.main_s": "s", "cli.process_s": "s",
    "parser.self_s": "s", "expander.self_s": "s", "model.self_s": "s",
    "verifier.self_s": "s", "emitter.self_s": "s", "cli.self_s": "s",
    "trace.untraced_run_s": "s", "trace.run_s": "s", "trace.overhead_s": "s",
    "trace.spans": "count",
}


# --- correctness ---------------------------------------------------------------

class Checker:
    """Counts operations and failures.  The first output seen for each
    ontology or command is checked against the expected answer; every later
    one must be byte-identical to it (determinism across runs, paths and
    PYTHONHASHSEED values)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._texts: dict[str, str] = {}
        self._stdout: dict[str, bytes] = {}
        self._verdicts: set[int] = set()

    def op(self, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(error)

    def text(self, wl: W.Workload, name: str, text: str) -> None:
        ref = self._texts.get(name)
        if ref is not None:
            self.op(None if text == ref else f"{name}: output differs from an earlier run")
            return
        error = wl.text_error(name, text)
        if error is None:
            self._texts[name] = text
        self.op(error)

    def verdicts(self, wl: W.Workload, got: list[tuple[str, str, bool]]) -> None:
        """got: (axiom text, status, step limited) per obligation."""
        key = hash((id(wl), tuple(got)))
        if key in self._verdicts:
            self.attempted += len(got)
            return
        before = self.failed
        seen: Counter[str] = Counter()
        for text, status, limited in got:
            seen[text] += 1
            want = wl.verdicts.get(text)
            if want is None:
                self.op(f"unexpected obligation {text!r}")
            elif seen[text] > 1:
                self.op(f"obligation {text!r} reported twice")
            elif limited:
                self.op(f"obligation {text!r} hit the step limit")
            elif (status == "proven") != want:
                self.op(f"obligation {text!r} {status}, expected "
                        f"{'proven' if want else 'unproven'}")
            else:
                self.op(None)
        for text in wl.verdicts:
            if text not in seen:
                self.op(f"obligation {text!r} missing")
        if self.failed == before:
            self._verdicts.add(key)

    def refinements(self, wl: W.Workload, got: dict[str, tuple[bool, int, bool]]) -> None:
        """got: name -> (holds, sentences, any step limited)."""
        for name, (holds, sentences, limited) in got.items():
            want = wl.refinements.get(name)
            if want is None:
                self.op(f"unexpected refinement {name}")
            elif not holds or limited or sentences != want:
                self.op(f"refinement {name}: holds={holds} sentences={sentences}"
                        f" step_limited={limited}, expected to hold with {want}")
            else:
                self.op(None)
        for name in wl.refinements:
            if name not in got:
                self.op(f"refinement {name} missing")

    def command(self, wl: W.Workload, cmd: W.Command, res: dict) -> None:
        label = f"{wl.name}: {cmd.label}"
        error = None
        if res["exit"] != cmd.exit_code:
            error = f"{label}: exit {res['exit']}, expected {cmd.exit_code}"
        elif b"Traceback" in res["stderr"]:
            error = f"{label}: traceback on stderr"
        elif self._stdout.setdefault(label, res["stdout"]) != res["stdout"]:
            error = f"{label}: stdout differs under another PYTHONHASHSEED"
        self.op(error)
        files = dict(res["files"])
        for name in cmd.files:
            data = files.pop(f"{name}.omn", None)
            if data is None:
                self.op(f"{label}: {name}.omn not written")
            else:
                self.text(wl, name, data.decode("utf-8"))
        for extra in files:
            self.op(f"{label}: unexpected file {extra}")
        out = res["stdout"].decode("utf-8", "replace").splitlines()
        if cmd.verdicts:
            self.verdicts(wl, [(m[2], m[1], False)
                               for m in map(VERDICT_LINE.match, out) if m])
        if cmd.refinements:
            sentences = Counter(m[3] for m in map(VERDICT_LINE.match, out) if m)
            unproven = Counter(m[3] for m in map(VERDICT_LINE.match, out) if m and m[1] != "proven")
            self.refinements(wl, {m[1]: (m[2] == "holds" and not unproven[m[1]],
                                         sentences[m[1]], False)
                                  for m in map(REFINEMENT_LINE.match, out) if m})


# --- the in-process pipeline ---------------------------------------------------------

def parse_docs(files: list[Path]):
    from gdol import parser
    return [parser.parse_document(f.read_text(encoding="utf-8")) for f in files]


def pipeline(wl: W.Workload, docs) -> tuple[float, list]:
    """Time expanding, checking and emitting from fresh envs (one per copy).
    Module attributes are looked up at call time so traced wrappers apply."""
    from gdol import emitter, expander, model, verifier

    refs = [d for doc in docs for d in doc.decls if isinstance(d, model.RefinementDef)]
    envs = [expander.ExpansionEnv.from_documents(docs) for _ in range(wl.copies)]
    gc.collect()
    outputs = []
    start = perf_counter()
    for env in envs:
        def work(env=env):
            onts = {n: env.expand_named(n) for n in wl.expand}
            return onts, tuple(ob for n in wl.check for ob in env.obligations(n))
        onts, obligations = expander.run_deep(work, env.depth_budget)
        checked = verifier.check_obligations(obligations)
        reports = [verifier.check_refinement(r, env) for r in refs]
        texts = {n: emitter.emit_manchester(o) for n, o in onts.items()}
        outputs.append((onts, checked, reports, texts))
    return perf_counter() - start, outputs


def check_pipeline(checker: Checker, wl: W.Workload, outputs: list) -> None:
    from gdol.emitter import axiom_text
    for _, checked, reports, texts in outputs:
        for name, text in texts.items():
            checker.text(wl, name, text)
        checker.verdicts(wl, [(axiom_text(ob.axiom), ob.status, "step limit" in ob.diagnostic)
                              for ob in checked])
        checker.refinements(wl, {r.name: (r.ok, len(r.results),
                                          any(res.step_limited for _, res in r.results))
                                 for r in reports})


# --- child processes -------------------------------------------------------------------

def child_env(root: Path, hash_seed: int | None = None) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def run_child(argv: list[str], cwd: Path, env: dict[str, str]) -> dict:
    """Run one child to completion; wall time and its own peak RSS."""
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return {"seconds": elapsed, "rss_mib": usage.ru_maxrss / 1024, "exit": proc.returncode,
            "stdout": (cwd / "stdout.txt").read_bytes(),
            "stderr": (cwd / "stderr.txt").read_bytes()}


def run_cli(root: Path, cmd: W.Command, rep_dir: Path, hash_seed: int) -> dict:
    rep_dir.mkdir()
    res = run_child([sys.executable, "-m", "gdol.cli", *cmd.argv], rep_dir,
                    child_env(root, hash_seed))
    out = rep_dir / "out"
    res["files"] = {p.name: p.read_bytes() for p in sorted(out.glob("*.omn"))} if out.is_dir() else {}
    shutil.rmtree(rep_dir)
    return res


def cli_in_process(cmd: W.Command, rep_dir: Path) -> dict:
    """cli.main in this process (for the traced run), with the same checks."""
    from gdol import cli
    rep_dir.mkdir()
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = Path.cwd()
    os.chdir(rep_dir)
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(list(cmd.argv))
    finally:
        os.chdir(cwd)
    out = rep_dir / "out"
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*.omn"))} if out.is_dir() else {}
    shutil.rmtree(rep_dir)
    return {"exit": code, "stdout": stdout.getvalue().encode("utf-8"),
            "stderr": stderr.getvalue().encode("utf-8"), "files": files}


def setup_sample(root: Path, wl: W.Workload, d: Path, checker: Checker) -> float:
    d.mkdir()
    res = run_child([sys.executable, "-c", SETUP_CODE, *map(str, wl.files)], d, child_env(root))
    shutil.rmtree(d)
    checker.op(None if res["exit"] == 0 else
               f"setup child exited {res['exit']}: {res['stderr'][-300:]!r}")
    return res["seconds"]


# --- statistics ------------------------------------------------------------------------

def summary(samples: list[float]) -> dict:
    """Median, sample count, and the highest whole percentile with at least
    ten samples beyond it (from 20 samples on)."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    if len(samples) >= 20:
        k = int(100 * (1 - 10 / len(samples)))
        out[f"p{k}"] = statistics.quantiles(samples, n=100)[k - 1]
    out["samples"] = samples
    return out


# --- the two kinds of run -----------------------------------------------------------------

def measure(root: Path, work: Path, main: W.Workload, small: W.Workload, large: W.Workload,
            seconds: float, checker: Checker) -> tuple[dict, dict]:
    """Interleave set-up samples, in-process pairs and CLI command sets over
    the whole run, so every metric samples the same stretch of machine
    speed; the machine's speed drifts over seconds."""
    docs = {id(wl): parse_docs(wl.files) for wl in (small, large)}
    samples: dict[str, list[float]] = {k: [] for k in ("setup_s", "cli_s", "peak_rss_mib")}
    pairs: list[tuple[float, float]] = []
    busy = {"run": 0.0, "cli": 0.0}
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        n_setup = len(samples["setup_s"])
        if n_setup < SETUP_SAMPLES and elapsed >= seconds * n_setup / SETUP_SAMPLES:
            samples["setup_s"].append(setup_sample(root, main, work / f"setup{n_setup}", checker))
        elif len(pairs) < MIN_REPS or (busy["run"] < RUN_SHARE * (busy["run"] + busy["cli"])
                                       and elapsed < seconds):
            t0 = perf_counter()
            pair = []
            for wl in (small, large):
                took, outputs = pipeline(wl, docs[id(wl)])
                pair.append(took)
                check_pipeline(checker, wl, outputs)
            pairs.append((pair[0], pair[1]))
            busy["run"] += perf_counter() - t0
        elif len(samples["cli_s"]) < MIN_REPS or elapsed < seconds:
            t0 = perf_counter()
            rep = len(samples["cli_s"])
            total, peak = 0.0, 0.0
            for i, cmd in enumerate(main.commands):
                res = run_cli(root, cmd, work / f"cli{rep}_{i}", hash_seed=rep)
                checker.command(main, cmd, res)
                total += res["seconds"]
                peak = max(peak, res["rss_mib"])
            samples["cli_s"].append(total)
            samples["peak_rss_mib"].append(peak)
            busy["cli"] += perf_counter() - t0
        else:
            break
    samples["run_s"] = [p[1] if main is large else p[0] for p in pairs]
    stats = {k: summary(v) for k, v in samples.items()}
    metrics = {k: stats[k]["median"] for k in END_TO_END if k in samples}
    # per adjacent pair, so drift between the two halves of a pair cancels;
    # divided by the doublings between the sizes, so it is a slope per doubling
    doublings = math.log2(W.SCALE_STEP)
    metrics["scale_exp"] = statistics.median(math.log2(big / little) / doublings
                                             for little, big in pairs)
    stats["scale_exp"] = {"median": metrics["scale_exp"], "n": len(pairs), "pairs": pairs}
    return metrics, stats


def traced(root: Path, work: Path, wl: W.Workload, seconds: float, checker: Checker,
           trace_path: Path) -> tuple[dict, dict]:
    from gdol import expander
    from spans import Tracer

    start = perf_counter()
    docs = parse_docs(wl.files)
    untraced: list[float] = []
    while len(untraced) < MIN_REPS or perf_counter() - start < seconds * 0.3:
        took, outputs = pipeline(wl, docs)
        untraced.append(took)
        check_pipeline(checker, wl, outputs)

    tracer = Tracer()
    per_rep: list[dict] = []
    traced_run: list[float] = []
    with tracer.install():
        while len(per_rep) < MIN_REPS or perf_counter() - start < seconds * 0.7:
            tracer.op = f"run{len(per_rep)}"
            rep_docs = parse_docs(wl.files)
            took, outputs = pipeline(wl, rep_docs)
            traced_run.append(took)
            check_pipeline(checker, wl, outputs)
            for onts, *_ in outputs:
                tracer.count("expander.decls_out", sum(len(o.decls) for o in onts.values()))
                tracer.count("expander.axioms_out", sum(len(o.axioms) for o in onts.values()))
            tracer.count("expander.obligations", sum(len(out[1]) for out in outputs))
            m = tracer.layer_metrics(tracer.op)
            for name in ("expander.decls_out", "expander.axioms_out", "expander.obligations"):
                m[name] = tracer.counts[tracer.op][name]
            per_rep.append(m)

    trampoline = []
    for _ in range(TRAMPOLINE_SAMPLES):
        t0 = perf_counter()
        expander.run_deep(lambda: None)
        trampoline.append(perf_counter() - t0)

    cli_s, main_s, cli_self = [], [], []
    rep = 0
    while rep < 2 or perf_counter() - start < seconds:
        total = 0.0
        for i, cmd in enumerate(wl.commands):
            res = run_cli(root, cmd, work / f"cli{rep}_{i}", hash_seed=rep)
            checker.command(wl, cmd, res)
            total += res["seconds"]
        cli_s.append(total)
        total = 0.0  # cli.main untraced, so cli.process_s carries no tracing cost
        for i, cmd in enumerate(wl.commands):
            t0 = perf_counter()
            res = cli_in_process(cmd, work / f"main{rep}_{i}")
            total += perf_counter() - t0
            checker.command(wl, cmd, res)
        main_s.append(total)
        tracer.op = f"cli{rep}"
        with tracer.install():
            for i, cmd in enumerate(wl.commands):
                checker.command(wl, cmd, cli_in_process(cmd, work / f"traced{rep}_{i}"))
        cli_self.append(sum(s.self_s for s in tracer.spans
                            if s.op == tracer.op and s.name.startswith("cli.")))
        rep += 1
    tracer.dump(trace_path)

    metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
    metrics["expander.trampoline_s"] = statistics.median(trampoline)
    metrics["cli.main_s"] = statistics.median(main_s)
    metrics["cli.process_s"] = statistics.median(cli_s) - metrics["cli.main_s"]
    metrics["cli.self_s"] = statistics.median(cli_self)
    metrics["trace.untraced_run_s"] = statistics.median(untraced)
    metrics["trace.run_s"] = statistics.median(traced_run)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
    metrics["trace.spans"] = len(tracer.spans)
    if set(metrics) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of step: {set(metrics) ^ set(PER_LAYER)}")
    stats = {"untraced_run_s": summary(untraced), "traced_run_s": summary(traced_run),
             "cli_s": summary(cli_s), "cli_main_s": summary(main_s), "trace_file": str(trace_path)}
    return metrics, stats


# --- entry point ----------------------------------------------------------------------------

def unit_of(name: str) -> str:
    return END_TO_END.get(name) or PER_LAYER[name]


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text(encoding="utf-8").strip()
            for line in (root / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", choices=("count", "verdict"),
                    help="make one expected answer wrong; the run must then fail")
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "gdol" / "__init__.py").is_file():
        print(f"error: {root} has no src/gdol; run from the root of a gdol checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import gdol
    if not Path(gdol.__file__).resolve().is_relative_to(root / "src"):
        print(f"error: imported gdol from {gdol.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 2

    out_dir = root / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    checker = Checker()
    try:
        main_wl, small, large = W.build(args.workload, root, work, args.seed)
        if args.corrupt:
            W.corrupt(main_wl, args.corrupt)
        if args.workload == "deep_list":
            checker.op(W.deep_list_anchor_error(root))
        if args.trace:
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, stats = traced(root, work, main_wl, args.seconds, checker, trace_path)
        else:
            metrics, stats = measure(root, work, main_wl, small, large, args.seconds, checker)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = checker.failed == 0
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": main_wl.size, "why": W.WHY[args.workload],
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(root), "platform": platform.platform(),
        "corrupt": args.corrupt,
    }
    fail_ratio = checker.failed / checker.attempted
    print(f"# {json.dumps(meta)}")
    for name, value in metrics.items():
        detail = stats.get(name, {})
        extra = "".join(f"  {k}={v:.6g}" if isinstance(v, float) else f"  {k}={v}"
                        for k, v in detail.items() if k == "n" or k[1:].isdigit())
        print(f"{name:28s} {value:14.6g} {unit_of(name):6s}{extra}")
    print(f"{'fail_ratio':28s} {fail_ratio:14.6g} {'1':6s}  attempted={checker.attempted}"
          f"  failed={checker.failed}")
    for e in checker.errors:
        print(f"FAILED: {e}")
    record = {"meta": meta, "metrics": metrics, "stats": stats, "fail_ratio": fail_ratio,
              "attempted": checker.attempted, "failed": checker.failed,
              "errors": checker.errors}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": checker.attempted, "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
