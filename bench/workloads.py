"""Workload generators and the expected answers the benchmark checks against.

Every workload is a `Workload`: the documents gdol reads, what the in-process
pipeline expands, checks and emits, the CLI commands a user would type, and
the expected answer for each output.  Expected answers never come from gdol:

* `corpus` uses the hand-written goldens under `corpus/golden/`, the
  obligations and refinement sentences derived by hand from the corpus
  sources (all proven), and all three refinements holding.
* The generated workloads derive every emitted frame, and so every
  declaration and axiom count, and every obligation verdict from the way
  they build their input.  The `deep_list` formula is anchored against
  `corpus/golden/ordgrade_maxseats.omn` by `deep_list_anchor_error`.

The seed permutes symbol names, list order and declaration order.  gdol sees
only the files written here (and, for `corpus`, the shipped corpus).
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# --- emitted-text frames --------------------------------------------------

_STANDALONE = ("DifferentIndividuals:", "EquivalentClasses:", "DisjointClasses:")

Frames = dict[tuple[str, str], list[str]]


def _norm(clause: str) -> str:
    """Member lists of nominals and DifferentIndividuals are sets."""
    kw, _, value = clause.partition(": ")
    if kw == "DifferentIndividuals":
        return f"{kw}: " + ", ".join(sorted(value.split(", ")))
    if value.startswith("{") and value.endswith("}"):
        return f"{kw}: {{" + ", ".join(sorted(value[1:-1].split(", "))) + "}"
    return clause


def frames_of(text: str) -> Frames:
    """Read Manchester text as (frame keyword, subject) -> sorted clauses.

    Standalone axioms go under ("", "").  A subject framed twice is an
    error, because emitted frames are merged per name.
    """
    frames: Frames = {}
    current = None
    for line in text.splitlines():
        if line.startswith("  "):
            if current is None:
                raise ValueError(f"clause outside a frame: {line!r}")
            frames[current].append(_norm(line.strip()))
        elif line.startswith(_STANDALONE):
            frames.setdefault(("", ""), []).append(_norm(line))
            current = None
        else:
            kw, sep, subject = line.partition(": ")
            if not sep or (kw, subject) in frames:
                raise ValueError(f"bad or repeated frame header: {line!r}")
            current = (kw, subject)
            frames[current] = []
    return {k: sorted(v) for k, v in frames.items()}


class _FrameBuilder:
    def __init__(self) -> None:
        self.frames: Frames = {}

    def add(self, kw: str, subject: str, *clauses: str) -> None:
        self.frames.setdefault((kw, subject), []).extend(clauses)

    def standalone(self, clause: str) -> None:
        self.frames.setdefault(("", ""), []).append(clause)

    def done(self) -> Frames:
        return {k: sorted(_norm(c) for c in v) for k, v in self.frames.items()}


def frame_counts(frames: Frames) -> tuple[int, int]:
    """(declarations, axioms) of a frame map; every declared name has a frame."""
    decls = sum(1 for k in frames if k != ("", ""))
    return decls, sum(len(v) for v in frames.values())


# --- the workload description ----------------------------------------------

@dataclass
class Command:
    label: str
    argv: list[str]           # arguments after `python -m gdol.cli`
    exit_code: int
    files: tuple[str, ...]    # ontologies an `expand` writes, without .omn
    verdicts: bool = False    # stdout carries obligation verdict lines
    refinements: bool = False  # stdout carries refinement verdict lines


@dataclass
class Workload:
    name: str
    size: dict[str, int]
    files: list[Path]             # every document gdol reads
    expand: list[str]             # ontologies expanded and emitted in-process
    check: list[str]              # ontologies whose obligations are checked
    commands: list[Command]
    frames: dict[str, Frames]     # ontology name -> expected frames
    verdicts: dict[str, bool]     # obligation axiom text -> proven
    refinements: dict[str, int] = field(default_factory=dict)  # name -> sentences, all hold
    copies: int = 1               # independent fresh-env pipelines per timed run
    # corpus ontologies are checked by callables (goldens) instead of frames
    text_checks: dict[str, Callable[[str], str | None]] = field(default_factory=dict)

    def text_error(self, ontology: str, text: str) -> str | None:
        """Why an emitted ontology is wrong, or None when it is right."""
        if ontology in self.text_checks:
            return self.text_checks[ontology](text)
        expected = self.frames[ontology]
        try:
            got = frames_of(text)
        except ValueError as exc:
            return str(exc)
        if got == expected:
            return None
        missing = sorted(set(expected) - set(got))[:2]
        differ = sorted(k for k in expected if k in got and got[k] != expected[k])[:2]
        return (f"{ontology}: (decls, axioms) {frame_counts(got)}, expected"
                f" {frame_counts(expected)}; missing frames {missing}, differing {differ}")


def _namer(rng: random.Random) -> Callable[[str], str]:
    used: set[str] = set()
    alphabet = string.ascii_lowercase + string.digits

    def name(prefix: str) -> str:
        while True:
            s = prefix + "".join(rng.choice(alphabet) for _ in range(5))
            if s not in used:
                used.add(s)
                return s
    return name


def _write(path: Path, decls: list[str], rng: random.Random) -> Path:
    """Write top-level declarations in seeded order (gdol resolves names
    across the whole document, so order carries no meaning)."""
    decls = list(decls)
    rng.shuffle(decls)
    path.write_text("%% generated by bench/workloads.py\n\n" + "\n\n".join(decls) + "\n",
                    encoding="utf-8")
    return path


def _lib(corpus_dir: Path) -> list[str]:
    return [a for d in ("patterns", "logs", "aux") for a in ("--lib", str(corpus_dir / d))]


# --- corpus ------------------------------------------------------------------

CORPUS_LOGS = {
    "change_pd": ("Change_PD_Vehicle_log",),
    "data_driver": ("Data_Driver_log",),
    "driver": ("Role_PotentialDriver_log", "Roles_Driver_log", "Driver_log"),
    "grades": ("OrdGRADE_MaxSeats",),
    "temporal": ("TEMPORAL_Extent_Vehicle_log",),
}

# Obligations of Data_Driver_log, read off the constrained parameters of
# DATA_Role and DATA_Driver_Role in corpus/logs/data_driver.gdol: each
# instantiation yields the Domain and Range of its constrained properties,
# DATA_Driver_Role also the fact on `pd`.  corpus/aux/data_aux.gdol makes
# all of them provable.
CORPUS_OBLIGATIONS = (
    "licencedAs Domain: Person", "licencedAs Range: PotentialDriver",
    "hasLicence Domain: PotentialDriver", "hasLicence Range: DrivingLicence",
    "licencedFor_le_BMotorVehicle Domain: PotentialDriver",
    "licencedFor_le_BMotorVehicle Range: RoadVehicle",
    "bkb_PotentialDriver Facts: licencedFor_le_BMotorVehicle bkbs_VWBus",
    "becomes Domain: PotentialDriver", "becomes Range: Driver",
    "isDriverOf Domain: Driver", "isDriverOf Range: RoadVehicle",
)

# Sentences of each refinement source pattern in corpus/refinements/.
CORPUS_REFINEMENTS = {
    "Closed_to_TotalScoped": 1,
    "TotalScoped_to_ScopedFunction": 2,
    "ScopedFunction_to_ScopedFunctionInverse": 3,
}

CORPUS_GOLDENS = {
    "TEMPORAL_Extent_Vehicle_log": "temporal_extent_vehicle_log.omn",
    "Change_PD_Vehicle_log": "change_pd_vehicle_log.omn",
    "OrdGRADE_MaxSeats": "ordgrade_maxseats.omn",
}


def corpus(root: Path, copies: int = 1) -> Workload:
    """The README commands over the shipped corpus.  The seed cannot change
    the corpus; `copies` > 1 runs that many independent fresh-env pipelines
    in one timed run, the large side of the corpus's `scale_exp`."""
    from gdol import diff_golden, parse_manchester_fragment

    cdir = root / "corpus"
    golden_dir = cdir / "golden"

    def golden_check(golden: str) -> Callable[[str], str | None]:
        want = parse_manchester_fragment((golden_dir / golden).read_text(encoding="utf-8"))

        def check(text: str) -> str | None:
            d = diff_golden(parse_manchester_fragment(text), want)
            return None if d.empty else f"differs from {golden}:\n{d.report()}"
        return check

    block = parse_manchester_fragment(
        (golden_dir / "data_driver_last_inst.omn").read_text(encoding="utf-8"))

    def data_driver_check(text: str) -> str | None:
        missing = block.axioms - parse_manchester_fragment(text).axioms
        return f"{len(missing)} axioms of data_driver_last_inst.omn missing" if missing else None

    checks: dict[str, Callable[[str], str | None]] = {
        n: golden_check(g) for n, g in CORPUS_GOLDENS.items()}
    checks["Data_Driver_log"] = data_driver_check
    commands = [
        Command(f"expand {log}", ["expand", str(cdir / "logs" / f"{log}.gdol"), *_lib(cdir),
                                  "--out", "out"], 0, onts)
        for log, onts in CORPUS_LOGS.items()
    ]
    commands.append(Command("check data_driver",
                            ["check", str(cdir / "logs" / "data_driver.gdol"), *_lib(cdir),
                             "--strict"],
                            0, (), verdicts=True))
    commands.append(Command("refine scoped_chain",
                            ["refine", str(cdir / "refinements" / "scoped_chain.gdol"),
                             "--lib", str(cdir / "patterns")],
                            0, (), refinements=True))
    files = sorted(cdir.rglob("*.gdol"), key=str)
    expand = [o for onts in CORPUS_LOGS.values() for o in onts]
    for o in expand:
        checks.setdefault(o, lambda text: None if text else "empty output")
    return Workload("corpus", {"documents": len(files), "copies": copies}, files, expand,
                    ["Data_Driver_log"], commands, {}, {t: True for t in CORPUS_OBLIGATIONS},
                    dict(CORPUS_REFINEMENTS), copies, checks)


# --- deep_list -----------------------------------------------------------------

# The patterns OrdGRADE needs, as in corpus/patterns/{values,orders}.gdol.
_ORDGRADE_PATTERNS = [
    """pattern Strict_ORDER [ Class: X; ObjectProperty: r ] =
  ObjectProperty: r Domain: X Range: X Characteristics: Transitive""",
    """pattern ORDER_Relations [ Class: X ] =
  Strict_ORDER[X; gt[X]] then
  ObjectProperty: ge[X] Domain: X Range: X Characteristics: Transitive
  ObjectProperty: gt[X] SubPropertyOf: ge[X]
  ObjectProperty: le[X] Domain: X Range: X Characteristics: Transitive
    InverseOf: ge[X]
  ObjectProperty: lt[X] SubPropertyOf: le[X]
    InverseOf: gt[X]""",
    """pattern VAL_Set [ Class: Val; ? ObjectProperty: greater; Individual: v0 :: vs ]
= let pattern OrderStep [ Individual: i; Individual: j :: js ] =
      Individual: j Types: Val Facts: greater i
      then OrderStep[j; js]
in Individual: v0 Types: Val
then Strict_ORDER[Val; greater] and OrderStep[v0; vs]
then DifferentIndividuals: v0, vs
     Class: Val EquivalentTo: {v0, vs}""",
    """pattern OrdGRADE [ Class: Ancestor; Class: Grade; Individual: g :: gs ]
= VAL_Set[Grade; gt[Grade]; g :: gs] and ORDER_Relations[Grade]
then Class: Grade SubClassOf: Ancestor""",
]


def ordgrade_frames(ancestor: str, grade: str, values: list[str]) -> Frames:
    """Expansion of OrdGRADE[ancestor; grade; values], derived from the
    pattern bodies: each value is typed by grade and points to its
    predecessor by gt_<grade>; the order properties are fixed."""
    f = _FrameBuilder()
    gt, ge, le, lt = (f"{p}_{grade}" for p in ("gt", "ge", "le", "lt"))
    f.add("Class", ancestor)
    f.add("Class", grade, f"SubClassOf: {ancestor}", "EquivalentTo: {" + ", ".join(values) + "}")
    for i, v in enumerate(values):
        f.add("Individual", v, f"Types: {grade}")
        if i:
            f.add("Individual", v, f"Facts: {gt} {values[i - 1]}")
    f.standalone("DifferentIndividuals: " + ", ".join(values))
    typed = (f"Domain: {grade}", f"Range: {grade}", "Characteristics: Transitive")
    f.add("ObjectProperty", ge, *typed)
    f.add("ObjectProperty", gt, f"SubPropertyOf: {ge}", *typed)
    f.add("ObjectProperty", le, *typed, f"InverseOf: {ge}")
    f.add("ObjectProperty", lt, f"SubPropertyOf: {le}", f"InverseOf: {gt}")
    return f.done()


def deep_list_anchor_error(root: Path) -> str | None:
    """The deep_list formula at N = 3 with the corpus names must reproduce
    the hand-written golden."""
    text = (root / "corpus" / "golden" / "ordgrade_maxseats.omn").read_text(encoding="utf-8")
    want = ordgrade_frames("VehicleAttribute", "MaxSeats", ["le9Seats", "gt9to17Seats", "gt17Seats"])
    if frames_of(text) != want:
        return "deep_list formula does not reproduce corpus/golden/ordgrade_maxseats.omn"
    return None


def deep_list(work: Path, seed: int, n: int) -> Workload:
    """One ontology OrdGRADE[A; G; [v0..vN-1]]: list recursion N deep, no
    obligations."""
    rng = random.Random(f"deep_list/{seed}/{n}")
    name = _namer(rng)
    ancestor, grade, ont = name("C"), name("C"), name("O")
    values = [name("i") for _ in range(n)]
    doc = _write(work / f"deep_list_{n}.gdol", [
        *_ORDGRADE_PATTERNS,
        f"ontology {ont} = OrdGRADE[{ancestor}; {grade}; [{', '.join(values)}]]",
    ], rng)
    return Workload(
        "deep_list", {"N": n}, [doc], [ont], [],
        [Command("expand", ["expand", str(doc), "--out", "out"], 0, (ont,))],
        {ont: ordgrade_frames(ancestor, grade, values)}, {})


# --- shared_context ------------------------------------------------------------

_AND_NRELS = """pattern AND_nRels [ Class: S; Class: T; ObjectProperty: r;
    {ObjectProperty: p Domain: S Range: T} :: ps ]
= ObjectProperty: r Domain: S Range: T SubPropertyOf: p
then AND_nRels[S; T; r; ps]"""

_CHAIN = 4  # subclass steps between a hub's declared domain/range and S, T, U


def shared_context(work: Path, seed: int, n: int) -> Workload:
    """Context Ctx declares properties q0..qN-1 under two hub properties;
    Shared = Ctx and AND_nRels[S; T; r; [q...]] raises Domain(q, S) and
    Range(q, T) for every q.  Hub A has domain and range below S and T;
    hub B has its range below an unrelated class U.  Exactly half of the q
    sit under hub B, so their Range goals (a quarter of all goals) fail
    after an exhaustive search."""
    rng = random.Random(f"shared_context/{seed}/{n}")
    name = _namer(rng)
    ctx, shared, r = name("O"), name("O"), name("p")
    chains = {c: [name("C") for _ in range(_CHAIN + 1)] for c in "STU"}
    s_top, t_top = chains["S"][-1], chains["T"][-1]
    hub_a, hub_b = name("p"), name("p")
    props = [name("p") for _ in range(n)]
    under_b = set(rng.sample(props, n // 2))

    f = _FrameBuilder()
    frames_text = []
    for chain in chains.values():
        for lo, hi in zip(chain, chain[1:]):
            f.add("Class", lo, f"SubClassOf: {hi}")
            frames_text.append(f"Class: {lo} SubClassOf: {hi}")
        f.add("Class", chain[-1])
        frames_text.append(f"Class: {chain[-1]}")
    for hub, rng_cls in ((hub_a, chains["T"][0]), (hub_b, chains["U"][0])):
        f.add("ObjectProperty", hub, f"Domain: {chains['S'][0]}", f"Range: {rng_cls}")
        frames_text.append(f"ObjectProperty: {hub} Domain: {chains['S'][0]} Range: {rng_cls}")
    for q in props:
        hub = hub_b if q in under_b else hub_a
        f.add("ObjectProperty", q, f"SubPropertyOf: {hub}")
        frames_text.append(f"ObjectProperty: {q} SubPropertyOf: {hub}")
    ctx_frames = f.done()
    f.add("ObjectProperty", r, f"Domain: {s_top}", f"Range: {t_top}",
          *(f"SubPropertyOf: {q}" for q in props))
    rng.shuffle(frames_text)
    doc = _write(work / f"shared_context_{n}.gdol", [
        _AND_NRELS,
        f"ontology {ctx} =\n  " + "\n  ".join(frames_text),
        f"ontology {shared} = {ctx} and AND_nRels[{s_top}; {t_top}; {r}; [{', '.join(props)}]]",
    ], rng)
    verdicts = {}
    for q in props:
        verdicts[f"{q} Domain: {s_top}"] = True
        verdicts[f"{q} Range: {t_top}"] = q not in under_b
    return Workload(
        "shared_context", {"N": n}, [doc], [ctx, shared], [shared],
        [Command("check", ["check", str(doc)], 0, (), verdicts=True)],
        {ctx: ctx_frames, shared: f.done()}, verdicts)


# --- many_contexts ---------------------------------------------------------------

_DATA_ROLE = """pattern DATA_Role [ Class: R;
    Class: Performer; ObjectProperty: performs Domain: Performer Range: R;
    Class: Provider; ObjectProperty: providedBy Domain: R Range: Provider;
    Individual: perf; Individual: prov; Individual: rle ]
= Individual: prov Types: Provider
  Individual: rle Types: R Facts: providedBy prov
  Individual: perf Types: Performer Facts: performs rle"""


def many_contexts(work: Path, seed: int, m: int) -> Workload:
    """M ontologies, each DATA_Role over its own names, so 4M obligations in
    M small contexts.  Exactly half of the ontologies state the global
    domain and range of `performs` inline, which proves 2 of their 4 goals:
    a quarter of all goals."""
    rng = random.Random(f"many_contexts/{seed}/{m}")
    name = _namer(rng)
    decls = [_DATA_ROLE]
    onts, frames, verdicts = [], {}, {}
    closed = set(rng.sample(range(m), m // 2))
    for k in range(m):
        ont, role, performer, provider = name("O"), name("C"), name("C"), name("C")
        performs, provided_by = name("p"), name("p")
        perf, prov, rle = name("i"), name("i"), name("i")
        spec = (f"DATA_Role[{role}; {performer}; {performs}; {provider}; {provided_by}; "
                f"{perf}; {prov}; {rle}]")
        f = _FrameBuilder()
        for c in (role, performer, provider):
            f.add("Class", c)
        f.add("Individual", prov, f"Types: {provider}")
        f.add("Individual", rle, f"Types: {role}", f"Facts: {provided_by} {prov}")
        f.add("Individual", perf, f"Types: {performer}", f"Facts: {performs} {rle}")
        f.add("ObjectProperty", provided_by)
        f.add("ObjectProperty", performs)
        if k in closed:
            spec += f"\nthen ObjectProperty: {performs} Domain: {performer} Range: {role}"
            f.add("ObjectProperty", performs, f"Domain: {performer}", f"Range: {role}")
        decls.append(f"ontology {ont} = {spec}")
        onts.append(ont)
        frames[ont] = f.done()
        verdicts[f"{performs} Domain: {performer}"] = k in closed
        verdicts[f"{performs} Range: {role}"] = k in closed
        verdicts[f"{provided_by} Domain: {role}"] = False
        verdicts[f"{provided_by} Range: {provider}"] = False
    doc = _write(work / f"many_contexts_{m}.gdol", decls, rng)
    return Workload(
        "many_contexts", {"M": m}, [doc], onts, onts,
        [Command("expand", ["expand", str(doc), "--out", "out"], 0, tuple(onts)),
         Command("check", ["check", str(doc)], 0, (), verdicts=True)],
        frames, verdicts)


# --- registry ----------------------------------------------------------------------

# Full sizes, chosen so one in-process run takes a few tenths of a second on
# a 2-core machine.  `scale_exp` compares the full size with a quarter of it.
SIZES = {"deep_list": 200, "shared_context": 100, "many_contexts": 400}
SCALE_STEP = 4  # size ratio of the pair `scale_exp` compares


def build(name: str, root: Path, work: Path, seed: int) -> tuple[Workload, Workload, Workload]:
    """(main, small, large): main is what run_s, cli_s and setup_s measure;
    large is SCALE_STEP times small, the pair `scale_exp` compares."""
    if name == "corpus":
        one = corpus(root)
        return one, one, corpus(root, copies=SCALE_STEP)
    gen = {"deep_list": deep_list, "shared_context": shared_context,
           "many_contexts": many_contexts}[name]
    full = gen(work, seed, SIZES[name])
    return full, gen(work, seed, SIZES[name] // SCALE_STEP), full


WORKLOADS = ("corpus", "deep_list", "shared_context", "many_contexts")

WHY = {
    "corpus": "README commands over the shipped corpus; real traffic, dominated by"
              " interpreter start; the only refinements, given and name merging",
    "deep_list": f"OrdGRADE over a list of N={SIZES['deep_list']}: deep list recursion and"
                 " model unions, no obligations, so the verifier idles",
    "shared_context": f"AND_nRels over N={SIZES['shared_context']} properties: 2N goals in one"
                      " shared context, a quarter unprovable; verifier-heavy",
    "many_contexts": f"M={SIZES['many_contexts']} small DATA_Role ontologies: 4M goals in M"
                     " contexts, a quarter provable; parser- and emitter-heavy",
}


def corrupt(wl: Workload, what: str) -> None:
    """Make one expected answer wrong, to show the correctness gate fails."""
    if what == "verdict":
        if not wl.verdicts:
            raise ValueError(f"{wl.name} has no verdicts to corrupt")
        first = sorted(wl.verdicts)[0]
        wl.verdicts[first] = not wl.verdicts[first]
    elif what == "count":
        if wl.name == "corpus":
            wl.verdicts["Nothing Domain: Nothing"] = True
            return
        frames = wl.frames[wl.expand[0]]
        frames[min(frames)].append("SubClassOf: Nothing")
    else:
        raise ValueError(f"unknown corruption {what!r}")
