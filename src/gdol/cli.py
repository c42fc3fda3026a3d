"""Command-line interface.

Three subcommands: `expand` writes one Manchester file per named ontology,
`check` generates and verifies obligations, `refine` checks refinement
declarations.  Exit codes: 0 on success, 1 when verification fails (strict
check or refinement), 2 for usage, parse, or expansion errors.
"""

from __future__ import annotations

import argparse
import sys
from codecs import BOM_UTF8
from pathlib import Path

from .emitter import axiom_text, emit_manchester
from .errors import GdolError, ParseError
from .expander import DEFAULT_DEPTH_BUDGET, ExpansionEnv
from .model import Document, OntologyDef, RefinementDef
from .parser import parse_document


def _depth(text: str) -> int:
    """A --depth value: a positive integer."""
    try:
        if int(text) > 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("files", nargs="+", type=Path, help="pattern documents (.gdol)")
    sub.add_argument("--lib", action="append", type=Path, default=[],
                     help="directory of additional .gdol documents (repeatable)")
    sub.add_argument("--target", action="append", default=[],
                     help="restrict to this declaration (repeatable)")
    sub.add_argument("--depth", type=_depth, default=DEFAULT_DEPTH_BUDGET,
                     help="instantiation depth budget")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gdol",
                                     description="pattern compiler for Manchester-syntax ontologies")
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="expand named ontologies to .omn files")
    _add_common(p_expand)
    p_expand.add_argument("--out", type=Path, default=Path("."), help="output directory")

    p_check = sub.add_parser("check", help="generate and verify obligations")
    _add_common(p_check)
    p_check.add_argument("--strict", action="store_true",
                         help="exit nonzero when any obligation is unproven")
    p_check.add_argument("--emit-obligations", type=Path, metavar="DIR",
                         help="export unproven obligations as .omn files")

    p_refine = sub.add_parser("refine", help="check refinement declarations")
    _add_common(p_refine)
    return parser


def _read(f: Path) -> Document:
    try:
        text = f.read_text(encoding="utf-8-sig")  # drops the byte-order mark some editors write
    except UnicodeDecodeError as exc:
        # the offset counts from after a dropped mark; report it in the file
        start = exc.start + (len(BOM_UTF8) if f.read_bytes().startswith(BOM_UTF8) else 0)
        raise GdolError(f"{f}: not UTF-8 text: {exc.reason} at byte offset {start}") from None
    try:
        return parse_document(text)
    except ParseError as exc:  # its text starts with line:column when it has them
        raise GdolError(f"{f}:{exc}" if exc.line else f"{f}: {exc}") from None


def _load(files: list[Path], libs: list[Path]) -> tuple[list[Document], list[Document]]:
    """The input documents and the --lib documents; a file is read once,
    as the first input or library file that resolves to it."""
    seen: set[Path] = set()

    def read_new(fs: list[Path]) -> list[Document]:
        docs = []
        for f in fs:
            r = f.resolve()
            if r not in seen:
                seen.add(r)
                docs.append(_read(f))
        return docs

    input_docs = read_new(files)
    lib_files: list[Path] = []
    for d in libs:
        if not d.is_dir():
            raise GdolError(f"--lib {d} is not a directory")
        lib_files.extend(sorted(d.rglob("*.gdol"), key=str))
    return input_docs, read_new(lib_files)


def _prepare(args: argparse.Namespace, cls: type, what: str) -> tuple[ExpansionEnv, list]:
    """Load the documents, build their env, and pick the input documents'
    declarations of type cls that --target names (all when it names none)."""
    input_docs, lib_docs = _load(args.files, args.lib)
    env = ExpansionEnv.from_documents([*input_docs, *lib_docs], args.depth)
    decls = [d for doc in input_docs for d in doc.decls if isinstance(d, cls)]
    if not args.target:
        return env, decls
    names = {d.name for d in decls}
    missing = [t for t in args.target if t not in names]
    if missing:
        raise GdolError(f"unknown {what}: {', '.join(missing)}")
    return env, [d for d in decls if d.name in args.target]


def _print_diagnostics(env: ExpansionEnv) -> None:
    for d in env.diagnostics:
        print(f"warning: {d}", file=sys.stderr)


def _cmd_expand(args: argparse.Namespace) -> int:
    env, defs = _prepare(args, OntologyDef, "ontology")
    expansions = [(d.name, env.expand_named(d.name)) for d in defs]
    _print_diagnostics(env)
    args.out.mkdir(parents=True, exist_ok=True)
    for name, expansion in expansions:
        path = args.out / f"{name}.omn"
        path.write_text(emit_manchester(expansion), encoding="utf-8", newline="\n")
        print(f"wrote {path}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    # imported here, before any document is read, so `expand` never loads
    # the verifier and its compile does not add to the loaded documents' peak
    from .verifier import check_obligations, export_obligations

    env, defs = _prepare(args, OntologyDef, "ontology")
    obligations = tuple(ob for d in defs for ob in env.obligations(d.name))
    _print_diagnostics(env)
    checked = check_obligations(obligations)
    for ob in checked:
        print(f"{ob.status:>8}  {axiom_text(ob.axiom)}  "
              f"[{ob.ontology} :: {ob.pattern}/{ob.param}#{ob.index}]")
    unproven = [ob for ob in checked if ob.status != "proven"]
    if not checked:
        print("0 obligations")
    else:
        print(f"{len(checked)} obligations: {len(checked) - len(unproven)} proven, "
              f"{len(unproven)} unproven")
    if args.emit_obligations and unproven:
        for path in export_obligations(unproven, args.emit_obligations):
            print(f"wrote {path}")
    if args.strict and unproven:
        return 1
    return 0


def _cmd_refine(args: argparse.Namespace) -> int:
    from .verifier import check_refinement

    env, refs = _prepare(args, RefinementDef, "refinement")
    failed = False
    for ref in refs:
        report = check_refinement(ref, env)
        for a, b in report.unmatched:
            print(f"warning: refinement {ref.name}: symbol map entry {a} |-> {b} "
                  "matches no name of the source", file=sys.stderr)
        for axiom, res in report.results:
            status = "proven" if res.proven else "unproven"
            print(f"{status:>8}  {axiom_text(axiom)}  [{ref.name}]")
        verdict = "holds" if report.ok else "FAILS"
        print(f"refinement {ref.name}: {verdict}")
        failed = failed or not report.ok
    _print_diagnostics(env)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "expand":
            return _cmd_expand(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_refine(args)
    except (GdolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
