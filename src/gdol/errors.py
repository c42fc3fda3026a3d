"""Exception hierarchy for the pattern compiler.

Every error raised on a user-visible path derives from GdolError so the CLI
can catch one type and map it to an exit code.  Parse-time errors carry a
source location; semantic errors carry whatever names are needed to print a
useful one-line diagnostic.
"""

from __future__ import annotations


class GdolError(Exception):
    """Base class for all compiler errors."""


class ParseError(GdolError):
    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        super().__init__(f"{line}:{column}: {message}" if line else message)


class UnknownKeyword(ParseError):
    pass


class UnbalancedBracket(ParseError):
    pass


class KindClash(GdolError):
    """One name declared with two different symbol kinds."""

    def __init__(self, name: str, kinds: tuple[str, str]) -> None:
        self.name = name
        self.kinds = kinds
        super().__init__(f"{name!r} declared both as {kinds[0]} and as {kinds[1]}")


class ArityMismatch(GdolError):
    def __init__(self, pattern: str, expected: int, got: int) -> None:
        self.pattern = pattern
        super().__init__(f"{pattern} expects {expected} argument(s), got {got}")


class EmptyForRequired(GdolError):
    def __init__(self, pattern: str, param: str) -> None:
        self.pattern = pattern
        self.param = param
        super().__init__(f"empty argument for required parameter {param!r} of {pattern}")


class ListLengthMismatch(GdolError):
    def __init__(self, pattern: str, detail: str) -> None:
        self.pattern = pattern
        super().__init__(f"{pattern}: parallel list arguments differ in length ({detail})")


class KindMismatch(GdolError):
    def __init__(self, pattern: str, param: str, expected: str, got: str) -> None:
        self.pattern = pattern
        self.param = param
        super().__init__(
            f"{pattern}: argument for {param!r} annotated {got}, parameter declared {expected}"
        )


class UnknownPattern(GdolError):
    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"unknown pattern or ontology {name!r}")


class DepthExceeded(GdolError):
    def __init__(self, budget: int, pattern: str) -> None:
        self.budget = budget
        self.pattern = pattern
        super().__init__(
            f"instantiation depth budget ({budget}) exceeded while expanding {pattern!r};"
            " the pattern is probably not well founded"
        )


class CyclicImport(GdolError):
    def __init__(self, cycle: tuple[str, ...]) -> None:
        self.cycle = cycle
        super().__init__("cyclic ontology reference: " + " -> ".join(cycle))


class MapKindMismatch(GdolError):
    def __init__(self, source: str, target: str, kinds: tuple[str, str]) -> None:
        super().__init__(
            f"refinement maps {source} ({kinds[0]}) to {target} ({kinds[1]}): kinds differ"
        )


class UnstratifiedName(GdolError):
    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"cannot emit parameterized name {name!r}; expansion did not stratify it")


class SubstitutionError(GdolError):
    pass
