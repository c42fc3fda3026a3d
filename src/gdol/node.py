"""The methods every `model.Node` class derives: `__init__`, `__eq__` and
`__hash__`.

They depend on a class's fields only through their names, so they are
compiled once per signature (which fields take part in eq and hash, and
whether the class has a `__post_init__`) over placeholder fields `_0, _1,
...`, and each class gets copies of that code with the placeholders renamed
to its own fields: the bytecode that source written for those fields would
compile to.  This lives apart from `model.py` because compiling `model.py`
sets the memory that importing it leaves resident, and code added there
moves it.
"""

from __future__ import annotations

from types import CodeType, FunctionType

_setattr = object.__setattr__

# the globals of every derived method: `exec` adds `__builtins__`
_GLOBALS: dict[str, object] = {"_set": _setattr}
_METHODS = ("__init__", "__eq__", "__hash__")
# (compared mask, has __post_init__) -> the code of _METHODS over _0, _1, ...
_TEMPLATES: dict[tuple[tuple[bool, ...], bool], tuple[CodeType, ...]] = {}


def _template(compared: tuple[bool, ...], post_init: bool) -> tuple[CodeType, ...]:
    fields = [f"_{i}" for i in range(len(compared))]
    body = [f" _set(self, {f!r}, {f})" for f in fields]
    if post_init:
        body.append(" self.__post_init__()")
    same = [f for f, c in zip(fields, compared) if c]
    src = [f"def __init__(self{''.join(f', {f}' for f in fields)}):", *(body or [" pass"]),
           "def __eq__(self, other):",
           " if self is other:", "  return True",
           " if other.__class__ is self.__class__:",
           f"  return {' and '.join(f'self.{f} == other.{f}' for f in same) or 'True'}",
           " return NotImplemented",
           "def __hash__(self):",
           f" return hash(({''.join(f'self.{f}, ' for f in same)}))"]
    ns: dict[str, FunctionType] = {}
    exec("\n".join(src), _GLOBALS, ns)
    return tuple(ns[name].__code__ for name in _METHODS)


def derive_methods(cls: type, uncompared: tuple[str, ...]) -> None:
    """Give a `Node` class its `__match_args__` and those of the methods its
    body does not define."""
    own = cls.__dict__
    fields = tuple(cls.__annotations__)  # this class's own, never a base's
    cls.__match_args__ = fields
    defaults = tuple(own[f] for f in fields if f in own)
    if any(f not in own for f in fields[len(fields) - len(defaults):]):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with a default")
    sig = (tuple(f not in uncompared for f in fields), hasattr(cls, "__post_init__"))
    codes = _TEMPLATES.get(sig) or _TEMPLATES.setdefault(sig, _template(*sig))
    names = {f"_{i}": f for i, f in enumerate(fields)}

    def rename(seq: tuple) -> tuple:
        return tuple(names.get(s, s) for s in seq)

    for name, code in zip(_METHODS, codes):
        if name not in own:
            code = code.replace(co_varnames=rename(code.co_varnames),
                                co_names=rename(code.co_names), co_consts=rename(code.co_consts))
            fn = FunctionType(code, _GLOBALS, argdefs=(defaults or None) if name == "__init__" else None)
            fn.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, fn)
