"""`NodeMeta`, the metaclass of `model.Node`, and the methods it derives
for every node class: `__init__`, `__eq__` and `__hash__`.

`NodeMeta` builds a node class from its body.  The annotated fields, in
order, are the class's `__match_args__` and, with any `__slots__` the body
names, its slots, so no node has a `__dict__`.  A class attribute cannot
share a slot's name, so a field's default leaves the namespace and becomes
a default of `__init__`.  The derived methods go into the namespace before
the class is created, which costs less than setting them on it afterwards.

The methods depend on a class's fields only through their names, so they
are compiled once per signature (which fields take part in eq and hash, and
whether the class has a `__post_init__`) over placeholder fields `_0, _1,
...`, and each class gets copies of that code with the placeholders renamed
to its own fields: the bytecode that source written for those fields would
compile to.

This lives apart from `model.py` because compiling `model.py` sets the
memory that importing it leaves resident, and code added there moves it.
Every import compiles this module too when no bytecode is cached, so it
carries no annotations, which a compile would turn into strings.
"""

from types import FunctionType

_setattr = object.__setattr__

# the globals of every derived method: `exec` adds `__builtins__`
_GLOBALS = {"_set": _setattr}
_METHODS = ("__init__", "__eq__", "__hash__")
# where each method's code holds the placeholders: __init__'s as parameters
# and as the names it sets, the others' as the attributes they read
_RENAMED = (("co_varnames", "co_consts"), ("co_names",), ("co_names",))
# (compared mask, has __post_init__) -> the code of _METHODS over _0, _1, ...
_TEMPLATES = {}
_SOURCE = """\
def __init__(self{params}):
{body}
def __eq__(self, other):
 if self is other:
  return True
 if other.__class__ is self.__class__:
  return {same}
 return NotImplemented
def __hash__(self):
 return hash(({hashed}))"""


def _template(compared, post_init):
    fields = [f"_{i}" for i in range(len(compared))]
    same = [f for f, c in zip(fields, compared) if c]
    body = [f" _set(self, {f!r}, {f})" for f in fields]
    if post_init:
        body.append(" self.__post_init__()")
    ns = {}
    exec(_SOURCE.format(params="".join(", " + f for f in fields), body="\n".join(body) or " pass",
                        same=" and ".join(f"self.{f} == other.{f}" for f in same) or "True",
                        hashed="".join(f"self.{f}, " for f in same)), _GLOBALS, ns)
    return tuple(ns[name].__code__ for name in _METHODS)


class NodeMeta(type):
    """Makes a class body's annotated fields its `__match_args__` and its
    slots; a class below the root also gets `derive_methods`' methods.
    `uncompared` names fields that take no part in eq and hash."""

    def __new__(mcls, name, bases, ns, uncompared=()):
        fields = tuple(ns.get("__annotations__", ()))  # this class's own, never a base's
        ns["__slots__"] = fields + tuple(ns.get("__slots__", ()))
        if bases:
            derive_methods(ns, bases, fields, uncompared)
        return super().__new__(mcls, name, bases, ns)


def derive_methods(ns, bases, fields, uncompared):
    """Put a node class's `__match_args__`, and those of the methods its
    body does not define, into its namespace, taking its fields' defaults
    out of it into `__init__`'s."""
    qualname = ns["__qualname__"]
    defaults = []
    for f in fields:
        if f in ns:
            defaults.append(ns.pop(f))
        elif defaults:
            raise TypeError(f"{qualname}: a field without a default follows one with a default")
    defaults = tuple(defaults) or None
    ns["__match_args__"] = fields
    sig = (tuple([f not in uncompared for f in fields]),
           "__post_init__" in ns or any([hasattr(b, "__post_init__") for b in bases]))
    codes = _TEMPLATES.get(sig) or _TEMPLATES.setdefault(sig, _template(*sig))
    names = dict(zip(codes[0].co_varnames[1:], fields)).get  # __init__ takes _0, _1, ...
    for name, code, renamed in zip(_METHODS, codes, _RENAMED):
        if name not in ns:
            code = code.replace(**{a: tuple([names(s, s) for s in getattr(code, a)]) for a in renamed})
            fn = FunctionType(code, _GLOBALS, None, defaults if name == "__init__" else None)
            fn.__qualname__ = f"{qualname}.{name}"
            ns[name] = fn
