"""Frozen value records: the package's small stand-in for frozen dataclasses.

``@record`` turns a class whose body annotates its fields, in order, into
a frozen value class, as ``@dataclass(frozen=True)`` would:

* ``__init__`` takes the fields positionally or by keyword, with the
  class-level values as defaults, and then calls ``__post_init__`` when
  the class defines one;
* two records are equal when they have the same class and equal field
  values, and hash as the tuple of their field values;
* ``repr`` reads ``Name(field=value, ...)``;
* assigning or deleting an attribute raises ``AttributeError``;
* ``match`` class patterns take the fields positionally.

It exists because ``dataclasses`` imports ``inspect`` (and with it
``ast``, ``dis`` and ``tokenize``), which cost every short ``bopcalc``
process more start-up time than most of its checks take.  Only
``__init__`` is compiled, once per class, so that construction costs no
more than a dataclass's; the other methods are closures over the field
names.
"""

from operator import attrgetter


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _compile_init(cls, names, defaults):
    body = ["    __d = self.__dict__"]
    body += [f"    __d[{name!r}] = {name}" for name in names]
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    source = f"def __init__(self, {', '.join(names)}):\n" + "\n".join(body)
    namespace = {}
    exec(source, namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(defaults) or None
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


def record(cls):
    """Make cls a frozen value class over its annotated fields."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = []
    for name in names:
        if name in cls.__dict__:
            defaults.append(cls.__dict__[name])
        elif defaults:
            raise TypeError(
                f"non-default field {name!r} follows a default field")

    get = attrgetter(*names)
    values = get if len(names) > 1 else lambda self: (get(self),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        pairs = ", ".join(f"{name}={value!r}"
                          for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({pairs})"

    cls.__init__ = _compile_init(cls, names, defaults)
    cls.__eq__, cls.__hash__, cls.__repr__ = __eq__, __hash__, __repr__
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    cls.__match_args__ = names
    return cls
