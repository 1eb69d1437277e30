"""Frozen record types, written once instead of generated per class.

    class Point(Record):
        x: float
        y: float = 0.0  # a default, which stays the class attribute

The annotated names of a subclass's body are its fields, in order.  An
instance takes them positionally or by keyword (a TypeError for a missing or
unknown one), runs __post_init__, refuses assignment and deletion with an
AttributeError, equals only an instance of its own class with equal fields,
hashes its field tuple and reprs as Point(x=1.0, y=0.0).  This is the part
of dataclasses' frozen contract the package uses, without the six methods
dataclasses compiles with exec for every class on every import.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)  # the class's own annotations (Python >= 3.10)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        cls, names = type(self), self._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, {len(args)} were given")
        state = {**cls._defaults, **dict(zip(names, args))}
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected argument {name!r}")
            if name in names[: len(args)]:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            state[name] = value
        if len(state) < len(names):
            missing = ", ".join(repr(name) for name in names if name not in state)
            raise TypeError(f"{cls.__name__}() missing required argument(s) {missing}")
        self.__dict__.update(state)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign to {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def _astuple(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        items = ", ".join(f"{name}={value!r}" for name, value in asdict(self).items())
        return f"{type(self).__qualname__}({items})"


def fields(record: Record | type[Record]) -> tuple[str, ...]:
    """The field names of a record or record class, in declaration order."""
    return record._fields


def asdict(record: Record) -> dict:
    """Field name -> value, in declaration order."""
    return dict(zip(record._fields, record._astuple()))


def replace(record: Record, **changes) -> Record:
    """A copy of the record with the given fields changed, validated again."""
    return type(record)(**{**asdict(record), **changes})
