"""Value records: the part of the standard `@dataclass` the engine uses.

`@record` and `@record(frozen=True)` turn an annotated class into a
value type that behaves as the `@dataclass` it replaces: positional
and keyword construction with defaults and fresh `default_factory`
values, `__eq__` between objects of one class over the compared
fields, `hash` of that tuple on a frozen record (a mutable record is
unhashable), the same `repr`, and `AttributeError` on assignment to a
frozen record.  Every record shares one `__init__`, `__eq__`,
`__repr__` and `__hash__` that read the class's field list, so
defining a record creates no function.  `@dataclass` generates source
text for each method of each class and runs it, and its module
imports `inspect` and `ast`; together they were the largest part of a
CLI command's start-up.
"""

MISSING = object()        # the default of a field that has none


class Field:
    __slots__ = ("name", "default", "default_factory", "compare")

    def __init__(self, default, default_factory, compare):
        self.name = None
        self.default = default
        self.default_factory = default_factory
        self.compare = compare


def field(*, default=MISSING, default_factory=MISSING, compare=True):
    return Field(default, default_factory, compare)


def _init(self, *args, **kwargs):
    fields = type(self).__record_fields__
    if len(args) > len(fields):
        raise TypeError(f"{type(self).__qualname__}.__init__() takes "
                        f"{len(fields) + 1} positional arguments but "
                        f"{len(args) + 1} were given")
    d = self.__dict__
    for i, f in enumerate(fields):
        if i < len(args):
            if f.name in kwargs:
                raise TypeError(f"{type(self).__qualname__}.__init__() got "
                                f"multiple values for argument {f.name!r}")
            d[f.name] = args[i]
        elif f.name in kwargs:
            d[f.name] = kwargs.pop(f.name)
        elif f.default is not MISSING:
            d[f.name] = f.default
        elif f.default_factory is not MISSING:
            d[f.name] = f.default_factory()
        else:
            raise TypeError(f"{type(self).__qualname__}.__init__() missing "
                            f"required argument: {f.name!r}")
    if kwargs:
        raise TypeError(f"{type(self).__qualname__}.__init__() got an "
                        f"unexpected keyword argument {next(iter(kwargs))!r}")


def _eq(self, other):
    # what the tuples of compared fields give: item by item, `is` or `==`
    if other is self:
        return True
    if other.__class__ is not self.__class__:
        return NotImplemented
    a, b = self.__dict__, other.__dict__
    for name in self.__record_keys__:
        x, y = a[name], b[name]
        if x is not y and not x == y:
            return False
    return True


def _hash(self):
    return hash(tuple(map(self.__dict__.__getitem__, self.__record_keys__)))


def _repr(self):
    return type(self).__qualname__ + "(" + ", ".join(
        f"{f.name}={self.__dict__[f.name]!r}"
        for f in self.__record_fields__) + ")"


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls=None, /, *, frozen=False):
    """Class decorator: make `cls` a record over its annotated fields,
    after the fields of any record base class."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    own = {}
    for name in cls.__dict__.get("__annotations__", {}):
        f = cls.__dict__.get(name, MISSING)
        if not isinstance(f, Field):
            f = Field(f, MISSING, True)
        f.name = name
        if f.default is MISSING:
            if name in cls.__dict__:
                delattr(cls, name)
        else:
            setattr(cls, name, f.default)
        own[name] = f
    inherited = {f.name: f for base in cls.__mro__[-1:0:-1]
                 for f in base.__dict__.get("__record_fields__", ())}
    fields = tuple({**inherited, **own}.values())
    defaulted = [f.default is not MISSING or
                 f.default_factory is not MISSING for f in fields]
    if defaulted != sorted(defaulted):
        raise TypeError(f"{cls.__qualname__}: a field without a default "
                        "follows one with a default")
    cls.__record_fields__ = fields
    cls.__record_keys__ = tuple(f.name for f in fields if f.compare)
    methods = {"__init__": _init, "__eq__": _eq, "__repr__": _repr}
    if frozen:
        methods.update(__setattr__=_frozen_setattr,
                       __delattr__=_frozen_delattr)
    for name, fn in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, fn)
    if cls.__dict__.get("__hash__") is None:
        cls.__hash__ = _hash if frozen else None
    return cls


def fields(obj) -> tuple:
    """The fields of a record class or instance, in definition order."""
    return obj.__record_fields__


def replace(obj, **changes):
    """A new record of obj's class with the given fields changed."""
    for f in obj.__record_fields__:
        if f.name not in changes:
            changes[f.name] = obj.__dict__[f.name]
    return obj.__class__(**changes)
