"""Immutable value objects, without the start-up cost of dataclasses."""


class Value:
    """Fields: the annotated names, in order, defaulting to class attributes.  Equality,
    hash, repr and pickling go by the fields; no attribute can be set or deleted."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        # a field given by position and keyword is a repeated keyword: TypeError
        values = dict(self._defaults, **dict(zip(self._fields, args)), **kwargs)
        if len(args) > len(self._fields) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {self._fields}")
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # pickle the fields alone; unpickling derives the rest anew
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
