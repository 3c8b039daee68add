"""The package's public surface, pinned: a name added to, removed from or
re-signed in ``trapcorr.__all__`` shows up as a diff of the recorded file.

Each name is recorded by its parameters' names and kinds alone.  Annotations
and default values are left out, because their reprs change between Python
versions while the API stays the same."""

import inspect
import types
import typing
from pathlib import Path

import trapcorr

DATA = Path(__file__).parent / "data"


class _Default:
    """Stands in for a default value: the line shows that there is one, not its repr."""

    def __repr__(self):
        return "..."


def _parameters(obj) -> str:
    signature = inspect.signature(obj)
    return str(signature.replace(return_annotation=signature.empty, parameters=[
        p.replace(annotation=p.empty, default=p.empty if p.default is p.empty else _Default())
        for p in signature.parameters.values()]))


def _describe(name: str, obj) -> str:
    if typing.get_origin(obj) is typing.Union:
        return f"{name} = {' | '.join(member.__name__ for member in typing.get_args(obj))}"
    if isinstance(obj, type):
        head = f"class {name}({', '.join(base.__name__ for base in obj.__bases__)})"
        if hasattr(obj, "_fields"):  # a record: its fields
            return f"{head}: {', '.join(obj._fields)}"
        if isinstance(obj.__init__, types.FunctionType):  # an __init__ of the package's own
            return f"{head}: {_parameters(obj)}"
        return head
    if callable(obj):
        return f"{name}{_parameters(obj)}"
    return f"{name}: {type(obj).__name__}"


def test_public_api_matches_the_recorded_signatures():
    lines = [_describe(name, getattr(trapcorr, name)) for name in trapcorr.__all__]
    assert lines == (DATA / "public_api.txt").read_text().splitlines()
