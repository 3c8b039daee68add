"""The package's public surface, pinned: a name added to, removed from or
re-signed in ``trapcorr.__all__`` shows up as a diff of the recorded file.

Each name is recorded by its parameters' names and kinds alone.  Annotations
and default values are left out, because their reprs change between Python
versions while the API stays the same."""

import inspect
import pickle
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


def _subclasses(cls) -> set:
    return {cls}.union(*map(_subclasses, cls.__subclasses__()))


def test_every_package_error_survives_pickling():
    # a run that fails in a process pool's worker reaches the caller as its own error,
    # with its type, message, args and fields, the phase and a suggested shift included
    shifted = trapcorr.SingularDenominatorError(2.0, 1.0, 0.0)
    shifted.suggested_shift = 1.0
    errors = [
        trapcorr.TrapcorrError("failed"), trapcorr.ConfigError("bad interval"),
        trapcorr.IoError("cannot read"), trapcorr.ExpressionError("bad text", 3),
        trapcorr.SyntaxError_("expected ')'", 4), trapcorr.UnknownIdentifierError("foo", 0),
        trapcorr.DomainError("division by zero", 2.5), trapcorr.DomainError("at nowhere"),
        trapcorr.DomainError("overflow: math range error", 6.31, 6.57),
        trapcorr.ToleranceError("budget spent", 0.25, 1e-9), shifted,
        trapcorr.NoRootError("no sign change", 1e-3, 2.5),
    ]
    assert {type(error) for error in errors} == _subclasses(trapcorr.TrapcorrError)
    for error in errors:
        error.phase = "ode"
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error), error
        assert (str(copy), copy.args, vars(copy)) == (str(error), error.args, vars(error))
