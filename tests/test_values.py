"""Value semantics of the records, specs, tableaux and expression trees."""

import pickle
from pathlib import Path

import pytest

from trapcorr import FEHLBERG7, CurveRow, ProblemSpec, ReferenceResult, RKTableau, parse
from trapcorr.expr import BinOp, Call, Const, Neg, Num, Var

DATA = Path(__file__).parent / "data"


def test_reprs_match_the_recorded_dataclass_format():
    objects = (
        parse("x^2*(sin(x)*ln(2+x)-100*x)"),
        parse("-pi*e/cos(x)+2^x-sqrt(x)"),
        ProblemSpec.from_text("sin(x)", 1.0, 10.0, shift=2.0),
        FEHLBERG7,
        CurveRow(x=1.0, xi=None, trapezium=0.0, error_term=0.0, corrected=0.0),
        ReferenceResult(value=0.5, est_error=1e-15, panels=129),
    )
    recorded = (DATA / "value_reprs.txt").read_text().splitlines()
    assert [repr(obj) for obj in objects] == recorded


def test_value_objects_compare_hash_and_refuse_changes():
    spec = ProblemSpec.from_text("sin(x)", 1.0, 10.0, shift=2.0)
    twin = ProblemSpec(f_text="sin(x)", f_ast=Call("sin", Var()), a=1.0, b=10.0,
                       x0=5.5, h=0.01, shift=2.0)
    assert twin == spec and hash(twin) == hash(spec)
    assert twin.g == spec.g and twin.g_at_a == spec.g_at_a
    assert spec != ProblemSpec.from_text("sin(x)", 1.0, 10.0)
    assert pickle.loads(pickle.dumps(spec)) == spec

    tableau = RKTableau(name=FEHLBERG7.name, order=7, c=FEHLBERG7.c, b=FEHLBERG7.b,
                        a=FEHLBERG7.a)
    assert tableau == FEHLBERG7 and hash(tableau) == hash(FEHLBERG7)

    tree = parse("x^2*(sin(x)*ln(2+x)-100*x)")
    assert tree == parse("x^2*(sin(x)*ln(2+x)-100*x)")
    assert hash(tree) == hash(parse("x^2*(sin(x)*ln(2+x)-100*x)"))
    assert BinOp(op="+", left=Num(value=1.0), right=Var()) == BinOp("+", Num(1.0), Var())
    assert Var() == Var() and Const(name="pi") == Const("pi")
    # fields alike, classes not: Neg(x) and Call's arg carry the same value
    assert Neg(Var()) != Call("sin", Var()) and Num(1.0) != Const("e")
    assert Neg(Var()).__eq__(Var()) is NotImplemented
    assert len({Var(), Var(), Num(2.0), Num(2.0)}) == 2

    for obj, name in ((spec, "a"), (spec, "g"), (FEHLBERG7, "order"), (tree, "op"),
                      (Var(), "anything")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert spec.a == 1.0 and FEHLBERG7.order == 7 and tree.op == "*"

    with pytest.raises(TypeError):
        Num()
    with pytest.raises(TypeError):
        Num(1.0, value=2.0)
    with pytest.raises(TypeError):
        Call("sin", Var(), 3)
    with pytest.raises(TypeError):
        Num(size=1.0)


def test_records_are_named_tuples():
    row = CurveRow(1.0, None, 0.0, 0.0, 0.0)
    assert row == CurveRow(x=1.0, xi=None, trapezium=0.0, error_term=0.0, corrected=0.0,
                           reference=None, residual=None)
    assert tuple(row) == (1.0, None, 0.0, 0.0, 0.0, None, None)
    assert list(ReferenceResult(0.5, 1e-15, 129)) == [0.5, 1e-15, 129]
    with pytest.raises(AttributeError):
        row.x = 2.0
