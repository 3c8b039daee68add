"""Byte-identity gate on the CSV the program writes: ``run`` + ``emit_csv``
(or ``emit_xi_csv``) on fixed problems must reproduce the SHA-256 digests
in ``tests/data/golden_csv.json``.  A change to the sweep, the curve or
the formatting that moves any byte of any row fails here.

The digests were recorded with this platform's math library (glibc);
another libm may round sin, exp or pow differently in the last bit.
Print the current digests with ``python tests/test_golden_csv.py``.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from trapcorr import ProblemSpec, emit_csv, emit_xi_csv, load_tableau, run

DATA = Path(__file__).parent / "data"
GOLDEN_CSV = DATA / "golden_csv.json"

_SIN = dict(f_text="sin(x)", a=1.0, b=10.0, x0=5.0, h=0.01)
_EXOTIC = dict(f_text="x^2*(sin(x)*ln(2+x)-100*x)", a=1.0, b=10.0, x0=5.0, h=0.01,
               ref_tol=1e-9, root_tol=1e-8)

#: name -> (spec keywords, run keywords, writer)
CASES = {
    "sin": (_SIN, {}, emit_csv),
    "sin-residual": (_SIN, {"residual": True}, emit_csv),
    # the one row shape with a single absent field: reference but no residual
    "sin-reference": (_SIN, {"reference": True}, emit_csv),
    # classic RK4 read from a file, its zeros spelled 0, 0.0 and -0
    "sin-rk4-file": (dict(_SIN, tableau=load_tableau(str(DATA / "rk4.tab"), name="rk4")),
                     {}, emit_csv),
    "sin-shift2": (dict(_SIN, shift=2.0), {}, emit_csv),
    "sin-shift-2": (dict(_SIN, shift=-2.0), {}, emit_csv),
    "sin-xi-curve": (_SIN, {}, emit_xi_csv),
    "exotic-residual": (_EXOTIC, {"residual": True}, emit_csv),
    "x2-shift1": (dict(f_text="x^2", a=0.0, b=4.0, x0=2.0, h=0.01, shift=1.0), {}, emit_csv),
    "sin-far-shift2": (dict(f_text="sin(x)", a=1000.0, b=1009.0, x0=1004.5, h=0.01,
                            shift=2.0, root_tol=1e-11), {}, emit_csv),
}


def digest(name: str) -> str:
    spec_kwargs, run_kwargs, writer = CASES[name]
    out = io.StringIO()
    writer(run(ProblemSpec.from_text(**spec_kwargs), **run_kwargs), out)
    return hashlib.sha256(out.getvalue().encode("ascii")).hexdigest()


def test_golden_digests_cover_every_case():
    assert sorted(json.loads(GOLDEN_CSV.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_match_the_recorded_digest(name):
    assert digest(name) == json.loads(GOLDEN_CSV.read_text())[name]


if __name__ == "__main__":
    print(json.dumps({name: digest(name) for name in sorted(CASES)}, indent=1))
