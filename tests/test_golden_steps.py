"""Bit-identity gate on the sweep's emitted step: one Fehlberg-7 step of the
xi-ODE per integrand of ``tests/data/golden_jets.jsonl`` must reproduce the
outcome recorded in ``tests/data/golden_steps.jsonl``.  Each integrand is
shifted by the cubic 2 (x-a)^3/6, so that a polynomial of degree below 3
steps too; the step runs from (X, Y) by H over [A, A + 4].  An outcome is
the new y's and the recorded g''(Y)'s hex, or the exception's type and text.

As with the golden CSV digests, another libm may round differently in the
last bit.  Print the current outcomes with ``python tests/test_golden_steps.py``.
"""

import json
from pathlib import Path

import pytest

from trapcorr import ProblemSpec, TrapcorrError, xi_ode

DATA = Path(__file__).parent / "data"
GOLDEN_STEPS = DATA / "golden_steps.jsonl"
TEXTS = tuple(dict.fromkeys(json.loads(line)[0] for line in
                            (DATA / "golden_jets.jsonl").read_text().splitlines()))

A, X, Y, H, SHIFT = 1.25, 2.0, 1.5, 0.125, 2.0


def outcome(text: str) -> list:
    """[new y hex, g''(Y) hex], or [exception type, text]."""
    try:
        spec = ProblemSpec.from_text(text, A, A + 4.0, x0=X, h=H, shift=SHIFT)
        step, records = xi_ode.bind_step(spec)
        y = step(X, Y, H)
        (d2,) = records  # the step's one record
        return [y.hex(), d2.hex()]
    except TrapcorrError as exc:  # the recorded outcome
        return [type(exc).__name__, str(exc)]


def test_golden_steps_cover_every_golden_jet_shape():
    recorded = [json.loads(line)[0] for line in GOLDEN_STEPS.read_text().splitlines()]
    assert recorded == list(TEXTS) and len(TEXTS) == 69


@pytest.mark.parametrize("text,expected", [
    pytest.param(text, expected, id=text) for text, *expected in
    map(json.loads, GOLDEN_STEPS.read_text().splitlines())])
def test_step_matches_the_recorded_outcome(text, expected):
    assert outcome(text) == expected


if __name__ == "__main__":
    print("\n".join(json.dumps([text, *outcome(text)]) for text in TEXTS))
