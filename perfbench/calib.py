"""Machine-speed calibration.

On a shared host the speed of the same Python code drifts by up to 1.7x
over periods of 10 to 40 seconds (measured with a fixed loop on a 2-vCPU
VM), which no run of a few tens of seconds can average out.  So every
timed op is bracketed by a short fixed loop, and the op's time is scaled
by REF_S / (loop time): times are reported at the speed at which the
loop takes REF_S.  Raw times are printed next to them.

The loop does the kind of work trapcorr does, because a slow phase does
not slow every kind of code alike: it walks a small expression tree
recursively, dispatching on node type with ``isinstance`` and building a
small object with four float fields at every node.
"""

from __future__ import annotations

import math
import time

#: seconds the loop takes at reference speed (its typical time on the
#: recording machine)
REF_S = 0.0035

#: seconds a bare ``python -c pass`` takes at reference speed; CLI ops,
#: which are mostly interpreter start-up, are scaled by this instead
REF_START_S = 0.055


class _Quad:
    __slots__ = ("d0", "d1", "d2", "d3")

    def __init__(self, d0, d1, d2, d3):
        self.d0, self.d1, self.d2, self.d3 = d0, d1, d2, d3


class _Leaf:
    pass


class _Pair:
    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right


class _Wave:
    def __init__(self, arg):
        self.arg = arg


def _walk(node, x):
    if isinstance(node, _Leaf):
        return _Quad(x, 1.0, 0.0, 0.0)
    if isinstance(node, _Wave):
        u = _walk(node.arg, x)
        s, c = math.sin(u.d0), math.cos(u.d0)
        return _Quad(s, c * u.d1, c * u.d2 - s * u.d1 * u.d1, -c * u.d1 ** 3 + c * u.d3)
    u, v = _walk(node.left, x), _walk(node.right, x)
    if node.op == "+":
        return _Quad(u.d0 + v.d0, u.d1 + v.d1, u.d2 + v.d2, u.d3 + v.d3)
    return _Quad(u.d0 * v.d0, u.d1 * v.d0 + u.d0 * v.d1,
                 u.d2 * v.d0 + 2.0 * u.d1 * v.d1 + u.d0 * v.d2,
                 u.d3 * v.d0 + 3.0 * (u.d2 * v.d1 + u.d1 * v.d2) + u.d0 * v.d3)


# x*x*sin(x) + sin(x*x) + x
_TREE = _Pair("+", _Pair("+", _Pair("*", _Pair("*", _Leaf(), _Leaf()), _Wave(_Leaf())),
                         _Wave(_Pair("*", _Leaf(), _Leaf()))), _Leaf())

_POINTS = 300


def loop_seconds() -> float:
    """Wall time of one pass of the calibration loop."""
    t0 = time.perf_counter()
    for i in range(_POINTS):
        _walk(_TREE, 1.0 + i * 1e-3)
    return time.perf_counter() - t0
