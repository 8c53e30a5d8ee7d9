"""`solve_lp` and `farkas_feasible` against an independent solver,
`scipy.optimize.linprog` (HiGHS), on random small programs.

Status and optimal value must agree, and every certificate the kernel
returns must pass its own algebra.  The inputs include rows 1e-7 rad from
another row, the near-parallel configuration that once made phase 1
report an unbounded subproblem.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polygal import LinearProgram, farkas_feasible, solve_lp

linprog = pytest.importorskip("scipy.optimize").linprog

HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def unit_rows(rows):
    A = np.array(rows, dtype=float)
    return A / np.linalg.norm(A, axis=1)[:, None]


def turned(row, angle=1e-7):
    """`row` turned by `angle` rad in its first two coordinates."""
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    out = row.copy()
    out[:2] = rot @ row[:2]
    return out


@st.composite
def linear_programs(draw):
    """(c, A, b) with 1 to 8 unit rows in d = 2 or 3, plus up to two rows
    each turned 1e-7 rad away from a drawn row with the same offset.

    Entries other than the turned rows lie on a grid of step 1/4, so an
    answer never hinges on a cost or an offset at the scale of either
    solver's tolerances; only the turned rows probe that scale."""
    d = draw(st.integers(2, 3))
    m = draw(st.integers(1, 8))
    grid = st.integers(-4, 4).map(lambda k: k / 4.0)
    vector = st.lists(grid, min_size=d, max_size=d)
    A = unit_rows(draw(st.lists(vector.filter(any), min_size=m, max_size=m)))
    b = np.array(draw(st.lists(grid, min_size=m, max_size=m)))
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2, unique=True)):
        A = np.vstack([A, turned(A[i])])
        b = np.append(b, b[i])
    c = np.array(draw(vector))
    return c, A, b


# A bounded fan, rows 1e-7 rad apart, on which phase 1 once reported an
# unbounded subproblem.
BOUNDED_FAN = (np.array([1.0, 0.0]),
               np.column_stack([np.cos([3.0, 1e-7, 1.0, 2.0, 1.0 + np.pi]),
                                np.sin([3.0, 1e-7, 1.0, 2.0, 1.0 + np.pi])]),
               np.zeros(5))

# An infeasible program whose phase 2 ends on a singular basis (rows 1, 2
# and 3 are dependent; row 5 is row 2 turned), on which the kernel once
# raised instead of certifying the infeasibility.
_ROWS = unit_rows([(0, 0, -1), (-3, 2, 3), (3, -3, -3), (1, 0, -1),
                   (0, 0, -1)])
SINGULAR_BASIS = (np.array([0.0, -0.25, 0.0]),
                  np.vstack([_ROWS, turned(_ROWS[2])]),
                  np.array([0.0, 0.0, 0.0, -0.25, 0.0, 0.0]))


def highs(c, A, b):
    """(status, value) from HiGHS, or (None, None) when HiGHS gives no
    answer or its status changes when every offset moves by 1e-6 either
    way: such an answer hinges on the solvers' tolerances.  Presolve is off
    because it reports some unbounded programs as infeasible."""
    answers = set()
    for shift in (0.0, -1e-6, 1e-6):
        res = linprog(-c, A_ub=A, b_ub=b + shift,
                      bounds=[(None, None)] * len(c), method="highs",
                      options={"presolve": False})
        answers.add(HIGHS_STATUS.get(res.status))
        if shift == 0.0:
            value = -res.fun if res.status == 0 else None
    if len(answers) != 1 or None in answers:
        return None, None
    return answers.pop(), value


def assert_farkas_certificate(A, b, p):
    scale = 1.0 + np.abs(A).max() * np.abs(p).max()
    assert (p >= -1e-12).all()
    assert np.abs(A.T @ p).max() <= 1e-8 * scale
    assert b @ p < 0


@settings(max_examples=300, deadline=None)
@given(linear_programs())
@example(BOUNDED_FAN)
@example(SINGULAR_BASIS)
def test_solve_lp_agrees_with_highs(program):
    c, A, b = program
    out = solve_lp(LinearProgram(c, A, b))
    status, value = highs(c, A, b)
    if status is not None:
        assert out.status == status
    if out.status == "optimal":
        if status is not None:
            assert out.value == pytest.approx(value, rel=1e-6, abs=1e-6)
        x, p = out.primal_point, out.dual_certificate
        assert (A @ x <= b + 1e-7 * (1.0 + np.abs(b))).all()
        assert (p >= -1e-12).all()
        assert np.abs(A.T @ p - c).max() <= 1e-8 * (1.0 + np.abs(p).max())
        assert abs(b @ p - out.value) <= 1e-7 * (1.0 + np.abs(p).max())
    elif out.status == "infeasible":
        assert_farkas_certificate(A, b, out.dual_certificate)


@settings(max_examples=300, deadline=None)
@given(linear_programs())
def test_farkas_feasible_agrees_with_highs(program):
    _, A, b = program
    feasible, p = farkas_feasible(A, b)
    status, _ = highs(np.zeros(A.shape[1]), A, b)
    if status is not None:
        assert feasible == (status == "optimal")
    if not feasible:
        assert_farkas_certificate(A, b, p)
