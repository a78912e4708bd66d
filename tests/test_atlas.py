"""The atlas of derivative entries: which values each table type can produce.

The paper compares what the three formalisms can say about a link with one
parent and with two.  ``ATLAS`` lists, for each table type, the values its
derivative entries can take.  A property over tables drawn on a grid of
eighths, where ties between values, states and gaps are exact, checks that
no table produces any other value, and one witness per value shows that
each set is tight.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcnet.links import (
    BEL,
    IGNORANT,
    BelCond1,
    BelCond2Joint,
    BelCond2Separate,
    PossCond1,
    PossCond2,
    ProbCond1,
    ProbCond2,
)
from qcnet.signs import DOWN, NEG, POS, UNKNOWN, UP, ZERO

ATLAS = {
    ProbCond1: {POS, NEG, ZERO},
    BelCond1: {POS, NEG, ZERO},
    ProbCond2: {POS, NEG, ZERO, UNKNOWN},
    BelCond2Joint: {POS, NEG, ZERO, UNKNOWN},
    # sup-min is monotone: no possibility entry is - or ?
    PossCond1: {POS, ZERO, UP, DOWN},
    PossCond2: {POS, ZERO, UP, DOWN},
    BelCond2Separate: {POS, UNKNOWN},
}

EIGHTHS = tuple(i / 8 for i in range(9))  # binary fractions: sums and differences are exact


def entries(table, states) -> set:
    return {entry for row in table.derivative(*states).rows for entry in row}


def joint(**cells) -> BelCond2Joint:
    """A joint belief table whose named cells hold the given values and the
    rest 0; ``d_b_nc`` is bel(d | b, ~c) and ``d_frame_c`` bel(d | b or ~b, c)."""
    words = {"b": True, "c": True, "nb": False, "nc": False, "frame": None}
    named = {}
    for name, value in cells.items():
        child, first, second = name.split("_")
        named[(child == "d", words[first], words[second])] = value
    return BelCond2Joint.from_cells(named.get(key, 0.0) for key in BelCond2Joint.cell_keys)


# (table, parent states, a value the table's derivative contains), one per
# value of each type's set
WITNESSES = [
    (ProbCond1(0.75, 0.25), (), POS),
    (ProbCond1(0.25, 0.75), (), NEG),
    (ProbCond1(0.5, 0.5), (), ZERO),
    (BelCond1(bel_c_given_a=0.5), (), POS),
    (BelCond1(bel_c_given_frame=0.5), (), NEG),
    (BelCond1(), (), ZERO),
    (ProbCond2(1, 1, 0, 0), (), POS),
    (ProbCond2(0, 0, 1, 1), (), NEG),
    (ProbCond2(0.5, 0.5, 0.5, 0.5), (), ZERO),
    (ProbCond2(0, 0, 1, 0), (), UNKNOWN),
    (joint(d_b_c=0.5), (), POS),
    (joint(d_frame_c=0.5), (), NEG),
    (joint(), (), ZERO),
    (joint(d_b_c=0.5, d_frame_nc=0.5), (), UNKNOWN),
    (PossCond1(1, 0, 0, 1), ((0.5, 1.0),), POS),
    (PossCond1(1, 1, 1, 1), (IGNORANT,), ZERO),
    (PossCond1(1, 1, 1, 1), ((0.5, 1.0),), UP),
    (PossCond1(1, 0, 0, 1), (IGNORANT,), DOWN),
    (PossCond2(0, 0, 0, 1, 1, 1, 1, 1), ((1.0, 0.5), (1.0, 0.75)), POS),
    (PossCond2(1, 1, 1, 1, 1, 1, 1, 1), (IGNORANT, IGNORANT), ZERO),
    (PossCond2(1, 1, 1, 1, 1, 1, 1, 1), ((0.5, 1.0), IGNORANT), UP),
    (PossCond2(1, 0, 0, 0, 1, 1, 1, 1), (IGNORANT, IGNORANT), DOWN),
    (BelCond2Separate(BelCond1(), BelCond1()), (), POS),
    (BelCond2Separate(BelCond1(bel_c_given_frame=0.5), BelCond1()), (), UNKNOWN),
]


@st.composite
def bel_cells(draw, n):
    """``n`` belief values of the child outcome, then ``n`` of its
    complement, each column summing to at most 1."""
    pos = draw(st.lists(st.sampled_from(EIGHTHS), min_size=n, max_size=n))
    return pos + [draw(st.sampled_from([v for v in EIGHTHS if v <= 1.0 - p])) for p in pos]


@st.composite
def tables_and_states(draw):
    """A table of any type on the grid, and for a possibility table its
    parents' states: (1, 1), or (1, u) or (u, 1) with u on the grid."""
    cls = draw(st.sampled_from(sorted(ATLAS, key=lambda c: c.__name__)))
    if cls is BelCond2Separate:
        return cls(BelCond1(*draw(bel_cells(3))), BelCond1(*draw(bel_cells(3)))), ()
    if cls.formalism is BEL:
        return cls.from_cells(draw(bel_cells(len(cls.cell_keys) // 2))), ()
    n = len(cls.cell_keys)
    table = cls.from_cells(draw(st.lists(st.sampled_from(EIGHTHS), min_size=n, max_size=n)))
    states = []
    for _ in range(cls.arity if cls.state_dependent else 0):
        u = draw(st.sampled_from(EIGHTHS))
        states.append(draw(st.sampled_from((IGNORANT, (1.0, u), (u, 1.0)))))
    return table, tuple(states)


@settings(max_examples=1500, deadline=None)
@given(tables_and_states())
def test_every_entry_lies_in_its_types_set(table_states):
    table, states = table_states
    assert entries(table, states) <= ATLAS[type(table)]


def test_every_value_of_the_atlas_has_one_witness():
    listed = [(type(table), value) for table, _, value in WITNESSES]
    assert sorted(listed, key=str) == sorted({(cls, v) for cls, values in ATLAS.items() for v in values}, key=str)


@pytest.mark.parametrize(
    "table, states, value", WITNESSES, ids=[f"{type(t).__name__}-{v}" for t, _, v in WITNESSES]
)
def test_witness_produces_its_value(table, states, value):
    assert value in entries(table, states)
