"""Link tables: one protocol for all three formalisms.

Each link carries a numeric conditional table in one of the three
formalisms.  A table class states once everything the rest of the
package needs to know about its kind of link:

* ``formalism`` and ``arity``: the child's formalism and the number of
  parents.
* ``derivative(*parent_states)``: the matrix of qualitative derivatives
  that propagation multiplies changes through, rows (x, ~x) of the child
  by two columns (y, ~y) per parent.  Only a ``state_dependent`` table
  reads its parents' current :class:`PossState`; the others take none.
* ``cases(matrix)``: the label of each matrix entry, as ``explain``
  prints it.
* ``evaluate(parent_values)``: the child's exact (x, ~x) from its
  parents' exact values, for the numeric oracle.  A table without a
  trusted formula says why in ``no_formula`` instead.
* ``margin(*parent_states)``: how close the table sits to a decision
  boundary (a ``state_dependent`` table: at its parents' states).
* ``warnings()``: validation warnings about the numbers.

:class:`ConditionalTable` gives the defaults, and states once the cell
layout of every table that stores numbers.  Such a table defines
``get(child_pos, *parent_cells)``.  From ``formalism`` and ``arity`` the
base class works out, per class, its ``cell_keys``: the child outcomes
(only the positive one for probability, whose complement is implied) by
each parent's conditioning cells (outcome and complement, and for belief
the whole frame too).  The constructor takes the values in that order
(``from_cells``).  On that layout the base class range-checks every value
and, for belief, each cell's sum over the child outcomes; labels sign and
marker entries in its default ``cases``; and warns about possibility
columns that do not reach 1.  A subclass states its fields, ``get``,
``derivative``, ``evaluate``, ``margin``, and its own
``cases`` where an entry needs more than its sign.

The derivatives:

* probability: the child follows the parent outcome exactly when the
  conditional given that outcome exceeds the conditional given its
  complement; with two parents a synergy term combines with a per-outcome
  offset.
* possibility: the sup-min combination makes responsiveness depend on the
  current state, so entries may be the directional markers (an increase
  may get through, or a decrease may, but not both).
* belief: the child follows a parent outcome when conditioning on it
  yields more belief than conditioning on the whole frame.

All methods are pure; tables validate their numeric ranges on
construction.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from itertools import product
from typing import ClassVar

from .signs import DOWN, NEG, POS, QMatrix, QSign, UNKNOWN, UP, ZERO, qadd, sign_of


class Formalism(enum.Enum):
    PROBABILITY = "prob"
    POSSIBILITY = "poss"
    BELIEF = "bel"

    def __str__(self) -> str:
        return self.value


PROB = Formalism.PROBABILITY
POSS = Formalism.POSSIBILITY
BEL = Formalism.BELIEF

# Belief conditioning cells: True / False for an outcome, None for the
# whole frame (x or not-x).
Cell = bool | None
CELLS = (True, False, None)

Pair = tuple[float, float]


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


_SYMBOL = {PROB: "p", POSS: "pi", BEL: "bel"}


def _outcome(var: str, cell: Cell) -> str:
    if cell is None:
        return f"{var} or ~{var}"
    return var if cell else f"~{var}"


_CASES = {
    POS: "follows", NEG: "varies-inversely", ZERO: "independent",
    UP: "may-follow-up", DOWN: "may-follow-down",
}


def _label_cells(matrix: QMatrix, label) -> tuple[tuple[str, ...], ...]:
    """``label(child_pos, column, entry)`` for every entry, in the matrix's shape."""
    return tuple(
        tuple(label(i == 0, j, entry) for j, entry in enumerate(row)) for i, row in enumerate(matrix.rows)
    )


class ConditionalTable:
    """The table protocol, its defaults and the cell layout (see the module
    docstring)."""

    formalism: ClassVar[Formalism]
    arity: ClassVar[int]
    state_dependent: ClassVar[bool] = False  # derivative and margin read parent states
    no_formula: ClassVar[str | None] = None  # why there is no ``evaluate``, if there is none

    # The cell layout, set for each subclass that defines ``get``.
    child_outcomes: ClassVar[tuple[bool, ...]] = ()
    parent_cells: ClassVar[tuple[Cell, ...]] = ()
    cell_keys: ClassVar[tuple[tuple[Cell, ...], ...]] = ()  # (child_pos, *parent_cells), in order
    _labels: ClassVar[tuple[str, ...]] = ()  # each key written out, e.g. 'p(c|a)'
    _values: ClassVar = None  # table -> its values in cell_keys order
    _columns: ClassVar[tuple[tuple[tuple[Cell, ...], str], ...]] = ()  # parent cells, written out: 'b,~c'
    _sum_error: ClassVar[str] = ""  # belief: a column's two values sum above 1

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if not hasattr(cls, "get"):
            return
        parents, child = (("a",), "c") if cls.arity == 1 else (("b", "c"), "d")
        cls.child_outcomes = (True,) if cls.formalism is PROB else (True, False)
        cls.parent_cells = CELLS if cls.formalism is BEL else (True, False)
        columns = list(product(cls.parent_cells, repeat=cls.arity))
        cls.cell_keys = tuple((pos, *cells) for pos in cls.child_outcomes for cells in columns)
        cls._columns = tuple((cells, ",".join(map(_outcome, parents, cells))) for cells in columns)
        cls._labels = tuple(
            f"{_SYMBOL[cls.formalism]}({_outcome(child, pos)}|{given})"
            for pos in cls.child_outcomes
            for _, given in cls._columns
        )
        given = "." if cls.arity == 1 else "X,Y"
        cls._sum_error = f"bel({child}|{given}) + bel(~{child}|{given}) must not exceed 1"
        # the fields hold the values in layout order; the joint table's one
        # field is already their tuple
        cls._values = operator.attrgetter(*cls.__annotations__)

    @classmethod
    def from_cells(cls, values) -> "ConditionalTable":
        """The table whose ``get`` over ``cell_keys`` returns ``values``."""
        return cls(*values)

    def __post_init__(self) -> None:
        """Range-check every value; belief also checks each column's sum."""
        if not self.cell_keys:
            return
        values = self._values(self)
        for label, v in zip(self._labels, values):
            _check_unit(label, v)
        if self.formalism is BEL:
            half = len(values) // 2  # the child outcome's row, then its complement's
            for pos, neg in zip(values[:half], values[half:]):
                if pos + neg > 1.0 + 1e-12:
                    raise ValueError(self._sum_error)

    def cases(self, matrix: QMatrix) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(_CASES[entry] for entry in row) for row in matrix.rows)

    def margin(self) -> float:
        """Smallest gap between two numbers of the table whose order decides
        an entry; infinite when no entry is decided by the table alone."""
        return math.inf

    def warnings(self) -> tuple[str, ...]:
        """Possibility: conditioning columns whose values do not reach 1."""
        if self.formalism is not POSS or not self.cell_keys:
            return ()
        get = self.get
        return tuple([
            f"conditional possibilities given {given} do not reach 1"
            for cells, given in self._columns
            if get(True, *cells) < 1.0 and get(False, *cells) < 1.0
        ])


@dataclass(frozen=True)
class PossState:
    """Current possibilities (pi(x), pi(~x)) of one variable, max-normalized."""

    pi_x: float
    pi_nx: float

    def __post_init__(self) -> None:
        _check_unit("pi(x)", self.pi_x)
        _check_unit("pi(~x)", self.pi_nx)
        if max(self.pi_x, self.pi_nx) != 1.0:
            raise ValueError("possibility state must satisfy max(pi(x), pi(~x)) = 1")

    def get(self, pos: bool) -> float:
        return self.pi_x if pos else self.pi_nx


IGNORANT = PossState(1.0, 1.0)


# ---------------------------------------------------------------------------
# probability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbCond1(ConditionalTable):
    """p(c | a) and p(c | not a); complements are implied."""

    formalism = PROB
    arity = 1

    p_c_given_a: float
    p_c_given_na: float

    def get(self, child_pos: bool, parent_pos: bool) -> float:
        p = self.p_c_given_a if parent_pos else self.p_c_given_na
        return p if child_pos else 1.0 - p

    def derivative(self) -> QMatrix:
        """2x2 matrix over child outcomes (c, ~c) by parent outcomes (a, ~a).

        Entry (x, y) is the sign of p(x|y) - p(x|~y).  Complementing either
        the child or the parent outcome flips the difference exactly, so the
        matrix is built from the single sign of p(c|a) - p(c|~a).
        """
        s = sign_of(self.p_c_given_a - self.p_c_given_na)
        n = s.negated()
        return QMatrix(((s, n), (n, s)))

    def evaluate(self, parent_values: list[Pair]) -> Pair:
        """Total probability."""
        a, na = parent_values[0]
        p_c = a * self.p_c_given_a + na * self.p_c_given_na
        return p_c, 1.0 - p_c

    def margin(self) -> float:
        return abs(self.p_c_given_a - self.p_c_given_na)


def _pair_terms(get, child_pos: bool, x_first: bool, x_pos: bool) -> tuple[float, float]:
    """Synergy and offset terms for entry (z, x), co-parent fixed at its
    positive outcome."""

    def p(xv: bool, yv: bool) -> float:
        if x_first:
            return get(child_pos, xv, yv)
        return get(child_pos, yv, xv)

    synergy = p(x_pos, True) + p(not x_pos, False) - p(x_pos, False) - p(not x_pos, True)
    offset = p(x_pos, False) - p(not x_pos, False)
    return synergy, offset


@dataclass(frozen=True)
class ProbCond2(ConditionalTable):
    """p(d | b, c) over the four parent-outcome pairs."""

    formalism = PROB
    arity = 2

    p_d_given_bc: float
    p_d_given_b_nc: float
    p_d_given_nb_c: float
    p_d_given_nb_nc: float

    def get(self, child_pos: bool, first_pos: bool, second_pos: bool) -> float:
        if first_pos:
            p = self.p_d_given_bc if second_pos else self.p_d_given_b_nc
        else:
            p = self.p_d_given_nb_c if second_pos else self.p_d_given_nb_nc
        return p if child_pos else 1.0 - p

    def derivative(self) -> QMatrix:
        """2x4 matrix over (d, ~d) by (b, ~b, c, ~c).

        Each entry adds the sign of the synergy term (how much the two parents
        reinforce each other) to the sign of the remaining per-outcome
        difference.  Complementing the child flips both terms exactly, so the
        second row is the negation of the first."""
        row = []
        for x_first in (True, False):
            for x_pos in (True, False):
                synergy, offset = _pair_terms(self.get, True, x_first, x_pos)
                row.append(qadd(sign_of(synergy), sign_of(offset)))
        return QMatrix((tuple(row), tuple(e.negated() for e in row)))

    def cases(self, matrix: QMatrix) -> tuple[tuple[str, ...], ...]:
        def label(child_pos: bool, j: int, entry: QSign) -> str:
            synergy, offset = _pair_terms(self.get, True, j < 2, j % 2 == 0)
            s_syn, s_off = sign_of(synergy), sign_of(offset)
            if not child_pos:  # complementing the child flips both terms
                s_syn, s_off = s_syn.negated(), s_off.negated()
            return f"synergy={s_syn} offset={s_off}"

        return _label_cells(matrix, label)

    def evaluate(self, parent_values: list[Pair]) -> Pair:
        """Total probability.  Longer sums than two terms use ``sum``, in a
        fixed order: from Python 3.12 ``sum`` rounds differently from
        chained ``+``."""
        (b, nb), (c, nc) = parent_values
        p_d = sum((
            b * c * self.p_d_given_bc,
            b * nc * self.p_d_given_b_nc,
            nb * c * self.p_d_given_nb_c,
            nb * nc * self.p_d_given_nb_nc,
        ))
        return p_d, 1.0 - p_d

    def margin(self) -> float:
        m = float("inf")
        for child_pos in (True, False):
            for x_first in (True, False):
                for x_pos in (True, False):
                    synergy, offset = _pair_terms(self.get, child_pos, x_first, x_pos)
                    m = min(m, abs(synergy), abs(offset))
        return m


# ---------------------------------------------------------------------------
# possibility
# ---------------------------------------------------------------------------

def _poss_entry_1(dom_gap: float, head_gap: float) -> tuple[QSign, float]:
    """Entry (c, y) of a single-parent possibility matrix, and the smallest
    gap the entry was decided on (infinite for entries never fragile).

    ``dom_gap`` is min(pi(c|y), pi(y)) - min(pi(c|~y), pi(~y)): the
    y-branch of the sup-min determines the child value when it is positive.
    ``head_gap`` is pi(c|y) - pi(y): pi(y) itself (not the conditional) is
    the active minimum when it is positive, so the entry has headroom.
    Only + entries are fragile: marker and zero entries are safe at their
    boundaries because the inactive branch of the sup-min pins the child
    value.
    """
    if dom_gap > 0 and head_gap > 0:
        return POS, min(dom_gap, head_gap)
    if head_gap > 0:
        return UP, math.inf
    if dom_gap > 0:
        return DOWN, math.inf
    return ZERO, math.inf


@dataclass(frozen=True)
class PossCond1(ConditionalTable):
    """Conditional possibilities for a single-parent link."""

    formalism = POSS
    arity = 1
    state_dependent = True

    pi_c_given_a: float
    pi_c_given_na: float
    pi_nc_given_a: float
    pi_nc_given_na: float

    def get(self, child_pos: bool, parent_pos: bool) -> float:
        if child_pos:
            return self.pi_c_given_a if parent_pos else self.pi_c_given_na
        return self.pi_nc_given_a if parent_pos else self.pi_nc_given_na

    def _entries(self, parent_state: PossState):
        """(entry, gap) of every matrix entry, row by row; each row is
        decided from its two joints min(pi(c|y), pi(y)), computed once."""
        pi_a, pi_na = parent_state.pi_x, parent_state.pi_nx
        for cond_a, cond_na in ((self.pi_c_given_a, self.pi_c_given_na), (self.pi_nc_given_a, self.pi_nc_given_na)):
            joint_a, joint_na = min(cond_a, pi_a), min(cond_na, pi_na)
            yield _poss_entry_1(joint_a - joint_na, cond_a - pi_a)
            yield _poss_entry_1(joint_na - joint_a, cond_na - pi_na)

    def derivative(self, parent_state: PossState) -> QMatrix:
        """2x2 matrix of {+, 0, up, down} entries.

        An entry is + when the parent outcome currently determines the child
        value with room to move in both directions, the up marker when only a
        rise in the parent could start to matter, the down marker when only a
        fall could, and 0 otherwise.
        """
        entries = [entry for entry, _ in self._entries(parent_state)]
        return QMatrix((tuple(entries[:2]), tuple(entries[2:])))

    def evaluate(self, parent_values: list[Pair]) -> Pair:
        """Sup-min."""
        a, na = parent_values[0]
        return (
            max(min(self.pi_c_given_a, a), min(self.pi_c_given_na, na)),
            max(min(self.pi_nc_given_a, a), min(self.pi_nc_given_na, na)),
        )

    def margin(self, parent_state: PossState) -> float:
        """The smallest dominance gap or headroom of a + entry at the state
        (see :func:`_poss_entry_1`)."""
        return min(gap for _, gap in self._entries(parent_state))


def _poss_pair_entry(joint: dict, head: dict, x_pos: bool, pi_x: float) -> tuple[QSign, float]:
    """Entry (z, x) of a two-parent possibility matrix, and the smallest
    gap the entry was decided on (infinite for entries never fragile).

    ``joint[xv, yv]`` is min(pi(z|xv,yv), pi(xv), pi(yv)) and
    ``head[xv, yv]`` is min(pi(z|xv,yv), pi(yv)), over the outcomes of this
    parent x and its co-parent y; ``pi_x`` is pi(x_pos).  Each co-parent
    route y is dominant when its joint exceeds every other joint, and has
    headroom when pi(x) is below its other two minima.  A + entry is
    fragile when a transmitting route's dominance or headroom gap is small.
    An up-marker entry is fragile when no joint untouched by this parent
    pins the current child value: a sibling route through the co-parent can
    then leak a decrease the marker promises to block.
    """
    follows = up = down = False
    gap = math.inf  # smallest gap of a transmitting route
    pinned = [joint[not x_pos, True], joint[not x_pos, False]]
    for y_pos in (True, False):
        mine = joint[x_pos, y_pos]
        dom_gap = mine - max(joint[not x_pos, y_pos], joint[x_pos, not y_pos], joint[not x_pos, not y_pos])
        head_gap = head[x_pos, y_pos] - pi_x
        if dom_gap > 0 and head_gap > 0:
            follows = True
            gap = min(gap, dom_gap, head_gap)
        elif head_gap > 0:
            up = True
        else:
            pinned.append(mine)
            down = down or dom_gap > 0
    if follows:
        return POS, gap
    if up:
        return UP, max(pinned) - pi_x
    return (DOWN if down else ZERO), math.inf


@dataclass(frozen=True)
class PossCond2(ConditionalTable):
    """Conditional possibilities for a two-parent link."""

    formalism = POSS
    arity = 2
    state_dependent = True

    pi_d_given_bc: float
    pi_d_given_b_nc: float
    pi_d_given_nb_c: float
    pi_d_given_nb_nc: float
    pi_nd_given_bc: float
    pi_nd_given_b_nc: float
    pi_nd_given_nb_c: float
    pi_nd_given_nb_nc: float

    def get(self, child_pos: bool, first_pos: bool, second_pos: bool) -> float:
        if child_pos:
            if first_pos:
                return self.pi_d_given_bc if second_pos else self.pi_d_given_b_nc
            return self.pi_d_given_nb_c if second_pos else self.pi_d_given_nb_nc
        if first_pos:
            return self.pi_nd_given_bc if second_pos else self.pi_nd_given_b_nc
        return self.pi_nd_given_nb_c if second_pos else self.pi_nd_given_nb_nc

    def _entries(self, state_x: PossState, state_y: PossState):
        """(entry, gap) of every matrix entry, row by row.  The joints of
        each child outcome and parent order are computed once, for both of
        the parent's outcomes."""
        get = self.get
        for child_pos in (True, False):
            for x_first, sx, sy in ((True, state_x, state_y), (False, state_y, state_x)):
                joint, head = {}, {}
                for xv in (True, False):
                    pi_xv = sx.get(xv)
                    for yv in (True, False):
                        c = get(child_pos, xv, yv) if x_first else get(child_pos, yv, xv)
                        pi_yv = sy.get(yv)
                        joint[xv, yv] = min(c, pi_xv, pi_yv)
                        head[xv, yv] = min(c, pi_yv)
                for x_pos in (True, False):
                    yield _poss_pair_entry(joint, head, x_pos, sx.get(x_pos))

    def derivative(self, state_x: PossState, state_y: PossState) -> QMatrix:
        """2x4 matrix over (d, ~d) by (b, ~b, c, ~c).

        Joint possibilities are min-combinations of the conditional and the two
        parent states; an outcome's entry considers both co-parent routes, and
        either one sufficing for dominance-with-headroom yields +.
        """
        entries = [entry for entry, _ in self._entries(state_x, state_y)]
        return QMatrix((tuple(entries[:4]), tuple(entries[4:])))

    def evaluate(self, parent_values: list[Pair]) -> Pair:
        """Sup-min."""
        (b, nb), (c, nc) = parent_values
        return (
            max(
                min(self.pi_d_given_bc, b, c),
                min(self.pi_d_given_b_nc, b, nc),
                min(self.pi_d_given_nb_c, nb, c),
                min(self.pi_d_given_nb_nc, nb, nc),
            ),
            max(
                min(self.pi_nd_given_bc, b, c),
                min(self.pi_nd_given_b_nc, b, nc),
                min(self.pi_nd_given_nb_c, nb, c),
                min(self.pi_nd_given_nb_nc, nb, nc),
            ),
        )

    def margin(self, state_x: PossState, state_y: PossState) -> float:
        """Two-parent analogue of :meth:`PossCond1.margin`, over the
        fragile entries of :func:`_poss_pair_entry`."""
        return min(gap for _, gap in self._entries(state_x, state_y))


# ---------------------------------------------------------------------------
# belief
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BelCond1(ConditionalTable):
    """Conditional beliefs for a single-parent link.

    Conditioning cells are the parent outcome, its complement, and the
    whole frame.
    """

    formalism = BEL
    arity = 1

    bel_c_given_a: float = 0.0
    bel_c_given_na: float = 0.0
    bel_c_given_frame: float = 0.0
    bel_nc_given_a: float = 0.0
    bel_nc_given_na: float = 0.0
    bel_nc_given_frame: float = 0.0

    def get(self, child_pos: bool, cell: Cell) -> float:
        if child_pos:
            if cell is None:
                return self.bel_c_given_frame
            return self.bel_c_given_a if cell else self.bel_c_given_na
        if cell is None:
            return self.bel_nc_given_frame
        return self.bel_nc_given_a if cell else self.bel_nc_given_na

    def derivative(self) -> QMatrix:
        """2x2 matrix: entry (x, y) is the sign of bel(x|y) - bel(x|frame)."""
        return QMatrix((
            (sign_of(self.bel_c_given_a - self.bel_c_given_frame), sign_of(self.bel_c_given_na - self.bel_c_given_frame)),
            (sign_of(self.bel_nc_given_a - self.bel_nc_given_frame), sign_of(self.bel_nc_given_na - self.bel_nc_given_frame)),
        ))

    def evaluate(self, parent_values: list[Pair]) -> Pair:
        """Mass-weighted sums over the outcome, its complement and the frame."""
        a, na = parent_values[0]
        frame = 1.0 - a - na
        return (
            sum((a * self.bel_c_given_a, na * self.bel_c_given_na, frame * self.bel_c_given_frame)),
            sum((a * self.bel_nc_given_a, na * self.bel_nc_given_na, frame * self.bel_nc_given_frame)),
        )

    def margin(self) -> float:
        m = float("inf")
        for child_pos in (True, False):
            for parent_pos in (True, False):
                m = min(m, abs(self.get(child_pos, parent_pos) - self.get(child_pos, None)))
        return m


def _masses(pair: Pair) -> tuple[float, float, float]:
    b, d = pair
    return b, d, 1.0 - b - d


@dataclass(frozen=True)
class BelCond2Joint(ConditionalTable):
    """Joint conditional beliefs bel(z | X, Y) over 9 conditioning cells per
    child outcome, as one tuple in ``cell_keys`` order."""

    formalism = BEL
    arity = 2

    cells: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.cells) != 18:
            raise ValueError("expected 18 conditional beliefs")
        super().__post_init__()

    @classmethod
    def from_cells(cls, values) -> "BelCond2Joint":
        return cls(tuple(values))

    def get(self, child_pos: bool, first: Cell, second: Cell) -> float:
        return self.cells[_JOINT_INDEX[child_pos, first, second]]

    def _diffs(self, child_pos: bool, x_first: bool, x_pos: bool) -> tuple[float, float, float]:
        """bel(z | x, Y) - bel(z | frame, Y) over the co-parent cells Y."""
        def b(xc: Cell, yc: Cell) -> float:
            if x_first:
                return self.get(child_pos, xc, yc)
            return self.get(child_pos, yc, xc)

        return tuple(b(x_pos, yc) - b(None, yc) for yc in CELLS)  # type: ignore[return-value]

    def derivative(self) -> QMatrix:
        """2x4 matrix: entry (z, x) adds, over the three co-parent
        conditioning cells, the sign of bel(z | x, Y) - bel(z | frame, Y)."""
        rows = []
        for child_pos in (True, False):
            row = []
            for x_first in (True, False):
                for x_pos in (True, False):
                    acc = ZERO
                    for diff in self._diffs(child_pos, x_first, x_pos):
                        acc = qadd(acc, sign_of(diff))
                    row.append(acc)
            rows.append(tuple(row))
        return QMatrix(tuple(rows))

    def cases(self, matrix: QMatrix) -> tuple[tuple[str, ...], ...]:
        return _label_cells(
            matrix,
            lambda child_pos, j, entry: "terms="
            + ",".join(str(sign_of(d)) for d in self._diffs(child_pos, j < 2, j % 2 == 0)),
        )

    def evaluate(self, parent_values: list[Pair]) -> Pair:
        """Mass-weighted sums over joint masses in the table's cell order,
        the first parent's cell major."""
        m1 = _masses(parent_values[0])
        m2 = _masses(parent_values[1])
        joint = [ma * mb for ma in m1 for mb in m2]
        cells = self.cells
        return (
            sum([m * cells[k] for k, m in enumerate(joint)]),
            sum([m * cells[k + 9] for k, m in enumerate(joint)]),
        )

    def margin(self) -> float:
        m = float("inf")
        for child_pos in (True, False):
            for x_first in (True, False):
                for x_pos in (True, False):
                    for diff in self._diffs(child_pos, x_first, x_pos):
                        m = min(m, abs(diff))
        return m


_JOINT_INDEX = {key: i for i, key in enumerate(BelCond2Joint.cell_keys)}


@dataclass(frozen=True)
class BelCond2Separate(ConditionalTable):
    """Two independent single-parent belief tables for a two-parent link."""

    formalism = BEL
    arity = 2
    no_formula = "per-parent belief tables have no trusted combination formula"

    for_first: BelCond1
    for_second: BelCond1

    def derivative(self) -> QMatrix:
        """2x4 matrix: the child weakly follows a parent outcome when
        conditioning on it gives at least as much belief as the frame does;
        otherwise the dependence is indeterminate.  Note the weak
        inequality: equality still reads as +.
        """
        rows = []
        for child_pos in (True, False):
            row = []
            for table in (self.for_first, self.for_second):
                for x_pos in (True, False):
                    if table.get(child_pos, x_pos) >= table.get(child_pos, None):
                        row.append(POS)
                    else:
                        row.append(UNKNOWN)
            rows.append(tuple(row))
        return QMatrix(tuple(rows))

    def cases(self, matrix: QMatrix) -> tuple[tuple[str, ...], ...]:
        return _label_cells(
            matrix, lambda child_pos, j, entry: "weak-follows" if entry == POS else "indeterminate"
        )
