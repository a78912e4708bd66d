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
* ``margin()``: how close the table alone sits to a decision boundary;
  a ``state_dependent`` table instead answers ``degenerate(*parent_states,
  tol)`` at each sampled state.
* ``warnings()``: validation warnings about the numbers.

:class:`ConditionalTable` gives the defaults.  The derivatives:

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
from dataclasses import dataclass
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


class ConditionalTable:
    """The table protocol (see the module docstring), with its defaults."""

    formalism: ClassVar[Formalism]
    arity: ClassVar[int]
    state_dependent: ClassVar[bool] = False  # derivative and degeneracy read parent states
    no_formula: ClassVar[str | None] = None  # why there is no ``evaluate``, if there is none

    def margin(self) -> float:
        """Smallest gap between two numbers of the table whose order decides
        an entry; infinite when no entry is decided by the table alone."""
        return math.inf

    def warnings(self) -> tuple[str, ...]:
        return ()


_TRICHOTOMY = {POS: "follows", NEG: "varies-inversely", ZERO: "independent"}
_POSS_CASES = {POS: "follows", ZERO: "independent", UP: "may-follow-up", DOWN: "may-follow-down"}


def _label_cells(matrix: QMatrix, label) -> tuple[tuple[str, ...], ...]:
    """``label(child_pos, column, entry)`` for every entry, in the matrix's shape."""
    return tuple(
        tuple(label(i == 0, j, entry) for j, entry in enumerate(row)) for i, row in enumerate(matrix.rows)
    )


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

    def __post_init__(self) -> None:
        _check_unit("p(c|a)", self.p_c_given_a)
        _check_unit("p(c|~a)", self.p_c_given_na)

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
        return QMatrix(((s, s.negated()), (s.negated(), s)))

    def cases(self, matrix: QMatrix) -> tuple[tuple[str, ...], ...]:
        return _label_cells(matrix, lambda child_pos, j, entry: _TRICHOTOMY[entry])

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

    def __post_init__(self) -> None:
        for name, v in (
            ("p(d|b,c)", self.p_d_given_bc),
            ("p(d|b,~c)", self.p_d_given_b_nc),
            ("p(d|~b,c)", self.p_d_given_nb_c),
            ("p(d|~b,~c)", self.p_d_given_nb_nc),
        ):
            _check_unit(name, v)

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

def _poss_entry_1(cond_y: float, cond_ny: float, pi_y: float, pi_ny: float) -> QSign:
    # dominance: the y-branch of the sup-min determines the child value;
    # headroom: pi(y) itself (not the conditional) is the active minimum.
    dominant = min(cond_y, pi_y) > min(cond_ny, pi_ny)
    headroom = pi_y < cond_y
    if dominant and headroom:
        return POS
    if headroom:
        return UP
    if dominant:
        return DOWN
    return ZERO


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

    def __post_init__(self) -> None:
        for name, v in (
            ("pi(c|a)", self.pi_c_given_a),
            ("pi(c|~a)", self.pi_c_given_na),
            ("pi(~c|a)", self.pi_nc_given_a),
            ("pi(~c|~a)", self.pi_nc_given_na),
        ):
            _check_unit(name, v)

    def get(self, child_pos: bool, parent_pos: bool) -> float:
        if child_pos:
            return self.pi_c_given_a if parent_pos else self.pi_c_given_na
        return self.pi_nc_given_a if parent_pos else self.pi_nc_given_na

    def warnings(self) -> tuple[str, ...]:
        """Columns whose conditionals do not reach possibility 1."""
        out = []
        for parent_pos, label in ((True, "a"), (False, "~a")):
            if max(self.get(True, parent_pos), self.get(False, parent_pos)) < 1.0:
                out.append(f"conditional possibilities given {label} do not reach 1")
        return tuple(out)

    def derivative(self, parent_state: PossState) -> QMatrix:
        """2x2 matrix of {+, 0, up, down} entries.

        An entry is + when the parent outcome currently determines the child
        value with room to move in both directions, the up marker when only a
        rise in the parent could start to matter, the down marker when only a
        fall could, and 0 otherwise.
        """
        rows = []
        for child_pos in (True, False):
            row = []
            for parent_pos in (True, False):
                row.append(
                    _poss_entry_1(
                        self.get(child_pos, parent_pos),
                        self.get(child_pos, not parent_pos),
                        parent_state.get(parent_pos),
                        parent_state.get(not parent_pos),
                    )
                )
            rows.append(tuple(row))
        return QMatrix(tuple(rows))

    def cases(self, matrix: QMatrix) -> tuple[tuple[str, ...], ...]:
        return _label_cells(matrix, lambda child_pos, j, entry: _POSS_CASES[entry])

    def evaluate(self, parent_values: list[Pair]) -> Pair:
        """Sup-min."""
        a, na = parent_values[0]
        return (
            max(min(self.pi_c_given_a, a), min(self.pi_c_given_na, na)),
            max(min(self.pi_nc_given_a, a), min(self.pi_nc_given_na, na)),
        )

    def degenerate(self, parent_state: PossState, tol: float = 1e-9) -> bool:
        """Whether the state sits too close to a decision boundary for a
        strict prediction to be meaningfully tested.

        Only entries claiming guaranteed transmission (+) are fragile: both
        their dominance gap and their headroom must clear the tolerance.
        Marker and zero entries are safe at their boundaries because the
        inactive branch of the sup-min pins the child value.
        """
        for child_pos in (True, False):
            for parent_pos in (True, False):
                c_y = self.get(child_pos, parent_pos)
                c_ny = self.get(child_pos, not parent_pos)
                pi_y = parent_state.get(parent_pos)
                pi_ny = parent_state.get(not parent_pos)
                dom_gap = min(c_y, pi_y) - min(c_ny, pi_ny)
                head_gap = c_y - pi_y
                if dom_gap > 0 and head_gap > 0 and (dom_gap < tol or head_gap < tol):
                    return True
        return False


def _poss_pair_entry(
    cond: PossCond2, child_pos: bool, x_first: bool, x_pos: bool,
    state_x: PossState, state_y: PossState,
) -> tuple[QSign, float]:
    """Entry (z, x) of a two-parent possibility matrix, and the smallest
    gap the entry was decided on (infinite for entries never fragile).

    Each co-parent route y is dominant when its joint exceeds every other
    joint, and has headroom when pi(x) is below its other two minima.  A +
    entry is fragile when a transmitting route's dominance or headroom gap
    is small.  An up-marker entry is fragile when no joint untouched by
    this parent pins the current child value: a sibling route through the
    co-parent can then leak a decrease the marker promises to block.
    """
    def c(xv: bool, yv: bool) -> float:
        if x_first:
            return cond.get(child_pos, xv, yv)
        return cond.get(child_pos, yv, xv)

    def joint(xv: bool, yv: bool) -> float:
        return min(c(xv, yv), state_x.get(xv), state_y.get(yv))

    pi_x = state_x.get(x_pos)
    follows = up = down = False
    gap = math.inf  # smallest gap of a transmitting route
    pinned = [joint(not x_pos, True), joint(not x_pos, False)]
    for y_pos in (True, False):
        mine = joint(x_pos, y_pos)
        dom_gap = mine - max(joint(not x_pos, y_pos), joint(x_pos, not y_pos), joint(not x_pos, not y_pos))
        head_gap = min(c(x_pos, y_pos), state_y.get(y_pos)) - pi_x
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

    def __post_init__(self) -> None:
        for name, v in (
            ("pi(d|b,c)", self.pi_d_given_bc),
            ("pi(d|b,~c)", self.pi_d_given_b_nc),
            ("pi(d|~b,c)", self.pi_d_given_nb_c),
            ("pi(d|~b,~c)", self.pi_d_given_nb_nc),
            ("pi(~d|b,c)", self.pi_nd_given_bc),
            ("pi(~d|b,~c)", self.pi_nd_given_b_nc),
            ("pi(~d|~b,c)", self.pi_nd_given_nb_c),
            ("pi(~d|~b,~c)", self.pi_nd_given_nb_nc),
        ):
            _check_unit(name, v)

    def get(self, child_pos: bool, first_pos: bool, second_pos: bool) -> float:
        if child_pos:
            if first_pos:
                return self.pi_d_given_bc if second_pos else self.pi_d_given_b_nc
            return self.pi_d_given_nb_c if second_pos else self.pi_d_given_nb_nc
        if first_pos:
            return self.pi_nd_given_bc if second_pos else self.pi_nd_given_b_nc
        return self.pi_nd_given_nb_c if second_pos else self.pi_nd_given_nb_nc

    def warnings(self) -> tuple[str, ...]:
        out = []
        for first_pos in (True, False):
            for second_pos in (True, False):
                if max(self.get(True, first_pos, second_pos), self.get(False, first_pos, second_pos)) < 1.0:
                    label = f"{'b' if first_pos else '~b'},{'c' if second_pos else '~c'}"
                    out.append(f"conditional possibilities given {label} do not reach 1")
        return tuple(out)

    def _entries(self, state_x: PossState, state_y: PossState):
        """(entry, gap) of every matrix entry, row by row."""
        for child_pos in (True, False):
            for x_first in (True, False):
                sx = state_x if x_first else state_y
                sy = state_y if x_first else state_x
                for x_pos in (True, False):
                    yield _poss_pair_entry(self, child_pos, x_first, x_pos, sx, sy)

    def derivative(self, state_x: PossState, state_y: PossState) -> QMatrix:
        """2x4 matrix over (d, ~d) by (b, ~b, c, ~c).

        Joint possibilities are min-combinations of the conditional and the two
        parent states; an outcome's entry considers both co-parent routes, and
        either one sufficing for dominance-with-headroom yields +.
        """
        entries = [entry for entry, _ in self._entries(state_x, state_y)]
        return QMatrix((tuple(entries[:4]), tuple(entries[4:])))

    def cases(self, matrix: QMatrix) -> tuple[tuple[str, ...], ...]:
        return _label_cells(matrix, lambda child_pos, j, entry: _POSS_CASES[entry])

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

    def degenerate(self, state_x: PossState, state_y: PossState, tol: float = 1e-9) -> bool:
        """Two-parent analogue of :meth:`PossCond1.degenerate`, with the
        fragile entries of :func:`_poss_pair_entry`."""
        return any(gap < tol for _, gap in self._entries(state_x, state_y))


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

    def __post_init__(self) -> None:
        for name, v in (
            ("bel(c|a)", self.bel_c_given_a),
            ("bel(c|~a)", self.bel_c_given_na),
            ("bel(c|a or ~a)", self.bel_c_given_frame),
            ("bel(~c|a)", self.bel_nc_given_a),
            ("bel(~c|~a)", self.bel_nc_given_na),
            ("bel(~c|a or ~a)", self.bel_nc_given_frame),
        ):
            _check_unit(name, v)
        for cell in CELLS:
            if self.get(True, cell) + self.get(False, cell) > 1.0 + 1e-12:
                raise ValueError("bel(c|.) + bel(~c|.) must not exceed 1")

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
        rows = []
        for child_pos in (True, False):
            row = []
            for parent_pos in (True, False):
                diff = self.get(child_pos, parent_pos) - self.get(child_pos, None)
                row.append(sign_of(diff))
            rows.append(tuple(row))
        return QMatrix(tuple(rows))

    def cases(self, matrix: QMatrix) -> tuple[tuple[str, ...], ...]:
        return _label_cells(matrix, lambda child_pos, j, entry: _TRICHOTOMY[entry])

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


def _joint_key(child_pos: bool, first: Cell, second: Cell) -> int:
    return (CELLS.index(first) * 3 + CELLS.index(second)) + (0 if child_pos else 9)


def _masses(pair: Pair) -> tuple[float, float, float]:
    b, d = pair
    return b, d, 1.0 - b - d


@dataclass(frozen=True)
class BelCond2Joint(ConditionalTable):
    """Joint conditional beliefs bel(z | X, Y) over 9 conditioning cells per
    child outcome. Unlisted cells default to belief 0."""

    formalism = BEL
    arity = 2

    cells: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.cells) != 18:
            raise ValueError("expected 18 conditional beliefs")
        for v in self.cells:
            _check_unit("conditional belief", v)
        for first in CELLS:
            for second in CELLS:
                if self.get(True, first, second) + self.get(False, first, second) > 1.0 + 1e-12:
                    raise ValueError("bel(d|X,Y) + bel(~d|X,Y) must not exceed 1")

    @classmethod
    def from_values(cls, values: dict[tuple[bool, Cell, Cell], float]) -> "BelCond2Joint":
        cells = [0.0] * 18
        for (child_pos, first, second), v in values.items():
            cells[_joint_key(child_pos, first, second)] = v
        return cls(tuple(cells))

    def get(self, child_pos: bool, first: Cell, second: Cell) -> float:
        return self.cells[_joint_key(child_pos, first, second)]

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
