"""Link tables: one protocol for all three formalisms.

Each link carries a numeric conditional table in one of the three
formalisms.  A table class states once everything the rest of the
package needs to know about its kind of link:

* ``formalism`` and ``arity``: the child's formalism and the number of
  parents.
* ``_entries(*parent_states)``: each entry of the derivative matrix, row
  by row, with its gap, the smallest ``abs`` of the numbers whose signs
  decide it.  The base class derives from it ``derivative``, the matrix
  that propagation multiplies changes through (rows (x, ~x) of the child
  by two columns (y, ~y) per parent), and ``margin``, the smallest gap:
  how close the table sits to a decision boundary.  Only a
  ``state_dependent`` table reads its parents' current states, each a
  pair (pi(x), pi(~x)) like the values ``evaluate`` takes, and checks
  each (:func:`_poss_state`); the others take none.
* ``cases(matrix)``: the label of each matrix entry, as ``explain``
  prints it.
* ``evaluate(parent_values)``: the child's exact (x, ~x) from its
  parents' exact values, for the numeric oracle.  A table without a
  trusted formula says why in ``no_formula`` instead.
* ``warnings(parents)``: validation warnings about the numbers.

:class:`ConditionalTable` gives the defaults; its default ``cases``
labels sign and marker entries.  A table that stores numbers derives
from :class:`CellTable`, which states their cell layout once.  From
``formalism`` and ``arity`` it works out, per class, its ``cell_keys``:
the child outcomes (only the positive one for probability, whose
complement is implied) by each parent's conditioning cells (outcome and
complement, and for belief the whole frame too).  The fields hold the
values in that order, as the constructor takes them (``from_cells``), and
the derived ``get(child_pos, *parent_cells)`` reads them back.  On that
layout the base class range-checks every value and, for belief, each
cell's sum over the child outcomes, and warns about possibility columns
that do not reach 1.  A subclass states its fields in layout order (its
``__slots__`` and ``__init__``), ``_entries``, ``evaluate``, and its own
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

All methods are pure; tables are immutable records and validate their
numeric ranges on construction.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from itertools import product
from typing import ClassVar

from .signs import DOWN, NEG, POS, QMatrix, QSign, UNKNOWN, UP, ZERO, _Slotted, qsum, sign_of


class Formalism(enum.Enum):
    PROBABILITY = "prob"
    POSSIBILITY = "poss"
    BELIEF = "bel"

    __hash__ = object.__hash__  # members are singletons: hashed by identity, not by Enum's Python method

    def __str__(self) -> str:
        return self._value_


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


_CASES = {  # by sign code
    POS.code: "follows", NEG.code: "varies-inversely", ZERO.code: "independent",
    UP.code: "may-follow-up", DOWN.code: "may-follow-down",
}


def _summed(terms: tuple[float, ...]) -> tuple[QSign, float]:
    """The two-parent sign rule: an entry is the qualitative sum of its
    terms' signs, decided by the smallest term in magnitude."""
    return qsum(map(sign_of, terms)), min(map(abs, terms))


@functools.lru_cache(maxsize=1024)
def _matrix(*entries: QSign) -> QMatrix:
    """The matrix of ``entries`` split into two rows, built once for each
    distinct tuple of entries: a file holds only a few dozen distinct
    derivatives, and matrices are immutable."""
    half = len(entries) // 2
    return QMatrix((entries[:half], entries[half:]))


class ConditionalTable:
    """The table protocol and its defaults (see the module docstring)."""

    __slots__ = ()  # a slotted table holds no instance dict
    formalism: ClassVar[Formalism]
    arity: ClassVar[int]
    state_dependent: ClassVar[bool] = False  # derivative and margin read parent states
    no_formula: ClassVar[str | None] = None  # why there is no ``evaluate``, if there is none

    def cases(self, matrix: QMatrix) -> tuple[tuple[str, ...], ...]:
        return tuple([tuple([_CASES[entry.code] for entry in row]) for row in matrix.rows])

    def _entries(self, *parent_states: Pair):
        """(entry, gap) of every matrix entry, row by row; none by default."""
        return ()

    def derivative(self, *parent_states: Pair) -> QMatrix:
        """The entries of ``_entries``, as rows (x, ~x) of the child.  Equal
        entries give the one shared matrix."""
        return _matrix(*[entry for entry, _ in self._entries(*parent_states)])

    def margin(self, *parent_states: Pair) -> float:
        """The smallest gap of ``_entries``; infinite when there is none."""
        gaps = [gap for _, gap in self._entries(*parent_states)]
        return min(gaps) if gaps else math.inf

    def warnings(self, parents: tuple[str, ...]) -> tuple[str, ...]:
        """Validation warnings about the numbers of a link from ``parents``;
        none by default."""
        return ()


class CellTable(_Slotted, ConditionalTable):
    """A table that stores its numbers as fields in ``cell_keys`` order
    (see the module docstring)."""

    __slots__ = ()
    # The cell layout, set for each subclass.
    child_outcomes: ClassVar[tuple[bool, ...]]
    parent_cells: ClassVar[tuple[Cell, ...]]
    cell_keys: ClassVar[tuple[tuple[Cell, ...], ...]]  # (child_pos, *parent_cells), in order
    _index: ClassVar[dict[tuple[Cell, ...], int]]  # each key's place in cell_keys
    _labels: ClassVar[tuple[str, ...]]  # each key written out, e.g. 'p(c|a)'
    _values: ClassVar  # table -> its values in cell_keys order
    _columns: ClassVar[tuple[tuple[tuple[Cell, ...], str], ...]]  # parent cells, written out: 'b,~c'
    _sum_error: ClassVar[str]  # belief: a column's two values sum above 1

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        parents, child = (("a",), "c") if cls.arity == 1 else (("b", "c"), "d")
        cls.child_outcomes = (True,) if cls.formalism is PROB else (True, False)
        cls.parent_cells = CELLS if cls.formalism is BEL else (True, False)
        columns = list(product(cls.parent_cells, repeat=cls.arity))
        cls.cell_keys = tuple((pos, *cells) for pos in cls.child_outcomes for cells in columns)
        cls._index = {key: i for i, key in enumerate(cls.cell_keys)}
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
        cls._values = operator.attrgetter(*cls._fields)

    @classmethod
    def from_cells(cls, values) -> "CellTable":
        """The table whose ``get`` over ``cell_keys`` returns ``values``."""
        return cls(*values)

    def _fill(self, values: tuple[float, ...]) -> None:
        """Check ``values``, then store them one per field."""
        self._check(values)
        _Slotted._fill(self, values)

    def _check(self, values: tuple[float, ...]) -> None:
        """Range-check the values in layout order; belief also checks each
        column's sum.  A value's label is written out only for the message
        of a value out of range."""
        for i in range(len(values)):
            if not 0.0 <= values[i] <= 1.0:
                _check_unit(self._labels[i], values[i])
        if self.formalism is BEL:
            half = len(values) // 2  # the child outcome's row, then its complement's
            for pos, neg in zip(values[:half], values[half:]):
                if pos + neg > 1.0 + 1e-12:
                    raise ValueError(self._sum_error)

    def get(self, child_pos: bool, *parent_cells: Cell) -> float:
        """The value at ``(child_pos, *parent_cells)``; a key outside
        ``cell_keys`` raises ``KeyError``.  Probability stores only the
        child's positive outcome: its complement is one minus it."""
        if not child_pos and self.formalism is PROB:
            return 1.0 - self.get(True, *parent_cells)
        return self._values(self)[self._index[(child_pos, *parent_cells)]]

    def warnings(self, parents: tuple[str, ...]) -> tuple[str, ...]:
        """Possibility: conditioning columns whose values do not reach 1,
        each written over ``parents``."""
        if self.formalism is not POSS:
            return ()
        values = self._values(self)
        half = len(values) // 2  # the child outcome's row, then its complement's
        return tuple([
            f"conditional possibilities given {','.join(map(_outcome, parents, cells))} do not reach 1"
            for (cells, _), pos, neg in zip(self._columns, values[:half], values[half:])
            if pos < 1.0 and neg < 1.0
        ])


# The possibility state of a parent in another formalism: total ignorance.
IGNORANT: Pair = (1.0, 1.0)


# ---------------------------------------------------------------------------
# probability
# ---------------------------------------------------------------------------

class ProbCond1(CellTable):
    """p(c | a) and p(c | not a); complements are implied."""

    formalism = PROB
    arity = 1
    __slots__ = ("p_c_given_a", "p_c_given_na")

    def __init__(self, p_c_given_a: float, p_c_given_na: float) -> None:
        self._fill((p_c_given_a, p_c_given_na))

    def _entries(self):
        """2x2 matrix over child outcomes (c, ~c) by parent outcomes (a, ~a).

        Entry (x, y) is the sign of p(x|y) - p(x|~y).  Complementing either
        the child or the parent outcome flips the difference exactly, so
        every entry is decided by the one difference p(c|a) - p(c|~a).
        """
        diff = self.p_c_given_a - self.p_c_given_na
        s, gap = sign_of(diff), abs(diff)
        n = s.negated()
        return (s, gap), (n, gap), (n, gap), (s, gap)

    def evaluate(self, parent_values: list[Pair]) -> Pair:
        """Total probability."""
        a, na = parent_values[0]
        p_c = a * self.p_c_given_a + na * self.p_c_given_na
        return p_c, 1.0 - p_c


class ProbCond2(CellTable):
    """p(d | b, c) over the four parent-outcome pairs."""

    formalism = PROB
    arity = 2
    __slots__ = ("p_d_given_bc", "p_d_given_b_nc", "p_d_given_nb_c", "p_d_given_nb_nc")

    def __init__(self, p_d_given_bc: float, p_d_given_b_nc: float, p_d_given_nb_c: float, p_d_given_nb_nc: float):
        self._fill((p_d_given_bc, p_d_given_b_nc, p_d_given_nb_c, p_d_given_nb_nc))

    def _terms(self) -> list[tuple[float, float]]:
        """Synergy and offset terms of each entry (d, x) of the child's
        positive row, x over (b, ~b, c, ~c).  With the co-parent y at its
        positive outcome and p(x, y) for p(d | x, y), the synergy is
        p(x, y) + p(~x, ~y) - p(x, ~y) - p(~x, y), summed in that order, and
        the offset p(x, ~y) - p(~x, ~y)."""
        bc, b_nc = self.p_d_given_bc, self.p_d_given_b_nc
        nb_c, nb_nc = self.p_d_given_nb_c, self.p_d_given_nb_nc
        return [
            (bc + nb_nc - b_nc - nb_c, b_nc - nb_nc),
            (nb_c + b_nc - nb_nc - bc, nb_nc - b_nc),
            (bc + nb_nc - nb_c - b_nc, nb_c - nb_nc),
            (b_nc + nb_c - nb_nc - bc, nb_nc - nb_c),
        ]

    def _entries(self):
        """2x4 matrix over (d, ~d) by (b, ~b, c, ~c).

        Each entry adds the sign of the synergy term (how much the two parents
        reinforce each other) to the sign of the remaining per-outcome
        difference.  Complementing the child flips both terms exactly, so the
        second row is the negation of the first, decided by the same stored
        numbers and so with the same gaps."""
        row = [_summed(terms) for terms in self._terms()]
        return row + [(entry.negated(), gap) for entry, gap in row]

    def cases(self, matrix: QMatrix) -> tuple[tuple[str, ...], ...]:
        """The signs of each entry's two terms; complementing the child flips both."""
        signs = [(sign_of(syn), sign_of(off)) for syn, off in self._terms()]
        return (
            tuple([f"synergy={syn} offset={off}" for syn, off in signs]),
            tuple([f"synergy={syn.negated()} offset={off.negated()}" for syn, off in signs]),
        )

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


# ---------------------------------------------------------------------------
# possibility
# ---------------------------------------------------------------------------

def _poss_state(state: Pair) -> Pair:
    """A parent's state (pi(x), pi(~x)), checked to lie in [0, 1] and to be
    max-normalized."""
    pi_x, pi_nx = state
    _check_unit("pi(x)", pi_x)
    _check_unit("pi(~x)", pi_nx)
    if max(pi_x, pi_nx) != 1.0:
        raise ValueError("possibility state must satisfy max(pi(x), pi(~x)) = 1")
    return pi_x, pi_nx


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


class PossCond1(CellTable):
    """Conditional possibilities for a single-parent link."""

    formalism = POSS
    arity = 1
    state_dependent = True
    __slots__ = ("pi_c_given_a", "pi_c_given_na", "pi_nc_given_a", "pi_nc_given_na")

    def __init__(self, pi_c_given_a: float, pi_c_given_na: float, pi_nc_given_a: float, pi_nc_given_na: float):
        self._fill((pi_c_given_a, pi_c_given_na, pi_nc_given_a, pi_nc_given_na))

    def _entries(self, parent_state: Pair):
        """2x2 matrix of {+, 0, up, down} entries.

        An entry is + when the parent outcome currently determines the child
        value with room to move in both directions, the up marker when only a
        rise in the parent could start to matter, the down marker when only a
        fall could, and 0 otherwise.  Each row is decided, with the gaps of
        :func:`_poss_entry_1`, from its two joints min(pi(c|y), pi(y)).
        """
        pi_a, pi_na = _poss_state(parent_state)
        for cond_a, cond_na in ((self.pi_c_given_a, self.pi_c_given_na), (self.pi_nc_given_a, self.pi_nc_given_na)):
            joint_a, joint_na = min(cond_a, pi_a), min(cond_na, pi_na)
            yield _poss_entry_1(joint_a - joint_na, cond_a - pi_a)
            yield _poss_entry_1(joint_na - joint_a, cond_na - pi_na)

    def evaluate(self, parent_values: list[Pair]) -> Pair:
        """Sup-min."""
        a, na = parent_values[0]
        return (
            max(min(self.pi_c_given_a, a), min(self.pi_c_given_na, na)),
            max(min(self.pi_nc_given_a, a), min(self.pi_nc_given_na, na)),
        )


def _poss_pair_entry(mine: Pair, other: Pair, head: Pair, pi_x: float) -> tuple[QSign, float]:
    """Entry (z, x) of a two-parent possibility matrix, and the smallest
    gap the entry was decided on (infinite for entries never fragile).

    Over the co-parent's outcomes (y, ~y), ``mine`` holds the joints
    min(pi(z|x,y), pi(x), pi(y)) of this parent's outcome x, ``other``
    those of its complement, and ``head`` holds min(pi(z|x,y), pi(y));
    ``pi_x`` is pi(x).  Each co-parent route y is dominant when its joint
    exceeds every other joint, and has headroom when pi(x) is below its
    other two minima.  A + entry is fragile when a transmitting route's
    dominance or headroom gap is small.  An up-marker entry is fragile when
    no joint untouched by this parent pins the current child value: a
    sibling route through the co-parent can then leak a decrease the marker
    promises to block.
    """
    follows = up = down = False
    gap = math.inf  # smallest gap of a transmitting route
    pinned = [other[0], other[1]]
    for y, ny in ((0, 1), (1, 0)):
        dom_gap = mine[y] - max(other[y], mine[ny], other[ny])
        head_gap = head[y] - pi_x
        if dom_gap > 0 and head_gap > 0:
            follows = True
            gap = min(gap, dom_gap, head_gap)
        elif head_gap > 0:
            up = True
        else:
            pinned.append(mine[y])
            down = down or dom_gap > 0
    if follows:
        return POS, gap
    if up:
        return UP, max(pinned) - pi_x
    return (DOWN if down else ZERO), math.inf


class PossCond2(CellTable):
    """Conditional possibilities for a two-parent link."""

    formalism = POSS
    arity = 2
    state_dependent = True
    __slots__ = ("pi_d_given_bc", "pi_d_given_b_nc", "pi_d_given_nb_c", "pi_d_given_nb_nc",
                 "pi_nd_given_bc", "pi_nd_given_b_nc", "pi_nd_given_nb_c", "pi_nd_given_nb_nc")

    def __init__(self, pi_d_given_bc: float, pi_d_given_b_nc: float, pi_d_given_nb_c: float, pi_d_given_nb_nc: float,
                 pi_nd_given_bc: float, pi_nd_given_b_nc: float, pi_nd_given_nb_c: float, pi_nd_given_nb_nc: float):
        self._fill((pi_d_given_bc, pi_d_given_b_nc, pi_d_given_nb_c, pi_d_given_nb_nc,
                    pi_nd_given_bc, pi_nd_given_b_nc, pi_nd_given_nb_c, pi_nd_given_nb_nc))

    def _entries(self, state_x: Pair, state_y: Pair):
        """2x4 matrix over (d, ~d) by (b, ~b, c, ~c).

        Joint possibilities are min-combinations of the conditional and the two
        parent states; an outcome's entry considers both co-parent routes, and
        either one sufficing for dominance-with-headroom yields +.  The joints
        of each child outcome and parent order are computed once, for both of
        the parent's outcomes; the gaps are those of :func:`_poss_pair_entry`.
        """
        values = self._values(self)  # pi(z | first, second), first's outcome major
        first, second = _poss_state(state_x), _poss_state(state_y)
        out = []
        for z in (0, 4):
            # parent x first, then x second; with x and y 0 for a parent's
            # outcome and 1 for its complement, pi(z | x, y) sits at
            # z + x_step * x + y_step * y
            for pis_x, pis_y, x_step, y_step in ((first, second, 2, 1), (second, first, 1, 2)):
                joint, head = [], []
                for x in (0, 1):
                    pi_x = pis_x[x]
                    conds = (values[z + x_step * x], values[z + x_step * x + y_step])
                    joint.append((min(conds[0], pi_x, pis_y[0]), min(conds[1], pi_x, pis_y[1])))
                    head.append((min(conds[0], pis_y[0]), min(conds[1], pis_y[1])))
                out.append(_poss_pair_entry(joint[0], joint[1], head[0], pis_x[0]))
                out.append(_poss_pair_entry(joint[1], joint[0], head[1], pis_x[1]))
        return out

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


# ---------------------------------------------------------------------------
# belief
# ---------------------------------------------------------------------------

class BelCond1(CellTable):
    """Conditional beliefs for a single-parent link.

    Conditioning cells are the parent outcome, its complement, and the
    whole frame.
    """

    formalism = BEL
    arity = 1
    __slots__ = ("bel_c_given_a", "bel_c_given_na", "bel_c_given_frame",
                 "bel_nc_given_a", "bel_nc_given_na", "bel_nc_given_frame")

    def __init__(self, bel_c_given_a: float = 0.0, bel_c_given_na: float = 0.0, bel_c_given_frame: float = 0.0,
                 bel_nc_given_a: float = 0.0, bel_nc_given_na: float = 0.0, bel_nc_given_frame: float = 0.0):
        self._fill((bel_c_given_a, bel_c_given_na, bel_c_given_frame, bel_nc_given_a, bel_nc_given_na, bel_nc_given_frame))

    def _entries(self):
        """2x2 matrix: entry (x, y) is the sign of bel(x|y) - bel(x|frame)."""
        diffs = (
            self.bel_c_given_a - self.bel_c_given_frame, self.bel_c_given_na - self.bel_c_given_frame,
            self.bel_nc_given_a - self.bel_nc_given_frame, self.bel_nc_given_na - self.bel_nc_given_frame,
        )
        return [(sign_of(diff), abs(diff)) for diff in diffs]

    def evaluate(self, parent_values: list[Pair]) -> Pair:
        """Mass-weighted sums over the outcome, its complement and the frame."""
        a, na = parent_values[0]
        frame = 1.0 - a - na
        return (
            sum((a * self.bel_c_given_a, na * self.bel_c_given_na, frame * self.bel_c_given_frame)),
            sum((a * self.bel_nc_given_a, na * self.bel_nc_given_na, frame * self.bel_nc_given_frame)),
        )


def _masses(pair: Pair) -> tuple[float, float, float]:
    b, d = pair
    return b, d, 1.0 - b - d


class BelCond2Joint(CellTable):
    """Joint conditional beliefs bel(z | X, Y) over 9 conditioning cells per
    child outcome, as one tuple in ``cell_keys`` order."""

    formalism = BEL
    arity = 2
    __slots__ = ("cells",)

    def __init__(self, cells: tuple[float, ...]) -> None:
        if len(cells) != 18:
            raise ValueError("expected 18 conditional beliefs")
        self._check(cells)
        _Slotted._fill(self, (cells,))

    @classmethod
    def from_cells(cls, values) -> "BelCond2Joint":
        return cls(tuple(values))

    def _diffs(self) -> list[tuple[float, ...]]:
        """bel(z | x, Y) - bel(z | frame, Y) over the co-parent cells Y, for
        each entry (z, x) row by row.  In ``cells``, bel(z | first, second)
        sits at 9 z + 3 first + second, with z 0 for the child outcome and 1
        for its complement, and each parent cell counted in ``CELLS`` order."""
        cells = self.cells
        out = []
        for z in (0, 9):
            for x_step, y_step in ((3, 1), (1, 3)):  # parent x first, then x second
                frame = z + 2 * x_step
                f0, f1, f2 = cells[frame], cells[frame + y_step], cells[frame + 2 * y_step]
                for x in (z, z + x_step):
                    out.append((cells[x] - f0, cells[x + y_step] - f1, cells[x + 2 * y_step] - f2))
        return out

    def _entries(self):
        """2x4 matrix: entry (z, x) adds, over the three co-parent
        conditioning cells, the sign of bel(z | x, Y) - bel(z | frame, Y)."""
        return [_summed(diffs) for diffs in self._diffs()]

    def cases(self, matrix: QMatrix) -> tuple[tuple[str, ...], ...]:
        labels = ["terms=" + ",".join([str(sign_of(d)) for d in diffs]) for diffs in self._diffs()]
        return tuple(labels[:4]), tuple(labels[4:])

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


class BelCond2Separate(_Slotted, ConditionalTable):
    """Two independent single-parent belief tables for a two-parent link."""

    formalism = BEL
    arity = 2
    no_formula = "per-parent belief tables have no trusted combination formula"
    __slots__ = ("for_first", "for_second")

    def __init__(self, for_first: BelCond1, for_second: BelCond1) -> None:
        self._fill((for_first, for_second))

    def _entries(self):
        """2x4 matrix: the child weakly follows a parent outcome when
        conditioning on it gives at least as much belief as the frame does;
        otherwise the dependence is indeterminate.  Note the weak
        inequality: equality still reads as +.  The table has no formula,
        so no gap is fragile.
        """
        for child_pos in (True, False):
            for table in (self.for_first, self.for_second):
                for x_pos in (True, False):
                    weak = table.get(child_pos, x_pos) >= table.get(child_pos, None)
                    yield (POS if weak else UNKNOWN), math.inf

    def cases(self, matrix: QMatrix) -> tuple[tuple[str, ...], ...]:
        return tuple([
            tuple(["weak-follows" if entry == POS else "indeterminate" for entry in row]) for row in matrix.rows
        ])
