"""Qualitative sign algebra.

A qualitative value is either a *sign set* (a nonempty subset of {+, 0, -}
describing the possible directions of a change) or a directional *marker*
(up / down) that may appear only in derivative position.  Sign sets support
qualitative addition and multiplication; both are the lifted set extensions
of the base tables on {+, 0, -}, and markers multiply change values through
direction-sensitive rules (an up marker transmits increases only, a down
marker decreases only).

There are exactly nine values, one shared instance each, so equality is
identity.  Addition and multiplication are looked up in tables built at
import from the lifted definitions below.
"""

from __future__ import annotations

import math
from typing import Iterable

_POS = 1
_ZERO = 2
_NEG = 4
_ALL = _POS | _ZERO | _NEG
_UP = 8
_DOWN = 16

_BIT_OF_SIGN = {1: _POS, 0: _ZERO, -1: _NEG}

# Base-sign sums, lifted to masks. (+) + (-) can land anywhere.
_ADD3 = {
    (1, 1): _POS,
    (1, 0): _POS,
    (0, 1): _POS,
    (1, -1): _ALL,
    (-1, 1): _ALL,
    (0, 0): _ZERO,
    (0, -1): _NEG,
    (-1, 0): _NEG,
    (-1, -1): _NEG,
}

_TOKENS = {
    _POS: "+",
    _ZERO: "0",
    _NEG: "-",
    _POS | _ZERO: "+0",
    _NEG | _ZERO: "-0",
    _POS | _NEG: "+-",
    _ALL: "?",
    _UP: "^",
    _DOWN: "v",
}
_CODES_BY_TOKEN = {tok: code for code, tok in _TOKENS.items()}


class QSign:
    """A qualitative change or derivative value.

    Wraps a small integer code: bits for the base signs of a sign set, or
    one of two reserved marker codes.  ``QSign(code)`` returns the one
    shared instance for that code; the module constants (POS, ZERO, NEG,
    UNKNOWN, POS_ZERO, NEG_ZERO, UP, DOWN) name the common ones.
    """

    __slots__ = ("code",)
    code: int

    def __new__(cls, code: int) -> "QSign":
        try:
            return _SIGN_OF_CODE[code]
        except KeyError:
            raise ValueError(f"invalid QSign code {code!r}") from None

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QSign values are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("QSign values are immutable")

    def __hash__(self) -> int:
        return self.code

    def __reduce__(self):
        return QSign, (self.code,)

    # -- classification -------------------------------------------------

    @property
    def is_marker(self) -> bool:
        return self.code > _ALL

    def issubset(self, other: "QSign") -> bool:
        if self.is_marker or other.is_marker:
            return self is other
        return self.code & other.code == self.code

    def union(self, other: "QSign") -> "QSign":
        if self.is_marker or other.is_marker:
            raise ValueError("cannot take the union of marker values")
        return _SIGN_OF_CODE[self.code | other.code]

    def negated(self) -> "QSign":
        """Mirror a sign set (+ and - swap, 0 is fixed)."""
        if self.is_marker:
            raise ValueError("markers cannot be negated")
        m = self.code & _ZERO
        if self.code & _POS:
            m |= _NEG
        if self.code & _NEG:
            m |= _POS
        return _SIGN_OF_CODE[m]

    def widened(self) -> "QSign":
        """Monotone widening used when crossing formalisms: adds 0 as a
        possible direction."""
        if self.is_marker:
            raise ValueError("markers cannot be widened")
        return _SIGN_OF_CODE[self.code | _ZERO]

    # -- text ------------------------------------------------------------

    def token(self) -> str:
        return _TOKENS[self.code]

    @staticmethod
    def from_token(text: str) -> "QSign":
        try:
            return _SIGN_OF_CODE[_CODES_BY_TOKEN[text]]
        except KeyError:
            raise ValueError(f"unknown sign token {text!r}") from None

    __str__ = token

    def __repr__(self) -> str:
        return f"QSign({self.token()!r})"


def _intern(code: int) -> QSign:
    sign = object.__new__(QSign)
    object.__setattr__(sign, "code", code)
    return sign


#: The shared instance of every valid code.
_SIGN_OF_CODE = {code: _intern(code) for code in _TOKENS}

POS = QSign(_POS)
ZERO = QSign(_ZERO)
NEG = QSign(_NEG)
POS_ZERO = QSign(_POS | _ZERO)
NEG_ZERO = QSign(_NEG | _ZERO)
UNKNOWN = QSign(_ALL)
UP = QSign(_UP)
DOWN = QSign(_DOWN)


def sign_of(x: float, zero_tolerance: float = 0.0) -> QSign:
    """Qualitative sign of a real number, as a singleton sign set.

    ``zero_tolerance`` absorbs floating-point noise: anything within it of
    zero reads as no change.  Symbolic callers use 0, numeric oracles a
    small positive tolerance.
    """
    if not math.isfinite(x):
        raise ValueError(f"sign of non-finite value {x!r}")
    if zero_tolerance < 0:
        raise ValueError("zero_tolerance must be nonnegative")
    if x > zero_tolerance:
        return POS
    if x < -zero_tolerance:
        return NEG
    return ZERO


# ---------------------------------------------------------------------------
# arithmetic: lifted set definitions, tabulated over the codes at import
# ---------------------------------------------------------------------------

def _members(code: int) -> frozenset[int]:
    return frozenset(s for s, bit in _BIT_OF_SIGN.items() if code & bit)


def _lifted_add(a: int, b: int) -> int:
    """Code of the sum of two sign sets: the union of their base sums."""
    mask = 0
    for sa in _members(a):
        for sb in _members(b):
            mask |= _ADD3[(sa, sb)]
    return mask


def _lifted_mul(change: int, deriv: int) -> int:
    """Code of a sign-set change times a derivative value (marker or set)."""
    mask = 0
    if deriv == _UP:
        for s in _members(change):
            mask |= (_POS | _ZERO) if s > 0 else _ZERO
    elif deriv == _DOWN:
        for s in _members(change):
            mask |= (_NEG | _ZERO) if s < 0 else _ZERO
    else:
        for sa in _members(change):
            for sb in _members(deriv):
                mask |= _BIT_OF_SIGN[sa * sb]
    return mask


# _ADD[a][b] and _MUL[change][deriv] are result codes.  Rows exist only for
# sign-set codes (index 0 is a placeholder), so a marker in a sign-set
# position raises IndexError, which the operations turn into ValueError.
_SET_CODES = range(1, _ALL + 1)
_ADD = ((),) + tuple(tuple([0] + [_lifted_add(a, b) for b in _SET_CODES]) for a in _SET_CODES)
_MUL = ((),) + tuple(
    tuple(_lifted_mul(c, d) if d in _SIGN_OF_CODE else 0 for d in range(_DOWN + 1)) for c in _SET_CODES
)


def qadd(a: QSign, b: QSign) -> QSign:
    """Qualitative addition, lifted over sign sets.

    Rejects markers: they are derivative annotations, not changes, and the
    addition table is defined on changes only.
    """
    try:
        return _SIGN_OF_CODE[_ADD[a.code][b.code]]
    except IndexError:
        raise ValueError("qualitative addition is undefined for markers") from None


def qmul(change: QSign, deriv: QSign) -> QSign:
    """Qualitative multiplication of a change by a derivative.

    The derivative may be a marker.  An up marker lets increases through
    and absorbs decreases (a positive change yields "zero or positive", a
    negative one exactly zero); the down marker is the mirror image.  The
    result is always a sign set.
    """
    try:
        return _SIGN_OF_CODE[_MUL[change.code][deriv.code]]
    except IndexError:
        raise ValueError("the change operand cannot be a marker") from None


def qsum(values: Iterable[QSign]) -> QSign:
    """Fold qualitative addition over ``values``; an empty fold is ZERO."""
    acc = _ZERO
    try:
        for v in values:
            acc = _ADD[acc][v.code]
    except IndexError:
        raise ValueError("qualitative addition is undefined for markers") from None
    return _SIGN_OF_CODE[acc]


class _Slotted:
    """Base of the package's records read in hot loops.  A subclass names
    its fields in ``__slots__``; its ``__init__`` fills them through their
    member descriptors' ``__set__`` (``_setters``, or ``_fill`` for all),
    since assignment raises.  A record equals, and hashes as, only a record
    of its class with equal fields, prints as ``Class(field=value, ...)``
    and pickles as a call of its class on its fields."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(vars(cls).get("__slots__", ()))
        cls._setters = tuple([vars(cls)[name].__set__ for name in cls._fields])

    def _fill(self, values: tuple) -> None:
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} records are immutable")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join([f'{n}={getattr(self, n)!r}' for n in self._fields])})"

    def __reduce__(self):
        return type(self), self._astuple()


class QMatrix(_Slotted):
    """A matrix of qualitative derivatives.

    Rows range over child outcomes, columns over parent outcomes.  Entries
    may be markers (state-dependent possibilistic links produce them).
    """

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[QSign, ...], ...]) -> None:
        if not rows:
            raise ValueError("a derivative matrix needs at least one row")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged derivative matrix")
        self._fill((rows,))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    def __getitem__(self, i: int) -> tuple[QSign, ...]:
        return self.rows[i]

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(e.token() for e in row) for row in self.rows) + "]"



def qmatvec_terms(m: QMatrix, v: tuple[QSign, ...]) -> tuple[tuple[QSign, ...], ...]:
    """The products ``qmul(v[j], m[i][j])``, row by row, of a tuple of
    changes through a derivative matrix; ``qsum`` of row i is the change
    the matrix sends to child outcome i."""
    n_cols = len(m.rows[0])
    if n_cols != len(v):
        raise ValueError(f"dimension mismatch: matrix has {n_cols} columns, vector {len(v)} entries")
    try:
        products = [_MUL[e.code] for e in v]
    except IndexError:
        raise ValueError("the change operand cannot be a marker") from None
    return tuple(tuple([_SIGN_OF_CODE[p[d.code]] for p, d in zip(products, row)]) for row in m.rows)
