"""Sign algebra: canonical tables cell-for-cell, lattice laws, soundness."""

import copy
import functools
import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcnet.signs import (
    DOWN,
    NEG,
    NEG_ZERO,
    POS,
    POS_ZERO,
    QMatrix,
    QSign,
    SIGN_SETS,
    UNKNOWN,
    UP,
    ZERO,
    qadd,
    qmatvec_terms,
    qmul,
    qsum,
    sign_of,
)

sign_sets = st.sampled_from(SIGN_SETS)

# magnitudes kept away from overflow/underflow so float sums and products
# cannot lose their true sign to rounding
_reals = st.floats(
    min_value=-1e75, max_value=1e75, allow_nan=False, allow_infinity=False
).filter(lambda x: x == 0 or abs(x) > 1e-75)


class TestCanonicalTables:
    """The canonical 4x4 addition and multiplication tables."""

    ADD = {
        (POS, POS): POS, (POS, ZERO): POS, (POS, NEG): UNKNOWN, (POS, UNKNOWN): UNKNOWN,
        (ZERO, POS): POS, (ZERO, ZERO): ZERO, (ZERO, NEG): NEG, (ZERO, UNKNOWN): UNKNOWN,
        (NEG, POS): UNKNOWN, (NEG, ZERO): NEG, (NEG, NEG): NEG, (NEG, UNKNOWN): UNKNOWN,
        (UNKNOWN, POS): UNKNOWN, (UNKNOWN, ZERO): UNKNOWN, (UNKNOWN, NEG): UNKNOWN,
        (UNKNOWN, UNKNOWN): UNKNOWN,
    }

    MUL = {
        (POS, POS): POS, (POS, ZERO): ZERO, (POS, NEG): NEG, (POS, UNKNOWN): UNKNOWN,
        (ZERO, POS): ZERO, (ZERO, ZERO): ZERO, (ZERO, NEG): ZERO, (ZERO, UNKNOWN): ZERO,
        (NEG, POS): NEG, (NEG, ZERO): ZERO, (NEG, NEG): POS, (NEG, UNKNOWN): UNKNOWN,
        (UNKNOWN, POS): UNKNOWN, (UNKNOWN, ZERO): ZERO, (UNKNOWN, NEG): UNKNOWN,
        (UNKNOWN, UNKNOWN): UNKNOWN,
    }

    # the extra multiplication columns for the directional markers
    MUL_MARKERS = {
        (POS, UP): POS_ZERO, (ZERO, UP): ZERO, (NEG, UP): ZERO, (UNKNOWN, UP): POS_ZERO,
        (POS, DOWN): ZERO, (ZERO, DOWN): ZERO, (NEG, DOWN): NEG_ZERO, (UNKNOWN, DOWN): NEG_ZERO,
    }

    def test_addition_table(self):
        for (a, b), expected in self.ADD.items():
            assert qadd(a, b) == expected, f"{a} + {b}"

    def test_multiplication_table(self):
        for (a, b), expected in self.MUL.items():
            assert qmul(a, b) == expected, f"{a} * {b}"

    def test_marker_columns(self):
        for (a, b), expected in self.MUL_MARKERS.items():
            assert qmul(a, b) == expected, f"{a} * {b}"

    def test_interval_addition_example(self):
        # enumerating the lifted set {+ + +, 0 + +} gives {+}
        assert qadd(POS_ZERO, POS) == POS


class TestSignOf:
    def test_positive(self):
        assert sign_of(0.4, 0) == POS

    def test_zero(self):
        assert sign_of(0, 0) == ZERO

    def test_within_tolerance(self):
        assert sign_of(-1e-15, 1e-12) == ZERO

    def test_negative(self):
        assert sign_of(-3.5) == NEG

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            sign_of(bad)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            sign_of(1.0, -1e-3)


class TestMarkers:
    def test_markers_rejected_in_addition(self):
        with pytest.raises(ValueError):
            qadd(UP, POS)
        with pytest.raises(ValueError):
            qadd(POS, DOWN)

    def test_marker_rejected_as_change(self):
        with pytest.raises(ValueError):
            qmul(UP, POS)

    def test_marker_never_negated(self):
        with pytest.raises(ValueError):
            UP.negated()

    @given(sign_sets)
    def test_up_never_yields_negative(self, change):
        assert not qmul(change, UP).contains(-1)

    @given(sign_sets)
    def test_down_never_yields_positive(self, change):
        assert not qmul(change, DOWN).contains(1)


class TestAlgebraicLaws:
    @given(sign_sets, sign_sets)
    def test_qadd_commutative(self, a, b):
        assert qadd(a, b) == qadd(b, a)

    @given(sign_sets, sign_sets)
    def test_qmul_commutative(self, a, b):
        assert qmul(a, b) == qmul(b, a)

    @given(sign_sets, sign_sets, sign_sets)
    def test_qadd_associative(self, a, b, c):
        assert qadd(qadd(a, b), c) == qadd(a, qadd(b, c))

    @given(sign_sets)
    def test_zero_is_qadd_identity(self, a):
        assert qadd(a, ZERO) == a

    @given(sign_sets)
    def test_zero_annihilates_qmul(self, a):
        assert qmul(a, ZERO) == ZERO
        assert qmul(ZERO, a) == ZERO

    @given(sign_sets, sign_sets, sign_sets)
    def test_lifting_monotone(self, a, b, c):
        wider = a.union(b)
        assert qadd(a, c).issubset(qadd(wider, c))
        assert qmul(a, c).issubset(qmul(wider, c))

    @given(_reals, _reals)
    def test_qadd_sound_for_reals(self, x, y):
        assert sign_of(x + y).issubset(qadd(sign_of(x), sign_of(y)))

    @given(_reals, _reals)
    def test_qmul_sound_for_reals(self, x, y):
        assert sign_of(x * y).issubset(qmul(sign_of(x), sign_of(y)))


class TestTextRendering:
    CASES = {
        POS: "+", ZERO: "0", NEG: "-", UNKNOWN: "?",
        POS_ZERO: "+0", NEG_ZERO: "-0", UP: "^", DOWN: "v",
    }

    def test_tokens(self):
        for value, token in self.CASES.items():
            assert value.token() == token
            assert str(value) == token

    def test_round_trip(self):
        for value, token in self.CASES.items():
            assert QSign.from_token(token) == value

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError):
            QSign.from_token("++")

    def test_pos_neg_set_renders(self):
        assert POS.union(NEG).token() == "+-"


def matvec(m, v):
    """Each row's products, summed: the change a matrix sends to each child outcome."""
    return tuple(qsum(row) for row in qmatvec_terms(m, v))


class TestVectorsAndMatrices:
    def test_matvec_consistent_rows(self):
        m = QMatrix(((POS, NEG), (NEG, POS)))
        assert matvec(m, (POS, NEG)) == (POS, NEG)

    def test_zero_vector_annihilates(self):
        m = QMatrix(((POS, NEG), (UNKNOWN, UP)))
        assert matvec(m, (ZERO, ZERO)) == (ZERO, ZERO)

    def test_conflicting_row_folds_to_unknown(self):
        m = QMatrix(((POS, POS),))
        assert matvec(m, (POS, NEG)) == (UNKNOWN,)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            qmatvec_terms(QMatrix(((POS, NEG),)), (POS,))

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError):
            QMatrix(((POS,), (POS, NEG)))

    def test_marker_entries_allowed_in_matrix(self):
        m = QMatrix(((UP, DOWN), (ZERO, POS)))
        assert matvec(m, (POS, NEG)) == (qadd(POS_ZERO, NEG_ZERO), qadd(ZERO, NEG))

    def test_empty_fold_yields_zero(self):
        m = QMatrix(((),))
        assert matvec(m, ()) == (ZERO,)


class TestConstructionErrors:
    def test_invalid_code_rejected(self):
        with pytest.raises(ValueError):
            QSign(0)
        with pytest.raises(ValueError):
            QSign(24)  # both marker bits

    def test_marker_union_rejected(self):
        with pytest.raises(ValueError):
            UP.union(POS)
        with pytest.raises(ValueError):
            POS.union(DOWN)

    def test_marker_widening_rejected(self):
        with pytest.raises(ValueError):
            DOWN.widened()

    def test_marker_subset_only_of_itself(self):
        assert UP.issubset(UP)
        assert not UP.issubset(DOWN)
        assert not UP.issubset(UNKNOWN)
        assert not UNKNOWN.issubset(UP)


class TestSubsetsAndCanonicals:
    @given(sign_sets)
    def test_everything_inside_unknown(self, a):
        assert a.issubset(UNKNOWN)

    @given(sign_sets, sign_sets)
    def test_union_is_least_upper_bound(self, a, b):
        u = a.union(b)
        assert a.issubset(u) and b.issubset(u)

    def test_widening(self):
        assert POS.widened() == POS_ZERO
        assert NEG.widened() == NEG_ZERO
        assert ZERO.widened() == ZERO
        assert UNKNOWN.widened() == UNKNOWN

    def test_negation(self):
        assert POS.negated() == NEG
        assert POS_ZERO.negated() == NEG_ZERO
        assert ZERO.negated() == ZERO
        assert UNKNOWN.negated() == UNKNOWN


class TestLookupTables:
    """The tabulated operations against the lifted set definitions."""

    BASE_ADD = {
        (1, 1): {1}, (1, 0): {1}, (1, -1): {1, 0, -1},
        (0, 1): {1}, (0, 0): {0}, (0, -1): {-1},
        (-1, 1): {1, 0, -1}, (-1, 0): {-1}, (-1, -1): {-1},
    }

    @staticmethod
    def members(value):
        """The base signs (+1, 0, -1) a sign set allows."""
        return [s for s in (1, 0, -1) if value.contains(s)]

    @staticmethod
    def from_members(signs):
        """The sign set of a nonempty collection of base signs."""
        return functools.reduce(QSign.union, ({1: POS, 0: ZERO, -1: NEG}[s] for s in signs))

    @classmethod
    def lifted_add(cls, a, b):
        return cls.from_members(
            s for sa in cls.members(a) for sb in cls.members(b) for s in cls.BASE_ADD[(sa, sb)]
        )

    @classmethod
    def lifted_mul(cls, change, deriv):
        if deriv is UP:
            return cls.from_members(s for sa in cls.members(change) for s in ((1, 0) if sa > 0 else (0,)))
        if deriv is DOWN:
            return cls.from_members(s for sa in cls.members(change) for s in ((-1, 0) if sa < 0 else (0,)))
        return cls.from_members(sa * sb for sa in cls.members(change) for sb in cls.members(deriv))

    def test_every_sum(self):
        for a in SIGN_SETS:
            for b in SIGN_SETS:
                expected = self.lifted_add(a, b)
                assert qadd(a, b) is expected, f"{a} + {b}"
                assert qsum((a, b)) is expected

    def test_every_product(self):
        for change in SIGN_SETS:
            for deriv in (*SIGN_SETS, UP, DOWN):
                assert qmul(change, deriv) is self.lifted_mul(change, deriv), f"{change} * {deriv}"

    def test_markers_rejected_as_changes(self):
        for marker in (UP, DOWN):
            for other in (*SIGN_SETS, UP, DOWN):
                with pytest.raises(ValueError, match="undefined for markers"):
                    qadd(marker, other)
                with pytest.raises(ValueError, match="undefined for markers"):
                    qadd(other, marker)
                with pytest.raises(ValueError, match="cannot be a marker"):
                    qmul(marker, other)
            with pytest.raises(ValueError, match="undefined for markers"):
                qsum((POS, marker))
            with pytest.raises(ValueError, match="cannot be a marker"):
                qmatvec_terms(QMatrix(((POS,),)), (marker,))

    def test_values_are_interned(self):
        for s in (*SIGN_SETS, UP, DOWN):
            assert QSign(s.code) is s
            assert QSign.from_token(s.token()) is s
            assert copy.deepcopy(s) is s and pickle.loads(pickle.dumps(s)) is s
        for a in SIGN_SETS:
            assert a.negated() in SIGN_SETS and a.negated() is QSign(a.negated().code)
            assert a.widened() is QSign(a.code | ZERO.code)
            for b in SIGN_SETS:
                assert a.union(b) is QSign(a.code | b.code)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            POS.code = 4

    def test_matvec_terms_fold_to_matvec(self):
        m = QMatrix(((UP, NEG, POS, DOWN), (ZERO, POS, UNKNOWN, UP)))
        v = (POS, NEG_ZERO, ZERO, UNKNOWN)
        terms = qmatvec_terms(m, v)
        assert terms == tuple(tuple(qmul(v[j], row[j]) for j in range(4)) for row in m.rows)
        assert matvec(m, v) == tuple(functools.reduce(qadd, row, ZERO) for row in terms)
