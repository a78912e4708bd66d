"""Link derivatives: worked examples, then containment against small
independent numeric oracles (total probability, sup-min, mass sums)."""

import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    rand_bel_cond1,
    rand_bel_cond2,
    rand_poss_cond1,
    rand_prob_cond1,
    rand_prob_cond2,
)
from qcnet.links import (
    BEL,
    CELLS,
    PROB,
    BelCond1,
    BelCond2Joint,
    BelCond2Separate,
    IGNORANT,
    PossCond1,
    PossCond2,
    PossState,
    ProbCond1,
    ProbCond2,
)
from qcnet.signs import DOWN, NEG, POS, UNKNOWN, UP, ZERO, sign_of

EPS = 1e-4
TOL = 1e-12

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


# -- the cell layout -----------------------------------------------------------

VALUE_TABLES = (ProbCond1, ProbCond2, PossCond1, PossCond2, BelCond1, BelCond2Joint)


def construct(cls, values):
    """A table from its constructor's positional arguments."""
    return cls(tuple(values)) if cls is BelCond2Joint else cls(*values)


# each value's range-error label, in constructor order; the sum errors reach
# netfile diagnostics word for word
RANGE_LABELS = {
    ProbCond1: ("p(c|a)", "p(c|~a)"),
    ProbCond2: ("p(d|b,c)", "p(d|b,~c)", "p(d|~b,c)", "p(d|~b,~c)"),
    PossCond1: ("pi(c|a)", "pi(c|~a)", "pi(~c|a)", "pi(~c|~a)"),
    PossCond2: (
        "pi(d|b,c)", "pi(d|b,~c)", "pi(d|~b,c)", "pi(d|~b,~c)",
        "pi(~d|b,c)", "pi(~d|b,~c)", "pi(~d|~b,c)", "pi(~d|~b,~c)",
    ),
    BelCond1: ("bel(c|a)", "bel(c|~a)", "bel(c|a or ~a)", "bel(~c|a)", "bel(~c|~a)", "bel(~c|a or ~a)"),
    BelCond2Joint: (
        "bel(d|b,c)", "bel(d|b,~c)", "bel(d|b,c or ~c)",
        "bel(d|~b,c)", "bel(d|~b,~c)", "bel(d|~b,c or ~c)",
        "bel(d|b or ~b,c)", "bel(d|b or ~b,~c)", "bel(d|b or ~b,c or ~c)",
        "bel(~d|b,c)", "bel(~d|b,~c)", "bel(~d|b,c or ~c)",
        "bel(~d|~b,c)", "bel(~d|~b,~c)", "bel(~d|~b,c or ~c)",
        "bel(~d|b or ~b,c)", "bel(~d|b or ~b,~c)", "bel(~d|b or ~b,c or ~c)",
    ),
}
SUM_ERRORS = {
    BelCond1: "bel(c|.) + bel(~c|.) must not exceed 1",
    BelCond2Joint: "bel(d|X,Y) + bel(~d|X,Y) must not exceed 1",
}


class TestCellLayout:
    @pytest.mark.parametrize("cls", VALUE_TABLES, ids=lambda c: c.__name__)
    def test_get_over_layout_returns_constructor_arguments(self, cls):
        assert cls.child_outcomes == ((True,) if cls.formalism is PROB else (True, False))
        assert cls.parent_cells == (CELLS if cls.formalism is BEL else (True, False))
        assert cls.cell_keys == tuple(product(cls.child_outcomes, *[cls.parent_cells] * cls.arity))
        values = [0.01 * (i + 1) for i in range(len(cls.cell_keys))]
        for table in (construct(cls, values), cls.from_cells(values)):
            assert [table.get(*key) for key in cls.cell_keys] == values
        assert construct(cls, values) == cls.from_cells(values)

    @pytest.mark.parametrize(
        "cls, index, label",
        [(cls, i, label) for cls, labels in RANGE_LABELS.items() for i, label in enumerate(labels)],
        ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
    )
    def test_range_error_messages(self, cls, index, label):
        assert len(RANGE_LABELS[cls]) == len(cls.cell_keys)
        for bad in (1.5, -0.5, math.nan):
            values = [0.25] * len(cls.cell_keys)
            values[index] = bad
            with pytest.raises(ValueError) as exc:
                construct(cls, values)
            assert str(exc.value) == f"{label} must lie in [0, 1], got {bad!r}"

    @pytest.mark.parametrize(
        "cls, cells",
        [(cls, cells) for cls in SUM_ERRORS for cells in product(CELLS, repeat=cls.arity)],
        ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
    )
    def test_sum_error_messages(self, cls, cells):
        values = [0.25] * len(cls.cell_keys)
        for child_pos in (True, False):
            values[cls.cell_keys.index((child_pos, *cells))] = 0.6
        with pytest.raises(ValueError) as exc:
            construct(cls, values)
        assert str(exc.value) == SUM_ERRORS[cls]

    def test_joint_table_length_error(self):
        with pytest.raises(ValueError) as exc:
            BelCond2Joint((0.0,) * 17)
        assert str(exc.value) == "expected 18 conditional beliefs"

    @pytest.mark.parametrize("cls, columns", [
        (PossCond1, ("a", "~a")),
        (PossCond2, ("b,c", "b,~c", "~b,c", "~b,~c")),
    ], ids=["PossCond1", "PossCond2"])
    def test_possibility_warnings_name_each_column(self, cls, columns):
        assert construct(cls, [1.0] * len(cls.cell_keys)).warnings() == ()
        for cells, given in zip(product((True, False), repeat=cls.arity), columns):
            values = [0.5 if key[1:] == cells else 1.0 for key in cls.cell_keys]
            assert construct(cls, values).warnings() == (f"conditional possibilities given {given} do not reach 1",)

    @pytest.mark.parametrize("cls", (ProbCond1, BelCond1), ids=lambda c: c.__name__)
    def test_no_warnings_outside_possibility(self, cls):
        assert construct(cls, [0.0] * len(cls.cell_keys)).warnings() == ()


# -- independent oracles -----------------------------------------------------

def total_probability(cond: ProbCond1, p_a: float) -> float:
    return p_a * cond.p_c_given_a + (1.0 - p_a) * cond.p_c_given_na


def pair_probability(cond: ProbCond2, p_b: float, p_c: float) -> float:
    total = 0.0
    for bp in (True, False):
        for cp in (True, False):
            total += (p_b if bp else 1 - p_b) * (p_c if cp else 1 - p_c) * cond.get(True, bp, cp)
    return total


def sup_min1(cond: PossCond1, child_pos: bool, pi_a: float, pi_na: float) -> float:
    return max(min(cond.get(child_pos, True), pi_a), min(cond.get(child_pos, False), pi_na))


def separate_rules_entry(cond_y: float, cond_ny: float, pi_y: float, pi_ny: float):
    """A single-parent possibility entry decided by comparisons."""
    dominant = min(cond_y, pi_y) > min(cond_ny, pi_ny)
    headroom = pi_y < cond_y
    if dominant and headroom:
        return POS
    if headroom:
        return UP
    if dominant:
        return DOWN
    return ZERO


def separate_rules_degenerate(cond: PossCond1, state: PossState, tol: float) -> bool:
    """Single-parent degeneracy decided by gaps, apart from the entries."""
    for child_pos in (True, False):
        for parent_pos in (True, False):
            c_y = cond.get(child_pos, parent_pos)
            c_ny = cond.get(child_pos, not parent_pos)
            pi_y = state.get(parent_pos)
            pi_ny = state.get(not parent_pos)
            dom_gap = min(c_y, pi_y) - min(c_ny, pi_ny)
            head_gap = c_y - pi_y
            if dom_gap > 0 and head_gap > 0 and (dom_gap < tol or head_gap < tol):
                return True
    return False


def mass_sum(cond: BelCond1, bel_a: float, bel_na: float) -> float:
    m_frame = 1.0 - bel_a - bel_na
    return bel_a * cond.get(True, True) + bel_na * cond.get(True, False) + m_frame * cond.get(True, None)


# -- probability, single parent ----------------------------------------------

class TestProbLink:
    def test_knee_table_follows(self):
        m = ProbCond1(0.6, 0.2).derivative()
        assert m[0][0] == POS

    def test_vasculitis_table_inverse(self):
        m = ProbCond1(0.1, 0.3).derivative()
        assert m[0][0] == NEG
        assert m[0][1] == POS

    def test_equal_conditionals_independent(self):
        m = ProbCond1(0.5, 0.5).derivative()
        assert all(e == ZERO for row in m.rows for e in row)

    @given(unit, unit)
    def test_antisymmetry(self, pa, pna):
        m = ProbCond1(pa, pna).derivative()
        assert m[0][1] == m[0][0].negated()
        assert m[1][0] == m[0][0].negated()
        assert m[1][1] == m[0][0]

    @given(unit, unit)
    def test_trichotomy_total(self, pa, pna):
        m = ProbCond1(pa, pna).derivative()
        assert m[0][0] in (POS, ZERO, NEG)

    def test_finite_difference_containment(self):
        rng = random.Random(11)
        for _ in range(300):
            cond = rand_prob_cond1(rng)
            p_a = rng.uniform(EPS, 1 - EPS)
            m = cond.derivative()
            observed = sign_of(total_probability(cond, p_a + EPS) - total_probability(cond, p_a), TOL)
            assert observed.issubset(m[0][0])

    def test_values_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ProbCond1(1.2, 0.5)


# -- possibility, single parent ----------------------------------------------

class TestPossLink:
    def test_ignorant_state_all_independent(self):
        cond = PossCond1(1.0, 1.0, 0.1, 0.1)
        m = cond.derivative(IGNORANT)
        assert all(e == ZERO for row in m.rows for e in row)

    def test_dominant_with_headroom_follows(self):
        cond = PossCond1(0.8, 0.3, 1.0, 1.0)
        m = cond.derivative(PossState(0.5, 1.0))
        assert m[0][0] == POS
        # sup-min confirmation, both directions
        up = sup_min1(cond, True, 0.5 + EPS, 1.0) - sup_min1(cond, True, 0.5, 1.0)
        dn = sup_min1(cond, True, 0.5 - EPS, 1.0) - sup_min1(cond, True, 0.5, 1.0)
        assert up > 0 and dn < 0

    def test_dominant_without_headroom_may_follow_down(self):
        cond = PossCond1(0.8, 0.3, 1.0, 1.0)
        m = cond.derivative(PossState(1.0, 0.2))
        assert m[0][0] == DOWN
        # only decreases large enough to cross the conditional propagate
        dn = sup_min1(cond, True, 1.0 - 0.5, 0.2) - sup_min1(cond, True, 1.0, 0.2)
        assert dn < 0
        up_blocked = sup_min1(cond, True, 1.0, 0.2)
        assert up_blocked == sup_min1(cond, True, 1.0, 0.2)

    def test_non_dominant_with_headroom_may_follow_up(self):
        cond = PossCond1(0.8, 0.6, 1.0, 1.0)
        m = cond.derivative(PossState(0.5, 1.0))
        assert m[0][0] == UP
        # small decreases never get through: the other branch pins the sup
        dn = sup_min1(cond, True, 0.5 - EPS, 1.0) - sup_min1(cond, True, 0.5, 1.0)
        assert dn == 0.0
        # a large enough increase does
        up = sup_min1(cond, True, 0.75, 1.0) - sup_min1(cond, True, 0.5, 1.0)
        assert up > 0

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError):
            PossState(0.4, 0.6)

    def test_entries_restricted_to_cases(self):
        rng = random.Random(5)
        for _ in range(200):
            cond = rand_poss_cond1(rng)
            u = rng.random()
            state = PossState(1.0, u) if rng.random() < 0.5 else PossState(u, 1.0)
            m = cond.derivative(state)
            for row in m.rows:
                for e in row:
                    assert e in (POS, ZERO, UP, DOWN)

    # a few round values make ties and exact gaps common
    poss_values = st.one_of(st.sampled_from((0.0, 0.2, 0.5, 0.7, 1.0)), unit)

    @settings(max_examples=400, deadline=None)
    @given(
        st.tuples(poss_values, poss_values, poss_values, poss_values),
        poss_values,
        st.booleans(),
        st.floats(min_value=0.0, max_value=0.6),
    )
    def test_entries_and_degeneracy_match_separate_rules(self, values, u, x_at_one, tol):
        cond = PossCond1(*values)
        state = PossState(1.0, u) if x_at_one else PossState(u, 1.0)
        expected = tuple(
            tuple(
                separate_rules_entry(
                    cond.get(child_pos, parent_pos), cond.get(child_pos, not parent_pos),
                    state.get(parent_pos), state.get(not parent_pos),
                )
                for parent_pos in (True, False)
            )
            for child_pos in (True, False)
        )
        assert cond.derivative(state).rows == expected
        assert (cond.margin(state) < tol) == separate_rules_degenerate(cond, state, tol)
        assert (cond.margin(state) < 1e-9) == separate_rules_degenerate(cond, state, 1e-9)


# -- belief, single parent ---------------------------------------------------

class TestBelLink:
    def test_follows(self):
        cond = BelCond1(bel_c_given_a=0.9, bel_c_given_frame=0.3)
        m = cond.derivative()
        assert m[0][0] == POS
        # mass-sum oracle, finite difference in bel(a)
        base = mass_sum(cond, 0.4, 0.3)
        bumped = mass_sum(cond, 0.4 + EPS, 0.3)
        assert sign_of(bumped - base, TOL) == POS

    def test_equality_independent(self):
        cond = BelCond1(bel_c_given_a=0.3, bel_c_given_frame=0.3)
        assert cond.derivative()[0][0] == ZERO

    def test_varies_inversely(self):
        cond = BelCond1(bel_c_given_a=0.2, bel_c_given_frame=0.5)
        m = cond.derivative()
        assert m[0][0] == NEG
        base = mass_sum(cond, 0.4, 0.3)
        bumped = mass_sum(cond, 0.4 + EPS, 0.3)
        assert sign_of(bumped - base, TOL) == NEG

    def test_finite_difference_containment(self):
        rng = random.Random(3)
        for _ in range(300):
            cond = rand_bel_cond1(rng)
            bel_a = rng.uniform(0.1, 0.4)
            bel_na = rng.uniform(0.1, 0.4)
            m = cond.derivative()
            diff = mass_sum(cond, bel_a + EPS, bel_na) - mass_sum(cond, bel_a, bel_na)
            assert sign_of(diff, TOL).issubset(m[0][0])

    def test_superadditive_pair_rejected(self):
        with pytest.raises(ValueError):
            BelCond1(bel_c_given_a=0.7, bel_nc_given_a=0.5)


# -- probability, two parents ------------------------------------------------

ARTHRITIS = ProbCond2(0.9, 0.6, 0.6, 0.4)  # p(a|d,s), p(a|d,~s), p(a|~d,s), p(a|~d,~s)


class TestProbPair:
    def test_arthritis_follows_second_parent(self):
        m = ARTHRITIS.derivative()
        # columns are b, ~b, c, ~c; the second parent's columns are 2 and 3
        assert m[0][2] == POS
        assert m[0][3] == NEG

    def test_arthritis_first_parent(self):
        m = ARTHRITIS.derivative()
        assert m[0][0] == POS
        assert m[0][1] == NEG

    def test_flat_table_all_independent(self):
        m = ProbCond2(0.4, 0.4, 0.4, 0.4).derivative()
        assert all(e == ZERO for row in m.rows for e in row)

    def test_finite_difference_containment(self):
        rng = random.Random(17)
        for _ in range(300):
            cond = rand_prob_cond2(rng)
            p_b = rng.uniform(EPS, 1 - EPS)
            p_c = rng.uniform(EPS, 1 - EPS)
            m = cond.derivative()
            diff_b = pair_probability(cond, p_b + EPS, p_c) - pair_probability(cond, p_b, p_c)
            diff_c = pair_probability(cond, p_b, p_c + EPS) - pair_probability(cond, p_b, p_c)
            assert sign_of(diff_b, TOL).issubset(m[0][0])
            assert sign_of(diff_c, TOL).issubset(m[0][2])

    def test_parent_swap_permutes_columns(self):
        rng = random.Random(23)
        for _ in range(100):
            cond = rand_prob_cond2(rng)
            swapped = ProbCond2(
                cond.p_d_given_bc, cond.p_d_given_nb_c, cond.p_d_given_b_nc, cond.p_d_given_nb_nc
            )
            m = cond.derivative()
            ms = swapped.derivative()
            for i in range(2):
                assert ms[i][0] == m[i][2] and ms[i][1] == m[i][3]
                assert ms[i][2] == m[i][0] and ms[i][3] == m[i][1]


# -- possibility, two parents ------------------------------------------------

def make_pair_cond(dominant: float = 0.9, rest: float = 0.1) -> PossCond2:
    return PossCond2(dominant, rest, rest, rest, 1.0, 1.0, 1.0, 1.0)


def sup_min2(cond: PossCond2, child_pos: bool, sx: tuple, sy: tuple) -> float:
    best = 0.0
    for bp in (True, False):
        for cp in (True, False):
            best = max(best, min(cond.get(child_pos, bp, cp), sx[0 if bp else 1], sy[0 if cp else 1]))
    return best


class TestPossPair:
    def test_saturated_states_all_independent(self):
        cond = PossCond2(1, 1, 1, 1, 1, 1, 1, 1)
        m = cond.derivative(PossState(1, 1), PossState(1, 1))
        assert all(e == ZERO for row in m.rows for e in row)

    def test_dominant_joint_with_headroom_follows(self):
        cond = make_pair_cond()
        m = cond.derivative(PossState(0.4, 1.0), PossState(1.0, 0.2))
        assert m[0][0] == POS
        base = sup_min2(cond, True, (0.4, 1.0), (1.0, 0.2))
        up = sup_min2(cond, True, (0.4 + EPS, 1.0), (1.0, 0.2))
        dn = sup_min2(cond, True, (0.4 - EPS, 1.0), (1.0, 0.2))
        assert up > base and dn < base

    def test_dominant_joint_without_headroom_may_follow_down(self):
        cond = make_pair_cond()
        m = cond.derivative(PossState(1.0, 0.4), PossState(1.0, 0.2))
        assert m[0][0] == DOWN
        base = sup_min2(cond, True, (1.0, 0.4), (1.0, 0.2))
        up = sup_min2(cond, True, (1.0, 0.4), (1.0, 0.2))  # pi(b) cannot rise above 1
        assert up == base

    def test_entries_restricted_to_cases(self):
        rng = random.Random(31)
        from conftest import rand_poss_cond2, rand_poss_prior

        for _ in range(200):
            cond = rand_poss_cond2(rng)
            m = cond.derivative(PossState(*rand_poss_prior(rng)), PossState(*rand_poss_prior(rng)))
            for row in m.rows:
                for e in row:
                    assert e in (POS, ZERO, UP, DOWN)


# -- possibility entries against the per-entry rules -------------------------

def ref_poss_entry_1(cond_y, cond_ny, pi_y, pi_ny):
    """``links._poss_entry_1`` as it was when each entry read its own numbers."""
    dom_gap = min(cond_y, pi_y) - min(cond_ny, pi_ny)
    head_gap = cond_y - pi_y
    if dom_gap > 0 and head_gap > 0:
        return POS, min(dom_gap, head_gap)
    if head_gap > 0:
        return UP, math.inf
    if dom_gap > 0:
        return DOWN, math.inf
    return ZERO, math.inf


def ref_poss_pair_entry(cond, child_pos, x_first, x_pos, state_x, state_y):
    """``links._poss_pair_entry`` as it was when each entry recomputed its joints."""
    def c(xv, yv):
        return cond.get(child_pos, xv, yv) if x_first else cond.get(child_pos, yv, xv)

    def joint(xv, yv):
        return min(c(xv, yv), state_x.get(xv), state_y.get(yv))

    pi_x = state_x.get(x_pos)
    follows = up = down = False
    gap = math.inf
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


def ref_poss_entries_1(cond, state):
    return [
        ref_poss_entry_1(
            cond.get(child_pos, parent_pos), cond.get(child_pos, not parent_pos),
            state.get(parent_pos), state.get(not parent_pos),
        )
        for child_pos in (True, False)
        for parent_pos in (True, False)
    ]


def ref_poss_entries_2(cond, sx, sy):
    return [
        ref_poss_pair_entry(cond, child_pos, x_first, x_pos, *((sx, sy) if x_first else (sy, sx)))
        for child_pos in (True, False)
        for x_first in (True, False)
        for x_pos in (True, False)
    ]


# grid values make ties between table values, states and gaps common
GRID = tuple(i / 10 for i in range(11))
grid_or_unit = st.one_of(st.sampled_from(GRID), unit)


@st.composite
def poss_states(draw):
    u = draw(grid_or_unit)
    return PossState(1.0, u) if draw(st.booleans()) else PossState(u, 1.0)


class TestPossEntriesMatchPerEntryRules:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(grid_or_unit, min_size=4, max_size=4), poss_states())
    def test_single_parent(self, values, state):
        cond = PossCond1(*values)
        want = ref_poss_entries_1(cond, state)
        rows = tuple(entry for entry, _ in want)
        assert cond.derivative(state).rows == (rows[:2], rows[2:])
        assert cond.margin(state) == min(gap for _, gap in want)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(grid_or_unit, min_size=8, max_size=8), poss_states(), poss_states())
    def test_two_parents(self, values, sx, sy):
        cond = PossCond2(*values)
        want = ref_poss_entries_2(cond, sx, sy)
        rows = tuple(entry for entry, _ in want)
        assert cond.derivative(sx, sy).rows == (rows[:4], rows[4:])
        assert cond.margin(sx, sy) == min(gap for _, gap in want)


# -- belief, two parents -----------------------------------------------------

def bel_joint(values: dict) -> BelCond2Joint:
    """A joint belief table from the cells ``values`` lists; the others are 0."""
    return BelCond2Joint.from_cells(values.get(key, 0.0) for key in BelCond2Joint.cell_keys)


def pain_table() -> BelCond2Joint:
    return bel_joint({
        (True, True, True): 0.9,    # bel(p | k, a)
        (True, True, False): 0.7,   # bel(p | k, ~a)
        (True, False, True): 0.7,   # bel(p | ~k, a)
        (True, None, True): 0.6,    # bel(p | frame, a)
        (True, True, None): 0.7,    # bel(p | k, frame)
        (False, False, False): 0.5,  # bel(~p | ~k, ~a)
        (False, False, None): 0.4,  # bel(~p | ~k, frame)
    })


class TestBelPairJoint:
    def test_pain_table_second_parent(self):
        m = pain_table().derivative()
        assert m[0][2] == POS   # bel(p) follows bel(a)
        assert m[0][3] == ZERO  # bel(p) independent of bel(~a)

    def test_pain_table_negative_child(self):
        m = pain_table().derivative()
        assert m[1][2] == NEG   # bel(~p) varies inversely with bel(a)
        assert m[1][3] == POS   # bel(~p) follows bel(~a)

    def test_all_zero_table(self):
        m = bel_joint({}).derivative()
        assert all(e == ZERO for row in m.rows for e in row)

    def test_finite_difference_containment(self):
        rng = random.Random(37)
        for _ in range(200):
            cond = rand_bel_cond2(rng)
            m = cond.derivative()
            masses = lambda b, d: ((True, b), (False, d), (None, 1 - b - d))  # noqa: E731

            def joint_bel(bb, bnb, cb, cnb):
                return sum(
                    mb * mc * cond.get(True, kb, kc)
                    for kb, mb in masses(bb, bnb)
                    for kc, mc in masses(cb, cnb)
                )

            args = [rng.uniform(0.1, 0.4) for _ in range(4)]
            base = joint_bel(*args)
            bumped = joint_bel(args[0] + EPS, *args[1:])
            assert sign_of(bumped - base, TOL).issubset(m[0][0])


class TestParentSwapStability:
    """Relabeling which parent is 'first' permutes columns, nothing else."""

    def test_bel_pair_joint(self):
        rng = random.Random(59)
        cells = (True, False, None)
        for _ in range(50):
            cond = rand_bel_cond2(rng)
            swapped = bel_joint(
                {
                    (cp, cb, ca): cond.get(cp, ca, cb)
                    for cp in (True, False)
                    for ca in cells
                    for cb in cells
                }
            )
            m = cond.derivative()
            ms = swapped.derivative()
            for i in range(2):
                assert ms[i][:2] == m[i][2:]
                assert ms[i][2:] == m[i][:2]

    def test_poss_pair(self):
        from conftest import rand_poss_cond2, rand_poss_prior

        rng = random.Random(97)
        for _ in range(50):
            cond = rand_poss_cond2(rng)
            swapped = PossCond2(
                cond.pi_d_given_bc, cond.pi_d_given_nb_c, cond.pi_d_given_b_nc, cond.pi_d_given_nb_nc,
                cond.pi_nd_given_bc, cond.pi_nd_given_nb_c, cond.pi_nd_given_b_nc, cond.pi_nd_given_nb_nc,
            )
            sb, sc = PossState(*rand_poss_prior(rng)), PossState(*rand_poss_prior(rng))
            m = cond.derivative(sb, sc)
            ms = swapped.derivative(sc, sb)
            for i in range(2):
                assert ms[i][:2] == m[i][2:]
                assert ms[i][2:] == m[i][:2]


class TestBelPairSeparate:
    def test_weakly_follows(self):
        t = BelCond1(bel_c_given_a=0.7, bel_c_given_frame=0.2)
        m = BelCond2Separate(t, t).derivative()
        assert m[0][0] == POS

    def test_indeterminate(self):
        t = BelCond1(bel_c_given_a=0.1, bel_c_given_frame=0.2)
        m = BelCond2Separate(t, t).derivative()
        assert m[0][0] == UNKNOWN

    def test_equality_still_follows(self):
        t = BelCond1(bel_c_given_a=0.3, bel_c_given_frame=0.3)
        m = BelCond2Separate(t, t).derivative()
        assert m[0][0] == POS
