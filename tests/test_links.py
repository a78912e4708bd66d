"""Link derivatives: worked examples, then containment against small
independent numeric oracles (total probability, sup-min, mass sums)."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    rand_bel_cond1,
    rand_bel_cond2,
    rand_poss_cond1,
    rand_prob_cond1,
    rand_prob_cond2,
)
from qcnet.links import (
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


# -- belief, two parents -----------------------------------------------------

def pain_table() -> BelCond2Joint:
    return BelCond2Joint.from_values({
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
        m = BelCond2Joint.from_values({}).derivative()
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
            swapped = BelCond2Joint.from_values(
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
