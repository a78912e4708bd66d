"""Network validation, evidence completion, bridging and propagation."""

import functools
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import SIGN_SETS, prob_chain_net, random_polytree
from qcnet.links import PossCond1, PossCond2, ProbCond1, ProbCond2
from qcnet.network import (
    BEL,
    ChangeVector,
    EvidenceError,
    Link,
    Network,
    NetworkError,
    POSS,
    PROB,
    Variable,
    complete_change,
    explain,
    propagate,
    validate,
)
from qcnet.oracle import INCREASE, PerturbationSpec, check_containment
from qcnet.signs import (
    DOWN,
    NEG,
    NEG_ZERO,
    POS,
    POS_ZERO,
    UNKNOWN,
    UP,
    ZERO,
    QSign,
    sign_of,
)

Z = (ZERO, ZERO)


def two_node_net(table=None) -> Network:
    return Network(
        [Variable("a", PROB), Variable("c", PROB)],
        [Link("c", ("a",), table or ProbCond1(0.8, 0.2))],
    )


class TestValidate:
    def test_medical_network_valid(self, medical_net):
        report = validate(medical_net)
        assert report.ok
        assert report.warnings == ()

    def test_directed_cycle(self):
        net = Network(
            [Variable("a", PROB), Variable("c", PROB)],
            [Link("c", ("a",), ProbCond1(0.8, 0.2)), Link("a", ("c",), ProbCond1(0.7, 0.1))],
        )
        report = validate(net)
        assert any("directed cycle" in e for e in report.errors)

    def test_diamond_not_singly_connected(self):
        net = Network(
            [Variable(n, PROB) for n in "abcd"],
            [
                Link("b", ("a",), ProbCond1(0.8, 0.2)),
                Link("c", ("a",), ProbCond1(0.7, 0.1)),
                Link("d", ("b", "c"), ProbCond2(0.9, 0.5, 0.4, 0.1)),
            ],
        )
        report = validate(net)
        assert any("singly connected" in e for e in report.errors)

    def test_two_links_per_child_rejected_structurally(self):
        with pytest.raises(NetworkError):
            Network(
                [Variable("a", PROB), Variable("b", PROB), Variable("c", PROB)],
                [Link("c", ("a",), ProbCond1(0.8, 0.2)), Link("c", ("b",), ProbCond1(0.7, 0.1))],
            )

    def test_unknown_endpoint(self):
        net = Network([Variable("c", PROB)], [Link("c", ("ghost",), ProbCond1(0.8, 0.2))])
        assert any("unknown variable" in e for e in validate(net).errors)

    def test_arity_mismatch(self):
        net = Network(
            [Variable("a", PROB), Variable("b", PROB), Variable("c", PROB)],
            [Link("c", ("a", "b"), ProbCond1(0.8, 0.2))],
        )
        assert any("expects 1" in e for e in validate(net).errors)

    def test_duplicate_parents(self):
        net = Network(
            [Variable("a", PROB), Variable("c", PROB)],
            [Link("c", ("a", "a"), ProbCond2(0.9, 0.5, 0.4, 0.1))],
        )
        assert any("same parent twice" in e for e in validate(net).errors)

    def test_formalism_mismatch(self):
        net = Network(
            [Variable("a", PROB), Variable("c", BEL)],
            [Link("c", ("a",), ProbCond1(0.8, 0.2))],
        )
        assert any("table but" in e for e in validate(net).errors)

    def test_possibility_parent_needs_prior(self):
        net = Network(
            [Variable("a", POSS), Variable("c", POSS)],
            [Link("c", ("a",), PossCond1(1.0, 0.3, 0.2, 1.0))],
        )
        assert any("needs an explicit prior" in e for e in validate(net).errors)

    def test_unnormalized_conditionals_warn(self):
        net = Network(
            [Variable("a", POSS, (1.0, 0.5)), Variable("c", POSS)],
            [Link("c", ("a",), PossCond1(0.9, 0.3, 0.2, 1.0))],
        )
        report = validate(net)
        assert report.ok
        assert any("do not reach 1" in w for w in report.warnings)

    def test_possibility_warnings_name_the_link_parents(self):
        one = Network(
            [Variable("r", POSS, (1.0, 0.5)), Variable("w", POSS)],
            [Link("w", ("r",), PossCond1(1.0, 0.3, 0.2, 0.9))],
        )
        assert validate(one).warnings == ("link r -> w: conditional possibilities given ~r do not reach 1",)
        two = Network(
            [Variable("r", POSS, (1.0, 0.5)), Variable("o", POSS, (0.4, 1.0)), Variable("w", POSS)],
            [Link("w", ("r", "o"), PossCond2(1, 0.5, 1, 0.5, 0.2, 0.3, 0.1, 0.6))],
        )
        assert validate(two).warnings == (
            "link r & o -> w: conditional possibilities given r,~o do not reach 1",
            "link r & o -> w: conditional possibilities given ~r,~o do not reach 1",
        )

    def test_bad_priors(self):
        net = Network([Variable("a", PROB, (0.7, 0.6))], [])
        assert any("sum to 1" in e for e in validate(net).errors)
        net = Network([Variable("a", POSS, (0.7, 0.6))], [])
        assert any("max 1" in e for e in validate(net).errors)
        net = Network([Variable("a", BEL, (0.7, 0.6))], [])
        assert any("at most 1" in e for e in validate(net).errors)
        net = Network([Variable("a", PROB, (1.5, -0.5))], [])
        assert any("[0, 1]" in e for e in validate(net).errors)


class TestConstruction:
    def test_three_parents_rejected(self):
        with pytest.raises(NetworkError):
            Link("d", ("a", "b", "c"), ProbCond1(0.8, 0.2))

    def test_duplicate_variable_rejected(self):
        with pytest.raises(NetworkError):
            Network([Variable("a", PROB), Variable("a", PROB)], [])

    def test_change_vector_rejects_markers(self):
        from qcnet.network import ChangeVector

        with pytest.raises(NetworkError):
            ChangeVector({"a": (UP, ZERO)})

    def test_change_vector_lookups_agree(self):
        # membership, get, len and iteration see the non-zero entries only;
        # indexing reads an unmentioned name as no change, as Counter does
        net = Network(
            [Variable("a", PROB), Variable("b", PROB), Variable("c", PROB)],
            [Link("b", ("a",), ProbCond1(0.8, 0.2))],
        )
        changes = propagate(net, {"a": POS}).changes
        assert list(changes) == ["a", "b"] and len(changes) == 2
        for name in ("a", "b"):
            assert name in changes
            assert changes.get(name, None) == changes[name] != (ZERO, ZERO)
        for name in ("c", "zz"):
            assert name not in changes
            assert changes.get(name, None) is None
            assert changes[name] == (ZERO, ZERO)
        assert dict(changes.items()) == {"a": changes["a"], "b": changes["b"]}
        # a zero change passed in is no entry either
        built = ChangeVector({"c": (ZERO, ZERO), "b": changes["b"], "a": changes["a"]})
        assert "c" not in built and list(built) == ["a", "b"] and built == changes


class TestRecords:
    """What ``Variable`` and ``Link`` promise: immutable values that compare
    and hash by their fields, equal only to a record of their own class, and
    print as before."""

    TABLE = ProbCond1(0.8, 0.2)
    RECORDS = (
        (Variable("a", PROB), Variable("a", PROB, None), Variable("a", BEL)),
        (Variable("a", POSS, (1.0, 0.4)), Variable("a", POSS, (1.0, 0.4)), Variable("a", POSS, (0.4, 1.0))),
        (Link("c", ("a",), TABLE), Link("c", ("a",), ProbCond1(0.8, 0.2)), Link("c", ("b",), TABLE)),
    )

    def test_equality_and_hash(self):
        for rec, same, different in self.RECORDS:
            assert rec == same and not rec != same
            assert hash(rec) == hash(same)
            assert rec != different and not rec == different
            assert len({rec, same, different}) == 2

    def test_never_equal_to_a_plain_tuple_or_another_record(self):
        for rec, _, _ in self.RECORDS:
            fields = (rec.name, rec.formalism, rec.prior) if isinstance(rec, Variable) else (
                rec.child, rec.parents, rec.table)
            assert rec != fields and fields != rec
            assert not rec == fields and not fields == rec
        assert Variable("c", PROB) != Link("c", ("a",), self.TABLE)

    def test_immutable(self):
        for rec, _, _ in self.RECORDS:
            for field in ("name", "formalism", "prior") if isinstance(rec, Variable) else ("child", "parents", "table"):
                with pytest.raises(AttributeError):
                    setattr(rec, field, None)
            with pytest.raises(AttributeError):
                rec.extra = 7

    def test_repr(self):
        assert repr(Variable("a", PROB)) == "Variable(name='a', formalism=<Formalism.PROBABILITY: 'prob'>, prior=None)"
        assert repr(Variable("l", POSS, (1.0, 0.4))) == (
            "Variable(name='l', formalism=<Formalism.POSSIBILITY: 'poss'>, prior=(1.0, 0.4))"
        )
        assert repr(Link("c", ("a",), self.TABLE)) == (
            "Link(child='c', parents=('a',), table=ProbCond1(p_c_given_a=0.8, p_c_given_na=0.2))"
        )

    def test_keywords_and_defaults(self):
        assert Variable(name="a", formalism=PROB) == Variable("a", PROB)
        assert Variable("a", PROB).prior is None
        assert Link(child="c", parents=("a",), table=self.TABLE) == Link("c", ("a",), self.TABLE)
        with pytest.raises(NetworkError, match="must have 1 or 2 parents"):
            Link("c", (), self.TABLE)


class TestCompleteChange:
    """The six completion tables: one per formalism for each of the
    extremal (value pinned at 1) and interior cases."""

    @pytest.mark.parametrize("given,expected", [(POS, NEG), (ZERO, ZERO), (NEG, POS)])
    def test_probability_interior(self, given, expected):
        var = Variable("a", PROB, (0.3, 0.7))
        assert complete_change(var, given) == (given, expected)

    @pytest.mark.parametrize("given,expected", [(ZERO, ZERO), (NEG, POS)])
    def test_probability_extremal(self, given, expected):
        var = Variable("a", PROB, (1.0, 0.0))
        assert complete_change(var, given) == (given, expected)

    def test_probability_increase_at_one_rejected(self):
        with pytest.raises(EvidenceError):
            complete_change(Variable("a", PROB, (1.0, 0.0)), POS)

    def test_probability_no_prior_is_interior(self):
        assert complete_change(Variable("a", PROB), POS) == (POS, NEG)

    @pytest.mark.parametrize("given,expected", [(ZERO, UNKNOWN), (NEG, POS_ZERO)])
    def test_possibility_at_one(self, given, expected):
        var = Variable("a", POSS, (1.0, 0.4))
        assert complete_change(var, given) == (given, expected)

    @pytest.mark.parametrize("given,expected", [(POS, NEG_ZERO), (ZERO, ZERO), (NEG, ZERO)])
    def test_possibility_interior(self, given, expected):
        var = Variable("a", POSS, (0.4, 1.0))
        assert complete_change(var, given) == (given, expected)

    def test_possibility_increase_at_one_rejected(self):
        with pytest.raises(EvidenceError):
            complete_change(Variable("a", POSS, (1.0, 0.4)), POS)

    def test_possibility_needs_prior(self):
        with pytest.raises(EvidenceError):
            complete_change(Variable("a", POSS), NEG)

    @pytest.mark.parametrize("given", [POS, ZERO, NEG])
    def test_belief_interior_always_unknown(self, given):
        var = Variable("a", BEL, (0.4, 0.3))
        assert complete_change(var, given) == (given, UNKNOWN)

    @pytest.mark.parametrize("given", [ZERO, NEG])
    def test_belief_extremal_always_unknown(self, given):
        var = Variable("a", BEL, (1.0, 0.0))
        assert complete_change(var, given) == (given, UNKNOWN)

    def test_belief_no_prior(self):
        assert complete_change(Variable("a", BEL), NEG) == (NEG, UNKNOWN)

    def test_interval_evidence_clips_to_feasible(self):
        var = Variable("a", PROB, (1.0, 0.0))
        assert complete_change(var, UNKNOWN) == (NEG_ZERO, POS_ZERO)

    def test_supplied_complement_kept_when_consistent(self):
        var = Variable("a", PROB, (0.3, 0.7))
        assert complete_change(var, (POS, NEG)) == (POS, NEG)

    def test_supplied_complement_conflict_rejected(self):
        var = Variable("a", PROB, (0.3, 0.7))
        with pytest.raises(EvidenceError):
            complete_change(var, (POS, POS))

    def test_supplied_complement_for_belief_is_free(self):
        var = Variable("a", BEL, (0.4, 0.3))
        assert complete_change(var, (ZERO, NEG)) == (ZERO, NEG)

    def test_markers_rejected(self):
        with pytest.raises(EvidenceError):
            complete_change(Variable("a", PROB), UP)

    @staticmethod
    def union_of_singletons(var, given):
        """A set of directions completes as the union of its feasible
        singletons' completions; with none feasible it is rejected."""
        completed = []
        for s in (POS, ZERO, NEG):
            if s.issubset(given):
                try:
                    completed.append(complete_change(var, s))
                except EvidenceError:
                    pass
        if not completed:
            raise EvidenceError("no feasible direction")
        return tuple(functools.reduce(QSign.union, side) for side in zip(*completed))

    @pytest.mark.parametrize(
        "formalism,prior",
        [(PROB, p) for p in (None, (0.3, 0.7), (1.0, 0.0), (0.0, 1.0))]
        + [(POSS, p) for p in (None, (1.0, 0.4), (0.4, 1.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))]
        + [(BEL, p) for p in (None, (0.4, 0.3), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0))],
    )
    def test_every_evidence_value_completes_as_union_of_singletons(self, formalism, prior):
        var = Variable("a", formalism, prior)
        for given in SIGN_SETS:
            try:
                expected = self.union_of_singletons(var, given)
            except EvidenceError:
                with pytest.raises(EvidenceError):
                    complete_change(var, given)
                continue
            assert complete_change(var, given) == expected, given


class TestBridgeChange:
    """Bridging widens each component of a change with ``QSign.widened``."""

    def test_probability_to_belief(self):
        assert (POS.widened(), NEG.widened()) == (POS_ZERO, NEG_ZERO)

    def test_probability_to_possibility(self):
        assert (NEG.widened(), POS.widened()) == (NEG_ZERO, POS_ZERO)

    def test_zero_never_sharpens(self):
        assert (ZERO.widened(), ZERO.widened()) == (ZERO, ZERO)

    def test_same_formalism_identity(self):
        net = Network(
            [Variable("a", PROB), Variable("c", PROB)],
            [Link("c", ("a",), ProbCond1(0.8, 0.2))],
        )
        report = propagate(net, {"a": POS})
        assert [step.bridged for step in net.compiled.steps] == [(), (False,)]
        (contrib,) = report.provenance["c"]
        assert contrib.change == report.changes["c"] == (POS, NEG)
        assert not contrib.bridged

    def test_subsets_widen_elementwise(self):
        assert (POS_ZERO.widened(), UNKNOWN.widened()) == (POS_ZERO, UNKNOWN)


class TestPropagate:
    def test_medical_end_to_end(self, medical_net):
        report = propagate(medical_net, {"s": POS})
        c = report.changes
        assert c["a"] == (POS, NEG)
        assert c["v"] == (NEG, POS)
        assert c["p"] == (POS_ZERO, NEG_ZERO)
        assert c["l"] == Z
        assert c["t"] == Z and c["d"] == Z and c["k"] == Z

    def test_empty_evidence_all_zero(self, medical_net):
        report = propagate(medical_net, {})
        assert all(report.changes[n] == Z for n in medical_net.variables)

    def test_unknown_evidence_variable(self, medical_net):
        with pytest.raises(NetworkError):
            propagate(medical_net, {"zz": POS})

    def test_invalid_network_rejected(self):
        net = Network(
            [Variable("a", PROB), Variable("c", PROB)],
            [Link("c", ("a",), ProbCond1(0.8, 0.2)), Link("a", ("c",), ProbCond1(0.7, 0.1))],
        )
        with pytest.raises(NetworkError):
            propagate(net, {})

    def test_chain_matches_exact_finite_difference(self):
        rng = random.Random(41)
        eps = 1e-4
        for _ in range(100):
            net = prob_chain_net(rng)
            t1 = net.link_of["c"].table
            t2 = net.link_of["e"].table
            p_a = rng.uniform(eps, 1 - eps)

            def p_e(pa):
                pc = pa * t1.p_c_given_a + (1 - pa) * t1.p_c_given_na
                return pc * t2.p_c_given_a + (1 - pc) * t2.p_c_given_na

            observed = sign_of(p_e(p_a + eps) - p_e(p_a), 1e-12)
            predicted = propagate(net, {"a": POS}).changes["e"][0]
            assert observed.issubset(predicted)

    def test_internal_evidence_combines_by_addition(self):
        net = two_node_net(ProbCond1(0.8, 0.2))
        # parent pushes c up, direct evidence pushes c down
        report = propagate(net, {"a": POS, "c": NEG})
        assert report.changes["c"] == (UNKNOWN, UNKNOWN)

    def test_marker_entries_gate_direction(self):
        cond = PossCond1(0.8, 0.6, 1.0, 1.0)
        net = Network(
            [Variable("a", POSS, (0.5, 1.0)), Variable("c", POSS)],
            [Link("c", ("a",), cond)],
        )
        assert net.compiled.matrices["c"][0][0] == UP
        # pin the complement channel at zero so only the marker entry acts
        up_run = propagate(net, {"a": (POS, ZERO)})
        down_run = propagate(net, {"a": (NEG, ZERO)})
        assert up_run.changes["c"][0] == POS_ZERO
        assert down_run.changes["c"][0] == ZERO

    def test_evidence_on_two_roots(self, medical_net):
        report = propagate(medical_net, {"s": POS, "t": POS})
        assert report.changes["k"] == (POS, NEG)
        assert report.changes["a"] == (POS, NEG)
        # pain's belief follows bel(k) and bel(~k) alike, so the falling
        # bel(~k) channel turns the combined effect ambiguous
        assert report.changes["p"][0] == UNKNOWN

    def test_matrices_recorded_per_child(self, medical_net):
        report = propagate(medical_net, {"s": POS})
        assert set(report.matrices) == {"k", "v", "a", "p", "l"}
        assert report.matrices["a"].shape == (2, 4)


sign_sets = st.sampled_from(SIGN_SETS)
markers = st.sampled_from((UP, DOWN))
not_a_sign = st.one_of(st.none(), st.text(max_size=3), st.integers(), st.floats(allow_nan=False))
# evidence values of the wrong shape: neither a QSign nor a pair of a QSign
# and a QSign or None
malformed = st.one_of(
    not_a_sign,
    st.tuples(),
    st.tuples(sign_sets),
    st.tuples(sign_sets, st.one_of(sign_sets, st.none()), sign_sets),
    st.tuples(not_a_sign, st.one_of(sign_sets, st.none())),
    st.tuples(sign_sets, not_a_sign.filter(lambda v: v is not None)),
    st.lists(sign_sets, min_size=2, max_size=2),
)
# the right shape, with a marker in either slot
with_markers = st.one_of(
    markers, st.tuples(markers, st.one_of(sign_sets, st.none())), st.tuples(sign_sets, markers)
)


class TestMalformedEvidence:
    """Every evidence value propagation cannot read raises EvidenceError."""

    @given(st.one_of(malformed, with_markers))
    def test_propagate_raises_evidence_error(self, value):
        with pytest.raises(EvidenceError):
            propagate(two_node_net(), {"a": value})

    @given(malformed, st.booleans())
    def test_unknown_name_is_reported_first(self, value, unknown_first):
        items = [("zz", POS), ("a", value)]
        evidence = dict(items[:: 1 if unknown_first else -1])
        with pytest.raises(NetworkError) as info:
            propagate(two_node_net(), evidence)
        assert type(info.value) is NetworkError
        assert str(info.value) == "evidence names unknown variable 'zz'"

    @given(malformed)
    def test_check_containment_raises_evidence_error(self, value):
        with pytest.raises(EvidenceError):
            check_containment(two_node_net(), {"a": value}, PerturbationSpec("a", INCREASE, trials=1))

    @pytest.mark.parametrize("value", [(POS,), "+"])
    def test_message_names_the_variable_and_value(self, value):
        message = f"evidence for 'a' must be a QSign or a (QSign, QSign or None) pair, got {value!r}"
        with pytest.raises(EvidenceError, match=f"^{re.escape(message)}$"):
            propagate(two_node_net(), {"a": value})


class TestProvenance:
    def test_bridge_flag_recorded(self, medical_net):
        report = propagate(medical_net, {"s": POS})
        sources = {c.source: c for c in report.provenance["p"]}
        assert sources["a"].bridged is True

    def test_unaffected_variable_has_no_provenance(self, medical_net):
        report = propagate(medical_net, {"s": POS})
        assert "t" not in report.provenance


class TestLatticeInvariants:
    def test_topological_soundness(self, medical_net):
        # evidence at v reaches only v and l
        report = propagate(medical_net, {"v": POS})
        downstream = medical_net.descendants("v")
        for name in medical_net.variables:
            if name not in downstream:
                assert report.changes[name] == Z

    def test_descendants_of_unknown_variable(self, medical_net):
        with pytest.raises(NetworkError, match="unknown variable 'zzz'"):
            medical_net.descendants("zzz")

    def test_idempotent_zero(self):
        rng = random.Random(43)
        for _ in range(25):
            net = random_polytree(rng)
            report = propagate(net, {})
            assert all(report.changes[n] == Z for n in net.variables)

    def test_widening_monotonicity_small(self):
        rng = random.Random(47)
        widen_options = [POS, NEG, ZERO]
        for _ in range(40):
            net = random_polytree(rng)
            name = rng.choice(sorted(net.variables))
            var = net.variables[name]
            base = NEG if var.formalism is POSS and var.extremal_pos() else rng.choice(widen_options)
            wider = base.union(rng.choice(widen_options))
            if var.formalism is POSS and var.extremal_pos():
                wider = wider.union(ZERO) if not POS.issubset(wider) else NEG_ZERO
            lo = propagate(net, {name: base}).changes
            hi = propagate(net, {name: wider}).changes
            for v in net.variables:
                assert lo[v][0].issubset(hi[v][0]) and lo[v][1].issubset(hi[v][1])

    def test_probability_coherence(self):
        rng = random.Random(53)
        for _ in range(40):
            net = random_polytree(rng)
            roots = [n for n in sorted(net.variables) if n not in net.link_of]
            name = rng.choice(roots)
            var = net.variables[name]
            sign = NEG if var.formalism is POSS and var.extremal_pos() else POS
            changes = propagate(net, {name: sign}).changes
            for v, variable in net.variables.items():
                if variable.formalism is PROB and (variable.prior is None or 1.0 not in variable.prior):
                    dx, dnx = changes[v]
                    assert dnx == dx.negated() or (ZERO.issubset(dx) and ZERO.issubset(dnx))


class TestExplain:
    def test_medical_matrices(self, medical_net):
        entries = {e.child: e for e in explain(medical_net)}
        assert entries["v"].matrix[0][0] == NEG
        assert entries["a"].matrix[0][2] == POS
        assert entries["p"].matrix[0][2] == POS
        assert entries["p"].matrix[0][3] == ZERO
        assert entries["p"].matrix[1][2] == NEG
        assert entries["p"].matrix[1][3] == POS
        assert all(e == ZERO for row in entries["l"].matrix.rows for e in row)

    def test_cases_labelled(self, medical_net):
        entries = {e.child: e for e in explain(medical_net)}
        assert entries["v"].cases[0][0] == "varies-inversely"
        assert entries["l"].cases[0][0] == "independent"
        assert "synergy" in entries["a"].cases[0][0]

    def test_flat_link_independent(self):
        net = two_node_net(ProbCond1(0.5, 0.5))
        (entry,) = explain(net)
        assert all(c == "independent" for row in entry.cases for c in row)
