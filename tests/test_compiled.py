"""The compiled form of a network: built once, immutable, linear at any depth."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_polytree
from qcnet.cli import run_command
from qcnet.links import IGNORANT, ProbCond1
from qcnet.network import (
    PROB,
    Link,
    Network,
    NetworkError,
    Variable,
    complete_change,
    explain,
    propagate,
    validate,
)
from qcnet.oracle import OracleError, PerturbationSpec, check_containment
from qcnet.signs import NEG, POS, SIGN_SETS, ZERO, qadd, qmul

Z = (ZERO, ZERO)


def leaf_first_chain(n: int) -> Network:
    """A probability chain whose names sort leaf first: x{n-1} is the root."""
    names = [f"x{n - 1 - i:05d}" for i in range(n)]
    return Network(
        [Variable(v, PROB) for v in names],
        [Link(b, (a,), ProbCond1(0.7, 0.2)) for a, b in zip(names, names[1:])],
    )


def shuffled(net: Network, rng: random.Random) -> Network:
    variables = list(net.variables.values())
    links = list(net.links)
    rng.shuffle(variables)
    rng.shuffle(links)
    return Network(variables, links)


def fixpoint_descendants(net: Network, name: str) -> set[str]:
    """The definition: close {name} under 'a parent is in, so the child is'."""
    out = {name}
    changed = True
    while changed:
        changed = False
        for link in net.links:
            if link.child not in out and any(p in out for p in link.parents):
                out.add(link.child)
                changed = True
    return out


def cyclic_net() -> Network:
    return Network(
        [Variable("a", PROB), Variable("c", PROB)],
        [Link("c", ("a",), ProbCond1(0.8, 0.2)), Link("a", ("c",), ProbCond1(0.7, 0.1))],
    )


class TestCompileOnce:
    def test_compiled_form_is_cached(self, medical_net):
        assert medical_net.compiled is medical_net.compiled

    def test_later_queries_evaluate_no_link(self, monkeypatch):
        net = random_polytree(random.Random(5), 30)
        calls = []
        for table_type in {type(link.table) for link in net.links}:
            real = table_type.derivative
            monkeypatch.setattr(
                table_type, "derivative", lambda table, *states, real=real: calls.append(table) or real(table, *states)
            )
        first = propagate(net, {"v0": POS})
        assert len(calls) == len(net.links)
        second = propagate(net, {"v0": POS})
        explain(net)
        validate(net)
        assert len(calls) == len(net.links)
        assert first == second

    def test_compiled_matrices_match_link_matrix(self, medical_net):
        for link in medical_net.links:
            # the one possibility link has a probability parent: total ignorance
            states = [IGNORANT] * len(link.parents) if link.table.state_dependent else ()
            assert medical_net.compiled.matrices[link.child] == link.table.derivative(*states)

    def test_invalid_network_raises_on_every_query(self):
        net = cyclic_net()
        for _ in range(2):
            with pytest.raises(NetworkError, match="directed cycle"):
                propagate(net, {})
            with pytest.raises(NetworkError, match="directed cycle"):
                explain(net)
            with pytest.raises(NetworkError, match="directed cycle"):
                net.topological_order()
            with pytest.raises(OracleError, match="directed cycle"):
                check_containment(net, {"a": POS}, PerturbationSpec("a", "increase", trials=1))
            assert validate(net).errors == ("network contains a directed cycle",)


class TestImmutability:
    def test_variables_reject_assignment(self, medical_net):
        with pytest.raises(TypeError):
            medical_net.variables["zz"] = Variable("zz", PROB)

    def test_link_of_rejects_assignment(self, medical_net):
        with pytest.raises(TypeError):
            medical_net.link_of["t"] = medical_net.link_of["k"]

    def test_report_matrices_reject_assignment(self, medical_net):
        report = propagate(medical_net, {"s": POS})
        with pytest.raises(TypeError):
            report.matrices["k"] = report.matrices["v"]


class TestTopologicalOrder:
    def test_parents_precede_children(self):
        rng = random.Random(11)
        for _ in range(20):
            net = random_polytree(rng, 40)
            position = {name: i for i, name in enumerate(net.topological_order())}
            assert sorted(position) == sorted(net.variables)
            for link in net.links:
                assert all(position[p] < position[link.child] for p in link.parents)

    def test_independent_of_listing_order(self):
        rng = random.Random(13)
        for _ in range(20):
            net = random_polytree(rng, 40)
            assert shuffled(net, rng).topological_order() == net.topological_order()

    def test_deep_leaf_first_chain_propagates(self):
        net = leaf_first_chain(5000)
        report = propagate(net, {"x04999": POS})
        assert report.changes["x00000"] == (POS, NEG)
        assert report.trace("x00000") == {"x04999"}

    def test_deep_leaf_first_chain_validates_from_cli(self, tmp_path):
        names = [f"x{4999 - i:05d}" for i in range(5000)]
        lines = [f"node {v} prob" for v in names]
        for a, b in zip(names, names[1:]):
            lines += [f"link {a} -> {b}", f"cond {b} | {a} = 0.7", f"cond {b} | ~{a} = 0.2"]
        path = tmp_path / "chain.qn"
        path.write_text("\n".join(lines) + "\n")
        assert run_command(["validate", str(path)]) == (0, "ok\n")


class TestDescendants:
    def test_matches_fixpoint_on_shuffled_polytrees(self):
        rng = random.Random(17)
        for _ in range(30):
            net = shuffled(random_polytree(rng, rng.randint(1, 40)), rng)
            for name in net.variables:
                assert net.descendants(name) == fixpoint_descendants(net, name)


def _evidence(net: Network, rng: random.Random) -> dict:
    evidence = {}
    for name in rng.sample(sorted(net.variables), min(len(net.variables), rng.randint(1, 3))):
        var = net.variables[name]
        # a possibility value pinned at 1 cannot rise
        candidates = [s for s in SIGN_SETS if not (var.extremal_pos() and s.contains(1))]
        evidence[name] = rng.choice(candidates)
    return evidence


def ref_matvec(matrix, changes):
    """The change ``matrix`` sends to each child outcome, from qmul and qadd alone."""
    assert len(changes) == len(matrix.rows[0])
    return tuple(functools.reduce(qadd, map(qmul, changes, row), ZERO) for row in matrix.rows)


def bridge(change, from_formalism, to_formalism):
    """A change carried across a link: widened when it crosses formalisms."""
    if from_formalism is to_formalism:
        return change
    return change[0].widened(), change[1].widened()


class TestProvenance:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60))
    def test_contributions_equal_zero_padded_products(self, seed, n):
        rng = random.Random(seed)
        net = random_polytree(rng, n)
        report = propagate(net, _evidence(net, rng))
        for link in net.links:
            child_form = net.variables[link.child].formalism
            matrix = report.matrices[link.child]
            expected = []
            for idx, p in enumerate(link.parents):
                p_form = net.variables[p].formalism
                bridged = bridge(report.changes[p], p_form, child_form)
                cols = [ZERO] * 2 * len(link.parents)
                cols[2 * idx : 2 * idx + 2] = bridged
                part = ref_matvec(matrix, cols)
                if part != Z:
                    expected.append((p, part, p_form is not child_form))
            got = [
                (c.source, c.change, c.bridged)
                for c in report.provenance.get(link.child, ())
                if c.source != "evidence"
            ]
            assert got == expected


    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60))
    def test_changes_equal_full_matrix_products(self, seed, n):
        # the per-variable definition, evaluated at every variable, as
        # propagation walks every variable in topological order
        rng = random.Random(seed)
        net = random_polytree(rng, n)
        evidence = _evidence(net, rng)
        report = propagate(net, evidence)
        for name, var in net.variables.items():
            expected = Z
            link = net.link_of.get(name)
            if link is not None:
                incoming = []
                for p in link.parents:
                    p_form = net.variables[p].formalism
                    incoming += bridge(report.changes[p], p_form, var.formalism)
                expected = ref_matvec(report.matrices[name], incoming)
            if name in evidence:
                ev = complete_change(var, evidence[name])
                expected = (qadd(expected[0], ev[0]), qadd(expected[1], ev[1]))
            assert report.changes[name] == expected
