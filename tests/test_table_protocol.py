"""The conditional-table protocol: a new kind of link propagates, explains
and is verified (or refused) by the oracle through its table's methods
alone."""

from dataclasses import dataclass

import pytest

from qcnet.links import ConditionalTable, ProbCond1
from qcnet.network import POSS, PROB, Link, Network, Variable, explain, propagate, validate
from qcnet.oracle import INCREASE, RESAMPLE_CAP, OracleError, PerturbationSpec, check_containment
from qcnet.signs import NEG, POS, QMatrix


@dataclass(frozen=True)
class Copy(ConditionalTable):
    """A probability link whose child copies its one parent."""

    formalism = PROB
    arity = 1

    def derivative(self) -> QMatrix:
        return QMatrix(((POS, NEG), (NEG, POS)))

    def cases(self, matrix):
        return (("copies", "opposes"), ("opposes", "copies"))

    def evaluate(self, parent_values):
        return parent_values[0]


@dataclass(frozen=True)
class Opaque(Copy):
    """The same derivative, but no exact formula."""

    no_formula = "opaque tables have no formula"


@dataclass(frozen=True)
class Gapped(ConditionalTable):
    """A copying link stated as one rule per entry: every entry is decided
    with the same given gap, so its derivative and margin come from the
    base class."""

    formalism = PROB
    arity = 1

    gap: float

    def _entries(self):
        return (POS, self.gap), (NEG, self.gap), (NEG, self.gap), (POS, self.gap)

    def evaluate(self, parent_values):
        return parent_values[0]


def copy_net(table: ConditionalTable) -> Network:
    return Network(
        [Variable("a", PROB), Variable("c", PROB), Variable("d", PROB)],
        [Link("c", ("a",), table), Link("d", ("c",), ProbCond1(0.8, 0.2))],
    )


class TestTableProtocol:
    def test_new_table_type_propagates(self):
        net = copy_net(Copy())
        assert validate(net).ok
        changes = propagate(net, {"a": POS}).changes
        assert changes["c"] == (POS, NEG)
        assert changes["d"] == (POS, NEG)

    def test_new_table_type_explains(self):
        entry = explain(copy_net(Copy()))[0]
        matrix = Copy().derivative()
        assert (entry.child, entry.matrix, entry.cases) == ("c", matrix, Copy().cases(matrix))

    def test_new_table_type_verifies(self):
        spec = PerturbationSpec("a", INCREASE, trials=20, seed=3)
        report = check_containment(copy_net(Copy()), {"a": POS}, spec)
        assert report.passed and report.completed == 20

    def test_table_without_formula_is_refused(self):
        net = copy_net(Opaque())
        assert propagate(net, {"a": POS}).changes["d"] == (POS, NEG)
        spec = PerturbationSpec("a", INCREASE, trials=3, seed=0)
        with pytest.raises(OracleError, match="cannot evaluate 'c': opaque tables have no formula"):
            check_containment(net, {"a": POS}, spec)

    def test_probability_link_from_possibility_parent_without_prior(self):
        # only state-dependent tables read their parents' possibility states
        net = Network(
            [Variable("a", POSS), Variable("c", PROB)],
            [Link("c", ("a",), ProbCond1(0.8, 0.2))],
        )
        assert explain(net)[0].matrix == ProbCond1(0.8, 0.2).derivative()
        assert propagate(net, {"c": POS}).changes["c"] == (POS, NEG)


class TestTableStatingOnlyEntries:
    def test_propagates_and_explains(self):
        net = copy_net(Gapped(0.1))
        assert validate(net).ok
        changes = propagate(net, {"a": POS}).changes
        assert changes["c"] == changes["d"] == (POS, NEG)
        entry = explain(net)[0]
        assert entry.matrix == QMatrix(((POS, NEG), (NEG, POS)))
        assert entry.cases == (("follows", "varies-inversely"), ("varies-inversely", "follows"))

    def test_wide_gap_completes_every_trial(self):
        spec = PerturbationSpec("a", INCREASE, trials=20, seed=3)
        report = check_containment(copy_net(Gapped(0.1)), {"a": POS}, spec)
        assert report.passed
        assert (report.completed, report.resampled, report.skipped) == (20, 0, 0)

    def test_narrow_gap_resamples_and_skips_every_trial(self):
        assert Gapped(1e-12).margin() == 1e-12
        spec = PerturbationSpec("a", INCREASE, trials=5, seed=3)
        report = check_containment(copy_net(Gapped(1e-12)), {"a": POS}, spec)
        assert (report.completed, report.resampled, report.skipped) == (0, 5 * RESAMPLE_CAP, 5)

    def test_table_stating_its_derivative_has_no_margin(self):
        assert Copy().margin() == float("inf")


class Scaled(ConditionalTable):
    """A table written as a plain class, keeping its number as an attribute."""

    formalism = PROB
    arity = 1

    def __init__(self, weight: float):
        self.weight = weight

    def _entries(self):
        return (POS, self.weight), (NEG, self.weight), (NEG, self.weight), (POS, self.weight)


class TestPlainTableClass:
    def test_keeps_its_attributes_and_identity(self):
        # only the package's own tables are immutable records
        first, second = Scaled(0.5), Scaled(0.5)
        assert first != second and first == first
        first.weight = 0.25
        assert first.margin() == 0.25
        assert propagate(copy_net(second), {"a": POS}).changes["c"] == (POS, NEG)
