"""What every record of the package promises: equal and hashed by its
fields, never equal to a plain tuple or to a record of another type,
printed as ``Class(field=value, ...)``, immutable, built by position or by
keyword with its defaults, checked on construction, and copied and pickled
to an equal record."""

import copy
import pickle

import pytest

from qcnet.links import BelCond1, BelCond2Joint, BelCond2Separate, PossCond1, PossCond2, ProbCond1, ProbCond2
from qcnet.netfile import NetworkDocument, NodeDecl, ParseResult, parse_network
from qcnet.network import (
    PROB,
    ChangeReport,
    CompiledNetwork,
    Contribution,
    Link,
    LinkExplanation,
    Network,
    ValidationReport,
    Variable,
    explain,
    propagate,
)
from qcnet.oracle import ContainmentReport, PerturbationSpec, QuantModel, VariableCheck
from qcnet.signs import NEG, POS, ZERO, QMatrix

TABLE = ProbCond1(0.8, 0.2)
BEL = BelCond1(0.7, 0.1, 0.3, 0.1, 0.6, 0.3)
CHECK = VariableCheck("c", "checked", (POS, NEG), (3, 0, 0), (0, 0, 3), 0, "PASS")


def chain(p: float) -> Network:
    return Network([Variable("a", PROB), Variable("c", PROB)], [Link("c", ("a",), ProbCond1(p, 0.2))])


NETS = chain(0.8), chain(0.8), chain(0.1)  # the last one's matrix differs

# each record's fields in order, and (record, an equal one, a different one)
RECORDS = {
    QMatrix: (("rows",), (
        QMatrix(((POS, NEG), (NEG, POS))), QMatrix(((POS, NEG), (NEG, POS))), QMatrix(((POS, NEG), (NEG, NEG))))),
    ProbCond1: (("p_c_given_a", "p_c_given_na"), (TABLE, ProbCond1(0.8, 0.2), ProbCond1(0.8, 0.3))),
    ProbCond2: (
        ("p_d_given_bc", "p_d_given_b_nc", "p_d_given_nb_c", "p_d_given_nb_nc"),
        (ProbCond2(0.9, 0.3, 0.5, 0.4), ProbCond2(0.9, 0.3, 0.5, 0.4), ProbCond2(0.9, 0.3, 0.5, 0.5)),
    ),
    PossCond1: (
        ("pi_c_given_a", "pi_c_given_na", "pi_nc_given_a", "pi_nc_given_na"),
        (PossCond1(1.0, 0.3, 0.6, 1.0), PossCond1(1.0, 0.3, 0.6, 1.0), PossCond1(1.0, 0.3, 0.7, 1.0)),
    ),
    PossCond2: (
        ("pi_d_given_bc", "pi_d_given_b_nc", "pi_d_given_nb_c", "pi_d_given_nb_nc",
         "pi_nd_given_bc", "pi_nd_given_b_nc", "pi_nd_given_nb_c", "pi_nd_given_nb_nc"),
        (PossCond2(1, 1, 0.5, 0.2, 0.1, 0.3, 1, 1), PossCond2(1, 1, 0.5, 0.2, 0.1, 0.3, 1, 1),
         PossCond2(1, 1, 0.5, 0.2, 0.1, 0.3, 1, 0.9)),
    ),
    BelCond1: (
        ("bel_c_given_a", "bel_c_given_na", "bel_c_given_frame", "bel_nc_given_a", "bel_nc_given_na",
         "bel_nc_given_frame"),
        (BEL, BelCond1(0.7, 0.1, 0.3, 0.1, 0.6, 0.3), BelCond1(0.7, 0.1, 0.3, 0.1, 0.6, 0.2)),
    ),
    BelCond2Joint: (("cells",), (
        BelCond2Joint((0.1,) * 9 + (0.2,) * 9), BelCond2Joint((0.1,) * 9 + (0.2,) * 9), BelCond2Joint((0.1,) * 18))),
    BelCond2Separate: (("for_first", "for_second"), (
        BelCond2Separate(BEL, BelCond1()), BelCond2Separate(BEL, BelCond1()), BelCond2Separate(BelCond1(), BEL))),
    Link: (("child", "parents", "table"), (
        Link("c", ("a",), TABLE), Link("c", ("a",), ProbCond1(0.8, 0.2)), Link("c", ("a", "b"), TABLE))),
    ValidationReport: (("errors", "warnings"), (
        ValidationReport(("e",), ()), ValidationReport(("e",), ()), ValidationReport((), ("e",)))),
    CompiledNetwork: (
        ("report", "children", "order", "matrices", "steps", "position", "pure"),
        tuple(net.compiled for net in NETS),
    ),
    Contribution: (("source", "change", "bridged"), (
        Contribution("a", (POS, NEG), True), Contribution("a", (POS, NEG), True), Contribution("a", (POS, NEG)))),
    ChangeReport: (
        ("changes", "matrices", "provenance"),
        tuple(propagate(net, {"a": POS}) for net in NETS),
    ),
    LinkExplanation: (("child", "parents", "matrix", "cases"), tuple(explain(net)[0] for net in NETS)),
    NetworkDocument: (("nodes", "priors", "links", "conds"), (
        NetworkDocument((NodeDecl("a", "prob", 1),)), NetworkDocument((NodeDecl("a", "prob", 2),)), NetworkDocument())),
    ParseResult: (("document", "diagnostics"), (
        parse_network("node a prob\n"), parse_network("node a prob\n"), parse_network("node a prob\nnode a prob\n"))),
    QuantModel: (("network", "priors"), (
        QuantModel(NETS[0], {"a": (0.5, 0.5)}), QuantModel(NETS[0], {"a": (0.5, 0.5)}),
        QuantModel(NETS[1], {"a": (0.5, 0.5)}))),
    PerturbationSpec: (("target", "direction", "epsilon", "trials", "seed"), (
        PerturbationSpec("a", "increase"), PerturbationSpec("a", "increase", 1e-4, 1000, 0),
        PerturbationSpec("a", "increase", seed=1))),
    VariableCheck: (
        ("name", "kind", "predicted", "observed_pos", "observed_neg", "failures", "verdict"),
        (CHECK, VariableCheck("c", "checked", (POS, NEG), (3, 0, 0), (0, 0, 3), 0, "PASS"),
         VariableCheck("c", "checked", (POS, NEG), (3, 0, 0), (0, 0, 3), 3, "FAIL")),
    ),
    ContainmentReport: (("rows", "trials", "completed", "resampled", "skipped"), (
        ContainmentReport((CHECK,), 3, 3, 0, 0), ContainmentReport((CHECK,), 3, 3, 0, 0),
        ContainmentReport((CHECK,), 3, 2, 1, 0))),
}
# records that hold a read-only mapping or a network: no hash, copy or pickle
UNHASHABLE = UNPICKLABLE = {CompiledNetwork, ChangeReport, QuantModel}

ids = lambda cls: cls.__name__  # noqa: E731


def fields_of(cls, rec) -> tuple:
    return tuple(getattr(rec, name) for name in RECORDS[cls][0])


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
class TestRecord:
    def test_equality_and_hash(self, cls):
        rec, same, different = RECORDS[cls][1]
        assert type(rec) is type(same) is type(different) is cls
        assert rec == same and not rec != same
        assert rec != different and not rec == different
        if cls not in UNHASHABLE:
            assert hash(rec) == hash(same)
            assert len({rec, same, different}) == 2

    def test_never_equal_to_a_plain_tuple(self, cls):
        rec = RECORDS[cls][1][0]
        plain = fields_of(cls, rec)
        for other in (plain, plain[:1], ()):
            assert rec != other and other != rec
            assert not rec == other and not other == rec

    def test_repr_names_every_field(self, cls):
        rec = RECORDS[cls][1][0]
        names = RECORDS[cls][0]
        inner = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields_of(cls, rec)))
        assert repr(rec) == f"{cls.__name__}({inner})"

    def test_immutable(self, cls):
        rec = RECORDS[cls][1][0]
        for name in RECORDS[cls][0]:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert fields_of(cls, rec) == fields_of(cls, RECORDS[cls][1][1])

    def test_no_new_attributes(self, cls):
        rec = RECORDS[cls][1][0]
        with pytest.raises(AttributeError):
            rec.extra = None

    def test_built_by_position_and_by_keyword(self, cls):
        rec = RECORDS[cls][1][0]
        values = fields_of(cls, rec)
        assert cls(*values) == rec
        assert cls(**dict(zip(RECORDS[cls][0], values))) == rec
        with pytest.raises(TypeError):
            cls(*values, None)


@pytest.mark.parametrize("cls", [cls for cls in RECORDS if cls not in UNPICKLABLE], ids=ids)
def test_copy_and_pickle_round_trips(cls):
    rec = RECORDS[cls][1][0]
    for copied in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(copied) is cls and copied == rec and hash(copied) == hash(rec)


@pytest.mark.parametrize("cls", [
    QMatrix, ProbCond1, ProbCond2, PossCond1, PossCond2, BelCond1, BelCond2Joint, BelCond2Separate, Link, PerturbationSpec,
], ids=ids)
def test_records_read_in_hot_loops_hold_no_instance_dict(cls):
    assert not hasattr(RECORDS[cls][1][0], "__dict__")


def test_records_of_other_types_are_never_equal():
    assert ProbCond2(0.1, 0.2, 0.3, 0.4) != PossCond1(0.1, 0.2, 0.3, 0.4)
    assert PossCond1(0.1, 0.2, 0.3, 0.4) != ProbCond2(0.1, 0.2, 0.3, 0.4)
    assert ValidationReport((), ()) != ParseResult((), ())
    assert ParseResult((), ()) != ValidationReport((), ())
    assert QuantModel("n", {}) != ParseResult("n", {})


def test_defaults():
    assert BelCond1(bel_c_given_a=0.5) == BelCond1(0.5, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert BelCond1() == BelCond1(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    spec = PerturbationSpec(target="a", direction="decrease")
    assert (spec.epsilon, spec.trials, spec.seed) == (1e-4, 1000, 0)
    assert NetworkDocument() == NetworkDocument((), (), (), ())
    assert NetworkDocument().conds == ()
    assert Contribution(source="evidence", change=(POS, ZERO)).bridged is False


def test_derived_attributes():
    assert ValidationReport((), ("w",)).ok and not ValidationReport(("e",), ()).ok
    assert ParseResult(NetworkDocument(), ()).ok
    assert QMatrix(((POS, NEG, ZERO, POS), (NEG, POS, ZERO, NEG))).shape == (2, 4)
    report = ContainmentReport((CHECK,), 3, 3, 0, 0)
    assert report.passed
    assert report.to_table() == (
        "variable\tpredicted\tobserved\tverdict\nc\t+,-\tx[+=3] ~x[-=3]\tPASS\n"
        "# trials=3 completed=3 resampled=0 skipped=0\n"
    )


@pytest.mark.parametrize("kwargs, message", [
    ({"direction": "up"}, "direction must be 'increase' or 'decrease'"),
    ({"epsilon": float("nan")}, "epsilon must be finite"),
    ({"epsilon": float("inf")}, "epsilon must be finite"),
    ({"epsilon": 0.0}, "epsilon must be positive"),
    ({"epsilon": -1e-3}, "epsilon must be positive"),
    ({"trials": 1.5}, "trials must be an integer"),
    ({"trials": True}, "trials must be an integer"),
    ({"trials": 0}, "trials must be positive"),
])
def test_perturbation_spec_errors(kwargs, message):
    with pytest.raises(ValueError) as exc:
        PerturbationSpec(**{"target": "a", "direction": "increase", **kwargs})
    assert str(exc.value) == message


def test_matrix_errors():
    with pytest.raises(ValueError, match="^ragged derivative matrix$"):
        QMatrix(((POS, NEG), (NEG,)))
    with pytest.raises(ValueError, match="^a derivative matrix needs at least one row$"):
        QMatrix(())


def test_table_range_errors():
    with pytest.raises(ValueError, match=r"^p\(c\|~a\) must lie in \[0, 1\], got 1\.5$"):
        ProbCond1(0.5, 1.5)
    with pytest.raises(ValueError, match=r"^bel\(~c\|a or ~a\) must lie in \[0, 1\], got -0\.1$"):
        BelCond1(bel_nc_given_frame=-0.1)
    with pytest.raises(ValueError, match=r"^bel\(c\|\.\) \+ bel\(~c\|\.\) must not exceed 1$"):
        BelCond1(bel_c_given_a=0.6, bel_nc_given_a=0.6)
