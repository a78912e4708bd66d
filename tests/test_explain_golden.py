"""``qcnet explain`` and ``qcnet validate`` on a network with a link of
every table type: the sign and case label of every derivative entry."""

from pathlib import Path

import pytest

from qcnet.cli import run_command

POSS = str(Path(__file__).resolve().parent / "data" / "poss.qn")

# One link of every table type: ProbCond1 (a -> b, d -> e), ProbCond2,
# PossCond1 and PossCond2 at interior parent states (so the markers show),
# BelCond1, a joint BelCond2Joint and a per-parent BelCond2Separate.
ALL_TABLES_QN = """\
node a prob
node b prob
node c prob
node d prob
node e prob
link a -> b
cond b | a = 0.7
cond b | ~a = 0.2
link b & c -> d
cond d | b, c = 0.9
cond d | b, ~c = 0.3
cond d | ~b, c = 0.5
cond d | ~b, ~c = 0.4
link d -> e
cond e | d = 0.2
cond e | ~d = 0.6

node m poss
node n poss
prior m 0.4 1
link m -> n
cond n | m = 1
cond n | ~m = 0.3
cond ~n | m = 0.6
cond ~n | ~m = 1
node r poss
node o poss
node w poss
prior r 0.6 1
prior o 1 0.5
link r & o -> w
cond w | r, o = 1
cond w | r, ~o = 0.2
cond w | ~r, o = 0.7
cond w | ~r, ~o = 0.4
cond ~w | r, o = 0.3
cond ~w | r, ~o = 1
cond ~w | ~r, o = 1
cond ~w | ~r, ~o = 0.8

node g bel
node h bel
node i bel
node j bel
link g -> h
cond h | g = 0.5
cond h | ~g = 0.2
cond h | g|~g = 0.2
cond ~h | g = 0.1
cond ~h | ~g = 0.4
cond ~h | g|~g = 0.3
link h & i -> j
cond j | h, i = 0.8
cond j | h, ~i = 0.4
cond j | ~h, i = 0.5
cond j | h|~h, i = 0.5
cond j | h, i|~i = 0.6
cond ~j | ~h, ~i = 0.7
cond ~j | h|~h, ~i = 0.2
cond ~j | ~h, i|~i = 0.3
node u bel
node x bel
node y bel
link u & x -> y separate
cond y | u = 0.6
cond y | u|~u = 0.3
cond ~y | ~u = 0.2
cond ~y | u|~u = 0.2
cond y | x = 0.1
cond y | x|~x = 0.4
cond ~y | x = 0.5
cond ~y | ~x = 0.5
cond ~y | x|~x = 0.5
"""

EXPECTED_EXPLAIN = (
    "link\tchild_outcome\tparent_outcome\tderivative\tcase\n"
    "a -> b\tb\ta\t+\tfollows\n"
    "a -> b\tb\t~a\t-\tvaries-inversely\n"
    "a -> b\t~b\ta\t-\tvaries-inversely\n"
    "a -> b\t~b\t~a\t+\tfollows\n"
    "b & c -> d\td\tb\t?\tsynergy=+ offset=-\n"
    "b & c -> d\td\t~b\t?\tsynergy=- offset=+\n"
    "b & c -> d\td\tc\t+\tsynergy=+ offset=+\n"
    "b & c -> d\td\t~c\t-\tsynergy=- offset=-\n"
    "b & c -> d\t~d\tb\t?\tsynergy=- offset=+\n"
    "b & c -> d\t~d\t~b\t?\tsynergy=+ offset=-\n"
    "b & c -> d\t~d\tc\t-\tsynergy=- offset=-\n"
    "b & c -> d\t~d\t~c\t+\tsynergy=+ offset=+\n"
    "d -> e\te\td\t-\tvaries-inversely\n"
    "d -> e\te\t~d\t+\tfollows\n"
    "d -> e\t~e\td\t+\tfollows\n"
    "d -> e\t~e\t~d\t-\tvaries-inversely\n"
    "g -> h\th\tg\t+\tfollows\n"
    "g -> h\th\t~g\t0\tindependent\n"
    "g -> h\t~h\tg\t-\tvaries-inversely\n"
    "g -> h\t~h\t~g\t+\tfollows\n"
    "h & i -> j\tj\th\t+\tterms=+,+,+\n"
    "h & i -> j\tj\t~h\t0\tterms=0,0,0\n"
    "h & i -> j\tj\ti\t+\tterms=+,+,+\n"
    "h & i -> j\tj\t~i\t-\tterms=-,0,0\n"
    "h & i -> j\t~j\th\t-\tterms=0,-,0\n"
    "h & i -> j\t~j\t~h\t+\tterms=0,+,+\n"
    "h & i -> j\t~j\ti\t-\tterms=0,-,0\n"
    "h & i -> j\t~j\t~i\t+\tterms=0,+,+\n"
    "m -> n\tn\tm\t+\tfollows\n"
    "m -> n\tn\t~m\t0\tindependent\n"
    "m -> n\t~n\tm\t^\tmay-follow-up\n"
    "m -> n\t~n\t~m\tv\tmay-follow-down\n"
    "r & o -> w\tw\tr\t^\tmay-follow-up\n"
    "r & o -> w\tw\t~r\tv\tmay-follow-down\n"
    "r & o -> w\tw\to\tv\tmay-follow-down\n"
    "r & o -> w\tw\t~o\t0\tindependent\n"
    "r & o -> w\t~w\tr\t0\tindependent\n"
    "r & o -> w\t~w\t~r\tv\tmay-follow-down\n"
    "r & o -> w\t~w\to\tv\tmay-follow-down\n"
    "r & o -> w\t~w\t~o\t^\tmay-follow-up\n"
    "u & x -> y\ty\tu\t+\tweak-follows\n"
    "u & x -> y\ty\t~u\t?\tindeterminate\n"
    "u & x -> y\ty\tx\t?\tindeterminate\n"
    "u & x -> y\ty\t~x\t?\tindeterminate\n"
    "u & x -> y\t~y\tu\t?\tindeterminate\n"
    "u & x -> y\t~y\t~u\t+\tweak-follows\n"
    "u & x -> y\t~y\tx\t+\tweak-follows\n"
    "u & x -> y\t~y\t~x\t+\tweak-follows\n"
)


class TestExplainGolden:
    def test_explain_pins_every_table_type(self, tmp_path):
        path = tmp_path / "tables.qn"
        path.write_text(ALL_TABLES_QN)
        assert run_command(["explain", str(path)]) == (0, EXPECTED_EXPLAIN)

    def test_validate_reports_possibility_normalization(self, tmp_path):
        path = tmp_path / "tables.qn"
        path.write_text(ALL_TABLES_QN)
        assert run_command(["validate", str(path)]) == (
            0,
            "warning: link r & o -> w: conditional possibilities given ~r,~o do not reach 1\nok\n",
        )



# tests/data/poss.qn: a one-parent possibility link under a declared state
# other than (1, 1), one fed by a belief variable (total ignorance), and a
# two-parent link whose first parent also feeds the one-parent link.
POSS_EXPLAIN = (
    "link\tchild_outcome\tparent_outcome\tderivative\tcase\n"
    "a -> b\tb\ta\t0\tindependent\n"
    "a -> b\tb\t~a\t+\tfollows\n"
    "a -> b\t~b\ta\tv\tmay-follow-down\n"
    "a -> b\t~b\t~a\t^\tmay-follow-up\n"
    "a & c -> e\te\ta\tv\tmay-follow-down\n"
    "a & c -> e\te\t~a\t^\tmay-follow-up\n"
    "a & c -> e\te\tc\t^\tmay-follow-up\n"
    "a & c -> e\te\t~c\tv\tmay-follow-down\n"
    "a & c -> e\t~e\ta\tv\tmay-follow-down\n"
    "a & c -> e\t~e\t~a\t^\tmay-follow-up\n"
    "a & c -> e\t~e\tc\t+\tfollows\n"
    "a & c -> e\t~e\t~c\t0\tindependent\n"
    "g -> h\th\tg\tv\tmay-follow-down\n"
    "g -> h\th\t~g\t0\tindependent\n"
    "g -> h\t~h\tg\t0\tindependent\n"
    "g -> h\t~h\t~g\tv\tmay-follow-down\n"
)

POSS_PROPAGATE = {
    "a=-": (
        "variable\tformalism\td_x\td_not_x\n"
        "a\tposs\t-\t+0\n"
        "b\tposs\t+0\t?\n"
        "c\tposs\t0\t0\n"
        "e\tposs\t?\t?\n"
        "g\tbel\t0\t0\n"
        "h\tposs\t0\t0\n"
    ),
    "c=+,g=+": (
        "variable\tformalism\td_x\td_not_x\n"
        "a\tposs\t0\t0\n"
        "b\tposs\t0\t0\n"
        "c\tposs\t+\t-0\n"
        "e\tposs\t?\t+\n"
        "g\tbel\t+\t?\n"
        "h\tposs\t0\t-0\n"
    ),
}


class TestPossibilityStatesGolden:
    def test_validate(self):
        assert run_command(["validate", POSS]) == (0, "ok\n")

    def test_explain(self):
        assert run_command(["explain", POSS]) == (0, POSS_EXPLAIN)

    @pytest.mark.parametrize("evidence", sorted(POSS_PROPAGATE))
    def test_propagate(self, evidence):
        assert run_command(["propagate", POSS, "--evidence", evidence]) == (0, POSS_PROPAGATE[evidence])
