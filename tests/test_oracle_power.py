"""The oracle's power: each derivative mutation it catches today makes a
fixed, seeded sweep report FAIL rows, and the unmutated code reports none.

Containment tests soundness only, so a rule widened towards ``?`` always
passes; these sweeps keep the oracle able to see the mutations below.
Negating ``BelCond1`` or ``BelCond2Joint`` entries is not caught yet: every
belief prediction the oracle checks is ``?``, which no observation leaves.
"""

import random

import pytest

from conftest import poss_link_net, poss_pair_net, random_polytree
from qcnet import links as lc
from qcnet.network import PROB, EvidenceError
from qcnet.oracle import DECREASE, INCREASE, PerturbationSpec, check_containment
from qcnet.signs import DOWN, NEG, POS, UP, ZERO

SEEDS = range(30)
TRIALS = 20


def prob_nets():
    for seed in SEEDS:
        rng = random.Random(seed)
        yield seed, random_polytree(rng, rng.randint(3, 10), (PROB,))


def poss_nets():
    # single links: a root's declared state is the state the oracle
    # evaluates at, which a possibility child of a child need not be
    for seed in SEEDS:
        rng = random.Random(seed)
        yield seed, poss_link_net(rng)
        yield seed, poss_pair_net(rng)


def fail_rows(nets) -> int:
    """FAIL rows over every root of every network, in both directions."""
    fails = 0
    for seed, net in nets:
        for root in sorted(v for v in net.variables if v not in net.link_of):
            for direction, sign in ((INCREASE, POS), (DECREASE, NEG)):
                spec = PerturbationSpec(root, direction, trials=TRIALS, seed=seed)
                try:
                    report = check_containment(net, {root: sign}, spec)
                except EvidenceError:  # a possibility at 1 cannot rise
                    continue
                fails += sum(row.verdict == "FAIL" for row in report.rows)
    return fails


def negated(entry):
    return entry.negated()


def plus_to_zero(entry):
    return ZERO if entry is POS else entry


def up_down_swapped(entry):
    return DOWN if entry is UP else UP if entry is DOWN else entry


MUTATIONS = {
    "ProbCond1-negated": (lc.ProbCond1, negated, prob_nets),
    "ProbCond2-negated": (lc.ProbCond2, negated, prob_nets),
    "PossCond1-plus-to-zero": (lc.PossCond1, plus_to_zero, poss_nets),
    "PossCond2-plus-to-zero": (lc.PossCond2, plus_to_zero, poss_nets),
    "PossCond1-up-down-swapped": (lc.PossCond1, up_down_swapped, poss_nets),
    "PossCond2-up-down-swapped": (lc.PossCond2, up_down_swapped, poss_nets),
}


@pytest.mark.parametrize("sweep", [prob_nets, poss_nets])
def test_unmutated_code_fails_no_row(sweep):
    assert fail_rows(sweep()) == 0


@pytest.mark.parametrize("table, mutate, sweep", MUTATIONS.values(), ids=MUTATIONS)
def test_mutation_is_caught(monkeypatch, table, mutate, sweep):
    entries = table._entries
    monkeypatch.setattr(table, "_entries", lambda self, *states: [(mutate(e), gap) for e, gap in entries(self, *states)])
    lc._matrix.cache_clear()
    assert fail_rows(sweep()) >= 1
