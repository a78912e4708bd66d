"""Shared fixtures and random-network generators.

The generators reject tables whose decisive comparisons fall inside a
margin, so strict qualitative claims are never exercised at their numeric
boundary (a finite difference there is indistinguishable from zero).
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from qcnet.links import (
    BelCond1,
    BelCond2Joint,
    PossCond1,
    PossCond2,
    ProbCond1,
    ProbCond2,
)
from qcnet.network import BEL, Formalism, Link, Network, POSS, PROB, Variable

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

MARGIN = 1e-3


@pytest.fixture(scope="session")
def medical_text() -> str:
    return (SAMPLES / "medical.qn").read_text()


@pytest.fixture(scope="session")
def medical_net(medical_text):
    from qcnet.netfile import load_network

    net, diags = load_network(medical_text)
    assert net is not None, diags
    return net


# ---------------------------------------------------------------------------
# random tables
# ---------------------------------------------------------------------------

def rand_prob_cond1(rng: random.Random, margin: float = MARGIN) -> ProbCond1:
    while True:
        t = ProbCond1(rng.random(), rng.random())
        if t.margin() >= margin:
            return t


def rand_prob_cond2(rng: random.Random, margin: float = MARGIN) -> ProbCond2:
    while True:
        t = ProbCond2(rng.random(), rng.random(), rng.random(), rng.random())
        if t.margin() >= margin:
            return t


def _rand_bel_pair(rng: random.Random) -> tuple[float, float]:
    a, b = sorted((rng.random(), rng.random()))
    return a, b - a


def rand_bel_cond1(rng: random.Random, margin: float = MARGIN) -> BelCond1:
    while True:
        pos, neg = zip(*(_rand_bel_pair(rng) for _ in range(3)))
        t = BelCond1(pos[0], pos[1], pos[2], neg[0], neg[1], neg[2])
        if t.margin() >= margin:
            return t


def rand_bel_cond2(rng: random.Random, margin: float = MARGIN) -> BelCond2Joint:
    cells = (True, False, None)
    while True:
        values = {}
        for ca in cells:
            for cb in cells:
                pos, neg = _rand_bel_pair(rng)
                values[(True, ca, cb)] = pos
                values[(False, ca, cb)] = neg
        t = BelCond2Joint.from_cells(values[key] for key in BelCond2Joint.cell_keys)
        if t.margin() >= margin:
            return t


def _rand_poss_column(rng: random.Random) -> tuple[float, float]:
    """One conditioning column (pi(c|y), pi(~c|y)), max-normalized."""
    u = rng.random()
    return (1.0, u) if rng.random() < 0.5 else (u, 1.0)


def rand_poss_cond1(rng: random.Random) -> PossCond1:
    (ca, nca), (cna, ncna) = _rand_poss_column(rng), _rand_poss_column(rng)
    return PossCond1(ca, cna, nca, ncna)


def rand_poss_cond2(rng: random.Random) -> PossCond2:
    cols = {}
    for bp in (True, False):
        for cp in (True, False):
            cols[(bp, cp)] = _rand_poss_column(rng)
    return PossCond2(
        cols[(True, True)][0], cols[(True, False)][0], cols[(False, True)][0], cols[(False, False)][0],
        cols[(True, True)][1], cols[(True, False)][1], cols[(False, True)][1], cols[(False, False)][1],
    )


def rand_poss_prior(rng: random.Random) -> tuple[float, float]:
    # keep the free component away from 0 and 1 so small perturbations
    # stay feasible
    u = rng.uniform(0.05, 0.95)
    return (1.0, u) if rng.random() < 0.5 else (u, 1.0)


# ---------------------------------------------------------------------------
# random networks
# ---------------------------------------------------------------------------

def prob_link_net(rng: random.Random) -> Network:
    return Network(
        [Variable("a", PROB), Variable("c", PROB)],
        [Link("c", ("a",), rand_prob_cond1(rng))],
    )


def prob_pair_net(rng: random.Random) -> Network:
    return Network(
        [Variable("b", PROB), Variable("c", PROB), Variable("d", PROB)],
        [Link("d", ("b", "c"), rand_prob_cond2(rng))],
    )


def bel_link_net(rng: random.Random) -> Network:
    return Network(
        [Variable("a", BEL), Variable("c", BEL)],
        [Link("c", ("a",), rand_bel_cond1(rng))],
    )


def bel_pair_net(rng: random.Random) -> Network:
    return Network(
        [Variable("b", BEL), Variable("c", BEL), Variable("d", BEL)],
        [Link("d", ("b", "c"), rand_bel_cond2(rng))],
    )


def poss_link_net(rng: random.Random) -> Network:
    from qcnet.links import PossState

    while True:
        prior = rand_poss_prior(rng)
        cond = rand_poss_cond1(rng)
        # declared states cannot be resampled by the oracle, so reject
        # boundary states at generation time
        if cond.margin(PossState(*prior)) >= 1e-9:
            return Network(
                [Variable("a", POSS, prior), Variable("c", POSS)],
                [Link("c", ("a",), cond)],
            )


def poss_pair_net(rng: random.Random) -> Network:
    from qcnet.links import PossState

    while True:
        prior_b, prior_c = rand_poss_prior(rng), rand_poss_prior(rng)
        cond = rand_poss_cond2(rng)
        if cond.margin(PossState(*prior_b), PossState(*prior_c)) >= 1e-9:
            return Network(
                [
                    Variable("b", POSS, prior_b),
                    Variable("c", POSS, prior_c),
                    Variable("d", POSS),
                ],
                [Link("d", ("b", "c"), cond)],
            )


def prob_chain_net(rng: random.Random) -> Network:
    return Network(
        [Variable("a", PROB), Variable("c", PROB), Variable("e", PROB)],
        [
            Link("c", ("a",), rand_prob_cond1(rng)),
            Link("e", ("c",), rand_prob_cond1(rng)),
        ],
    )


def _rand_table_for(child: Variable, arity: int, rng: random.Random):
    if child.formalism is PROB:
        return rand_prob_cond1(rng) if arity == 1 else rand_prob_cond2(rng)
    if child.formalism is BEL:
        return rand_bel_cond1(rng) if arity == 1 else rand_bel_cond2(rng)
    return rand_poss_cond1(rng) if arity == 1 else rand_poss_cond2(rng)


def random_polytree(
    rng: random.Random, n_vars: int = 6, formalisms: tuple[Formalism, ...] = (PROB, POSS, BEL)
) -> Network:
    """A random singly connected network, each variable in one of
    ``formalisms`` (by default it mixes all three).

    Possibility variables always get explicit priors (their outgoing links
    need them); probability and belief variables stay interior.
    """
    variables: list[Variable] = []
    links: list[Link] = []
    component: dict[str, int] = {}

    for i in range(n_vars):
        name = f"v{i}"
        formalism = rng.choice(formalisms)
        prior = rand_poss_prior(rng) if formalism is POSS else None
        var = Variable(name, formalism, prior)
        variables.append(var)

        choices = ["root"]
        if component:
            choices += ["child1"] * 3
            if len(set(component.values())) >= 2:
                choices += ["child2"] * 2
        kind = rng.choice(choices)
        if kind == "root":
            component[name] = i
        elif kind == "child1":
            parent = rng.choice(sorted(component))
            links.append(Link(name, (parent,), _rand_table_for(var, 1, rng)))
            component[name] = component[parent]
        else:
            by_comp: dict[int, list[str]] = {}
            for v, c in component.items():
                by_comp.setdefault(c, []).append(v)
            comp_a, comp_b = rng.sample(sorted(by_comp), 2)
            p1 = rng.choice(sorted(by_comp[comp_a]))
            p2 = rng.choice(sorted(by_comp[comp_b]))
            links.append(Link(name, (p1, p2), _rand_table_for(var, 2, rng)))
            merged, absorbed = component[p1], component[p2]
            for v, c in list(component.items()):
                if c == absorbed:
                    component[v] = merged
            component[name] = merged
    return Network(variables, links)
