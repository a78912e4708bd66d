"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a single PASS line (visible with ``pytest -s`` or in
the captured output of a failing run).
"""

import random
import time

from conftest import (
    SAMPLES,
    bel_link_net,
    bel_pair_net,
    poss_link_net,
    poss_pair_net,
    prob_chain_net,
    prob_link_net,
    prob_pair_net,
    random_polytree,
)
from qcnet.cli import run_command
from qcnet.network import POSS, Variable, complete_change, propagate
from qcnet.oracle import DECREASE, INCREASE, PerturbationSpec, check_containment
from qcnet.signs import (
    DOWN,
    NEG,
    NEG_ZERO,
    POS,
    POS_ZERO,
    UNKNOWN,
    UP,
    ZERO,
    qadd,
    qmul,
)

MEDICAL = str(SAMPLES / "medical.qn")


def _ok(n: int, label: str) -> None:
    print(f"criterion {n} ({label}): PASS")


def test_criterion_1_medical_end_to_end(medical_net):
    start = time.perf_counter()
    changes = propagate(medical_net, {"s": POS}).changes
    elapsed = time.perf_counter() - start
    assert changes["a"] == (POS, NEG)
    assert changes["v"] == (NEG, POS)
    assert changes["p"] == (POS_ZERO, NEG_ZERO)
    assert changes["l"] == (ZERO, ZERO)
    for name in ("t", "d", "k"):
        assert changes[name] == (ZERO, ZERO)
    assert elapsed < 1.0
    _ok(1, "medical end-to-end reproduction")


def test_criterion_2_medical_derivative_matrices():
    status, out = run_command(["explain", MEDICAL])
    assert status == 0
    rows = {tuple(line.split("\t")[:3]): line.split("\t")[3] for line in out.splitlines()[1:]}
    assert rows[("s -> v", "v", "s")] == "-"
    assert rows[("s -> v", "v", "~s")] == "+"
    assert rows[("d & s -> a", "a", "s")] == "+"
    assert rows[("d & s -> a", "a", "~s")] == "-"
    assert rows[("k & a -> p", "p", "a")] == "+"
    assert rows[("k & a -> p", "p", "~a")] == "0"
    assert rows[("k & a -> p", "~p", "a")] == "-"
    assert rows[("k & a -> p", "~p", "~a")] == "+"
    for child in ("l", "~l"):
        for parent in ("v", "~v"):
            assert rows[("v -> l", child, parent)] == "0"
    _ok(2, "medical derivative matrices")


def test_criterion_3_table_exactness():
    add_table = {
        (POS, POS): POS, (POS, ZERO): POS, (POS, NEG): UNKNOWN, (POS, UNKNOWN): UNKNOWN,
        (ZERO, POS): POS, (ZERO, ZERO): ZERO, (ZERO, NEG): NEG, (ZERO, UNKNOWN): UNKNOWN,
        (NEG, POS): UNKNOWN, (NEG, ZERO): NEG, (NEG, NEG): NEG, (NEG, UNKNOWN): UNKNOWN,
        (UNKNOWN, POS): UNKNOWN, (UNKNOWN, ZERO): UNKNOWN, (UNKNOWN, NEG): UNKNOWN,
        (UNKNOWN, UNKNOWN): UNKNOWN,
    }
    mul_table = {
        (POS, POS): POS, (POS, ZERO): ZERO, (POS, NEG): NEG, (POS, UNKNOWN): UNKNOWN,
        (ZERO, POS): ZERO, (ZERO, ZERO): ZERO, (ZERO, NEG): ZERO, (ZERO, UNKNOWN): ZERO,
        (NEG, POS): NEG, (NEG, ZERO): ZERO, (NEG, NEG): POS, (NEG, UNKNOWN): UNKNOWN,
        (UNKNOWN, POS): UNKNOWN, (UNKNOWN, ZERO): ZERO, (UNKNOWN, NEG): UNKNOWN,
        (UNKNOWN, UNKNOWN): UNKNOWN,
    }
    marker_columns = {
        (POS, UP): POS_ZERO, (ZERO, UP): ZERO, (NEG, UP): ZERO, (UNKNOWN, UP): POS_ZERO,
        (POS, DOWN): ZERO, (ZERO, DOWN): ZERO, (NEG, DOWN): NEG_ZERO, (UNKNOWN, DOWN): NEG_ZERO,
    }
    assert len(add_table) == len(mul_table) == 16
    assert len(marker_columns) == 8
    for (a, b), expected in add_table.items():
        assert qadd(a, b) == expected
    for (a, b), expected in mul_table.items():
        assert qmul(a, b) == expected
    for (a, b), expected in marker_columns.items():
        assert qmul(a, b) == expected
    _ok(3, "arithmetic tables, 32 + 8 cells")


def test_criterion_4_completion_tables():
    from qcnet.network import BEL, PROB

    rows = [
        # probability, value pinned at 1
        (PROB, (1.0, 0.0), ZERO, ZERO),
        (PROB, (1.0, 0.0), NEG, POS),
        # probability, interior
        (PROB, (0.3, 0.7), POS, NEG),
        (PROB, (0.3, 0.7), ZERO, ZERO),
        (PROB, (0.3, 0.7), NEG, POS),
        # possibility at 1
        (POSS, (1.0, 0.4), ZERO, UNKNOWN),
        (POSS, (1.0, 0.4), NEG, POS_ZERO),
        # possibility below 1
        (POSS, (0.4, 1.0), POS, NEG_ZERO),
        (POSS, (0.4, 1.0), ZERO, ZERO),
        (POSS, (0.4, 1.0), NEG, ZERO),
        # belief at 1
        (BEL, (1.0, 0.0), ZERO, UNKNOWN),
        (BEL, (1.0, 0.0), NEG, UNKNOWN),
        # belief below 1
        (BEL, (0.4, 0.3), POS, UNKNOWN),
        (BEL, (0.4, 0.3), ZERO, UNKNOWN),
        (BEL, (0.4, 0.3), NEG, UNKNOWN),
    ]
    # the same rules govern the evidence-side and child-side tables, so
    # run each row for a variable in either network position
    for name in ("parent_side", "child_side"):
        for formalism, prior, given, expected in rows:
            var = Variable(name, formalism, prior)
            assert complete_change(var, given) == (given, expected), (name, formalism, prior, given)
    _ok(4, "negation completion tables, all rows")


def _containment_sweep(maker, target: str, count: int, seed_base: int) -> int:
    """Run single-trial containment checks over freshly generated networks.

    Returns how many exercised a marker entry in the evidence columns."""
    rng = random.Random(seed_base)
    markers_seen = 0
    for i in range(count):
        net = maker(rng)
        direction = INCREASE if i % 2 == 0 else DECREASE
        prior = net.variables[target].prior
        if prior is not None and prior[0] == 1.0:
            direction = DECREASE
        sign = POS if direction == INCREASE else NEG
        spec = PerturbationSpec(target, direction, epsilon=1e-4, trials=1, seed=seed_base + i)
        report = check_containment(net, {target: sign}, spec)
        assert report.passed, (maker.__name__, i, report.to_table())
        assert report.completed == 1
        link = next(l for l in net.links if target in l.parents)
        cols = [2 * link.parents.index(target), 2 * link.parents.index(target) + 1]
        matrix = net.compiled.matrices[link.child]
        if any(matrix[r][c] in (UP, DOWN) for r in range(matrix.shape[0]) for c in cols):
            markers_seen += 1
    return markers_seen


def test_criterion_5_probability_containment():
    start = time.perf_counter()
    _containment_sweep(prob_link_net, "a", 1000, 100)
    _containment_sweep(prob_pair_net, "b", 1000, 200)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _ok(5, f"probability containment, 2000 networks in {elapsed:.1f}s")


def test_criterion_6_belief_containment():
    start = time.perf_counter()
    _containment_sweep(bel_link_net, "a", 1000, 300)
    _containment_sweep(bel_pair_net, "b", 1000, 400)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _ok(6, f"belief containment, 2000 networks in {elapsed:.1f}s")


def test_criterion_7_possibility_containment():
    start = time.perf_counter()
    markers = _containment_sweep(poss_link_net, "a", 1000, 500)
    markers += _containment_sweep(poss_pair_net, "b", 1000, 600)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    # marker entries must actually have been exercised, in both kinds
    assert markers > 100
    _ok(7, f"possibility containment incl. markers ({markers} marker networks) in {elapsed:.1f}s")


def test_criterion_8_chain_composition():
    rng = random.Random(800)
    for i in range(200):
        net = prob_chain_net(rng)
        direction = INCREASE if i % 2 == 0 else DECREASE
        sign = POS if direction == INCREASE else NEG
        spec = PerturbationSpec("a", direction, epsilon=1e-4, trials=1, seed=800 + i)
        report = check_containment(net, {"a": sign}, spec)
        assert report.passed, (i, report.to_table())
        assert {r.name for r in report.rows} == {"a", "c", "e"}
    _ok(8, "two-link chain composition, 200 chains")


def test_criterion_9_widening_monotonicity():
    rng = random.Random(900)
    extras = [POS, NEG, ZERO, UNKNOWN]
    for _ in range(100):
        net = random_polytree(rng, n_vars=rng.randint(4, 8))
        names = rng.sample(sorted(net.variables), k=min(2, len(net.variables)))
        narrow, wide = {}, {}
        for name in names:
            var = net.variables[name]
            if var.formalism is POSS and var.extremal_pos():
                base = rng.choice([NEG, ZERO])
                wider = base.union(rng.choice([NEG, ZERO]))
            else:
                base = rng.choice([POS, NEG, ZERO])
                wider = base.union(rng.choice(extras))
            narrow[name] = base
            wide[name] = wider
        lo = propagate(net, narrow).changes
        hi = propagate(net, wide).changes
        for v in net.variables:
            assert lo[v][0].issubset(hi[v][0]), (v, narrow, wide)
            assert lo[v][1].issubset(hi[v][1]), (v, narrow, wide)
    _ok(9, "widening monotonicity, 100 networks")
