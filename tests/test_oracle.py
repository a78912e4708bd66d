"""Numeric oracle: exact evaluation, sampling, and containment checking."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bel_link_net,
    bel_pair_net,
    poss_link_net,
    poss_pair_net,
    prob_chain_net,
    prob_link_net,
    prob_pair_net,
    rand_prob_cond1,
    random_polytree,
)
from qcnet import links as lc
from qcnet import oracle
from qcnet.links import BelCond1, BelCond2Separate, PossCond1, ProbCond1
from qcnet.network import BEL, EvidenceError, Link, Network, POSS, PROB, Variable, propagate
from qcnet.oracle import (
    DECREASE,
    INCREASE,
    RESAMPLE_CAP,
    ContainmentReport,
    OracleError,
    PerturbationSpec,
    QuantModel,
    VariableCheck,
    check_containment,
    exact_belief,
    exact_possibility,
    exact_probability,
    sample_model,
)
from qcnet.signs import NEG, POS, sign_of


class TestSampleModel:
    def test_given_priors_kept_verbatim(self, medical_net):
        model = sample_model(medical_net, seed=1)
        # every medical variable has no declared prior, so all are sampled;
        # add one and check it survives
        net = Network(
            [Variable("a", PROB, (0.3, 0.7)), Variable("c", PROB)],
            [Link("c", ("a",), ProbCond1(0.8, 0.2))],
        )
        model = sample_model(net, seed=99)
        assert model.priors["a"] == (0.3, 0.7)

    def test_all_priors_given_is_seed_independent(self):
        net = Network(
            [Variable("a", PROB, (0.3, 0.7)), Variable("c", PROB, (0.4, 0.6))],
            [Link("c", ("a",), ProbCond1(0.8, 0.2))],
        )
        assert sample_model(net, 1).priors == sample_model(net, 2).priors

    def test_same_seed_same_model(self, medical_net):
        m1 = sample_model(medical_net, seed=7)
        m2 = sample_model(medical_net, seed=7)
        assert m1.priors == m2.priors

    def test_matches_reference_sampler(self):
        for seed in range(40):
            rng = random.Random(seed)
            net = random_polytree(rng, rng.randint(1, 40))
            assert sample_model(net, seed).priors == ref_sample_model(net, seed).priors

    @pytest.mark.parametrize("draws", [1, 2, 311, 312, 313, 624, 1000])
    def test_skipping_draws_advances_the_generator_like_drawing(self, draws):
        # a plan skips d draws of random() with getrandbits(64 * d)
        drawn, skipped = random.Random(draws), random.Random(draws)
        for _ in range(draws):
            drawn.random()
        skipped.getrandbits(64 * draws)
        assert drawn.getstate() == skipped.getstate()

    def test_sampled_priors_satisfy_invariants(self, medical_net):
        model = sample_model(medical_net, seed=3)
        for name, var in medical_net.variables.items():
            x, nx = model.priors[name]
            if var.formalism is PROB:
                assert abs(x + nx - 1.0) < 1e-12
            elif var.formalism is POSS:
                assert max(x, nx) == 1.0
            else:
                assert x + nx <= 1.0


class TestExactProbability:
    def test_total_probability(self):
        net = Network(
            [Variable("a", PROB, (0.3, 0.7)), Variable("c", PROB)],
            [Link("c", ("a",), ProbCond1(0.6, 0.2))],
        )
        model = sample_model(net, 0)
        pc, pnc = exact_probability(model, "c")
        assert pc == pytest.approx(0.32)
        assert pc + pnc == pytest.approx(1.0)

    def test_independent_link_keeps_conditional(self):
        net = Network(
            [Variable("a", PROB, (0.25, 0.75)), Variable("c", PROB)],
            [Link("c", ("a",), ProbCond1(0.4, 0.4))],
        )
        assert exact_probability(sample_model(net, 0), "c")[0] == pytest.approx(0.4)

    def test_two_parent_sum(self, medical_net):
        model = sample_model(medical_net, 0)
        model = QuantModel(medical_net, {**model.priors, "d": (0.5, 0.5), "s": (0.5, 0.5)})
        pa, _ = exact_probability(model, "a")
        assert pa == pytest.approx(0.25 * (0.9 + 0.6 + 0.6 + 0.4))

    def test_conservation_property(self):
        rng = random.Random(61)
        for _ in range(50):
            net = prob_pair_net(rng)
            model = sample_model(net, rng.randrange(10**6))
            x, nx = exact_probability(model, "d")
            assert abs(x + nx - 1.0) < 1e-9

    def test_cross_formalism_rejected(self, medical_net):
        model = sample_model(medical_net, 0)
        with pytest.raises(OracleError):
            exact_possibility(model, "l")  # parent v is a probability variable
        with pytest.raises(OracleError):
            exact_belief(model, "p")

    def test_wrong_formalism_rejected(self, medical_net):
        model = sample_model(medical_net, 0)
        with pytest.raises(OracleError):
            exact_probability(model, "p")


class TestExactPossibility:
    def test_sup_min(self):
        net = Network(
            [Variable("a", POSS, (1.0, 0.4)), Variable("c", POSS)],
            [Link("c", ("a",), PossCond1(0.7, 0.2, 1.0, 1.0))],
        )
        pc, pnc = exact_possibility(sample_model(net, 0), "c")
        assert pc == pytest.approx(0.7)
        assert pnc == pytest.approx(1.0)

    def test_saturated(self):
        net = Network(
            [Variable("a", POSS, (1.0, 0.9)), Variable("c", POSS)],
            [Link("c", ("a",), PossCond1(1.0, 1.0, 1.0, 1.0))],
        )
        assert exact_possibility(sample_model(net, 0), "c") == (1.0, 1.0)

    def test_medical_lesions_with_ignorant_parent(self, medical_net):
        # carve out the possibility tail as its own network
        net = Network(
            [Variable("v", POSS, (1.0, 1.0)), Variable("l", POSS)],
            [Link("l", ("v",), PossCond1(1.0, 1.0, 0.1, 0.1))],
        )
        pl, pnl = exact_possibility(sample_model(net, 0), "l")
        assert pl == pytest.approx(1.0)
        assert pnl == pytest.approx(0.1)

    def test_normalization_preserved(self):
        rng = random.Random(67)
        for _ in range(50):
            net = poss_pair_net(rng)
            model = sample_model(net, rng.randrange(10**6))
            x, nx = exact_possibility(model, "d")
            assert max(x, nx) == pytest.approx(1.0)


class TestExactBelief:
    def test_three_term_mass_sum(self):
        net = Network(
            [Variable("a", BEL, (0.5, 0.3)), Variable("c", BEL)],
            [
                Link(
                    "c",
                    ("a",),
                    BelCond1(
                        bel_c_given_a=0.8,
                        bel_c_given_na=0.1,
                        bel_c_given_frame=0.2,
                    ),
                )
            ],
        )
        bc, bnc = exact_belief(sample_model(net, 0), "c")
        assert bc == pytest.approx(0.47)
        assert bnc == pytest.approx(0.0)

    def test_vacuous_parent_leaves_frame_belief(self):
        net = Network(
            [Variable("a", BEL, (0.0, 0.0)), Variable("c", BEL)],
            [Link("c", ("a",), BelCond1(bel_c_given_a=0.9, bel_c_given_frame=0.25))],
        )
        assert exact_belief(sample_model(net, 0), "c")[0] == pytest.approx(0.25)

    def test_pain_with_certain_parents(self, medical_net):
        net = Network(
            [Variable("k", BEL, (1.0, 0.0)), Variable("a", BEL, (1.0, 0.0)), Variable("p", BEL)],
            [Link("p", ("k", "a"), medical_net.link_of["p"].table)],
        )
        assert exact_belief(sample_model(net, 0), "p")[0] == pytest.approx(0.9)

    def test_subadditivity_preserved(self):
        rng = random.Random(71)
        for _ in range(50):
            net = bel_pair_net(rng)
            model = sample_model(net, rng.randrange(10**6))
            x, nx = exact_belief(model, "d")
            assert x + nx <= 1.0 + 1e-9

    def test_separate_tables_have_no_oracle(self):
        t = BelCond1(bel_c_given_a=0.7, bel_c_given_frame=0.2)
        net = Network(
            [Variable("b", BEL), Variable("c", BEL), Variable("d", BEL)],
            [Link("d", ("b", "c"), BelCond2Separate(t, t))],
        )
        with pytest.raises(OracleError):
            exact_belief(sample_model(net, 0), "d")


class TestCheckContainment:
    def test_single_probability_link_full_pass(self):
        rng = random.Random(73)
        net = prob_link_net(rng)
        spec = PerturbationSpec("a", INCREASE, trials=200, seed=5)
        report = check_containment(net, {"a": POS}, spec)
        assert report.passed
        assert report.completed == 200
        rows = {r.name: r for r in report.rows}
        assert rows["c"].verdict == "PASS"

    def test_up_marker_blocks_decreases(self):
        # state chosen so the child may follow the parent up but not down
        cond = PossCond1(0.8, 0.6, 1.0, 1.0)
        net = Network(
            [Variable("a", POSS, (0.5, 1.0)), Variable("c", POSS)],
            [Link("c", ("a",), cond)],
        )
        spec = PerturbationSpec("a", DECREASE, trials=100, seed=11)
        report = check_containment(net, {"a": NEG}, spec)
        assert report.passed
        row = {r.name: r for r in report.rows}["c"]
        # observed change of pi(c) is zero in every completed trial
        assert row.observed_pos == (0, 100, 0)

    def test_medical_probability_segment(self, medical_net):
        spec = PerturbationSpec("s", INCREASE, trials=300, seed=7)
        report = check_containment(medical_net, {"s": POS}, spec)
        assert report.passed
        rows = {r.name: r for r in report.rows}
        assert rows["a"].verdict == "PASS"
        assert rows["v"].verdict == "PASS"
        assert rows["p"].verdict == "BRIDGE"
        assert rows["l"].verdict == "BRIDGE"

    def test_reproducible(self, medical_net):
        spec = PerturbationSpec("s", INCREASE, trials=50, seed=13)
        r1 = check_containment(medical_net, {"s": POS}, spec)
        r2 = check_containment(medical_net, {"s": POS}, spec)
        assert r1.to_table() == r2.to_table()

    def test_non_root_target_rejected(self, medical_net):
        spec = PerturbationSpec("v", INCREASE, trials=10)
        with pytest.raises(OracleError):
            check_containment(medical_net, {"v": POS}, spec)

    def test_unknown_target_rejected(self, medical_net):
        spec = PerturbationSpec("zz", INCREASE, trials=10)
        with pytest.raises(OracleError):
            check_containment(medical_net, {"zz": POS}, spec)

    def test_bad_spec_values_rejected(self):
        with pytest.raises(ValueError):
            PerturbationSpec("a", "sideways")
        with pytest.raises(ValueError):
            PerturbationSpec("a", INCREASE, epsilon=0.0)
        with pytest.raises(ValueError):
            PerturbationSpec("a", INCREASE, trials=0)

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"epsilon": float("nan")}, "epsilon must be finite"),
            ({"epsilon": float("inf")}, "epsilon must be finite"),
            ({"epsilon": -float("inf")}, "epsilon must be finite"),
            ({"zero_tolerance": float("nan")}, "zero_tolerance must be finite"),
            ({"zero_tolerance": float("inf")}, "zero_tolerance must be finite"),
            ({"zero_tolerance": -1e-12}, "zero_tolerance must not be negative"),
            ({"trials": 2.5}, "trials must be an integer"),
            ({"trials": 2.0}, "trials must be an integer"),
            ({"trials": True}, "trials must be an integer"),
        ],
    )
    def test_non_finite_and_non_integer_values_rejected(self, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PerturbationSpec("a", INCREASE, **values)

    def test_zero_tolerance_may_be_zero(self):
        assert PerturbationSpec("a", INCREASE, zero_tolerance=0.0).zero_tolerance == 0.0

    def test_extra_evidence_rejected(self, medical_net):
        spec = PerturbationSpec("s", INCREASE, trials=10)
        with pytest.raises(OracleError):
            check_containment(medical_net, {"s": POS, "t": POS}, spec)

    def test_direction_mismatch_rejected(self, medical_net):
        spec = PerturbationSpec("s", DECREASE, trials=10)
        with pytest.raises(OracleError):
            check_containment(medical_net, {"s": POS}, spec)

    def test_degenerate_tables_skip_trials(self):
        net = Network(
            [Variable("a", PROB), Variable("c", PROB)],
            [Link("c", ("a",), ProbCond1(0.5, 0.5))],
        )
        spec = PerturbationSpec("a", INCREASE, trials=5, seed=1)
        report = check_containment(net, {"a": POS}, spec)
        assert report.completed == 0
        assert report.skipped == 5
        assert not report.passed

    def test_table_serialization_shape(self, medical_net):
        spec = PerturbationSpec("s", INCREASE, trials=20, seed=3)
        table = check_containment(medical_net, {"s": POS}, spec).to_table()
        lines = table.strip().splitlines()
        assert lines[0] == "variable\tpredicted\tobserved\tverdict"
        assert lines[-1].startswith("# trials=20")


class TestNumericInvariants:
    def test_finite_difference_matches_analytic_derivative(self):
        """For probability links the finite-difference slope reproduces the
        analytic derivative sign at eps = 1e-4 on non-degenerate tables."""
        rng = random.Random(79)
        eps = 1e-4
        for _ in range(100):
            net = prob_link_net(rng)
            t = net.link_of["c"].table
            model = sample_model(net, rng.randrange(10**6))
            p_a = model.priors["a"][0]
            if not eps <= p_a <= 1 - eps:
                continue
            base = exact_probability(model, "c")[0]
            bumped = exact_probability(QuantModel(net, {**model.priors, "a": (p_a + eps, 1 - p_a - eps)}), "c")[0]
            slope = (bumped - base) / eps
            analytic = t.p_c_given_a - t.p_c_given_na
            assert (slope > 0) == (analytic > 0)
            assert abs(slope - analytic) < 1e-6

        for _ in range(100):
            net = prob_pair_net(rng)
            t = net.link_of["d"].table
            model = sample_model(net, rng.randrange(10**6))
            p_b, p_c = model.priors["b"][0], model.priors["c"][0]
            if not eps <= p_b <= 1 - eps:
                continue
            base = exact_probability(model, "d")[0]
            bumped = exact_probability(QuantModel(net, {**model.priors, "b": (p_b + eps, 1 - p_b - eps)}), "d")[0]
            slope = (bumped - base) / eps
            analytic = p_c * (t.get(True, True, True) - t.get(True, False, True)) + (1 - p_c) * (
                t.get(True, True, False) - t.get(True, False, False)
            )
            assert abs(slope - analytic) < 1e-6

    def test_normalization_preserved_after_perturbation(self):
        rng = random.Random(83)
        eps = 1e-4
        for _ in range(100):
            net = poss_link_net(rng)
            model = sample_model(net, rng.randrange(10**6))
            x, nx = model.priors["a"]
            if x == 1.0:
                moved = (1.0 - eps, 1.0)  # coupled: complement rises to 1
            else:
                moved = (x - eps, nx) if x >= eps else (x + eps, nx)
            perturbed = QuantModel(net, {**model.priors, "a": moved})
            assert max(perturbed.priors["a"]) == 1.0
            cx, cnx = exact_possibility(perturbed, "c")
            assert max(cx, cnx) == pytest.approx(1.0)


class TestContainmentSweeps:
    """Smaller-scale versions of the acceptance sweeps, one per link type."""

    @pytest.mark.parametrize(
        "maker,target",
        [
            (prob_link_net, "a"),
            (prob_pair_net, "b"),
            (bel_link_net, "a"),
            (bel_pair_net, "b"),
            (poss_link_net, "a"),
            (poss_pair_net, "b"),
            (prob_chain_net, "a"),
        ],
    )
    def test_sweep(self, maker, target):
        rng = random.Random(sum(map(ord, maker.__name__)))
        for i in range(60):
            net = maker(rng)
            direction = INCREASE if i % 2 == 0 else DECREASE
            prior = net.variables[target].prior
            if prior is not None and prior[0] == 1.0:
                direction = DECREASE  # a possibility pinned at 1 cannot rise
            sign = POS if direction == INCREASE else NEG
            spec = PerturbationSpec(target, direction, trials=2, seed=i)
            report = check_containment(net, {target: sign}, spec)
            assert report.passed, (maker.__name__, i, report.to_table())


def deep_chain(links: int) -> Network:
    """A probability chain x0 -> x1 -> ... -> x<links>."""
    rng = random.Random(links)
    return Network(
        [Variable(f"x{i}", PROB) for i in range(links + 1)],
        [Link(f"x{i}", (f"x{i - 1}",), rand_prob_cond1(rng)) for i in range(1, links + 1)],
    )


@pytest.fixture(scope="module")
def chain5000():
    return deep_chain(5000)


class TestDeepNetworks:
    """Depth costs the oracle time linear in the links and no recursion."""

    def test_containment_completes(self, chain5000):
        # the chain's far end keeps its known false FAIL (the fixed
        # perturbation shrinks below the sign tolerance), so only
        # completion is asserted
        spec = PerturbationSpec("x0", INCREASE, trials=2, seed=0)
        report = check_containment(chain5000, {"x0": POS}, spec)
        assert report.completed == report.trials == 2

    def test_exact_probability_of_leaf(self, chain5000):
        x, nx = exact_probability(sample_model(chain5000, 0), "x5000")
        assert 0.0 <= x <= 1.0
        assert x + nx == pytest.approx(1.0)

    def test_link_evaluations_per_trial_are_linear(self, monkeypatch):
        links = 200
        net = deep_chain(links)
        calls = []
        real = ProbCond1.evaluate
        monkeypatch.setattr(ProbCond1, "evaluate", lambda table, values: calls.append(1) or real(table, values))
        spec = PerturbationSpec("x0", INCREASE, trials=4, seed=0)
        report = check_containment(net, {"x0": POS}, spec)
        assert report.completed == 4
        # one evaluation of the segment, one re-evaluation below the target
        assert 0 < len(calls) <= 2 * links * report.completed


# ---------------------------------------------------------------------------
# reference: the oracle's definition, evaluated recursively and from
# scratch for every variable
# ---------------------------------------------------------------------------

def ref_exact(model, name, memo):
    if name in memo:
        return memo[name]
    net = model.network
    var = net.variables[name]
    link = net.link_of.get(name)
    if link is None:
        memo[name] = model.priors[name]
        return memo[name]
    for p in link.parents:
        if net.variables[p].formalism is not var.formalism:
            raise OracleError(f"cannot evaluate {name!r}: parent {p!r} lives in another formalism")
    table = link.table
    vals = [ref_exact(model, p, memo) for p in link.parents]

    def pv(idx, pos):
        return vals[idx][0 if pos else 1]

    def masses(pair):
        b, d = pair
        return ((True, b), (False, d), (None, 1.0 - b - d))

    if isinstance(table, ProbCond1):
        p_c = pv(0, True) * table.get(True, True) + pv(0, False) * table.get(True, False)
        value = (p_c, 1.0 - p_c)
    elif isinstance(table, lc.ProbCond2):
        p_d = sum(pv(0, bp) * pv(1, cp) * table.get(True, bp, cp) for bp in (True, False) for cp in (True, False))
        value = (p_d, 1.0 - p_d)
    elif isinstance(table, PossCond1):
        value = tuple(max(min(table.get(cp, ap), pv(0, ap)) for ap in (True, False)) for cp in (True, False))
    elif isinstance(table, lc.PossCond2):
        value = tuple(
            max(min(table.get(cp, bp, cpp), pv(0, bp), pv(1, cpp)) for bp in (True, False) for cpp in (True, False))
            for cp in (True, False)
        )
    elif isinstance(table, BelCond1):
        value = tuple(sum(m * table.get(cp, cell) for cell, m in masses(vals[0])) for cp in (True, False))
    elif isinstance(table, lc.BelCond2Joint):
        value = tuple(
            sum(ma * mb * table.get(cp, ca, cb) for ca, ma in masses(vals[0]) for cb, mb in masses(vals[1]))
            for cp in (True, False)
        )
    else:
        raise OracleError(f"cannot evaluate {name!r}: per-parent belief tables have no trusted combination formula")
    memo[name] = value
    return value


def ref_degenerate(model, link, tol):
    table = link.table
    margins = {
        ProbCond1: ProbCond1.margin,
        lc.ProbCond2: lc.ProbCond2.margin,
        BelCond1: BelCond1.margin,
        lc.BelCond2Joint: lc.BelCond2Joint.margin,
    }
    if type(table) in margins:
        return margins[type(table)](table) < tol
    if not isinstance(table, (PossCond1, lc.PossCond2)):
        return False
    try:
        states = [lc.PossState(*ref_exact(model, p, {})) for p in link.parents]
    except ValueError as exc:
        raise OracleError(f"possibility state for link into {link.child!r} is unnormalized: {exc}") from exc
    return table.margin(*states) < tol


def ref_sample_model(net, seed):
    """Every variable's prior, sampled in name order from one generator
    (the definition the oracle's sampling plans must reproduce)."""
    rng = random.Random(seed)
    priors = {}
    for name in sorted(net.variables):
        var = net.variables[name]
        priors[name] = var.prior if var.prior is not None else oracle._sample_prior(var.formalism, rng)
    return QuantModel(net, priors)


def ref_check_containment(net, evidence, spec):
    """Containment check re-evaluating every checked variable from scratch,
    before and after the perturbation (the oracle's definition)."""
    prediction = propagate(net, evidence).changes
    form = net.variables[spec.target].formalism

    def same_form(v):
        link = net.link_of.get(v)
        return net.variables[v].formalism is form and (link is None or all(same_form(p) for p in link.parents))

    downstream = net.descendants(spec.target)
    checked = sorted(v for v in downstream if same_form(v))
    bridge = sorted(
        l.child for l in net.links if l.child in downstream and l.child not in checked and any(p in checked for p in l.parents)
    )
    unchecked = sorted(downstream - set(checked) - set(bridge))
    counts = {v: ([0, 0, 0], [0, 0, 0]) for v in checked}
    failures = {v: 0 for v in checked + bridge}
    completed = resampled = skipped = 0
    for trial in range(spec.trials):
        for attempt in range(RESAMPLE_CAP):
            model = ref_sample_model(net, (spec.seed * 1_000_003 + trial) * 1_000_003 + attempt)
            moved = oracle._perturb(form, model.priors[spec.target], spec.direction, spec.epsilon)
            if moved is None or any(ref_degenerate(model, net.link_of[v], 1e-9) for v in checked if v in net.link_of):
                resampled += 1
                continue
            break
        else:
            skipped += 1
            continue
        after_model = QuantModel(net, {**model.priors, spec.target: moved})
        observed = {}
        for v in checked:
            before, after = ref_exact(model, v, {}), ref_exact(after_model, v, {})
            obs = observed[v] = tuple(sign_of(after[i] - before[i], spec.zero_tolerance) for i in (0, 1))
            for i in (0, 1):
                counts[v][i][{POS: 0, NEG: 2}.get(obs[i], 1)] += 1
            if not (obs[0].issubset(prediction[v][0]) and obs[1].issubset(prediction[v][1])):
                failures[v] += 1
        for child in bridge:
            for p in net.link_of[child].parents:
                if p in observed and not all(
                    observed[p][i].widened().issubset(prediction[p][i].widened()) for i in (0, 1)
                ):
                    failures[child] += 1
        completed += 1
    rows = [VariableCheck(v, "checked", prediction[v], *map(tuple, counts[v]), failures[v]) for v in checked]
    rows += [VariableCheck(v, "bridge", prediction[v], (0, 0, 0), (0, 0, 0), failures[v]) for v in bridge]
    rows += [VariableCheck(v, "unchecked", prediction[v], (0, 0, 0), (0, 0, 0), 0) for v in unchecked]
    rows.sort(key=lambda r: r.name)
    return ContainmentReport(tuple(rows), spec.trials, completed, resampled, skipped)


EXACT = {PROB: exact_probability, POSS: exact_possibility, BEL: exact_belief}


def outcome(fn, *args):
    """A call's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (OracleError, EvidenceError) as exc:
        return type(exc).__name__, str(exc)


class TestMatchesRecursiveReference:
    """Evaluating once in topological order changes no value, verdict or error."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 30),
        formalisms=st.sampled_from([(PROB, POSS, BEL), (PROB,), (POSS,), (BEL,)]),
        increase=st.booleans(),
    )
    def test_reports_and_exact_values(self, seed, n, formalisms, increase):
        rng = random.Random(seed)
        net = random_polytree(rng, n, formalisms)
        target = rng.choice(sorted(v for v in net.variables if v not in net.link_of))
        direction, sign = (INCREASE, POS) if increase else (DECREASE, NEG)
        spec = PerturbationSpec(target, direction, trials=4, seed=seed % 1000)
        got = outcome(check_containment, net, {target: sign}, spec)
        want = outcome(ref_check_containment, net, {target: sign}, spec)
        assert got == want
        if isinstance(want, ContainmentReport):
            assert got.to_table() == want.to_table()
        model = sample_model(net, seed)
        for v in sorted(net.variables):
            exact = EXACT[net.variables[v].formalism]
            assert outcome(exact, model, v) == outcome(ref_exact, model, v, {})

    @pytest.mark.parametrize(
        "links, name",
        [
            # b comes first in topological order, but the recursive
            # definition starting from a stops at a first
            ([("a", ("m", "r"), "sep"), ("m", ("t",), "one"), ("b", ("t", "q"), "sep")], "a"),
            # a per-parent table behind another one is met on the way back up
            ([("a", ("z", "r"), "sep"), ("z", ("t", "q"), "sep")], "z"),
        ],
    )
    def test_per_parent_belief_tables_refused_at_the_same_variable(self, links, name):
        net = self.belief_net(links, BelCond1(0.7, 0.1, 0.3, 0.1, 0.6, 0.3))
        spec = PerturbationSpec("t", INCREASE, trials=2, seed=1)
        message = f"cannot evaluate {name!r}: per-parent belief tables"
        with pytest.raises(OracleError, match=message):
            check_containment(net, {"t": POS}, spec)
        with pytest.raises(OracleError, match=message):
            ref_check_containment(net, {"t": POS}, spec)
        with pytest.raises(OracleError, match=message):
            exact_belief(sample_model(net, 0), "a")

    def test_degenerate_segment_skips_before_refusing(self):
        # a table at its decision boundary resamples every attempt, so no
        # trial reaches the per-parent table that has no formula
        links = [("m", ("t",), "one"), ("a", ("m", "r"), "sep")]
        net = self.belief_net(links, BelCond1(bel_c_given_a=0.7, bel_c_given_frame=0.2))
        spec = PerturbationSpec("t", INCREASE, trials=2, seed=1)
        report = check_containment(net, {"t": POS}, spec)
        assert report.skipped == 2
        assert report == ref_check_containment(net, {"t": POS}, spec)

    @staticmethod
    def belief_net(links, one):
        """Belief variables a, b, m, q, r, t, z; each link is (child, parents,
        "one" for the table ``one`` or "sep" for it per parent)."""
        tables = {"sep": BelCond2Separate(one, one), "one": one}
        return Network(
            [Variable(v, BEL) for v in ("a", "b", "m", "q", "r", "t", "z")],
            [Link(child, parents, tables[kind]) for child, parents, kind in links],
        )


# ---------------------------------------------------------------------------
# a check costs its segment, not the whole network
# ---------------------------------------------------------------------------

def beside(rng, first, second):
    """The two networks as one, with every name replaced by a shuffled
    ``n<k>``, so the name order interleaves the two components."""
    names = [f"n{k:03d}" for k in range(len(first.variables) + len(second.variables))]
    rng.shuffle(names)
    fresh = iter(names)
    rename = [{v: next(fresh) for v in sorted(net.variables)} for net in (first, second)]
    return Network(
        [
            Variable(to[v.name], v.formalism, v.prior)
            for net, to in zip((first, second), rename)
            for v in net.variables.values()
        ],
        [
            Link(to[link.child], tuple(to[p] for p in link.parents), link.table)
            for net, to in zip((first, second), rename)
            for link in net.links
        ],
    )


MIXES = [(PROB, POSS, BEL), (PROB,), (POSS,), (BEL,), (PROB, BEL), (BEL, POSS)]


class TestSegmentOnly:
    @settings(max_examples=70, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.tuples(st.integers(2, 25), st.integers(1, 25)),
        mixes=st.lists(st.sampled_from(MIXES), min_size=2, max_size=2, unique=True),
        increase=st.booleans(),
    )
    def test_matches_reference_beside_an_unrelated_component(self, seed, sizes, mixes, increase):
        rng = random.Random(seed)
        net = beside(rng, *(random_polytree(rng, n, mix) for n, mix in zip(sizes, mixes)))
        direction, sign = (INCREASE, POS) if increase else (DECREASE, NEG)
        for target in rng.sample(sorted(v for v in net.variables if v not in net.link_of), 2):
            spec = PerturbationSpec(target, direction, trials=3, seed=seed % 1000)
            got = outcome(check_containment, net, {target: sign}, spec)
            want = outcome(ref_check_containment, net, {target: sign}, spec)
            assert got == want
            if isinstance(want, ContainmentReport):
                assert got.to_table() == want.to_table()

    def test_cost_does_not_grow_with_an_unrelated_component(self, monkeypatch):
        rng = random.Random(5)
        # a 3-link chain c0 -> c1 -> c2 -> c3 beside a 5000-variable chain of
        # prior-less variables whose names sort before and after it
        big = [Variable(f"{'a' if i % 2 else 'd'}{i:04d}", (PROB, POSS, BEL)[i % 3]) for i in range(5000)]
        net = Network(
            [Variable(f"c{i}", PROB) for i in range(4)] + big,
            [Link(f"c{i}", (f"c{i - 1}",), rand_prob_cond1(rng)) for i in range(1, 4)]
            + [Link(big[i].name, (big[i - 1].name,), BelCond1(0.7, 0.1, 0.3, 0.1, 0.6, 0.3))
               for i in range(1, 5000) if big[i].formalism is BEL and big[i - 1].formalism is BEL],
        )
        sampled, walked = [], []
        real_sample, real_walk = oracle._sample_prior, oracle._walk

        def walk(steps, *rest):
            walked.extend(steps)
            return real_walk(steps, *rest)

        monkeypatch.setattr(oracle, "_sample_prior", lambda f, rng: sampled.append(f) or real_sample(f, rng))
        monkeypatch.setattr(oracle, "_walk", walk)
        spec = PerturbationSpec("c0", INCREASE, trials=20, seed=3, epsilon=0.3)
        report = check_containment(net, {"c0": POS}, spec)
        attempts = report.completed + report.resampled
        assert report.completed == 20 and report.resampled > 0
        assert 0 < len(sampled) <= 4 * attempts  # segment: c0..c3
        assert [step.name for step in walked] == ["c0", "c1", "c2", "c3"]
        assert report == ref_check_containment(net, {"c0": POS}, spec)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
    def test_predictions_equal_propagate(self, seed, n):
        rng = random.Random(seed)
        predictions_match_propagate(renamed(rng, random_polytree(rng, n)), seed % 1000)

    def test_predictions_equal_propagate_on_1000_variables(self):
        rng = random.Random(1000)
        assert predictions_match_propagate(renamed(rng, random_polytree(rng, 1000)), 0) > 1000


def renamed(rng, net):
    """``net`` with its names shuffled among its variables, and its
    variables and links in shuffled order."""
    names = sorted(net.variables)
    to = dict(zip(names, rng.sample(names, len(names))))
    variables = [Variable(to[v.name], v.formalism, v.prior) for v in net.variables.values()]
    links = [Link(to[link.child], tuple(to[p] for p in link.parents), link.table) for link in net.links]
    rng.shuffle(variables)
    rng.shuffle(links)
    return Network(variables, links)


def predictions_match_propagate(net, seed):
    """Assert that every row the oracle predicts, for each root and each
    direction its prior allows, is the change propagate gives it; return
    the number of rows compared.  The oracle walks only the root's
    descendants, propagate the whole network."""
    compared = 0
    for root in sorted(v for v in net.variables if v not in net.link_of):
        for direction, sign in ((INCREASE, POS), (DECREASE, NEG)):
            try:
                full = propagate(net, {root: sign}).changes
            except EvidenceError:  # the prior rules this direction out
                continue
            try:
                report = check_containment(net, {root: sign}, PerturbationSpec(root, direction, trials=1, seed=seed))
            except OracleError:  # raised by a trial, after the prediction
                continue
            for row in report.rows:
                assert row.predicted == full[row.name], (root, sign, row.name)
            compared += len(report.rows)
    return compared
