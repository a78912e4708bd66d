"""Brute-force numeric verification of qualitative predictions.

The oracle fills a network's unspecified priors with random numbers,
applies a small numeric perturbation matching a piece of qualitative
evidence, recomputes the exact values of every downstream variable in the
same formalism, and checks that each observed change direction is a member
of the predicted sign set.  States too close to a decision boundary for a
strict prediction to be tested meaningfully are resampled and counted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from . import links as lc
from .network import (
    BEL,
    Change,
    Evidence,
    Formalism,
    Link,
    Network,
    POSS,
    PROB,
    propagate,
)
from .signs import NEG, POS, QSign, sign_of

RESAMPLE_CAP = 100

INCREASE = "increase"
DECREASE = "decrease"


class OracleError(Exception):
    """Raised when a network or query cannot be verified numerically."""


@dataclass(frozen=True)
class QuantModel:
    """A network plus a full numeric assignment of priors."""

    network: Network
    priors: Mapping[str, tuple[float, float]]

    def with_prior(self, name: str, pair: tuple[float, float]) -> "QuantModel":
        updated = dict(self.priors)
        updated[name] = pair
        return QuantModel(self.network, updated)


@dataclass(frozen=True)
class PerturbationSpec:
    """How to perturb one evidence variable, and how often."""

    target: str
    direction: str
    epsilon: float = 1e-4
    trials: int = 1000
    seed: int = 0
    zero_tolerance: float = 1e-12

    def __post_init__(self) -> None:
        if self.direction not in (INCREASE, DECREASE):
            raise ValueError(f"direction must be {INCREASE!r} or {DECREASE!r}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.trials <= 0:
            raise ValueError("trials must be positive")


def _sample_prior(formalism: Formalism, rng: random.Random) -> tuple[float, float]:
    if formalism is PROB:
        p = rng.random()
        return p, 1.0 - p
    if formalism is POSS:
        u = rng.random()
        return (1.0, u) if rng.random() < 0.5 else (u, 1.0)
    # belief: uniform over the simplex bel(x) + bel(~x) <= 1
    a, b = sorted((rng.random(), rng.random()))
    return a, b - a


def sample_model(net: Network, seed: int) -> QuantModel:
    """Fill unspecified priors at random; declared priors are kept verbatim."""
    rng = random.Random(seed)
    priors: dict[str, tuple[float, float]] = {}
    for name in sorted(net.variables):
        var = net.variables[name]
        priors[name] = var.prior if var.prior is not None else _sample_prior(var.formalism, rng)
    return QuantModel(net, priors)


# ---------------------------------------------------------------------------
# exact evaluation down the polytree
# ---------------------------------------------------------------------------

def _exact(model: QuantModel, name: str, memo: dict[str, tuple[float, float]]) -> tuple[float, float]:
    if name in memo:
        return memo[name]
    net = model.network
    var = net.variables[name]
    link = net.link_of.get(name)
    if link is None:
        value = model.priors[name]
        memo[name] = value
        return value
    for p in link.parents:
        if net.variables[p].formalism is not var.formalism:
            raise OracleError(
                f"cannot evaluate {name!r}: parent {p!r} lives in another formalism"
            )
    table = link.table
    parent_vals = [_exact(model, p, memo) for p in link.parents]

    def pv(idx: int, pos: bool) -> float:
        return parent_vals[idx][0 if pos else 1]

    if isinstance(table, lc.ProbCond1):
        p_c = pv(0, True) * table.get(True, True) + pv(0, False) * table.get(True, False)
        value = (p_c, 1.0 - p_c)
    elif isinstance(table, lc.ProbCond2):
        p_d = sum(
            pv(0, bp) * pv(1, cp) * table.get(True, bp, cp)
            for bp in (True, False)
            for cp in (True, False)
        )
        value = (p_d, 1.0 - p_d)
    elif isinstance(table, lc.PossCond1):
        value = tuple(
            max(min(table.get(cp, ap), pv(0, ap)) for ap in (True, False))
            for cp in (True, False)
        )
    elif isinstance(table, lc.PossCond2):
        value = tuple(
            max(
                min(table.get(cp, bp, cpp), pv(0, bp), pv(1, cpp))
                for bp in (True, False)
                for cpp in (True, False)
            )
            for cp in (True, False)
        )
    elif isinstance(table, lc.BelCond1):
        masses = _masses(parent_vals[0])
        value = tuple(
            sum(m * table.get(cp, cell) for cell, m in masses) for cp in (True, False)
        )
    elif isinstance(table, lc.BelCond2Joint):
        m1 = _masses(parent_vals[0])
        m2 = _masses(parent_vals[1])
        value = tuple(
            sum(ma * mb * table.get(cp, ca, cb) for ca, ma in m1 for cb, mb in m2)
            for cp in (True, False)
        )
    elif isinstance(table, lc.BelCond2Separate):
        raise OracleError(
            f"cannot evaluate {name!r}: per-parent belief tables have no trusted combination formula"
        )
    else:
        raise OracleError(f"unknown table type {type(table).__name__}")
    memo[name] = value  # type: ignore[assignment]
    return memo[name]


def _masses(pair: tuple[float, float]) -> tuple[tuple[lc.Cell, float], ...]:
    b, d = pair
    return ((True, b), (False, d), (None, 1.0 - b - d))


def _exact_typed(model: QuantModel, name: str, formalism: Formalism, label: str) -> tuple[float, float]:
    var = model.network.variables.get(name)
    if var is None:
        raise OracleError(f"unknown variable {name!r}")
    if var.formalism is not formalism:
        raise OracleError(f"{name!r} is not a {label} variable")
    return _exact(model, name, {})


def exact_probability(model: QuantModel, name: str) -> tuple[float, float]:
    """Exact (p(x), p(~x)) by recursion down the polytree."""
    return _exact_typed(model, name, PROB, "probability")


def exact_possibility(model: QuantModel, name: str) -> tuple[float, float]:
    """Exact (pi(x), pi(~x)) by sup-min evaluation."""
    return _exact_typed(model, name, POSS, "possibility")


def exact_belief(model: QuantModel, name: str) -> tuple[float, float]:
    """Exact (bel(x), bel(~x)) by mass-weighted sums."""
    return _exact_typed(model, name, BEL, "belief")


# ---------------------------------------------------------------------------
# containment checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariableCheck:
    """Outcome of the containment check for one variable."""

    name: str
    kind: str  # "checked", "bridge" or "unchecked"
    predicted: Change
    observed_pos: tuple[int, int, int]  # counts of +, 0, - over trials
    observed_neg: tuple[int, int, int]
    failures: int

    @property
    def verdict(self) -> str:
        if self.kind == "checked":
            return "FAIL" if self.failures else "PASS"
        if self.kind == "bridge":
            return "FAIL" if self.failures else "BRIDGE"
        return "UNCHECKED"


@dataclass(frozen=True)
class ContainmentReport:
    rows: tuple[VariableCheck, ...]
    trials: int
    completed: int
    resampled: int
    skipped: int

    @property
    def passed(self) -> bool:
        return self.completed > 0 and all(r.failures == 0 for r in self.rows)

    @property
    def pass_rate(self) -> float:
        checked = [r for r in self.rows if r.kind == "checked"]
        if not checked:
            return 1.0
        return sum(1 for r in checked if r.verdict == "PASS") / len(checked)

    def to_table(self) -> str:
        lines = ["variable\tpredicted\tobserved\tverdict"]
        for row in self.rows:
            pred = f"{row.predicted[0]},{row.predicted[1]}"
            if row.kind == "checked":
                obs = f"x[{_histogram(row.observed_pos)}] ~x[{_histogram(row.observed_neg)}]"
            else:
                obs = "-"
            lines.append(f"{row.name}\t{pred}\t{obs}\t{row.verdict}")
        lines.append(
            f"# trials={self.trials} completed={self.completed} "
            f"resampled={self.resampled} skipped={self.skipped}"
        )
        return "\n".join(lines) + "\n"


def _histogram(counts: tuple[int, int, int]) -> str:
    parts = []
    for label, n in zip("+0-", counts):
        if n:
            parts.append(f"{label}={n}")
    return ",".join(parts) if parts else "none"


_SIGN_SLOT = {1: 0, 0: 1, -1: 2}


def _observed_slot(s: QSign) -> int:
    (member,) = s.signs()
    return _SIGN_SLOT[member]


def _perturb(
    formalism: Formalism, pair: tuple[float, float], direction: str, eps: float
) -> tuple[float, float] | None:
    """Perturbed prior pair, or None when the direction is infeasible."""
    x, nx = pair
    if formalism is PROB:
        moved = x + eps if direction == INCREASE else x - eps
        if not 0.0 <= moved <= 1.0:
            return None
        return moved, 1.0 - moved
    if formalism is POSS:
        if direction == INCREASE:
            if x >= 1.0 or x + eps > 1.0:
                return None
            return x + eps, nx
        if x == 1.0:
            # lowering the top value forces the complement up to 1
            return 1.0 - eps, 1.0
        if x - eps < 0.0:
            return None
        return x - eps, nx
    # belief: mass moves between the outcome and the frame
    if direction == INCREASE:
        if 1.0 - x - nx < eps:
            return None
        return x + eps, nx
    if x < eps:
        return None
    return x - eps, nx


def _ancestry_formalism_ok(net: Network, name: str, formalism: Formalism) -> bool:
    if net.variables[name].formalism is not formalism:
        return False
    link = net.link_of.get(name)
    if link is None:
        return True
    return all(_ancestry_formalism_ok(net, p, formalism) for p in link.parents)


def _link_degenerate(model: QuantModel, link: Link, tol: float) -> bool:
    table = link.table
    if isinstance(table, lc.ProbCond1):
        return lc.prob_link_margin(table) < tol
    if isinstance(table, lc.ProbCond2):
        return lc.prob_pair_margin(table) < tol
    if isinstance(table, lc.BelCond1):
        return lc.bel_link_margin(table) < tol
    if isinstance(table, lc.BelCond2Joint):
        return lc.bel_pair_joint_margin(table) < tol
    try:
        if isinstance(table, lc.PossCond1):
            state = lc.PossState(*_exact(model, link.parents[0], {}))
            return lc.poss_link_degenerate(table, state, tol)
        if isinstance(table, lc.PossCond2):
            s1 = lc.PossState(*_exact(model, link.parents[0], {}))
            s2 = lc.PossState(*_exact(model, link.parents[1], {}))
            return lc.poss_pair_degenerate(table, s1, s2, tol)
    except ValueError as exc:
        # an unnormalized upstream table can denormalize a computed state
        raise OracleError(f"possibility state for link into {link.child!r} is unnormalized: {exc}") from exc
    return False


def check_containment(net: Network, evidence: Evidence, spec: PerturbationSpec) -> ContainmentReport:
    """Verify qualitative predictions against exact numeric recomputation.

    The perturbed variable must be a root and the only evidence variable,
    with an evidence direction matching the spec.  Downstream variables in
    the root's formalism are recomputed exactly before and after each
    perturbation; variables behind a formalism bridge are only checked for
    the monotone-widening property, since the bridge itself is an
    assumption with no numeric counterpart.
    """
    report = net.compiled.report
    if not report.ok:
        raise OracleError("invalid network: " + "; ".join(report.errors))

    if spec.target not in net.variables:
        raise OracleError(f"unknown target variable {spec.target!r}")
    if net.link_of.get(spec.target) is not None:
        raise OracleError(f"target {spec.target!r} must be a root variable")

    ev_names = {name for name, _ in dict(evidence).items()}
    if ev_names != {spec.target}:
        raise OracleError("the oracle perturbs a single evidence variable; evidence must name exactly the target")
    wanted = POS if spec.direction == INCREASE else NEG
    ev_value = dict(evidence)[spec.target]
    ev_sign = ev_value if isinstance(ev_value, QSign) else ev_value[0]
    if ev_sign != wanted:
        raise OracleError(f"evidence for {spec.target!r} must be {wanted} to match direction {spec.direction!r}")

    prediction = propagate(net, evidence).changes
    target_form = net.variables[spec.target].formalism
    downstream = net.descendants(spec.target)
    checked = sorted(v for v in downstream if _ancestry_formalism_ok(net, v, target_form))
    checked_set = set(checked)
    bridge = sorted(
        link.child
        for link in net.links
        if link.child in downstream
        and link.child not in checked_set
        and any(p in checked_set for p in link.parents)
    )
    unchecked = sorted(downstream - checked_set - set(bridge))
    segment_links = [net.link_of[v] for v in checked if v in net.link_of]

    pos_counts = {v: [0, 0, 0] for v in checked}
    neg_counts = {v: [0, 0, 0] for v in checked}
    failures = {v: 0 for v in checked}
    bridge_failures = {v: 0 for v in bridge}
    completed = resampled = skipped = 0

    for trial in range(spec.trials):
        model = None
        for attempt in range(RESAMPLE_CAP):
            trial_seed = (spec.seed * 1_000_003 + trial) * 1_000_003 + attempt
            candidate = sample_model(net, trial_seed)
            moved = _perturb(target_form, candidate.priors[spec.target], spec.direction, spec.epsilon)
            if moved is None or any(
                _link_degenerate(candidate, link, 1e-9) for link in segment_links
            ):
                resampled += 1
                continue
            model = candidate
            break
        if model is None:
            skipped += 1
            continue

        base = {v: _exact(model, v, {}) for v in checked}
        after_model = model.with_prior(spec.target, moved)
        after = {v: _exact(after_model, v, {}) for v in checked}
        observed: dict[str, tuple[QSign, QSign]] = {}
        for v in checked:
            obs = (
                sign_of(after[v][0] - base[v][0], spec.zero_tolerance),
                sign_of(after[v][1] - base[v][1], spec.zero_tolerance),
            )
            observed[v] = obs
            pos_counts[v][_observed_slot(obs[0])] += 1
            neg_counts[v][_observed_slot(obs[1])] += 1
            pred = prediction[v]
            if not (obs[0].issubset(pred[0]) and obs[1].issubset(pred[1])):
                failures[v] += 1
        for child in bridge:
            link = net.link_of[child]
            for p in link.parents:
                if p not in checked_set:
                    continue
                pred_p = prediction[p]
                obs_p = observed[p]
                if not (
                    obs_p[0].widened().issubset(pred_p[0].widened())
                    and obs_p[1].widened().issubset(pred_p[1].widened())
                ):
                    bridge_failures[child] += 1
        completed += 1

    rows = [
        VariableCheck(
            v,
            "checked",
            prediction[v],
            tuple(pos_counts[v]),
            tuple(neg_counts[v]),
            failures[v],
        )
        for v in checked
    ]
    rows += [
        VariableCheck(v, "bridge", prediction[v], (0, 0, 0), (0, 0, 0), bridge_failures[v])
        for v in bridge
    ]
    rows += [
        VariableCheck(v, "unchecked", prediction[v], (0, 0, 0), (0, 0, 0), 0) for v in unchecked
    ]
    rows.sort(key=lambda r: r.name)
    return ContainmentReport(tuple(rows), spec.trials, completed, resampled, skipped)
