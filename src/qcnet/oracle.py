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
from typing import Iterable, Mapping

from . import links as lc
from .network import (
    BEL,
    Change,
    ConditionalTable,
    Evidence,
    Formalism,
    Link,
    Network,
    POSS,
    PROB,
    propagate,
)
from .signs import NEG, POS, QSign, ZERO, sign_of

RESAMPLE_CAP = 100
_DEGENERATE_TOL = 1e-9  # states this close to a decision boundary are resampled

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
# exact evaluation in topological order
# ---------------------------------------------------------------------------

def _link_value(table: ConditionalTable, parent_values: list[tuple[float, float]]) -> tuple[float, float]:
    """Exact (x, ~x) of a link's child from its parents' exact values:
    total probability, sup-min, or mass-weighted sums.  Longer sums than
    two terms use ``sum``, in a fixed order: from Python 3.12 ``sum``
    rounds differently from chained ``+``."""
    if isinstance(table, lc.ProbCond1):
        a, na = parent_values[0]
        p_c = a * table.p_c_given_a + na * table.p_c_given_na
        return p_c, 1.0 - p_c
    if isinstance(table, lc.ProbCond2):
        (b, nb), (c, nc) = parent_values
        p_d = sum((
            b * c * table.p_d_given_bc,
            b * nc * table.p_d_given_b_nc,
            nb * c * table.p_d_given_nb_c,
            nb * nc * table.p_d_given_nb_nc,
        ))
        return p_d, 1.0 - p_d
    if isinstance(table, lc.PossCond1):
        a, na = parent_values[0]
        return (
            max(min(table.pi_c_given_a, a), min(table.pi_c_given_na, na)),
            max(min(table.pi_nc_given_a, a), min(table.pi_nc_given_na, na)),
        )
    if isinstance(table, lc.PossCond2):
        (b, nb), (c, nc) = parent_values
        return (
            max(
                min(table.pi_d_given_bc, b, c),
                min(table.pi_d_given_b_nc, b, nc),
                min(table.pi_d_given_nb_c, nb, c),
                min(table.pi_d_given_nb_nc, nb, nc),
            ),
            max(
                min(table.pi_nd_given_bc, b, c),
                min(table.pi_nd_given_b_nc, b, nc),
                min(table.pi_nd_given_nb_c, nb, c),
                min(table.pi_nd_given_nb_nc, nb, nc),
            ),
        )
    if isinstance(table, lc.BelCond1):
        # masses on the outcome, its complement and the frame
        a, na = parent_values[0]
        frame = 1.0 - a - na
        return (
            sum((a * table.bel_c_given_a, na * table.bel_c_given_na, frame * table.bel_c_given_frame)),
            sum((a * table.bel_nc_given_a, na * table.bel_nc_given_na, frame * table.bel_nc_given_frame)),
        )
    if isinstance(table, lc.BelCond2Joint):
        # joint masses in the table's cell order: first parent's cell major
        m1 = _masses(parent_values[0])
        m2 = _masses(parent_values[1])
        joint = [ma * mb for ma in m1 for mb in m2]
        cells = table.cells
        return (
            sum([m * cells[k] for k, m in enumerate(joint)]),
            sum([m * cells[k + 9] for k, m in enumerate(joint)]),
        )
    raise OracleError(f"no exact formula for {type(table).__name__} tables")


def _masses(pair: tuple[float, float]) -> tuple[float, float, float]:
    b, d = pair
    return b, d, 1.0 - b - d


def _evaluate(
    model: QuantModel, names: Iterable[str], values: dict[str, tuple[float, float]]
) -> dict[str, tuple[float, float]]:
    """Fill ``values`` with the exact value of each name, in the given
    order (topological): a root takes its prior, any other variable its
    link's formula over parent values already in ``values``."""
    link_of = model.network.link_of
    priors = model.priors
    for name in names:
        link = link_of.get(name)
        if link is None:
            values[name] = priors[name]
        else:
            values[name] = _link_value(link.table, [values[p] for p in link.parents])
    return values


def _ancestry(net: Network, names: Iterable[str]) -> tuple[list[str], str | None]:
    """The names and all their ancestors, in compiled order, and why the
    first name without an exact value has none (None when all have one).

    The walk is depth first from each name in turn, parents in link order,
    the order in which the recursive definition evaluates them, so the
    reason names the variable that definition stops at: a parent in
    another formalism is met on the way down, a per-parent belief table on
    the way back up.
    """
    seen: set[str] = set()
    for name in names:
        stack = [(name, False)]
        while stack:
            v, back = stack.pop()
            link = net.link_of.get(v)
            if back:
                if isinstance(link.table, lc.BelCond2Separate):
                    return [], f"cannot evaluate {v!r}: per-parent belief tables have no trusted combination formula"
                continue
            if v in seen:
                continue
            seen.add(v)
            if link is None:
                continue
            formalism = net.variables[v].formalism
            for p in link.parents:
                if net.variables[p].formalism is not formalism:
                    return [], f"cannot evaluate {v!r}: parent {p!r} lives in another formalism"
            stack.append((v, True))
            stack.extend((p, False) for p in reversed(link.parents))
    return [v for v in net.compiled.order if v in seen], None


def _require_valid(net: Network) -> None:
    report = net.compiled.report
    if not report.ok:
        raise OracleError("invalid network: " + "; ".join(report.errors))


def _exact_typed(model: QuantModel, name: str, formalism: Formalism, label: str) -> tuple[float, float]:
    net = model.network
    var = net.variables.get(name)
    if var is None:
        raise OracleError(f"unknown variable {name!r}")
    if var.formalism is not formalism:
        raise OracleError(f"{name!r} is not a {label} variable")
    _require_valid(net)
    segment, refusal = _ancestry(net, (name,))
    if refusal is not None:
        raise OracleError(refusal)
    return _evaluate(model, segment, {})[name]


def exact_probability(model: QuantModel, name: str) -> tuple[float, float]:
    """Exact (p(x), p(~x)) by total probability, evaluating the ancestry
    of ``name`` once in topological order."""
    return _exact_typed(model, name, PROB, "probability")


def exact_possibility(model: QuantModel, name: str) -> tuple[float, float]:
    """Exact (pi(x), pi(~x)) by sup-min evaluation of the ancestry of
    ``name`` in topological order."""
    return _exact_typed(model, name, POSS, "possibility")


def exact_belief(model: QuantModel, name: str) -> tuple[float, float]:
    """Exact (bel(x), bel(~x)) by mass-weighted sums over the ancestry of
    ``name`` in topological order."""
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


_OBSERVED_SLOT = {POS: 0, ZERO: 1, NEG: 2}  # histogram slot of an observed sign


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


def _table_degenerate(table: ConditionalTable, tol: float) -> bool:
    """Whether a probability or belief table sits within ``tol`` of a
    decision boundary; these margins do not depend on the sampled priors."""
    if isinstance(table, lc.ProbCond1):
        return lc.prob_link_margin(table) < tol
    if isinstance(table, lc.ProbCond2):
        return lc.prob_pair_margin(table) < tol
    if isinstance(table, lc.BelCond1):
        return lc.bel_link_margin(table) < tol
    if isinstance(table, lc.BelCond2Joint):
        return lc.bel_pair_joint_margin(table) < tol
    return False


def _state_degenerate(link: Link, values: Mapping[str, tuple[float, float]], tol: float) -> bool:
    """Whether a possibility link sits within ``tol`` of a decision boundary
    at its parents' values."""
    table = link.table
    try:
        states = [lc.PossState(*values[p]) for p in link.parents]
        if isinstance(table, lc.PossCond1):
            return lc.poss_link_degenerate(table, states[0], tol)
        return lc.poss_pair_degenerate(table, states[0], states[1], tol)
    except ValueError as exc:
        # an unnormalized upstream table can denormalize a computed state
        raise OracleError(f"possibility state for link into {link.child!r} is unnormalized: {exc}") from exc


def check_containment(net: Network, evidence: Evidence, spec: PerturbationSpec) -> ContainmentReport:
    """Verify qualitative predictions against exact numeric recomputation.

    The perturbed variable must be a root and the only evidence variable,
    with an evidence direction matching the spec.  Downstream variables in
    the root's formalism are recomputed exactly before and after each
    perturbation; variables behind a formalism bridge are only checked for
    the monotone-widening property, since the bridge itself is an
    assumption with no numeric counterpart.
    """
    _require_valid(net)

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
    same_form: set[str] = set()  # variables whose whole ancestry is in the target's formalism
    for v in net.compiled.order:
        link = net.link_of.get(v)
        if net.variables[v].formalism is target_form and (
            link is None or all(p in same_form for p in link.parents)
        ):
            same_form.add(v)
    checked = sorted(downstream & same_form)
    checked_set = set(checked)
    bridge = sorted(
        link.child
        for link in net.links
        if link.child in downstream
        and link.child not in checked_set
        and any(p in checked_set for p in link.parents)
    )
    unchecked = sorted(downstream - checked_set - set(bridge))
    # Only the segment (the checked variables and their ancestors) is
    # evaluated; the perturbation changes only the checked variables below
    # the target, all of them non-roots.  Probability and belief margins
    # depend on the tables alone, so they are computed once per check;
    # possibility links are degenerate or not at each sampled state.
    segment, refusal = _ancestry(net, checked)
    below = [v for v in segment if v in checked_set and v != spec.target]
    segment_links = [net.link_of[v] for v in checked if v != spec.target]
    table_degenerate = any(_table_degenerate(link.table, _DEGENERATE_TOL) for link in segment_links)
    poss_links = [link for link in segment_links if isinstance(link.table, (lc.PossCond1, lc.PossCond2))]

    pos_counts = {v: [0, 0, 0] for v in checked}
    neg_counts = {v: [0, 0, 0] for v in checked}
    failures = {v: 0 for v in checked}
    bridge_failures = {v: 0 for v in bridge}
    completed = resampled = skipped = 0

    for trial in range(spec.trials):
        for attempt in range(RESAMPLE_CAP):
            trial_seed = (spec.seed * 1_000_003 + trial) * 1_000_003 + attempt
            model = sample_model(net, trial_seed)
            moved = _perturb(target_form, model.priors[spec.target], spec.direction, spec.epsilon)
            if moved is None or table_degenerate:
                resampled += 1
                continue
            if refusal is not None:  # only a trial that evaluates needs a formula
                raise OracleError(refusal)
            base = _evaluate(model, segment, {})
            if any(_state_degenerate(link, base, _DEGENERATE_TOL) for link in poss_links):
                resampled += 1
                continue
            break
        else:
            skipped += 1
            continue

        after = dict(base)
        after[spec.target] = moved
        _evaluate(model, below, after)
        observed: dict[str, tuple[QSign, QSign]] = {}
        for v in checked:
            obs = (
                sign_of(after[v][0] - base[v][0], spec.zero_tolerance),
                sign_of(after[v][1] - base[v][1], spec.zero_tolerance),
            )
            observed[v] = obs
            pos_counts[v][_OBSERVED_SLOT[obs[0]]] += 1
            neg_counts[v][_OBSERVED_SLOT[obs[1]]] += 1
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
