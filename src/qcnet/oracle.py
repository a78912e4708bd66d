"""Brute-force numeric verification of qualitative predictions.

The oracle fills a network's unspecified priors with random numbers,
applies a small numeric perturbation matching a piece of qualitative
evidence, recomputes the exact values of every downstream variable in the
same formalism, and checks that each observed change direction is a member
of the predicted sign set.  States too close to a decision boundary for a
strict prediction to be tested meaningfully are resampled and counted.
"""

from __future__ import annotations

import math
import random
import weakref
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping

from .links import PossState
from .network import (
    BEL,
    Change,
    ChangeVector,
    Evidence,
    Formalism,
    Link,
    Network,
    POSS,
    PROB,
    Variable,
    _complete_evidence,
    _evidence_pair,
    _walk,
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
        if not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not isinstance(self.trials, int) or isinstance(self.trials, bool):
            raise ValueError("trials must be an integer")
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if not math.isfinite(self.zero_tolerance):
            raise ValueError("zero_tolerance must be finite")
        if self.zero_tolerance < 0:
            raise ValueError("zero_tolerance must not be negative")


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


# Draws of ``rng.random()`` that ``_sample_prior`` makes for each formalism.
_DRAWS = {PROB: 1, POSS: 2, BEL: 2}


class _Sampler:
    """A network's variables in name order, the order in which
    :func:`sample_model` draws their priors, and the number of draws made
    before each; built once per network."""

    def __init__(self, net: Network):
        self.variables = tuple(v for _, v in sorted(net.variables.items()))
        self.index = {v.name: i for i, v in enumerate(self.variables)}
        self.draws_before = list(
            accumulate((0 if v.prior is not None else _DRAWS[v.formalism] for v in self.variables), initial=0)
        )

    def plan(self, names: Iterable[str]) -> list[tuple[int, Variable]]:
        """(draws to skip, variable) for each of ``names`` in name order:
        sampling only these, after skipping the draws every other variable
        takes, gives each the prior :func:`sample_model` does.  O(k log k)
        for k names."""
        out = []
        at = 0
        for i in sorted({self.index[n] for n in names}):
            out.append((self.draws_before[i] - at, self.variables[i]))
            at = self.draws_before[i + 1]
        return out


# A memo of what each live network's variables determine; networks are
# immutable, so an entry never goes stale, and it goes with its network.
_SAMPLERS: weakref.WeakKeyDictionary[Network, _Sampler] = weakref.WeakKeyDictionary()


def _sampler(net: Network) -> _Sampler:
    sampler = _SAMPLERS.get(net)
    if sampler is None:
        sampler = _SAMPLERS[net] = _Sampler(net)
    return sampler


def _draw(plan: Iterable[tuple[int, Variable]], seed: int) -> dict[str, tuple[float, float]]:
    """The priors of a plan's variables, from a generator seeded with ``seed``."""
    rng = random.Random(seed)
    priors: dict[str, tuple[float, float]] = {}
    for skip, var in plan:
        if skip:
            # one random() consumes two 32-bit words of the generator, so
            # this advances it exactly as ``skip`` random() calls would
            rng.getrandbits(64 * skip)
        priors[var.name] = var.prior if var.prior is not None else _sample_prior(var.formalism, rng)
    return priors


def sample_model(net: Network, seed: int) -> QuantModel:
    """Fill unspecified priors at random; declared priors are kept verbatim.

    Every variable is sampled, in name order, from one generator seeded
    with ``seed``.  An oracle check samples only the roots its segment
    reads, and gives each the prior this function would.
    """
    return QuantModel(net, _draw(((0, v) for v in _sampler(net).variables), seed))


# ---------------------------------------------------------------------------
# exact evaluation in topological order
# ---------------------------------------------------------------------------

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
            values[name] = link.table.evaluate([values[p] for p in link.parents])
    return values


def _ancestry(net: Network, names: Iterable[str]) -> tuple[list[str], str | None]:
    """The names and all their ancestors, in compiled order, and why the
    first name without an exact value has none (None when all have one).

    The walk is depth first from each name in turn, parents in link order,
    the order in which the recursive definition evaluates them, so the
    reason names the variable that definition stops at: a parent in
    another formalism is met on the way down, a table without an exact
    formula on the way back up.
    """
    seen: set[str] = set()
    for name in names:
        stack = [(name, False)]
        while stack:
            v, back = stack.pop()
            link = net.link_of.get(v)
            if back:
                if link.table.no_formula is not None:
                    return [], f"cannot evaluate {v!r}: {link.table.no_formula}"
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
    return sorted(seen, key=net.compiled.position.__getitem__), None


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


def _state_margin(link: Link, values: Mapping[str, tuple[float, float]]) -> float:
    """A state-dependent link's margin at its parents' values."""
    try:
        return link.table.margin(*[PossState(*values[p]) for p in link.parents])
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

    Only the target's descendants and the checked segment (the checked
    variables and their ancestors) are visited: a check costs
    O(d log d + s) for d descendants and a segment of s variables, and each
    trial O(s), whatever the size of the rest of the network.
    """
    _require_valid(net)
    compiled = net.compiled

    if spec.target not in net.variables:
        raise OracleError(f"unknown target variable {spec.target!r}")
    if net.link_of.get(spec.target) is not None:
        raise OracleError(f"target {spec.target!r} must be a root variable")

    if set(evidence) != {spec.target}:
        raise OracleError("the oracle perturbs a single evidence variable; evidence must name exactly the target")
    wanted = POS if spec.direction == INCREASE else NEG
    if _evidence_pair(spec.target, evidence[spec.target])[0] != wanted:
        raise OracleError(f"evidence for {spec.target!r} must be {wanted} to match direction {spec.direction!r}")

    # Evidence on a single root changes nothing outside its descendants:
    # there every parent is unchanged, a zero change stays zero through any
    # derivative, and a bridged zero stays zero.  So the descendants' steps,
    # in compiled order, predict what the full walk would.
    downstream = net.descendants(spec.target)
    steps = [compiled.steps[i] for i in sorted(compiled.position[v] for v in downstream)]
    prediction = ChangeVector(_walk(steps, _complete_evidence(net, evidence))[0])
    target_form = net.variables[spec.target].formalism
    checked = sorted(
        v for v in downstream if v in compiled.pure and net.variables[v].formalism is target_form
    )
    checked_set = set(checked)
    bridge = sorted({c for v in checked for c in compiled.children.get(v, ()) if c not in checked_set})
    unchecked = sorted(downstream - checked_set - set(bridge))
    # Only the segment (the checked variables and their ancestors) is
    # evaluated, and only its roots' priors are sampled (and the target's,
    # which a refused segment leaves out but _perturb reads); the perturbation
    # changes only the checked variables below the target, all of them
    # non-roots.  Probability and belief margins depend on the tables
    # alone, so they are computed once per check; state-dependent
    # (possibility) margins are computed at each sampled state.
    segment, refusal = _ancestry(net, checked)
    plan = _sampler(net).plan([spec.target, *(v for v in segment if v not in net.link_of)])
    below = [v for v in segment if v in checked_set and v != spec.target]
    segment_links = [net.link_of[v] for v in checked if v != spec.target]
    state_links = [link for link in segment_links if link.table.state_dependent]
    table_degenerate = any(
        link.table.margin() < _DEGENERATE_TOL for link in segment_links if not link.table.state_dependent
    )

    pos_counts = {v: [0, 0, 0] for v in checked}
    neg_counts = {v: [0, 0, 0] for v in checked}
    failures = {v: 0 for v in checked}
    bridge_failures = {v: 0 for v in bridge}
    completed = resampled = skipped = 0

    for trial in range(spec.trials):
        for attempt in range(RESAMPLE_CAP):
            trial_seed = (spec.seed * 1_000_003 + trial) * 1_000_003 + attempt
            model = QuantModel(net, _draw(plan, trial_seed))
            moved = _perturb(target_form, model.priors[spec.target], spec.direction, spec.epsilon)
            if moved is None or table_degenerate:
                resampled += 1
                continue
            if refusal is not None:  # only a trial that evaluates needs a formula
                raise OracleError(refusal)
            base = _evaluate(model, segment, {})
            if any(_state_margin(link, base) < _DEGENERATE_TOL for link in state_links):
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
