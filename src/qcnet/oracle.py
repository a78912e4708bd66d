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
from itertools import accumulate
from typing import Iterable, Mapping, NamedTuple

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
    _new_record,
    _record,
    _require_valid,
    _walk,
)
from .signs import NEG, POS, ZERO, _Slotted, sign_of

RESAMPLE_CAP = 100
_DEGENERATE_TOL = 1e-9  # states this close to a decision boundary are resampled
ZERO_TOLERANCE = 1e-12  # an observed change this close to zero reads as no change

INCREASE = "increase"
DECREASE = "decrease"


class OracleError(Exception):
    """Raised when a network or query cannot be verified numerically."""


@_record
class QuantModel(NamedTuple):
    """A network plus a full numeric assignment of priors."""

    network: Network
    priors: Mapping[str, tuple[float, float]]


class PerturbationSpec(_Slotted):
    """How to perturb one evidence variable, and how often."""

    __slots__ = ("target", "direction", "epsilon", "trials", "seed")

    def __init__(self, target: str, direction: str, epsilon: float = 1e-4, trials: int = 1000, seed: int = 0) -> None:
        if direction not in (INCREASE, DECREASE):
            raise ValueError(f"direction must be {INCREASE!r} or {DECREASE!r}")
        if not math.isfinite(epsilon):
            raise ValueError("epsilon must be finite")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not isinstance(trials, int) or isinstance(trials, bool):
            raise ValueError("trials must be an integer")
        if trials <= 0:
            raise ValueError("trials must be positive")
        self._fill((target, direction, epsilon, trials, seed))


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
    return _new_record(QuantModel, (net, _draw(((0, v) for v in _sampler(net).variables), seed)))


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


def _exact_typed(model: QuantModel, name: str, formalism: Formalism, label: str) -> tuple[float, float]:
    net = model.network
    var = net.variables.get(name)
    if var is None:
        raise OracleError(f"unknown variable {name!r}")
    if var.formalism is not formalism:
        raise OracleError(f"{name!r} is not a {label} variable")
    _require_valid(net, OracleError)
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

@_record
class VariableCheck(NamedTuple):
    """Outcome of the containment check for one variable."""

    name: str
    kind: str  # "checked", "bridge" or "unchecked"
    predicted: Change
    observed_pos: tuple[int, int, int]  # counts of +, 0, - over trials
    observed_neg: tuple[int, int, int]
    failures: int
    verdict: str  # FAIL, PASS (checked), BRIDGE, or UNCHECKED: no trial tested the row


@_record
class ContainmentReport(NamedTuple):
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
    return ",".join([f"{label}={n}" for label, n in zip("+0-", counts) if n]) or "none"


_OBSERVED_SLOT = {POS: 0, ZERO: 1, NEG: 2}  # histogram slot of an observed sign
_HELD = {"checked": "PASS", "bridge": "BRIDGE", "unchecked": "UNCHECKED"}  # a row's verdict when nothing failed


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
        return link.table.margin(*[values[p] for p in link.parents])
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
    assumption with no numeric counterpart.  Widening adds 0 to both the
    observed and the predicted sign, so a ``BRIDGE`` row FAILs exactly
    when a checked parent moved strictly against its prediction (non-zero
    and outside it): once per such parent and trial.  A report with no
    completed trial reads ``UNCHECKED`` on every row.

    Only the target's descendants and the checked segment (the checked
    variables and their ancestors) are visited: a check costs
    O(d log d + s) for d descendants and a segment of s variables, and each
    trial O(s), whatever the size of the rest of the network.

    A check is draw-free when the target and every root of the segment
    have declared priors.  Every check of a possibility target is: evidence
    on a possibility variable needs its prior, and validation requires one
    on every possibility variable that feeds a possibility link.  The
    trials of a draw-free check all see the same numbers, so it evaluates
    one trial and multiplies that trial's counts by ``spec.trials``: the
    report is the one every trial would give, at the cost of one.
    """
    compiled = _require_valid(net, OracleError)

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
    bridge_set = {c for v in checked for c in compiled.children.get(v, ()) if c not in checked_set}
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

    # what every trial reads of the prediction; a bridge child's row
    # counts its checked parents' strict failures
    predicted = {v: prediction[v] for v in checked}
    strict = {p: 0 for c in bridge_set for p in net.link_of[c].parents if p in checked_set}

    # The check is draw-free when every variable in its plan has a declared
    # prior: _draw then takes every prior from its declaration, whatever the
    # seed, so _perturb, _evaluate and the margins see the same floats on
    # every attempt of every trial.  One attempt of one trial then stands
    # for all of them, exactly: a resampled attempt for all RESAMPLE_CAP
    # attempts of a skipped trial, and the trial for all spec.trials.  A
    # refusal raises at the first attempt that would evaluate, as before.
    draw_free = all(var.prior is not None for _, var in plan)
    pos_counts = {v: [0, 0, 0] for v in checked}
    neg_counts = {v: [0, 0, 0] for v in checked}
    failures = {v: 0 for v in checked}
    completed = resampled = skipped = 0

    for trial in range(1 if draw_free else spec.trials):
        for attempt in range(1 if draw_free else RESAMPLE_CAP):
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
        for v in checked:
            x = sign_of(after[v][0] - base[v][0], ZERO_TOLERANCE)
            nx = sign_of(after[v][1] - base[v][1], ZERO_TOLERANCE)
            pos_counts[v][_OBSERVED_SLOT[x]] += 1
            neg_counts[v][_OBSERVED_SLOT[nx]] += 1
            px, pnx = predicted[v]
            if not (x.issubset(px) and nx.issubset(pnx)):
                failures[v] += 1
                # widening adds 0 to both sides, so only a non-zero miss fails a bridge
                if v in strict and (x is not ZERO and not x.issubset(px) or nx is not ZERO and not nx.issubset(pnx)):
                    strict[v] += 1
        completed += 1

    if draw_free:
        scale = spec.trials
        resampled *= RESAMPLE_CAP
    else:
        scale = 1
    rows = []
    for v in sorted(downstream):
        kind, pos, neg, fails = "unchecked", (0, 0, 0), (0, 0, 0), 0
        if v in checked_set:
            kind, fails = "checked", failures[v] * scale
            pos = tuple(n * scale for n in pos_counts[v])
            neg = tuple(n * scale for n in neg_counts[v])
        elif v in bridge_set:
            kind, fails = "bridge", sum(strict[p] for p in net.link_of[v].parents if p in strict) * scale
        # with no completed trial no row was tested, whatever its kind
        verdict = ("FAIL" if fails else _HELD[kind]) if completed else "UNCHECKED"
        rows.append(_new_record(VariableCheck, (v, kind, prediction[v], pos, neg, fails, verdict)))
    return _new_record(ContainmentReport, (tuple(rows), spec.trials, completed * scale, resampled * scale, skipped * scale))
