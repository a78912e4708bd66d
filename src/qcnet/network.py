"""Singly connected networks of qualitative uncertainty.

Variables are binary and tagged with a formalism (probability, possibility
or belief).  Links attach a conditional table to a child; propagation walks
the polytree in topological order, completes evidence into full
(change, complement-change) pairs, widens changes that cross a formalism
boundary, and multiplies them through each link's derivative matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .links import BEL, IGNORANT, POSS, PROB, ConditionalTable, Formalism, PossState
from .signs import (
    NEG,
    NEG_ZERO,
    POS,
    POS_ZERO,
    QMatrix,
    QSign,
    UNKNOWN,
    ZERO,
    qadd,
    qmatvec_terms,
    qsum,
)


class NetworkError(Exception):
    """Raised when a network or a query against it is unusable."""


class EvidenceError(NetworkError):
    """Raised for evidence that is malformed or inconsistent with a variable's state."""


@dataclass(frozen=True)
class Variable:
    """A binary variable with a formalism tag and an optional numeric prior.

    Priors are pairs over (x, ~x): probabilities summing to 1, normalized
    possibilities, or beliefs with sum at most 1.  A missing prior means an
    interior state for probability and belief variables.
    """

    name: str
    formalism: Formalism
    prior: tuple[float, float] | None = None

    def extremal_pos(self) -> bool:
        """True when the prior pins val(x) at exactly 1."""
        return self.prior is not None and self.prior[0] == 1.0

    def extremal_neg(self) -> bool:
        """True when the prior pins val(~x) at exactly 1."""
        return self.prior is not None and self.prior[1] == 1.0

    def value_at_zero(self, pos: bool) -> bool:
        return self.prior is not None and self.prior[0 if pos else 1] == 0.0


@dataclass(frozen=True)
class Link:
    """A directed edge set {parents} -> child with its conditional table."""

    child: str
    parents: tuple[str, ...]
    table: ConditionalTable

    def __post_init__(self) -> None:
        if len(self.parents) not in (1, 2):
            raise NetworkError(f"link into {self.child!r} must have 1 or 2 parents")


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


class Network:
    """An immutable singly connected network.

    Construction only checks what is needed to index the structure.  The
    first query validates the network and compiles everything that does
    not depend on evidence (see :attr:`compiled`); later queries reuse it.
    Each variable may be the child of at most one link (enforced
    structurally here, since propagation needs the mapping to be a
    function).
    """

    def __init__(self, variables: Iterable[Variable], links: Iterable[Link]):
        by_name: dict[str, Variable] = {}
        for v in variables:
            if v.name in by_name:
                raise NetworkError(f"duplicate variable {v.name!r}")
            by_name[v.name] = v
        self.links: tuple[Link, ...] = tuple(links)
        link_of: dict[str, Link] = {}
        for link in self.links:
            if link.child in link_of:
                raise NetworkError(f"variable {link.child!r} is the child of more than one link")
            link_of[link.child] = link
        self.variables: Mapping[str, Variable] = MappingProxyType(by_name)
        self.link_of: Mapping[str, Link] = MappingProxyType(link_of)

    @functools.cached_property
    def compiled(self) -> "CompiledNetwork":
        """The validation report and the evidence-independent parts of
        propagation, built on first use."""
        return _compile(self)

    def topological_order(self) -> list[str]:
        """Variable names, parents before children. Fails on cycles."""
        order = self.compiled.order
        if order is None:
            raise NetworkError("network contains a directed cycle")
        return list(order)

    def descendants(self, name: str) -> set[str]:
        """All variables reachable from ``name`` through links, inclusive."""
        if name not in self.variables:
            raise NetworkError(f"unknown variable {name!r}")
        children = self.compiled.children
        out = {name}
        todo = [name]
        while todo:
            for child in children.get(todo.pop(), ()):
                if child not in out:
                    out.add(child)
                    todo.append(child)
        return out


class _Step(NamedTuple):
    """One variable of the propagation walk."""

    name: str
    parents: tuple[str, ...]  # empty for a root
    bridged: tuple[bool, ...]  # per parent: the link crosses a formalism boundary
    matrix: QMatrix | None


@dataclass(frozen=True)
class CompiledNetwork:
    """What queries need from a network that no evidence changes."""

    report: ValidationReport
    children: Mapping[str, tuple[str, ...]]  # every name a link lists as parent -> its children
    order: tuple[str, ...] | None  # topological; None when there is a directed cycle
    matrices: Mapping[str, QMatrix]  # by child; empty unless the report is ok
    steps: tuple[_Step, ...]  # in topological order; empty unless the report is ok
    position: Mapping[str, int]  # name -> index into order and steps; empty unless the report is ok
    pure: frozenset[str]  # names whose whole ancestry is in their own formalism; empty unless ok


def _compile(net: Network) -> CompiledNetwork:
    children = _child_lists(net)
    order = _kahn_order(net, children)
    report = _check(net, order is not None)
    if not report.ok:
        empty = MappingProxyType({})
        return CompiledNetwork(report, children, order, empty, (), empty, frozenset())
    matrices: dict[str, QMatrix] = {}
    steps = []
    pure: set[str] = set()
    variables, link_of = net.variables, net.link_of
    for name in order:
        link = link_of.get(name)
        if link is None:
            steps.append(_Step(name, (), (), None))
            pure.add(name)
            continue
        table, parents = link.table, link.parents
        states = [_parent_poss_state(net, p) for p in parents] if table.state_dependent else ()
        matrices[name] = matrix = table.derivative(*states)
        form = variables[name].formalism
        bridged = tuple([variables[p].formalism is not form for p in parents])
        steps.append(_Step(name, parents, bridged, matrix))
        if not any(bridged) and pure.issuperset(parents):
            pure.add(name)
    position = MappingProxyType({name: i for i, name in enumerate(order)})
    return CompiledNetwork(
        report, children, order, MappingProxyType(matrices), tuple(steps), position, frozenset(pure)
    )


def _child_lists(net: Network) -> Mapping[str, tuple[str, ...]]:
    children: dict[str, list[str]] = {}
    for link in net.links:
        for p in link.parents:
            children.setdefault(p, []).append(link.child)
    return MappingProxyType({p: tuple(sorted(cs)) for p, cs in children.items()})


def _kahn_order(net: Network, children: Mapping[str, tuple[str, ...]]) -> tuple[str, ...] | None:
    """Kahn's ordering, first the roots by name, then each variable once
    its last parent is placed.  None when a cycle leaves some unplaced."""
    variables = net.variables
    pending = {
        name: len([p for p in link.parents if p in variables])
        for name, link in net.link_of.items()
        if name in variables
    }
    order = sorted(name for name in variables if not pending.get(name))
    for name in order:  # the list is also the queue: placed children are appended
        for child in children.get(name, ()):
            if child in pending:
                pending[child] -= 1
                if not pending[child]:
                    order.append(child)
    return tuple(order) if len(order) == len(variables) else None


def validate(net: Network) -> ValidationReport:
    """Structural and numeric checks. Reports, never raises.

    Queries read the same report from :attr:`Network.compiled`; this
    checks without evaluating any link.
    """
    return _check(net, _kahn_order(net, _child_lists(net)) is not None)


def _check(net: Network, acyclic: bool) -> ValidationReport:
    errors: list[str] = []
    warnings: list[str] = []

    for link in net.links:
        for endpoint in (link.child, *link.parents):
            if endpoint not in net.variables:
                errors.append(f"link {_link_label(link)} names unknown variable {endpoint!r}")
        if len(link.parents) != link.table.arity:
            errors.append(
                f"link {_link_label(link)} has {len(link.parents)} parents but its table expects {link.table.arity}"
            )
        if len(link.parents) == 2 and link.parents[0] == link.parents[1]:
            errors.append(f"link {_link_label(link)} lists the same parent twice")
        child = net.variables.get(link.child)
        if child is not None and link.table.formalism is not child.formalism:
            errors.append(
                f"link {_link_label(link)} carries a {link.table.formalism} table but {link.child!r} is {child.formalism}"
            )
        for w in link.table.warnings():
            warnings.append(f"link {_link_label(link)}: {w}")
        if link.table.state_dependent:
            for p in link.parents:
                pv = net.variables.get(p)
                if pv is not None and pv.formalism is POSS and pv.prior is None:
                    errors.append(
                        f"possibility variable {p!r} feeds a possibility link and needs an explicit prior"
                    )

    if not acyclic:
        errors.append("network contains a directed cycle")
    else:
        # undirected cycles (single-connectedness); union-find over link edges
        parent: dict[str, str] = {name: name for name in net.variables}

        def find(a: str) -> str:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for link in net.links:
            for p in link.parents:
                if p not in net.variables or link.child not in net.variables:
                    continue
                ra, rb = find(p), find(link.child)
                if ra == rb:
                    errors.append(
                        f"network is not singly connected: link {_link_label(link)} closes an undirected cycle"
                    )
                else:
                    parent[ra] = rb

    for var in net.variables.values():
        if var.prior is None:
            continue
        lo, hi = var.prior
        if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0):
            errors.append(f"prior of {var.name!r} must lie in [0, 1]")
            continue
        if var.formalism is PROB and abs(lo + hi - 1.0) > 1e-9:
            errors.append(f"probability prior of {var.name!r} must sum to 1")
        elif var.formalism is POSS and max(lo, hi) != 1.0:
            errors.append(f"possibility prior of {var.name!r} must have max 1")
        elif var.formalism is BEL and lo + hi > 1.0 + 1e-12:
            errors.append(f"belief prior of {var.name!r} must sum to at most 1")

    return ValidationReport(tuple(errors), tuple(warnings))


def _link_label(link: Link) -> str:
    return f"{' & '.join(link.parents)} -> {link.child}"


# ---------------------------------------------------------------------------
# evidence completion and bridging
# ---------------------------------------------------------------------------

def _feasible_directions(var: Variable, pos: bool) -> QSign:
    """Directions a change of val(x) (or val(~x)) can physically take."""
    at_one = var.extremal_pos() if pos else var.extremal_neg()
    at_zero = var.value_at_zero(pos)
    if var.formalism is PROB:
        # the pair is complementary, so the other side's bound applies too
        at_one = at_one or var.value_at_zero(not pos)
        at_zero = at_zero or (var.extremal_neg() if pos else var.extremal_pos())
    if at_one and at_zero:
        return ZERO
    if at_one:
        return NEG_ZERO
    if at_zero:
        return POS_ZERO
    return UNKNOWN


def _completion_row(var: Variable, s: QSign) -> QSign:
    """Derived change of val(~x) for a single base direction of val(x)."""
    if var.formalism is PROB:
        return s.negated()
    if var.formalism is BEL:
        return UNKNOWN
    # possibility: behaviour depends on whether pi(x) sits at 1
    if var.extremal_pos():
        return UNKNOWN if s == ZERO else POS_ZERO
    return NEG_ZERO if s == POS else ZERO


def _evidence_pair(name: str, value: object) -> tuple[QSign, QSign | None]:
    """An evidence value for ``name`` (a change of val(x), or one paired
    with a change of val(~x) or None) as that pair."""
    if isinstance(value, QSign):
        return value, None
    if isinstance(value, tuple) and len(value) == 2:
        dx, dnx = value
        if isinstance(dx, QSign) and (dnx is None or isinstance(dnx, QSign)):
            return dx, dnx
    raise EvidenceError(f"evidence for {name!r} must be a QSign or a (QSign, QSign or None) pair, got {value!r}")


def complete_change(
    var: Variable, partial: tuple[QSign, QSign | None] | QSign
) -> tuple[QSign, QSign]:
    """Fill in (or check) the complement component of an evidence change.

    The change of val(x) is first intersected with the directions feasible
    at the variable's prior (a value pinned at 1 cannot rise); evidence
    with no feasible direction left is rejected.  The change of val(~x) is
    then derived: probability negates, belief knows nothing, and
    possibility depends on whether pi(x) is at 1.  A supplied complement is
    instead validated against that derivation and kept.
    """
    delta_x, delta_nx = _evidence_pair(var.name, partial)
    if delta_x.is_marker or (delta_nx is not None and delta_nx.is_marker):
        raise EvidenceError("evidence changes cannot be markers")

    if var.formalism is POSS and var.prior is None:
        raise EvidenceError(
            f"possibility variable {var.name!r} needs a prior before evidence can be completed"
        )

    feasible = delta_x.code & _feasible_directions(var, pos=True).code
    if not feasible:
        raise EvidenceError(f"evidence {delta_x} on {var.name!r} is inconsistent with its prior")
    clipped = QSign(feasible)

    derived = functools.reduce(
        QSign.union, (_completion_row(var, s) for s in (POS, ZERO, NEG) if s.issubset(clipped))
    )

    if delta_nx is None:
        return clipped, derived
    if not delta_nx.issubset(derived):
        raise EvidenceError(
            f"supplied change {delta_nx} for not-{var.name} conflicts with the derived {derived}"
        )
    return clipped, delta_nx


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

Change = tuple[QSign, QSign]
ZERO_CHANGE: Change = (ZERO, ZERO)

#: Evidence maps variable names to a change of val(x), optionally paired
#: with an explicit change of val(~x).
Evidence = Mapping[str, QSign | tuple[QSign, QSign | None]]


class ChangeVector(Mapping[str, Change]):
    """Per-variable change pairs; unmentioned variables read as no change."""

    def __init__(self, entries: Mapping[str, Change] = ()):
        self._entries = dict(entries)
        for name, (dx, dnx) in self._entries.items():
            if dx.is_marker or dnx.is_marker:
                raise NetworkError(f"change of {name!r} cannot be a marker")

    def __getitem__(self, name: str) -> Change:
        return self._entries.get(name, ZERO_CHANGE)

    def get(self, name: str, default: Change = ZERO_CHANGE) -> Change:
        return self._entries.get(name, default)

    def __iter__(self):
        return iter(sorted(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChangeVector):
            return NotImplemented
        names = set(self._entries) | set(other._entries)
        return all(self[n] == other[n] for n in names)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: ({dx}, {dnx})" for n, (dx, dnx) in sorted(self._entries.items()))
        return f"ChangeVector({{{inner}}})"


@dataclass(frozen=True)
class Contribution:
    """One source of a variable's change: evidence or a parent link."""

    source: str  # "evidence" or a parent variable name
    change: Change
    bridged: bool = False


@dataclass(frozen=True)
class ChangeReport:
    """Result of a propagation pass."""

    changes: ChangeVector
    matrices: Mapping[str, QMatrix]  # keyed by child variable
    provenance: Mapping[str, tuple[Contribution, ...]]

    def trace(self, name: str) -> set[str]:
        """Evidence variables a change at ``name`` traces back to."""
        seen = {name}
        roots: set[str] = set()
        todo = [name]
        while todo:
            n = todo.pop()
            for contrib in self.provenance.get(n, ()):
                if contrib.source == "evidence":
                    roots.add(n)
                elif contrib.source not in seen:
                    seen.add(contrib.source)
                    todo.append(contrib.source)
        return roots


def _parent_poss_state(net: Network, parent_name: str) -> PossState:
    """A parent's possibility state; validation ensures that a possibility
    parent of a state-dependent link has a prior."""
    var = net.variables[parent_name]
    if var.formalism is POSS:
        return PossState(*var.prior)
    # Cross-formalism parent: its possibility is unconstrained, which is
    # total ignorance on both outcomes.
    return IGNORANT


def _require_valid(net: Network) -> CompiledNetwork:
    compiled = net.compiled
    if not compiled.report.ok:
        raise NetworkError("invalid network: " + "; ".join(compiled.report.errors))
    return compiled


def _complete_evidence(net: Network, evidence: Evidence) -> dict[str, Change]:
    """Each evidence variable's change pair, completed against its prior;
    every name is checked before any value is."""
    for name in evidence:
        if name not in net.variables:
            raise NetworkError(f"evidence names unknown variable {name!r}")
    return {name: complete_change(net.variables[name], value) for name, value in evidence.items()}


def _walk(
    steps: Iterable[_Step], completed: Mapping[str, Change]
) -> tuple[dict[str, Change], dict[str, tuple[Contribution, ...]]]:
    """The non-zero changes and the provenance of the given steps, taken in
    the given (topological) order; a parent without a step reads as no
    change."""
    changes: dict[str, Change] = {}
    provenance: dict[str, tuple[Contribution, ...]] = {}

    for name, parents, bridged, matrix in steps:
        contribs: list[Contribution] = []
        total: Change = ZERO_CHANGE

        if parents:
            incoming: list[QSign] = []
            for p, b in zip(parents, bridged):
                change = changes.get(p, ZERO_CHANGE)
                incoming.extend((change[0].widened(), change[1].widened()) if b else change)
            terms = qmatvec_terms(matrix, tuple(incoming))
            total = (qsum(terms[0]), qsum(terms[1]))
            # each parent's contribution sums its own two columns' terms
            for idx, p in enumerate(parents):
                cols = slice(2 * idx, 2 * idx + 2)
                part = (qsum(terms[0][cols]), qsum(terms[1][cols]))
                if part != ZERO_CHANGE:
                    contribs.append(Contribution(p, part, bridged[idx]))

        ev = completed.get(name)
        if ev is not None:
            total = (qadd(total[0], ev[0]), qadd(total[1], ev[1]))
            contribs.append(Contribution("evidence", ev))

        if total != ZERO_CHANGE:
            changes[name] = total
        if contribs:
            provenance[name] = tuple(contribs)

    return changes, provenance


def propagate(net: Network, evidence: Evidence) -> ChangeReport:
    """Propagate qualitative evidence through the network.

    Evidence changes are completed against each variable's prior, then
    pushed through links in topological order.  A child's incoming change
    is the sum (qualitative addition) over parents of the parent's change,
    bridged into the child's formalism, multiplied through the link's
    derivative matrix; evidence on an internal variable adds to whatever
    arrives from its parents.  Derivative matrices are evaluated once, at
    the pre-evidence state, when the network is compiled.
    """
    compiled = _require_valid(net)
    changes, provenance = _walk(compiled.steps, _complete_evidence(net, evidence))
    return ChangeReport(ChangeVector(changes), compiled.matrices, provenance)


@dataclass(frozen=True)
class LinkExplanation:
    child: str
    parents: tuple[str, ...]
    matrix: QMatrix
    cases: tuple[tuple[str, ...], ...]  # same shape as the matrix


def explain(net: Network) -> tuple[LinkExplanation, ...]:
    """Evaluate and label every link's derivative matrix without propagating."""
    matrices = _require_valid(net).matrices
    out = []
    for link in sorted(net.links, key=lambda l: l.child):
        matrix = matrices[link.child]
        out.append(LinkExplanation(link.child, link.parents, matrix, link.table.cases(matrix)))
    return tuple(out)
