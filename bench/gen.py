"""Seeded network and evidence generators for the benchmark.

Every network is emitted as `.qn` text, so that loading it goes through
the parser and the inputs of any run can be inspected.  The tables follow
the generators of the test suite (random values, decisive comparisons kept
at least a margin apart), but this module imports neither qcnet nor its
tests: a workload depends only on its seed and on this file.

Table values are multiples of 1/GRID, so the text is short and reads back
exactly.  Possibility tables are redrawn while they sit at a decision
boundary of their parents' states (the oracle cannot resample declared
priors), and every possibility variable gets the prior its parents imply
(sup-min), so that the oracle evaluates the same state propagation reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

GRID = 10_000
POSS_TOL = 1e-9  # the oracle's boundary tolerance for declared states
FORMALISMS = ("prob", "poss", "bel")
SIGN_TOKENS = ("+", "-", "0", "?", "+0", "-0")
_NEGATED = {"+": "-", "-": "+", "0": "0", "?": "?", "+0": "-0", "-0": "+0"}
IGNORANT = (1.0, 1.0)  # possibility state of a parent from another formalism


def _unit(rng: random.Random) -> float:
    return rng.randrange(GRID + 1) / GRID


@dataclass
class Node:
    name: str
    formalism: str
    depth: int = 0
    prior: tuple[float, float] | None = None


@dataclass
class Net:
    """A generated network: nodes and links with their `cond` lines."""

    nodes: list[Node] = field(default_factory=list)
    links: list[tuple[tuple[str, ...], str, list[str]]] = field(default_factory=list)

    def text(self) -> str:
        lines = [f"node {n.name} {n.formalism}" for n in self.nodes]
        lines += [f"prior {n.name} {n.prior[0]!r} {n.prior[1]!r}" for n in self.nodes if n.prior]
        for parents, child, conds in self.links:
            lines.append(f"link {' & '.join(parents)} -> {child}")
            lines += conds
        return "\n".join(lines) + "\n"

    def roots(self) -> list[str]:
        children = {child for _, child, _ in self.links}
        return [n.name for n in self.nodes if n.name not in children]

    def descendants(self, name: str) -> set[str]:
        kids: dict[str, list[str]] = {}
        for parents, child, _ in self.links:
            for p in parents:
                kids.setdefault(p, []).append(child)
        out, todo = {name}, [name]
        while todo:
            for c in kids.get(todo.pop(), ()):
                if c not in out:
                    out.add(c)
                    todo.append(c)
        return out


# ---------------------------------------------------------------------------
# conditional tables, as `cond` lines
# ---------------------------------------------------------------------------

def _out(var: str, cell: bool | None) -> str:
    if cell is None:
        return f"{var}|~{var}"
    return var if cell else f"~{var}"


def _cond(child: str, child_pos: bool, parents: tuple[str, ...], cells: tuple, value: float) -> str:
    outs = ", ".join(_out(p, c) for p, c in zip(parents, cells))
    return f"cond {_out(child, child_pos)} | {outs} = {value!r}"


def _pair_terms(get, x_first: bool, x_pos: bool) -> tuple[float, float]:
    def p(xv: bool, yv: bool) -> float:
        return get(xv, yv) if x_first else get(yv, xv)

    synergy = p(x_pos, True) + p(not x_pos, False) - p(x_pos, False) - p(not x_pos, True)
    return synergy, p(x_pos, False) - p(not x_pos, False)


def prob_table(rng: random.Random, child: str, parents: tuple[str, ...], margin: float) -> list[str]:
    cells = [(True,), (False,)] if len(parents) == 1 else [(b, c) for b in (True, False) for c in (True, False)]
    while True:
        values = dict(zip(cells, (_unit(rng) for _ in cells)))
        if len(parents) == 1:
            m = abs(values[(True,)] - values[(False,)])
        else:
            get = lambda b, c: values[(b, c)]  # noqa: E731
            m = min(abs(t) for xf in (True, False) for xp in (True, False) for t in _pair_terms(get, xf, xp))
        if m >= margin:
            return [_cond(child, True, parents, k, v) for k, v in values.items()]


def _away(rng: random.Random, avoid: list[float], margin: float) -> float:
    """A value in [0, 1/2] at least ``margin`` from each of ``avoid``."""
    while True:
        v = rng.randrange(GRID // 2 + 1) / GRID
        if all(abs(v - a) >= margin for a in avoid):
            return v


def bel_table(rng: random.Random, child: str, parents: tuple[str, ...], margin: float) -> list[str]:
    """Conditional beliefs whose every entry differs from the entry that
    conditions on the frame instead (per parent, per co-parent cell) by at
    least ``margin``.  Values stay in [0, 1/2], so bel(c|.) + bel(~c|.) <= 1."""
    lines = []
    for child_pos in (True, False):
        if len(parents) == 1:
            frame = _away(rng, [], margin)
            values = {(None,): frame, (True,): _away(rng, [frame], margin), (False,): _away(rng, [frame], margin)}
        else:
            corner = _away(rng, [], margin)
            values = {(None, None): corner}
            for x in (True, False):
                values[(x, None)] = _away(rng, [corner], margin)
                values[(None, x)] = _away(rng, [corner], margin)
            for x in (True, False):
                for y in (True, False):
                    values[(x, y)] = _away(rng, [values[(None, y)], values[(x, None)]], margin)
        lines += [_cond(child, child_pos, parents, k, v) for k, v in values.items() if v]
    return lines


def _poss_column(rng: random.Random) -> tuple[float, float]:
    u = _unit(rng)
    return (1.0, u) if rng.random() < 0.5 else (u, 1.0)


def poss_prior(rng: random.Random) -> tuple[float, float]:
    # the free component stays away from 0 and 1 so perturbations are feasible
    u = rng.randrange(GRID // 20, GRID - GRID // 20 + 1) / GRID
    return (1.0, u) if rng.random() < 0.5 else (u, 1.0)


def _pi(state: tuple[float, float], pos: bool) -> float:
    return state[0 if pos else 1]


def _poss1_degenerate(get, s) -> bool:
    for cp in (True, False):
        for yp in (True, False):
            dom = min(get(cp, yp), _pi(s, yp)) - min(get(cp, not yp), _pi(s, not yp))
            head = get(cp, yp) - _pi(s, yp)
            if dom > 0 and head > 0 and (dom < POSS_TOL or head < POSS_TOL):
                return True
    return False


def _poss2_degenerate(get, s1, s2) -> bool:
    """A + entry near its boundary, or an up-marker entry that no joint
    untouched by its parent pins (the two fragile cases of the oracle)."""
    for cp in (True, False):
        for x_first in (True, False):
            sx, sy = (s1, s2) if x_first else (s2, s1)

            def c(xv: bool, yv: bool) -> float:
                return get(cp, xv, yv) if x_first else get(cp, yv, xv)

            def joint(xv: bool, yv: bool) -> float:
                return min(c(xv, yv), _pi(sx, xv), _pi(sy, yv))

            for xp in (True, False):
                pi_x = _pi(sx, xp)
                follows = up = False
                fragile = False
                for yp in (True, False):
                    mine = joint(xp, yp)
                    others = max(joint(not xp, yp), joint(xp, not yp), joint(not xp, not yp))
                    head = min(c(xp, yp), _pi(sy, yp)) - pi_x
                    if mine > others and head > 0:
                        follows = True
                        fragile |= mine - others < POSS_TOL or head < POSS_TOL
                    elif head > 0:
                        up = True
                if follows and fragile:
                    return True
                if up and not follows:
                    pinned = [joint(not xp, True), joint(not xp, False)]
                    pinned += [joint(xp, yp) for yp in (True, False) if pi_x >= min(c(xp, yp), _pi(sy, yp))]
                    if max(pinned) - pi_x < POSS_TOL:
                        return True
    return False


def poss_table(
    rng: random.Random, child: str, parents: tuple[str, ...], states: list[tuple[float, float]]
) -> tuple[list[str], tuple[float, float]]:
    """A non-degenerate table at the parents' states, and the child state it implies."""
    combos = [(True,), (False,)] if len(parents) == 1 else [(b, c) for b in (True, False) for c in (True, False)]
    for _ in range(10_000):
        cols = {k: _poss_column(rng) for k in combos}
        get = lambda cp, *k: cols[k][0 if cp else 1]  # noqa: E731
        if len(parents) == 1:
            degenerate = _poss1_degenerate(get, states[0])
        else:
            degenerate = _poss2_degenerate(get, states[0], states[1])
        if degenerate:
            continue
        state = tuple(
            max(min(get(cp, *k), *(_pi(s, v) for s, v in zip(states, k))) for k in combos)
            for cp in (True, False)
        )
        conds = [_cond(child, cp, parents, k, get(cp, *k)) for cp in (True, False) for k in combos]
        return conds, state
    raise RuntimeError(f"no non-degenerate possibility table for {child!r}")


# ---------------------------------------------------------------------------
# networks
# ---------------------------------------------------------------------------

def _names(rng: random.Random, prefix: str, n: int) -> list[str]:
    """Names whose sort order is unrelated to creation (and so to depth)."""
    perm = list(range(n))
    rng.shuffle(perm)
    width = len(str(n - 1))
    return [f"{prefix}{i:0{width}d}" for i in perm]


def _add_link(net: Net, rng: random.Random, node: Node, parents: tuple[Node, ...], margin: float) -> None:
    names = tuple(p.name for p in parents)
    if node.formalism == "prob":
        conds = prob_table(rng, node.name, names, margin)
    elif node.formalism == "bel":
        conds = bel_table(rng, node.name, names, margin)
    else:
        states = [p.prior if p.formalism == "poss" else IGNORANT for p in parents]
        conds, node.prior = poss_table(rng, node.name, names, states)
    net.links.append((names, node.name, conds))


def polytree(
    rng: random.Random,
    n: int,
    formalisms: tuple[str, ...] = FORMALISMS,
    *,
    depth_cap: int,
    margin: float,
    prefix: str = "v",
) -> Net:
    """A bushy singly connected network of ``n`` binary variables.

    Each new variable is a root (weight 1), the child of one earlier
    variable (weight 3) or of two earlier variables in different components
    (weight 2), as in the test suite's ``random_polytree``; parents are
    drawn uniformly among variables less than ``depth_cap`` deep.
    """
    net = Net()
    comp: list[int] = []  # union-find over node indices

    def find(i: int) -> int:
        while comp[i] != i:
            comp[i] = comp[comp[i]]
            i = comp[i]
        return i

    eligible: list[int] = []
    for i, name in enumerate(_names(rng, prefix, n)):
        node = Node(name, rng.choice(formalisms))
        comp.append(i)
        kind = rng.choice(("root", "child1", "child1", "child1", "child2", "child2")) if eligible else "root"
        parents: list[int] = []
        if kind != "root":
            parents.append(rng.choice(eligible))
        if kind == "child2":
            for _ in range(8):
                other = rng.choice(eligible)
                if find(other) != find(parents[0]):
                    parents.append(other)
                    break
        if parents:
            node.depth = 1 + max(net.nodes[p].depth for p in parents)
            for p in parents:
                comp[find(p)] = i
            _add_link(net, rng, node, tuple(net.nodes[p] for p in parents), margin)
        elif node.formalism == "poss":
            node.prior = poss_prior(rng)
        net.nodes.append(node)
        if node.depth < depth_cap:
            eligible.append(i)
    return net


def chain(rng: random.Random, n_links: int, margin: float, prefix: str = "k") -> Net:
    """A probability chain root -> ... -> leaf of ``n_links`` links."""
    net = Net()
    names = [f"{prefix}{i:04d}" for i in range(n_links + 1)]
    net.nodes.append(Node(names[0], "prob"))
    for depth, name in enumerate(names[1:], start=1):
        net.nodes.append(Node(name, "prob", depth))
        net.links.append(((names[depth - 1],), name, prob_table(rng, name, (names[depth - 1],), margin)))
    return net


# ---------------------------------------------------------------------------
# evidence
# ---------------------------------------------------------------------------

def evidence(rng: random.Random, net: Net, n_vars: int) -> list[tuple[str, bool, str]]:
    """Evidence on ``n_vars`` distinct variables as (name, negative?, token).

    Tokens are drawn from ``+ - 0 ? +0 -0`` among those the variable's prior
    allows, and about a quarter of probability and belief variables also
    get an explicit ``:neg`` change that agrees with the positive one.
    """
    items = []
    for node in rng.sample(net.nodes, n_vars):
        tokens = SIGN_TOKENS
        if node.prior is not None and node.prior[0] == 1.0:
            tokens = tuple(t for t in SIGN_TOKENS if t != "+")  # pi(x) = 1 cannot rise
        token = rng.choice(tokens)
        items.append((node.name, False, token))
        if node.formalism != "poss" and rng.random() < 0.25:
            neg = _NEGATED[token] if node.formalism == "prob" else rng.choice(SIGN_TOKENS)
            items.append((node.name, True, neg))
    return items


def evidence_arg(items: list[tuple[str, bool, str]]) -> str:
    return ",".join(f"{name}{':neg' if neg else ''}={tok}" for name, neg, tok in items)
