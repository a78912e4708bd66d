"""Line-oriented network file format.

One construct per line, comments run from ``#`` to end of line::

    node NAME prob|poss|bel
    prior NAME VALUE VALUE
    link PARENT -> CHILD
    link P1 & P2 -> CHILD [separate]
    cond CHILD_OUTCOME | PARENT_OUTCOMES = VALUE

Outcomes are written ``x``, ``~x`` or ``x|~x`` (the whole frame, belief
links only); parent outcomes are comma-separated in link-declaration
order.  Parsing is total: malformed input produces positioned diagnostics,
never an exception.  Building a :class:`~qcnet.network.Network` from a
parsed document is a separate step with its own diagnostics (missing or
inconsistent conditionals, range errors).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import links as lc
from .network import BEL, Link, Network, POSS, PROB, Variable

_NAME_RE = re.compile(r"[A-Za-z_]\w*$")
# the conditioned outcome may be written as a (rejected) no-space frame
# token, so the error message can say so instead of misparsing
_COND_RE = re.compile(
    r"(?P<child>[A-Za-z_]\w*\|~[A-Za-z_]\w*|~?[A-Za-z_]\w*)\s*\|\s*(?P<parents>.+?)\s*=\s*(?P<value>\S+)$"
)

_FORMALISMS = {"prob": PROB, "poss": POSS, "bel": BEL}

POS_OUT = "pos"
NEG_OUT = "neg"
FRAME_OUT = "frame"


@dataclass(frozen=True)
class Diagnostic:
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, col {self.column}: {self.message}"


@dataclass(frozen=True)
class NodeDecl:
    name: str
    formalism: str
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class PriorDecl:
    name: str
    value_x: float
    value_nx: float
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class LinkDecl:
    parents: tuple[str, ...]
    child: str
    separate: bool = False
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Outcome:
    var: str
    kind: str  # POS_OUT, NEG_OUT or FRAME_OUT

    def render(self) -> str:
        if self.kind == POS_OUT:
            return self.var
        if self.kind == NEG_OUT:
            return f"~{self.var}"
        return f"{self.var}|~{self.var}"


@dataclass(frozen=True)
class CondDecl:
    child: Outcome
    parents: tuple[Outcome, ...]
    value: float
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class NetworkDocument:
    nodes: tuple[NodeDecl, ...] = ()
    priors: tuple[PriorDecl, ...] = ()
    links: tuple[LinkDecl, ...] = ()
    conds: tuple[CondDecl, ...] = ()


@dataclass(frozen=True)
class ParseResult:
    document: NetworkDocument
    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return not self.diagnostics


def _column(line: str, token: str) -> int:
    pos = line.find(token)
    return pos + 1 if pos >= 0 else 1


def _parse_outcome(token: str, known: dict[str, str]) -> tuple[Outcome | None, str | None]:
    """Parse one outcome token against declared variable names."""
    token = token.strip()
    if "|" in token:
        parts = [p.strip() for p in token.split("|")]
        names = set()
        for p in parts:
            names.add(p[1:].strip() if p.startswith("~") else p)
        if len(parts) != 2 or len(names) != 1:
            return None, f"malformed frame outcome {token!r}"
        (var,) = names
        if var not in known:
            return None, f"outcome references undeclared variable {var!r}"
        return Outcome(var, FRAME_OUT), None
    neg = token.startswith("~")
    var = token[1:].strip() if neg else token
    if not _NAME_RE.match(var):
        return None, f"malformed outcome {token!r}"
    if var not in known:
        return None, f"outcome references undeclared variable {var!r}"
    return Outcome(var, NEG_OUT if neg else POS_OUT), None


def parse_network(text: str) -> ParseResult:
    """Parse network-file text. Total: collects diagnostics, never raises.

    Linear in the text: duplicate link children are found in a set, and
    each distinct outcome token is parsed once, its :class:`Outcome`
    shared by every conditional that names it.  Only successful parses are
    remembered, since a token naming a variable not yet declared becomes
    valid once its ``node`` line arrives."""
    nodes: list[NodeDecl] = []
    priors: list[PriorDecl] = []
    links: list[LinkDecl] = []
    conds: list[CondDecl] = []
    diags: list[Diagnostic] = []
    known: dict[str, str] = {}
    prior_seen: set[str] = set()
    linked: set[str] = set()
    outcomes: dict[str, Outcome] = {}  # stripped token -> its parsed outcome

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]

        if head == "cond":
            m = _COND_RE.match(line[len("cond"):].strip())
            if m is None:
                diags.append(Diagnostic(lineno, 1, "expected: cond OUTCOME | OUTCOMES = VALUE"))
                continue
            child_token, parents_text, value_text = m.groups()
            child_out = outcomes.get(child_token)
            if child_out is None:
                child_out, err = _parse_outcome(child_token, known)
                if err:
                    diags.append(Diagnostic(lineno, _column(raw, child_token), err))
                    continue
                outcomes[child_token] = child_out
            if child_out.kind == FRAME_OUT:
                diags.append(Diagnostic(lineno, 1, "the conditioned outcome cannot be a frame"))
                continue
            parent_outs = []
            for token in parents_text.split(","):
                token = token.strip()
                out = outcomes.get(token)
                if out is None:
                    out, err = _parse_outcome(token, known)
                    if err:
                        diags.append(Diagnostic(lineno, _column(raw, token), err))
                        break
                    outcomes[token] = out
                parent_outs.append(out)
            else:
                try:
                    value = float(value_text)
                except ValueError:
                    diags.append(Diagnostic(lineno, _column(raw, value_text), "conditional value must be a number"))
                    continue
                conds.append(CondDecl(child_out, tuple(parent_outs), value, lineno))

        elif head == "node":
            tokens = line.split()
            if len(tokens) != 3:
                diags.append(Diagnostic(lineno, 1, "expected: node NAME prob|poss|bel"))
                continue
            name, kind = tokens[1], tokens[2]
            if not _NAME_RE.match(name):
                diags.append(Diagnostic(lineno, _column(raw, name), f"malformed variable name {name!r}"))
                continue
            if kind not in _FORMALISMS:
                diags.append(Diagnostic(lineno, _column(raw, kind), f"unknown formalism {kind!r}"))
                continue
            if name in known:
                diags.append(Diagnostic(lineno, _column(raw, name), f"duplicate variable {name!r}"))
                continue
            known[name] = kind
            nodes.append(NodeDecl(name, kind, lineno))

        elif head == "prior":
            tokens = line.split()
            if len(tokens) != 4:
                diags.append(Diagnostic(lineno, 1, "expected: prior NAME VALUE VALUE"))
                continue
            name = tokens[1]
            if name not in known:
                diags.append(Diagnostic(lineno, _column(raw, name), f"prior for undeclared variable {name!r}"))
                continue
            try:
                vx, vnx = float(tokens[2]), float(tokens[3])
            except ValueError:
                diags.append(Diagnostic(lineno, 1, f"prior values for {name!r} must be numbers"))
                continue
            if name in prior_seen:
                diags.append(Diagnostic(lineno, _column(raw, name), f"duplicate prior for {name!r}"))
                continue
            prior_seen.add(name)
            priors.append(PriorDecl(name, vx, vnx, lineno))

        elif head == "link":
            body = line[len("link"):].strip()
            if "->" not in body:
                diags.append(Diagnostic(lineno, 1, "expected: link PARENT [& PARENT] -> CHILD [separate]"))
                continue
            lhs, rhs = body.split("->", 1)
            parents = [p.strip() for p in lhs.split("&")]
            rhs_tokens = rhs.split()
            separate = False
            if len(rhs_tokens) == 2 and rhs_tokens[1] == "separate":
                separate = True
                rhs_tokens = rhs_tokens[:1]
            if len(rhs_tokens) != 1:
                diags.append(Diagnostic(lineno, 1, "expected: link PARENT [& PARENT] -> CHILD [separate]"))
                continue
            child = rhs_tokens[0]
            bad = False
            for name in (*parents, child):
                if not _NAME_RE.match(name):
                    diags.append(Diagnostic(lineno, _column(raw, name), f"malformed variable name {name!r}"))
                    bad = True
                elif name not in known:
                    diags.append(Diagnostic(lineno, _column(raw, name), f"link references undeclared variable {name!r}"))
                    bad = True
            if bad:
                continue
            if not 1 <= len(parents) <= 2:
                diags.append(Diagnostic(lineno, 1, "a link takes one or two parents"))
                continue
            if separate and len(parents) != 2:
                diags.append(Diagnostic(lineno, _column(raw, "separate"), "'separate' applies to two-parent links"))
                continue
            if child in linked:
                diags.append(Diagnostic(lineno, _column(raw, child), f"variable {child!r} already has a link"))
                continue
            linked.add(child)
            links.append(LinkDecl(tuple(parents), child, separate, lineno))

        else:
            diags.append(Diagnostic(lineno, 1, f"unknown directive {head!r}"))

    doc = NetworkDocument(tuple(nodes), tuple(priors), tuple(links), tuple(conds))
    return ParseResult(doc, tuple(diags))


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(value)


def serialize_document(doc: NetworkDocument) -> str:
    """Canonical text for a document; parses back to an equal document."""
    lines = []
    for n in doc.nodes:
        lines.append(f"node {n.name} {n.formalism}")
    for p in doc.priors:
        lines.append(f"prior {p.name} {_fmt(p.value_x)} {_fmt(p.value_nx)}")
    for l in doc.links:
        flag = " separate" if l.separate else ""
        lines.append(f"link {' & '.join(l.parents)} -> {l.child}{flag}")
    for c in doc.conds:
        outs = ", ".join(o.render() for o in c.parents)
        lines.append(f"cond {c.child.render()} | {outs} = {_fmt(c.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# document -> Network
# ---------------------------------------------------------------------------

def build_network(doc: NetworkDocument) -> tuple[Network | None, tuple[Diagnostic, ...]]:
    """Assemble a Network from a parsed document.

    Returns the network and build diagnostics; the network is None when
    any diagnostic is fatal.  Probability complements may be given
    explicitly but must agree with 1 minus the positive-outcome value;
    unassigned belief conditionals default to 0.
    """
    diags: list[Diagnostic] = []
    formalisms = {n.name: _FORMALISMS[n.formalism] for n in doc.nodes}
    prior_of = {p.name: (p.value_x, p.value_nx) for p in doc.priors}

    variables = [
        Variable(n.name, formalisms[n.name], prior_of.get(n.name)) for n in doc.nodes
    ]

    conds_by_child: dict[str, list[CondDecl]] = {}
    link_of: dict[str, LinkDecl] = {l.child: l for l in doc.links}
    for c in doc.conds:
        child = c.child.var
        if child not in link_of:
            diags.append(Diagnostic(c.line, 1, f"conditional for {child!r} but no link into it"))
            continue
        conds_by_child.setdefault(child, []).append(c)

    links: list[Link] = []
    for decl in doc.links:
        table = _build_table(decl, formalisms, conds_by_child.get(decl.child, []), diags)
        if table is not None:
            links.append(Link(decl.child, decl.parents, table))

    if diags:
        return None, tuple(diags)
    return Network(variables, links), ()


_CELL_OF: dict[str, lc.Cell] = {POS_OUT: True, NEG_OUT: False, FRAME_OUT: None}


def _cond_key(decl: LinkDecl, c: CondDecl, frames_ok: bool, one_parent_per_cond: bool) -> tuple | str:
    """Cell key for one conditional line, or an error message.

    Joint tables key by (child_pos, cell per parent in link order);
    'separate' tables name one parent outcome per line and key by
    (child_pos, parent index, cell)."""
    if one_parent_per_cond:
        if len(c.parents) != 1:
            return "per-parent tables take one conditioning outcome per line"
        out = c.parents[0]
        if out.var not in decl.parents:
            return f"outcome of {out.var!r} does not name a parent of {decl.child!r}"
        return (c.child.kind == POS_OUT, decl.parents.index(out.var), _CELL_OF[out.kind])
    if len(c.parents) != len(decl.parents):
        return f"expected {len(decl.parents)} conditioning outcomes for {decl.child!r}"
    key = [c.child.kind == POS_OUT]
    for out, expected in zip(c.parents, decl.parents):
        if out.var != expected:
            return f"conditioning outcomes must follow link parent order ({', '.join(decl.parents)})"
        key.append(_CELL_OF[out.kind])
    if not frames_ok and None in key:
        return "frame outcomes are only meaningful for belief links"
    return tuple(key)


def _collect_cells(
    decl: LinkDecl,
    conds: list[CondDecl],
    diags: list[Diagnostic],
    frames_ok: bool,
    one_parent_per_cond: bool = False,
) -> dict | None:
    cells: dict = {}
    ok = True
    for c in conds:
        key = _cond_key(decl, c, frames_ok, one_parent_per_cond)
        if isinstance(key, str):
            diags.append(Diagnostic(c.line, 1, key))
            ok = False
            continue
        if not 0.0 <= c.value <= 1.0:
            diags.append(Diagnostic(c.line, 1, f"conditional value {c.value!r} outside [0, 1]"))
            ok = False
            continue
        if key in cells:
            diags.append(Diagnostic(c.line, 1, "duplicate conditional assignment"))
            ok = False
            continue
        cells[key] = c.value
    return cells if ok else None


def _prob_value(cells: dict, key_pos: tuple, key_neg: tuple, decl: LinkDecl, diags: list[Diagnostic]) -> float | None:
    has_pos, has_neg = key_pos in cells, key_neg in cells
    if has_pos and has_neg and abs(cells[key_pos] + cells[key_neg] - 1.0) > 1e-9:
        diags.append(Diagnostic(decl.line, 1, f"probability conditionals {_given(decl, key_pos)} do not sum to 1"))
        return None
    if has_pos:
        return cells[key_pos]
    if has_neg:
        return 1.0 - cells[key_neg]
    diags.append(Diagnostic(decl.line, 1, f"missing probability conditional {_given(decl, key_pos)} for {decl.child!r}"))
    return None


def _given(decl: LinkDecl, key: tuple) -> str:
    """'given a, ~b' for the parent cells of a joint key."""
    return "given " + ", ".join(f"{'' if pos else '~'}{p}" for pos, p in zip(key[1:], decl.parents))


def _build_table(decl, formalisms, conds, diags):
    child_form = formalisms[decl.child]
    if decl.separate and child_form is not BEL:
        diags.append(Diagnostic(decl.line, 1, "'separate' tables are only defined for belief links"))
        return None

    if child_form is PROB:
        cells = _collect_cells(decl, conds, diags, frames_ok=False)
        if cells is None:
            return None
        if len(decl.parents) == 1:
            values = [_prob_value(cells, (True, pp), (False, pp), decl, diags) for pp in (True, False)]
            if None in values:
                return None
            return lc.ProbCond1(*values)
        values = [
            _prob_value(cells, (True, bp, cp), (False, bp, cp), decl, diags)
            for bp in (True, False)
            for cp in (True, False)
        ]
        if None in values:
            return None
        return lc.ProbCond2(*values)

    if child_form is POSS:
        cells = _collect_cells(decl, conds, diags, frames_ok=False)
        if cells is None:
            return None
        keys: list[tuple]
        if len(decl.parents) == 1:
            keys = [(cp, pp) for cp in (True, False) for pp in (True, False)]
        else:
            keys = [(cp, bp, sp) for cp in (True, False) for bp in (True, False) for sp in (True, False)]
        values = []
        for key in keys:
            if key not in cells:
                diags.append(Diagnostic(decl.line, 1, f"missing possibility conditional for {decl.child!r} (cell {key})"))
                return None
            values.append(cells[key])
        if len(decl.parents) == 1:
            # key order: (c,a), (c,~a), (~c,a), (~c,~a)
            return lc.PossCond1(values[0], values[1], values[2], values[3])
        return lc.PossCond2(*values)

    # belief
    if decl.separate:
        cells = _collect_cells(decl, conds, diags, frames_ok=True, one_parent_per_cond=True)
        if cells is None:
            return None
        tables = []
        for idx in range(2):
            try:
                tables.append(
                    lc.BelCond1(
                        bel_c_given_a=cells.get((True, idx, True), 0.0),
                        bel_c_given_na=cells.get((True, idx, False), 0.0),
                        bel_c_given_frame=cells.get((True, idx, None), 0.0),
                        bel_nc_given_a=cells.get((False, idx, True), 0.0),
                        bel_nc_given_na=cells.get((False, idx, False), 0.0),
                        bel_nc_given_frame=cells.get((False, idx, None), 0.0),
                    )
                )
            except ValueError as exc:
                diags.append(Diagnostic(decl.line, 1, str(exc)))
                return None
        return lc.BelCond2Separate(tables[0], tables[1])

    cells = _collect_cells(decl, conds, diags, frames_ok=True)
    if cells is None:
        return None
    try:
        if len(decl.parents) == 1:
            return lc.BelCond1(
                bel_c_given_a=cells.get((True, True), 0.0),
                bel_c_given_na=cells.get((True, False), 0.0),
                bel_c_given_frame=cells.get((True, None), 0.0),
                bel_nc_given_a=cells.get((False, True), 0.0),
                bel_nc_given_na=cells.get((False, False), 0.0),
                bel_nc_given_frame=cells.get((False, None), 0.0),
            )
        return lc.BelCond2Joint.from_values(
            {(cp, ca, cb): v for (cp, ca, cb), v in cells.items()}
        )
    except ValueError as exc:
        diags.append(Diagnostic(decl.line, 1, str(exc)))
        return None


def load_network(text: str) -> tuple[Network | None, tuple[Diagnostic, ...]]:
    """Parse and build in one step."""
    result = parse_network(text)
    if result.diagnostics:
        return None, result.diagnostics
    return build_network(result.document)
