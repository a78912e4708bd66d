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
from typing import NamedTuple

from . import links as lc
from .network import BEL, Link, Network, POSS, PROB, Variable, _link_label, _new_record, _record

_NAME_RE = re.compile(r"[A-Za-z_]\w*$")
# matched from just after the "cond" keyword; the conditioned outcome may
# be written as a (rejected) no-space frame token, so the error message can
# say so instead of misparsing.  The child group scans a leading name once,
# then tries the frame's '|~name' after it.
_COND_RE = re.compile(
    r"\s*(?P<child>[A-Za-z_]\w*(?:\|~[A-Za-z_]\w*)?|~[A-Za-z_]\w*)\s*\|\s*(?P<parents>.+?)\s*=\s*(?P<value>\S+)$"
)

_FORMALISMS = {"prob": PROB, "poss": POSS, "bel": BEL}

POS_OUT = "pos"
NEG_OUT = "neg"
FRAME_OUT = "frame"


@_record
class Diagnostic(NamedTuple):
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, col {self.column}: {self.message}"


@_record
class NodeDecl(NamedTuple):
    name: str
    formalism: str
    line: int = 0


@_record
class PriorDecl(NamedTuple):
    name: str
    value_x: float
    value_nx: float
    line: int = 0


@_record
class LinkDecl(NamedTuple):
    parents: tuple[str, ...]
    child: str
    separate: bool = False
    line: int = 0


@_record
class Outcome(NamedTuple):
    var: str
    kind: str  # POS_OUT, NEG_OUT or FRAME_OUT

    def render(self) -> str:
        if self.kind == POS_OUT:
            return self.var
        if self.kind == NEG_OUT:
            return f"~{self.var}"
        return f"{self.var}|~{self.var}"


@_record
class CondDecl(NamedTuple):
    child: Outcome
    parents: tuple[Outcome, ...]
    value: float
    line: int = 0


@_record
class NetworkDocument(NamedTuple):
    nodes: tuple[NodeDecl, ...] = ()
    priors: tuple[PriorDecl, ...] = ()
    links: tuple[LinkDecl, ...] = ()
    conds: tuple[CondDecl, ...] = ()


@_record
class ParseResult(NamedTuple):
    document: NetworkDocument
    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return not self.diagnostics


def _column(raw: str, index: int) -> int:
    """The 1-based column in the line ``raw`` of ``index`` into its
    stripped, comment-free text."""
    return len(raw) - len(raw.lstrip()) + index + 1


def _piece_index(pieces: list[str], i: int) -> int:
    """Where piece ``i``'s stripped text starts in the text that a
    one-character separator split into ``pieces`` (a blank piece: where the
    piece starts)."""
    return sum(len(p) + 1 for p in pieces[:i]) + pieces[i].find(pieces[i].strip())


def _child_index(lhs: str, rhs: str, child: str) -> int:
    """Where ``child`` starts in a link line whose text after the keyword
    splits at '->' into ``lhs`` and ``rhs``."""
    return 4 + len(lhs) + 2 + rhs.index(child)


def _parse_outcome(token: str, known: dict[str, str]) -> tuple[Outcome | None, str | None]:
    """Parse one stripped outcome token against declared variable names."""
    if "|" in token:
        parts = [p.strip() for p in token.split("|")]
        names = {p[1:].strip() if p.startswith("~") else p for p in parts}
        if len(parts) != 2 or len(names) != 1:
            return None, f"malformed frame outcome {token!r}"
        (var,) = names
        if var not in known:
            return None, f"outcome references undeclared variable {var!r}"
        return _new_record(Outcome, (var, FRAME_OUT)), None
    neg = token.startswith("~")
    var = token[1:].strip() if neg else token
    if var not in known:  # a declared name is well formed
        if not _NAME_RE.match(var):
            return None, f"malformed outcome {token!r}"
        return None, f"outcome references undeclared variable {var!r}"
    return _new_record(Outcome, (var, NEG_OUT if neg else POS_OUT)), None


def _parse_parents(
    text: str, known: dict[str, str], outcomes: dict[str, Outcome]
) -> tuple[tuple[Outcome, ...] | None, str | None, int]:
    """The comma-separated outcomes of ``text``; or None, the first bad
    token's error and its index in ``text``.  A token already in
    ``outcomes`` is not parsed again, and a token parsed here is added to
    it."""
    outs = []
    pieces = text.split(",")
    for i, piece in enumerate(pieces):
        token = piece.strip()
        out = outcomes.get(token)
        if out is None:
            out, err = _parse_outcome(token, known)
            if err:
                return None, err, _piece_index(pieces, i)
            outcomes[token] = out
        outs.append(out)
    return tuple(outs), None, 0


def parse_network(text: str) -> ParseResult:
    """Parse network-file text. Total: collects diagnostics, never raises.

    Linear in the text: duplicate link children are found in a set.  A
    ``node`` line registers its variable's tokens ``x`` and ``~x``; any
    other outcome token is parsed once, and each distinct parent-outcome
    text split once (or looked up, if it is one registered token), their
    :class:`Outcome` and tuple shared by every conditional that names them.
    Only successful parses are remembered, since a token naming a variable
    not yet declared becomes valid once its ``node`` line arrives.  A
    diagnostic's column points at the token it is about."""
    nodes: list[NodeDecl] = []
    priors: list[PriorDecl] = []
    links: list[LinkDecl] = []
    conds: list[CondDecl] = []
    diags: list[Diagnostic] = []
    known: dict[str, str] = {}
    prior_seen: set[str] = set()
    linked: set[str] = set()
    outcomes: dict[str, Outcome] = {}  # stripped token -> its outcome
    parent_lists: dict[str, tuple[Outcome, ...]] = {}  # parent-outcome text -> its outcomes

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue

        if line[:4] == "cond" and (line[4:5].isspace() or len(line) == 4):
            m = _COND_RE.match(line, 4)
            if m is None:
                diags.append(Diagnostic(lineno, 1, "expected: cond OUTCOME | OUTCOMES = VALUE"))
                continue
            child_token, parents_text, value_text = m.groups()
            child_out = outcomes.get(child_token)
            if child_out is None:  # a frame, or a variable not declared yet: either one is an error
                child_out, err = _parse_outcome(child_token, known)
                if err:
                    diags.append(Diagnostic(lineno, _column(raw, m.start("child")), err))
                    continue
            if child_out.kind == FRAME_OUT:
                diags.append(Diagnostic(lineno, 1, "the conditioned outcome cannot be a frame"))
                continue
            parent_outs = parent_lists.get(parents_text)
            if parent_outs is None:
                if parents_text in outcomes:
                    parent_outs = (outcomes[parents_text],)
                else:
                    parent_outs, err, at = _parse_parents(parents_text, known, outcomes)
                    if err:
                        diags.append(Diagnostic(lineno, _column(raw, m.start("parents") + at), err))
                        continue
                parent_lists[parents_text] = parent_outs
            try:
                value = float(value_text)
            except ValueError:
                diags.append(Diagnostic(lineno, _column(raw, m.start("value")), "conditional value must be a number"))
                continue
            conds.append(_new_record(CondDecl, (child_out, parent_outs, value, lineno)))
            continue

        tokens = line.split()
        head = tokens[0]
        if head == "node":
            if len(tokens) != 3:
                diags.append(Diagnostic(lineno, 1, "expected: node NAME prob|poss|bel"))
                continue
            name, kind = tokens[1], tokens[2]
            if not _NAME_RE.match(name):
                diags.append(Diagnostic(lineno, _column(raw, line.index(name, 4)), f"malformed variable name {name!r}"))
                continue
            if kind not in _FORMALISMS:
                # each token is the first match after the one before
                kind_at = line.index(kind, line.index(name, 4) + len(name))
                diags.append(Diagnostic(lineno, _column(raw, kind_at), f"unknown formalism {kind!r}"))
                continue
            if name in known:
                diags.append(Diagnostic(lineno, _column(raw, line.index(name, 4)), f"duplicate variable {name!r}"))
                continue
            known[name] = kind
            nodes.append(_new_record(NodeDecl, (name, kind, lineno)))
            outcomes[name] = _new_record(Outcome, (name, POS_OUT))
            outcomes["~" + name] = _new_record(Outcome, (name, NEG_OUT))

        elif head == "prior":
            if len(tokens) != 4:
                diags.append(Diagnostic(lineno, 1, "expected: prior NAME VALUE VALUE"))
                continue
            name = tokens[1]
            if name not in known:
                diags.append(Diagnostic(lineno, _column(raw, line.index(name, 5)), f"prior for undeclared variable {name!r}"))
                continue
            try:
                vx, vnx = float(tokens[2]), float(tokens[3])
            except ValueError:
                diags.append(Diagnostic(lineno, 1, f"prior values for {name!r} must be numbers"))
                continue
            if name in prior_seen:
                diags.append(Diagnostic(lineno, _column(raw, line.index(name, 5)), f"duplicate prior for {name!r}"))
                continue
            prior_seen.add(name)
            priors.append(_new_record(PriorDecl, (name, vx, vnx, lineno)))

        elif head == "link":
            body = line[4:]
            if "->" not in body:
                diags.append(Diagnostic(lineno, 1, "expected: link PARENT [& PARENT] -> CHILD [separate]"))
                continue
            lhs, rhs = body.split("->", 1)
            pieces = lhs.split("&")
            parents = [p.strip() for p in pieces]
            rhs_tokens = rhs.split()
            separate = len(rhs_tokens) == 2 and rhs_tokens[1] == "separate"
            if separate:
                rhs_tokens = rhs_tokens[:1]
            if len(rhs_tokens) != 1:
                diags.append(Diagnostic(lineno, 1, "expected: link PARENT [& PARENT] -> CHILD [separate]"))
                continue
            child = rhs_tokens[0]
            bad = False
            for i, name in enumerate((*parents, child)):
                if name in known:  # a declared name is well formed
                    continue
                bad = True
                col = _column(raw, 4 + _piece_index(pieces, i) if i < len(parents) else _child_index(lhs, rhs, child))
                if not _NAME_RE.match(name):
                    diags.append(Diagnostic(lineno, col, f"malformed variable name {name!r}"))
                else:
                    diags.append(Diagnostic(lineno, col, f"link references undeclared variable {name!r}"))
            if bad:
                continue
            if not 1 <= len(parents) <= 2:
                diags.append(Diagnostic(lineno, 1, "a link takes one or two parents"))
                continue
            if separate and len(parents) != 2:
                diags.append(Diagnostic(lineno, _column(raw, len(line) - len("separate")), "'separate' applies to two-parent links"))
                continue
            if child in linked:
                diags.append(Diagnostic(lineno, _column(raw, _child_index(lhs, rhs, child)), f"variable {child!r} already has a link"))
                continue
            linked.add(child)
            links.append(_new_record(LinkDecl, (tuple(parents), child, separate, lineno)))

        else:
            diags.append(Diagnostic(lineno, 1, f"unknown directive {head!r}"))

    doc = _new_record(NetworkDocument, (tuple(nodes), tuple(priors), tuple(links), tuple(conds)))
    return _new_record(ParseResult, (doc, tuple(diags)))


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
        lines.append(f"link {_link_label(l.parents, l.child)}{flag}")
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
    unassigned belief conditionals default to 0.  What only a document
    built by hand can hold is a diagnostic too, with the message
    :func:`parse_network` gives for the same line: an unknown formalism, a
    prior for or a link into an undeclared variable, a link with other
    than one or two parents.

    Linear in the document: each conditional is keyed once by
    :func:`_cond_key`, and each link's values are read from those keys in
    one pass over its table's layout.
    """
    diags = [Diagnostic(n.line, 1, f"unknown formalism {n.formalism!r}") for n in doc.nodes if n.formalism not in _FORMALISMS]
    formalisms = {n.name: _FORMALISMS[n.formalism] for n in doc.nodes if n.formalism in _FORMALISMS}
    diags += [Diagnostic(p.line, 1, f"prior for undeclared variable {p.name!r}") for p in doc.priors if p.name not in formalisms]
    prior_of = {p.name: (p.value_x, p.value_nx) for p in doc.priors if p.name in formalisms}

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
        if decl.child not in formalisms:  # an undeclared parent is a validation error
            diags.append(Diagnostic(decl.line, 1, f"link references undeclared variable {decl.child!r}"))
            continue
        table = _build_table(decl, formalisms, conds_by_child.get(decl.child, []), diags)
        if table is not None:
            links.append(Link(decl.child, decl.parents, table))

    if diags:
        return None, tuple(diags)
    return Network([_new_record(Variable, (n.name, formalisms[n.name], prior_of.get(n.name))) for n in doc.nodes], links), ()


_CELL_OF: dict[str, lc.Cell] = {POS_OUT: True, NEG_OUT: False, FRAME_OUT: None}


def _cond_key(decl: LinkDecl, child: Outcome, outs: tuple[Outcome, ...], frames_ok: bool) -> tuple | str:
    """Cell key of the conditional ``child | outs`` of a link with one or
    two parents, or an error message.

    Joint tables key by (child_pos, cell per parent in link order);
    'separate' tables name one parent outcome per line and key by
    (child_pos, parent index, cell).  Each outcome is unpacked once."""
    names = decl.parents
    if decl.separate:
        if len(outs) != 1:
            return "per-parent tables take one conditioning outcome per line"
        ((var, kind),) = outs
        if var not in names:
            return f"outcome of {var!r} does not name a parent of {decl.child!r}"
        return (child.kind == POS_OUT, names.index(var), _CELL_OF[kind])
    if len(outs) != len(names):
        return f"expected {len(names)} conditioning outcomes for {decl.child!r}"
    if len(outs) == 1:
        ((var, kind),) = outs
        in_order = var == names[0]
        key = (child.kind == POS_OUT, _CELL_OF[kind])
    else:
        (var, kind), (var2, kind2) = outs
        in_order = var == names[0] and var2 == names[1]
        key = (child.kind == POS_OUT, _CELL_OF[kind], _CELL_OF[kind2])
    if not in_order:
        return f"conditioning outcomes must follow link parent order ({', '.join(names)})"
    if not frames_ok and None in key:
        return "frame outcomes are only meaningful for belief links"
    return key


def _collect_cells(decl: LinkDecl, conds: list[CondDecl], diags: list[Diagnostic], frames_ok: bool) -> dict | None:
    """The cells a link's conditionals assign, by :func:`_cond_key`, or None
    after a diagnostic."""
    cells: dict = {}
    ok = True
    for child, outs, value, line in conds:
        key = _cond_key(decl, child, outs, frames_ok)
        if key.__class__ is str:
            diags.append(Diagnostic(line, 1, key))
            ok = False
        elif not 0.0 <= value <= 1.0:
            diags.append(Diagnostic(line, 1, f"conditional value {value!r} outside [0, 1]"))
            ok = False
        elif key in cells:
            diags.append(Diagnostic(line, 1, "duplicate conditional assignment"))
            ok = False
        else:
            cells[key] = value
    return cells if ok else None


def _prob_value(cells: dict, key_pos: tuple, decl: LinkDecl, diags: list[Diagnostic]) -> float | None:
    pos, neg = cells.get(key_pos), cells.get((False, *key_pos[1:]))
    if pos is not None:
        if neg is not None and abs(pos + neg - 1.0) > 1e-9:
            diags.append(Diagnostic(decl.line, 1, f"probability conditionals {_given(decl, key_pos)} do not sum to 1"))
            return None
        return pos
    if neg is not None:
        return 1.0 - neg
    diags.append(Diagnostic(decl.line, 1, f"missing probability conditional {_given(decl, key_pos)} for {decl.child!r}"))
    return None


def _given(decl: LinkDecl, key: tuple) -> str:
    """'given a, ~b' for the parent cells of a joint key."""
    return "given " + ", ".join(f"{'' if pos else '~'}{p}" for pos, p in zip(key[1:], decl.parents))


_TABLES = {
    (PROB, 1): lc.ProbCond1, (PROB, 2): lc.ProbCond2,
    (POSS, 1): lc.PossCond1, (POSS, 2): lc.PossCond2,
    (BEL, 1): lc.BelCond1, (BEL, 2): lc.BelCond2Joint,
}


def _layout_values(cls, cells: dict, decl: LinkDecl, diags: list[Diagnostic], index: tuple = ()) -> list | None:
    """The values of a ``cls`` table in its layout order, each read from the
    cell keyed ``(child_pos, *index, *parent_cells)`` by the formalism's rule:
    a probability is stated or 1 minus its stated complement, a possibility
    is required, and a missing belief is 0.  None after a diagnostic."""
    keys = cls.cell_keys if not index else [(pos, *index, *rest) for pos, *rest in cls.cell_keys]
    if cls.formalism is PROB:
        values = [_prob_value(cells, key, decl, diags) for key in keys]
        return None if None in values else values
    if cls.formalism is POSS:
        values = [cells.get(key) for key in keys]
        if None in values:
            key = keys[values.index(None)]
            diags.append(Diagnostic(decl.line, 1, f"missing possibility conditional {'' if key[0] else '~'}{decl.child} {_given(decl, key)} for {decl.child!r}"))
            return None
        return values
    return [cells.get(key, 0.0) for key in keys]


def _build_table(decl, formalisms, conds, diags):
    if not 1 <= len(decl.parents) <= 2:  # only a document built by hand can get here
        diags.append(Diagnostic(decl.line, 1, "a link takes one or two parents"))
        return None
    child_form = formalisms[decl.child]
    if decl.separate and child_form is not BEL:
        diags.append(Diagnostic(decl.line, 1, "'separate' tables are only defined for belief links"))
        return None
    cells = _collect_cells(decl, conds, diags, child_form is BEL)
    if cells is None:
        return None
    try:
        if decl.separate:
            return lc.BelCond2Separate(
                *(lc.BelCond1.from_cells(_layout_values(lc.BelCond1, cells, decl, diags, (idx,))) for idx in range(2))
            )
        cls = _TABLES[child_form, len(decl.parents)]
        values = _layout_values(cls, cells, decl, diags)
        return None if values is None else cls.from_cells(values)
    except ValueError as exc:
        diags.append(Diagnostic(decl.line, 1, str(exc)))
        return None


def load_network(text: str) -> tuple[Network | None, tuple[Diagnostic, ...]]:
    """Parse and build in one step."""
    result = parse_network(text)
    if result.diagnostics:
        return None, result.diagnostics
    return build_network(result.document)
