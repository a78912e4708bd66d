"""Command line front end.

Subcommands: ``validate``, ``explain``, ``propagate``, ``verify`` and
``repl``, each registered once in the parser with the function that runs
it on the loaded network.  All output is deterministic, tab-separated and
sorted by variable name, so runs are byte-for-byte reproducible.  Exit
status is 0 on success, 1 on validation or propagation errors, 2 on usage
errors.  What a command returns goes to stdout, whatever its status; the
message of an error that stops it goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import IO, Sequence

from .netfile import load_network
from .network import ChangeReport, Network, NetworkError, _link_label, explain, propagate, validate
from .oracle import DECREASE, INCREASE, OracleError, PerturbationSpec, check_containment
from .signs import NEG, POS, QSign, ZERO, qadd

_EVIDENCE_TOKENS = {"+", "-", "0", "?", "+0", "-0"}
#: verify's numeric options: (type, default)
_NUMERIC_OPTIONS = {"--trials": (int, 1000), "--seed": (int, 0), "--epsilon": (float, 1e-4)}
_DIRECTIONS = {POS: INCREASE, NEG: DECREASE}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = _Parser(prog="qcnet", description="qualitative change propagation over uncertainty networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str) -> _Parser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("file")
        p.set_defaults(run=run)
        return p

    command("validate", _cmd_validate, "check a network file")
    command("explain", _cmd_explain, "show every link's derivative matrix")
    p_prop = command("propagate", _cmd_propagate, "propagate qualitative evidence")
    p_prop.add_argument("--evidence", default="", help="VAR=SIGN[,VAR=SIGN...]; VAR:neg=SIGN for the negative outcome")
    p_verify = command("verify", _cmd_verify, "check predictions against the numeric oracle")
    p_verify.add_argument("--evidence", required=True, help="directional evidence, VAR=+ or VAR=-")
    for option, (kind, default) in _NUMERIC_OPTIONS.items():
        p_verify.add_argument(option, type=kind, default=default)
    command("repl", _cmd_repl, "interactive evidence queries")

    return parser


def _attach_negative_values(argv: Sequence[str]) -> list[str]:
    """``argv`` with each value that starts with '-' and follows a numeric
    option attached to it (``--epsilon=-1e-3``), so that the option's own
    check reads it: argparse takes a separate ``-1e-3`` or ``-inf`` for an
    option.  As in argparse, the option may be a prefix that starts no
    other verify option (``--eps``, not ``--e``).  A long option, and
    anything after ``--``, is left alone."""
    out: list[str] = []
    for arg in argv:
        named = [name for name in ("--evidence", *_NUMERIC_OPTIONS) if out and name.startswith(out[-1])]
        if len(named) == 1 and named[0] in _NUMERIC_OPTIONS and arg[:1] == "-" and arg[:2] != "--" and "--" not in out:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise NetworkError(f"cannot read {path!r}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise NetworkError(f"cannot read {path!r}: not UTF-8 text (byte {exc.start})") from exc


def _load(path: str) -> Network:
    net, diagnostics = load_network(_read_file(path))
    if net is None:
        raise NetworkError("\n".join(str(d) for d in diagnostics) or f"could not load {path!r}")
    return net


def _parse_evidence(text: str) -> dict[str, tuple[QSign, QSign | None]]:
    """Parse an evidence option value into per-variable change pairs."""
    out: dict[str, list[QSign | None]] = {}
    if not text.strip():
        return {}
    for item in text.split(","):
        item = item.strip()
        if "=" not in item:
            raise _UsageError(f"malformed evidence {item!r}, expected VAR=SIGN")
        lhs, token = (part.strip() for part in item.split("=", 1))
        if token not in _EVIDENCE_TOKENS:
            raise _UsageError(f"evidence sign must be one of {sorted(_EVIDENCE_TOKENS)}, got {token!r}")
        sign = QSign.from_token(token)
        negative = lhs.endswith(":neg")
        name = lhs[: -len(":neg")] if negative else lhs
        if not name:
            raise _UsageError(f"malformed evidence {item!r}")
        slot = out.setdefault(name, [None, None])
        idx = 1 if negative else 0
        if slot[idx] is not None:
            raise _UsageError(f"evidence assigns {lhs!r} twice")
        slot[idx] = sign
    return {name: (dx if dx is not None else ZERO, dnx) for name, (dx, dnx) in out.items()}


def _table_rows(net: Network) -> tuple[list[str], dict[str, tuple[int, str]]]:
    """A change table with no change, and each variable's line number in it and row prefix (name and formalism)."""
    names = sorted(net.variables)
    prefixes = [f"{name}\t{net.variables[name].formalism!s}\t" for name in names]
    rows = {name: (i, prefix) for i, (name, prefix) in enumerate(zip(names, prefixes), start=1)}
    return ["variable\tformalism\td_x\td_not_x", *[prefix + "0\t0" for prefix in prefixes]], rows


def _change_table(table: tuple[list[str], dict[str, tuple[int, str]]], report: ChangeReport) -> str:
    """The table of :func:`_table_rows` with the changed variables' lines written in."""
    lines, rows = table[0].copy(), table[1]
    for name, (dx, dnx) in report.changes._entries.items():
        i, prefix = rows[name]
        lines[i] = f"{prefix}{dx}\t{dnx}"
    return "\n".join(lines) + "\n"


def _cmd_validate(net: Network, ns, stdin: IO[str]) -> tuple[int, str]:
    report = validate(net)
    lines = [f"error: {e}" for e in report.errors] + [f"warning: {w}" for w in report.warnings]
    if report.ok:
        lines.append("ok")
    return (0 if report.ok else 1), "\n".join(lines) + "\n"


def _cmd_explain(net: Network, ns, stdin: IO[str]) -> tuple[int, str]:
    lines = ["link\tchild_outcome\tparent_outcome\tderivative\tcase"]
    for entry in explain(net):
        label = _link_label(entry.parents, entry.child)
        col_labels = [tok for p in entry.parents for tok in (p, f"~{p}")]
        for child_out, signs, cases in zip((entry.child, f"~{entry.child}"), entry.matrix.rows, entry.cases):
            head = f"{label}\t{child_out}\t"
            lines += [f"{head}{parent_out}\t{sign}\t{case}" for parent_out, sign, case in zip(col_labels, signs, cases)]
    return 0, "\n".join(lines) + "\n"


def _cmd_propagate(net: Network, ns, stdin: IO[str]) -> tuple[int, str]:
    return 0, _change_table(_table_rows(net), propagate(net, _parse_evidence(ns.evidence)))


def _cmd_verify(net: Network, ns, stdin: IO[str]) -> tuple[int, str]:
    """One containment check per evidence variable, in name order.  Every
    assignment's direction and the numeric options are checked before the
    first check runs."""
    evidence = _parse_evidence(ns.evidence)
    if not evidence:
        raise _UsageError("verify needs at least one evidence assignment")
    specs = []
    for name in sorted(evidence):
        direction = _DIRECTIONS.get(evidence[name][0])
        if direction is None:
            raise _UsageError(f"verify needs directional evidence (+ or -) for {name!r}")
        try:
            specs.append(PerturbationSpec(name, direction, epsilon=ns.epsilon, trials=ns.trials, seed=ns.seed))
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
    reports = [check_containment(net, {spec.target: evidence[spec.target]}, spec) for spec in specs]
    table = "".join(
        f"# target={spec.target} direction={spec.direction}\n" + report.to_table() for spec, report in zip(specs, reports)
    )
    return (0 if all(report.passed for report in reports) else 1), table


def _merge_evidence(
    held: dict[str, tuple[QSign, QSign | None]],
    new: dict[str, tuple[QSign, QSign | None]],
) -> dict[str, tuple[QSign, QSign | None]]:
    merged = dict(held)
    for name, (dx, dnx) in new.items():
        if name not in merged:
            merged[name] = (dx, dnx)
            continue
        old_dx, old_dnx = merged[name]
        merged[name] = (qadd(old_dx, dx), old_dnx if dnx is None else dnx if old_dnx is None else qadd(old_dnx, dnx))
    return merged


def _cmd_repl(net: Network, ns, stdin: IO[str]) -> tuple[int, str]:
    out: list[str] = []
    held: dict[str, tuple[QSign, QSign | None]] = {}
    holding = False
    table = _table_rows(net)
    for raw in stdin:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("quit", "exit"):
            break
        if line == "hold":
            holding = True
            continue
        if line == "reset":
            holding = False
            held = {}
            continue
        try:
            evidence = _parse_evidence(line)
        except _UsageError as exc:
            out.append(f"error: {exc}\n")
            continue
        if holding:
            evidence = _merge_evidence(held, evidence)
        try:
            report = propagate(net, evidence)
        except NetworkError as exc:
            out.append(f"error: {exc}\n")
            continue
        if holding:
            held = evidence  # kept only once propagate accepts it
        out.append(_change_table(table, report))
    return 0, "".join(out)


def _run(argv: Sequence[str], stdin: IO[str] | None) -> tuple[int, str, str]:
    """(exit status, report, message): what the command returned, or the
    message of the usage, network or oracle error that stopped it.  One of
    the two texts is always empty."""
    try:
        ns = _build_parser().parse_args(_attach_negative_values(argv))
        return (*ns.run(_load(ns.file), ns, stdin if stdin is not None else sys.stdin), "")
    except _UsageError as exc:
        return 2, "", f"usage error: {exc}\n"
    except SystemExit as exc:  # --help and friends print directly
        return int(exc.code or 0), "", ""
    except (NetworkError, OracleError) as exc:
        return 1, "", f"error: {exc}\n"


def run_command(argv: Sequence[str], stdin: IO[str] | None = None) -> tuple[int, str]:
    """Run one CLI invocation, returning (exit status, textual output).

    The output is the command's report, or the message of the error that
    stopped it; :func:`main` writes the first to stdout, the second to
    stderr.  The file is loaded before the evidence and the ranges of
    verify's options are checked, so a load error comes before theirs."""
    status, report, message = _run(argv, stdin)
    return status, report + message


def main() -> None:
    status, report, message = _run(sys.argv[1:], None)
    sys.stdout.write(report)
    sys.stderr.write(message)
    raise SystemExit(status)


if __name__ == "__main__":
    main()
