"""Command line front end.

Subcommands: ``validate``, ``explain``, ``propagate``, ``verify`` and
``repl``.  All output is deterministic, tab-separated and sorted by
variable name, so runs are byte-for-byte reproducible.  Exit status is 0
on success, 1 on validation or propagation errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import IO, Sequence

from .netfile import load_network
from .network import (
    ChangeReport,
    EvidenceError,
    Network,
    NetworkError,
    explain,
    propagate,
    validate,
)
from .oracle import DECREASE, INCREASE, OracleError, PerturbationSpec, check_containment
from .signs import NEG, POS, QSign, ZERO, qadd

_EVIDENCE_TOKENS = {"+", "-", "0", "?", "+0", "-0"}
#: verify's numeric options: (type, default)
_NUMERIC_OPTIONS = {"--trials": (int, 1000), "--seed": (int, 0), "--epsilon": (float, 1e-4)}


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

    p_validate = sub.add_parser("validate", help="check a network file")
    p_validate.add_argument("file")

    p_explain = sub.add_parser("explain", help="show every link's derivative matrix")
    p_explain.add_argument("file")

    p_prop = sub.add_parser("propagate", help="propagate qualitative evidence")
    p_prop.add_argument("file")
    p_prop.add_argument("--evidence", default="", help="VAR=SIGN[,VAR=SIGN...]; VAR:neg=SIGN for the negative outcome")

    p_verify = sub.add_parser("verify", help="check predictions against the numeric oracle")
    p_verify.add_argument("file")
    p_verify.add_argument("--evidence", required=True, help="directional evidence, VAR=+ or VAR=-")
    for option, (kind, default) in _NUMERIC_OPTIONS.items():
        p_verify.add_argument(option, type=kind, default=default)

    p_repl = sub.add_parser("repl", help="interactive evidence queries")
    p_repl.add_argument("file")

    return parser


def _attach_negative_values(argv: Sequence[str]) -> list[str]:
    """``argv`` with each value that starts with '-' and follows a numeric
    option attached to it (``--epsilon=-1e-3``), so that the option's own
    check reads it: argparse takes a separate ``-1e-3`` or ``-inf`` for an
    option.  A long option, and anything after ``--``, is left alone."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _NUMERIC_OPTIONS and arg[:1] == "-" and arg[:2] != "--" and "--" not in out:
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
    return {
        name: (dx if dx is not None else ZERO, dnx)
        for name, (dx, dnx) in out.items()
    }


def _change_table(net: Network, report: ChangeReport) -> str:
    lines = ["variable\tformalism\td_x\td_not_x"]
    for name in sorted(net.variables):
        var = net.variables[name]
        dx, dnx = report.changes[name]
        lines.append(f"{name}\t{var.formalism}\t{dx}\t{dnx}")
    return "\n".join(lines) + "\n"


def _cmd_validate(ns) -> tuple[int, str]:
    net = _load(ns.file)
    report = validate(net)
    lines = [f"error: {e}" for e in report.errors] + [f"warning: {w}" for w in report.warnings]
    if report.ok:
        lines.append("ok")
    return (0 if report.ok else 1), "\n".join(lines) + "\n"


def _cmd_explain(ns) -> tuple[int, str]:
    net = _load(ns.file)
    lines = ["link\tchild_outcome\tparent_outcome\tderivative\tcase"]
    for entry in explain(net):
        label = f"{' & '.join(entry.parents)} -> {entry.child}"
        col_labels = [tok for p in entry.parents for tok in (p, f"~{p}")]
        for i, child_out in enumerate((entry.child, f"~{entry.child}")):
            for j, parent_out in enumerate(col_labels):
                sign = entry.matrix[i][j]
                case = entry.cases[i][j]
                lines.append(f"{label}\t{child_out}\t{parent_out}\t{sign}\t{case}")
    return 0, "\n".join(lines) + "\n"


def _cmd_propagate(ns) -> tuple[int, str]:
    net = _load(ns.file)
    evidence = _parse_evidence(ns.evidence)
    report = propagate(net, evidence)
    return 0, _change_table(net, report)


def _cmd_verify(ns) -> tuple[int, str]:
    net = _load(ns.file)
    evidence = _parse_evidence(ns.evidence)
    if not evidence:
        raise _UsageError("verify needs at least one evidence assignment")
    chunks = []
    all_pass = True
    for name in sorted(evidence):
        dx, dnx = evidence[name]
        if dx == POS:
            direction = INCREASE
        elif dx == NEG:
            direction = DECREASE
        else:
            raise _UsageError(f"verify needs directional evidence (+ or -) for {name!r}")
        try:
            spec = PerturbationSpec(
                target=name,
                direction=direction,
                epsilon=ns.epsilon,
                trials=ns.trials,
                seed=ns.seed,
            )
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
        report = check_containment(net, {name: (dx, dnx)}, spec)
        chunks.append(f"# target={name} direction={direction}\n" + report.to_table())
        all_pass = all_pass and report.passed
    return (0 if all_pass else 1), "".join(chunks)


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
        if dnx is None:
            combined_dnx = old_dnx
        elif old_dnx is None:
            combined_dnx = dnx
        else:
            combined_dnx = qadd(old_dnx, dnx)
        merged[name] = (qadd(old_dx, dx), combined_dnx)
    return merged


def _cmd_repl(ns, stdin: IO[str]) -> tuple[int, str]:
    net = _load(ns.file)
    out: list[str] = []
    held: dict[str, tuple[QSign, QSign | None]] = {}
    holding = False
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
            held = _merge_evidence(held, evidence)
            evidence = held
        try:
            report = propagate(net, evidence)
        except NetworkError as exc:
            out.append(f"error: {exc}\n")
            continue
        out.append(_change_table(net, report))
    return 0, "".join(out)


def run_command(argv: Sequence[str], stdin: IO[str] | None = None) -> tuple[int, str]:
    """Run one CLI invocation, returning (exit status, textual output)."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(_attach_negative_values(argv))
    except _UsageError as exc:
        return 2, f"usage error: {exc}\n"
    except SystemExit as exc:  # --help and friends print directly
        return int(exc.code or 0), ""
    try:
        if ns.command == "validate":
            return _cmd_validate(ns)
        if ns.command == "explain":
            return _cmd_explain(ns)
        if ns.command == "propagate":
            return _cmd_propagate(ns)
        if ns.command == "verify":
            return _cmd_verify(ns)
        if ns.command == "repl":
            return _cmd_repl(ns, stdin if stdin is not None else sys.stdin)
    except _UsageError as exc:
        return 2, f"usage error: {exc}\n"
    except (NetworkError, EvidenceError, OracleError) as exc:
        return 1, f"error: {exc}\n"
    return 2, "usage error: unknown command\n"


def main() -> None:
    status, output = run_command(sys.argv[1:])
    stream = sys.stdout if status == 0 else sys.stderr
    stream.write(output)
    raise SystemExit(status)


if __name__ == "__main__":
    main()
