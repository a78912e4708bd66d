"""The benchmark's workloads and scaling probes.

Each workload's ``setup`` generates its inputs from the seed, writes them
as `.qn` files, loads what it needs and warms up; it returns the pool of
operations that the timed loop cycles through, one caller, closed loop.
Why each workload exists is in README.md beside this file.

Operations call qcnet through its modules (``network.propagate``, not a
reference taken at import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import functools
import hashlib
import io
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import refclock
from qcnet import cli, netfile, network, oracle
from qcnet.oracle import PerturbationSpec
from qcnet.signs import NEG, POS, QSign

ROOT = Path(__file__).resolve().parent.parent
MEDICAL = ROOT / "samples" / "medical.qn"

# Networks the oracle verifies keep every strict change above its 1e-12
# sign tolerance: a link scales a change by at least its margin, so the
# smallest is 1e-4 * TREE_MARGIN**TREE_DEPTH = 1e-11.  The chain keeps the
# test suite's 1e-3 margin, under which that change underflows.
TREE_MARGIN = 0.1
TREE_DEPTH = 7
SUITE_MARGIN = 1e-3


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, bool]]  # output -> (digest, verdict ok)
    golden: bool = False  # digest is pinned in golden.json for the anchor seed


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load(text: str):
    net, diagnostics = netfile.load_network(text)
    if net is None:
        raise ValueError("generated network does not load: " + "; ".join(map(str, diagnostics[:3])))
    return net


def lib_evidence(items: list[tuple[str, bool, str]]) -> dict:
    slots: dict[str, list] = {}
    for name, neg, token in items:
        slots.setdefault(name, [None, None])[1 if neg else 0] = QSign.from_token(token)
    return {name: (dx, dnx) for name, (dx, dnx) in slots.items()}


def _report_check(net, report) -> tuple[str, bool]:
    lines = [f"{n}\t{report.changes[n][0]}\t{report.changes[n][1]}" for n in sorted(net.variables)]
    lines += [f"{c}\t{report.matrices[c]}" for c in sorted(report.matrices)]
    lines += [
        f"{n}\t{c.source}\t{c.change[0]}\t{c.change[1]}\t{c.bridged}"
        for n in sorted(report.provenance)
        for c in report.provenance[n]
    ]
    return digest("\n".join(lines)), True


def _containment_check(report) -> tuple[str, bool]:
    return digest(report.to_table()), report.passed


def _cli_check(result: tuple[int, str]) -> tuple[str, bool]:
    status, output = result
    return digest(f"{status}\n{output}"), status == 0


def _write(workdir: Path, name: str, text: str) -> Path:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return path


def _write_and_load(workdir: Path, name: str, g: gen.Net):
    return load(_write(workdir, name, g.text()).read_text(encoding="utf-8"))


def _root_target(g: gen.Net, root: str) -> tuple[str, str]:
    """Evidence token and oracle direction a root can take (pi(x) = 1 cannot rise)."""
    prior = next(n.prior for n in g.nodes if n.name == root)
    return ("-", "decrease") if prior is not None and prior[0] == 1.0 else ("+", "increase")


def _warm_up(ops: list[Op]) -> None:
    """Run ``ops`` once, untimed.  A failure is not counted here: the timed
    loop runs the same operation again and counts it there."""
    for op in ops:
        try:
            op.run()
        except Exception:
            pass


def _widest_roots(g: gen.Net, k: int) -> list[str]:
    return sorted(g.roots(), key=lambda r: (-len(g.descendants(r)), r))[:k]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def setup_repl_polytree(seed: int, workdir: Path) -> list[Op]:
    """One ~1000-node mixed polytree, many what-if queries through ``propagate``."""
    rng = random.Random(seed)
    g = gen.polytree(rng, 1000, depth_cap=15, margin=SUITE_MARGIN)
    net = _write_and_load(workdir, "polytree.qn", g)
    ops = []
    for i in range(16):
        ev = lib_evidence(gen.evidence(rng, g, rng.randint(1, 3)))
        ops.append(Op(f"propagate#{i}", functools.partial(_propagate, net, ev),
                      functools.partial(_report_check, net), golden=i < 4))
    _warm_up(ops[:1])
    return ops


def setup_verify_trees(seed: int, workdir: Path) -> list[Op]:
    """Oracle checks on 16 roots of each of three single-formalism trees,
    each triple of checks followed by one of a 50-link probability chain."""
    rng = random.Random(seed)
    trials = 8
    trees = []
    for formalism in ("prob", "bel", "poss"):
        g = gen.polytree(rng, 200, (formalism,), depth_cap=TREE_DEPTH, margin=TREE_MARGIN, prefix=formalism[0])
        net = _write_and_load(workdir, f"{formalism}200.qn", g)
        trees.append((g, net))
    n_roots = min(16, *(len(g.roots()) for g, _ in trees))
    trees = [(g, net, rng.sample(sorted(g.roots()), n_roots)) for g, net in trees]
    c = gen.chain(rng, 50, SUITE_MARGIN)
    chain_net = _write_and_load(workdir, "chain50.qn", c)

    def verify(g, net, root, label) -> Op:
        token, direction = _root_target(g, root)
        spec = PerturbationSpec(root, direction, trials=trials, seed=rng.randrange(1 << 30))
        run = functools.partial(_check_containment, net, {root: POS if token == "+" else NEG}, spec)
        return Op(label, run, _containment_check)

    ops = []
    for i in range(n_roots):
        ops += [verify(g, net, roots[i], f"verify:{roots[i]}") for g, net, roots in trees]
        ops.append(verify(c, chain_net, c.nodes[0].name, f"verify-chain50#{i}"))
    _warm_up(ops[:4])
    return ops


def setup_cli_oneshot(seed: int, workdir: Path) -> list[Op]:
    """Every CLI subcommand on the sample and on two files each of 50, 300
    and 1000 nodes; each call reads and parses its file again."""
    rng = random.Random(seed)
    files = [(str(_write(workdir, "medical.qn", MEDICAL.read_text(encoding="utf-8"))), None)]
    for n in (50, 300, 1000):
        for copy in "ab":
            g = gen.polytree(rng, n, depth_cap=TREE_DEPTH, margin=TREE_MARGIN)
            files.append((str(_write(workdir, f"mixed{n}{copy}.qn", g.text())), g))
    ops = []
    for path, g in files:
        name = Path(path).name
        if g is None:
            queries = ["s=+,t=-0", "d=?", "v=+,v:neg=-", "p=+0,k=-0"]
            verify_ev = "s=+"
        else:
            queries = [gen.evidence_arg(gen.evidence(rng, g, rng.randint(1, 3))) for _ in range(4)]
            root = _widest_roots(g, 1)[0]
            verify_ev = f"{root}={_root_target(g, root)[0]}"
        script = f"{queries[1]}\nhold\n{queries[2]}\n{queries[3]}\nreset\n"
        argvs = [
            ("validate", ["validate", path], None),
            ("explain", ["explain", path], None),
            ("propagate", ["propagate", path, "--evidence", queries[0]], None),
            ("verify", ["verify", path, "--evidence", verify_ev, "--trials", "3",
                        "--seed", str(rng.randrange(1 << 30))], None),
            ("repl", ["repl", path], script),
        ]
        for cmd, argv, stdin in argvs:
            run = functools.partial(_run_cli, argv, stdin)
            ops.append(Op(f"{cmd}:{name}", run, _cli_check, golden=cmd != "verify"))
    _warm_up(ops[::5])
    return ops


def _propagate(net, evidence):
    return network.propagate(net, evidence)


def _check_containment(net, evidence, spec):
    return oracle.check_containment(net, evidence, spec)


def _run_cli(argv: list[str], stdin: str | None) -> tuple[int, str]:
    return cli.run_command(argv, io.StringIO(stdin) if stdin is not None else None)


WORKLOADS = {
    "repl-polytree": setup_repl_polytree,
    "verify-trees": setup_verify_trees,
    "cli-oneshot": setup_cli_oneshot,
}


# ---------------------------------------------------------------------------
# scaling probes (traced runs only, timed with tracing off)
# ---------------------------------------------------------------------------

def _median_time(fn: Callable[[], object], repeats: int) -> float:
    """Median time of ``fn()`` at reference speed."""
    times = []
    for _ in range(repeats):
        _, wall, scale = refclock.timed(fn)
        times.append(wall * scale)
    return statistics.median(times)


def probes(seed: int) -> dict[str, float]:
    """Per-link propagation cost on bushy polytrees of 1k and 10k nodes, and
    per-trial oracle cost on probability chains of 50 and 200 links.

    Chains stay at 200 links or fewer: the oracle's recursive evaluator and
    ``Network.topological_order`` hit Python's recursion limit from about
    900 links at this code's state.
    """
    rng = random.Random(seed)
    out = {}
    for n, key in ((1000, "1k"), (10_000, "10k")):
        g = gen.polytree(rng, n, depth_cap=15, margin=SUITE_MARGIN)
        net = load(g.text())
        ev = lib_evidence(gen.evidence(rng, g, 2))
        out[f"network.propagate.us_per_link_{key}"] = _median_time(lambda: _propagate(net, ev), 3) / len(net.links) * 1e6
    for links, few, many in ((50, 5, 20), (200, 1, 3)):
        c = gen.chain(rng, links, SUITE_MARGIN)
        net = load(c.text())
        root = c.nodes[0].name

        def run(trials: int):
            spec = PerturbationSpec(root, "increase", trials=trials, seed=seed)
            return lambda: _check_containment(net, {root: POS}, spec)

        # slope between two trial counts, so the fixed propagate cost drops out
        slope = (_median_time(run(many), 3) - _median_time(run(few), 3)) / (many - few)
        out[f"oracle.ms_per_trial_chain{links}"] = slope * 1e3
    return out
