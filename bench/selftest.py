#!/usr/bin/env python3
"""Self-test of the benchmark: its inputs and outputs are deterministic.

For every workload it checks that
- the same seed gives byte-identical generated `.qn` files and identical
  output digests for every operation of the pool;
- a different seed gives different generated files;
- a pass with every qcnet layer traced gives the same digests as one
  without.

    python3 bench/selftest.py [--seed N]

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import shutil
import sys

from run import OUT, import_workloads


def digests(ops) -> list[str]:
    return [op.check(op.run())[0] for op in ops]


def files(workdir) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    workloads, _ = import_workloads()
    from spans import Tracer

    failures = 0

    def check(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    for name, setup in workloads.WORKLOADS.items():
        dirs = [OUT / f"selftest-{name}-{i}" for i in range(3)]
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
        first = setup(args.seed, dirs[0])
        second = setup(args.seed, dirs[1])
        setup(args.seed + 1, dirs[2])
        same, other = files(dirs[0]), files(dirs[1])
        check(same == other, f"{name}: seed {args.seed} twice gives byte-identical .qn files")
        generated = [f for f in same if f != "medical.qn"]
        check(all(same[f] != files(dirs[2]).get(f) for f in generated),
              f"{name}: seed {args.seed + 1} gives different .qn files")
        plain = digests(first)
        check(plain == digests(second), f"{name}: seed {args.seed} twice gives identical output digests")
        tracer = Tracer()
        tracer.install()
        try:
            traced = digests(first)
        finally:
            tracer.uninstall()
        check(plain == traced, f"{name}: traced and untraced outputs are identical ({len(tracer.start)} spans)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
