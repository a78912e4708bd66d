"""The README's examples run as documented."""

import contextlib
import io
import re
from pathlib import Path

from qcnet.cli import run_command

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    code = library_block()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    first, *table = out.getvalue().rstrip("\n").splitlines()
    # the documented value of the first print
    assert first == re.search(r"print\(report\.changes\[\"c\"\]\)\s+# (.*)", code).group(1)
    assert table[0] == "variable\tpredicted\tobserved\tverdict"
    assert table[-1].startswith("# trials=1000 completed=1000")


def test_propagate_table_matches_the_command():
    section = README.read_text().split("`propagate` prints one row per variable", 1)[1]
    table = re.search(r"```text\n(.*?)```", section, re.S).group(1)
    status, out = run_command(["propagate", str(ROOT / "samples" / "medical.qn"), "--evidence", "s=+"])
    assert status == 0
    assert [line.split() for line in table.splitlines()] == [line.split() for line in out.splitlines()]
