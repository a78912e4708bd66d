"""Start-up cost: importing the command line builds its records without
the dataclass machinery, so neither ``dataclasses`` nor ``inspect`` is
imported (the standard modules qcnet uses import neither)."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_the_cli_imports_neither_dataclasses_nor_inspect():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qcnet.cli\n"
        "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))\n"
    )
    path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == ""
