"""Crash fuzz: mutated network files never crash the library or the CLI.

Each example takes the sample network or a test file and deletes,
duplicates or swaps lines and tokens, or replaces a number.  Loading must
give either a network or diagnostics; ``validate``, ``explain`` and
``propagate`` (with random evidence) may raise nothing but ``NetworkError``;
and every CLI command must return exit status 0, 1 or 2.
"""

import io
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qcnet.cli import run_command
from qcnet.netfile import Diagnostic, load_network
from qcnet.network import Network, NetworkError, explain, propagate, validate
from qcnet.signs import NEG, POS, UNKNOWN, ZERO

ROOT = Path(__file__).resolve().parent.parent
SOURCES = tuple(
    path.read_text() for path in (ROOT / "samples" / "medical.qn", *sorted((ROOT / "tests" / "data").glob("*.qn")))
)
NUMBER = re.compile(r"\d+(?:\.\d*)?(?:e-?\d+)?")
ODD_NUMBERS = ("0", "1", "2", "-0.5", "1.0000001", "1e-300", "nan", "inf", "0.", "00.5", "1e400")
SIGNS = {"+": POS, "-": NEG, "0": ZERO, "?": UNKNOWN}


@st.composite
def mutated_texts(draw):
    """A source file after one to four line, token or number mutations."""
    lines = draw(st.sampled_from(SOURCES)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("delete", "duplicate", "swap", "token", "number")))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(j, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "number":
            numbers = list(NUMBER.finditer(lines[i]))
            if numbers:
                m = draw(st.sampled_from(numbers))
                lines[i] = lines[i][: m.start()] + draw(st.sampled_from(ODD_NUMBERS)) + lines[i][m.end():]
        else:
            tokens = lines[i].split()
            if tokens:
                k, n = draw(st.integers(0, len(tokens) - 1)), draw(st.integers(0, len(tokens) - 1))
                token_op = draw(st.sampled_from(("delete", "duplicate", "swap")))
                if token_op == "delete":
                    del tokens[k]
                elif token_op == "duplicate":
                    tokens.insert(n, tokens[k])
                else:
                    tokens[k], tokens[n] = tokens[n], tokens[k]
                lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def names_in(text: str) -> list[str]:
    """The words a mutated file declares as nodes, and one it does not."""
    declared = {line.split()[1] for line in text.splitlines() if line.startswith("node ") and len(line.split()) > 1}
    return sorted(declared) + ["zz"]


@st.composite
def texts_and_evidence(draw):
    text = draw(mutated_texts())
    names = st.sampled_from(names_in(text))
    evidence = draw(st.dictionaries(names, st.sampled_from(sorted(SIGNS)), min_size=1, max_size=2))
    return text, evidence


@settings(max_examples=500, deadline=None)
@given(texts_and_evidence())
def test_library_raises_only_network_errors(text_evidence):
    text, evidence = text_evidence
    net, diagnostics = load_network(text)
    if net is None:
        assert diagnostics and all(isinstance(d, Diagnostic) for d in diagnostics)
        return
    assert isinstance(net, Network) and diagnostics == ()
    validate(net)
    for query in (lambda: explain(net), lambda: propagate(net, {n: SIGNS[s] for n, s in evidence.items()})):
        try:
            query()
        except NetworkError:
            pass


COMMANDS = ("validate", "explain", "propagate", "verify", "repl")


@settings(max_examples=300, deadline=None)
@given(texts_and_evidence(), st.sampled_from(COMMANDS))
def test_cli_exits_with_a_known_status(text_evidence, command):
    text, evidence = text_evidence
    spec = ",".join(f"{n}={s}" for n, s in evidence.items())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.qn"
        path.write_text(text)
        argv = [command, str(path)]
        if command in ("propagate", "verify"):
            argv += ["--evidence", spec]
        if command == "verify":
            argv += ["--trials", "3"]
        status, _ = run_command(argv, io.StringIO(spec.replace(",", "\n") + "\nhold\nreset\n"))
    assert status in (0, 1, 2)
