"""Command line behaviour: output tables, exit codes, determinism."""

import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SAMPLES
from qcnet import cli
from qcnet.cli import run_command

MEDICAL = str(SAMPLES / "medical.qn")

EXPECTED_PROPAGATE = (
    "variable\tformalism\td_x\td_not_x\n"
    "a\tprob\t+\t-\n"
    "d\tprob\t0\t0\n"
    "k\tprob\t0\t0\n"
    "l\tposs\t0\t0\n"
    "p\tbel\t+0\t-0\n"
    "s\tprob\t+\t-\n"
    "t\tprob\t0\t0\n"
    "v\tprob\t-\t+\n"
)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.qn"
    path.write_text("node a prob\nlink a -> ghost\n")
    return str(path)


@pytest.fixture
def cyclic_file(tmp_path):
    path = tmp_path / "cycle.qn"
    path.write_text(
        "node a prob\nnode c prob\n"
        "link a -> c\ncond c | a = 0.8\ncond c | ~a = 0.2\n"
        "link c -> a\ncond a | c = 0.7\ncond a | ~c = 0.1\n"
    )
    return str(path)


class TestValidateCommand:
    def test_valid_file(self):
        status, out = run_command(["validate", MEDICAL])
        assert status == 0
        assert out == "ok\n"

    def test_parse_diagnostics_fail(self, bad_file):
        status, out = run_command(["validate", bad_file])
        assert status == 1
        assert "ghost" in out and "line 2" in out

    def test_structural_error(self, cyclic_file):
        status, out = run_command(["validate", cyclic_file])
        assert status == 1
        assert "cycle" in out

    def test_missing_file(self):
        status, out = run_command(["validate", "no-such-file.qn"])
        assert status == 1
        assert "no-such-file.qn" in out


class TestPropagateCommand:
    def test_medical_evidence(self):
        status, out = run_command(["propagate", MEDICAL, "--evidence", "s=+"])
        assert status == 0
        assert out == EXPECTED_PROPAGATE

    def test_no_evidence_all_zero(self):
        status, out = run_command(["propagate", MEDICAL])
        assert status == 0
        for line in out.splitlines()[1:]:
            assert line.endswith("\t0\t0")

    def test_negative_outcome_assignment(self):
        status, out = run_command(["propagate", MEDICAL, "--evidence", "s=+,s:neg=-"])
        assert status == 0
        assert out == EXPECTED_PROPAGATE

    def test_bad_sign_token(self):
        status, out = run_command(["propagate", MEDICAL, "--evidence", "s=up"])
        assert status == 2
        assert "usage error" in out

    def test_unknown_variable(self):
        status, out = run_command(["propagate", MEDICAL, "--evidence", "zz=+"])
        assert status == 1
        assert "zz" in out

    def test_inconsistent_explicit_negative(self):
        status, out = run_command(["propagate", MEDICAL, "--evidence", "s=+,s:neg=+"])
        assert status == 1
        assert "conflicts" in out

    def test_determinism(self):
        first = run_command(["propagate", MEDICAL, "--evidence", "s=+,t=-"])
        second = run_command(["propagate", MEDICAL, "--evidence", "s=+,t=-"])
        assert first == second


class TestExplainCommand:
    def test_reference_signs(self):
        status, out = run_command(["explain", MEDICAL])
        assert status == 0
        rows = {tuple(line.split("\t")[:3]): line.split("\t")[3] for line in out.splitlines()[1:]}
        assert rows[("s -> v", "v", "s")] == "-"
        assert rows[("s -> v", "v", "~s")] == "+"
        assert rows[("d & s -> a", "a", "s")] == "+"
        assert rows[("d & s -> a", "a", "~s")] == "-"
        assert rows[("k & a -> p", "p", "a")] == "+"
        assert rows[("k & a -> p", "p", "~a")] == "0"
        assert rows[("k & a -> p", "~p", "a")] == "-"
        assert rows[("k & a -> p", "~p", "~a")] == "+"
        for parent in ("v", "~v"):
            for child in ("l", "~l"):
                assert rows[("v -> l", child, parent)] == "0"


class TestExplainMarkers:
    def test_marker_tokens_rendered(self, tmp_path):
        path = tmp_path / "poss.qn"
        path.write_text(
            "node a poss\nnode c poss\nprior a 0.5 1\nlink a -> c\n"
            "cond c | a = 0.8\ncond c | ~a = 0.6\ncond ~c | a = 1\ncond ~c | ~a = 1\n"
        )
        status, out = run_command(["explain", str(path)])
        assert status == 0
        rows = {tuple(line.split("\t")[:3]): line.split("\t")[3:] for line in out.splitlines()[1:]}
        assert rows[("a -> c", "c", "a")] == ["^", "may-follow-up"]
        # the complement outcome sits at 1 and dominates, so it can only fall
        assert rows[("a -> c", "~c", "~a")] == ["v", "may-follow-down"]


class TestVerifyCommand:
    def test_medical_probability_segment(self):
        status, out = run_command(
            ["verify", MEDICAL, "--evidence", "s=+", "--trials", "50", "--seed", "7"]
        )
        assert status == 0
        lines = out.splitlines()
        verdicts = {line.split("\t")[0]: line.split("\t")[-1] for line in lines if "\t" in line}
        assert verdicts["a"] == "PASS"
        assert verdicts["v"] == "PASS"
        assert verdicts["s"] == "PASS"

    def test_requires_directional_evidence(self):
        status, out = run_command(["verify", MEDICAL, "--evidence", "s=?"])
        assert status == 2
        assert "directional" in out

    def test_requires_evidence_flag(self):
        status, out = run_command(["verify", MEDICAL])
        assert status == 2

    def test_determinism(self):
        args = ["verify", MEDICAL, "--evidence", "s=-", "--trials", "25", "--seed", "3"]
        assert run_command(args) == run_command(args)

    def test_multiple_evidence_variables_check_independently(self):
        status, out = run_command(
            ["verify", MEDICAL, "--evidence", "s=+,t=+", "--trials", "20", "--seed", "1"]
        )
        assert status == 0
        assert "# target=s direction=increase" in out
        assert "# target=t direction=increase" in out

    def test_deep_chain(self, tmp_path):
        lines = ["node x0 prob"]
        for i in range(1, 2000):
            lines += [
                f"node x{i} prob",
                f"link x{i - 1} -> x{i}",
                f"cond x{i} | x{i - 1} = 0.8",
                f"cond x{i} | ~x{i - 1} = 0.2",
            ]
        path = tmp_path / "chain.qn"
        path.write_text("\n".join(lines) + "\n")
        status, out = run_command(["verify", str(path), "--evidence", "x0=+", "--trials", "2"])
        # the chain's far end reads 0 where + is predicted (a known false
        # FAIL of the fixed perturbation size), so either status is a result
        assert status in (0, 1)
        out_lines = out.splitlines()
        assert out_lines[:2] == ["# target=x0 direction=increase", "variable\tpredicted\tobserved\tverdict"]
        assert len(out_lines) == 2 + 2000 + 1
        assert out_lines[-1] == "# trials=2 completed=2 resampled=0 skipped=0"


class TestReplCommand:
    def test_single_query_matches_propagate(self):
        status, out = run_command(["repl", MEDICAL], stdin=io.StringIO("s=+\n"))
        assert status == 0
        assert out == EXPECTED_PROPAGATE

    def test_state_resets_between_queries(self):
        stdin = io.StringIO("s=+\nt=+\n")
        _, out = run_command(["repl", MEDICAL], stdin=stdin)
        tables = out.split("variable\tformalism\td_x\td_not_x\n")
        assert len(tables) == 3  # leading empty chunk + two tables
        # second query does not remember the first
        assert "s\tprob\t0\t0" in tables[2]
        assert "k\tprob\t+\t-" in tables[2]

    def test_hold_composes_queries(self):
        stdin = io.StringIO("hold\ns=+\nt=+\n")
        _, out = run_command(["repl", MEDICAL], stdin=stdin)
        tables = out.split("variable\tformalism\td_x\td_not_x\n")
        assert "s\tprob\t+\t-" in tables[2]
        assert "k\tprob\t+\t-" in tables[2]

    def test_reset_clears_held_state(self):
        stdin = io.StringIO("hold\ns=+\nreset\nt=+\n")
        _, out = run_command(["repl", MEDICAL], stdin=stdin)
        tables = out.split("variable\tformalism\td_x\td_not_x\n")
        assert "s\tprob\t0\t0" in tables[2]

    def test_bad_line_reports_and_continues(self):
        stdin = io.StringIO("nonsense\ns=+\n")
        status, out = run_command(["repl", MEDICAL], stdin=stdin)
        assert status == 0
        assert out.startswith("error:")
        assert EXPECTED_PROPAGATE in out

    def test_quit_stops_reading(self):
        stdin = io.StringIO("quit\ns=+\n")
        _, out = run_command(["repl", MEDICAL], stdin=stdin)
        assert out == ""


class TestUsage:
    def test_unknown_subcommand(self):
        status, out = run_command(["frobnicate"])
        assert status == 2
        assert "usage error" in out

    def test_no_arguments(self):
        status, _ = run_command([])
        assert status == 2


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["qcnet", "qcnet.cli"])
    def test_python_dash_m(self, module):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", module, "validate", MEDICAL],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


class TestUnreadableInput:
    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "latin1.qn"
        path.write_bytes("node a prob\n# café\n".encode("latin-1"))
        for command in ("validate", "explain", "propagate", "repl"):
            status, out = run_command([command, str(path)], stdin=io.StringIO(""))
            assert status == 1
            assert out == f"error: cannot read {str(path)!r}: not UTF-8 text (byte 17)\n"

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--trials", "0", "trials must be positive"),
            ("--trials", "-3", "trials must be positive"),
            ("--epsilon", "0", "epsilon must be positive"),
            ("--epsilon", "-0.001", "epsilon must be positive"),
            ("--epsilon", "nan", "epsilon must be finite"),
            ("--epsilon", "inf", "epsilon must be finite"),
            # argparse would take these for options if they were not
            # attached to theirs before parsing
            ("--epsilon", "-1e-3", "epsilon must be positive"),
            ("--epsilon", "-inf", "epsilon must be finite"),
            ("--seed", "-1e3", "argument --seed: invalid int value: '-1e3'"),
        ],
    )
    def test_verify_values_out_of_range(self, option, value, message):
        status, out = run_command(["verify", MEDICAL, "--evidence", "s=+", option, value])
        assert (status, out) == (2, f"usage error: {message}\n")

    def test_arguments_after_double_dash_left_alone(self):
        argv = ["verify", MEDICAL, "--evidence", "s=+", "--", "--seed", "-1"]
        assert cli._attach_negative_values(argv) == argv

    def test_option_after_numeric_option_is_not_its_value(self):
        status, out = run_command(["verify", MEDICAL, "--evidence", "s=+", "--epsilon", "--seed", "3"])
        assert (status, out) == (2, "usage error: argument --epsilon: expected one argument\n")


class TestParserReuse:
    ARGVS = [
        ["verify", MEDICAL, "--evidence", "s=+", "--trials", "5", "--seed", "3", "--epsilon", "0.01"],
        ["propagate", MEDICAL, "--evidence", "s=+"],
        ["verify", MEDICAL],
        ["propagate", MEDICAL],
        ["repl", MEDICAL],
        ["validate", MEDICAL, "--evidence", "s=+"],
        ["verify", MEDICAL, "--evidence", "s=-"],
        ["validate", MEDICAL],
        ["frobnicate"],
    ]

    def test_parser_is_built_once(self):
        run_command(["validate", MEDICAL])
        assert cli._build_parser() is cli._build_parser()

    def test_reused_parser_matches_fresh_parsers(self):
        parser = cli._build_parser()
        for argv in self.ARGVS + self.ARGVS[::-1]:
            fresh = cli._build_parser.__wrapped__()
            try:
                expected = vars(fresh.parse_args(argv))
            except cli._UsageError as exc:
                with pytest.raises(cli._UsageError, match=re.escape(str(exc))):
                    parser.parse_args(argv)
            else:
                assert vars(parser.parse_args(argv)) == expected

    def test_defaults_survive_earlier_options(self):
        assert run_command(["propagate", MEDICAL, "--evidence", "s=+"]) == (0, EXPECTED_PROPAGATE)
        status, out = run_command(["propagate", MEDICAL])
        assert status == 0 and all(row.endswith("\t0\t0") for row in out.splitlines()[1:])
