"""Network file parsing, building and serialization."""

import math
import re
from collections import Counter
from itertools import product

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from qcnet import links as lc
from qcnet import netfile
from qcnet.links import BelCond2Joint, BelCond2Separate, PossCond1, ProbCond1, ProbCond2
from qcnet.netfile import (
    FRAME_OUT,
    NEG_OUT,
    POS_OUT,
    CondDecl,
    Diagnostic,
    LinkDecl,
    NetworkDocument,
    NodeDecl,
    Outcome,
    ParseResult,
    PriorDecl,
    build_network,
    load_network,
    parse_network,
    serialize_document,
)
from qcnet.network import BEL, POSS, PROB, Link, Network, Variable


class TestParse:
    def test_medical_file(self, medical_text):
        result = parse_network(medical_text)
        assert result.ok
        doc = result.document
        assert len(doc.nodes) == 8
        assert len(doc.links) == 5
        assert len(doc.conds) == 19

    def test_empty_file(self):
        result = parse_network("")
        assert result.ok
        assert result.document.nodes == ()

    def test_comments_and_blanks_ignored(self):
        result = parse_network("# hello\n\nnode a prob  # trailing\n")
        assert result.ok
        assert len(result.document.nodes) == 1

    def test_link_with_undeclared_variable(self):
        result = parse_network("node a prob\nlink a -> ghost\n")
        assert not result.ok
        (diag,) = result.diagnostics
        assert diag.line == 2
        assert "ghost" in diag.message

    def test_unknown_formalism(self):
        result = parse_network("node a fuzzy\n")
        assert any("unknown formalism" in d.message for d in result.diagnostics)

    def test_duplicate_variable(self):
        result = parse_network("node a prob\nnode a bel\n")
        assert any("duplicate variable" in d.message for d in result.diagnostics)

    def test_unknown_directive(self):
        result = parse_network("nodes a prob\n")
        (diag,) = result.diagnostics
        assert "unknown directive" in diag.message

    def test_malformed_cond(self):
        result = parse_network("node a prob\nnode c prob\nlink a -> c\ncond c a = 0.5\n")
        assert any("expected: cond" in d.message for d in result.diagnostics)

    def test_cond_value_not_number(self):
        result = parse_network("node a prob\nnode c prob\nlink a -> c\ncond c | a = high\n")
        assert any("must be a number" in d.message for d in result.diagnostics)

    def test_cond_undeclared_outcome(self):
        result = parse_network("node a prob\nnode c prob\nlink a -> c\ncond c | q = 0.5\n")
        assert any("undeclared variable 'q'" in d.message for d in result.diagnostics)

    def test_prior_errors(self):
        result = parse_network("prior ghost 0.5 0.5\n")
        assert any("undeclared" in d.message for d in result.diagnostics)
        result = parse_network("node a prob\nprior a 0.5 0.5\nprior a 0.4 0.6\n")
        assert any("duplicate prior" in d.message for d in result.diagnostics)

    def test_never_raises_on_noise(self):
        noise = "link ->\ncond |=\nnode\nprior x\n@@@\nlink a & b & c -> d\n"
        result = parse_network(noise)
        assert not result.ok  # diagnostics, not exceptions

    def test_frame_child_outcome_rejected(self):
        text = "node a bel\nnode c bel\nlink a -> c\ncond c|~c | a = 0.5\n"
        result = parse_network(text)
        assert any("cannot be a frame" in d.message for d in result.diagnostics)

    def test_separate_needs_two_parents(self):
        text = "node a bel\nnode c bel\nlink a -> c separate\n"
        result = parse_network(text)
        assert any("two-parent" in d.message for d in result.diagnostics)

    def test_second_link_into_same_child(self):
        text = "node a prob\nnode b prob\nnode c prob\nlink a -> c\nlink b -> c\n"
        result = parse_network(text)
        assert any("already has a link" in d.message for d in result.diagnostics)

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("cond o | c = 0.5\n", 1, 6),  # not the 'o' of 'cond'
            ("node c prob\nlink ac -> c\n", 2, 6),
            ("node ac prob\nlink ac -> c\n", 2, 12),  # not the 'c' of 'ac'
            ("prior r 0.5 0.5\n", 1, 7),  # not the 'r' of 'prior'
            ("node d prob\nnode d bel\n", 2, 6),  # not the 'd' of 'node'
            ("node o fuzzy\n", 1, 8),
            ("node separate_x bel\nnode c bel\nlink separate_x -> c separate\n", 3, 22),
            ("node aq prob\nnode c prob\nlink aq -> c\ncond c | aq, q = 0.5\n", 4, 14),  # not the 'q' of 'aq'
            ("node a prob\nnode c prob\nlink a -> c\n\tcond c | ~a = a # a\n", 4, 16),
            ("node a prob\nnode c prob\nlink a -> c\nlink a -> c\n", 4, 11),
        ],
    )
    def test_columns_point_at_the_offending_token(self, text, line, column):
        (diag,) = parse_network(text).diagnostics
        assert (diag.line, diag.column) == (line, column)

    def test_indented_lines_parse_like_unindented_ones(self, medical_text):
        indents = ("  ", "\t", " \t ")
        indented = "\n".join(indents[i % 3] + line for i, line in enumerate(medical_text.splitlines()))
        flat = parse_network(medical_text)
        result = parse_network(indented)
        assert result.ok
        assert result.document == flat.document
        one = parse_network("node a prob\nnode c prob\n  link a -> c\n\tcond c | a = 0.5\n")
        assert one.ok and one.document.links[0].parents == ("a",) and one.document.conds[0].value == 0.5


class TestBuild:
    def test_medical_tables(self, medical_text):
        net, diags = load_network(medical_text)
        assert net is not None and not diags
        assert isinstance(net.link_of["k"].table, ProbCond1)
        assert isinstance(net.link_of["a"].table, ProbCond2)
        assert isinstance(net.link_of["p"].table, BelCond2Joint)
        assert isinstance(net.link_of["l"].table, PossCond1)
        assert net.variables["p"].formalism is BEL
        assert net.variables["l"].formalism is POSS
        # unlisted belief conditionals default to zero
        assert net.link_of["p"].table.get(False, True, True) == 0.0

    def test_missing_probability_conditional(self):
        text = "node a prob\nnode c prob\nlink a -> c\ncond c | a = 0.6\n"
        net, diags = load_network(text)
        assert net is None
        assert any("missing probability conditional" in d.message for d in diags)

    def test_explicit_complement_consistent(self):
        text = (
            "node a prob\nnode c prob\nlink a -> c\n"
            "cond c | a = 0.6\ncond ~c | a = 0.4\ncond c | ~a = 0.2\n"
        )
        net, diags = load_network(text)
        assert net is not None
        assert net.link_of["c"].table == ProbCond1(0.6, 0.2)

    def test_explicit_complement_only(self):
        text = "node a prob\nnode c prob\nlink a -> c\ncond ~c | a = 0.4\ncond ~c | ~a = 0.8\n"
        net, _ = load_network(text)
        table = net.link_of["c"].table
        assert table.p_c_given_a == pytest.approx(0.6)
        assert table.p_c_given_na == pytest.approx(0.2)

    def test_inconsistent_complement(self):
        text = (
            "node a prob\nnode c prob\nlink a -> c\n"
            "cond c | a = 0.6\ncond ~c | a = 0.5\ncond c | ~a = 0.2\n"
        )
        net, diags = load_network(text)
        assert net is None
        assert any("do not sum to 1" in d.message for d in diags)

    def test_frame_on_probability_link(self):
        text = "node a prob\nnode c prob\nlink a -> c\ncond c | a|~a = 0.6\n"
        net, diags = load_network(text)
        assert net is None
        assert any("only meaningful for belief" in d.message for d in diags)

    def test_separate_on_probability_link(self):
        text = (
            "node a prob\nnode b prob\nnode c prob\nlink a & b -> c separate\n"
            "cond c | a = 0.6\n"
        )
        net, diags = load_network(text)
        assert net is None
        assert any("only defined for belief" in d.message for d in diags)

    def test_separate_belief_tables(self):
        text = (
            "node b bel\nnode c bel\nnode d bel\n"
            "link b & c -> d separate\n"
            "cond d | b = 0.7\ncond d | b|~b = 0.2\ncond d | c = 0.4\n"
        )
        net, diags = load_network(text)
        assert net is not None, diags
        table = net.link_of["d"].table
        assert isinstance(table, BelCond2Separate)
        assert table.for_first.bel_c_given_a == 0.7
        assert table.for_first.bel_c_given_frame == 0.2
        assert table.for_second.bel_c_given_a == 0.4

    def test_missing_possibility_conditional(self):
        text = "node a poss\nnode c poss\nprior a 1 0.4\nlink a -> c\ncond c | a = 0.6\n"
        net, diags = load_network(text)
        assert net is None
        assert [d.message for d in diags] == ["missing possibility conditional c given ~a for 'c'"]
        text = (
            "node a poss\nnode b poss\nnode c poss\nprior a 1 0.4\nprior b 0.3 1\nlink a & b -> c\n"
            "cond c | a, b = 1\ncond c | a, ~b = 1\ncond c | ~a, b = 1\ncond c | ~a, ~b = 1\ncond ~c | a, b = 1\n"
        )
        net, diags = load_network(text)
        assert [d.message for d in diags] == ["missing possibility conditional ~c given a, ~b for 'c'"]

    def test_hand_built_document_with_listed_parents(self):
        a, c = Outcome("a", POS_OUT), Outcome("c", POS_OUT)
        doc = NetworkDocument(
            (NodeDecl("a", "prob"), NodeDecl("c", "prob")),
            (),
            (LinkDecl(["a"], "c"),),
            (CondDecl(c, (a,), 0.6), CondDecl(c, (Outcome("a", NEG_OUT),), 0.2)),
        )
        net, diags = build_network(doc)
        assert diags == () and net.link_of["c"].table == ProbCond1(0.6, 0.2)

    def test_conditional_without_link(self):
        text = "node a prob\nnode c prob\ncond c | a = 0.6\n"
        net, diags = load_network(text)
        assert any("no link into it" in d.message for d in diags)

    def test_out_of_order_parent_outcomes(self):
        text = (
            "node b prob\nnode c prob\nnode d prob\nlink b & c -> d\n"
            "cond d | c, b = 0.6\n"
        )
        net, diags = load_network(text)
        assert net is None
        assert any("link parent order" in d.message for d in diags)

    def test_second_parent_out_of_order(self):
        text = "node a prob\nnode b prob\nnode c prob\nnode d prob\nlink b & c -> d\ncond d | b, a = 0.6\n"
        net, diags = load_network(text)
        assert net is None
        assert diags[0] == Diagnostic(6, 1, "conditioning outcomes must follow link parent order (b, c)")

    def test_duplicate_assignment(self):
        text = "node a prob\nnode c prob\nlink a -> c\ncond c | a = 0.6\ncond c | a = 0.7\n"
        net, diags = load_network(text)
        assert any("duplicate conditional" in d.message for d in diags)

    def test_out_of_range_value(self):
        text = "node a prob\nnode c prob\nlink a -> c\ncond c | a = 1.5\ncond c | ~a = 0.2\n"
        net, diags = load_network(text)
        assert any("outside [0, 1]" in d.message for d in diags)

    def test_superadditive_belief_cells(self):
        text = (
            "node a bel\nnode c bel\nlink a -> c\n"
            "cond c | a = 0.7\ncond ~c | a = 0.5\n"
        )
        net, diags = load_network(text)
        assert net is None
        assert any("must not exceed 1" in d.message for d in diags)


class TestLinkAndCondDiagnostics:
    BEL_NODES = "node a bel\nnode b bel\nnode c bel\nnode x bel\n"

    @pytest.mark.parametrize(
        "text, diagnostic",
        [
            (
                "node a prob\nnode c prob\nlink a c\n",
                Diagnostic(3, 1, "expected: link PARENT [& PARENT] -> CHILD [separate]"),
            ),
            (
                "node a prob\nnode b prob\nnode c prob\nnode d prob\nlink a & b & c -> d\n",
                Diagnostic(5, 1, "a link takes one or two parents"),
            ),
        ],
        ids=["no-arrow", "three-parents"],
    )
    def test_parse(self, text, diagnostic):
        assert parse_network(text).diagnostics == (diagnostic,)
        assert load_network(text) == (None, (diagnostic,))

    @pytest.mark.parametrize(
        "lines, diagnostic",
        [
            (
                "link a & b -> c separate\ncond c | a, b = 0.5\n",
                Diagnostic(6, 1, "per-parent tables take one conditioning outcome per line"),
            ),
            (
                "link a & b -> c separate\ncond c | x = 0.5\n",
                Diagnostic(6, 1, "outcome of 'x' does not name a parent of 'c'"),
            ),
            ("link a & b -> c\ncond c | a = 0.5\n", Diagnostic(6, 1, "expected 2 conditioning outcomes for 'c'")),
        ],
        ids=["separate-two-outcomes", "separate-non-parent", "joint-one-outcome"],
    )
    def test_build(self, lines, diagnostic):
        text = self.BEL_NODES + lines
        assert parse_network(text).diagnostics == ()
        assert load_network(text) == (None, (diagnostic,))


class TestRecords:
    """What the declaration records promise: immutable values that compare
    and hash by everything but their line, and print as before."""

    LINED = (
        (NodeDecl("a", "prob", 3), NodeDecl("a", "prob", 9), NodeDecl("a", "bel", 3)),
        (PriorDecl("a", 0.5, 0.5, 3), PriorDecl("a", 0.5, 0.5), PriorDecl("a", 0.5, 0.25, 3)),
        (LinkDecl(("a",), "c", False, 3), LinkDecl(("a",), "c"), LinkDecl(("a",), "c", True, 3)),
        (
            CondDecl(Outcome("c", POS_OUT), (Outcome("a", NEG_OUT),), 0.5, 3),
            CondDecl(Outcome("c", POS_OUT), (Outcome("a", NEG_OUT),), 0.5, 4),
            CondDecl(Outcome("c", NEG_OUT), (Outcome("a", NEG_OUT),), 0.5, 3),
        ),
    )

    def test_equality_and_hash_ignore_the_line(self):
        for rec, other_line, different in self.LINED:
            assert rec == other_line and not rec != other_line
            assert hash(rec) == hash(other_line)
            assert rec != different and not rec == different
            assert len({rec, other_line, different}) == 2
        assert Diagnostic(1, 2, "m") == Diagnostic(1, 2, "m")
        assert hash(Diagnostic(1, 2, "m")) == hash(Diagnostic(1, 2, "m"))
        assert Diagnostic(1, 2, "m") != Diagnostic(2, 2, "m")  # a diagnostic's line is part of it
        assert Outcome("a", POS_OUT) == Outcome("a", POS_OUT) != Outcome("a", NEG_OUT)

    def test_never_equal_to_a_plain_tuple_or_another_record(self):
        a, c = Outcome("a", NEG_OUT), Outcome("c", POS_OUT)
        with_fields = (
            (NodeDecl("a", "prob", 3), ("a", "prob", 3)),
            (PriorDecl("a", 0.5, 0.5, 3), ("a", 0.5, 0.5, 3)),
            (LinkDecl(("a",), "c", False, 3), (("a",), "c", False, 3)),
            (CondDecl(c, (a,), 0.5, 3), (c, (a,), 0.5, 3)),
            (Diagnostic(1, 2, "m"), (1, 2, "m")),
            (Outcome("a", POS_OUT), ("a", POS_OUT)),
        )
        for rec, fields in with_fields:
            for plain in (fields, fields[:-1]):
                assert rec != plain and plain != rec
                assert not rec == plain and not plain == rec
        assert Outcome("a", "prob") != NodeDecl("a", "prob")
        assert NodeDecl("a", "prob") != Outcome("a", "prob")

    def test_immutable(self):
        for rec in (*(lined[0] for lined in self.LINED), Diagnostic(1, 2, "m"), Outcome("a", POS_OUT)):
            with pytest.raises(AttributeError):
                rec.line = 7
            with pytest.raises(AttributeError):
                rec.extra = 7

    def test_repr_and_str(self):
        cond = CondDecl(Outcome("c", POS_OUT), (Outcome("a", NEG_OUT), Outcome("b", FRAME_OUT)), 0.5, 4)
        assert repr(cond) == (
            "CondDecl(child=Outcome(var='c', kind='pos'), "
            "parents=(Outcome(var='a', kind='neg'), Outcome(var='b', kind='frame')), value=0.5, line=4)"
        )
        assert repr(NodeDecl("a", "prob", 1)) == "NodeDecl(name='a', formalism='prob', line=1)"
        assert repr(PriorDecl("a", 0.5, 0.5)) == "PriorDecl(name='a', value_x=0.5, value_nx=0.5, line=0)"
        assert repr(LinkDecl(("a", "b"), "c", True, 2)) == (
            "LinkDecl(parents=('a', 'b'), child='c', separate=True, line=2)"
        )
        assert repr(Diagnostic(3, 5, "bad")) == "Diagnostic(line=3, column=5, message='bad')"
        assert str(Diagnostic(3, 5, "bad")) == "line 3, col 5: bad"

    def test_keywords_and_defaults(self):
        assert Diagnostic(line=1, column=2, message="m") == Diagnostic(1, 2, "m")
        assert LinkDecl(("a",), "c").separate is False and LinkDecl(("a",), "c").line == 0
        assert NodeDecl(name="a", formalism="prob").line == 0


class TestParsedRecords:
    """``parse_network`` builds its records from their fields directly; they
    are the records the constructors build."""

    def test_equal_hash_and_repr_as_constructed(self, medical_text):
        text = medical_text + "node z bel\nprior z 0.2 0.3\nlink t & s -> z separate\n"
        doc = parse_network(text).document
        records = (*doc.nodes, *doc.priors, *doc.links, *doc.conds)
        assert {type(r) for r in records} == {NodeDecl, PriorDecl, LinkDecl, CondDecl}
        for rec in records:
            built = type(rec)(*rec)
            assert type(built) is type(rec)
            assert built == rec and not built != rec
            assert hash(built) == hash(rec)
            assert repr(built) == repr(rec)
            assert built.line == rec.line > 0
            with pytest.raises(AttributeError):
                rec.line = 0

    def test_link_of_three_parents_in_a_hand_built_document(self):
        a, b, c, d = (Outcome(v, POS_OUT) for v in "abcd")
        doc = NetworkDocument(
            tuple(NodeDecl(v, "prob") for v in "abcd"),
            (),
            (LinkDecl(("a", "b", "c"), "d", False, 7),),
            (CondDecl(d, (a, b, c), 0.5, 8),),
        )
        assert build_network(doc) == (None, (Diagnostic(7, 1, "a link takes one or two parents"),))

    @pytest.mark.parametrize(
        "doc, text, message",
        [
            (
                NetworkDocument((NodeDecl("a", "prob", 1), NodeDecl("b", "xx", 2))),
                "node a prob\nnode b xx\n",
                "unknown formalism 'xx'",
            ),
            (
                NetworkDocument((NodeDecl("a", "prob", 1),), links=(LinkDecl(("a",), "c", False, 2),)),
                "node a prob\nlink a -> c\n",
                "link references undeclared variable 'c'",
            ),
            (
                NetworkDocument((NodeDecl("a", "prob", 1),), priors=(PriorDecl("b", 0.5, 0.5, 2),)),
                "node a prob\nprior b 0.5 0.5\n",
                "prior for undeclared variable 'b'",
            ),
        ],
        ids=["unknown-formalism", "undeclared-child", "undeclared-prior"],
    )
    def test_hand_built_document_gets_the_parse_diagnostic(self, doc, text, message):
        assert build_network(doc) == (None, (Diagnostic(2, 1, message),))
        assert [(d.line, d.message) for d in parse_network(text).diagnostics] == [(2, message)]


# today's pattern for the conditional lines, before the child group was
# reordered to scan a leading name once
FORMER_COND_RE = re.compile(
    r"\s*(?P<child>[A-Za-z_]\w*\|~[A-Za-z_]\w*|~?[A-Za-z_]\w*)\s*\|\s*(?P<parents>.+?)\s*=\s*(?P<value>\S+)$"
)
COND_ALPHABET = ("a", "_", "1", "~", "|", "=", ",", ".", "-", " ", "\t", "é", "٣")


@st.composite
def cond_bodies(draw):
    """Text after a 'cond' keyword: free text over the alphabet, or pieces of
    it around the '|' and '=' that a conditional line needs."""
    piece = st.text(alphabet=COND_ALPHABET, max_size=8)
    if draw(st.booleans()):
        return draw(st.text(alphabet=COND_ALPHABET, max_size=30))
    return draw(piece) + draw(st.sampled_from(("|", " | ", "|~", " |~"))) + draw(piece) + "=" + draw(piece)


class TestCondPattern:
    @settings(max_examples=2000, deadline=None)
    @given(cond_bodies(), st.sampled_from(("cond", "cond ", "cond\t", "")))
    def test_matches_as_the_former_pattern(self, body, head):
        line = head + body
        for pos in {0, min(4, len(line))}:
            new, old = netfile._COND_RE.match(line, pos), FORMER_COND_RE.match(line, pos)
            assert (new is None) == (old is None)
            if new is not None:
                assert new.groups() == old.groups()
                for group in ("child", "parents", "value"):
                    assert new.start(group) == old.start(group)

    def test_python_310_syntax(self):
        # no possessive quantifier or atomic group, which need Python 3.11
        assert not re.search(r"[*+?}]\+|\(\?>", netfile._COND_RE.pattern)


class TestRoundTrip:
    def test_medical_round_trip(self, medical_text):
        first = parse_network(medical_text)
        assert first.ok
        text2 = serialize_document(first.document)
        second = parse_network(text2)
        assert second.ok
        assert second.document == first.document

    def test_round_trip_with_priors_and_separate(self):
        text = (
            "node b bel\nnode c bel\nnode d bel\n"
            "prior b 0.3 0.2\n"
            "link b & c -> d separate\n"
            "cond d | b = 0.7\ncond d | b|~b = 0.25\ncond ~d | c = 0.1\n"
        )
        first = parse_network(text)
        assert first.ok
        text2 = serialize_document(first.document)
        second = parse_network(text2)
        assert second.document == first.document

    def test_empty_document_serializes_empty(self):
        assert serialize_document(parse_network("").document) == ""


# ---------------------------------------------------------------------------
# linear-time loading
# ---------------------------------------------------------------------------

def chain_text(n: int) -> str:
    """A probability chain x0 -> x1 -> ... with a full table per link."""
    lines = [f"node x{i} prob" for i in range(n)]
    for i in range(1, n):
        lines += [f"link x{i - 1} -> x{i}", f"cond x{i} | x{i - 1} = 0.6", f"cond x{i} | ~x{i - 1} = 0.3"]
    return "\n".join(lines) + "\n"


class TestLinearLoad:
    def test_one_shared_outcome_per_distinct_token(self, monkeypatch, medical_text):
        calls = Counter()
        parse_outcome = netfile._parse_outcome

        def counted(token, known):
            calls[token.strip()] += 1
            return parse_outcome(token, known)

        monkeypatch.setattr(netfile, "_parse_outcome", counted)
        for text in (chain_text(300), medical_text):
            calls.clear()
            result = parse_network(text)
            assert result.ok
            shared = {}
            for c in result.document.conds:
                for o in (c.child, *c.parents):
                    assert shared.setdefault(o.render(), o) is o
            # a token is parsed at most once, and the x and ~x that a node
            # line registers never are: here only the frames are parsed
            assert all(n == 1 for n in calls.values())
            assert set(calls) == {token for token, o in shared.items() if o.kind == FRAME_OUT}
        assert calls

    def test_one_shared_tuple_per_distinct_parent_text(self, monkeypatch, medical_text):
        calls = Counter()
        parse_parents = netfile._parse_parents

        def counted(text, known, outcomes):
            calls[text] += 1
            return parse_parents(text, known, outcomes)

        monkeypatch.setattr(netfile, "_parse_parents", counted)
        for text in (chain_text(300), medical_text):
            calls.clear()
            result = parse_network(text)
            assert result.ok
            # both files write parent outcomes separated by ", "
            texts = {", ".join(o.render() for o in c.parents) for c in result.document.conds}
            # a text is split at most once, and one registered token never is
            assert all(n == 1 for n in calls.values())
            assert set(calls) == {t for t in texts if "," in t or "|" in t}
            # conditionals that name the same text share one tuple
            assert len({id(c.parents) for c in result.document.conds}) == len(texts)
        assert calls

    def test_outcome_errors_are_not_remembered(self):
        # 'b' is undeclared at the first cond and declared before the second
        text = "node a prob\nnode c prob\nlink a -> c\ncond c | b = 0.5\nnode b prob\ncond c | b = 0.5\n"
        result = parse_network(text)
        (diag,) = result.diagnostics
        assert (diag.line, diag.message) == (4, "outcome references undeclared variable 'b'")
        (cond,) = result.document.conds
        assert cond.parents == (Outcome("b", POS_OUT),)

    def test_twenty_thousand_node_chain(self):
        n = 20_000
        net, diags = load_network(chain_text(n))
        assert net is not None and not diags
        assert len(net.links) == n - 1
        assert net.link_of[f"x{n - 1}"].table == ProbCond1(0.6, 0.3)


# ---------------------------------------------------------------------------
# generated documents
# ---------------------------------------------------------------------------

NAMES = ("a", "b", "c", "d", "e", "x_1")
VALUES = ("0", "1", "0.5", "0.25", "0.75", "0.2", "0.1", ".3", "1e-1", "1.0")
SMALL_VALUES = ("0", "0.1", "0.2", "0.25", "0.3", "0.4")
CELLS = {"prob": (True, False), "poss": (True, False), "bel": (True, False, None)}


def render_outcome(var: str, cell) -> str:
    return var if cell is True else f"~{var}" if cell is False else f"{var}|~{var}"


@st.composite
def table_lines(draw, child: str, form: str, parents: list[str], separate: bool) -> list[str]:
    """Conditionals for one link; most documents get a complete table."""
    complete = draw(st.integers(0, 3)) > 0
    lines = []
    if separate:
        rows = [((p,), (cell,)) for p in parents for cell in CELLS["bel"]]
    else:
        rows = [(tuple(parents), cells) for cells in product(CELLS[form], repeat=len(parents))]
    for vars_, cells in rows:
        given = ", ".join(render_outcome(v, c) for v, c in zip(vars_, cells))
        if form == "prob":
            child_outs = [draw(st.sampled_from((child, f"~{child}")))]
        else:
            child_outs = [child, f"~{child}"]
        for out in child_outs:
            if form == "bel" and draw(st.booleans()):
                continue
            if not complete and not draw(st.integers(0, 4)):
                continue
            value = draw(st.sampled_from(SMALL_VALUES if form == "bel" else VALUES))
            lines.append(f"cond {out} | {given} = {value}")
    return lines


@st.composite
def qn_lines(draw) -> list[str]:
    """A network file as lines: nodes, some priors, and links with tables."""
    names = draw(st.permutations(NAMES))[: draw(st.integers(1, len(NAMES)))]
    forms = {v: draw(st.sampled_from(("prob", "poss", "bel"))) for v in names}
    lines = [f"node {v} {forms[v]}" for v in names]
    for v in names:
        if draw(st.booleans()):
            lines.append(f"prior {v} {draw(st.sampled_from(VALUES))} {draw(st.sampled_from(VALUES))}")
    for i, child in enumerate(names[1:], start=1):
        if not draw(st.integers(0, 3)):
            continue
        parents = draw(st.permutations(names[:i]))[: draw(st.integers(1, min(2, i)))]
        separate = len(parents) == 2 and forms[child] == "bel" and draw(st.booleans())
        lines.append(f"link {' & '.join(parents)} -> {child}" + (" separate" if separate else ""))
        lines += draw(table_lines(child, forms[child], parents, separate))
    return lines


BAD_OUTCOMES = ("a|~b", "~~a", "a|a", "1a", "a|~a|~a", "~", "a |~ a", "~a|a", "ghost|~ghost", "", " ", "a ~b")
BAD_VALUES = ("high", "1e", "nan", "inf", "-0.5", "1.5", "0x1", "=", "1,5", "--1")
JUNK = (
    "link ->", "cond |=", "node", "prior x", "@@@", "link a & b & c -> d", "nodes a prob",
    "  cond b | a = 0.5", "cond a|~a | b = 0.5", "# comment", "", "\t", "link a -> b separate",
    "cond b | a = = 0.5", "cond b |  = 5", "cond b|~b = 1", "link a & b -> c junk", "node a fuzzy",
    "node 9a prob", "prior a 0.5", "link a-> b", "cond b | a, = 0.5", "link a & -> b",
)
WORD = re.compile(r"[A-Za-z_]\w*")


def _mutate(draw, lines: list[str]) -> None:
    kind = draw(st.sampled_from((
        "duplicate link", "undeclared name", "bad outcome", "bad value", "duplicate prior or cond",
        "node after cond", "junk line", "swap lines", "respace",
    )))
    def pick(prefix: str) -> int | None:
        idx = [i for i, line in enumerate(lines) if line.startswith(prefix)]
        return draw(st.sampled_from(idx)) if idx else None

    if kind == "duplicate link" and (i := pick("link ")) is not None:
        lines.insert(draw(st.integers(0, len(lines))), lines[i])
    elif kind == "undeclared name" and lines:
        i = draw(st.integers(0, len(lines) - 1))
        words = [m for m in WORD.finditer(lines[i]) if m.group() in NAMES]
        if words:
            m = draw(st.sampled_from(words))
            lines[i] = lines[i][: m.start()] + "ghost" + lines[i][m.end():]
    elif kind == "bad outcome" and (i := pick("cond ")) is not None:
        head, _, rest = lines[i].partition(" | ")
        given, _, value = rest.rpartition(" = ")
        outs = [head[len("cond "):], *given.split(", ")]
        outs[draw(st.integers(0, len(outs) - 1))] = draw(st.sampled_from(BAD_OUTCOMES))
        lines[i] = f"cond {outs[0]} | {', '.join(outs[1:])} = {value}"
    elif kind == "bad value" and (i := pick(draw(st.sampled_from(("cond ", "prior "))))) is not None:
        words = lines[i].split(" ")
        words[draw(st.sampled_from((-1, -2)))] = draw(st.sampled_from(BAD_VALUES))
        lines[i] = " ".join(words)
    elif kind == "duplicate prior or cond" and (i := pick(draw(st.sampled_from(("cond ", "prior "))))) is not None:
        lines.insert(draw(st.integers(i + 1, len(lines))), lines[i])
    elif kind == "node after cond" and (i := pick("node ")) is not None:
        node = lines.pop(i)
        name = node.split()[1]
        named = [j for j, line in enumerate(lines) if line.startswith("cond ") and name in WORD.findall(line)]
        lines.insert(named[0] + 1 if named else len(lines), node)
    elif kind == "junk line":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(JUNK)))
    elif kind == "swap lines" and len(lines) > 1:
        i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "respace" and lines:
        i = draw(st.integers(0, len(lines) - 1))
        gap = draw(st.sampled_from(("  ", "\t", " \t ", "")))
        lines[i] = lines[i].replace(" ", gap) if gap else lines[i].replace(" | ", "|").replace(", ", ",")


@st.composite
def mutated_qn_text(draw) -> str:
    lines = draw(qn_lines())
    for _ in range(draw(st.integers(0, 3))):
        _mutate(draw, lines)
    return "\n".join(lines) + draw(st.sampled_from(("\n", "", "\r\n", "\n# end\n")))


def outcome(fn, *args):
    """A call's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc).__name__, str(exc)


def network_view(net: Network) -> tuple:
    """Everything a built network holds, with exact float spellings."""
    variables = [(v.name, v.formalism, repr(v.prior)) for v in net.variables.values()]
    links = [(l.child, l.parents, type(l.table).__name__, repr(l.table)) for l in net.links]
    return variables, links


def assert_same_load(text: str) -> ParseResult:
    got, want = parse_network(text), ref_parse_network(text)
    assert got.diagnostics == want.diagnostics
    # equal fields, line numbers and float spellings (repr, since nan != nan)
    assert repr(got.document) == repr(want.document)
    assert serialize_document(got.document) == serialize_document(want.document)
    for doc in (want.document, got.document):
        built, ref_built = outcome(build_network, doc), outcome(ref_build_network, doc)
        if isinstance(ref_built[0], Network):
            assert built[1] == ref_built[1] == ()
            assert network_view(built[0]) == network_view(ref_built[0])
        else:
            assert built == ref_built
    return got


class TestMatchesReference:
    """The linear-time loader returns what the line-by-line original did."""

    @settings(max_examples=150, deadline=None)
    @given(lines=qn_lines())
    def test_generated_documents(self, lines):
        assert_same_load("\n".join(lines) + "\n")

    @settings(max_examples=400, deadline=None)
    @given(text=mutated_qn_text())
    def test_mutated_documents(self, text):
        assert_same_load(text)

    def test_fixed_documents(self, medical_text):
        for text in (medical_text, chain_text(50), *JUNK, "\n".join(JUNK)):
            assert_same_load(text)

    def test_node_after_cond_that_names_it(self):
        text = (
            "node a prob\nnode c prob\nlink a -> c\n"
            "cond c | ~b = 0.5\nnode b prob\ncond c | ~b = 0.5\ncond c | a = 0.6\ncond c | ~a = 0.2\n"
        )
        result = assert_same_load(text)
        assert [d.line for d in result.diagnostics] == [4]

    def test_generators_reach_built_networks_and_diagnostics(self):
        # the properties above compare built networks, not only diagnostics
        def builds(text):
            result = parse_network(text)
            return result.ok and build_network(result.document)[0] is not None

        settings_ = settings(max_examples=500, database=None, phases=[Phase.generate])
        find(qn_lines().map("\n".join).filter(lambda t: "separate" in t), builds, settings=settings_)
        find(mutated_qn_text(), builds, settings=settings_)
        find(mutated_qn_text(), lambda text: not parse_network(text).ok, settings=settings_)


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------

names_st = st.from_regex(r"[A-Za-z_]\w{0,5}", fullmatch=True)
floats_st = st.floats(allow_nan=False)


@st.composite
def documents(draw) -> NetworkDocument:
    """A document that parses: declared names, one prior and at most one
    link per variable, non-frame conditioned outcomes."""
    names = draw(st.lists(names_st, min_size=1, max_size=8, unique=True))
    nodes = tuple(NodeDecl(v, draw(st.sampled_from(("prob", "poss", "bel")))) for v in names)
    priors = tuple(
        PriorDecl(v, draw(floats_st), draw(floats_st))
        for v in draw(st.lists(st.sampled_from(names), unique=True))
    )
    links = []
    for child in draw(st.lists(st.sampled_from(names), unique=True)):
        parents = tuple(draw(st.lists(st.sampled_from(names), min_size=1, max_size=2)))
        links.append(LinkDecl(parents, child, len(parents) == 2 and draw(st.booleans())))
    outcome_st = st.builds(Outcome, st.sampled_from(names), st.sampled_from((POS_OUT, NEG_OUT, FRAME_OUT)))
    conds = tuple(
        CondDecl(
            Outcome(draw(st.sampled_from(names)), draw(st.sampled_from((POS_OUT, NEG_OUT)))),
            tuple(draw(st.lists(outcome_st, min_size=1, max_size=3))),
            draw(floats_st),
        )
        for _ in range(draw(st.integers(0, 8)))
    )
    return NetworkDocument(nodes, priors, tuple(links), conds)


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(doc=documents())
    def test_serialize_then_parse(self, doc):
        text = serialize_document(doc)
        result = parse_network(text)
        assert result.ok, result.diagnostics
        assert result.document == doc
        assert serialize_document(result.document) == text

    def test_infinite_and_nan_values(self):
        doc = parse_network("node a prob\nprior a inf -inf\nnode c prob\nlink a -> c\ncond c | a = nan\n").document
        text = serialize_document(doc)
        assert text == "node a prob\nnode c prob\nprior a inf -inf\nlink a -> c\ncond c | a = nan\n"
        again = parse_network(text).document
        assert math.isnan(again.conds[0].value) and again.priors == doc.priors


# ---------------------------------------------------------------------------
# reference: parse_network and build_network as they were before loading
# became linear (a scan of all earlier links per link line, every outcome
# token parsed on every line); only the names are prefixed with ref
# ---------------------------------------------------------------------------

REF_NAME_RE = re.compile(r"[A-Za-z_]\w*$")
# the conditioned outcome may be written as a (rejected) no-space frame
# token, so the error message can say so instead of misparsing
REF_COND_RE = re.compile(
    r"(?P<child>[A-Za-z_]\w*\|~[A-Za-z_]\w*|~?[A-Za-z_]\w*)\s*\|\s*(?P<parents>.+?)\s*=\s*(?P<value>\S+)$"
)
REF_FORMALISMS = {"prob": PROB, "poss": POSS, "bel": BEL}


def ref_column(raw: str, token: str, start: int) -> int:
    """Column of ``token``'s first occurrence in ``raw`` at or after ``start``."""
    return raw.find(token, start) + 1


def ref_parse_outcome(token: str, known: dict[str, str]) -> tuple[Outcome | None, str | None]:
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
    if not REF_NAME_RE.match(var):
        return None, f"malformed outcome {token!r}"
    if var not in known:
        return None, f"outcome references undeclared variable {var!r}"
    return Outcome(var, NEG_OUT if neg else POS_OUT), None


def ref_parse_network(text: str) -> ParseResult:
    """Parse network-file text. Total: collects diagnostics, never raises."""
    nodes: list[NodeDecl] = []
    priors: list[PriorDecl] = []
    links: list[LinkDecl] = []
    conds: list[CondDecl] = []
    diags: list[Diagnostic] = []
    known: dict[str, str] = {}
    prior_seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line.strip():
            continue
        tokens = line.split()
        head = tokens[0]

        if head == "node":
            if len(tokens) != 3:
                diags.append(Diagnostic(lineno, 1, "expected: node NAME prob|poss|bel"))
                continue
            name, kind = tokens[1], tokens[2]
            name_col = ref_column(raw, name, raw.index(head) + len(head))
            if not REF_NAME_RE.match(name):
                diags.append(Diagnostic(lineno, name_col, f"malformed variable name {name!r}"))
                continue
            if kind not in REF_FORMALISMS:
                diags.append(Diagnostic(lineno, ref_column(raw, kind, name_col - 1 + len(name)), f"unknown formalism {kind!r}"))
                continue
            if name in known:
                diags.append(Diagnostic(lineno, name_col, f"duplicate variable {name!r}"))
                continue
            known[name] = kind
            nodes.append(NodeDecl(name, kind, lineno))

        elif head == "prior":
            if len(tokens) != 4:
                diags.append(Diagnostic(lineno, 1, "expected: prior NAME VALUE VALUE"))
                continue
            name = tokens[1]
            name_col = ref_column(raw, name, raw.index(head) + len(head))
            if name not in known:
                diags.append(Diagnostic(lineno, name_col, f"prior for undeclared variable {name!r}"))
                continue
            try:
                vx, vnx = float(tokens[2]), float(tokens[3])
            except ValueError:
                diags.append(Diagnostic(lineno, 1, f"prior values for {name!r} must be numbers"))
                continue
            if name in prior_seen:
                diags.append(Diagnostic(lineno, name_col, f"duplicate prior for {name!r}"))
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
            # scan left to right: each parent after its '&', the child after '->'
            cols, cursor = [], raw.index(head) + len(head)
            for i, name in enumerate((*parents, child)):
                if 0 < i < len(parents):
                    cursor = raw.index("&", cursor) + 1
                elif i == len(parents):
                    cursor = raw.index("->", cursor) + 2
                cols.append(ref_column(raw, name, cursor))
                cursor = cols[-1] - 1 + len(name)
            bad = False
            for name, col in zip((*parents, child), cols):
                if not REF_NAME_RE.match(name):
                    diags.append(Diagnostic(lineno, col, f"malformed variable name {name!r}"))
                    bad = True
                elif name not in known:
                    diags.append(Diagnostic(lineno, col, f"link references undeclared variable {name!r}"))
                    bad = True
            if bad:
                continue
            if not 1 <= len(parents) <= 2:
                diags.append(Diagnostic(lineno, 1, "a link takes one or two parents"))
                continue
            if separate and len(parents) != 2:
                diags.append(Diagnostic(lineno, ref_column(raw, "separate", cursor), "'separate' applies to two-parent links"))
                continue
            if any(l.child == child for l in links):
                diags.append(Diagnostic(lineno, cols[-1], f"variable {child!r} already has a link"))
                continue
            links.append(LinkDecl(tuple(parents), child, separate, lineno))

        elif head == "cond":
            body = line[len("cond"):].strip()
            m = REF_COND_RE.match(body)
            if m is None:
                diags.append(Diagnostic(lineno, 1, "expected: cond OUTCOME | OUTCOMES = VALUE"))
                continue
            body_at = raw.index(body, raw.index(head) + len(head))
            child_out, err = ref_parse_outcome(m.group("child"), known)
            if err:
                diags.append(Diagnostic(lineno, body_at + m.start("child") + 1, err))
                continue
            if child_out.kind == FRAME_OUT:
                diags.append(Diagnostic(lineno, 1, "the conditioned outcome cannot be a frame"))
                continue
            parent_outs = []
            bad = False
            piece_at = body_at + m.start("parents")
            for i, token in enumerate(m.group("parents").split(",")):
                if i:  # each piece after its ','
                    piece_at = raw.index(",", piece_at) + 1
                out, err = ref_parse_outcome(token, known)
                if err:
                    diags.append(Diagnostic(lineno, ref_column(raw, token.strip(), piece_at), err))
                    bad = True
                    break
                parent_outs.append(out)
            if bad:
                continue
            try:
                value = float(m.group("value"))
            except ValueError:
                diags.append(Diagnostic(lineno, body_at + m.start("value") + 1, "conditional value must be a number"))
                continue
            conds.append(CondDecl(child_out, tuple(parent_outs), value, lineno))

        else:
            diags.append(Diagnostic(lineno, 1, f"unknown directive {head!r}"))

    doc = NetworkDocument(tuple(nodes), tuple(priors), tuple(links), tuple(conds))
    return ParseResult(doc, tuple(diags))


def ref_build_network(doc: NetworkDocument) -> tuple[Network | None, tuple[Diagnostic, ...]]:
    """Assemble a Network from a parsed document.

    Returns the network and build diagnostics; the network is None when
    any diagnostic is fatal.  Probability complements may be given
    explicitly but must agree with 1 minus the positive-outcome value;
    unassigned belief conditionals default to 0.
    """
    diags: list[Diagnostic] = []
    formalisms = {n.name: REF_FORMALISMS[n.formalism] for n in doc.nodes}
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
        table = ref_build_table(decl, formalisms, conds_by_child.get(decl.child, []), diags)
        if table is not None:
            links.append(Link(decl.child, decl.parents, table))

    if diags:
        return None, tuple(diags)
    return Network(variables, links), ()


def ref_cell_of(out: Outcome) -> lc.Cell:
    if out.kind == POS_OUT:
        return True
    if out.kind == NEG_OUT:
        return False
    return None


def ref_cond_key(decl: LinkDecl, c: CondDecl, frames_ok: bool, one_parent_per_cond: bool) -> tuple | str:
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
        return (c.child.kind == POS_OUT, decl.parents.index(out.var), ref_cell_of(out))
    if len(c.parents) != len(decl.parents):
        return f"expected {len(decl.parents)} conditioning outcomes for {decl.child!r}"
    for out, expected in zip(c.parents, decl.parents):
        if out.var != expected:
            return f"conditioning outcomes must follow link parent order ({', '.join(decl.parents)})"
    key = (c.child.kind == POS_OUT, *(ref_cell_of(o) for o in c.parents))
    if not frames_ok and None in key[1:]:
        return "frame outcomes are only meaningful for belief links"
    return key


def ref_collect_cells(
    decl: LinkDecl,
    conds: list[CondDecl],
    diags: list[Diagnostic],
    frames_ok: bool,
    one_parent_per_cond: bool = False,
) -> dict | None:
    cells: dict = {}
    ok = True
    for c in conds:
        key = ref_cond_key(decl, c, frames_ok, one_parent_per_cond)
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


def ref_prob_value(cells: dict, key_pos: tuple, key_neg: tuple, decl: LinkDecl, diags: list[Diagnostic], label: str) -> float | None:
    has_pos, has_neg = key_pos in cells, key_neg in cells
    if has_pos and has_neg and abs(cells[key_pos] + cells[key_neg] - 1.0) > 1e-9:
        diags.append(Diagnostic(decl.line, 1, f"probability conditionals {label} do not sum to 1"))
        return None
    if has_pos:
        return cells[key_pos]
    if has_neg:
        return 1.0 - cells[key_neg]
    diags.append(Diagnostic(decl.line, 1, f"missing probability conditional {label} for {decl.child!r}"))
    return None


def ref_build_table(decl, formalisms, conds, diags):
    child_form = formalisms[decl.child]
    if decl.separate and child_form is not BEL:
        diags.append(Diagnostic(decl.line, 1, "'separate' tables are only defined for belief links"))
        return None

    if child_form is PROB:
        cells = ref_collect_cells(decl, conds, diags, frames_ok=False)
        if cells is None:
            return None
        if len(decl.parents) == 1:
            values = [
                ref_prob_value(cells, (True, pp), (False, pp), decl, diags, f"given {'' if pp else '~'}{decl.parents[0]}")
                for pp in (True, False)
            ]
            if None in values:
                return None
            return lc.ProbCond1(*values)
        values = []
        for bp in (True, False):
            for cp in (True, False):
                label = f"given {'' if bp else '~'}{decl.parents[0]}, {'' if cp else '~'}{decl.parents[1]}"
                values.append(ref_prob_value(cells, (True, bp, cp), (False, bp, cp), decl, diags, label))
        if None in values:
            return None
        return lc.ProbCond2(*values)

    if child_form is POSS:
        cells = ref_collect_cells(decl, conds, diags, frames_ok=False)
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
                diags.append(Diagnostic(decl.line, 1, f"missing possibility conditional {'' if key[0] else '~'}{decl.child} given {', '.join(('' if c else '~') + p for c, p in zip(key[1:], decl.parents))} for {decl.child!r}"))
                return None
            values.append(cells[key])
        if len(decl.parents) == 1:
            # key order: (c,a), (c,~a), (~c,a), (~c,~a)
            return lc.PossCond1(values[0], values[1], values[2], values[3])
        return lc.PossCond2(*values)

    # belief
    if decl.separate:
        cells = ref_collect_cells(decl, conds, diags, frames_ok=True, one_parent_per_cond=True)
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

    cells = ref_collect_cells(decl, conds, diags, frames_ok=True)
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
        return lc.BelCond2Joint(
            tuple(cells.get((cp, ca, cb), 0.0) for cp in (True, False) for ca in lc.CELLS for cb in lc.CELLS)
        )
    except ValueError as exc:
        diags.append(Diagnostic(decl.line, 1, str(exc)))
        return None
