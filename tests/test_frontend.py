"""The rule-file format, diagnostics, rendering, and the CLI."""

import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from qnarrow import App, GtrsError, Quantale, Substitution, Var, parse, solve, vars_of
from qnarrow.cli import main
from qnarrow.frontend import (
    _QUANTALE_NAMES,
    MAX_ARITY,
    MAX_POW,
    Problem,
    ProblemFile,
    _quote,
    parse_term_text,
    parse_terms_text,
    render_solution,
    render_trace,
)
from qnarrow.narrow import Solution, SolveResult
from qnarrow.oracle import SystemConfig, random_linear_problem, random_system
from qnarrow.quantale import (
    CBE_CONST,
    CBE_ID,
    MAX_LITERAL_DIGITS,
    CarrierError,
    Cbe,
    CbePow,
    CbeScale,
    QuantaleError,
    QuantaleValue,
    cbe_admissible,
    cbe_to_str,
    read_number,
)
from qnarrow.rewrite import GradedTrs, RewriteRule, TrsError
from qnarrow.term import RESERVED_SYMBOLS, Position, Signature, Term, position_from_str

DEMOS = Path(__file__).resolve().parent.parent / "demos"

PEANO_TEXT = (DEMOS / "peano.gtrs").read_text()

# a number of 5,000 digits: more than int() converts from text
LONG = "9" * 5000
NAME = "n" * 5000

HUGE_POW_TEXT = ("quantale fuzzy-product\nfun a/0\nfun b/0\nfun f/1 : (pow(100000))\n"
                 "rule 1/3 : a -> b\nsolve f(a) =? f(b)\n")


def render_problem_file(pf: ProblemFile) -> str:
    lines = [f"quantale {pf.quantale.value}"]
    if pf.variables:
        lines.append("var " + " ".join(v.name for v in pf.variables))
    for name, cbes in pf.signature.symbols.items():
        line = f"fun {name}/{len(cbes)}"
        rendered = [cbe_to_str(pf.quantale, f) for f in cbes]
        if any(r != "id" for r in rendered):
            line += " : (" + ", ".join(rendered) + ")"
        lines.append(line)
    for rule in pf.trs.rules:
        lines.append(f"rule {rule.degree} : {rule.lhs} -> {rule.rhs}")
    for problem in pf.problems:
        line = f"solve {problem.left} =? {problem.right}"
        if problem.threshold is not None:
            line += f" threshold {problem.threshold}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def random_problem_file(rng: random.Random, q: Quantale) -> ProblemFile:
    """A random system over q with one linear problem, declaring the
    variables it uses."""
    cfg = SystemConfig(quantale=q, n_constants=2, n_unary=1, n_binary=1,
                       nontrivial_cbes=True)
    trs = random_system(rng, cfg)
    left, right = random_linear_problem(rng, trs)
    threshold = q.unit if rng.random() < 0.5 else None
    used = set()
    for rule in trs.rules:
        used |= vars_of(rule.lhs) | vars_of(rule.rhs)
    used |= vars_of(left) | vars_of(right)
    return ProblemFile(q, tuple(sorted(used, key=lambda v: v.name)), trs.signature, trs,
                       (Problem(left, right, threshold),))


def parse_trace_step_header(line: str) -> tuple[str, Optional[Position], Optional[int]]:
    """Recover (tag, position, rule index) from a rendered trace line."""
    head = line.split("|", 1)[0].split()
    if len(head) != 3:
        raise ValueError(f"not a trace line: {line!r}")
    tag, pos_text, rule_text = head
    pos = None if pos_text == "-" else position_from_str(pos_text)
    rule = None if rule_text == "-" else int(rule_text) - 1
    return tag, pos, rule


class TestParse:
    def test_peano_file(self):
        pf = parse(PEANO_TEXT)
        assert pf.quantale is Quantale.LAWVERE
        assert [v.name for v in pf.variables] == ["x", "y"]
        assert pf.signature.arity("+") == pf.signature.arity("+")
        assert len(pf.trs.rules) == 3
        assert len(pf.problems) == 1
        problem = pf.problems[0]
        assert problem.threshold == Quantale.LAWVERE.degree(1)
        assert str(problem.left) == "+(x, S(Z))"

    def test_round_trip_is_identity_on_normal_forms(self):
        for name in ("peano", "cubic", "chain", "unbalanced", "innermost", "fuzzy"):
            text = (DEMOS / f"{name}.gtrs").read_text()
            once = parse(text)
            rendered = render_problem_file(once)
            twice = parse(rendered)
            assert render_problem_file(twice) == rendered
            assert twice.quantale is once.quantale
            assert twice.trs.rules == once.trs.rules
            assert twice.problems == once.problems
            assert twice.signature == once.signature

    def test_term_text(self):
        pf = parse(PEANO_TEXT)
        t = parse_term_text(pf, "+(S(Z), x)")
        assert t == App("+", (App("S", (App("Z"),)), Var("x")))

    def test_term_list_text(self):
        """Only commas outside argument lists separate the terms."""
        pf = parse(PEANO_TEXT)
        one = parse_term_text(pf, "+(S(Z), x)")
        assert parse_terms_text(pf, "+(S(Z), x), Z,S(Z)") == (one, App("Z"),
                                                            App("S", (App("Z"),)))
        assert parse_terms_text(pf, "+(S(Z), x)") == (one,)
        for bad in ("", "Z,", ",Z", "Z,,Z", "+(Z, Z"):
            with pytest.raises(GtrsError):
                parse_terms_text(pf, bad)
        with pytest.raises(GtrsError, match="trailing input ','"):
            parse_term_text(pf, "Z, Z")

    def test_random_files_round_trip(self):
        rng = random.Random(61)
        for trial in range(100):
            q = list(Quantale)[trial % 5]
            pf = random_problem_file(rng, q)
            rendered = render_problem_file(pf)
            back = parse(rendered)
            assert back.quantale is q
            assert back.signature == pf.signature
            assert back.trs.rules == pf.trs.rules
            assert back.problems == pf.problems
            assert render_problem_file(back) == rendered

    def test_trailing_semicolons_tolerated(self):
        pf = parse("quantale lawvere\nvar x y;\nfun a/0;\n"
                    "rule 1 : a -> a;\nsolve a =? a;\n")
        assert [v.name for v in pf.variables] == ["x", "y"]
        assert len(pf.problems) == 1


def expect_error(text, fragment):
    with pytest.raises(GtrsError) as err:
        parse(text)
    assert fragment in str(err.value), str(err.value)
    return err.value


class TestDiagnostics:
    def test_unknown_symbol(self):
        expect_error("quantale lawvere\nfun a/0\nrule 1 : g(a) -> a\n",
                     "unknown symbol 'g'")

    def test_arity_mismatch(self):
        expect_error("quantale lawvere\nfun a/0\nfun f/2\nrule 1 : f(a) -> a\n",
                     "arity mismatch")

    def test_undeclared_variable(self):
        expect_error("quantale lawvere\nfun f/1\nfun a/0\nrule 1 : f(z) -> a\n",
                     "unknown symbol 'z'")

    def test_inadmissible_degree(self):
        expect_error("quantale fuzzy-godel\nfun a/0\nfun b/0\nrule 2 : a -> b\n",
                     "inadmissible degree")
        expect_error("quantale bool\nfun a/0\nfun b/0\nrule 1/2 : a -> b\n",
                     "inadmissible degree")

    def test_inadmissible_cbe(self):
        expect_error("quantale fuzzy-godel\nfun f/1 : (scale(3))\n",
                     "not admitted")
        expect_error("quantale lawvere\nfun f/1 : (pow(2))\n",
                     "not admitted")

    def test_lhs_variable_rule(self):
        expect_error("quantale lawvere\nvar x\nfun a/0\nrule 1 : x -> a\n",
                     "must not be a variable")

    def test_extra_rhs_variable(self):
        expect_error("quantale lawvere\nvar x y\nfun f/1\n"
                     "rule 1 : f(x) -> f(y)\n",
                     "introduces variables")

    def test_reserved_tokens(self):
        expect_error("quantale lawvere\nfun true/0\n", "reserved")
        expect_error("quantale lawvere\nvar true\n", "reserved")
        expect_error("quantale lawvere\nfun a/0\nrule 1 : =?(a, a) -> a\n",
                     "reserved")

    def test_position_reported(self):
        err = expect_error("quantale lawvere\nfun a/0\nrule 1 : g(a) -> a\n",
                           "unknown symbol")
        assert err.line == 3 and err.col > 1

    def test_missing_quantale(self):
        expect_error("fun a/0\n", "quantale must be declared first")

    def test_duplicate_declarations(self):
        expect_error("quantale lawvere\nfun a/0\nfun a/1\n", "already declared")
        expect_error("quantale lawvere\nvar x\nvar x\n", "already declared")

    def test_arity_limit(self):
        """An arity above MAX_ARITY is rejected at its token, before any
        per-argument table is built; one with 5,000 digits too.  Leading
        zeros do not count, however many there are."""
        signature = parse(f"quantale lawvere\nfun f/{MAX_ARITY}\nfun g/002\n"
                          f"fun h/{'0' * 5000}1\nfun k/{'0' * 5000}\n").signature
        assert (len(signature.arity("h")), len(signature.arity("k"))) == (1, 0)
        for arity in (MAX_ARITY + 1, 10**15, "1" * 5000):
            err = expect_error(f"quantale lawvere\nfun f/{arity}\n",
                               f"arity exceeds the limit of {MAX_ARITY}")
            assert (err.line, err.col) == (2, 7)

    def test_pow_limit(self):
        """A pow exponent above MAX_POW is rejected at its number, before
        any degree is raised to it; one with 5,000 digits too."""
        header = "quantale fuzzy-product\nfun a/0\n"
        assert parse(header + f"fun f/1 : (pow({MAX_POW}))\n"
                     f"fun g/1 : (pow(0{MAX_POW}))\n"
                     f"fun h/1 : (pow({'0' * 5000}2))\n").signature
        for exponent in (MAX_POW + 1, 100000, "1" * 5000):
            err = expect_error(header + f"fun f/1 : (pow({exponent}))\n",
                               f"pow exponent exceeds the limit of {MAX_POW}")
            assert (err.line, err.col) == (3, 16)
        err = expect_error(HUGE_POW_TEXT, "pow exponent exceeds")
        assert (err.line, err.col) == (4, 16)

    # each numeric slot of the rule-file format, with {} for its number
    NUMERIC_SLOTS = {
        "degree": "quantale lawvere\nfun a/0\nrule {} : a -> a\n",
        "threshold": "quantale lawvere\nfun a/0\nsolve a =? a threshold {}\n",
        "arity": "quantale lawvere\nfun f/{}\n",
        "pow": "quantale fuzzy-product\nfun f/1 : (pow({}))\n",
        "scale": "quantale lawvere\nfun f/1 : (scale({}))\n",
    }

    @pytest.mark.parametrize("slot", sorted(NUMERIC_SLOTS))
    def test_numbers_are_ascii_digits(self, slot):
        """A number is written in ASCII digits: the same text with an
        Arabic-Indic or a fullwidth three is an error at that character."""
        text = self.NUMERIC_SLOTS[slot]
        assert parse(text.format("3"))
        for digit in ("\u0663", "\uff13"):
            expect_error(text.format(digit), f"unexpected character {digit!r}")

    def test_fractional_cbe_numbers(self):
        """A scale factor over zero and a fractional pow exponent are input
        errors at their number."""
        for factor in ("1/0", "0/0", "3/00"):
            err = expect_error(f"quantale lawvere\nfun f/1 : (scale({factor}))\n",
                               f"scale factor {factor!r} has a zero denominator")
            assert (err.line, err.col) == (2, 18)
        err = expect_error("quantale fuzzy-product\nfun f/1 : (pow(1/2))\n",
                           "pow exponent must be a whole number, found '1/2'")
        assert (err.line, err.col) == (2, 16)

    @pytest.mark.parametrize("text, position", [
        (f"quantale lawvere\nfun f/{LONG}\n", (2, 7)),
        (f"quantale fuzzy-product\nfun f/1 : (pow({LONG}))\n", (2, 16)),
        (f"quantale lawvere\nfun f/1 : (scale({LONG}/7))\n", (2, 18)),
        (f"quantale lawvere\nfun f/1 : (scale(7/{LONG}))\n", (2, 18)),
        (f"quantale lawvere\nfun a/0\nrule {LONG} : a -> a\n", (3, 6)),
        (f"quantale lawvere\nfun a/0\nrule 1/{LONG} : a -> a\n", (3, 6)),
        (f"quantale lawvere\nfun a/0\nsolve a =? a threshold {LONG}\n", (3, 24)),
    ], ids=["arity", "pow", "scale-numerator", "scale-denominator", "degree-numerator",
            "degree-denominator", "threshold"])
    def test_long_literal(self, text, position):
        """A number of 5,000 digits, past what int() converts, is an error at
        that number with a short message that neither repeats the number nor
        passes Python's advice on."""
        with pytest.raises(GtrsError) as err:
            parse(text)
        assert (err.value.line, err.value.col) == position
        assert len(err.value.message) < 200, err.value.message
        assert "set_int_max_str_digits" not in str(err.value)

    def test_long_literal_check_exits_two(self, tmp_path, capsys):
        path = tmp_path / "longdegree.gtrs"
        path.write_text(f"quantale lawvere\nfun a/0\nrule {LONG} : a -> a\n")
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}:3:6: inadmissible degree: degree has over "
                                f"{MAX_LITERAL_DIGITS} digits above or below its bar\n")

    @pytest.mark.parametrize("text", [
        f"quantale lawvere\nfun a/0\nsolve a =? a {LONG}\n",
        f"quantale lawvere\nfun a/0\nsolve {NAME} =? a\n",
        f"{NAME}\n",
        f"quantale lawvere\nfun a/0\nsolve {LONG} =? a\n",
        f"quantale lawvere\nvar {LONG}\n",
        f"quantale lawvere\nfun {LONG}\n",
        f"quantale lawvere\nfun f/1 : ({NAME})\n",
        f"quantale lawvere\nfun a/0\nsolve a {NAME} a\n",
        f"quantale lawvere\nfun f {NAME}\n",
        f"quantale lawvere\nvar {NAME} {NAME}\n",
        f"quantale lawvere\nvar {NAME}\nfun {NAME}/0\n",
        f"quantale {NAME}\n",
        f"quantale lawvere\nvar {NAME}\nfun a/0\nsolve {NAME}(a) =? a\n",
        f"quantale lawvere\nfun {NAME}/1\nfun a/0\nsolve {NAME} =? a\n",
        f"quantale lawvere\nfun {NAME}/2 : (id)\n",
    ], ids=["trailing-input", "unknown-symbol", "unknown-declaration", "expected-term",
            "expected-variable", "expected-function", "expected-cbe", "expected-eq",
            "expected-token", "already-declared-var", "already-declared-fun",
            "unknown-quantale", "variable-arguments", "arity-mismatch-term",
            "arity-mismatch-cbes"])
    def test_long_token(self, text):
        """A 5,000-character token is named by its length, never repeated."""
        with pytest.raises(GtrsError) as err:
            parse(text)
        assert "<5000 characters>" in err.value.message
        assert len(str(err.value)) < 200, str(err.value)

    def test_long_token_in_standalone_term(self):
        pf = parse("quantale lawvere\nfun a/0\n")
        with pytest.raises(GtrsError) as err:
            parse_term_text(pf, f"a {NAME}")
        assert len(str(err.value)) < 200
        assert err.value.message == "trailing input <5000 characters>"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_lines_end_at_newlines(self, newline):
        err = expect_error(newline.join(["quantale lawvere", "fun a/0", "rule 1 : b -> a", ""]),
                           "unknown symbol 'b'")
        assert (err.line, err.col) == (3, 10)

    @pytest.mark.parametrize("space", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                       "\u2028", "\u2029"])
    def test_other_line_breaks_are_whitespace(self, space):
        """Only \\n, \\r\\n and \\r end a line, as in an editor; the other
        characters str.splitlines splits at are whitespace inside a line."""
        err = expect_error(f"quantale lawvere{space}\nfun a/0\nrule 1 : b -> a\n",
                           "unknown symbol 'b'")
        assert (err.line, err.col) == (3, 10)
        # a comment runs on past one to the end of its line
        assert parse(f"quantale lawvere # note{space}more\nfun a/0\n").signature.symbols \
            == {"a": ()}
        # two declarations separated only by one are a single line
        err = expect_error(f"quantale lawvere\nfun a/0{space}fun b/0\n",
                           "expected ':', found 'fun'")
        assert (err.line, err.col) == (2, 9)

    def test_long_blank_runs(self):
        """Lines that start or end with 100,000 blanks read in linear time
        (a scanner that matched the blanks before each token would take
        minutes on the trailing run)."""
        blanks = " " * 100_000
        start = time.perf_counter()
        pf = parse(f"quantale lawvere{blanks}\n{blanks}fun a/0\t{blanks}\n"
                   f"solve a =? a {blanks}# {blanks}\n")
        assert time.perf_counter() - start < 5
        assert pf.problems == (Problem(App("a"), App("a"), None),)

    def test_long_count_exits_two(self, capsys):
        """A 5,000-digit search bound is a usage error whose message names it
        by its length; argparse's usage text precedes that message."""
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(DEMOS / "peano.gtrs"), "--max-steps", LONG])
        assert exc.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert message.endswith("--max-steps: invalid count: <5000 characters>")
        assert len(message.encode()) < 200


# Pieces of the rule-file format for the parser fuzz test: keywords, names,
# numbers (a zero denominator among them), punctuation and stray characters.
FUZZ_WORDS = ("quantale", "var", "fun", "rule", "solve", "threshold", "inf", "true",
              *(q.value for q in Quantale), "id", "const", "scale", "pow",
              "a", "b", "f", "g", "x", "y", "Z", "S", "+", "*", "-")
FUZZ_NUMBERS = ("0", "1", "2", "64", "65", "007", "1/2", "3/4", "1/0", "0/0",
                LONG, f"1/{LONG}", f"{LONG}/0", "0" * 5000 + "1")
FUZZ_PUNCTUATION = ("(", ")", ",", ":", ";", "/", "->", "=?", "#")
FUZZ_STRAY = ("@", "!", "=", "\u00e9", "\t", "[")

fuzz_token = st.sampled_from(FUZZ_WORDS + FUZZ_NUMBERS + FUZZ_PUNCTUATION + FUZZ_STRAY)
fuzz_cbe = st.one_of(st.sampled_from(("id", "const")),
                     st.builds("{}({})".format, st.sampled_from(("scale", "pow")),
                               st.sampled_from(FUZZ_NUMBERS)))
# a declaration shaped as the format has it, so the parser gets past the
# keyword; at most 12 tokens or 3 CBEs a line and 8 lines keep the nesting
# far below the recursion limit
fuzz_line = st.one_of(
    st.builds(" ".join, st.lists(fuzz_token, max_size=12)),
    st.builds("".join, st.lists(fuzz_token, max_size=12)),
    st.builds("fun {}/{} : ({})".format, st.sampled_from(FUZZ_WORDS),
              st.sampled_from(FUZZ_NUMBERS),
              st.builds(", ".join, st.lists(fuzz_cbe, max_size=3))),
    st.builds("{} {}".format, st.sampled_from(("quantale", "var", "fun", "rule", "solve")),
              st.builds(" ".join, st.lists(fuzz_token, max_size=12))))


fuzz_header = st.sampled_from(("", "quantale lawvere\n", "quantale fuzzy-product\n",
                                "quantale lawvere\nvar x y\nfun a/0\nfun f/1\nfun g/2\n"))


class TestParseFuzz:
    @settings(max_examples=300, deadline=None)
    @given(header=fuzz_header, lines=st.lists(fuzz_line, max_size=8))
    @example(header="quantale lawvere\n", lines=["fun f/1 : (scale(1/0))"])
    @example(header="quantale fuzzy-product\n", lines=["fun f/1 : (pow(1/2))"])
    def test_parses_or_raises_gtrs_error(self, header, lines):
        """Every input either parses or raises GtrsError: no other
        exception escapes the parser."""
        try:
            parse(header + "\n".join(lines))
        except GtrsError:
            pass


# -- the line parser as it was before the index reader -----------------------
#
# Kept verbatim as the reference for `parse`: a `_Token` object per token,
# whitespace matched as tokens of its own, and a `_LineParser` read through
# peek() and next().  It splits lines with str.splitlines, so the
# differential tests below feed it no text with the other line breaks that
# method knows.


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#.*)
      | (?P<arrow>->)
      | (?P<eq>=\?)
      | (?P<number>[0-9]+(?:/[0-9]+)?)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*|[+*-])
      | (?P<punct>[(),:;/])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize_line(text: str, line_no: int, filename: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise GtrsError(f"unexpected character {text[pos]!r}", line_no, pos + 1,
                            filename)
        kind = m.lastgroup
        if kind == "comment":
            break
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), line_no, m.start() + 1))
        pos = m.end()
    return tokens


class _LineParser:
    def __init__(self, tokens: list[_Token], line_no: int, filename: str):
        self.tokens = tokens
        self.i = 0
        self.line = line_no
        self.filename = filename

    def error(self, message: str, token: Optional[_Token] = None):
        col = token.col if token else (self.tokens[-1].col if self.tokens else 1)
        raise GtrsError(message, self.line, col, self.filename)

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self, expected: Optional[str] = None) -> _Token:
        tok = self.peek()
        if tok is None:
            self.error(f"unexpected end of line (expected {expected})"
                       if expected else "unexpected end of line")
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next(expected=repr(text))
        if tok.text != text:
            self.error(f"expected {text!r}, found {_quote(tok.text)}", tok)
        return tok

    def at_end(self) -> bool:
        # a trailing semicolon is tolerated on every line
        return self.i >= len(self.tokens) or (
            self.i == len(self.tokens) - 1 and self.tokens[self.i].text == ";")


def _whole_number(lp: _LineParser, tok: _Token, what: str, limit: int) -> int:
    """A whole-number token at most limit, its digits counted before it is read."""
    if tok.kind != "number" or "/" in tok.text:
        lp.error(f"{what} must be a whole number, found {_quote(tok.text)}", tok)
    value = read_number(tok.text, what) if len(tok.text.lstrip("0")) <= len(str(limit)) else None
    if value is None or value > limit:
        lp.error(f"{what} exceeds the limit of {limit}", tok)
    return int(value)


class _Parser:
    def __init__(self, filename: str):
        self.filename = filename
        self.quantale: Optional[Quantale] = None
        self.variables: dict[str, Var] = {}
        self.symbols: dict[str, tuple[Cbe, ...]] = {}
        self.rules: list[RewriteRule] = []
        self.problems: list[Problem] = []

    # -- declarations -----------------------------------------------------

    def parse(self, text: str) -> ProblemFile:
        for line_no, raw in enumerate(text.splitlines(), start=1):
            tokens = _tokenize_line(raw, line_no, self.filename)
            if not tokens:
                continue
            lp = _LineParser(tokens, line_no, self.filename)
            head = lp.next()
            handler = {
                "quantale": self._parse_quantale,
                "var": self._parse_var,
                "fun": self._parse_fun,
                "rule": self._parse_rule,
                "solve": self._parse_solve,
            }.get(head.text)
            if handler is None:
                lp.error(f"unknown declaration {_quote(head.text)}", head)
            handler(lp)
            if not lp.at_end():
                lp.error(f"trailing input {_quote(lp.peek().text)}", lp.peek())
        if self.quantale is None:
            raise GtrsError("missing quantale declaration", 1, 1, self.filename)
        signature = Signature(self.quantale, self.symbols)
        trs = GradedTrs(signature, self.rules)
        return ProblemFile(self.quantale, tuple(self.variables.values()),
                           signature, trs, tuple(self.problems))

    def _need_quantale(self, lp: _LineParser) -> Quantale:
        if self.quantale is None:
            lp.error("quantale must be declared first")
        return self.quantale

    def _parse_quantale(self, lp: _LineParser):
        if self.quantale is not None:
            lp.error("duplicate quantale declaration")
        parts = []
        while not lp.at_end():
            parts.append(lp.next().text)
        name = "".join(parts)
        if name not in _QUANTALE_NAMES:
            lp.error(f"unknown quantale {_quote(name)} (expected one of "
                     f"{', '.join(sorted(_QUANTALE_NAMES))})")
        self.quantale = _QUANTALE_NAMES[name]

    def _parse_var(self, lp: _LineParser):
        any_seen = False
        while not lp.at_end():
            tok = lp.next()
            if tok.kind != "name":
                lp.error(f"expected a variable name, found {_quote(tok.text)}", tok)
            if tok.text in RESERVED_SYMBOLS:
                lp.error(f"{_quote(tok.text)} is reserved", tok)
            if tok.text in self.variables or tok.text in self.symbols:
                lp.error(f"{_quote(tok.text)} already declared", tok)
            self.variables[tok.text] = Var(tok.text)
            any_seen = True
        if not any_seen:
            lp.error("empty variable declaration")

    def _parse_fun(self, lp: _LineParser):
        quantale = self._need_quantale(lp)
        tok = lp.next("a function symbol")
        if tok.kind != "name":
            lp.error(f"expected a function symbol, found {_quote(tok.text)}", tok)
        name = tok.text
        if name in RESERVED_SYMBOLS:
            lp.error(f"{_quote(name)} is reserved", tok)
        if name in self.symbols or name in self.variables:
            lp.error(f"{_quote(name)} already declared", tok)
        lp.expect("/")
        arity_tok = lp.next("an arity")
        arity = _whole_number(lp, arity_tok, "arity", MAX_ARITY)
        cbes: tuple[Cbe, ...]
        if lp.at_end():
            cbes = (CBE_ID,) * arity
        else:
            lp.expect(":")
            lp.expect("(")
            parsed = []
            if lp.peek() and lp.peek().text != ")":
                parsed.append(self._parse_cbe(lp, quantale))
                while lp.peek() and lp.peek().text == ",":
                    lp.next()
                    parsed.append(self._parse_cbe(lp, quantale))
            lp.expect(")")
            if len(parsed) != arity:
                lp.error(f"arity mismatch: {_quote(name)} declared /{arity} but "
                         f"{len(parsed)} argument CBEs given", tok)
            cbes = tuple(parsed)
        self.symbols[name] = cbes

    def _parse_cbe(self, lp: _LineParser, quantale: Quantale) -> Cbe:
        tok = lp.next("a CBE literal")
        if tok.text == "id":
            return CBE_ID
        if tok.text == "const":
            return CBE_CONST
        if tok.text in ("scale", "pow"):
            lp.expect("(")
            arg = lp.next("a number")
            lp.expect(")")
            try:
                cbe = (CbePow(_whole_number(lp, arg, "pow exponent", MAX_POW))
                       if tok.text == "pow"
                       else CbeScale(read_number(arg.text, f"scale factor {_quote(arg.text)}")))
            except QuantaleError as exc:
                lp.error(str(exc), arg)
            if not cbe_admissible(quantale, cbe):
                lp.error(f"CBE {tok.text!r} is not admitted by {quantale.value}", tok)
            return cbe
        lp.error(f"expected a CBE literal (id, const, scale(c), pow(n)), "
                 f"found {_quote(tok.text)}", tok)

    def _parse_degree(self, lp: _LineParser, quantale: Quantale) -> QuantaleValue:
        tok = lp.next("a degree")
        try:
            return quantale.parse_degree(tok.text)
        except CarrierError as exc:
            lp.error(f"inadmissible degree: {exc}", tok)

    # -- terms ------------------------------------------------------------

    def _parse_term(self, lp: _LineParser) -> Term:
        tok = lp.next("a term")
        if tok.kind == "eq" or tok.text in RESERVED_SYMBOLS:
            lp.error(f"{_quote(tok.text)} is reserved and cannot appear in terms", tok)
        if tok.kind != "name":
            lp.error(f"expected a term, found {_quote(tok.text)}", tok)
        name = tok.text
        if name in self.variables:
            if lp.peek() and lp.peek().text == "(":
                lp.error(f"variable {_quote(name)} cannot take arguments", tok)
            return self.variables[name]
        if name not in self.symbols:
            lp.error(f"unknown symbol {_quote(name)} (declare functions with 'fun' "
                     f"and variables with 'var')", tok)
        arity = len(self.symbols[name])
        args: list[Term] = []
        if lp.peek() and lp.peek().text == "(":
            lp.next()
            if lp.peek() and lp.peek().text != ")":
                args.append(self._parse_term(lp))
                while lp.peek() and lp.peek().text == ",":
                    lp.next()
                    args.append(self._parse_term(lp))
            lp.expect(")")
        if len(args) != arity:
            lp.error(f"arity mismatch: {_quote(name)} takes {arity} arguments, "
                     f"got {len(args)}", tok)
        return App(name, tuple(args))

    # -- rules and problems ------------------------------------------------

    def _parse_rule(self, lp: _LineParser):
        quantale = self._need_quantale(lp)
        head = lp.peek()
        degree = self._parse_degree(lp, quantale)
        lp.expect(":")
        lhs = self._parse_term(lp)
        lp.expect("->")
        rhs = self._parse_term(lp)
        try:
            self.rules.append(RewriteRule(degree, lhs, rhs))
        except TrsError as exc:
            lp.error(str(exc), head)

    def _parse_solve(self, lp: _LineParser):
        quantale = self._need_quantale(lp)
        left = self._parse_term(lp)
        eq = lp.next("'=?'")
        if eq.kind != "eq":
            lp.error(f"expected '=?', found {_quote(eq.text)}", eq)
        right = self._parse_term(lp)
        threshold = None
        if lp.peek() and lp.peek().text == "threshold":
            lp.next()
            threshold = self._parse_degree(lp, quantale)
        self.problems.append(Problem(left, right, threshold))


def reference_parse(text: str, filename: str = "<input>") -> ProblemFile:
    """Parse the rule-file format; raises GtrsError with a position."""
    return _Parser(filename).parse(text)


def reference_parse_standalone(pf: ProblemFile, text: str, many: bool) -> list[Term]:
    parser = _Parser("<term>")
    parser.quantale = pf.quantale
    parser.variables = {v.name: v for v in pf.variables}
    parser.symbols = pf.signature.symbols
    tokens = _tokenize_line(text, 1, "<term>")
    lp = _LineParser(tokens, 1, "<term>")
    terms = [parser._parse_term(lp)]
    while many and lp.peek() and lp.peek().text == ",":
        lp.next()
        terms.append(parser._parse_term(lp))
    if not lp.at_end():
        lp.error(f"trailing input {_quote(lp.peek().text)}", lp.peek())
    return terms



def outcome(read, text: str):
    """What a parser makes of text: the file's contents, or its error."""
    try:
        pf = read(text)
    except GtrsError as err:
        return err.message, err.line, err.col, err.filename
    return pf.quantale, pf.variables, pf.signature, pf.trs.rules, pf.problems


def deep_text(depth: int) -> str:
    return f"quantale lawvere\nvar x\nfun Z/0\nfun S/1\nsolve x =? {'S(' * depth}Z{')' * depth}\n"


def deepest(read) -> int:
    """The deepest S(...S(Z)) that read accepts, called from here."""
    low, high = 1, 5000
    while low < high:
        mid = (low + high + 1) // 2
        try:
            read(mid)
            low = mid
        except RecursionError:
            high = mid - 1
    return low


# standalone term text against PEANO_TEXT's declarations
TERM_PIECES = ("S", "Z", "+", "x", "y", "(", ")", ",", " ", "#", "\n", ";", "@", "=?",
               "true", "1", "q", "->")


class TestReferenceParser:
    """`parse` and the standalone term readers against the line parser they
    replaced: equal contents, or an error with the same message, line and
    column."""

    def test_demo_files_and_their_prefixes(self):
        for path in sorted(DEMOS.glob("*.gtrs")):
            text = path.read_text()
            for cut in (*range(0, len(text), 3), len(text)):
                assert outcome(parse, text[:cut]) == outcome(reference_parse, text[:cut]), \
                    (path.name, cut)

    @settings(max_examples=300, deadline=None)
    @given(header=fuzz_header, lines=st.lists(fuzz_line, max_size=8))
    def test_fuzz_lines(self, header, lines):
        text = header + "\n".join(lines)
        assert outcome(parse, text) == outcome(reference_parse, text)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_random_systems(self, seed, data):
        """A random system as rendered, and with one fuzz token spliced in."""
        rng = random.Random(seed)
        text = render_problem_file(random_problem_file(rng, rng.choice(list(Quantale))))
        assert outcome(parse, text) == outcome(reference_parse, text)
        at = data.draw(st.integers(0, len(text)))
        spliced = text[:at] + data.draw(fuzz_token) + text[at:]
        assert outcome(parse, spliced) == outcome(reference_parse, spliced)

    @settings(max_examples=300, deadline=None)
    @given(pieces=st.lists(st.sampled_from(TERM_PIECES), max_size=14), many=st.booleans())
    def test_standalone_terms(self, pieces, many):
        pf = parse(PEANO_TEXT)
        text = "".join(pieces)

        def read(reader):
            try:
                return reader(text)
            except GtrsError as err:
                return err.message, err.line, err.col, err.filename

        new = read(lambda t: parse_terms_text(pf, t) if many else (parse_term_text(pf, t),))
        old = read(lambda t: tuple(reference_parse_standalone(pf, t, many)))
        assert new == old

    def test_depth_not_below_the_reference(self):
        """A term as deep as the replaced parser reads, called from the same
        frame, still parses: the reader spends no more stack per level."""
        depth = deepest(lambda n: reference_parse(deep_text(n)))
        term = parse(deep_text(depth)).problems[0].right
        for _ in range(depth):
            (term,) = term.args
        assert term == App("Z")
        pf = parse(PEANO_TEXT)
        text = "{}Z{}".format
        depth = deepest(lambda n: reference_parse_standalone(pf, text("S(" * n, ")" * n), False))
        assert parse_term_text(pf, text("S(" * depth, ")" * depth))


class TestRendering:
    def test_solution_line(self):
        sol = Solution(Substitution({Var("x"): App("S", (App("Z"),))}),
                       Quantale.LAWVERE.degree(1), ())
        assert render_solution(sol) == "solution {x -> S(Z)} degree 1"

    def test_trace_round_trip_headers(self, cubic):
        result = solve(cubic, Var("x"), App("d"), max_steps=2)
        assert result.solutions
        for line in render_trace(result.solutions[0].trace):
            tag, pos, rule = parse_trace_step_header(line)
            assert tag in ("LP", "SU", "Cla", "Con")

    def test_trace_replay_reproduces_configuration(self, cubic):
        from qnarrow import FreshCounter, bq_step, initial_config
        from qnarrow.narrow import TRUE_TERM, canonical_subst
        x = Var("x")
        result = solve(cubic, App("f", (x, x, x)),
                       App("f", (App("a"), App("b"), App("d"))),
                       strategy="lazy", max_steps=5, max_solutions=1)
        trace = result.solutions[0].trace
        headers = [parse_trace_step_header(line) for line in render_trace(trace)]
        cfg = initial_config(cubic, App("f", (x, x, x)),
                             App("f", (App("a"), App("b"), App("d"))))
        counter = FreshCounter(500)
        for tag, pos, rule in headers:
            candidates = [nxt for tg, nxt in bq_step(cfg, cubic, counter)
                          if tg == tag and nxt is not None
                          and (tag != "LP" or (nxt.trace[-1].position == pos
                                               and nxt.trace[-1].rule_index == rule))]
            assert candidates
            cfg = candidates[0]
        assert cfg.goal == TRUE_TERM and not cfg.constraints
        assert canonical_subst(cfg.subst.restrict({x})) == result.solutions[0].subst
        assert cfg.degree == result.solutions[0].degree


class TestCli:
    def test_solve_peano(self, capsys):
        code = main(["solve", str(DEMOS / "peano.gtrs"), "--max-steps", "12"])
        out = capsys.readouterr().out
        assert code == 0
        assert "solution {x -> S(Z)} degree 1" in out
        assert "solution {x -> Z} degree 1" in out

    def test_solve_json(self, capsys):
        code = main(["solve", str(DEMOS / "cubic.gtrs"), "--max-steps", "8",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        problem = payload["problems"][0]
        assert problem["solutions"] == [
            {"substitution": {"x": "d"}, "degree": "4", "dominated": False}]
        assert problem["complete"] is True
        # every node is below the step bound, so each is keyed, the start's included
        counts = {"configs_expanded": 9, "successors_built": 8, "duplicates_merged": 0,
                  "commuted_skipped": 4, "threshold_pruned": 0, "clash_pruned": 0,
                  "frontier_peak": 3, "states_keyed": 9}
        assert {name: problem[name] for name in counts} == counts
        # every SolveResult field but the solutions is emitted as is
        assert set(problem) - {"left", "right", "threshold"} == \
            {f.name for f in fields(SolveResult)}

    def test_solve_trace_flag(self, capsys):
        code = main(["solve", str(DEMOS / "unbalanced.gtrs"), "--trace"])
        out = capsys.readouterr().out
        assert code == 0
        assert "solution {} degree 3" in out
        assert any(line.strip().startswith("LP") for line in out.splitlines())

    def test_solve_no_problems_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "empty.gtrs"
        path.write_text("quantale lawvere\nfun a/0\n")
        assert main(["solve", str(path)]) == 2

    def test_solve_without_solutions_exits_one(self, tmp_path, capsys):
        path = tmp_path / "none.gtrs"
        path.write_text("quantale lawvere\nfun a/0\nfun b/0\n"
                        "solve a =? b threshold 0\n")
        assert main(["solve", str(path)]) == 1

    @pytest.mark.parametrize("strategy", ["eager-su", "lazy"])
    def test_zero_solution_limit_exits_one(self, strategy, tmp_path, capsys):
        """--max-solutions 0 reports no solution, though x =? a is solved
        at the start."""
        path = tmp_path / "loop.gtrs"
        path.write_text("quantale lawvere\nvar x\nfun a/0\nrule 1 : a -> a\n"
                        "solve x =? a\n")
        assert main(["solve", str(path), "--strategy", strategy,
                     "--max-solutions", "0"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == \
            "(0 solutions, search solution-limit)"

    def test_unknown_order_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(DEMOS / "peano.gtrs"), "--order", "iddfs"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--order" in errors[0]

    def test_oracle_verify_without_solutions_exits_one(self, tmp_path, capsys):
        """Nothing to verify is nothing found, as `solve` reports it."""
        path = tmp_path / "none.gtrs"
        path.write_text("quantale lawvere\nfun a/0\nfun b/0\n"
                        "solve a =? b threshold 0\n")
        assert main(["oracle", str(path), "--verify"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "problem a =? b", "(no solutions to verify)"]

    def test_parse_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.gtrs"
        path.write_text("quantale lawvere\nrule 1 : g(a) -> a\n")
        assert main(["solve", str(path)]) == 2
        assert "unknown symbol" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["solve"], ["oracle", "--verify"]])
    def test_deep_terms_exit_two(self, command, tmp_path, capsys):
        """A term nested 3000 deep, beyond the parser's recursion, is an
        input error, not a search that found nothing."""
        path = tmp_path / "deep.gtrs"
        path.write_text("quantale lawvere\nvar x\nfun Z/0\nfun S/1\nfun f/1\n"
                        "rule 1 : f(x) -> x\n"
                        f"solve x =? {'S(' * 3000}Z{')' * 3000}\n")
        assert main([command[0], str(path)] + command[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("strategy", ["eager-su", "lazy"])
    def test_trace_of_deep_solution(self, strategy, tmp_path):
        """`--trace` renders a solution nested 400 deep, as the plain answer
        does: the constraints are sorted by their rendered text, not by the
        recursive reprs of their terms.  Run as the console script runs it,
        from a fresh interpreter."""
        path = tmp_path / "deep.gtrs"
        deep = f"{'S(' * 400}Z{')' * 400}"
        path.write_text("quantale lawvere\nvar x\nfun Z/0\nfun S/1\nfun f/1\n"
                        f"rule 1 : f(x) -> x\nsolve x =? {deep}\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "qnarrow.cli", "solve", str(path), "--max-steps", "1",
             "--strategy", strategy, "--trace"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert f"solution {{x -> {deep}}} degree 0" in proc.stdout
        assert f"Con - - | true ; {{x = {deep}}} ; {{}} ; 0" in proc.stdout

    def test_huge_pow_exits_two(self, tmp_path):
        """The module entry point, as the installed console script runs it:
        an exponent beyond MAX_POW is an input error, not a traceback."""
        path = tmp_path / "hugepow.gtrs"
        path.write_text(HUGE_POW_TEXT)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "qnarrow.cli", "solve", str(path), "--max-steps", "1"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert f"pow exponent exceeds the limit of {MAX_POW}" in proc.stderr

    @pytest.mark.parametrize("depth", [3, 4])
    def test_nested_pow_degree_exits_two(self, depth, tmp_path):
        """Nested pow(64) grades compound to pow(64^depth); a degree that
        would need more than MAX_DEGREE_BITS bits is an input error through
        the module entry point, not a traceback (two levels still print)."""
        def nested(leaf):
            return "f(" * depth + leaf + ")" * depth

        path = tmp_path / "nestedpow.gtrs"
        path.write_text("quantale fuzzy-product\nfun a/0\nfun b/0\nfun f/1 : (pow(64))\n"
                        f"rule 1/3 : a -> b\nsolve {nested('a')} =? {nested('b')}\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "qnarrow.cli", "solve", str(path), "--max-steps", "1"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "bits" in proc.stderr

    def test_zero_denominator_scale_exits_two(self, tmp_path):
        """`check` on a file whose scale factor has a zero denominator is
        an input error through the module entry point, not a traceback."""
        path = tmp_path / "zeroscale.gtrs"
        path.write_text("quantale lawvere\nfun f/1 : (scale(1/0))\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-m", "qnarrow.cli", "check", str(path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == (f"error: {path}:2:18: scale factor '1/0' "
                               "has a zero denominator\n")

    @pytest.mark.parametrize("data, position, byte", [
        (b"quantale lawvere\nfun a/0\nrule 1 : a -> a \xff\n", (3, 17), 0xff),
        (b"quantale lawvere # \xc3\xa9\xc3\xa9\nfun a/0 \xe9\n", (2, 9), 0xe9),
        (b"quantale lawvere\r\n# \xc3\xa9\rfun a/0\r\n\x80", (4, 1), 0x80),
        (b"\xef\xbb\xbfquantale lawvere\nfun a/0 \xff\n", (2, 9), 0xff),
        (b"\xef\xbb\xbf\xff", (1, 1), 0xff),
    ], ids=["latin", "columns-in-characters", "crlf-and-cr", "after-mark", "first-after-mark"])
    def test_non_utf8_file_exits_two(self, data, position, byte, tmp_path, capsys):
        """A byte that is not UTF-8 is an input error at its line and column,
        counted in characters, not a traceback."""
        path = tmp_path / "notutf8.gtrs"
        path.write_bytes(data)
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        line, col = position
        assert captured.err == f"error: {path}:{line}:{col}: byte 0x{byte:02x} is not UTF-8\n"

    @pytest.mark.parametrize("args, text, code", [
        (["check"], "quantale lawvere\nfun a/0\n", 0),
        (["solve", "--max-steps", "12"], (DEMOS / "peano.gtrs").read_text(), 0),
        (["check"], "quantale lawvere\nrule 1 : g(a) -> a\n", 2),
        (["check"], "quantale lawvere\nfun a/0 \ufeff\n", 2),
    ], ids=["check", "solve", "error-position", "mark-inside"])
    def test_byte_order_mark_is_skipped(self, args, text, code, tmp_path, capsys):
        """A file that starts with a UTF-8 byte-order mark, as some editors
        save it, reads as the same file without the mark; a mark anywhere
        else is an unexpected character."""
        outputs = []
        for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
            path = tmp_path / name / "file.gtrs"
            path.parent.mkdir()
            path.write_bytes(mark + text.encode())
            assert main([args[0], str(path)] + args[1:]) == code
            captured = capsys.readouterr()
            outputs.append((captured.out, captured.err.replace(str(path), "file.gtrs")))
        assert outputs[0] == outputs[1]

    def test_two_nested_pows_still_print(self, tmp_path, capsys):
        path = tmp_path / "nestedpow.gtrs"
        path.write_text("quantale fuzzy-product\nfun a/0\nfun b/0\nfun f/1 : (pow(64))\n"
                        "rule 1/3 : a -> b\nsolve f(f(a)) =? f(f(b))\n")
        assert main(["solve", str(path), "--max-steps", "1"]) == 0
        assert f"degree 1/{3 ** 4096}" in capsys.readouterr().out

    def test_rewrite_innermost(self, capsys):
        code = main(["rewrite", str(DEMOS / "innermost.gtrs"),
                     "--term", "f(a)", "--innermost"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out == ["1: f(a) -> f(b) @ 2"]

    def test_rewrite_unrestricted(self, capsys):
        code = main(["rewrite", str(DEMOS / "innermost.gtrs"), "--term", "f(a)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "^: f(a) -> f(b) @ 0" in out
        assert "1: f(a) -> f(b) @ 2" in out

    def test_rewrite_search_mode(self, capsys):
        code = main(["rewrite", str(DEMOS / "innermost.gtrs"),
                     "--term", "f(a)", "--steps", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "f(b) @ 0" in out

    def test_rewrite_zero_steps(self, capsys):
        """Zero steps reach only the start term: a search, not a listing of
        single steps."""
        code = main(["rewrite", str(DEMOS / "innermost.gtrs"),
                     "--term", "f(a)", "--steps", "0"])
        assert code == 1
        assert capsys.readouterr().out.splitlines() == ["f(a) @ 0 in 0 steps"]

    def test_narrow(self, capsys):
        code = main(["narrow", str(DEMOS / "cubic.gtrs"), "--term", "f(a, b, d)",
                     "--steps", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "f(c, b, d)  unifier {}  degree 1" in out

    def test_narrow_into_variables_finds_nothing(self, capsys):
        # variable positions are not narrowing positions
        code = main(["narrow", str(DEMOS / "cubic.gtrs"), "--term", "f(x, x, x)"])
        assert code == 1

    def test_oracle_ranking(self, capsys):
        code = main(["oracle", str(DEMOS / "cubic.gtrs"),
                     "--pool", "a,b,c,d"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[1] == "1. {x -> c} degree 3"
        assert set(out[2:5]) == {"2. {x -> a} degree 4",
                                 "3. {x -> b} degree 4",
                                 "4. {x -> d} degree 4"}

    def test_oracle_pool_with_binary_symbol(self, capsys):
        code = main(["oracle", str(DEMOS / "peano.gtrs"), "--pool", "+(Z, Z),Z"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[1:] == ["1. {x -> +(Z, Z)} degree 1", "2. {x -> Z} degree 1"]
        assert main(["oracle", str(DEMOS / "peano.gtrs"), "--pool", "Z,"]) == 2
        assert "expected a term" in capsys.readouterr().err

    def test_oracle_verify(self, capsys):
        code = main(["oracle", str(DEMOS / "cubic.gtrs"),
                     "--pool", "a,b,c,d", "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "CONFIRMED solution {x -> d} degree 4" in out

    @pytest.mark.parametrize("argv", [
        ["rewrite", "innermost.gtrs", "--term", "f(a)", "--steps", "-2"],
        ["solve", "peano.gtrs", "--max-steps", "-1"],
        ["narrow", "cubic.gtrs", "--term", "f(a, b, d)", "--steps", "-1"],
        ["oracle", "peano.gtrs", "--depth", "-1"],
    ])
    def test_negative_bounds_exit_two(self, argv, capsys):
        """A negative search bound is a usage error, not a search that found
        nothing."""
        command, name, *flags = argv
        with pytest.raises(SystemExit) as exc:
            main([command, str(DEMOS / name), *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument" in captured.err and "non-negative" in captured.err

    @pytest.mark.parametrize("count", ["\u0663", "\uff13", "1_0"])
    def test_count_is_ascii_digits(self, count, capsys):
        """A search bound is written in ASCII digits alone: an Arabic-Indic
        or fullwidth three and an underscore separator are usage errors."""
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(DEMOS / "peano.gtrs"), "--max-steps", count])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"--max-steps: invalid count: {count!r}")

    def test_oracle_non_ground_pool_exits_two(self, capsys):
        """The pool is checked when it is parsed, before any output."""
        code = main(["oracle", str(DEMOS / "cubic.gtrs"), "--pool", "a,x"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: pool terms must be ground\n"

    def test_max_configs_stops_the_search(self, capsys):
        peano = str(DEMOS / "peano.gtrs")
        assert main(["solve", peano, "--strategy", "lazy", "--max-configs", "5"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "(0 solutions, search config-limit)"
        main(["solve", peano, "--strategy", "lazy", "--max-configs", "5", "--json"])
        problem = json.loads(capsys.readouterr().out)["problems"][0]
        assert problem["stopped"] == "config-limit"
        assert problem["configs_expanded"] == 5
        main(["oracle", peano, "--verify", "--max-configs", "5"])
        assert capsys.readouterr().out.splitlines()[-1] == "(search config-limit)"
        with pytest.raises(SystemExit) as exc:
            main(["solve", peano, "--max-configs", "-1"])
        assert exc.value.code == 2

    def test_check_report(self, capsys):
        code = main(["check", str(DEMOS / "cubic.gtrs")])
        out = capsys.readouterr().out
        assert code == 0
        assert "right-ground=yes" in out and "balanced=yes" in out

    def test_check_unbalanced(self, capsys):
        main(["check", str(DEMOS / "unbalanced.gtrs")])
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert "balanced=no" in lines[0]
        assert "balanced=no" in lines[-1]

    def test_fuzzy_solve(self, capsys):
        code = main(["solve", str(DEMOS / "fuzzy.gtrs")])
        out = capsys.readouterr().out
        assert code == 0
        assert "solution {} degree 9/16" in out
