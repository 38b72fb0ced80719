"""Text format for rule files and rendering of solver output.

The format is line oriented; `#` starts a comment.

    quantale lawvere
    var x y
    fun S/1
    fun +/2 : (id, id)
    rule 0 : +(x, Z) -> x
    solve +(x, S(Z)) =? +(+(x, x), x) threshold 1

Variables must be declared (the usual case conventions would not work here:
constants and variables are both lowercase in practice).  The reserved
tokens `=?` and `true` never appear in user terms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .quantale import (
    CBE_CONST,
    CBE_ID,
    CarrierError,
    Cbe,
    CbePow,
    CbeScale,
    Quantale,
    QuantaleError,
    QuantaleValue,
    cbe_admissible,
    read_number,
)
from .rewrite import GradedTrs, RewriteRule, TrsError, TrsReport
from .narrow import BqTraceStep, Solution
from .term import (
    App,
    RESERVED_SYMBOLS,
    Signature,
    Term,
    Var,
    position_to_str,
)

_QUANTALE_NAMES = {q.value: q for q in Quantale}

# The largest arity a `fun` declaration may give, and the largest exponent
# of a `pow(n)` sensitivity; a larger one is an error.
MAX_ARITY = 256
MAX_POW = 64


class GtrsError(Exception):
    """A parse or validation error with its source position."""

    def __init__(self, message: str, line: int, col: int, filename: str = "<input>"):
        super().__init__(f"{filename}:{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.filename = filename


@dataclass(frozen=True)
class Problem:
    left: Term
    right: Term
    threshold: Optional[QuantaleValue]


@dataclass(frozen=True)
class ProblemFile:
    quantale: Quantale
    variables: tuple[Var, ...]
    signature: Signature
    trs: GradedTrs
    problems: tuple[Problem, ...]


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


def _quote(text: str) -> str:
    """A token quoted, or past 40 characters named by its length."""
    return repr(text) if len(text) <= 40 else f"<{len(text)} characters>"


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


def parse(text: str, filename: str = "<input>") -> ProblemFile:
    """Parse the rule-file format; raises GtrsError with a position."""
    return _Parser(filename).parse(text)


def parse_file(path) -> ProblemFile:
    with open(path, encoding="utf-8") as handle:
        return parse(handle.read(), filename=str(path))


def _parse_standalone(pf: ProblemFile, text: str, many: bool) -> list[Term]:
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


def parse_term_text(pf: ProblemFile, text: str) -> Term:
    """Parse a standalone term against a file's declarations."""
    return _parse_standalone(pf, text, many=False)[0]


def parse_terms_text(pf: ProblemFile, text: str) -> tuple[Term, ...]:
    """Parse standalone terms against a file's declarations, separated by
    the commas that lie outside every argument list."""
    return tuple(_parse_standalone(pf, text, many=True))


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------


def render_solution(solution: Solution) -> str:
    line = f"solution {solution.subst} degree {solution.degree}"
    if solution.dominated:
        line += "  (dominated)"
    return line


def render_constraints(constraints) -> str:
    inner = ", ".join(sorted(f"{a} = {b}" for a, b in constraints))
    return "{" + inner + "}"


def render_trace_step(step: BqTraceStep) -> str:
    pos = position_to_str(step.position) if step.position is not None else "-"
    rule = str(step.rule_index + 1) if step.rule_index is not None else "-"
    return (f"{step.tag} {pos} {rule} | {step.goal} ; "
            f"{render_constraints(step.constraints)} ; {step.subst} ; {step.degree}")


def render_trace(trace) -> list[str]:
    return [render_trace_step(step) for step in trace]


def render_rewrite_trace(start: Term, steps) -> list[str]:
    lines = []
    current = start
    for step in steps:
        lines.append(f"{position_to_str(step.position)}: {current} -> "
                     f"{step.result} @ {step.degree}")
        current = step.result
    return lines


def render_check_report(trs: GradedTrs, report: TrsReport) -> list[str]:
    def flag(b: bool) -> str:
        return "yes" if b else "no"

    lines = []
    for i, (rule, attrs) in enumerate(zip(trs.rules, report.per_rule), start=1):
        lines.append(
            f"rule {i}: {rule}  left-linear={flag(attrs.left_linear)} "
            f"right-linear={flag(attrs.right_linear)} "
            f"right-ground={flag(attrs.right_ground)} balanced={flag(attrs.balanced)}")
    lines.append(
        f"system: left-linear={flag(report.left_linear)} "
        f"right-linear={flag(report.right_linear)} "
        f"right-ground={flag(report.right_ground)} "
        f"balanced={flag(report.balanced)} "
        f"confluent-declared={flag(report.confluent_declared)}")
    return lines
