"""Text format for rule files and rendering of solver output.

The format is line oriented (a line ends at \\n, \\r\\n or \\r); `#` starts a
comment.

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
from typing import NoReturn, Optional

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


_NAME = r"[A-Za-z_][A-Za-z0-9_]*|[+*-]"
_NAME_RE = re.compile(_NAME)

# Parsing is a fixed cost of every request, so the tokens of a line are
# just the strings one `findall` returns for it, read by index: no object
# is built per token (a kind is told from the text where a check needs
# it), and a token's column is found only for an error message, by
# scanning the line again.  Each match takes the whitespace after its token
# (taking the whitespace before it would make a line that ends in blanks
# quadratic to scan).  A comment runs to the end of the text scanned, and
# the bare `\S` that ends the pattern reads an unexpected character as the
# empty token.
_TOKEN_RE = re.compile(
    rf"""(?:(
        \#.*                            # a comment
      | -> | =\?
      | [0-9]+(?:/[0-9]+)?              # a number
      | {_NAME}
      | [(),:;/]
    ) | \S )\s*""",
    re.VERBOSE | re.DOTALL)

# Lines end where `open` ends them in text mode.
_LINE_END = re.compile(r"\r\n|\r|\n")


def _quote(text: str) -> str:
    """A token quoted, or past 40 characters named by its length."""
    return repr(text) if len(text) <= 40 else f"<{len(text)} characters>"


class _Reader:
    """Reads the rule-file format a line at a time.  Each reader of a
    declaration or a term takes the index of its first token and returns
    the index after its last."""

    def __init__(self, filename: str):
        self.filename = filename
        self.quantale: Optional[Quantale] = None
        self.variables: dict[str, Var] = {}
        self.symbols: dict[str, tuple[Cbe, ...]] = {}
        self.rules: list[RewriteRule] = []
        self.problems: list[Problem] = []
        # Degree and threshold texts already read.  A degree is immutable
        # and the quantale is fixed once declared, so each literal (most are
        # 0 or 1) is read and checked once per parse call.
        self.degrees: dict[str, QuantaleValue] = {}
        self.line = ""
        self.line_no = 0
        self.tokens: list[str] = []

    def read(self, text: str) -> ProblemFile:
        for line_no, line in enumerate(_LINE_END.split(text), start=1):
            tokens = self.scan(line, line_no)
            head = tokens[0]
            if not head:
                continue
            declaration = self._DECLARATIONS.get(head)
            if declaration is None:
                self.fail(f"unknown declaration {_quote(head)}", 0)
            i = declaration(self, 1)
            if not self.at_end(i):
                self.fail(f"trailing input {_quote(tokens[i])}", i)
        if self.quantale is None:
            raise GtrsError("missing quantale declaration", 1, 1, self.filename)
        signature = Signature(self.quantale, self.symbols)
        trs = GradedTrs(signature, self.rules)
        return ProblemFile(self.quantale, tuple(self.variables.values()),
                           signature, trs, tuple(self.problems))

    # -- tokens -----------------------------------------------------------

    def scan(self, line: str, line_no: int) -> list[str]:
        """Make `line` the current line and return its tokens, ended by the
        empty token, which matches no text a reader looks for."""
        tokens = _TOKEN_RE.findall(line)
        if tokens and tokens[-1][:1] == "#":
            tokens.pop()
        self.line, self.line_no, self.tokens = line, line_no, tokens
        if "" in tokens:
            col = self.column(tokens.index(""))
            raise GtrsError(f"unexpected character {line[col - 1]!r}", line_no, col,
                            self.filename)
        tokens.append("")
        return tokens

    def column(self, i: int) -> int:
        """The column of token i of the line; 1 when the line has none."""
        if i < 0:
            return 1
        return [m.start() for m in _TOKEN_RE.finditer(self.line)][i] + 1

    def fail(self, message: str, i: Optional[int] = None) -> NoReturn:
        """Raise GtrsError at token i of the line, or at its last token."""
        i = len(self.tokens) - 2 if i is None else i
        raise GtrsError(message, self.line_no, self.column(i), self.filename)

    def token(self, i: int, expected: str) -> str:
        """Token i, which the line must have; `expected` names it."""
        token = self.tokens[i]
        if not token:
            self.fail(f"unexpected end of line (expected {expected})")
        return token

    def expect(self, i: int, text: str) -> int:
        token = self.token(i, repr(text))
        if token != text:
            self.fail(f"expected {text!r}, found {_quote(token)}", i)
        return i + 1

    def at_end(self, i: int) -> bool:
        # a trailing semicolon is tolerated on every line
        token = self.tokens[i]
        return not token or (token == ";" and not self.tokens[i + 1])

    def whole_number(self, i: int, what: str, limit: int) -> int:
        """Token i as a whole number at most limit, its digits counted
        before it is read."""
        text = self.tokens[i]
        if not text.isdecimal():
            self.fail(f"{what} must be a whole number, found {_quote(text)}", i)
        digits = text.lstrip("0") or "0"
        if len(digits) > len(str(limit)) or int(digits) > limit:
            self.fail(f"{what} exceeds the limit of {limit}", i)
        return int(digits)

    # -- declarations -----------------------------------------------------

    def need_quantale(self) -> Quantale:
        if self.quantale is None:
            self.fail("quantale must be declared first")
        return self.quantale

    def declare_quantale(self, i: int) -> int:
        if self.quantale is not None:
            self.fail("duplicate quantale declaration")
        end = i
        while not self.at_end(end):
            end += 1
        name = "".join(self.tokens[i:end])
        if name not in _QUANTALE_NAMES:
            self.fail(f"unknown quantale {_quote(name)} (expected one of "
                      f"{', '.join(sorted(_QUANTALE_NAMES))})")
        self.quantale = _QUANTALE_NAMES[name]
        return end

    def declare_var(self, i: int) -> int:
        if self.at_end(i):
            self.fail("empty variable declaration")
        while not self.at_end(i):
            name = self.tokens[i]
            if not _NAME_RE.fullmatch(name):
                self.fail(f"expected a variable name, found {_quote(name)}", i)
            if name in RESERVED_SYMBOLS:
                self.fail(f"{_quote(name)} is reserved", i)
            if name in self.variables or name in self.symbols:
                self.fail(f"{_quote(name)} already declared", i)
            self.variables[name] = Var(name)
            i += 1
        return i

    def declare_fun(self, i: int) -> int:
        quantale = self.need_quantale()
        tokens = self.tokens
        name = self.token(i, "a function symbol")
        if not _NAME_RE.fullmatch(name):
            self.fail(f"expected a function symbol, found {_quote(name)}", i)
        if name in RESERVED_SYMBOLS:
            self.fail(f"{_quote(name)} is reserved", i)
        if name in self.symbols or name in self.variables:
            self.fail(f"{_quote(name)} already declared", i)
        at = i
        i = self.expect(i + 1, "/")
        self.token(i, "an arity")
        arity = self.whole_number(i, "arity", MAX_ARITY)
        i += 1
        cbes: tuple[Cbe, ...]
        if self.at_end(i):
            cbes = (CBE_ID,) * arity
        else:
            i = self.expect(self.expect(i, ":"), "(")
            parsed = []
            if tokens[i] and tokens[i] != ")":
                cbe, i = self.cbe(i, quantale)
                parsed.append(cbe)
                while tokens[i] == ",":
                    cbe, i = self.cbe(i + 1, quantale)
                    parsed.append(cbe)
            i = self.expect(i, ")")
            if len(parsed) != arity:
                self.fail(f"arity mismatch: {_quote(name)} declared /{arity} but "
                          f"{len(parsed)} argument CBEs given", at)
            cbes = tuple(parsed)
        self.symbols[name] = cbes
        return i

    def cbe(self, i: int, quantale: Quantale) -> tuple[Cbe, int]:
        word = self.token(i, "a CBE literal")
        if word == "id":
            return CBE_ID, i + 1
        if word == "const":
            return CBE_CONST, i + 1
        if word in ("scale", "pow"):
            at = self.expect(i + 1, "(")
            number = self.token(at, "a number")
            end = self.expect(at + 1, ")")
            try:
                cbe = (CbePow(self.whole_number(at, "pow exponent", MAX_POW))
                       if word == "pow"
                       else CbeScale(read_number(number, f"scale factor {_quote(number)}")))
            except QuantaleError as exc:
                self.fail(str(exc), at)
            if not cbe_admissible(quantale, cbe):
                self.fail(f"CBE {word!r} is not admitted by {quantale.value}", i)
            return cbe, end
        self.fail(f"expected a CBE literal (id, const, scale(c), pow(n)), "
                  f"found {_quote(word)}", i)

    def degree(self, i: int) -> tuple[QuantaleValue, int]:
        text = self.tokens[i]
        degree = self.degrees.get(text)
        if degree is None:
            self.token(i, "a degree")
            try:
                degree = self.quantale.parse_degree(text)
            except CarrierError as exc:
                self.fail(f"inadmissible degree: {exc}", i)
            self.degrees[text] = degree
        return degree, i + 1

    # -- terms ------------------------------------------------------------

    def term(self, i: int) -> tuple[Term, int]:
        # The tables hold only names a declaration could make: name tokens,
        # none reserved (_parse_standalone filters a caller's tables to
        # those).  So a token found there is a term, and the checks on any
        # other token run only to say which error it is.
        tokens = self.tokens
        name = tokens[i]
        variable = self.variables.get(name)
        if variable is not None:
            if tokens[i + 1] == "(":
                self.fail(f"variable {_quote(name)} cannot take arguments", i)
            return variable, i + 1
        cbes = self.symbols.get(name)
        if cbes is None:
            self.not_a_term(i)
        at = i
        i += 1
        args = []
        if tokens[i] == "(":
            i += 1
            if tokens[i] and tokens[i] != ")":
                arg, i = self.term(i)
                args.append(arg)
                while tokens[i] == ",":
                    arg, i = self.term(i + 1)
                    args.append(arg)
            if tokens[i] != ")":
                self.expect(i, ")")
            i += 1
        if len(args) != len(cbes):
            self.fail(f"arity mismatch: {_quote(name)} takes {len(cbes)} arguments, "
                      f"got {len(args)}", at)
        return App(name, tuple(args)), i

    def not_a_term(self, i: int) -> NoReturn:
        name = self.token(i, "a term")
        if name in RESERVED_SYMBOLS:
            self.fail(f"{_quote(name)} is reserved and cannot appear in terms", i)
        if not _NAME_RE.fullmatch(name):
            self.fail(f"expected a term, found {_quote(name)}", i)
        self.fail(f"unknown symbol {_quote(name)} (declare functions with 'fun' "
                  f"and variables with 'var')", i)

    # -- rules and problems -----------------------------------------------

    def add_rule(self, i: int) -> int:
        self.need_quantale()
        degree, end = self.degree(i)
        lhs, end = self.term(self.expect(end, ":"))
        rhs, end = self.term(self.expect(end, "->"))
        try:
            self.rules.append(RewriteRule(degree, lhs, rhs))
        except TrsError as exc:
            self.fail(str(exc), i)
        return end

    def add_problem(self, i: int) -> int:
        self.need_quantale()
        left, i = self.term(i)
        right, i = self.term(self.expect(i, "=?"))
        threshold = None
        if self.tokens[i] == "threshold":
            threshold, i = self.degree(i + 1)
        self.problems.append(Problem(left, right, threshold))
        return i

    _DECLARATIONS = {"quantale": declare_quantale, "var": declare_var, "fun": declare_fun,
                     "rule": add_rule, "solve": add_problem}


def parse(text: str, filename: str = "<input>") -> ProblemFile:
    """Parse the rule-file format; raises GtrsError with a position.  Lines
    end at \\n, \\r\\n or \\r."""
    return _Reader(filename).read(text)


def parse_file(path) -> ProblemFile:
    """Parse a UTF-8 rule file, which may start with a byte-order mark; a
    byte that is not UTF-8 is a GtrsError at its line and column."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the bytes after the mark, if any, and the offset in them
        data, start = exc.object, exc.start
        lines = _LINE_END.split(data[:start].decode("utf-8"))
        raise GtrsError(f"byte 0x{data[start]:02x} is not UTF-8", len(lines),
                        len(lines[-1]) + 1, str(path)) from None
    return parse(text, filename=str(path))


def _parse_standalone(pf: ProblemFile, text: str, many: bool) -> list[Term]:
    reader = _Reader("<term>")
    reader.quantale = pf.quantale

    # only a name the format could declare is read as a variable or symbol
    def readable(name: str) -> bool:
        return _NAME_RE.fullmatch(name) is not None and name not in RESERVED_SYMBOLS

    reader.variables = {v.name: v for v in pf.variables if readable(v.name)}
    reader.symbols = {name: cbes for name, cbes in pf.signature.symbols.items()
                      if readable(name)}
    tokens = reader.scan(text, 1)
    term, i = reader.term(0)
    terms = [term]
    while many and tokens[i] == ",":
        term, i = reader.term(i + 1)
        terms.append(term)
    if not reader.at_end(i):
        reader.fail(f"trailing input {_quote(tokens[i])}", i)
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
