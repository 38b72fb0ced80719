"""Seeded generator of rule-file requests for the benchmark.

Owns its inputs: nothing here calls into qnarrow, so a library change cannot
change what the benchmark feeds it.  A request is the text of one `.gtrs`
file with 1-3 `solve` declarations over one rule system.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

DEMO_DIR = Path(__file__).resolve().parent / "demos"
DEMO_NAMES = ("chain", "cubic", "fuzzy", "innermost", "peano", "unbalanced")

# Family of each request slot, repeated: every prefix of the stream holds the
# families in nearly these proportions, so runs of different lengths (and
# seeds) see the same mix.  Within a family, the k-th request takes its
# coarse shape (rule system or quantale, rule and problem counts, and for
# arith the root symbols and thresholds) from k, cycling through every
# combination; the seed draws the rest.  This keeps the cost mix of a run
# nearly independent of the seed.
MIX = ("arith", "random", "arith", "arith", "arith", "demos", "arith", "random",
       "arith", "arith")

# -- arith: Peano-style systems over Z, S, + with an optional D or * ------------

_ARITH_SYSTEMS = {
    "plus": [],
    "double": ["fun D/1",
               "rule 0 : D(Z) -> Z",
               "rule 0 : D(S(x)) -> S(S(D(x)))"],
    "times": ["fun */2",
              "rule 0 : *(x, Z) -> Z",
              "rule 0 : *(x, S(y)) -> +(*(x, y), x)"],
}


def _numeral(k: int) -> str:
    return "S(" * k + "Z" + ")" * k


def _arith_term(rng: random.Random, extra: str, depth: int) -> str:
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        if rng.random() < 0.5:
            return rng.choice(("x", "x", "y"))
        return _numeral(rng.randint(0, 3))
    if extra == "double" and roll < 0.5:
        return f"D({_arith_term(rng, extra, depth - 1)})"
    if extra == "times" and roll < 0.5:
        return f"*({_arith_term(rng, extra, depth - 1)}, {_arith_term(rng, extra, depth - 1)})"
    if roll < 0.6:
        return f"S({_arith_term(rng, extra, depth - 1)})"
    return f"+({_arith_term(rng, extra, depth - 1)}, {_arith_term(rng, extra, depth - 1)})"


_ARITH_TOPS = {"plus": "+", "double": "D", "times": "*"}
_ARITH_THRESHOLDS = ("", " threshold 0", " threshold 1", " threshold 2")


def _arith_side(rng: random.Random, extra: str, top: str) -> str:
    """A problem side with the given root: a numeral (N) or a symbol.  A
    side is never a bare variable, nor a unary symbol over one: such a side
    is solved by nearly every reduct of the other, which swamps the output."""
    if top == "N":
        return _numeral(rng.randint(1, 3))
    if top in "+*":
        return f"{top}({_arith_term(rng, extra, 1)}, {_arith_term(rng, extra, 1)})"
    while True:
        arg = _arith_term(rng, extra, 1)
        if arg not in ("x", "y"):
            return f"{top}({arg})"


def arith_request(rng: random.Random, k: int) -> str:
    extra = tuple(_ARITH_SYSTEMS)[k % 3]
    n_problems = 1 + k // 3 % 3
    drop = "0" if k // 9 % 3 == 2 else "1"
    extra_fun, *extra_rules = _ARITH_SYSTEMS[extra] or [None]
    lines = ["quantale lawvere", "var x y", "fun Z/0", "fun S/1", "fun +/2"]
    lines += [extra_fun] if extra_fun else []
    lines += ["rule 0 : +(x, Z) -> x",
              "rule 0 : +(x, S(y)) -> S(+(x, y))",
              f"rule {drop} : S(x) -> x"]
    lines += extra_rules
    tops = ("+", "S", "N", _ARITH_TOPS[extra])
    for j in range(n_problems):
        p = 3 * k + j
        left = _arith_side(rng, extra, tops[p // 4 % 4])
        right = _arith_side(rng, extra, tops[p // 16 % 4])
        threshold = _ARITH_THRESHOLDS[p % 4]
        lines.append(f"solve {left} =? {right}{threshold}")
    return "\n".join(lines) + "\n"


# -- random: small systems over all five quantales ------------------------------

_QUANTALES = ("bool", "lawvere", "lawvere-max", "fuzzy-godel", "fuzzy-product")
_DEGREES = {
    "bool": ("1", "1", "0"),
    "lawvere": ("0", "1", "2", "1/2"),
    "lawvere-max": ("0", "1", "2", "1/2"),
    "fuzzy-godel": ("1", "1/2", "3/4", "1/4"),
    "fuzzy-product": ("1", "1/2", "3/4", "1/4"),
}
_SENSITIVITIES = {
    "bool": ("id", "id", "const"),
    "lawvere": ("id", "scale(2)", "scale(3)", "scale(1/2)", "const"),
    "lawvere-max": ("id", "scale(2)", "scale(3)", "scale(1/2)", "const"),
    "fuzzy-godel": ("id", "id", "const"),
    "fuzzy-product": ("id", "pow(2)", "pow(3)", "const"),
}
_CONSTANTS = ("a", "b", "c")


def _random_term(rng: random.Random, variables: list[str], depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        if variables and rng.random() < 0.5:
            return rng.choice(variables)
        return rng.choice(_CONSTANTS)
    if rng.random() < 0.55:
        return f"f({_random_term(rng, variables, depth - 1)})"
    return (f"g({_random_term(rng, variables, depth - 1)}, "
            f"{_random_term(rng, variables, depth - 1)})")


def _linear_term(rng: random.Random, variables: list[str], depth: int) -> str:
    """A term using each of `variables` exactly once."""
    if not variables:
        return _random_term(rng, [], depth)
    if depth == 0:
        return variables[0] if len(variables) == 1 else f"g({', '.join(variables)})"
    if len(variables) == 1 and rng.random() < 0.35:
        return variables[0]
    if len(variables) == 1 and rng.random() < 0.5:
        return f"f({_linear_term(rng, variables, depth - 1)})"
    split = rng.randint(0, len(variables))
    if rng.random() < 0.5:
        left, right = variables[:split], variables[split:]
    else:
        left, right = variables[split:], variables[:split]
    return f"g({_linear_term(rng, left, depth - 1)}, {_linear_term(rng, right, depth - 1)})"


def _linear_side(rng: random.Random, variables: list[str]) -> str:
    while True:
        side = _linear_term(rng, variables, 2)
        if side not in ("u", "w"):
            return side


def random_request(rng: random.Random, k: int) -> str:
    quantale = _QUANTALES[k % 5]
    n_rules = 1 + k // 5 % 4
    n_problems = 1 + k // 20 % 3
    sens = _SENSITIVITIES[quantale]
    lines = [f"quantale {quantale}", "var x y u w",
             "fun a/0", "fun b/0", "fun c/0",
             f"fun f/1 : ({rng.choice(sens)})",
             f"fun g/2 : ({rng.choice(sens)}, {rng.choice(sens)})"]
    for _ in range(n_rules):
        while True:
            lhs = _random_term(rng, ["x", "y"], 2)
            if lhs not in ("x", "y"):
                break
        rhs = _random_term(rng, sorted(set(re.findall(r"\b[xy]\b", lhs))), 2)
        lines.append(f"rule {rng.choice(_DEGREES[quantale])} : {lhs} -> {rhs}")
    for _ in range(n_problems):
        names = ["u", "w"][:rng.randint(1, 2)]
        split = rng.randint(0, len(names))
        left = _linear_side(rng, names[:split])
        right = _linear_side(rng, names[split:])
        threshold = ""
        if rng.random() < 0.5:
            threshold = f" threshold {rng.choice(_DEGREES[quantale])}"
        lines.append(f"solve {left} =? {right}{threshold}")
    return "\n".join(lines) + "\n"


def demo_text(name: str) -> str:
    return (DEMO_DIR / f"{name}.gtrs").read_text(encoding="utf-8")


def demo_request(rng: random.Random, k: int) -> str:
    return demo_text(DEMO_NAMES[k % len(DEMO_NAMES)])


_FAMILY = {"arith": arith_request, "random": random_request, "demos": demo_request}


def requests(seed: int, count: int) -> list[tuple[str, str]]:
    """(family, text) for the first `count` stream slots of a seed.

    Each slot draws from its own generator, so a slot's text does not depend
    on how many slots are generated after it.
    """
    out = []
    for slot in range(count):
        cycle, offset = divmod(slot, len(MIX))
        family = MIX[offset]
        k = cycle * MIX.count(family) + MIX[:offset].count(family)
        rng = random.Random(f"{seed}:{slot}")
        out.append((family, _FAMILY[family](rng, k)))
    return out
