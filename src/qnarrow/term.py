"""First-order terms over graded signatures.

Positions are 1-based index sequences (the root is the empty sequence,
printed `^`).  Variables carry an integer index besides their surface name;
index 0 is reserved for user-written variables and positive indices are
issued by a freshness counter, so variants never collide.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .quantale import (
    CBE_CONST,
    CBE_ID,
    Cbe,
    Quantale,
    cbe_admissible,
    cbe_compose,
    cbe_normalize,
    cbe_tensor,
)

EQ_SYMBOL = "=?"
TRUE_SYMBOL = "true"
RESERVED_SYMBOLS = (EQ_SYMBOL, TRUE_SYMBOL)


class TermError(ValueError):
    pass


class InvalidPositionError(TermError):
    pass


class SignatureError(TermError):
    pass


class SubstitutionError(TermError):
    pass


class _Frozen:
    """Base of the immutable term classes: each fills its slots once, in its
    constructor, through the slot descriptors.  Hash, equality and repr are
    those of a frozen dataclass with the same fields, the hash cached."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Var(_Frozen):
    # variables key every bindings dict, so the hash is cached
    __slots__ = ("name", "index", "_hash")

    def __init__(self, name: str, index: int = 0):
        _set_var_name(self, name)
        _set_var_index(self, index)
        _set_var_hash(self, hash((name, index)))

    def __reduce__(self):
        return Var, (self.name, self.index)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Var):
            return NotImplemented
        return (self._hash == other._hash and self.name == other.name
                and self.index == other.index)

    def __repr__(self):
        return f"Var(name={self.name!r}, index={self.index!r})"

    def __str__(self):
        return self.name if self.index == 0 else f"{self.name}'{self.index}"


_set_var_name = Var.name.__set__
_set_var_index = Var.index.__set__
_set_var_hash = Var._hash.__set__


class App(_Frozen):
    # terms are dict keys throughout the search loops, so the hash is cached
    # per node instead of re-walking the tree
    __slots__ = ("symbol", "args", "_hash")

    def __init__(self, symbol: str, args: tuple["Term", ...] = ()):
        if type(args) is not tuple:
            args = tuple(args)
        _set_app_symbol(self, symbol)
        _set_app_args(self, args)
        _set_app_hash(self, hash((symbol, args)))

    def __reduce__(self):
        return App, (self.symbol, self.args)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, App):
            return NotImplemented
        if self._hash != other._hash:
            return False
        # argument pairs are compared from an explicit stack, so deep terms
        # do not exhaust the interpreter's recursion limit
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a.symbol != b.symbol or len(a.args) != len(b.args):
                return False
            for x, y in zip(a.args, b.args):
                if x is y:
                    continue
                if type(x) is App and type(y) is App:
                    if x._hash != y._hash:
                        return False
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __repr__(self):
        return f"App(symbol={self.symbol!r}, args={self.args!r})"

    def __str__(self):
        # rendered from an explicit stack of pending pieces (terms and
        # literal text, last piece on top), so deep terms do not exhaust
        # the interpreter's recursion limit
        out = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
            elif isinstance(item, Var):
                out.append(str(item))
            elif not item.args:
                out.append(item.symbol)
            elif item.symbol == EQ_SYMBOL and len(item.args) == 2:
                stack += (item.args[1], " =? ", item.args[0])
            else:
                args = item.args
                stack.append(")")
                for i in range(len(args) - 1, 0, -1):
                    stack += (args[i], ", ")
                stack += (args[0], item.symbol + "(")
        return "".join(out)


_set_app_symbol = App.symbol.__set__
_set_app_args = App.args.__set__
_set_app_hash = App._hash.__set__

Term = Union[Var, App]
Position = tuple[int, ...]
ROOT: Position = ()


def position_to_str(p: Position) -> str:
    return "^" if not p else ".".join(str(i) for i in p)


def position_from_str(text: str) -> Position:
    text = text.strip()
    if text == "^":
        return ROOT
    try:
        return tuple(int(part) for part in text.split("."))
    except ValueError as exc:
        raise InvalidPositionError(f"bad position {text!r}") from exc


def is_prefix(p: Position, q: Position) -> bool:
    return len(p) <= len(q) and q[: len(p)] == p


class Signature:
    """Maps each function symbol to its tuple of argument CBEs.

    Arities are normalized and checked for admissibility against the
    quantale on construction.  The reserved symbols used by the joinability
    encoding can only enter through extend().
    """

    def __init__(self, quantale: Quantale, symbols: Mapping[str, Sequence[Cbe]],
                 _allow_reserved: bool = False):
        self.quantale = quantale
        table: dict[str, tuple[Cbe, ...]] = {}
        for name, arity in symbols.items():
            if name in RESERVED_SYMBOLS and not _allow_reserved:
                raise SignatureError(f"symbol {name!r} is reserved")
            if name in table:
                raise SignatureError(f"symbol {name!r} declared twice")
            cbes = []
            for f in arity:
                if not cbe_admissible(quantale, f):
                    raise SignatureError(
                        f"CBE {f!r} not admitted by {quantale.value} (symbol {name!r})")
                cbes.append(cbe_normalize(quantale, f))
            table[name] = tuple(cbes)
        self._symbols = table

    @property
    def symbols(self) -> dict[str, tuple[Cbe, ...]]:
        return dict(self._symbols)

    def names(self) -> tuple[str, ...]:
        return tuple(self._symbols)

    def has(self, name: str) -> bool:
        return name in self._symbols

    def arity(self, name: str) -> tuple[Cbe, ...]:
        try:
            return self._symbols[name]
        except KeyError:
            raise SignatureError(f"unknown symbol {name!r}") from None

    def constants(self) -> tuple[str, ...]:
        return tuple(n for n, a in self._symbols.items() if not a)

    @property
    def is_extended(self) -> bool:
        return EQ_SYMBOL in self._symbols

    def extend(self) -> "Signature":
        """Add the reserved equation symbol and truth constant."""
        if self.is_extended or TRUE_SYMBOL in self._symbols:
            raise SignatureError("signature already carries the reserved symbols")
        table = dict(self._symbols)
        table[EQ_SYMBOL] = (CBE_ID, CBE_ID)
        table[TRUE_SYMBOL] = ()
        return Signature(self.quantale, table, _allow_reserved=True)

    def __eq__(self, other):
        return (isinstance(other, Signature)
                and self.quantale is other.quantale
                and self._symbols == other._symbols)

    def __repr__(self):
        return f"Signature({self.quantale.value}, {self._symbols!r})"


def iter_subterms(t: Term) -> Iterator[tuple[Position, Term]]:
    """(position, subterm) pairs in left-to-right preorder."""
    stack: list[tuple[Position, Term]] = [(ROOT, t)]
    while stack:
        p, node = stack.pop()
        yield p, node
        if isinstance(node, App):
            for i in range(len(node.args), 0, -1):
                stack.append((p + (i,), node.args[i - 1]))


def positions(t: Term) -> list[Position]:
    """All positions of t in left-to-right preorder."""
    return [p for p, _ in iter_subterms(t)]


def fun_positions(t: Term) -> list[Position]:
    return [p for p, node in iter_subterms(t) if isinstance(node, App)]


def var_positions(t: Term) -> list[Position]:
    return [p for p, node in iter_subterms(t) if isinstance(node, Var)]


def subterm_at(t: Term, p: Position) -> Term:
    node = t
    for i in p:
        if not isinstance(node, App) or not 1 <= i <= len(node.args):
            raise InvalidPositionError(f"position {position_to_str(p)} not in {t}")
        node = node.args[i - 1]
    return node


def replace_at(t: Term, p: Position, s: Term) -> Term:
    if not p:
        return s
    if not isinstance(t, App) or not 1 <= p[0] <= len(t.args):
        raise InvalidPositionError(f"position {position_to_str(p)} not in {t}")
    i = p[0]
    args = list(t.args)
    args[i - 1] = replace_at(args[i - 1], p[1:], s)
    return App(t.symbol, tuple(args))


def instantiate(t: Term, image: Callable[[Var], Optional[Term]]) -> Term:
    """t with each variable x replaced by image(x), or kept where that is
    None.  A subterm left unchanged is returned as it is, not rebuilt."""
    if isinstance(t, Var):
        out = image(t)
        return t if out is None else out
    if not t.args:
        return t
    args = tuple([instantiate(a, image) for a in t.args])
    return t if args == t.args else App(t.symbol, args)


def vars_of(t: Term) -> set[Var]:
    out: set[Var] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node)
        else:
            stack.extend(node.args)
    return out


def vars_of_all(terms: Iterable[Term]) -> set[Var]:
    out: set[Var] = set()
    for t in terms:
        out |= vars_of(t)
    return out


def is_ground(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    return all(is_ground(a) for a in t.args)


def is_linear(t: Term) -> bool:
    seen: set[Var] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            if node in seen:
                return False
            seen.add(node)
        else:
            stack.extend(node.args)
    return True


def term_size(t: Term) -> int:
    return 1 + sum(term_size(a) for a in t.args) if isinstance(t, App) else 1

def term_depth(t: Term) -> int:
    if isinstance(t, Var) or not t.args:
        return 1
    return 1 + max(term_depth(a) for a in t.args)


def grade_of_position(sig: Signature, t: Term, p: Position) -> Cbe:
    """The CBE accumulated by the argument sensitivities along the path to p."""
    acc = CBE_ID
    node = t
    for i in p:
        if not isinstance(node, App) or not 1 <= i <= len(node.args):
            raise InvalidPositionError(f"position {position_to_str(p)} not in {t}")
        acc = cbe_compose(sig.quantale, acc, sig.arity(node.symbol)[i - 1])
        node = node.args[i - 1]
    return cbe_normalize(sig.quantale, acc)


def graded_subterms(sig: Signature, t: Term) -> Iterator[tuple[Position, App, Cbe]]:
    """(position, subterm, grade) for every non-variable subterm of t in
    left-to-right preorder, each grade composed from its parent's; it equals
    grade_of_position(sig, t, position) without re-walking the path."""
    quantale = sig.quantale
    stack = [] if isinstance(t, Var) else [(ROOT, t, cbe_normalize(quantale, CBE_ID))]
    while stack:
        p, node, grade = stack.pop()
        yield p, node, grade
        if node.args:
            cbes = sig.arity(node.symbol)
            for i in range(len(node.args), 0, -1):
                arg = node.args[i - 1]
                if isinstance(arg, App):
                    stack.append((p + (i,), arg, cbe_compose(quantale, grade, cbes[i - 1])))


def grade_of_var(sig: Signature, t: Term, x: Var) -> Cbe:
    """Tensor of position grades over all occurrences of x, const if absent."""
    occurrences = [p for p in var_positions(t) if subterm_at(t, p) == x]
    if not occurrences:
        return CBE_CONST
    acc = grade_of_position(sig, t, occurrences[0])
    for p in occurrences[1:]:
        acc = cbe_tensor(sig.quantale, acc, grade_of_position(sig, t, p))
    return acc


class Substitution:
    """A finite, idempotent map from variables to terms.

    Identity bindings are dropped; construction rejects non-idempotent maps
    (a domain variable occurring in some range term).
    """

    __slots__ = ("_map",)

    def __init__(self, mapping: Mapping[Var, Term] | None = None):
        m = {x: t for x, t in (mapping or {}).items() if t != x}
        ran_vars = vars_of_all(m.values())
        if ran_vars & m.keys():
            raise SubstitutionError(f"not idempotent: {m}")
        self._map = m

    @classmethod
    def trusted(cls, mapping: dict[Var, Term]) -> "Substitution":
        """Wrap a map its builder knows to be idempotent and free of
        identity bindings, without copying or checking it."""
        subst = object.__new__(cls)
        subst._map = mapping
        return subst

    @property
    def is_identity(self) -> bool:
        return not self._map

    def domain(self) -> set[Var]:
        return set(self._map)

    def items(self):
        return self._map.items()

    def get(self, x: Var) -> Term:
        return self._map.get(x, x)

    def apply(self, t: Term) -> Term:
        return instantiate(t, self._map.get) if self._map else t

    def compose(self, other: "Substitution") -> "Substitution":
        """self then other; rejects compositions that break idempotency."""
        m = {x: other.apply(t) for x, t in self._map.items()}
        for x, t in other.items():
            if x not in self._map:
                m[x] = t
        return Substitution(m)

    def restrict(self, keep: Iterable[Var]) -> "Substitution":
        keep = set(keep)
        return Substitution({x: t for x, t in self._map.items() if x in keep})

    def __eq__(self, other):
        return isinstance(other, Substitution) and self._map == other._map

    def __hash__(self):
        return hash(frozenset(self._map.items()))

    def __len__(self):
        return len(self._map)

    def __str__(self):
        entries = sorted(self._map.items(), key=lambda kv: (kv[0].name, kv[0].index))
        inner = ", ".join(f"{x} -> {t}" for x, t in entries)
        return "{" + inner + "}"

    def __repr__(self):
        return f"Substitution({self._map!r})"


IDENTITY = Substitution()


def max_var_index(terms: Iterable[Term]) -> int:
    """Largest variable index occurring in the given terms (0 if none)."""
    best = 0
    for t in terms:
        for x in vars_of(t):
            best = max(best, x.index)
    return best


class FreshCounter:
    """Issues strictly increasing variable indices; one owner per search run."""

    __slots__ = ("value",)

    def __init__(self, start: int = 1):
        self.value = start

    def next(self) -> int:
        v = self.value
        self.value += 1
        return v


def fresh_variant(terms, counter: FreshCounter):
    """Rename every variable of a term (or a sequence of terms, renamed
    consistently) to a never-issued indexed variable, numbered in
    left-to-right order of first occurrence."""
    renaming: dict[Var, Var] = {}

    def image(x: Var) -> Var:
        v = renaming.get(x)
        if v is None:
            v = renaming[x] = Var(x.name, counter.next())
        return v

    if isinstance(terms, (Var, App)):
        return instantiate(terms, image)
    return tuple([instantiate(t, image) for t in terms])
