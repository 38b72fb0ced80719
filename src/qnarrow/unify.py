"""Syntactic first-order unification and one-sided matching.

One solver serves every caller.  It keeps its solution in triangular form:
a dict of bindings in which a bound variable may map to a term that still
mentions other bound variables.  Each side of a pending equation is walked
(its variable chain followed) only as far as needed, and the occurs check
runs on walked terms, so no binding ever rewrites the pending work or the
earlier bindings.  Resolving the bindings once yields the idempotent mgu.

Because the bindings are an ordinary dict, a solved form can be extended by
further equations later: solving a new equation against the solved form of
a set decides unifiability of the enlarged set without re-solving it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from .term import App, Substitution, Term, Var, instantiate

Equation = tuple[Term, Term]
EquationSet = Iterable[Equation]
# triangular bindings: resolution chains are acyclic, no variable is rebound
Bindings = dict


@dataclass(frozen=True)
class UnifyFailure:
    """Why a unification problem has no solution."""

    reason: str  # "clash" or "occurs"
    left: Term
    right: Term

    def __str__(self):
        return f"{self.reason}: {self.left} vs {self.right}"


def _resolver(bindings: Bindings):
    """The image of triangular bindings for `instantiate`: each bound
    variable's resolution, computed once and shared."""
    done: dict = {}

    def image(x: Var) -> Optional[Term]:
        out = done.get(x)
        if out is None and x in bindings:
            out = done[x] = instantiate(bindings[x], image)
        return out

    return image


def resolve(t: Term, bindings: Bindings) -> Term:
    """t with every bound variable replaced, transitively, by its binding."""
    return instantiate(t, _resolver(bindings))


def _occurs(x: Var, t: Term, bindings: Bindings) -> bool:
    stack = [t]
    while stack:
        t = stack.pop()
        while isinstance(t, Var):
            bound = bindings.get(t)
            if bound is None:
                break
            t = bound
        if isinstance(t, Var):
            if t == x:
                return True
        else:
            stack.extend(t.args)
    return False


def _bind(a: Term, b: Term, bindings: Bindings,
          occurs_check: bool = True) -> Optional[tuple[str, Term, Term]]:
    """Bind for the walked, unequal sides a and b, one of them a variable:
    of two variables the fresher, by (index, name), is bound, which keeps
    problem variables (and therefore the rendered output) stable under
    renaming; else the variable, unless it occurs in the other side."""
    x, t = (a, b) if isinstance(a, Var) else (b, a)
    if isinstance(t, Var):
        if (t.index, t.name) > (x.index, x.name):
            x, t = t, x
    elif occurs_check and _occurs(x, t, bindings):
        return "occurs", x, t
    bindings[x] = t
    return None


def _solve(work: list, bindings: Bindings) -> Optional[tuple[str, Term, Term]]:
    """Solve the equations in `work` (popped from the end) modulo the
    bindings, adding new bindings in place.  Returns None, or the failure's
    reason and its two walked (not resolved) sides; the bindings then hold a
    partial extension.

    The pop order and the choice of the bound variable (`_bind`) are those
    of the transformation-style algorithm that applies each binding to all
    pending equations at once, so resolving the result gives exactly its
    unifier.
    """
    get = bindings.get
    while work:
        a, b = work.pop()
        while isinstance(a, Var):
            bound = get(a)
            if bound is None:
                break
            a = bound
        while isinstance(b, Var):
            bound = get(b)
            if bound is None:
                break
            b = bound
        if a == b:
            continue
        if isinstance(a, Var) or isinstance(b, Var):
            failure = _bind(a, b, bindings)
            if failure is not None:
                return failure
            continue
        if a.symbol != b.symbol or len(a.args) != len(b.args):
            return "clash", a, b
        work.extend(zip(a.args, b.args))
    return None


def unifiable_variant(pattern: Term, fresh: Callable[[Var], Var], linear: bool,
                      subject: Term, bindings: Bindings) -> bool:
    """Whether the variant of `pattern` that renames each of its variables x
    to fresh(x) unifies with `subject` modulo the bindings.  The bindings are
    extended exactly as `unifiable(((variant, subject),), bindings)` extends
    them, binding for binding and in the same order, but the variant is
    built only where a part of it gets bound.

    The fresh variables must occur neither in the bindings nor in the
    subject, and `linear` must say whether no variable occurs twice in the
    pattern.  Then a variable of a linear pattern is reached once, unbound
    and in no binding, so its binding and every binding to a part of the
    pattern pass the occurs check, which runs only for a repeated variable.
    The pattern's own pairs are taken in `_solve`'s pop order, and a pair
    whose pattern side is a repeated variable is solved by `_solve` itself,
    pairs it pushes before those pending.
    """
    get = bindings.get
    work = [(pattern, subject)]
    while work:
        p, b = work.pop()
        while isinstance(b, Var):
            bound = get(b)
            if bound is None:
                break
            b = bound
        if isinstance(p, Var):
            if linear:
                _bind(fresh(p), b, bindings, False)
            elif _solve([(fresh(p), b)], bindings) is not None:
                return False
        elif isinstance(b, Var):
            if _bind(b, instantiate(p, fresh), bindings, not linear) is not None:
                return False
        elif p.symbol != b.symbol or len(p.args) != len(b.args):
            return False
        else:
            # an equal pair would be skipped whole where this decomposes it:
            # its pairs are then equal too and bind nothing
            work.extend(zip(p.args, b.args))
    return True


def resolve_all(bindings: Bindings) -> dict:
    """The idempotent map denoted by triangular bindings, keyed in the order
    the bindings were made.  The map has no identity bindings, so it can be
    wrapped with `Substitution.trusted`."""
    image = _resolver(bindings)
    return {x: image(x) for x in bindings}


def mgu(equations: EquationSet) -> Union[Substitution, UnifyFailure]:
    """Most general idempotent unifier of a set of term pairs, or why there
    is none (with both sides fully instantiated).

    The solved form is resolved once at the end.  A variable never occurs in
    the resolution of a variable bound after it, so the result is idempotent
    by construction and skips Substitution's check.
    """
    bindings: Bindings = {}
    failure = _solve(list(equations), bindings)
    if failure is not None:
        reason, left, right = failure
        return UnifyFailure(reason, resolve(left, bindings), resolve(right, bindings))
    return Substitution.trusted(resolve_all(bindings))


def unifiable(equations: EquationSet, bindings: Optional[Bindings] = None) -> bool:
    """Whether the equations have a unifier.

    With `bindings`, a triangular solved form (of earlier equations, or a
    search state's substitution), the equations are solved modulo it and
    it is extended in place to the solved form of everything; after a False
    return it holds a partial extension and must be discarded.
    """
    return _solve(list(equations), {} if bindings is None else bindings) is None


def match(pattern: Term, subject: Term) -> Optional[Substitution]:
    """Substitution sending the pattern to the subject, or None.

    Subject variables are rigid.  The pattern must not share variables with
    the subject (use a fresh variant), which keeps the matcher idempotent.
    """
    bindings: dict[Var, Term] = {}
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            if p in bindings:
                if bindings[p] != s:
                    return None
            elif p != s:
                bindings[p] = s
            continue
        if not isinstance(s, App) or p.symbol != s.symbol or len(p.args) != len(s.args):
            return None
        stack.extend(zip(p.args, s.args))
    return Substitution(bindings)
