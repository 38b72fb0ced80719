"""Independent brute-force checking of solver output.

The oracle computes best conversion degrees between ground terms by
best-first search over the symmetric rewrite graph (forward steps plus
reversed steps), which for the Lawvere quantale is literally a weighted
shortest-path problem.  It shares no search code with the solver: edges are
enumerated from the rewrite relation directly and re-weighted from the
grades, so agreement between the two is evidence, not tautology.

The search orders degrees totally, and all five shipped quantales are
chains; every verdict is qualified by the exploration bounds.  Each
conversion search keeps its own lookup tables (rule index, interned grades,
degree factors and tensors) and checks its caps by arithmetic on the
expanded node's shape; nothing it memoizes outlives the call.  Once its
node budget is full and a cap has interfered, only an edge to a known node
not yet settled can change the outcome, so from then on a node is expanded
toward those nodes alone; the outcome is the one the whole walk gives.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .quantale import (
    CBE_ID,
    Cbe,
    CarrierError,
    Quantale,
    QuantaleValue,
    cbe_apply,
    cbe_compose,
    cbe_normalize,
    q_geq,
    q_tensor,
)
from .rewrite import GradedTrs, RewriteRule, check_terms, check_trs
from .narrow import narrowing_solutions
from .term import (
    App,
    Position,
    Signature,
    Substitution,
    Term,
    Var,
    instantiate,
    is_ground,
    is_linear,
    replace_at,
    term_depth,
    term_size,
    vars_of,
)


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class OracleBounds:
    """Caps on the explored ground graph; exceeding them can only ever make
    a verdict inconclusive, never wrong.

    max_term_size defaults to the endpoint sizes plus slack: rules reversed
    right-to-left can pad terms at zero cost (think appending a neutral
    argument anywhere), and without a size cap that region starves the node
    budget before any real path is settled."""

    max_term_depth: int = 10
    max_nodes: int = 100_000
    max_term_size: Optional[int] = None

    def size_cap(self, t: Term, s: Term) -> int:
        if self.max_term_size is not None:
            return self.max_term_size
        return max(term_size(t), term_size(s)) + 4


@dataclass(frozen=True)
class ConversionEdge:
    source: Term
    target: Term
    position: Position
    rule_index: int
    forward: bool
    degree: QuantaleValue


@dataclass
class ConversionOutcome:
    """Result of a bounded best-degree conversion search.

    optimal means the degree is proven best (the search closed without any
    cap interfering); exhausted means the whole reachable component was
    explored, so a missing path is a proof of non-convertibility.

    expanded counts the nodes settled and expanded, targets_built the edge
    targets built for them (or, once the search looks only for known nodes,
    found among those); they say where the work went and take no part in
    equality.
    """

    degree: Optional[QuantaleValue]
    path: Optional[list[ConversionEdge]]
    optimal: bool
    exhausted: bool
    capped: bool
    expanded: int = field(default=0, compare=False)
    targets_built: int = field(default=0, compare=False)


def _match_env(pattern: Term, subject: Term) -> Optional[dict]:
    """Ground matching as a plain dict (subject is ground, no variants)."""
    env: dict = {}
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            if p in env:
                if env[p] != s:
                    return None
            else:
                env[p] = s
            continue
        if not isinstance(s, App) or p.symbol != s.symbol or len(p.args) != len(s.args):
            return None
        stack.extend(zip(p.args, s.args))
    return env


# Raw edge: (target, position, rule index, forward, degree, replaced
# subterm, replacement); the search builds a ConversionEdge only for the
# edges it records as a parent link.
_RawEdge = tuple[Term, Position, int, bool, QuantaleValue, Term, Term]


_UNSEEN = object()


def _or_none(op, *args) -> Optional[QuantaleValue]:
    """The degree op(*args), or None when it is past the degree bound: the
    searches below cannot weigh such a step and treat it as capped."""
    try:
        return op(*args)
    except CarrierError:
        return None


def _conversion_edges(trs: GradedTrs, pool: tuple[Term, ...]):
    """The adjacency function of the symmetric rewrite graph: for a ground
    term u it returns (raw edges, incomplete).  The edges are the forward
    rewrite steps plus reversed steps, each weighted by the grade of its
    position applied to the rule degree (the context above the redex is the
    same on both ends).  They come in the order of a walk that takes a node
    before its children and its children right to left, per node by
    ascending rule index, and per rule the forward edge before the backward
    ones.

    Reversing a rule that drops variables leaves left-side variables
    unbound; those are filled from the pool and the enumeration is flagged
    incomplete, since no finite pool covers all ground instantiations.  An
    edge whose degree is past the degree bound is left out and flagged the
    same way.

    Given toward, which maps each context (see _contexts) of a set of
    targets to {subterm there: target}, the walk keeps exactly the edges
    that reach a target, in the order above.  A step at p reaches a target
    w exactly when u and w agree off p, which is when their contexts at p
    are equal, and the step puts w|p at p.  So the walk visits only the
    positions whose context toward holds, and keeps an edge only when its
    replacement is a subterm held there; it returns that target rather
    than building it.

    The tables live as long as the returned function: grades interned as
    ints, the grade ids of a symbol's arguments by (grade id, symbol), the
    degree factor by (grade id, rule index), and per (symbol, argument
    count) the rules that can fire there forward (left-side head) or
    backward (right-side head, or a variable right side), ascending.
    """
    quantale = trs.quantale
    arity = trs.signature.arity
    rules = trs.rules
    grades = [cbe_normalize(quantale, CBE_ID)]  # grade id -> CBE; 0 is the root's
    grade_ids = {grades[0]: 0}
    child_grades: dict[tuple[int, str], tuple[int, ...]] = {}
    factors: dict[tuple[int, int], QuantaleValue] = {}
    # key -> [(rule index, rule, forward, backward, unbound variables)]
    index: dict[tuple[str, int], list[tuple[int, RewriteRule, bool, bool, list[Var]]]] = {}
    # a successful match binds every pattern variable, so the left-side
    # variables a reversed step leaves unbound are fixed per rule
    unbound_of = [sorted(vars_of(rule.lhs) - vars_of(rule.rhs),
                         key=lambda v: (v.name, v.index)) for rule in rules]

    def argument_grades(grade_id: int, symbol: str) -> tuple[int, ...]:
        ids = []
        for cbe in arity(symbol):
            grade = cbe_compose(quantale, grades[grade_id], cbe)
            gid = grade_ids.get(grade)
            if gid is None:
                gid = grade_ids[grade] = len(grades)
                grades.append(grade)
            ids.append(gid)
        return tuple(ids)

    def rules_at(key: tuple[str, int]) -> list:
        entries = []
        for i, rule in enumerate(rules):
            lhs, rhs = rule.lhs, rule.rhs
            forward = (lhs.symbol, len(lhs.args)) == key
            backward = isinstance(rhs, Var) or (rhs.symbol, len(rhs.args)) == key
            if forward or backward:
                entries.append((i, rule, forward, backward, unbound_of[i]))
        return entries

    def factor(grade_id: int, i: int) -> Optional[QuantaleValue]:
        """The degree of a step of rule i at a position of this grade, or
        None when it is past the degree bound."""
        degree = factors.get((grade_id, i), _UNSEEN)
        if degree is _UNSEEN:
            degree = factors[grade_id, i] = _or_none(cbe_apply, grades[grade_id],
                                                     rules[i].degree)
        return degree

    def edges(u: Term, toward: Optional[dict] = None) -> tuple[list[_RawEdge], bool]:
        out: list[_RawEdge] = []
        incomplete = False
        want = None
        stack: list = [((), u, 0, ())]
        while stack:
            p, sub, grade_id, context = stack.pop()
            symbol, args = sub.symbol, sub.args
            arg_grades = child_grades.get((grade_id, symbol))
            if arg_grades is None:
                arg_grades = child_grades[grade_id, symbol] = \
                    argument_grades(grade_id, symbol)
            if toward is None:
                for k, arg_grade in enumerate(arg_grades):
                    stack.append((p + (k + 1,), args[k], arg_grade, None))
            else:
                want = toward.get(context)
                if not want:  # no target agrees with u off p, nor off a position below
                    continue
                for k, arg_grade in enumerate(arg_grades):  # contexts as in _contexts
                    stack.append((p + (k + 1,), args[k], arg_grade,
                                  (context, symbol, k, args[:k], args[k + 1:])))
            key = (symbol, len(args))
            candidates = index.get(key)
            if candidates is None:
                candidates = index[key] = rules_at(key)
            for i, rule, forward, backward, unbound in candidates:
                if forward:
                    env = _match_env(rule.lhs, sub)
                    if env is not None:
                        degree = factor(grade_id, i)
                        if degree is None:
                            incomplete = True
                        else:
                            r = instantiate(rule.rhs, env.get)
                            v = replace_at(u, p, r) if want is None else want.get(r)
                            if v is not None:
                                out.append((v, p, i, True, degree, sub, r))
                if backward:
                    env = _match_env(rule.rhs, sub)
                    if env is None:
                        continue
                    degree = factor(grade_id, i)
                    if degree is None:
                        incomplete = True
                        continue
                    envs: Iterable[dict] = (env,)
                    if unbound:
                        incomplete = True
                        envs = ({**env, **dict(zip(unbound, filling))}
                                for filling in itertools.product(pool, repeat=len(unbound)))
                    for filled in envs:
                        r = instantiate(rule.lhs, filled.get)
                        v = replace_at(u, p, r) if want is None else want.get(r)
                        if v is not None:
                            out.append((v, p, i, False, degree, sub, r))
        return out, incomplete

    return edges


def _contexts(t: Term) -> list[tuple[tuple, Term]]:
    """(context, subterm) at every position of a term.  The context of the
    root is (); that of the k-th argument (from 0) of a subterm f(...) with
    context c is (c, f, k, the arguments before it, the arguments after it).
    Two terms agree everywhere off a position p exactly when their contexts
    at p are equal."""
    out = []
    stack: list[tuple[tuple, Term]] = [((), t)]
    while stack:
        context, sub = stack.pop()
        out.append((context, sub))
        args = sub.args
        for k in range(len(args)):
            stack.append(((context, sub.symbol, k, args[:k], args[k + 1:]), args[k]))
    return out


def _shape(t: Term, memo: dict) -> tuple[int, int]:
    """(term_size, term_depth) of a ground term, memoized per subterm."""
    got = memo.get(t)
    if got is None:
        size, depth = 1, 0
        for a in t.args:
            a_size, a_depth = _shape(a, memo)
            size += a_size
            if a_depth > depth:
                depth = a_depth
        got = memo[t] = (size, depth + 1)
    return got


def _flip(edge: ConversionEdge) -> ConversionEdge:
    # the conversion graph is symmetric: each step is usable both ways
    return ConversionEdge(edge.target, edge.source, edge.position,
                          edge.rule_index, not edge.forward, edge.degree)


def best_conversion_degree(trs: GradedTrs, t: Term, s: Term,
                           bounds: OracleBounds = OracleBounds(),
                           instantiation_pool: Optional[Iterable[Term]] = None
                           ) -> ConversionOutcome:
    """Greatest accumulated tensor degree over conversion paths from t to s,
    two ground terms that fit the system's signature (else TrsError).

    Bidirectional best-first search from both endpoints over the symmetric
    rewrite graph.  Expansion by the quantale order is admissible because
    the tensor is monotone and deflationary; a node scored from both ends
    closes a path, and search stops once no pair of frontier extensions can
    beat the best closed path.  Caps only ever cost optimality, never
    soundness: a returned degree is always witnessed by a real path.

    Every table lives for one call: the edge tables of _conversion_edges
    and the tensor of an expanded node's degree with an edge degree, by
    (degree, edge degree).  The caps are checked without re-walking the
    targets.  A target already scored on the expanding side passed them when
    it entered (each side settles its start node before it examines any
    edge, and the start nodes are the only ones that entered unchecked).  A
    new target v differs from the expanded node u only at the edge
    position p, where the replaced subterm r0 becomes r, so
        size(v) = size(u) - size(r0) + size(r),
    and, while depth(u) is within the cap, every part of v off p is too, so
        depth(v) > cap  exactly when  len(p) + depth(r) > cap.
    The shapes come from a memo of u's subterms that lives for one
    expansion; the targets of a start node deeper than the cap are
    measured directly.

    Once the node budget is full and a cap has interfered, a node is
    expanded only toward the known, unsettled nodes of its side, and not
    at all when there are none.  That leaves the outcome as it was: no new
    node can enter a full budget, and once capped is set no further cap
    event changes a flag, so the only edges that can change a degree, a
    parent link, the meet or the heap are those to a known node not yet
    settled.  The walk keeps exactly those edges, in the order of the
    whole walk, so ties and the heap's sequence numbers fall as before.
    Until then every edge is built, since a dropped target must still set
    capped.  The contexts of the known, unsettled nodes are indexed once,
    when the restriction starts, and a node's are removed when it is
    settled; no node enters after the start.  The index costs about the
    size of those nodes, so an expansion does not pay for every open node
    as a walk of u against each of them would.
    """
    check_terms(trs.signature, (t, s), "conversion problem")
    if not is_ground(t) or not is_ground(s):
        raise OracleError("oracle works on ground terms")
    if instantiation_pool is None:
        pool = tuple(App(c) for c in trs.signature.constants())
    else:
        pool = tuple(instantiation_pool)

    quantale = trs.quantale
    unit = quantale.unit
    max_depth = bounds.max_term_depth
    size_cap = bounds.size_cap(t, s)
    edges_of = _conversion_edges(trs, pool)
    tensors: dict[tuple[QuantaleValue, QuantaleValue], QuantaleValue] = {}
    dist: tuple[dict, dict] = ({t: unit}, {s: unit})
    parent: tuple[dict, dict] = ({}, {})
    settled: tuple[set, set] = (set(), set())
    heaps = ([(quantale.sort_key(unit), 0, t)], [(quantale.sort_key(unit), 0, s)])
    tops = [unit, unit]
    seq = 0
    capped = False
    best_meet: Optional[tuple[QuantaleValue, Term]] = None
    # per side, once they are the only targets that matter, the contexts
    # of the known nodes not yet settled: {context: {subterm there: node}}
    toward_unsettled: Optional[tuple[dict, dict]] = None
    expanded = targets_built = 0

    def consider_meet(node: Term) -> None:
        nonlocal best_meet, capped
        if node in dist[0] and node in dist[1]:
            degree = _or_none(q_tensor, dist[0][node], dist[1][node])
            if degree is None:
                capped = True
            elif best_meet is None or (q_geq(degree, best_meet[0])
                                       and degree != best_meet[0]):
                best_meet = (degree, node)

    def stop_rule() -> bool:
        if best_meet is None:
            return False
        bound = _or_none(q_tensor, tops[0], tops[1])
        return bound is not None and q_geq(best_meet[0], bound)

    consider_meet(t)
    while (heaps[0] or heaps[1]) and not stop_rule():
        side = 0 if heaps[0] and (not heaps[1] or len(heaps[0]) <= len(heaps[1])) else 1
        _, _, u = heapq.heappop(heaps[side])
        settled_side = settled[side]
        if u in settled_side:
            continue
        settled_side.add(u)
        dist_side, parent_side = dist[side], parent[side]
        du = dist_side[u]
        tops[side] = du
        if stop_rule():
            break
        expanded += 1
        if (toward_unsettled is None and capped
                and len(dist[0]) + len(dist[1]) >= bounds.max_nodes):
            toward_unsettled = ({(): {}}, {(): {}})
            for toward, dist_k, settled_k in zip(toward_unsettled, dist, settled):
                for w in dist_k.keys() - settled_k:
                    for context, sub in _contexts(w):
                        toward.setdefault(context, {})[sub] = w
        if toward_unsettled is None:
            edges, incomplete = edges_of(u)
            if incomplete:
                capped = True
            shapes: dict[Term, tuple[int, int]] = {}
            u_size, u_depth = _shape(u, shapes)
        else:  # every target is known, so none reaches the cap tests below
            toward = toward_unsettled[side]
            if u in toward[()]:  # all but the node settled as the index was built
                for context, sub in _contexts(u):
                    del toward[context][sub]
            if not toward[()]:
                continue
            edges, _ = edges_of(u, toward)
        targets_built += len(edges)
        for v, p, i, forward, degree, replaced, replacement in edges:
            if v in settled_side:
                continue
            known = dist_side.get(v)
            if known is None:  # a known target passed the caps on entry
                if u_depth > max_depth:  # only a start node can be this deep
                    over = term_depth(v) > max_depth or term_size(v) > size_cap
                else:
                    r_size, r_depth = _shape(replacement, shapes)
                    over = (len(p) + r_depth > max_depth
                            or u_size - _shape(replaced, shapes)[0] + r_size > size_cap)
                if over:
                    capped = True
                    continue
                if len(dist[0]) + len(dist[1]) >= bounds.max_nodes:
                    capped = True
                    continue
            dv = tensors.get((du, degree), _UNSEEN)
            if dv is _UNSEEN:
                dv = tensors[du, degree] = _or_none(q_tensor, du, degree)
            if dv is None:  # past the degree bound, a cap like the others
                capped = True
                continue
            if known is None or (q_geq(dv, known) and dv != known):
                dist_side[v] = dv
                parent_side[v] = ConversionEdge(u, v, p, i, forward, degree)
                consider_meet(v)
                seq += 1
                heapq.heappush(heaps[side], (quantale.sort_key(dv), seq, v))

    if best_meet is None:
        return ConversionOutcome(None, None, optimal=False, exhausted=not capped,
                                 capped=capped, expanded=expanded,
                                 targets_built=targets_built)
    degree, meet = best_meet
    forward_path: list[ConversionEdge] = []
    node = meet
    while node in parent[0]:
        edge = parent[0][node]
        forward_path.append(edge)
        node = edge.source
    forward_path.reverse()
    node = meet
    while node in parent[1]:
        edge = parent[1][node]
        forward_path.append(_flip(edge))
        node = edge.source
    return ConversionOutcome(degree, forward_path, optimal=not capped, exhausted=False,
                             capped=capped, expanded=expanded,
                             targets_built=targets_built)


CONFIRMED = "CONFIRMED"
INCONCLUSIVE = "INCONCLUSIVE"
REFUTED = "REFUTED"


@dataclass
class GroundingCheck:
    grounding: Substitution
    outcome: ConversionOutcome
    status: str


@dataclass
class Verdict:
    status: str
    checks: list[GroundingCheck] = field(default_factory=list)

    def __str__(self):
        return self.status


def verify_solution(trs: GradedTrs, t: Term, s: Term,
                    subst: Substitution, degree: QuantaleValue,
                    pool: Optional[Iterable[Term]] = None,
                    bounds: OracleBounds = OracleBounds(),
                    max_groundings: int = 16) -> Verdict:
    """Check a claimed unifier: over sampled groundings of the leftover
    variables, some conversion at least as good as the claimed degree must
    exist.  REFUTED (a proven-absent conversion) always means a solver bug.

    Note the direction: degree statements are downward closed in the
    quantale order, so claiming a degree *worse* than the best conversion
    is still true; only a claim strictly better than a proven-optimal best
    (or a claim about inconvertible terms) can be refuted.  TrsError unless
    the instantiated terms fit the signature; OracleError if max_groundings < 0.
    """
    if max_groundings < 0:
        raise OracleError(f"max_groundings must be non-negative, got {max_groundings}")
    left, right = subst.apply(t), subst.apply(s)
    check_terms(trs.signature, (left, right), "instantiated problem")
    free = sorted(vars_of(left) | vars_of(right), key=lambda v: (v.name, v.index))
    if pool is None:
        pool = tuple(App(c) for c in trs.signature.constants())
    else:
        pool = tuple(pool)
    if free and not pool:
        return Verdict(INCONCLUSIVE)

    checks = []
    groundings = itertools.islice(itertools.product(pool, repeat=len(free)),
                                  max_groundings)
    for combo in groundings:
        theta = Substitution(dict(zip(free, combo)))
        outcome = best_conversion_degree(trs, theta.apply(left), theta.apply(right),
                                         bounds)
        if outcome.degree is not None and q_geq(outcome.degree, degree):
            status = CONFIRMED
        elif outcome.degree is None and outcome.exhausted:
            status = REFUTED
        elif outcome.degree is not None and outcome.optimal:
            status = REFUTED
        else:
            status = INCONCLUSIVE
        checks.append(GroundingCheck(theta, outcome, status))
    if any(c.status == REFUTED for c in checks):
        overall = REFUTED
    elif checks and all(c.status == CONFIRMED for c in checks):
        overall = CONFIRMED
    else:
        overall = INCONCLUSIVE
    return Verdict(overall, checks)


def enumerate_best_unifiers(trs: GradedTrs, t: Term, s: Term,
                            pool: Iterable[Term],
                            bounds: OracleBounds = OracleBounds()
                            ) -> list[tuple[Substitution, QuantaleValue]]:
    """Exhaust substitutions of the problem variables into a ground pool and
    rank them by their best conversion degree, best first.  Both terms must
    fit the system's signature, or TrsError is raised."""
    check_terms(trs.signature, (t, s), "problem term")
    pool = tuple(pool)
    free = sorted(vars_of(t) | vars_of(s), key=lambda v: (v.name, v.index))
    ranked = []
    for combo in itertools.product(pool, repeat=len(free)):
        sigma = Substitution(dict(zip(free, combo)))
        outcome = best_conversion_degree(trs, sigma.apply(t), sigma.apply(s), bounds)
        if outcome.degree is not None:
            ranked.append((sigma, outcome.degree))
    ranked.sort(key=lambda pair: (trs.quantale.sort_key(pair[1]), str(pair[0])))
    return ranked


# ---------------------------------------------------------------------------
# Random systems and the completeness-conjecture probe.
# ---------------------------------------------------------------------------


@dataclass
class SystemConfig:
    """Shape of randomly generated systems (small by construction)."""

    quantale: Quantale = Quantale.LAWVERE
    max_rules: int = 3
    n_constants: int = 3
    n_unary: int = 1
    n_binary: int = 1
    max_rule_depth: int = 2
    nontrivial_cbes: bool = False
    right_ground: bool = False
    right_linear: bool = False
    balanced: bool = False


_DEGREE_CHOICES = {
    Quantale.BOOL: ("1", "1", "1", "0"),
    Quantale.LAWVERE: ("0", "1", "2", "1/2"),
    Quantale.LAWVERE_MAX: ("0", "1", "2", "1/2"),
    Quantale.FUZZY_GODEL: ("1", "1/2", "3/4", "1/4"),
    Quantale.FUZZY_PRODUCT: ("1", "1/2", "3/4", "1/4"),
}
_RULE_ATTEMPTS = 200


def _random_cbe(rng: random.Random, cfg: SystemConfig) -> Cbe:
    if not cfg.nontrivial_cbes or rng.random() < 0.7 or cfg.quantale._fragment is None:
        return CBE_ID
    return cfg.quantale._fragment(rng.choice((2, 3)))


def random_signature(rng: random.Random, cfg: SystemConfig) -> Signature:
    symbols: dict[str, tuple] = {}
    for i in range(cfg.n_constants):
        symbols[chr(ord("a") + i)] = ()
    for i in range(cfg.n_unary):
        symbols[f"f{i}"] = (_random_cbe(rng, cfg),)
    for i in range(cfg.n_binary):
        symbols[f"g{i}"] = (_random_cbe(rng, cfg), _random_cbe(rng, cfg))
    return Signature(cfg.quantale, symbols)


def random_term(rng: random.Random, sig: Signature, variables: list[Var],
                depth: int) -> Term:
    names = list(sig.names())
    if depth <= 0 or (variables and rng.random() < 0.3):
        if variables and rng.random() < 0.6:
            return rng.choice(variables)
        constants = sig.constants()
        if constants:
            return App(rng.choice(constants))
        return rng.choice(variables)
    name = rng.choice(names)
    arity = sig.arity(name)
    return App(name, tuple(random_term(rng, sig, variables, depth - 1)
                           for _ in arity))


def random_system(rng: random.Random, cfg: SystemConfig) -> GradedTrs:
    """Sample a system matching the config gates, retrying per rule."""
    sig = random_signature(rng, cfg)
    quantale = cfg.quantale
    xs = [Var("x"), Var("y")]
    rules = []
    n_rules = rng.randint(1, cfg.max_rules)
    for _ in range(n_rules):
        rule = None
        for _ in range(_RULE_ATTEMPTS):
            lhs = random_term(rng, sig, xs, cfg.max_rule_depth)
            if isinstance(lhs, Var):
                continue
            lhs_vars = sorted(vars_of(lhs), key=lambda v: v.name)
            rhs_vars = [] if cfg.right_ground else lhs_vars
            rhs = random_term(rng, sig, rhs_vars, cfg.max_rule_depth)
            if cfg.right_ground and not is_ground(rhs):
                continue
            if cfg.right_linear and not is_linear(rhs):
                continue
            degree = quantale.parse_degree(rng.choice(_DEGREE_CHOICES[quantale]))
            candidate = RewriteRule(degree, lhs, rhs)
            if cfg.balanced:
                probe = GradedTrs(sig, (candidate,))
                if not check_trs(probe).balanced:
                    continue
            rule = candidate
            break
        if rule is None:
            # ground-to-ground rules satisfy every gate
            consts = sig.constants()
            rule = RewriteRule(quantale.parse_degree(_DEGREE_CHOICES[quantale][1]),
                               App(consts[0]), App(consts[-1]))
        rules.append(rule)
    return GradedTrs(sig, rules)


def random_linear_problem(rng: random.Random, trs: GradedTrs,
                          n_vars: int = 1, depth: int = 2) -> tuple[Term, Term]:
    """A pair of terms that is linear as a whole (sides share no variables)."""
    sig = trs.signature
    left_vars = [Var(f"u{i}") for i in range(n_vars)]
    right_vars = [Var(f"w{i}") for i in range(n_vars)]
    while True:
        t = random_term(rng, sig, left_vars, depth)
        s = random_term(rng, sig, right_vars, depth)
        if is_linear(App("", (t, s))):
            return t, s


@dataclass
class ProbeTrial:
    trs: GradedTrs
    left: Term
    right: Term
    ordinary: set
    basic: set
    gaps: list

    @property
    def flagged(self) -> bool:
        return bool(self.gaps)


@dataclass
class ProbeReport:
    trials: list[ProbeTrial] = field(default_factory=list)

    @property
    def flagged(self) -> list[ProbeTrial]:
        return [t for t in self.trials if t.flagged]


def conjecture_probe(config: SystemConfig, trials: int,
                     max_steps: int = 4,
                     seed: int = 0,
                     systems: Optional[list[tuple[GradedTrs, Term, Term]]] = None
                     ) -> ProbeReport:
    """Look for candidate counterexamples to lifting ordinary narrowing
    derivations to basic ones: a trial is flagged when ordinary narrowing
    reaches a unifier at a degree that no basic derivation of the same
    unifier attains (at equal step bounds).  A flag is only a candidate for
    manual inspection; an empty report proves nothing.
    """
    rng = random.Random(seed)
    report = ProbeReport()
    for k in range(trials):
        if systems is not None:
            if k >= len(systems):
                break
            trs, t, s = systems[k]
        else:
            trs = random_system(rng, config)
            t, s = random_linear_problem(rng, trs)
        ordinary = narrowing_solutions(trs, t, s, max_steps, basic_only=False)
        basic = narrowing_solutions(trs, t, s, max_steps, basic_only=True)
        gaps = []
        for sigma, delta in sorted(ordinary, key=str):
            lifted = any(sigma2 == sigma and q_geq(delta2, delta)
                         for sigma2, delta2 in basic)
            if not lifted:
                gaps.append((sigma, delta))
        report.trials.append(ProbeTrial(trs, t, s, ordinary, basic, gaps))
    return report
