"""Graded quantitative term rewriting and narrowing over Lawverean quantales.

The library solves quantitative unification problems: given rewrite rules
annotated with degrees from a quantale, find substitutions making two terms
equal up to a degree threshold.  A brute-force oracle independently checks
every emitted solution on ground instances.
"""

from .quantale import (
    CBE_CONST,
    CBE_ID,
    Cbe,
    CbeCompose,
    CbeConst,
    CbeId,
    CbePow,
    CbeScale,
    CbeTensor,
    INF,
    Quantale,
    QuantaleValue,
    cbe_apply,
    cbe_compose,
    cbe_equal,
    cbe_normalize,
    cbe_tensor,
    q_join,
    q_leq,
    q_geq,
    q_meet,
    q_tensor,
)
from .term import (
    App,
    FreshCounter,
    IDENTITY,
    Position,
    Signature,
    Substitution,
    Term,
    Var,
    fresh_variant,
    fun_positions,
    grade_of_position,
    grade_of_var,
    is_ground,
    is_linear,
    positions,
    replace_at,
    subterm_at,
    var_positions,
    vars_of,
)
from .unify import UnifyFailure, match, mgu, unifiable
from .rewrite import (
    GradedTrs,
    RewriteRule,
    RewriteStep,
    check_trs,
    innermost_rewrite_steps,
    joinable,
    rewrite_search,
    rewrite_steps,
)
from .narrow import (
    BqConfig,
    NarrowStep,
    NarrowingDerivation,
    Solution,
    SolveResult,
    basic_update,
    bq_step,
    derivation_to_calculus,
    derivations,
    initial_config,
    narrowing_steps,
    narrowing_solutions,
    solve,
)
from .oracle import (
    OracleBounds,
    SystemConfig,
    Verdict,
    best_conversion_degree,
    conjecture_probe,
    enumerate_best_unifiers,
    verify_solution,
)
from .frontend import GtrsError, Problem, ProblemFile, parse, parse_file, parse_term_text

__version__ = "0.1.0"
