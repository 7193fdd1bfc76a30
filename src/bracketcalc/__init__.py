"""Bracket notation for ordinals below Gamma_0 and its derivation calculus.

The pieces: ordinal arithmetic in Veblen normal form (ordinals), bracket
worm syntax (syntax), order types and translations (worms), checkable
derivations and order provers (calculus, proving), fundamental sequences
and budgeted step-down iteration (fundseq), and a small CLI (cli).
"""

from .calculus import (
    Certificate,
    CheckResult,
    HasVariables,
    NotProvable,
    Sequent,
    SideMismatch,
    certificate_from_json,
    certificate_to_json,
    check_derivation,
    decide_le,
    decide_lt,
)
from .fundseq import (
    BudgetExhausted,
    Found,
    F_witness,
    G_witness,
    Trace,
    a_seq,
    descend,
    fs_bracket,
    fs_veblen,
    gamma,
    step_iter,
    xhat,
)
from .ordinals import (
    OMEGA,
    ONE,
    ZERO,
    NotLeftSubtractable,
    NotPrincipal,
    NotSuccessor,
    Ordinal,
    OrdinalKind,
    VeblenTerm,
    add,
    classify,
    cmp,
    exp_e,
    hyper_exp,
    left_sub,
    log_principal,
    mul_nat,
    nat,
    omega_pow,
    parse_ordinal,
    pred,
    print_ordinal,
    veblen,
    veblen_iter,
)
from .proving import conj_to_worm, decide_closed_geq, derived_mono, prove_le, prove_lt
from .syntax import (
    TOP,
    TOP_WORM,
    BracketFormula,
    BracketWorm,
    Conj,
    Diamond,
    ParseError,
    Top,
    Var,
    nesting_formula,
    nesting_worm,
    parse_formula,
    parse_worm,
    print_formula,
    print_worm,
)
from .worms import (
    RDia,
    concat,
    h,
    iota,
    iota_worm,
    o_star,
    order_type,
    signature,
    splice,
    star,
    tau,
    to_nf,
    uparrow,
    uparrow_bracket,
    worm_of_ordinal,
)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
