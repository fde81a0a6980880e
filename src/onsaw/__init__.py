"""Exact symbolic computation for the Onsager algebra, its finite quotients
(the classical three-generator family and its size-3N generalizations), the
alternative presentation, and the exchange-relation (FRT-style) machinery
built on the non-standard classical Yang-Baxter equation.

Everything is verified over exact rationals; no floating point anywhere.
"""

__version__ = "0.1.0"

from .altpres import (
    Gt,
    QuotientA,
    Wm,
    Wp,
    beta_from_alpha,
    bracket_alt,
    convert_to_alt,
    convert_to_ons,
    verify_iso,
)
from .elements import AlgElem
from .envelope import EnvElem, PBW, aw3_fit, verify_quartic
from .matrices import Matrix, commutator, embed_leg, kron, partial_trace
from .onsager import A, G, apply_auto, apply_autopoly, bracket, verify_dolan_grady
from .quotient import QuotientO, defining_relations, u_poly, verify_sn
from .reports import Report
from .reps import rep_build, rep_check
from .scalars import LaurentPoly, RatFunc, lvar, ratfunc_equal
from .yangbaxter import (
    ChargeParams,
    OperatorMatrix,
    build_B_alt,
    build_B_onsager,
    charges,
    expand_b,
    m_matrix,
    verify_commuting,
    verify_cybe,
    verify_frt,
    verify_frt_series_alt,
    verify_frt_series_onsager,
    verify_reD,
)

__all__ = [
    "A",
    "AlgElem",
    "ChargeParams",
    "EnvElem",
    "G",
    "Gt",
    "LaurentPoly",
    "Matrix",
    "OperatorMatrix",
    "PBW",
    "QuotientA",
    "QuotientO",
    "RatFunc",
    "Report",
    "Wm",
    "Wp",
    "apply_auto",
    "apply_autopoly",
    "aw3_fit",
    "beta_from_alpha",
    "bracket",
    "bracket_alt",
    "build_B_alt",
    "build_B_onsager",
    "charges",
    "commutator",
    "convert_to_alt",
    "convert_to_ons",
    "defining_relations",
    "embed_leg",
    "expand_b",
    "kron",
    "lvar",
    "m_matrix",
    "partial_trace",
    "ratfunc_equal",
    "rep_build",
    "rep_check",
    "u_poly",
    "verify_commuting",
    "verify_cybe",
    "verify_dolan_grady",
    "verify_frt",
    "verify_frt_series_alt",
    "verify_frt_series_onsager",
    "verify_iso",
    "verify_quartic",
    "verify_reD",
    "verify_sn",
]
