"""Rainbow-subposet-free colorings of the Boolean lattice B_n.

Generators for the known extremal colorings, exact max-min class-size
search at small dimensions, copy detection for finite posets inside set
families, closed-form values with exact-rational checks, and a
reproducible verification harness.
"""

# the one version literal; pyproject.toml reads it from here
__version__ = "0.1.0"

from .bounds import (FormulaValue, binary_entropy, delta_l, eq_inequality_check,
                     formula_A2, g_of_l, known_value, m_of_l, solve_c0)
from .coloring import (ClassStats, Coloring, PosetFamily, RainbowWitness,
                       canonicalize, class_stats, validate, validate_incremental)
from .constructions import (ChainFamily, ConstructionReport, chain_family_coloring,
                            chain_interval_coloring, chain_overlap_check,
                            incomparable_traces, lift3_coloring, p3_total_coloring,
                            pk_coloring, random_chain_family)
from .lattice import (ANALYTIC_CAP, CANONICAL_CAP, COLOR_CAP, ENUMERATION_CAP,
                      Interval, comparable, cone, cone_size, format_subset, interval_members,
                      interval_size, parse_subset)
from .posets import Poset, build_poset, find_copy
from .solver import (ChainDecomposition, CrossSpernerResult, GreedyCoverReport,
                     SolveResult, TupleSequence, az_decompose, cross_sperner_check,
                     greedy_tuples_and_cover, solve_min_class)
from .verify import VerificationReport, verify_suite

__all__ = [
    "ANALYTIC_CAP", "CANONICAL_CAP", "COLOR_CAP", "ENUMERATION_CAP",
    "ChainDecomposition", "ChainFamily", "ClassStats", "Coloring",
    "ConstructionReport", "CrossSpernerResult", "FormulaValue",
    "GreedyCoverReport", "Interval", "Poset", "PosetFamily", "RainbowWitness",
    "SolveResult", "TupleSequence", "VerificationReport",
    "az_decompose", "binary_entropy", "build_poset", "canonicalize",
    "chain_family_coloring", "chain_interval_coloring", "chain_overlap_check",
    "class_stats", "comparable", "cone", "cone_size", "cross_sperner_check",
    "delta_l", "eq_inequality_check", "find_copy", "format_subset", "formula_A2",
    "g_of_l", "greedy_tuples_and_cover", "incomparable_traces", "interval_members",
    "interval_size", "known_value", "lift3_coloring", "m_of_l", "p3_total_coloring",
    "parse_subset", "pk_coloring", "random_chain_family", "solve_c0",
    "solve_min_class", "validate", "validate_incremental", "verify_suite",
]
