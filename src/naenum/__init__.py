"""naenum: exact enumeration of minimum-weight not-all-equal solutions of
3-CNF formulas by pruned transversal-tree search, plus the exact-rational
bound calculators and brute-force oracles that machine-check the method's
structural claims at desk scale."""

from .cnf import (Clause, Formula, canonical_clause, is_monotone,
                  is_negation_closed, nae_check, negation_closure,
                  parse_dimacs)
from .errors import (BudgetExceeded, DimacsError, InputNotClosed,
                     InternalInvariantError, NaenumError, OracleRefused,
                     ParameterError, PreconditionViolated, TautologyError,
                     WidthError)
from .generators import GenSpec, ksat_to_naesat, maj, random_negation_closed
from .matching import attempt_reset, greedy_maximal, monotone_index
from .oracle import (OracleReport, VerifyReport, brute_force,
                     nae_solutions_direct, verify_enumeration)
from .selection import (StageProfile, TwomarkContext, branch_on_t0,
                        build_stage_profile, twomark_context)
from .treesearch import (ExhaustiveReport, OrderingSource, SearchStats,
                         build_debug_tree, collect_solutions, count_solutions,
                         enumerate_all_orderings, enumerate_solutions)
from .tree import (DebugTree, TreeNode, check_invariants, export_lines,
                   psi_exact)

__version__ = "0.1.0"
