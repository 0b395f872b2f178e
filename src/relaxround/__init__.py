"""relaxround: exact-arithmetic truthful-in-expectation mechanisms.

Build a relaxed objective over a packing polytope, maximize it exactly,
decompose the optimum into a lottery over feasible allocations, thin the
lottery per the family's rounding case, charge expected externality
payments, and verify every guarantee by exhaustive enumeration over exact
rationals.
"""

from .model import (AdditiveValuation, Allocation, EnumerationTooLargeError,
                    EvaluationError, Family, FamilySpec, Instance,
                    InvariantError, SingleMindedValuation,
                    SinglePeakedValuation, ValuationProfile,
                    enumerate_feasible, fractional_value, indicator,
                    social_welfare, value_of)
from .lp import (FinalTableau, FractionalPoint, LPInputError, Polytope,
                 UnboundedError, contains, enumerate_vertices, maximize_linear,
                 phase_one)
from .relaxation import (AlphaAudit, PiecewiseCurve, RelaxedObjective,
                         UnsupportedFamilyError, audit_alpha, build_polytope,
                         build_relaxation, residual_maximum,
                         residual_objective, solve_relaxation)
from .rounding import (AllocationDistribution, DecompositionInfeasibleError,
                       adjust, convex_decompose, expected_value_per_bidder,
                       expected_welfare, sample)
from .mechanism import (MechanismOutcome, allocate, expected_realized_payments,
                        payments, range_contains, realized_payments, run,
                        run_without_money)
from .families import (FAMILIES, FamilyConstructionError, make_case_b_family,
                       make_gap_toy, make_no_money, make_single_item,
                       make_single_minded_ca, profile_for, unit_gap_curve,
                       with_desires)
from .verify import (CheckResult, VerificationBudgetError,
                     VerificationReport, Witness, adversarial_rounder,
                     brute_force_opt, check_approximation,
                     check_median_no_improvement,
                     check_nonoblivious_condition, check_obliviousness,
                     check_truthfulness, check_without_money,
                     first_price_payments, oblivious_rounder)
from .io import (FormatError, dump_instance_document, format_fraction,
                 load_instance, load_instance_document, parse_fraction,
                 write_instance, write_report_files)

__version__ = "0.1.0"
