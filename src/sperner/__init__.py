"""Sperner partition systems: constructions, bounds, integer programs.

A Sperner partition system is a set of partitions of an n-set into k
nonempty parts such that no part of any partition is contained in a part
of a different partition; equivalently, the columns of a detecting array.
This package constructs such systems explicitly, computes exact upper and
lower bounds on their maximum size, solves the structured integer programs
whose optima realize the lower bounds in two congruence classes, and
verifies them by exact subset checking or by certificates.
"""

from .baranyai import (AllocationError, Resolution, allocate_blocks,
                       partition_ground, resolve, verify_resolution)
from .bounds import (BoundsReport, ExactRow, SmallRRow, best_grouped_lower,
                     bounds_report, refined_upper, scan_exact, scan_small_r,
                     small_r_upper, two_value_range)
from .combinat import (ERF_INV_HALF, Params, binom, binom_frac, decompose, mms,
                       shadow_bound, shadow_cmp, shadow_root)
from .construction import (ConstructionError, GroupedPlan, PartitionSystem,
                           balanced_matrix, construct_grouped, construct_uniform,
                           extend_system, plan_grouped)
from .ip import (AsymptoticReport, ClosedFormResult, IpInstance, IpSolution,
                 asymptotic_report, build_instance, certificate,
                 closed_form_solve, exact_solve, greedy_gap_bound, greedy_solve,
                 lp_relax, lp_value, realize_system, zero_solution)
from .simplex import LinearProgram, SimplexError, Unbounded
from .verify import (DetectingArray, PartIndex, SystemCertificate,
                     VerificationReport, check_almost_uniform, check_certificate,
                     check_certificate_summary, check_detecting,
                     check_partition_system, check_sperner, check_system,
                     from_detecting_array, to_detecting_array)

__version__ = "0.1.0"
