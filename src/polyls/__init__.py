"""Exact line search over extended polymatroids of integral submodular functions.

Given an integral submodular f with f(empty) = 0 and an integral direction d
with a positive entry, every solver here returns the exact rational
lambda* = max{lambda >= 0 : lambda d in P(f)} = min{f(S)/d(S) : d(S) > 0},
together with a tight set and a dual witness.
"""

from . import errors
from .dualcut import (CutEngineState, ReducedProblem, cutting_plane_minimize,
                      lift_point, solve_dual, solve_dual_base, verify_lifting)
from .lovasz import BaseVertex, DenseLovasz, GreedyOrder, evaluate, greedy_order, subgradient
from .newton import (BinarySearchResult, LineSearchResult, binary_search,
                     bruteforce_linesearch, discrete_newton, dual_point,
                     envelope, ladder_spacing, upper_bound)
from .oracles import (ConcaveCardinalityPlusModular, DirectedGraphCut,
                      Direction, ExplicitTable, IntervalGeometric,
                      SubmodularOracle, WeightedCoverage, check_oracle,
                      infinity_norm, lift, make_family, newton_scale,
                      submodularity_witness, translate)
from .sfm import (MembershipResult, SfmResult, membership, minimize,
                  minimize_bruteforce, minimize_minus_modular, minimize_mnp)
from .subsets import SubsetMask, subset_sums

__version__ = "0.1.0"
