"""Bounded-universe engine for independent set families, a canonical
enumeration of finite partial functions, permutation extension, and
demand-driven generic constructions."""

from .codec import (EMPTY_FN, PartialFn, cantor_pair, cantor_unpair,
                    check_dense, count_functional_below, entry_slot,
                    index_of_raw_code, least_extension_index, nth_partial_fn,
                    partial_fn_index, point_code, raw_code_of_index)
from .config import ExperimentConfig, child_seed
from .diag import (CatchReport, LazyPermutation, PipelineReport, case_split,
                   grid_fn_from_perm, matches, moved_within, run_pipeline,
                   verify_catch)
from .errors import (CardinalityMismatch, GridOverflow, IncompatiblePair,
                     InducedMapNotPermutation, OmegalabError, SearchExhausted)
from .extender import (AtomDecomposition, AtomShuffle, FamilyMap,
                       HomogenizeReport, PartialInjection, Permutation,
                       ShuffleSearchReport, atoms_of, build_permutation,
                       check_compatible, find_independent_shuffle, homogenize,
                       orbit_closure, shuffle_sizes)
from .finset import (CombinationSpec, Family, FinSet, IndependenceReport,
                     SaturationReport, bit_family, boolean_combination,
                     combination_masks, combination_specs, count_combinations,
                     is_independent, is_saturated, min_combination_size)
from .generic import (IN, OUT, ComboDensityReport, Condition, Demand,
                      GenericRun, MeetResult, TargetGrid, auto_schedule,
                      build_generic, check_all_combos_dense,
                      extend_to_meet, is_condition)

__version__ = "0.1.0"
