"""Exact computations in continuous full groups of one-sided Markov shifts.

Validated 0-1 transition matrices fix an ambient shift space; group
elements are finite prefix-exchange tables; clopen subsets, supports,
fixed sets and orbit cocycles are all computed exactly.  Constructive
witnesses (involutions between clopen sets, transports, order-2/order-3
pairs) come with machine-checkable postconditions, and the pointed
cokernel invariant decides isomorphism of full groups where the
classification applies.
"""

from .errors import (
    BadDomain,
    BadInput,
    ConditionIFails,
    EmptyInput,
    FullShiftError,
    ImagesDontCover,
    ImagesOverlap,
    InadmissibleWord,
    MatrixMismatch,
    NotAWitness,
    NotDisjoint,
    NotEssential,
    NotInvariant,
    NotIrreducible,
    PreconditionFailed,
    RowMismatch,
    SearchLimitExceeded,
)
from .sft import (
    ClopenSet,
    EPPoint,
    TransitionMatrix,
    Word,
    canonicalize_clopen,
    connect_path,
    cylinder,
    distinct_path_pair,
    empty_set,
    full_space,
    point_in,
    validate_matrix,
)
from .tables import CocycleTable, FixedSet, TableMap, validate_table
from .constructions import (
    clopen_transport,
    cylinder_involution,
    cylinder_swap,
    free_pair,
    involution_into,
    localize_conjugate,
    minimality_witness,
    paired_transport,
    swap_involution,
    witness_search,
)
from .invariants import (
    BFGroup,
    GroupElement,
    bowen_franks,
    clopen_class,
    full_group_iso_decide,
    gamma_equivalent,
    pointed_iso_decide,
    smith_normal_form,
)

__version__ = "0.1.0"
