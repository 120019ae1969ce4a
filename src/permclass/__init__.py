"""permclass: permutation containment, closed classes, infinite antichains,
and exact enumeration of avoidance classes."""

from .antichain import (
    AvoidanceBasis,
    ClosureOf,
    PermGraph,
    SHORT_BASIS,
    basis_up_to,
    double_fork,
    is_antichain,
    mu,
    perm_graph,
    tree_isomorphic,
)
from .enumeration import (
    LinearRecurrence,
    PAIR_BASIS,
    QUAD_BASIS,
    RationalGF,
    SEED,
    StateVector,
    TRIPLE_BASIS,
    abcde_counts,
    abcde_step,
    count_avoiders,
    enumerate_avoiders,
    eval_recurrence,
    fit_recurrence,
    gf_from_recurrence,
)
from .errors import PermclassError
from .growth import (
    IntPolynomial,
    RootEstimate,
    alpha,
    char_poly,
    dominant_root,
)
from .perm import (
    Perm,
    complement,
    contains,
    direct_sum,
    inflate,
    inverse,
    pattern_of,
    restriction,
    reverse,
    skew_sum,
)
from .structure import (
    Decomposition,
    UNBOUNDED,
    al,
    down_decomposition,
    h_minus,
    h_plus,
    is_alternating,
    k_decomposition,
    s_k,
    up_decomposition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
