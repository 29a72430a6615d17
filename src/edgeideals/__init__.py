"""Exact multigraded Betti numbers of edge ideals and their witnesses.

The package computes Betti tables of squarefree monomial quotients over
GF(p) or the rationals via Hochster's formula, certifies non-vanishing
through ordered Taylor (Lyubeznik) complexes, searches for vertex-disjoint
complete bipartite families with 3-disjoint representatives, and evaluates
the closed-form projective-dimension formulas those families support on
Cohen-Macaulay and unmixed bipartite graphs.
"""

from .errors import ResourceLimitError
from .graphs import (
    SimpleGraph,
    bipartition,
    c_number,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    ferrers_graph,
    is_chordal,
    is_cochordal,
    is_complete_bipartite,
    path_graph,
)
from .hochster import (
    BettiTable,
    betti_table,
    graph_betti_table,
)
from .ideals import (
    Monomial,
    MonomialIdeal,
    alexander_dual,
    cover_ideal,
    edge_ideal,
    is_unmixed,
    minimal_vertex_covers,
)
from .linalg import GF2, RATIONALS, FieldSpec
from .lyubeznik import (
    Cycle,
    admissible_symbols,
    barile_certificate,
    bipartite_cycle,
    check_cycle_certificate,
    is_admissible,
    is_maximal_admissible,
    lyubeznik_betti_table,
    main_theorem_certificate,
    product_cycle,
    taylor_boundary,
)
from .witness import (
    CompleteBipartiteSub,
    DisjointFamily,
    a_number,
    cochordal_pd,
    is_three_disjoint,
    is_valid_family,
    max_pd_witness,
    witness_for,
)

__version__ = "0.1.0"
