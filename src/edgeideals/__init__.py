"""Exact multigraded Betti numbers of edge ideals and their witnesses.

The package computes Betti tables of squarefree monomial quotients over
GF(p) or the rationals via Hochster's formula, certifies non-vanishing
through ordered Taylor (Lyubeznik) complexes, searches for vertex-disjoint
complete bipartite families with 3-disjoint representatives, and evaluates
the closed-form projective-dimension formulas those families support on
Cohen-Macaulay and unmixed bipartite graphs.

The names below are loaded from their submodules on first use (PEP 562), so
``import edgeideals.graphs`` or the CLI compiles only the modules it runs.
A name is looked up in its submodule on every access and never stored here,
so a function patched in its submodule is what ``edgeideals.<name>`` gives,
and what it gives again once the patch is undone.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCES = {
    "ResourceLimitError": "errors",
    **dict.fromkeys(
        (
            "SimpleGraph",
            "bipartition",
            "c_number",
            "complete_bipartite_graph",
            "complete_graph",
            "cycle_graph",
            "disjoint_union",
            "ferrers_graph",
            "is_chordal",
            "is_cochordal",
            "is_complete_bipartite",
            "path_graph",
        ),
        "graphs",
    ),
    **dict.fromkeys(("betti_table", "graph_betti_table"), "hochster"),
    **dict.fromkeys(
        (
            "BettiTable",
            "Monomial",
            "MonomialIdeal",
            "alexander_dual",
            "cover_ideal",
            "edge_ideal",
            "is_unmixed",
            "minimal_vertex_covers",
        ),
        "ideals",
    ),
    **dict.fromkeys(("GF2", "RATIONALS", "FieldSpec"), "linalg"),
    **dict.fromkeys(
        (
            "Cycle",
            "admissible_symbols",
            "barile_certificate",
            "bipartite_cycle",
            "check_cycle_certificate",
            "is_admissible",
            "is_maximal_admissible",
            "lyubeznik_betti_table",
            "main_theorem_certificate",
            "product_cycle",
            "taylor_boundary",
        ),
        "lyubeznik",
    ),
    **dict.fromkeys(
        (
            "CompleteBipartiteSub",
            "DisjointFamily",
            "a_number",
            "cochordal_pd",
            "is_three_disjoint",
            "is_valid_family",
            "max_pd_witness",
            "witness_for",
        ),
        "witness",
    ),
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    try:
        source = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{source}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
