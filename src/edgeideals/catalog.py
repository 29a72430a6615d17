"""Duplicate-free graph and poset corpora for exhaustive verification.

Each catalog builds its candidates in a fixed order (extensions of smaller
graphs or posets, blow-ups and graphs of posets, Ferrers shapes) and keeps
the first of each isomorphism class, so each class appears exactly once and
catalog order is deterministic.  Graphs are keyed by
``graphs.canonical_form``, posets by ``Poset.canonical_key``, which is
``canonical_form`` of a graph that marks the poset's sides.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .graphs import (
    SimpleGraph,
    _twins,
    canonical_form,
    check_keys,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    ferrers_graph,
    is_chordal,
    is_cochordal,
    iter_bits,
    path_graph,
)

# the poset and blow-up classes import cm_bipartite and unmixed when they are
# built, so named graphs and graph catalogs compile neither


def _one_per_class(items, key) -> list:
    """The first item of each class of equal keys, in the order given."""
    seen = set()
    out = []
    for item in items:
        k = key(item)
        if k not in seen:
            seen.add(k)
            out.append(item)
    return out


def _twin_normal_sets(g: SimpleGraph) -> list[int]:
    """The vertex sets of g that hold the lowest members of each class of
    twins, as increasing integers.

    Swapping two twins is an automorphism of g.  Such swaps take any vertex
    set onto the twin-normal set with the same count in each class, which is
    no larger as an integer.
    """
    classes: list[list[int]] = []
    for v in range(g.n):
        for c in classes:
            if _twins(g.adj, c[0], v):
                c.append(v)
                break
        else:
            classes.append([v])
    lowest = [[sum(1 << v for v in c[:k]) for k in range(len(c) + 1)] for c in classes]
    return sorted(map(sum, product(*lowest)))


@lru_cache(maxsize=None)
def graphs_on(n: int) -> tuple[SimpleGraph, ...]:
    """All simple graphs on exactly n vertices, one per isomorphism class.

    Extend each (n-1)-vertex graph by a new vertex attached to each
    twin-normal set of the old ones, in increasing order; keep the first
    extension of each class.  An attach set that is not twin-normal gives an
    extension isomorphic to that of a smaller set offered before it from the
    same base, so it is never the first of its class, and skipping it leaves
    the catalog and its order as they would be over every attach set.
    """
    if n == 0:
        return (SimpleGraph(0),)
    return tuple(_one_per_class((
        SimpleGraph(n, base.edges() + [(u, n - 1) for u in iter_bits(attach)])
        for base in graphs_on(n - 1)
        for attach in _twin_normal_sets(base)
    ), canonical_form))


def connected_graphs_on(n: int) -> list[SimpleGraph]:
    return [g for g in graphs_on(n) if len(g.components()) == 1]


@lru_cache(maxsize=None)
def posets_on(k: int) -> tuple:
    """All posets on exactly k elements, one per isomorphism class, built by
    repeatedly adjoining a new maximal element above a chosen down-set."""
    from .cm_bipartite import Poset

    if k == 0:
        return (Poset(0, []),)
    top = 1 << (k - 1)
    return tuple(_one_per_class((
        Poset(k, [m | (top if down >> i & 1 else 0) for i, m in enumerate(base.up)] + [top])
        for base in posets_on(k - 1)
        for down in base.ideals()
    ), Poset.canonical_key))


def unmixed_blowups(max_elements, max_zeta, max_vertices) -> list[SimpleGraph]:
    """Blow-ups of poset graphs: every unmixed bipartite graph whose reduction
    has at most max_elements classes of size at most max_zeta each."""
    from .unmixed import blow_up

    # k classes need 2k vertices, and leave one class max_vertices // 2 - k + 1
    return _one_per_class((
        blow_up(p, zeta)
        for k in range(1, min(max_elements, max_vertices // 2) + 1)
        for p in posets_on(k)
        for zeta in product(range(1, min(max_zeta, max_vertices // 2 - k + 1) + 1), repeat=k)
        if 2 * sum(zeta) <= max_vertices
    ), canonical_form)


def cm_poset_graphs(max_elements) -> list[SimpleGraph]:
    from .cm_bipartite import graph_from_poset

    return _one_per_class(
        (graph_from_poset(p) for k in range(1, max_elements + 1) for p in posets_on(k)), canonical_form
    )


def partitions_in_box(max_rows: int, max_cols: int):
    """Weakly decreasing positive tuples with at most max_rows parts, each at
    most max_cols, depth first: a tuple comes before its extensions, and a
    larger part before a smaller one."""
    stack = [(p,) for p in range(1, max_cols + 1)] if max_rows > 0 else []
    while stack:
        lam = stack.pop()
        yield lam
        if len(lam) < max_rows:
            stack.extend(lam + (p,) for p in range(1, lam[-1] + 1))


def ferrers_graphs(max_rows, max_cols) -> list[SimpleGraph]:
    shapes = sorted(partitions_in_box(max_rows, max_cols), key=lambda t: (len(t), t))
    return _one_per_class((ferrers_graph(lam) for lam in shapes), canonical_form)


_NAMED = {
    "path": path_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
}


def _sizes(name: str, parts: list[str]) -> list[int]:
    """The integer sizes of a named graph; any other part names no graph."""
    try:
        return [int(x) for x in parts]
    except ValueError:
        raise ValueError(f"unknown named graph: {name!r}") from None


def named_graph(name: str) -> SimpleGraph:
    """path_N, cycle_N, complete_N, complete_bipartite_M_N, ferrers_a_b_c."""
    parts = name.split("_")
    if parts[0] == "complete" and len(parts) == 4 and parts[1] == "bipartite":
        return complete_bipartite_graph(*_sizes(name, parts[2:]))
    if parts[0] == "ferrers":
        return ferrers_graph(tuple(_sizes(name, parts[1:])))
    if parts[0] in _NAMED and len(parts) == 2:
        return _NAMED[parts[0]](*_sizes(name, parts[1:]))
    raise ValueError(f"unknown named graph: {name!r}")


_SIZED_CLASSES = ("all", "connected", "chordal", "cochordal")
# the builder of each class a spec sizes by its own parameters, and those
# parameters with their defaults, in the builder's argument order
_BUILT_CLASSES = {
    "cm_posets": (cm_poset_graphs, {"max_elements": 4}),
    "unmixed_blowups": (unmixed_blowups, {"max_elements": 3, "max_zeta": 3, "max_vertices": 12}),
    "ferrers": (ferrers_graphs, {"max_rows": 4, "max_cols": 4}),
}
# the keys each catalog class reads, "class" included
_SPEC_KEYS = {cls: ("class", "n", "max_n") for cls in _SIZED_CLASSES}
_SPEC_KEYS.update({cls: ("class", *params) for cls, (_, params) in _BUILT_CLASSES.items()})
_SPEC_KEYS.update(named=("class", "names"), files=("class", "files"))


def _spec_class(spec: dict):
    """spec["class"], once every other key of the spec is one its class reads."""
    cls = spec.get("class")
    if isinstance(cls, str) and cls in _SPEC_KEYS:
        check_keys(spec, _SPEC_KEYS[cls], f"catalog class {cls!r}")
    return cls


def _spec_int(spec: dict, key: str, default=None) -> int:
    """spec[key] (or default) as an integer >= 0; anything else is a ValueError."""
    value = spec.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"catalog {key!r} must be an integer >= 0, got {value!r}")
    return value


def _built_args(spec: dict) -> list[int]:
    """The builder arguments of a spec of a class in ``_BUILT_CLASSES``."""
    params = _BUILT_CLASSES[spec["class"]][1]
    return [_spec_int(spec, key, default) for key, default in params.items()]


def _spec_strings(spec: dict, key: str) -> list[str]:
    """spec[key] as a list of distinct strings; a repeat would only repeat
    a graph id and its rows."""
    value = spec.get(key)
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ValueError(f"catalog {key!r} must be a list of strings, got {value!r}")
    for i, x in enumerate(value):
        if x in value[:i]:
            raise ValueError(f"catalog {key!r} repeats {x!r}")
    return value


def catalog_sizes(spec: dict) -> list[int] | None:
    """The vertex counts a spec names: "n" (exact) or "max_n" (sweep from 1)
    of a sized class, 2k per poset size k of cm_posets, twice each total
    weight of unmixed_blowups, up to max_rows + max_cols for ferrers; None
    where only the built graphs tell."""
    cls = _spec_class(spec)
    if cls == "cm_posets":
        (elements,) = _built_args(spec)
        return [2 * k for k in range(1, elements + 1)]
    if cls == "unmixed_blowups":
        # a blow-up has 2 * sum(zeta) vertices, and every total weight from 1
        # to max_elements * max_zeta that max_vertices leaves room for is built
        elements, zeta, vertices = _built_args(spec)
        return [2 * w for w in range(1, min(elements * zeta, vertices // 2) + 1)]
    if cls == "ferrers":
        rows, cols = _built_args(spec)
        return list(range(2, rows + cols + 1)) if rows and cols else []
    if cls not in _SIZED_CLASSES:
        return None
    if "n" in spec and "max_n" in spec:
        raise ValueError(f"catalog class {cls!r} takes 'n' or 'max_n', not both")
    if "n" in spec:
        return [_spec_int(spec, "n")]
    if "max_n" in spec:
        return list(range(1, _spec_int(spec, "max_n") + 1))
    raise ValueError(f"catalog class {cls!r} needs 'n' or 'max_n'")


def generate_catalog(spec: dict) -> list[tuple[str, SimpleGraph]]:
    """Materialize a graph corpus from a JSON-able spec.

    Classes: all, connected, chordal, cochordal (sized by ``catalog_sizes``),
    cm_posets, unmixed_blowups, ferrers, named, files.  A malformed spec
    raises ``ValueError``; a graph file that cannot be read raises
    ``OSError`` and one that is malformed ``ValueError``, each naming the file.
    """
    cls = _spec_class(spec)
    if cls is None:
        raise ValueError("catalog spec needs a 'class' key")

    out: list[tuple[str, SimpleGraph]] = []
    if cls in _SIZED_CLASSES:
        for n in catalog_sizes(spec):
            pool = connected_graphs_on(n) if cls == "connected" else graphs_on(n)
            if cls in ("chordal", "cochordal"):
                pool = [g for g in pool if (is_chordal if cls == "chordal" else is_cochordal)(g)]
            for idx, g in enumerate(pool):
                out.append((f"{cls}/{n}/{idx}", g))
    elif cls in _BUILT_CLASSES:
        for idx, g in enumerate(_BUILT_CLASSES[cls][0](*_built_args(spec))):
            out.append((f"{cls}/{idx}", g))
    elif cls == "named":
        for name in _spec_strings(spec, "names"):
            out.append((f"named/{name}", named_graph(name)))
    elif cls == "files":
        for path in _spec_strings(spec, "files"):
            try:
                g = SimpleGraph.load(path)
            except OSError as exc:
                raise OSError(f"cannot load graph file {path!r}: {exc.strerror or exc}") from exc
            except ValueError as exc:
                # non-UTF-8 input arrives here too, as UnicodeDecodeError
                raise ValueError(f"cannot load graph file {path!r}: {exc}") from exc
            out.append((f"file/{path}", g))
    else:
        raise ValueError(f"unknown catalog class: {cls!r}")
    return out
