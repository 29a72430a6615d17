"""In-memory tracing of edgeideals layers, from the benchmark's side only.

``Tracer.install()`` replaces each traced function at every module attribute
that holds it (the defining module, every module that imported it by name,
and the package namespace), so whichever name a caller looks up, the call is
seen.  Methods are replaced on their class.  ``uninstall()`` restores the
originals.

Two kinds of wrapper:

- a span records (name, start, end, parent span, operation id); the spans
  of one benchmark operation share the operation id;
- a tally only counts calls (and, for some, adds up their time), for
  functions called far too often to keep one span per call.

Spans and counts stay in memory; ``write`` puts them in a file when the
run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self._stack: list[int] = []
        self.active: dict[str, int] = defaultdict(int)  # span name -> how many are open
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(int)
        self.table_keys: set = set()
        self._undo: list = []

    # -- wrappers ------------------------------------------------------------

    def span_wrapper(self, name, fn, after=None):
        spans, stack, active = self.spans, self._stack, self.active

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            active[name] += 1
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                active[name] -= 1
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def tally_wrapper(self, name, fn, time_key=None, after=None):
        counts = self.counts

        if time_key is not None:

            def tallied(*args, **kwargs):
                start = _clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    counts[time_key] += _clock() - start
                counts[name] += 1
                if after is not None:
                    after(self, args, kwargs, result)
                return result

        elif after is None:

            def tallied(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

        else:

            def tallied(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                after(self, args, kwargs, result)
                return result

        tallied.__wrapped__ = fn
        return tallied

    def admissible_wrapper(self, fn):
        """is_admissible counts as a table check inside admissible_symbols and as a
        certificate-path check anywhere else (is_maximal_admissible, cycle certificates)."""
        counts, active = self.counts, self.active

        def tallied(*args, **kwargs):
            inside = active["lyubeznik.admissible_symbols"]
            counts["lyubeznik.admissible_checks" if inside else "lyubeznik.certificate_checks"] += 1
            return fn(*args, **kwargs)

        tallied.__wrapped__ = fn
        return tallied

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "edgeideals" or modname.startswith("edgeideals.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _replace_method(self, cls, attr, wrapper):
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper)
        self._undo.append((cls, attr, original))

    def install(self):
        """Wrap every function in FUNCTIONS and every method in METHODS."""
        import edgeideals.ideals as ideals

        for module_name, fn_name, kind, metric, after, time_key in FUNCTIONS:
            module = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
            original = getattr(module, fn_name)
            if kind == "span":
                wrapper = self.span_wrapper(metric, original, after)
            elif kind == "admissible":
                wrapper = self.admissible_wrapper(original)
            else:
                wrapper = self.tally_wrapper(metric, original, time_key, after)
            self._replace_everywhere(original, wrapper)
        for cls_name, attr, metric, time_key in METHODS:
            cls = getattr(ideals, cls_name)
            self._replace_method(cls, attr, self.tally_wrapper(metric, cls.__dict__[attr], time_key))

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # -- operations ------------------------------------------------------------

    def op(self, op_id: int, name: str, fn):
        """Run one benchmark operation as a root span."""
        self.op_id = op_id
        return self.span_wrapper("op", fn)()

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time direct children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - covered[idx]
        return out

    def span_totals(self) -> dict[str, tuple[int, float]]:
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name, start, end, _, _ in self.spans:
            out[name][0] += 1
            out[name][1] += end - start
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path: str, extra: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **extra,
                    "span_fields": ["name", "start_s", "end_s", "parent", "op"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )


# -- what is traced ----------------------------------------------------------


def _rank_after(tr, args, kwargs, result):
    rows = args[1] if len(args) > 1 else kwargs["int_rows"]
    tr.counts["linalg.rank_cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _table_after(tr, args, kwargs, result):
    ideal = args[0] if args else kwargs["ideal"]
    tr.counts["hochster.subsets"] += 1 << ideal.nvars
    tr.counts["hochster.entries"] += len(result.entries)
    tr.table_keys.add((tr.op_id, ideal.variables, tuple(ideal.supports()), repr(result.field), result.subject))


def _symbols_after(tr, args, kwargs, result):
    tr.counts["lyubeznik.symbols"] += len(result)


def _blocks_after(tr, args, kwargs, result):
    tr.counts["witness.blocks"] += len(result)


def _catalog_after(tr, args, kwargs, result):
    tr.counts["catalog.graphs"] += len(result)


# (module, function, kind, metric name, after-hook, time metric of a tally)
FUNCTIONS = [
    ("edgeideals.linalg", "rank_over", "span", "linalg.rank", _rank_after, None),
    ("edgeideals.hochster", "betti_table", "span", "hochster.table", _table_after, None),
    ("edgeideals.lyubeznik", "lyubeznik_betti_table", "span", "lyubeznik.table", None, None),
    ("edgeideals.lyubeznik", "admissible_symbols", "span", "lyubeznik.admissible_symbols", _symbols_after, None),
    ("edgeideals.lyubeznik", "main_theorem_certificate", "span", "lyubeznik.certificate", None, None),
    ("edgeideals.witness", "max_pd_witness", "span", "witness.search", None, None),
    ("edgeideals.witness", "witness_for", "span", "witness.search", None, None),
    ("edgeideals.catalog", "generate_catalog", "span", "catalog.generate", _catalog_after, None),
    ("edgeideals.campaigns", "run_campaign", "span", "campaigns.run", None, None),
    ("edgeideals.lyubeznik", "is_admissible", "admissible", None, None, None),
    ("edgeideals.witness", "all_blocks", "tally", "witness.all_blocks", _blocks_after, None),
    ("edgeideals.witness", "find_representatives", "tally", "witness.rep_searches", None, None),
    ("edgeideals.witness", "is_valid_family", "tally", "witness.valid_checks", None, None),
    ("edgeideals.graphs", "canonical_form", "tally", "graphs.canonical_forms", None, "graphs.canonical_form_s"),
    ("edgeideals.graphs", "are_isomorphic", "tally", "graphs.iso_tests", None, None),
]

# (class in edgeideals.ideals, method, metric name, time metric)
METHODS = [
    ("Monomial", "__init__", "ideals.monomials", None),
    ("Monomial", "divides", "ideals.divides", None),
    ("Monomial", "lcm", "ideals.lcm", None),
    ("MonomialIdeal", "__init__", "ideals.ideal_inits", "ideals.ideal_init_s"),
]
