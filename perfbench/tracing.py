"""Spans and counts around the public functions of the `subbases` modules.

The tracer wraps functions from the benchmark's side; nothing in the
package changes.  A wrapper replaces the function at every lookup site (its
home module and every `subbases` module that imported it by name), so calls
such as `cli.build(...)` or `checker.digit_table(...)` are both seen.
Methods that the metrics need (`SpaceModel.distance_row`, every
`DyadicSubbase.digit` implementation, ...) are patched on their classes.

Spans stay in memory as `[name, start, end, parent, job]` and are written
out after the run.  A span's self time is its duration minus the durations
of its direct children.  The `seq` layer is too fine-grained for spans and
is only counted, keyed by the innermost open span.
"""

from __future__ import annotations

import collections
import inspect
import json
import sys
import time
import weakref

LAYERS = ("cli", "files", "space", "builder", "subbase", "checker", "seq")

# Span names that differ from "module.function".
RENAME = {
    "checker.check_proper": "checker.check",
    "checker.check_strong_proper": "checker.check",
}

# Counted, not spanned: (class name in subbases.seq, method, count name).
SEQ_METHODS = (
    ("BottomedSeq", "__init__", "seq.BottomedSeq"),
    ("BottomedSeq", "leq", "seq.leq"),
    ("BottomedSeq", "try_join", "seq.try_join"),
)

# Spanned methods: (module, class name, method, span name).
SPACE_METHODS = (
    ("space", "SpaceModel", "distance_row", "space.distance_row"),
    ("space", "SpaceModel", "neighbor_lists", "space.neighbor_lists"),
    ("space", "SpaceModel", "dense_index", "space.dense_index"),
)

# Wrappers the per-layer metrics rest on; a missing one is reported absent.
REQUIRED = (
    "cli.run", "files.load_subbase", "files.save_subbase",
    "space.distance_row", "space.neighbor_lists", "space.dense_index",
    "builder.collect_avoid", "builder.choose_cut",
    "subbase.digit", "subbase.phi", "subbase.enumerate_K", "subbase.is_cusl",
    "subbase.kslice_to_dot", "checker.digit_table", "checker.check",
    "seq.BottomedSeq", "seq.leq", "seq.try_join",
)


class Tracer:
    """Installs wrappers into an imported `subbases` package and records
    what they see; `uninstall` puts every original back."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job]
        self.stack = []          # indices of open spans
        self.counts = collections.Counter()   # (name, innermost span name)
        self.job = None
        self.installed = set()
        self.row_stats = []      # [samples, set of rows read] per SpaceModel
        self._rows_by_model = weakref.WeakKeyDictionary()
        self.tables = []         # digit tables returned to the checker
        self.avoid_sets = []     # AvoidSets returned by collect_avoid
        self.kslice_sizes = []   # len(K.elements) per enumerate_K call
        self._patches = []       # (owner, attribute, original)

    # -- wrappers --------------------------------------------------------

    def _span(self, fn, name, on_return=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, name):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            counts[name, spans[stack[-1]][0] if stack else None] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- result hooks (run after the span has closed) --------------------

    def _on_distance_row(self, args, _row):
        model, i = args[0], args[1]
        stats = self._rows_by_model.get(model)
        if stats is None:
            stats = [len(model), set()]
            self._rows_by_model[model] = stats
            self.row_stats.append(stats)
        stats[1].add(int(i))

    def _on_digit_table(self, _args, table):
        self.tables.append(table)

    def _on_collect_avoid(self, _args, avoid):
        self.avoid_sets.append(avoid)

    def _on_enumerate_K(self, _args, K):
        self.kslice_sizes.append(len(K.elements))

    # -- install / uninstall ---------------------------------------------

    def install(self, package):
        """Wrap the public functions of every layer module of `package`."""
        modules = {name: sys.modules.get("%s.%s" % (package.__name__, name))
                   for name in LAYERS}
        sites = [package] + [m for m in modules.values() if m is not None]
        hooks = {
            "checker.digit_table": self._on_digit_table,
            "builder.collect_avoid": self._on_collect_avoid,
            "subbase.enumerate_K": self._on_enumerate_K,
            "space.distance_row": self._on_distance_row,
        }
        for layer, module in modules.items():
            if module is None:
                continue
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = RENAME.get("%s.%s" % (layer, attr), "%s.%s" % (layer, attr))
                if layer == "seq":
                    wrapped = self._count(fn, name)
                else:
                    wrapped = self._span(fn, name, hooks.get(name))
                for site in sites:
                    for key, value in list(vars(site).items()):
                        if value is fn:
                            self._patch(site, key, wrapped)
                self.installed.add(name)
        seq_mod, subbase_mod = modules["seq"], modules["subbase"]
        for cls_name, meth, name in SEQ_METHODS:
            cls = getattr(seq_mod, cls_name, None)
            if cls is not None and meth in vars(cls):
                self._patch(cls, meth, self._count(vars(cls)[meth], name))
                self.installed.add(name)
        for mod_name, cls_name, meth, name in SPACE_METHODS:
            cls = getattr(modules[mod_name], cls_name, None)
            if cls is not None and meth in vars(cls):
                self._patch(cls, meth, self._span(vars(cls)[meth], name,
                                                  hooks.get(name)))
                self.installed.add(name)
        base = getattr(subbase_mod, "DyadicSubbase", None)
        if base is not None:
            for module in sites[1:]:
                for cls in list(vars(module).values()):
                    if (inspect.isclass(cls) and issubclass(cls, base)
                            and cls.__module__ == module.__name__
                            and "digit" in vars(cls)):
                        self._patch(cls, "digit",
                                    self._span(vars(cls)["digit"], "subbase.digit"))
                        self.installed.add("subbase.digit")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def absent(self):
        return sorted(set(REQUIRED) - self.installed)

    # -- derived figures -------------------------------------------------

    def self_times(self):
        """Per span index: duration minus the durations of direct children."""
        own = [end - start for _n, start, end, _p, _j in self.spans]
        self_t = list(own)
        for i, (_n, _s, _e, parent, _j) in enumerate(self.spans):
            if parent >= 0:
                self_t[parent] -= own[i]
        return self_t

    def has_ancestor(self, i, name):
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def summary(self):
        """Per span name: calls, self seconds, total seconds, and the
        calls whose innermost enclosing span has a different name."""
        self_t = self.self_times()
        out = {}
        for i, (name, start, end, parent, _job) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "outer_calls": 0,
                                      "self_s": 0.0, "total_s": 0.0})
            s["calls"] += 1
            s["self_s"] += self_t[i]
            if parent < 0 or self.spans[parent][0] != name:
                s["outer_calls"] += 1
                s["total_s"] += end - start
        return out

    def write(self, path, header):
        """One JSON header line, then one line per span:
        [name index, start us, end us, parent span, job index], with times
        from the first span's start and indices into the header's lists."""
        names = sorted({rec[0] for rec in self.spans})
        jobs = sorted({rec[4] for rec in self.spans}, key=str)
        name_i = {n: i for i, n in enumerate(names)}
        job_i = {j: i for i, j in enumerate(jobs)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, span_names=names, span_jobs=jobs),
                                sort_keys=True) + "\n")
            for name, start, end, parent, job in self.spans:
                fh.write("[%d,%d,%d,%d,%d]\n" % (
                    name_i[name], round((start - t0) * 1e6),
                    round((end - t0) * 1e6), parent, job_i[job]))
