"""Span tracer for the downup_hh modules, installed from outside the package.

`install()` wraps the public functions of each traced module, a few class
constructors and the QMatrix elimination and product methods.  A wrapped
function is rebound at every binding site, so names that one module pulled
in from another with `from .x import y` are traced as well.  Every call
records a span (name, start, end, parent) in memory; `Tracer.dump` writes
them out when the traced process ends, together with the work counts taken
at the same boundaries.  `summarize` turns the spans of one process into
per-name calls, busy time and self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

PACKAGE = "downup_hh"
MODULES = ("cli", "core", "algebra", "resolution", "cohomology", "yoneda",
           "invariants", "linalg")

# Constructors traced as spans named <module>.<Class>.
CONSTRUCTORS = {"algebra": ("Beilinson",),
                "resolution": ("Resolution", "HomComplex"),
                "yoneda": ("ChainMap",)}

# QMatrix methods traced as spans named linalg.<label>.
QMATRIX_METHODS = {"rank": "rank", "rref": "rref", "solve": "solve",
                   "inverse": "inverse", "char_poly": "char_poly",
                   "pow": "pow", "__matmul__": "matmul",
                   "kernel_basis": "kernel_basis", "det": "det"}

# Public helpers left untraced because they run in inner loops, where a
# span per call would cost more than the work it measures.
UNTRACED = {"algebra.acc", "cli.fmt_q"}


def _nnz(rows) -> int:
    return sum(1 for row in rows for x in row if x)


class Tracer:
    """Spans and counts of one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack = [-1]
        self.traced: set[str] = set()
        self.counts: dict[str, int] = {}
        self.distinct: dict[str, set] = {}

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def see(self, key: str, item) -> None:
        self.distinct.setdefault(key, set()).add(item)

    def wrap(self, name: str, fn, after=None):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack)
        clock = time.perf_counter
        self.traced.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if after is not None:
                    after(args)
        return traced

    def dump(self, path: str) -> None:
        table = sorted(set(self.names))
        code = {nm: i for i, nm in enumerate(table)}
        record = {"run": self.run_id, "names": table,
                  "traced": sorted(self.traced),
                  "spans": [[code[nm], s, e, p] for nm, s, e, p in
                            zip(self.names, self.starts, self.ends,
                                self.parents)],
                  "counts": self.counts,
                  "distinct": {k: sorted(map(str, v))
                               for k, v in self.distinct.items()}}
        with open(path, "w") as fh:
            json.dump(record, fh)


def _count_hooks(tr: Tracer) -> dict:
    def elim(args):
        m = args[0]
        tr.add("linalg.elim.cells", m.nrows * m.ncols)
        tr.add("linalg.elim.nnz", _nnz(m.rows))

    def matmul(args):
        a, b = args
        tr.add("linalg.matmul.mults", a.nrows * a.ncols * b.ncols)

    def hom_complex(args):
        C = args[0]
        tr.add("resolution.HomComplex.d_nnz", _nnz(C.D1.rows) + _nnz(C.D2.rows))
        tr.add("resolution.HomComplex.d_cells",
               C.D1.nrows * C.D1.ncols + C.D2.nrows * C.D2.ncols)
        tr.see("resolution.HomComplex", C.inst.key())

    def hh_dims(args):
        tr.see("cohomology.hh_dims_computed", args[0].inst.key())

    def derived(args):
        tr.see("invariants.derived_invariants", (args[0].n, args[0].m))

    return {"linalg.rank": elim, "linalg.rref": elim, "linalg.matmul": matmul,
            "resolution.HomComplex": hom_complex,
            "cohomology.hh_dims_computed": hh_dims,
            "invariants.derived_invariants": derived}


def install(run_id: str) -> Tracer:
    """Wrap the traced callables of the imported package; return the tracer."""
    tr = Tracer(run_id)
    hooks = _count_hooks(tr)
    replaced = {}  # id(original function) -> wrapper
    for short in MODULES:
        mod = sys.modules[f"{PACKAGE}.{short}"]
        for attr, obj in list(vars(mod).items()):
            name = f"{short}.{attr}"
            if (attr.startswith("_") or name in UNTRACED
                    or not isinstance(obj, types.FunctionType)
                    or obj.__module__ != mod.__name__):
                continue
            replaced[id(obj)] = tr.wrap(name, obj, hooks.get(name))
        for cls_name in CONSTRUCTORS.get(short, ()):
            cls = getattr(mod, cls_name)
            name = f"{short}.{cls_name}"
            cls.__init__ = tr.wrap(name, cls.__init__, hooks.get(name))
    qm = sys.modules[f"{PACKAGE}.linalg"].QMatrix
    for meth, label in QMATRIX_METHODS.items():
        name = f"linalg.{label}"
        setattr(qm, meth, tr.wrap(name, getattr(qm, meth), hooks.get(name)))
    # Rebind every module-level reference, including re-exports.
    for modname, mod in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for attr, obj in list(vars(mod).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None and obj is wrapper.__wrapped__:
                setattr(mod, attr, wrapper)
    return tr


# -- post-processing ----------------------------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its child spans cover.

    `spans` is a list of (name, start, end, parent, ...) tuples with parent
    an index into the list, or -1 for a root.
    """
    children: dict[int, list] = {}
    for sp in spans:
        if sp[3] >= 0:
            children.setdefault(sp[3], []).append((sp[1], sp[2]))
    return [(sp[2] - sp[1]) - _covered(children.get(i, ()), sp[1], sp[2])
            for i, sp in enumerate(spans)]


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (outermost calls only) and self_s."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, sp in enumerate(spans):
        name, s, e, p = sp[:4]
        rec = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += selfs[i]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:  # no enclosing span of the same name
            rec["busy_s"] += e - s
    return out


def uncovered(spans) -> tuple[float, float]:
    """(time in cli.main, the part of it that no span outside cli covers)."""
    roots = [i for i, sp in enumerate(spans) if sp[0] == "cli.main"]
    total = sum(spans[i][2] - spans[i][1] for i in roots)
    # Topmost spans of the other layers: their parent is a cli span.
    tops = [(sp[1], sp[2]) for sp in spans
            if not sp[0].startswith("cli.") and sp[3] >= 0
            and spans[sp[3]][0].startswith("cli.")]
    covered = sum(_covered(tops, spans[i][1], spans[i][2]) for i in roots)
    return total, total - covered


def load(path: str) -> dict:
    """A dumped trace, with spans as (name, start, end, parent, run) tuples."""
    with open(path) as fh:
        rec = json.load(fh)
    names = rec["names"]
    rec["spans"] = [(names[c], s, e, p, rec["run"]) for c, s, e, p in rec["spans"]]
    return rec
