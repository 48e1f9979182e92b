"""Command-line interface: exact reports, verification sweeps, and tables.

Everything is rational end to end: arguments accept only integer or p/q
literals, reports serialize rationals as strings, and no value ever passes
through a float.  Output for a fixed command line is deterministic byte for
byte, so the table and JSON emitters are golden-file testable.  One
registry of check groups, `CHECKS`, serves every command: `verify` runs its
groups over a sweep of sampled instances, and each single-instance command
(`REPORTS`) reports the checks of the group it names on its instance.  The
exit status is 0 exactly when every emitted check passed, which makes
`verify` usable as a batch gate; `--inject-fault lambda-sign` corrupts one
closed form on purpose so that the gate's failure path can itself be tested.
"""

import argparse
import json
import math
import os
import re
import sys

from .cohomology import (
    basis_labels,
    euler_characteristic_closed_form,
    hh0_basis,
    hh1_basis,
    hh2_basis,
    hh2_substitution_needed,
    hh_dims_closed_form,
    hh_dims_computed,
    sample_instances,
    stratum_samples,
    verify_bases,
)
from .core import Instance, Q, canonical_instance, classify
from .invariants import (
    derived_invariants,
    happel_trace_check,
    unipotent_closed_form,
)
from .resolution import HomComplex, L2_display, rank_L1_closed_form, tau_label
from .yoneda import (
    LIFT_SIGN,
    closed_form_lifts,
    ring_presentation,
    ring_row_defect_expected,
    ring_row_report,
)

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Q:
    if not _RATIONAL.match(text):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an exact rational; write p or p/q, floats are not accepted")
    try:
        return Q(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"{text!r} has denominator zero")


def parse_max_sum(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 2:
        raise argparse.ArgumentTypeError(
            f"must be at least 2, the smallest n+m; got {value}")
    return value


def fmt_q(x) -> str:
    return str(Q(x))


def _write(path: str, payload: str, mode: str = "w"):
    """Write payload to path; an unwritable path is bad input: exit 2."""
    try:
        with open(path, mode) as fh:
            fh.write(payload)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {path}: {exc.strerror or exc}\n")
        raise SystemExit(2)


def _emit(args, payload: str):
    """Write to --out or stdout."""
    if getattr(args, "out", None):
        _write(args.out, payload)
    else:
        sys.stdout.write(payload)


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "pass": bool(ok), "detail": detail}


def _failed(checks) -> int:
    return sum(1 for c in checks if not c["pass"])


# -- instance construction --------------------------------------------------

def _build(args, reduced_only=None):
    """(instance, k, swapped) from the flags, or exit 2 with a diagnostic.

    `reduced_only` names a report that needs coprime weights, as in "ring
    reporting works"; with it, weights that reduce exit 2 as well.
    """
    try:
        inst, k, swapped = canonical_instance(
            args.n, args.m, args.alpha, args.beta,
            allow_reduce=args.reduce, allow_swap=args.canonicalize)
    except ValueError as exc:
        msg = (str(exc).replace("allow_reduce", "--reduce")
               .replace("allow_swap", "--canonicalize"))
        sys.stderr.write(f"error: {msg}\n")
        raise SystemExit(2)
    if reduced_only and k != 1:
        sys.stderr.write(f"error: {reduced_only} on the reduced pair; "
                         "rerun with the coprime weights\n")
        raise SystemExit(2)
    return inst, k, swapped


# -- single-instance reports ------------------------------------------------
# Each section fills in its command's part of the report and returns the text
# lines of that part (compute's CSV lines under --format csv).  What a section
# and its check group both read, such as the ring report, the complex keeps.

DIMS_HEADER = ["instance", "case1", "case2", "h0", "h1", "h2", "chi",
               "unipotent"]


def _stratum_cells(label: str, inst: Instance) -> list:
    c1, c2 = classify(inst)
    return [label, c1.value, c2.value]


def _dims_row(label: str, inst: Instance, dims, chi: int,
              unipotent: bool) -> list:
    """One DIMS_HEADER row, every cell a string."""
    return (_stratum_cells(label, inst) + [str(d) for d in dims]
            + [str(chi), "true" if unipotent else "false"])


def _compute_section(args, inst: Instance, C: HomComplex, rep: dict):
    k, comp = rep["closed_form"]["k"], tuple(rep["dims"].values())
    closed = tuple(k * d for d in hh_dims_closed_form(inst))
    chi = k * euler_characteristic_closed_form(inst)
    rep["closed_form"].update(zip(("h0", "h1", "h2", "chi"), closed + (chi,)))
    if args.format == "csv":
        row = _dims_row(f"n={args.n} m={args.m} alpha={fmt_q(args.alpha)} "
                        f"beta={fmt_q(args.beta)}", inst, comp, chi,
                        derived_invariants(inst)["serre_unipotent"])
        return [",".join(DIMS_HEADER), ",".join(row)]
    cls = rep["classification"]
    return [f"stratum:  Case {cls['cond1']}, Case {cls['cond2']}",
            f"dims:     h0={comp[0]} h1={comp[1]} h2={comp[2]}  chi={chi}"]


def _support(basis, vec) -> dict:
    return {tau_label(basis[i]): fmt_q(c)
            for i, c in enumerate(vec) if c != 0}


def _basis_section(args, inst: Instance, C: HomComplex, rep: dict):
    rep["closed_form"]["hh2_substituted"] = hh2_substitution_needed(inst)
    rep["hh0"] = [lbl for lbl, _ in hh0_basis(C)]
    rep["hh1"] = [{"label": lbl, "value": _support(C.basis1, v)}
                  for lbl, v in hh1_basis(C)]
    rep["hh2"] = [{"label": lbl, "value": _support(C.basis2, v)}
                  for lbl, v in hh2_basis(C)]
    return ["hh1: " + " ".join(d["label"] for d in rep["hh1"]),
            "hh2: " + " ".join(d["label"] for d in rep["hh2"])]


def _ideal_strings(pairs, ideal_rows) -> list:
    out = []
    for v in ideal_rows:
        text = ""
        for (i, j), c in zip(pairs, v):
            if c != 0:
                sign = "-" if c < 0 else "+"
                coef = f"{fmt_q(abs(c))}*" if abs(c) != 1 else ""
                text += f" {sign} " if text else ("-" if c < 0 else "")
                text += f"{coef}s{i + 1}s{j + 1}"
        out.append(text or "0")
    return out


def _ring_section(args, inst: Instance, C: HomComplex, rep: dict):
    report = ring_row_report(C)
    pres = report["presentation"]
    rep["ring"] = {
        "a": pres["a"], "b": pres["b"],
        "generators": pres["labels"],
        "ideal": _ideal_strings(pres["pairs"], pres["ideal"]),
        "stored_row_ideal": _ideal_strings(report["printed_pairs"],
                                           report["printed"]),
        "stored_row_matches": report["ideal_match"],
        "stored_row_matches_after_rescale": report["ideal_match_after_rescale"],
        "rescale": [fmt_q(c) for c in report["rescale"]] if report["rescale"] else None,
    }
    lines = [f"Lambda({pres['a']}, {pres['b']}) / I,  I generated by:"]
    lines += [f"  {s}" for s in rep["ring"]["ideal"]] or ["  0"]
    return lines


def _invariants_section(args, inst: Instance, C: HomComplex, rep: dict):
    inv = derived_invariants(inst)
    iv = rep["invariants"] = {
        "rank_K0": inv["rank_K0"],
        "chi_hh": fmt_q(inv["chi_trace"]),
        "serre_unipotent": inv["serre_unipotent"],
        "surface_obstructed": not inv["serre_unipotent"],
    }
    return [f"chi_HH = {iv['chi_hh']},  rank K0 = {iv['rank_K0']}",
            f"Serre action unipotent: {iv['serre_unipotent']}",
            f"surface obstructed: {iv['surface_obstructed']}"]


# The single-instance commands: command -> (its `verify` check group, its
# report section, why it needs coprime weights or None, formats, help).
REPORTS = {
    "compute": ("dims", _compute_section, None, ["json", "csv", "text"],
                "dimensions and classification"),
    "basis": ("bases", _basis_section, "basis reporting works",
              ["json", "text"], "distinguished cocycle bases"),
    "ring": ("ring", _ring_section, "ring reporting works", ["json", "text"],
             "Yoneda ring presentation"),
    "invariants": ("invariants", _invariants_section, "invariants work",
                   ["json", "text"], "Cartan, Coxeter trace, unipotency"),
}


def cmd_report(args) -> int:
    """One single-instance command: the report head, the command's section
    and the checks of its `verify` group on the instance."""
    group, section, reason, _, _ = REPORTS[args.command]
    inst, k, swapped = _build(args, reason)
    C = HomComplex(inst)
    c1, c2 = classify(inst)
    rep = {
        "instance": {"n": args.n, "m": args.m,
                     "alpha": fmt_q(args.alpha), "beta": fmt_q(args.beta)},
        "classification": {"cond1": c1.value, "cond2": c2.value},
        "dims": dict(zip(("h0", "h1", "h2"),
                         (k * d for d in hh_dims_computed(C)))),
        "closed_form": {"k": k, "swapped": swapped, "canonical": inst.key()},
    }
    lines = section(args, inst, C, rep)
    rep["checks"] = [_check(*c) for c in CHECKS[group](inst, C, None)]
    if args.format == "text":
        head = f"instance: {inst.key()}" + (
            f"  (k = {k}, swapped = {swapped})" if k != 1 or swapped else "")
        lines = [head] + lines + [
            f"check: {c['name']} {'PASS' if c['pass'] else 'FAIL'} ({c['detail']})"
            for c in rep["checks"]]
    if args.format == "json":
        _emit(args, json.dumps(rep, indent=2) + "\n")
    else:
        _emit(args, "\n".join(lines) + "\n")
    return _failed(rep["checks"])


# -- verify -----------------------------------------------------------------

def sweep_weights(max_sum: int):
    return [(n, m) for m in range(1, max_sum) for n in range(1, m + 1)
            if n + m <= max_sum and math.gcd(n, m) == 1]


def _dims_checks(inst: Instance, C: HomComplex, fault) -> list:
    comp, closed = hh_dims_computed(C), hh_dims_closed_form(inst)
    chi = comp[0] - comp[1] + comp[2]
    return [("dims-match",
             comp == closed and chi == euler_characteristic_closed_form(inst),
             f"{comp} vs {closed}")]


def _complex_checks(inst: Instance, C: HomComplex, fault) -> list:
    # HomComplex certifies D2 * D1 = 0 as it is built, and _verify_worker
    # reports a complex that fails the certificate; here it has held.
    return [("d-squared-zero", True, "composite of the two differentials"),
            ("kernel-dim-one", len(C.basis0) - C.ranks[0] == 1,
             "dim ker of the first differential")]


def _bases_checks(inst: Instance, C: HomComplex, fault) -> list:
    try:
        verify_bases(C)
    except AssertionError as exc:
        return [("bases-verified", False, str(exc))]
    return [("bases-verified", True, "both bases verified")]


def _display_checks(inst: Instance, C: HomComplex, fault) -> list:
    try:
        rank = C.block_rank((0, 0))
    except AssertionError as exc:
        out = [("arrow-block-rank", False, str(exc))]
    else:
        out = [("arrow-block-rank", rank == rank_L1_closed_form(inst),
                f"rank {rank}")]
    if inst.n == 1:
        block = L2_display(inst)
        if fault == "lambda-sign":
            # The bottom-right entry is exactly -lambda_{m+2}.
            block.rows[-1][-1] = -block.rows[-1][-1]
        out.append(("x-power-block", C.L2() == block,
                    "closed-form block against the matrix"))
        if inst.m == 1:
            out.append(("mirror-block", C.L2_star() == block,
                        "closed-form block against the mirror matrix"))
    return out


def _lifts_checks(inst: Instance, C: HomComplex, fault) -> list:
    basis = dict(hh1_basis(C))
    bad = [lbl for lbl, cm in sorted(closed_form_lifts(C).items())
           if not (cm.verify() and cm.induced_vector()
                   == [LIFT_SIGN.get(lbl, 1) * c for c in basis[lbl]])]
    return [("chain-maps-commute", not bad,
             "all lifted maps" if not bad else f"failing: {' '.join(bad)}")]


def _ring_group_checks(inst: Instance, C: HomComplex, fault) -> list:
    report = ring_row_report(C)
    pres = report["presentation"]
    if ring_row_defect_expected(inst):
        # a defect row passes only with its documented defect: the right
        # a, b and labels, the printed ideal {0}, and so the wrong dim HH^2
        ok = (report["dims_match"] and not report["row"]["ideal"]
              and not report["row_self_consistent"])
        detail = ("documented defect row" if ok
                  else "defect row not as documented")
    else:
        ok = (report["dims_match"] and report["row_self_consistent"]
              and report["ideal_match_after_rescale"])
        detail = "row reproduced" if ok else "row not reproduced"
    _, h1, h2 = hh_dims_computed(C)
    ncomb, nrel = pres["a"] * (pres["a"] - 1) // 2, len(pres["ideal"])
    return [("table-row-agreement", ok, detail),
            ("presentation-degree-counts",
             pres["a"] == h1 and ncomb - nrel + pres["b"] == h2,
             f"C(a,2)-|I|+b = {ncomb}-{nrel}+{pres['b']}, h2 = {h2}")]


def _invariants_checks(inst: Instance, C: HomComplex, fault) -> list:
    hap = happel_trace_check(C)
    inv = derived_invariants(inst)
    uni = inv["serre_unipotent"]
    return [("happel-trace", hap["match"],
             f"{hap['chi_direct']} vs {fmt_q(hap['chi_trace'])}"),
            ("unipotency-verdict",
             uni == unipotent_closed_form(inst.n, inst.m)
             and inv["trace_matches_rank"] == uni,
             f"unipotent = {uni}")]


# The verify gate's check groups, in report order: each maps (instance, its
# Hom complex, the injected fault or None) to [(name, ok, detail)].
CHECKS = {
    "dims": _dims_checks,
    "complex": _complex_checks,
    "bases": _bases_checks,
    "display": _display_checks,
    "lifts": _lifts_checks,
    "ring": _ring_group_checks,
    "invariants": _invariants_checks,
}


def _verify_worker(item):
    """All cross-checks of one sampled instance, as check dicts."""
    inst, fault, only = item
    try:
        C = HomComplex(inst)
    except AssertionError as exc:
        # No group can run on a complex that fails its own construction
        # checks, so the instance reports that failure and nothing else.
        checks = [("complex", ("d-squared-zero", False, str(exc)))]
    else:
        checks = [(group, check) for group in ([only] if only else CHECKS)
                  for check in CHECKS[group](inst, C, fault)]
    return [{"instance": inst.key(), "group": group, **_check(*check)}
            for group, check in checks]


def _verify_pair(job):
    """(checks, stratum notes) of one weight pair: `_verify_worker` on each
    instance its strata reach and a note on each other stratum.  A pool
    worker thus builds each pair's shared parts once."""
    n, m, fault, only = job
    checks, notes = [], []
    for (c1, c2), rec in stratum_samples(n, m).items():
        if rec["status"] == "reached":
            checks += _verify_worker((rec["instance"], fault, only))
        else:
            label = f"n={n} m={m} stratum (Case {c1.value}, Case {c2.value})"
            notes.append({"instance": label, "group": "sweep",
                          **_check("stratum-status", True, rec["status"])})
    return checks, notes


def verify_workers(value: str, n_items: int) -> int:
    """Worker processes for `verify` from HH_THREADS, clamped to [1, CPUs,
    items], the CPUs being those the process may run on; unset runs
    serially, and so does a non-integer, with a warning."""
    if not value:
        return 1
    try:
        wanted = int(value)
    except ValueError:
        sys.stderr.write(f"warning: HH_THREADS={value!r} is not an integer; "
                         "running serially\n")
        return 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(wanted, cpus, n_items))


def cmd_verify(args) -> int:
    jobs = [(n, m, args.inject_fault, args.only)
            for n, m in sweep_weights(args.max_sum)]
    workers = verify_workers(os.environ.get("HH_THREADS", ""), len(jobs))
    if workers > 1:
        # Imported here: every serial command would pay for it at start-up.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_pair = list(pool.map(_verify_pair, jobs))
    else:
        per_pair = [_verify_pair(job) for job in jobs]

    checks = ([c for chunk, _ in per_pair for c in chunk]
              + [note for _, notes in per_pair for note in notes])
    failed = _failed(checks)
    rep = {"sweep": {"max_sum": args.max_sum,
                     "only": args.only, "fault": args.inject_fault},
           "checks": checks,
           "summary": {"total": len(checks), "failed": failed}}
    if args.format == "json":
        _emit(args, json.dumps(rep, indent=2) + "\n")
    else:
        lines = [f"{'PASS' if c['pass'] else 'FAIL'}  {c['instance']:<34} "
                 f"{c['name']} ({c['detail']})" for c in checks]
        lines.append(f"summary: {len(checks)} checks, {failed} failed")
        _emit(args, "\n".join(lines) + "\n")
    return failed


# -- table ------------------------------------------------------------------

def _hh1_row(inst: Instance) -> list:
    labels = basis_labels(inst)[0]
    return _stratum_cells(inst.key(), inst) + [" ".join(labels)]


def _hh2_row(inst: Instance) -> list:
    labels = basis_labels(inst)[1]
    return _stratum_cells(inst.key(), inst) + [
        str(len(labels)), "yes" if hh2_substitution_needed(inst) else "no",
        " ".join(labels)]


def _ring_row(inst: Instance) -> list:
    """One ring-table row.  A row with two or more HH^1 classes is computed
    from the Hom complex.  With one class there is no product to resolve:
    the row is Lambda(1, h2) / 0, h2 read off the stratum's HH^2 labels,
    and no complex is built.  `verify` checks such an instance against its
    complex: the `complex` group (the D2 D1 = 0 certificate), the `bases`
    group (cocycles, independence) and the `ring` group (a = h1, b = h2)."""
    hh1, hh2 = basis_labels(inst)
    if len(hh1) == 1:
        return _stratum_cells(inst.key(), inst) + ["1", str(len(hh2)), "0"]
    pres = ring_presentation(HomComplex(inst))
    gens = _ideal_strings(pres["pairs"], pres["ideal"])
    return _stratum_cells(inst.key(), inst) + [
        str(pres["a"]), str(pres["b"]), "; ".join(gens) if gens else "0"]


# `table --which` choices: (header, row of one sampled instance).  The dims
# table renders the closed forms, which `verify` checks against computation.
# The label tables and the ring rows with one HH^1 class (see `_ring_row`)
# read the stratum alone, and `verify` checks them against the complex; the
# other ring rows are computed from the complex.
TABLES = {
    "dims": (DIMS_HEADER, lambda inst: _dims_row(
        inst.key(), inst, hh_dims_closed_form(inst),
        euler_characteristic_closed_form(inst),
        unipotent_closed_form(inst.n, inst.m))),
    "hh1": (["instance", "case1", "case2", "labels"], _hh1_row),
    "hh2": (["instance", "case1", "case2", "count", "substituted", "labels"],
            _hh2_row),
    "ring": (["instance", "case1", "case2", "a", "b", "ideal"], _ring_row),
}


def cmd_table(args) -> int:
    header, row_fn = TABLES[args.which]
    rows = [row_fn(inst) for n, m in sweep_weights(args.max_sum)
            for inst in sample_instances(n, m)]
    if args.format == "csv":
        payload = "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
    elif args.format == "json":
        payload = json.dumps({"table": args.which,
                              "rows": [dict(zip(header, r)) for r in rows]},
                             indent=2) + "\n"
    else:  # tex
        body = " \\\\\n".join(" & ".join(cell.replace("^", "\\^{}")
                                         for cell in r) for r in rows)
        payload = ("\\begin{tabular}{" + "l" * len(header) + "}\n"
                   + " & ".join(header) + " \\\\\n\\hline\n"
                   + body + " \\\\\n\\end{tabular}\n")
    _emit(args, payload)
    return 0


# -- entry point ------------------------------------------------------------

def _add_instance_flags(p, with_params=True):
    p.add_argument("--n", type=int, required=True, help="degree of x")
    p.add_argument("--m", type=int, required=True, help="degree of y")
    p.add_argument("--alpha", type=parse_rational, required=with_params,
                   default=Q(1), help="relation parameter alpha, as p or p/q")
    p.add_argument("--beta", type=parse_rational, required=with_params,
                   default=Q(1), help="relation parameter beta (nonzero), as p or p/q")
    p.add_argument("--reduce", action="store_true",
                   help="allow non-coprime weights by reducing them")
    p.add_argument("--canonicalize", action="store_true",
                   help="allow n > m by exchanging the roles of x and y")
    p.add_argument("--out", help="write the report to this path instead of stdout")


def main(argv=None) -> int:
    top = argparse.ArgumentParser(
        prog="downup-hh",
        description="Exact Hochschild cohomology of Beilinson algebras of "
                    "graded down-up algebras")
    sub = top.add_subparsers(dest="command", required=True)

    for name, (_, _, _, formats, helptext) in REPORTS.items():
        p = sub.add_parser(name, help=helptext)
        _add_instance_flags(p, with_params=name != "invariants")
        p.add_argument("--format", choices=formats, default="json")
        p.set_defaults(fn=cmd_report)

    p = sub.add_parser("verify", help="cross-check sweep; exit 0 iff clean")
    p.add_argument("--max-sum", type=parse_max_sum, default=8,
                   help="largest n+m in the sweep")
    p.add_argument("--only", choices=list(CHECKS),
                   help="restrict to one check group")
    p.add_argument("--inject-fault", choices=["lambda-sign"], default=None,
                   help="corrupt one closed form to test the failure path")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("table", help="regime tables from computation")
    p.add_argument("--which", choices=list(TABLES), required=True)
    p.add_argument("--max-sum", type=parse_max_sum, default=6)
    p.add_argument("--format", choices=["csv", "json", "tex"], default="csv")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_table)

    args = top.parse_args(argv)
    if args.out:  # exit 2 before any work if it cannot be written
        existed = os.path.lexists(args.out)
        _write(args.out, "", "a")  # appending nothing changes no file
        if not existed:
            os.remove(args.out)
    failed = args.fn(args)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
