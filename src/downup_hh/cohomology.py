"""Hochschild cohomology of the Beilinson algebra: dimensions and bases.

With the Hom complex 0 -> P0^ -> P1^ -> P2^ -> 0 of `resolution` and its
matrices D1, D2,

    HH^0 = ker D1,   HH^1 = ker D2 / im D1,   HH^2 = coker D2,

and HH^r = 0 for r >= 3.  HH^0 is always the scalars.  The module provides

  * the dimensions straight from the matrix ranks,
  * the closed-form dimensions per (weights, Case I/II, Case 1/2/3) stratum,
  * distinguished cocycle bases of HH^1 and HH^2 per stratum, built from
    explicit tau-functional combinations and verified against the matrices,
  * parameter samples reaching each stratum at fixed weights, found by exact
    rational root search on lambda_{m+1}(1, beta) when needed.

The closed forms all concern coprime weights n <= m; for general weights
(kn, km) every dimension is k times the value at (n, m) with the parameters
transported by the weight swap rule when the input has n > m.
"""

from fractions import Fraction as Q
from itertools import zip_longest

from .core import Cond1, Cond2, Instance, classify
from .linalg import QMatrix, _as_q, _nonzero, _product, _transposed
from .resolution import HomComplex, kept


# -- dimensions -------------------------------------------------------------

def hh_dims_computed(C: HomComplex):
    """(h0, h1, h2) from the ranks of D1 and D2."""
    d0, d1, d2 = C.dims
    r1, r2 = C.ranks
    return (d0 - r1, (d1 - r2) - r1, d2 - r2)


def hh_dims_closed_form(inst: Instance):
    """(h0, h1, h2) for coprime weights, by stratum."""
    n, m = inst.n, inst.m
    c1, c2 = classify(inst)
    I, II = Cond1.CASE_I, Cond1.CASE_II
    C1, C2, C3 = Cond2.CASE_1, Cond2.CASE_2, Cond2.CASE_3
    key = (c1, c2)
    if n == 1 and m == 1:
        table = {(I, C1): (6, 9), (II, C2): (3, 6), (II, C3): (1, 4)}
    elif n == 1:
        h1 = {(I, C1): 4, (II, C1): 3, (II, C2): 2, (II, C3): 1}
        if m == 2:
            h2 = {(II, C1): 8, (II, C2): 7, (II, C3): 6}
        else:
            h2 = {(I, C1): m + 5, (II, C1): m + 4, (II, C2): m + 3, (II, C3): m + 2}
        table = {k: (h1[k], h2[k]) for k in h1 if k in h2}
    else:
        h2_I = m + 5 if n == 2 else n + m + 1
        h2_II = m + 4 if n == 2 else n + m
        table = {(I, C1): (2, h2_I),
                 (II, C1): (1, h2_II), (II, C2): (1, h2_II), (II, C3): (1, h2_II)}
    if key not in table:
        raise ValueError(f"stratum {key} cannot occur at weights ({n}, {m})")
    h1, h2 = table[key]
    return (1, h1, h2)


def euler_characteristic_closed_form(inst: Instance) -> int:
    """1 - h1 + h2, which only depends on the weights.  By Happel's trace
    formula it is tr s, the sum of zeta^(-2(n+m)) over the roots zeta of
    (1-t^n)(1-t^m)(1-t^{n+m}) (see `invariants`): (n+m) + n [n | 2m] +
    m [m | 2n]."""
    n, m = inst.n, inst.m
    return (n + m) + n * (2 * m % n == 0) + m * (2 * n % m == 0)


# -- cocycle bases ----------------------------------------------------------

def _unit_vec(size, entries):
    v = [0] * size
    for i, c in entries:
        v[i] += c
    return v


def hh0_basis(C: HomComplex):
    """HH^0 is spanned by the identity: the sum of all vertex functionals."""
    return [("unit", [1] * len(C.basis0))]


def _hh1_labels(inst: Instance):
    """The stratum's HH^1 labels in table order: h1; h2 in Case I; for
    n = 1, h3, h4 (and h3p, h4p at m = 1) in Case 1 and h5 (and h5p) in
    Case 2."""
    c1, c2 = classify(inst)
    labels = ["h1"] + (["h2"] if c1 == Cond1.CASE_I else [])
    if inst.n == 1 and c2 == Cond2.CASE_1:
        labels += ["h3", "h4"] + (["h3p", "h4p"] if inst.m == 1 else [])
    if inst.n == 1 and c2 == Cond2.CASE_2:
        labels += ["h5"] + (["h5p"] if inst.m == 1 else [])
    return labels


@kept
def hh1_basis(C: HomComplex):
    """The distinguished HH^1 basis for the stratum of C.inst, kept on C.

    Returns [(label, vector in the P1^ basis)], one vector for each of the
    stratum's labels (`_hh1_labels`) by the fixed formulas below, with the
    algebra's exact alpha and beta.  closed_form_lifts reads the labels here.
    """
    B, lam = C.B, C.inst.lam
    n, m, a, b = B.n, B.m, B.alpha, B.beta
    w = _as_q(Q(a) / 2)
    formulas = {
        "h1": lambda: [((("x", r), "x"), 1) for r in range(1, n + 2 * m + 1)],
        "h2": lambda: [((("x", n + r), "x"), (-1) ** (r - 1))
                       for r in range(1, m + 1)],
        "h3": lambda: [((("y", r), "x" * m), lam(r - 1))
                       for r in range(2, m + 3)],
        "h4": lambda: [((("y", r), "x" * m), b * lam(r - 2))
                       for r in range(1, m + 3)],
        "h3p": lambda: [((("x", 2), "y"), 1)],
        "h4p": lambda: [((("x", 1), "y"), b), ((("x", 3), "y"), 1)],
        "h5": lambda: [((("y", r), "x" * m), w ** (r - 1))
                       for r in range(1, m + 3)],
        "h5p": lambda: [((("x", 1), "y"), w ** 2), ((("x", 2), "y"), w),
                        ((("x", 3), "y"), 1)],
    }
    d1 = len(C.basis1)
    return [(lbl, _unit_vec(d1, [(C.idx1[t], c) for t, c in formulas[lbl]()]))
            for lbl in _hh1_labels(C.inst)]


def basis_labels(inst: Instance):
    """(HH^1 labels, HH^2 labels) of hh1_basis and hh2_basis on inst's
    complex, read off the stratum alone: no complex is built."""
    return _hh1_labels(inst), [_label(s) for s in _hh2_specs(inst)]


def hh2_substitution_needed(inst: Instance) -> bool:
    """Whether the straight one-functional-per-class list for HH^2 needs its
    g_n^yxy entry replaced by g_n^yyx.

    When n and m are both odd and alpha != 0, the coboundary of the
    alternating functional sum_p (-1)^p tau[x_p]^x is supported exactly on
    the f^xyx and g^yxy coordinates with coefficients +-2 alpha, so those
    unit functionals are dependent modulo the image and one of them has to
    give way; `_hh2_specs` substitutes g_n^yyx for it.
    """
    return inst.n % 2 == 1 and inst.m % 2 == 1 and classify(inst)[0] == Cond1.CASE_II


@kept
def hh2_basis(C: HomComplex):
    """The distinguished HH^2 basis for the stratum of C.inst, kept on C.

    Returns [(label, vector in the P2^ basis)]; each class is a single
    tau-functional (`_hh2_specs`, substitution included), labelled like
    g1^yxy.
    """
    d2 = len(C.basis2)
    return [(_label(s), _unit_vec(d2, [(C.idx2[((s[0], s[1]), s[2])], 1)]))
            for s in _hh2_specs(C.inst)]


def _label(spec):
    kind, i, w = spec
    return f"{kind}{i}^{w}"


def _hh2_specs(inst: Instance):
    """The stratum's HH^2 classes as functionals (kind, i, w), in table
    order, with g_n^yyx for g_n^yxy where `hh2_substitution_needed`."""
    n, m = inst.n, inst.m
    c1, c2 = classify(inst)
    I, II = Cond1.CASE_I, Cond1.CASE_II
    C1, C2, C3 = Cond2.CASE_1, Cond2.CASE_2, Cond2.CASE_3

    if n == 1 and m == 1:
        rows = {
            (I, C1): [("g", 1, "yyx"), ("g", 1, "yxy"), ("f", 1, "xyx"),
                      ("g", 1, "yxx"), ("g", 1, "xyx"), ("f", 1, "yyx"),
                      ("f", 1, "yxy"), ("g", 1, "xxx"), ("f", 1, "yyy")],
            (II, C2): [("g", 1, "yxy"), ("f", 1, "xyx"), ("g", 1, "xyx"),
                       ("f", 1, "yxy"), ("g", 1, "xxx"), ("f", 1, "yyy")],
            (II, C3): [("g", 1, "yxy"), ("f", 1, "xyx"),
                       ("g", 1, "xxx"), ("f", 1, "yyy")],
        }
        specs = rows[(c1, c2)]
    elif n == 1 and m == 2:
        base = [("f", 1, "xyx"), ("f", 2, "xyx"), ("g", 1, "yxy")]
        drop = {C1: [], C2: ["yxxx"], C3: ["yxxx", "xyxx"]}[c2]
        mids = [w for w in ("yxxx", "xyxx") if w not in drop]
        specs = (base + [("g", 1, w) for w in mids]
                 + [("g", 1, "xxxxx"), ("f", 1, "yy"), ("f", 2, "yy")])
    elif n == 1:
        specs = [("f", i, "xyx") for i in range(1, m + 1)] + [("g", 1, "yxy")]
        if (c1, c2) == (I, C1):
            specs.append(("g", 1, "yyx"))
        if c2 == C1:
            specs.append(("g", 1, "y" + "x" * (m + 1)))
        if c2 in (C1, C2):
            specs.append(("g", 1, "xy" + "x" * m))
        specs.append(("g", 1, "x" * (2 * m + 1)))
    else:
        specs = ([("f", i, "xyx") for i in range(1, m + 1)]
                 + [("g", j, "yxy") for j in range(1, n + 1)])
        if c1 == I:
            specs.append(("g", n, "yyx"))
        if n == 2:
            specs += [("g", 1, "x" * (m + 1)), ("g", 2, "x" * (m + 1))]

    if hh2_substitution_needed(inst):
        specs = [("g", n, "yyx") if s == ("g", n, "yxy") else s for s in specs]
    return specs


# -- verification helpers ---------------------------------------------------

def is_cocycle(C: HomComplex, vecs) -> bool:
    """Whether D2 v = 0 for each v in vecs (true for none), by one product
    of the nonzero rows of D2 with those of the matrix whose columns are
    vecs.  Raises ValueError unless each v has length dim P1^."""
    d1 = len(C.basis1)
    if any(len(v) != d1 for v in vecs):
        raise ValueError("vector length mismatch")
    return not any(_product(C.nonzero[2], _transposed(_nonzero(vecs), d1)))


@kept
def hh1_cocycles(C: HomComplex) -> bool:
    """Whether every hh1_basis vector is a cocycle, decided once per
    complex and kept on C: both verify_bases and yoneda.ring_structure
    read this one decision."""
    return is_cocycle(C, [v for _, v in hh1_basis(C)])


def independent_mod_image(C: HomComplex, k: int, vecs) -> bool:
    """True iff the vectors of P_k^ stay independent modulo im Dk: the
    block of their classes has full rank (vacuously for no vectors)."""
    return QMatrix([C.coker(k, v) for v in vecs]).rank() == len(vecs)


def coords_mod_image(C: HomComplex, basis_vecs, vs):
    """For each v in vs, the coordinates of [v] in the given classes of
    coker D2, or None if [v] is not in their span: one solve for all vs."""
    basis = QMatrix.from_columns([C.coker(2, b) for b in basis_vecs])
    return basis.solve_many([C.coker(2, v) for v in vs])


def verify_bases(C: HomComplex):
    """Check both distinguished bases against the matrices; returns dims."""
    h0, h1, h2 = hh_dims_computed(C)
    # Explicit raises, not asserts: `python -O` must not switch the check off.
    for k, basis, h in ((1, hh1_basis(C), h1), (2, hh2_basis(C), h2)):
        vecs = [v for _, v in basis]
        if k == 1 and not hh1_cocycles(C):
            raise AssertionError("an HH^1 vector is not a cocycle")
        if not independent_mod_image(C, k, vecs):
            raise AssertionError(f"the HH^{k} vectors are dependent "
                                 f"modulo im D{k}")
        if len(vecs) != h:
            raise AssertionError(f"{len(vecs)} HH^{k} vectors for h{k} = {h}")
    return (h0, h1, h2)


# -- stratum sampling -------------------------------------------------------

def lambda_poly_in_beta(r: int) -> list[int]:
    """lambda_r(1, beta) as integer coefficients in beta, lowest degree
    first: lambda_0 = 0 is [], lambda_1 = 1 is [1]."""
    lo, hi = [], [1]
    for _ in range(r - 1):
        lo, hi = hi, [a + b for a, b in zip_longest(hi, [0] + lo, fillvalue=0)]
    return hi if r >= 1 else lo


def rational_roots(p: list[int]):
    """All rational roots of the integer polynomial p (coefficients lowest
    degree first, not all zero), ascending, by the rational root theorem."""
    nonzero = [k for k, a in enumerate(p) if a]
    if not nonzero:
        raise ValueError("zero polynomial")
    p = p[nonzero[0]:nonzero[-1] + 1]  # factoring out t drops only the root 0

    def divisors(x):
        return [d for d in range(1, abs(x) + 1) if x % d == 0]

    cands = {Q(s * a, b) for a in divisors(p[0]) for b in divisors(p[-1])
             for s in (1, -1)}
    return sorted(c for c in cands
                  if sum(a * c ** k for k, a in enumerate(p)) == 0)


def stratum_samples(n: int, m: int):
    """For fixed coprime weights, one parameter pair per stratum.

    Returns a dict mapping (Cond1, Cond2) to a record, in report order
    (Case I before Case II, then Case 1, 2, 3), with keys
    status ("reached" | "vacuous" | "no-rational-point"), and for reached
    strata the instance; the search for Case 1 with odd n uses the exact
    rational roots of lambda_{m+1}(1, beta).
    """
    out = {}
    I, II = Cond1.CASE_I, Cond1.CASE_II
    C1, C2, C3 = Cond2.CASE_1, Cond2.CASE_2, Cond2.CASE_3

    if n % 2 == 1 and m % 2 == 1:
        out[(I, C1)] = _reached(Instance(n, m, Q(0), Q(1)), (I, C1))
    else:
        out[(I, C1)] = {"status": "vacuous",
                        "reason": "Case I needs both weights odd"}
    for c2 in (C2, C3):
        out[(I, c2)] = {"status": "vacuous", "reason": "Case I forces Case 1"}

    if n % 2 == 0:
        out[(II, C1)] = _reached(Instance(n, m, Q(0), Q(1)), (II, C1))
    else:
        # alpha = 0 would land in Case I (m odd) or miss Case 1 (m even), so
        # alpha != 0, and by weighted homogeneity alpha can be scaled to 1:
        # the stratum has a rational point iff lambda_{m+1}(1, beta) has a
        # nonzero rational root.
        p = lambda_poly_in_beta(m + 1)
        roots = [b for b in rational_roots(p) if b != 0]
        if roots:
            out[(II, C1)] = _reached(Instance(n, m, Q(1), roots[0]), (II, C1))
        elif len(p) == 1:
            out[(II, C1)] = {"status": "vacuous",
                             "reason": "lambda_{m+1} is a nonzero multiple of "
                                       "alpha^m, so Case 1 forces alpha = 0, "
                                       "which leaves this stratum"}
        else:
            out[(II, C1)] = {"status": "no-rational-point",
                             "reason": "lambda_{m+1}(1, beta) has no rational "
                                       "root, and every point of the stratum "
                                       "is a scale of one with alpha = 1"}

    out[(II, C2)] = _reached(Instance(n, m, Q(2), Q(-1)), (II, C2))
    out[(II, C3)] = _reached(Instance(n, m, Q(1), Q(1)), (II, C3))
    return out


def _reached(inst: Instance, stratum):
    """The record of a sample; raises (not asserts, so that `python -O`
    keeps the check) unless the sample lies in the stratum."""
    if classify(inst) != stratum:
        raise AssertionError(f"sample {inst.key()} is not in stratum "
                             f"({stratum[0].value}, {stratum[1].value})")
    return {"status": "reached", "instance": inst}


def sample_instances(n: int, m: int):
    """The reached instances from stratum_samples, in report order."""
    return [rec["instance"] for rec in stratum_samples(n, m).values()
            if rec["status"] == "reached"]
