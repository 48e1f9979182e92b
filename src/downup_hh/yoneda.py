"""Cup products on Hochschild cohomology via lifted chain maps.

A degree-1 cocycle phi on the Hom complex corresponds to a bimodule map
P1 -> B.  Lifting it through the resolution gives a chain map

    sigma_0 : P1 -> P0,   sigma_1 : P2 -> P1

with  aug . sigma_0 = phi  and  d1 . sigma_1 = - sigma_0 . d2  (the lifted
complex sits one step to the left, whence the sign).  The product of the
classes [phi][psi] in HH^2 is then represented by the degree-2 cochain
phi . sigma^psi_1.  Resolution.pair, the walk that builds D1 and D2, pulls
phi back along sigma_1 (cup_vector, walking only the functionals in the
support of phi) and aug, the sum of the vertex functionals, back along
sigma_0 (induced_vector).

Each distinguished HH^1 basis element has a closed-form lifting, assembled
here literally (closed_form_lifts); an arbitrary cocycle is lifted by
generic_lift, which places phi's value in a unit slot for sigma_0 and takes
sigma_1(h) = contract(-sigma_0(d2(h))) through the resolution's contracting
homotopy -- aug . sigma_0 . d2 = phi . d2 vanishes precisely for cocycles,
and then d1 . contract is the identity on sigma_0(d2(h)).  Cross-checking
the two liftings of the same class, and the left- against the right-slot
generic lifting, exercises the fact that the induced product does not depend
on the choice of lift.

The product cochain of the left-slot generic lifting needs no lift at all.
For 1-cocycles phi, psi and a relation h = sum c w, each w a word of length
3, the product rule gives

    phi(sigma^psi_1(h)) = sum_{c w} c sum_{i<j} w_{<i} phi(w_i) w_{(i,j)}
                                                psi(w_j) w_{>j}.

Proof.  contract differentiates only the right factor, so
phi(sigma_1(h)) = -sum c sum_j w_{<j} phi~(psi(w_j) w_{>j}), where phi~ is
the derivation of B that the cocycle phi defines.  psi~(r_h) =
sum c sum_j w_{<j} psi(w_j) w_{>j} is 0 in B, as psi is a cocycle; apply
phi~ to it and expand by Leibniz.  Substituting leaves
sum c sum_j phi~(w_{<j}) psi(w_j) w_{>j}, the right-hand side.

ring_structure reads each product of two distinct HH^1 basis elements off
the relations this way (_product_cochain), once, in basis order -- the
products the presentation reads -- and solves for them in the HH^2 basis
modulo im D2 at once; ring_presentation derives the presentation data
(a, b, I) of the cohomology ring as an exterior algebra Lambda(a, b) modulo
an ideal I of degree-2 relations (everything in degrees >= 3 vanishes).
ring_table_row holds the fixed per-stratum presentation the computation is
compared against; ring_row_report performs the comparison, allowing for a
diagonal rescaling of the degree-1 generators (which is an automorphism of
Lambda(a, b)) that it reads off the two reduced ideals, and flagging rows
whose printed data cannot present the ring at all because it contradicts
the dimension of HH^2.
"""

from fractions import Fraction as Q

from .algebra import acc
from .cohomology import coords_mod_image, hh1_basis, hh1_cocycles, hh2_basis
from .core import Cond1, Cond2, Instance, classify
from .linalg import QMatrix, _as_q
from .resolution import HomComplex, kept

# Sign relating the induced cochain aug . sigma_0 of the closed-form lifting
# to the basis vector of its label (the h2 lifting induces minus h2).
LIFT_SIGN = {"h2": -1}


def _el(res, terms):
    """Assemble a P^r element from (coeff, src, lword, gen, rword) terms,
    one act per term.

    src is the source vertex of the whole tensor; lword runs from src into
    the generator's source, rword continues from its target.  Words need not
    be normal; act rewrites them, and raises AssertionError on a term whose
    lword does not end at the generator's source.
    """
    out = {}
    for c, src, lw, gen, rw in terms:
        res.act(out, c, src, lw, res.gen_elem(gen), rw)
    return out


class ChainMap:
    """A chain-map lifting (sigma_0, sigma_1) of a degree-1 cocycle."""

    def __init__(self, C: HomComplex, sigma0, sigma1):
        self.C = C
        self.sigma0 = sigma0  # arrow generator -> P0 element
        self.sigma1 = sigma1  # relation generator -> P1 element

    def induced_vector(self):
        """The induced degree-1 cochain aug . sigma_0, in tau coordinates."""
        vec = [0] * len(self.C.basis1)
        for row, _, c in self.C.res.pair(self.sigma0.get, self.sigma0):
            vec[self.C.idx1[row]] += c
        return vec

    def verify(self) -> bool:
        """Whether d1 . sigma_1 = -sigma_0 . d2 on every relation: whether
        the sum of the two sides, one P0 element per relation, is empty.

        d1 goes in place, a term c u [a] v of sigma_1(h) giving
        c u (x) nf(a v) at s(a) and -c nf(u a) (x) v at t(a); sigma_0 goes
        through Resolution.act.  Raises AssertionError on a sigma_1 term
        whose left word does not end at its arrow's source, and (act) on a
        sigma_0 term that does not start where its left word ends."""
        res = self.C.res
        nf, degree = res.B.normal_form, res.B.word_degree
        for h in res.gens2():
            out = {}
            for ((letter, s), ls, u, v), c in self.sigma1.get(h, {}).items():
                end = ls + degree(u)
                if end != s:
                    raise AssertionError(f"{(letter, s)} follows a left word "
                                         f"ending at vertex {end}")
                for w, c2 in nf(letter + v).items():
                    acc(out, (("e", s), ls, u, w), c * c2)
                t = s + degree(letter)
                for w, c2 in nf(u + letter).items():
                    acc(out, (("e", t), ls, w, v), -c * c2)
            for (g, ls, u, v), c in res.d2(h).items():
                res.act(out, c, ls, u, self.sigma0.get(g, {}), v)
            if out:
                return False
        return True


# -- closed-form liftings of the distinguished HH^1 classes -----------------

def _lift_h1(C):
    res = C.res
    n, m = C.B.n, C.B.m
    a, b = C.B.alpha, C.B.beta
    s0 = {("x", i): _el(res, [(1, i, "", ("e", i), "x")])
          for i in range(1, C.B.nx + 1)}
    s1 = {}
    for i in range(1, m + 1):
        s1[("f", i)] = _el(res, [
            (1, i, "", ("x", i), "xy"),
            (-a, i, "", ("x", i), "yx"),
            (-a, i, "x", ("y", i + n), "x"),
            (-2 * b, i, "", ("y", i), "xx"),
            (-b, i, "y", ("x", i + m), "x"),
        ])
    for j in range(1, n + 1):
        s1[("g", j)] = _el(res, [
            (-a, j, "", ("y", j), "xy"),
            (-b, j, "", ("y", j), "yx"),
            (-b, j, "y", ("y", j + m), "x"),
        ])
    return ChainMap(C, s0, s1)


def _lift_h2(C):
    res = C.res
    n, m = C.B.n, C.B.m
    b = C.B.beta
    s0 = {("x", i): _el(res, [((-1) ** (i - n), i, "", ("e", i), "x")])
          for i in range(n + 1, n + m + 1)}
    s1 = {}
    for i in range(1, m + 1):
        terms = [((-1) ** i, i, "", ("x", i), "xy")]
        if i <= n:
            terms.append(((-1) ** i * -b, i, "", ("y", i), "xx"))
        s1[("f", i)] = _el(res, terms)
    return ChainMap(C, s0, s1)


def _lift_h3(C):
    res = C.res
    m = C.B.m
    b, lam = C.B.beta, C.inst.lam
    s0 = {("y", j): _el(res, [(lam(j - 1), j, "", ("e", j), "x" * m)])
          for j in range(1, m + 3)}
    s1 = {}
    for i in range(1, m + 1):
        s1[("f", i)] = _el(res, [
            (b * lam(i - 1), i, "", ("x", i), "x" * (m + 1)),
            (lam(i + 1), i, "x", ("x", i + 1), "x" * m),
        ])
    s1[("g", 1)] = _el(res, [
        (1, 1, "", ("x", 1), "x" * m + "y"),
        (-b * lam(m), 1, "", ("y", 1), "x" * (m + 1)),
    ])
    return ChainMap(C, s0, s1)


def _lift_h4(C):
    res = C.res
    m = C.B.m
    a, b, lam = C.B.alpha, C.B.beta, C.inst.lam
    s0 = {("y", j): _el(res, [(b * lam(j - 2), j, "", ("e", j), "x" * m)])
          for j in range(1, m + 3)}
    s1 = {}
    for i in range(1, m + 1):
        s1[("f", i)] = _el(res, [
            (b * b * lam(i - 2), i, "", ("x", i), "x" * (m + 1)),
            (b * lam(i), i, "x", ("x", i + 1), "x" * m),
        ])
    s1[("g", 1)] = _el(res, [
        (-a * b * lam(m), 1, "y", ("x", m + 1), "x" * m),
        (b * lam(m), 1, "", ("x", 1), "y" + "x" * m),
        (b * lam(m), 1, "x", ("y", 2), "x" * m),
    ])
    return ChainMap(C, s0, s1)


def _lift_h5(C):
    res = C.res
    m = C.B.m
    w = _as_q(Q(C.B.alpha) / 2)
    s0 = {("y", j): _el(res, [(w ** (j - 1), j, "", ("e", j), "x" * m)])
          for j in range(1, m + 3)}
    s1 = {}
    for i in range(1, m + 1):
        s1[("f", i)] = _el(res, [
            (-w ** (i + 1), i, "", ("x", i), "x" * (m + 1)),
            (w ** (i + 1), i, "x", ("x", i + 1), "x" * m),
        ])
    s1[("g", 1)] = _el(res, [
        (w, 1, "", ("x", 1), "x" * m + "y"),
        (w ** (m + 1), 1, "", ("x", 1), "y" + "x" * m),
        (-w ** (m + 2), 1, "", ("y", 1), "x" * (m + 1)),
        (w ** (m + 1), 1, "x", ("y", 2), "x" * m),
        (-2 * w ** (m + 2), 1, "y", ("x", m + 1), "x" * m),
    ])
    return ChainMap(C, s0, s1)


def _lift_h3p(C):
    res = C.res
    b = C.B.beta
    s0 = {("x", 2): _el(res, [(1, 2, "", ("e", 2), "y")])}
    s1 = {("f", 1): _el(res, [
        (1, 1, "", ("x", 1), "yy"),
        (-b, 1, "", ("y", 1), "yx"),
    ])}
    return ChainMap(C, s0, s1)


def _lift_h4p(C):
    res = C.res
    b = C.B.beta
    s0 = {("x", 1): _el(res, [(b, 1, "", ("e", 1), "y")]),
          ("x", 3): _el(res, [(1, 3, "", ("e", 3), "y")])}
    s1 = {("f", 1): _el(res, [
        (-b, 1, "y", ("x", 2), "y"),
        (-b, 1, "", ("y", 1), "xy"),
    ]),
        ("g", 1): _el(res, [
        (-b, 1, "y", ("y", 2), "y"),
        (-b, 1, "", ("y", 1), "yy"),
    ])}
    return ChainMap(C, s0, s1)


def _lift_h5p(C):
    res = C.res
    w = _as_q(Q(C.B.alpha) / 2)
    s0 = {("x", j): _el(res, [(w ** (3 - j), j, "", ("e", j), "y")])
          for j in (1, 2, 3)}
    s1 = {("f", 1): _el(res, [
        (w ** 2, 1, "y", ("x", 2), "y"),
        (w ** 2, 1, "", ("y", 1), "xy"),
        (w ** 3, 1, "", ("y", 1), "yx"),
        (-w, 1, "", ("x", 1), "yy"),
        (-2 * w, 1, "x", ("y", 2), "y"),
    ]),
        ("g", 1): _el(res, [
        (-w ** 2, 1, "", ("y", 1), "yy"),
        (w ** 2, 1, "y", ("y", 2), "y"),
    ])}
    return ChainMap(C, s0, s1)


_LIFTS = {"h1": _lift_h1, "h2": _lift_h2, "h3": _lift_h3, "h4": _lift_h4,
          "h5": _lift_h5, "h3p": _lift_h3p, "h4p": _lift_h4p, "h5p": _lift_h5p}


def closed_form_lifts(C: HomComplex):
    """Closed-form chain maps for every label of the stratum's HH^1 basis.

    Returns {label: ChainMap} in hh1_basis order, one _LIFTS entry per
    label; the induced cochain of the map for `label` equals
    LIFT_SIGN.get(label, 1) times that label's basis vector.
    """
    return {lbl: _LIFTS[lbl](C) for lbl, _ in hh1_basis(C)}


# -- generic lifting ---------------------------------------------------------

def generic_lift(C: HomComplex, phi_vec, side="left"):
    """Lift an arbitrary degree-1 cocycle to a chain map.

    sigma_0 places the cochain value in the left (or right) unit slot, so
    aug . sigma_0 = phi; sigma_1(h) = contract(-sigma_0(d2(h))) through the
    resolution's contracting homotopy, which lifts exactly when
    aug . sigma_0 . d2(h) = phi(d2(h)) vanishes.  That per-relation test is
    the cocycle test, so no D2 product is formed; raises ValueError on a
    non-cocycle.
    """
    res, B = C.res, C.B
    s0 = {}
    for a in res.gens1():
        sv, tv = res.gen_source(a), res.gen_target(a)
        el = {}
        for w in B.hom_words(sv, tv):
            c = phi_vec[C.idx1[(a, w)]]
            if c:
                if side == "left":
                    acc(el, (("e", sv), sv, "", w), c)
                else:
                    acc(el, (("e", tv), sv, w, ""), c)
        if el:
            s0[a] = el
    fun0 = lambda g: s0.get(g, {})

    s1 = {}
    for h in res.gens2():
        z = res.apply_map(fun0, res.d2(h), -1)
        if res.aug(z):
            raise ValueError("not a 1-cocycle")
        el = res.contract(z)
        if el:
            s1[h] = el
    return ChainMap(C, s0, s1)


# -- cup products ------------------------------------------------------------

def _values(C: HomComplex, vec):
    """A degree-1 cochain as {arrow: [(word, coefficient)]}, its nonzero
    entries only."""
    out = {}
    for (a, w), c in zip(C.basis1, vec):
        if c:
            out.setdefault(a, []).append((w, c))
    return out


def cup_vector(C: HomComplex, phi_vec, sigma1):
    """The degree-2 cochain phi . sigma_1 in tau coordinates: sigma_1 is
    paired only against the functionals in the support of phi."""
    support = {g: [w for w, _ in ws]
               for g, ws in _values(C, phi_vec).items()}
    out = [0] * len(C.basis2)
    for row, tau, c in C.res.pair(sigma1.get, sigma1, support):
        out[C.idx2[row]] += phi_vec[C.idx1[tau]] * c
    return out


def cup_class(C: HomComplex, phi_vec, sigma1):
    """Coordinates of [phi . sigma_1] in C's kept HH^2 basis."""
    basis2 = [v for _, v in hh2_basis(C)]
    return _in_span(coords_mod_image(C, basis2,
                                     [cup_vector(C, phi_vec, sigma1)])[0])


def _in_span(coords):
    if coords is None:
        raise AssertionError("cup product fell outside the HH^2 basis span")
    return coords


# -- the ring of HH^* --------------------------------------------------------

@kept
def _relation_slots(C: HomComplex):
    """Each relation's arrows, read once per complex: for every relation h,
    every term c w of it and every pair of letter positions i < j of the
    length-3 word w, (h, c, w_{<i}, arrow of w_i, w_{(i,j)}, arrow of w_j,
    w_{>j}), each arrow at the vertex where its letter starts."""
    res, degree = C.res, C.B.word_degree
    slots = []
    for h in res.gens2():
        for w, c in res.relation(h):
            arrows = [(letter, h[1] + degree(w[:p]))
                      for p, letter in enumerate(w)]
            slots += [(h, c, w[:i], arrows[i], w[i + 1:j], arrows[j],
                       w[j + 1:])
                      for i in range(len(w)) for j in range(i + 1, len(w))]
    return slots


def _product_cochain(C: HomComplex, phi, psi):
    """The degree-2 cochain phi . sigma^psi_1 in tau coordinates, for
    1-cocycles phi and psi and the left-slot generic lifting sigma^psi,
    read off the relations by the product rule of the module docstring:
    one normal form per relation term, pair of positions i < j and pair of
    words of phi(w_i) and psi(w_j)."""
    nf, idx2 = C.B.normal_form, C.idx2
    left, right = _values(C, phi), _values(C, psi)
    out = [0] * len(C.basis2)
    for h, c, pre, a, mid, b, post in _relation_slots(C):
        for u, x in left.get(a, ()):
            for v, y in right.get(b, ()):
                cxy = c * x * y
                for w, z in nf(pre + u + mid + v + post).items():
                    out[idx2[(h, w)]] += cxy * z
    return out


@kept
def ring_structure(C: HomComplex):
    """The products of the HH^1 basis that the presentation reads, in HH^2
    coordinates, kept on C.

    products[(p, q)], for each label p before q in basis order, is the class
    of  h_p . sigma_1  for the generic lifting sigma of h_q, i.e. the product
    [h_p][h_q] under the fixed convention; the squares and the reversed
    products follow from graded commutativity.  No chain map is lifted:
    _product_cochain reads each of these cochains off the relations by the
    product rule, which holds for cocycles only.  So the complex's one
    cocycle decision (hh1_cocycles, which the bases check reads too) comes
    first and covers every HH^1 vector; ValueError follows when it fails.
    The a(a-1)/2 cochains are resolved together by coords_mod_image, one
    solve modulo im D2 whose elimination the complex keeps; with a single
    label there is no product to resolve.
    """
    if not hh1_cocycles(C):
        raise ValueError("not a 1-cocycle")
    one = dict(hh1_basis(C))
    labels = list(one)
    two = hh2_basis(C)
    pairs = [(labels[i], labels[j]) for i, j in _pairs(len(labels))]
    cups = [_product_cochain(C, one[p], one[q]) for p, q in pairs]
    coords = coords_mod_image(C, [v for _, v in two], cups) if cups else []
    return {"labels": labels,
            "classes2": [lbl for lbl, _ in two],
            "products": {pq: _in_span(x) for pq, x in zip(pairs, coords)}}


def ring_presentation(C: HomComplex):
    """Presentation data (a, b, ideal) of HH^* as Lambda(a, b) mod relations.

    Read off ring_structure(C): a = dim HH^1; the ideal is the kernel of
    span{s_p s_q, p < q} -> HH^2 as a reduced row space over the pair
    monomials in lexicographic order; b = dim HH^2 - rank of the product
    map, the number of exterior degree-2 generators completing the products.
    """
    rs = ring_structure(C)
    labels = rs["labels"]
    a = len(labels)
    h2 = len(rs["classes2"])
    pairs = _pairs(a)
    kernel = QMatrix.from_columns(
        [list(rs["products"][(labels[i], labels[j])]) for i, j in pairs]
    ).kernel_basis() if pairs else []
    r = len(pairs) - len(kernel)
    return {"a": a, "b": h2 - r, "pairs": pairs, "ideal": _row_space(kernel),
            "rank": r, "labels": labels}


def _row_space(vecs):
    """Reduced echelon basis of the span, zero rows dropped."""
    if not vecs:
        return []
    R, _ = QMatrix([list(v) for v in vecs]).rref()
    return [row for row in R.rows if any(c != 0 for c in row)]


def ring_table_row(inst: Instance):
    """The fixed per-stratum presentation row.

    Returns {"a", "b", "order", "ideal"} where order lists the HH^1 labels
    in the row's own generator numbering and ideal holds generators of the
    degree-2 relation ideal as {(p, q): coeff} dicts, 1-based in that
    numbering.  Raises ValueError off the admissible strata.
    """
    n, m = inst.n, inst.m
    c1, c2 = classify(inst)
    I, II = Cond1.CASE_I, Cond1.CASE_II
    C1, C2, C3 = Cond2.CASE_1, Cond2.CASE_2, Cond2.CASE_3

    def row(a, b, order, ideal):
        return {"a": a, "b": b, "order": order, "ideal": ideal}

    if n == 1 and m == 1:
        rows = {
            (I, C1): row(6, 0, ["h1", "h2", "h3", "h3p", "h4", "h4p"],
                         [{(2, 3): 1}, {(2, 4): 1}, {(3, 4): 1},
                          {(5, 6): 1},
                          {(1, 5): 1, (2, 5): -1},
                          {(1, 6): 1, (2, 6): -1}]),
            (II, C2): row(3, 6, ["h1", "h5", "h5p"],
                          [{(1, 2): 1}, {(1, 3): 1}, {(2, 3): 1}]),
            (II, C3): row(1, 4, ["h1"], []),
        }
    elif n == 1 and m == 2:
        rows = {
            (II, C1): row(3, 5, ["h1", "h3", "h4"], []),
            (II, C2): row(2, 7, ["h1", "h5"], []),
            (II, C3): row(1, 6, ["h1"], []),
        }
    elif n == 1:
        rows = {
            (I, C1): row(4, m + 1, ["h1", "h2", "h3", "h4"],
                         [{(1, 4): 1, (2, 4): -1}, {(2, 3): 1}]),
            (II, C1): row(3, m + 1, ["h1", "h3", "h4"], []),
            (II, C2): row(2, m + 3, ["h1", "h5"], []),
            (II, C3): row(1, m + 2, ["h1"], []),
        }
    elif n == 2:
        rows = {
            (I, C1): row(2, m + 4, ["h1", "h2"], []),
            (II, C1): row(1, m + 4, ["h1"], []),
            (II, C2): row(1, m + 4, ["h1"], []),
            (II, C3): row(1, m + 4, ["h1"], []),
        }
    else:
        rows = {
            (I, C1): row(2, m + n, ["h1", "h2"], []),
            (II, C1): row(1, m + n, ["h1"], []),
            (II, C2): row(1, m + n, ["h1"], []),
            (II, C3): row(1, m + n, ["h1"], []),
        }
    try:
        return rows[(c1, c2)]
    except KeyError:
        raise ValueError(f"no presentation row for stratum {(c1, c2)} "
                         f"at weights ({n}, {m})") from None


def ring_row_defect_expected(inst: Instance) -> bool:
    """Whether the fixed row's printed ideal is known to be irreparable.

    For n = 1 and Case II & 2 the product s_1 s_2 = [h1][h5] vanishes, so the
    ideal must contain s_1 s_2; the printed {0} contradicts dim HH^2 = b + 1.
    """
    c1, c2 = classify(inst)
    return inst.n == 1 and inst.m >= 2 and (c1, c2) == (Cond1.CASE_II,
                                                        Cond2.CASE_2)


@kept
def ring_row_report(C: HomComplex):
    """Compare the computed presentation against the fixed table row, once
    per complex: the ring command and its checks read one kept report.

    Keys: dims_match, ideal_match, ideal_match_after_rescale, rescale,
    row_self_consistent, presentation (whose a and b the checks read), row,
    printed, printed_pairs.  printed holds the row's generators as vectors
    over printed_pairs, renumbered into the computed label order when the
    labels match; rescale is the scaling s_p -> c_p s_p that _rescale reads
    off, or None.
    """
    pres = ring_presentation(C)
    row = ring_table_row(C.inst)
    labels = pres["labels"]

    dims_match = (pres["a"] == row["a"] and pres["b"] == row["b"]
                  and set(row["order"]) == set(labels))

    # Renumbering never changes the rank of the printed ideal.
    num = ({p: labels.index(lbl) + 1 for p, lbl in enumerate(row["order"], 1)}
           if dims_match else {})
    pairs = _pairs(row["a"])
    printed = [pairs_vec({(num.get(p, p), num.get(q, q)): c
                          for (p, q), c in g.items()}, row["a"])
               for g in row["ideal"]]
    computed = pres["ideal"]
    printed_space = _row_space(printed)
    ideal_match = dims_match and printed_space == computed
    rescale = (_rescale(printed_space, computed, pres["a"], pres["pairs"])
               if dims_match and not ideal_match else None)

    h2 = pres["b"] + pres["rank"]  # b = dim HH^2 - rank
    row_self_consistent = (len(pairs) - len(printed_space) + row["b"] == h2)

    return {"dims_match": dims_match, "ideal_match": ideal_match,
            "ideal_match_after_rescale": ideal_match or rescale is not None,
            "rescale": rescale, "row_self_consistent": row_self_consistent,
            "presentation": pres, "row": row, "printed": printed,
            "printed_pairs": pairs}


def _pairs(a):
    """The index pairs i < j < a of s_{i+1} s_{j+1}, in lexicographic order."""
    return [(i, j) for i in range(a) for j in range(i + 1, a)]


def pairs_vec(gdict, a):
    """A row-numbering ideal generator as a vector over its own pair order."""
    pairs = _pairs(a)
    v = [0] * len(pairs)
    for (p, q), c in gdict.items():
        if p < q:
            v[pairs.index((p - 1, q - 1))] += c
        elif q < p:
            v[pairs.index((q - 1, p - 1))] -= c
    return v


def _rescale(printed_space, computed, a, pairs):
    """A scaling c (c_0 = 1) with span(c.printed_space) = computed, or None.

    Both ideals are reduced echelon rows over `pairs`.  Scaling pair (i, j)
    by c_i c_j keeps the pivots and multiplies entry (r, t) by d_t / d_p
    for the pivot p of row r: by c_x / c_y for the indices x of t and y of
    p that the two pairs do not share.  The ratios spread from c_0 = 1, each
    component they miss starting at 1; the closing elimination rejects
    conflicting ratios and a span of another dimension.  Raises ValueError
    when t and p share no index.
    """
    ratios = []  # (x, y, c_x / c_y)
    for prow, crow in zip(printed_space, computed):
        p = pairs[next(t for t, u in enumerate(prow) if u)]
        for t, u, v in zip(pairs, prow, crow):
            if (u == 0) != (v == 0):
                return None
            if u and t != p:
                if not set(t) & set(p):
                    raise ValueError(f"pair {t} shares no index with its "
                                     f"pivot pair {p}")
                (x,), (y,) = set(t) - set(p), set(p) - set(t)
                ratios += [(x, y, Q(v) / u), (y, x, Q(u) / v)]
    c = [None] * a
    while None in c:
        c[c.index(None)] = Q(1)
        for _ in range(a):  # a path of ratios has fewer than a steps
            for x, y, r in ratios:
                if c[x] is None and c[y] is not None:
                    c[x] = r * c[y]
    scaled = [[u * c[i] * c[j] for u, (i, j) in zip(row, pairs)]
              for row in printed_space]
    return tuple(c) if _row_space(scaled) == computed else None
