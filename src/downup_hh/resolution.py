"""Bimodule resolution of the Beilinson algebra and its Hom complex.

Write B for the bound quiver algebra and e_v for its trivial paths.  B has a
length-two projective bimodule resolution

    0 -> P2 -> P1 -> P0 -> B -> 0,

whose terms are indexed by the vertices (P0), the arrows (P1) and the
relations (P2):

    P0 = (+)_v B e_v (x) e_v B,
    P1 = (+)_a B e_{s(a)} (x) e_{t(a)} B,
    P2 = (+)_h B e_{s(h)} (x) e_{t(h)} B,   h in {f_1..f_m, g_1..g_n}.

The differentials on generators are

    d1(a)   = (e_{s(a)} (x) e_{s(a)}) a  -  a (e_{t(a)} (x) e_{t(a)}),
    d2(h)   = sum over the terms c * w of the relation h and over the letter
              positions p of w of  c * w[:p] (x) w[p+1:],  the letter w[p]
              becoming the P1 generator at its position's vertex,

and the augmentation P0 -> B sends e_v (x) e_v to e_v.  Elements of P^r are
stored as dicts mapping (generator, left source, left word, right word) to
exact coefficients (ints for integral alpha and beta, as in `algebra`), the
normal left word running from the left source into s(generator) and the
normal right word starting at t(generator).  The bimodule action has one
implementation, Resolution.act: it adds c * L el R into an accumulator for
words L and R, taking each term u [g] v of el to nf(L u) [g] nf(v R).  d1,
d2, apply_map and the closed-form lifts of `yoneda` are all built on it.

The resolution has the standard contracting homotopy P0 -> P1 of a path
algebra, which peels the right word off letter by letter:

    contract(u (x) w_1...w_k) = sum_j  nf(u w_1...w_{j-1}) [w_j] w_{j+1}...w_k,

[w_j] being the arrow generator of the letter w_j at its vertex.  The sum
telescopes under d1, so  d1 . contract = id - (aug (x) e):  contract lifts
every element of the kernel of the augmentation through d1, with no linear
system to solve.

Applying Hom_{B-bimod}(-, B) and using Hom(B e_u (x) e_v B, B) = e_u B e_v
turns the resolution into the cochain complex

    0 -> P0^ -> P1^ -> P2^ -> 0

whose spaces have bases of *functionals* tau[h]^w, one for each generator h
and each normal word w from s(h) to t(h); tau[h]^w sends the generator h to
the path w and every other generator to 0.  Pulled back along an assignment
gen -> sum c lw [h] rw, tau[h]^w puts c nf(lw w rw) on gen; one walk over the
terms (Resolution.pair) does this for every functional at once, or for the
functionals of a given support only.  It builds D1, D2 from d1, d2 as
their nonzero rows (`_differential`: columns indexed by the domain basis,
rows by the codomain basis, each listing first the functionals of the D2
blocks stated in closed form (`_displays`), then the rest in enumeration
order (`_basis`); one generator of each kind is paired and its entries are
translated along the vertices), and the cup and induced cochains of
`yoneda` from chain maps.
The relations are homogeneous in the letter content (#x, #y), so D1 and D2
are block-diagonal in the weight of tau[h]^w (`tau_weight`): the rank of
a block of D2, such as the weight-(0,0) arrow block L1, is read off the
elimination of all of D2, and for n = 1 the x-power block L2 is cut from
its nonzero rows.

Each quantity is computed at the scope it depends on.  Per weight pair
(`_WeightPair`, read-only): the tau bases and their tables, and with them
the nonzero rows of D1 (pairing d1 with tau[e_v] never rewrites, so every
entry is +-1), and image(1).  Per (alpha, beta): the normal forms
(`Beilinson`).  Per complex: D2, its D2 D1 = 0 certificate against the
shared D1, image(2), and d2 of each relation, which is d2 of the first
relation of its kind shifted along the vertices.
"""

from functools import wraps
from math import lcm
from types import MappingProxyType

from .algebra import XXY, XYY, Beilinson, acc
from .core import Cond1, Instance, classify
from .linalg import (QMatrix, _as_q, _cleared, _dense, _gauss_jordan, _product,
                     _q, _transposed)


def kept(fn):
    """fn(obj, *args), computed on the first call and kept in obj's one
    `_kept` dict.  Callers only read it: a fault injection that drops one
    HH^1 basis vector, say, must alter a copy, or every reader sees it."""
    @wraps(fn)
    def get(obj, *args):
        memo = obj.__dict__.setdefault("_kept", {})
        key = (fn, *args)
        if key not in memo:
            memo[key] = fn(obj, *args)
        return memo[key]
    return get


class Resolution:
    """The three-term bimodule resolution of one Beilinson algebra."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.B = Beilinson(inst)
        n, m = inst.n, inst.m
        self._degree = {"e": 0, "x": n, "y": m, "f": 2 * n + m, "g": n + 2 * m}

    # -- generators -------------------------------------------------------

    def gens0(self):
        return [("e", v) for v in range(1, self.B.ell + 1)]

    def gens1(self):
        return ([("x", i) for i in range(1, self.B.nx + 1)]
                + [("y", j) for j in range(1, self.B.ny + 1)])

    def gens2(self):
        return ([("f", i) for i in range(1, self.B.m + 1)]
                + [("g", j) for j in range(1, self.B.n + 1)])

    def gen_source(self, gen):
        return gen[1]

    def gen_degree(self, gen):
        return self._degree[gen[0]]

    def gen_target(self, gen):
        return gen[1] + self.gen_degree(gen)

    def relation(self, gen):
        """The relation element as [(word, coefficient)], leading word first:
        the leading word minus its rewriting (`Beilinson.rewrite_at`)."""
        lead = {"f": XXY, "g": XYY}.get(gen[0])
        if lead is None:
            raise ValueError(f"not a relation generator: {gen}")
        return [(lead, 1)] + [(w, -c) for w, c in
                              self.B.rewrite_at(lead, 0).items()]

    # -- elements of the P^r ----------------------------------------------

    def gen_elem(self, gen):
        return {(gen, self.gen_source(gen), "", ""): 1}

    def act(self, out, c, src, lw, el, rw):
        """Add c * lw.el.rw into out and return out.

        The left word lw starts at vertex src and ends where every term of
        el starts; each term (g, ls, u, v) becomes (g, src, nf(lw u),
        nf(v rw)).  Raises AssertionError on a term starting elsewhere."""
        B = self.B
        nf = B.normal_form
        start = src + B.word_degree(lw)
        for (g, ls, u, v), c1 in el.items():
            if ls != start:
                raise AssertionError(f"{g} has a term at vertex {ls}, "
                                     f"not {start}")
            rights = nf(v + rw).items()
            for u2, c2 in nf(lw + u).items():
                c12 = c * c1 * c2
                for v2, c3 in rights:
                    acc(out, (g, src, u2, v2), c12 * c3)
        return out

    # -- differentials and augmentation -----------------------------------

    def aug(self, p0_el):
        """The augmentation P0 -> B."""
        B = self.B
        out = {}
        for (gen, ls, lw, rw), c in p0_el.items():
            if gen[0] != "e":
                raise ValueError(f"not a P0 element: generator {gen}")
            for w, c2 in B.normal_form(lw + rw).items():
                acc(out, (ls, w), c * c2)
        return out

    @kept
    def d1(self, a):
        """d1 on a P1 generator (an arrow): e_s (x) a - a (x) e_t."""
        s = self.gen_source(a)
        return {(("e", s), s, "", a[0]): 1,
                (("e", self.gen_target(a)), s, a[0], ""): -1}

    @kept
    def d2(self, h):
        """d2 on a P2 generator (a relation).  d2((kind, 1)) takes one act
        per letter position; d2((kind, i)) is it with every generator vertex
        and left source shifted by i - 1, as relations and normal forms do
        not depend on the vertex."""
        kind, i = h
        if i != 1:
            t = i - 1
            return {((a, v + t), ls + t, u, w): c
                    for ((a, v), ls, u, w), c in self.d2((kind, 1)).items()}
        out = {}
        for word, c in self.relation(h):
            for p, letter in enumerate(word):
                v = 1 + self.B.word_degree(word[:p])
                self.act(out, c, 1, word[:p],
                         self.gen_elem((letter, v)), word[p + 1:])
        return out

    def contract(self, p0_el):
        """The contracting homotopy P0 -> P1 on a P0 element.

        u (x) w_1...w_k goes to the sum over j of
        nf(u w_1...w_{j-1}) [w_j] w_{j+1}...w_k.  The suffix needs no
        rewriting: a factor of a normal word is normal.
        """
        B = self.B
        out = {}
        for (gen, ls, lw, rw), c in p0_el.items():
            if gen[0] != "e":
                raise ValueError(f"not a P0 element: generator {gen}")
            v = gen[1]
            for j, letter in enumerate(rw):
                for w, c2 in B.normal_form(lw + rw[:j]).items():
                    acc(out, ((letter, v), ls, w, rw[j + 1:]), c * c2)
                v += B.word_degree(letter)
        return out

    def apply_map(self, fun, p_el, c=1):
        """Extend a generator assignment gen -> element (of another P^r)
        over the bimodule structure, scaled by c: each term L gen R goes to
        c L fun(gen) R through one act."""
        out = {}
        for (gen, ls, lw, rw), c1 in p_el.items():
            self.act(out, c * c1, ls, lw, fun(gen), rw)
        return out

    def pair(self, fun, gens, support=None):
        """Pull the tau-functionals back along the assignment gen -> fun(gen):
        yields ((gen, w2), (g, w), c * c2) for each gen, each term c lw [g] rw
        of fun(gen), each functional word w of g and each term c2 w2 of
        nf(lw w rw).  With `support`, a dict g -> words, only the functionals
        tau[g]^w it lists are pulled back.  Raises AssertionError on a term
        not starting at gen's source."""
        nf, words, degree = self.B.normal_form, self.B.hom_words, self._degree
        for gen in gens:
            src = gen[1]
            for (g, ls, lw, rw), c in fun(gen).items():
                if ls != src:
                    raise AssertionError(f"{gen} has a term at vertex {ls}")
                ws = (words(g[1], g[1] + degree[g[0]]) if support is None
                      else support.get(g, ()))
                for w in ws:
                    for w2, c2 in nf(lw + w + rw).items():
                        yield (gen, w2), (g, w), c * c2


_CONTENT = {"e": (0, 0), "x": (1, 0), "y": (0, 1), "f": (2, 1), "g": (1, 2)}


def tau_weight(tau):
    """content(w) - content(h) for tau[h]^w, content being (#x, #y)."""
    (kind, _), w = tau
    cx, cy = _CONTENT[kind]
    return (w.count("x") - cx, w.count("y") - cy)


def tau_label(tau):
    """ASCII name of a functional basis element, e.g. tau[f2]^yxx."""
    (kind, i), w = tau
    if kind == "e":
        return f"tau[e{i}]"
    return f"tau[{kind}{i}]^{w}"


def _displays(res):
    """The (rows, columns) of the D2 blocks stated in closed form, as tau
    functionals in the closed forms' order: the arrow block L1, for n = 1
    the x-power block L2 and for n = m = 1 its mirror L2*.  L1's rows go
    kind by kind, not in enumeration order, which makes some cokernel
    values non-integral at integral points such as (2,3,2,-1)."""
    arrows, rels = res.gens1(), res.gens2()
    xs, ys = ([a for a in arrows if a[0] == k] for k in "xy")
    fs, gs = ([h for h in rels if h[0] == k] for k in "fg")
    out = [([(f, "yxx") for f in fs] + [(g, "yyx") for g in gs]
            + [(g, "yxy") for g in gs] + [(f, "xyx") for f in fs],
            [(a, a[0]) for a in arrows])]
    if res.B.n == 1:
        xm = "x" * res.B.m
        out.append(([(f, xm + "xx") for f in reversed(fs)]
                    + [(gs[0], "y" + xm + "x"), (gs[0], "xy" + xm)],
                    [(y, xm) for y in reversed(ys)]))
        if res.B.m == 1:
            out.append(([(gs[0], "yyy"), (fs[0], "yyx"), (fs[0], "yxy")],
                        [(x, "y") for x in xs]))
    return out


def _basis(res, k):
    """The tau basis of P_k^ (k = 1, 2) as a tuple: the `_displays` columns
    (k = 1) or rows (k = 2) first and in order, then every other functional
    in enumeration order.  Raises AssertionError if the display lists
    repeat a functional or name one outside the enumeration."""
    brute = [(g, w) for g in (res.gens1, res.gens2)[k - 1]()
             for w in res.B.hom_words(res.gen_source(g), res.gen_target(g))]
    head = [t for block in _displays(res) for t in block[2 - k]]
    first = dict.fromkeys(head)
    if len(first) != len(head) or not first.keys() <= set(brute):
        raise AssertionError(f"display functionals of P{k}^ repeat or leave "
                             "the enumeration")
    return tuple(head + [t for t in brute if t not in first])


_SPACES = {}


class _WeightPair:
    """What every Hom complex of one weight pair shares, as none of it
    depends on alpha and beta; made by `_spaces` on its first complex.

    bases, idx, positions and weights are triples over P0^, P1^, P2^: the
    tau bases (`_basis`), their index maps, their position tables and the
    `tau_weight` of each basis element, in order.  The generators and the
    normal words between two vertices depend on (n, m) alone.  A position
    table maps (kind, w) to the positions of tau[(kind, i)]^w for
    i = 1, 2, ...: every generator of a kind has the same words.

    d1 holds the nonzero rows of D1 (`_differential`), built with the
    bases: pairing d1 with tau[e_v] never rewrites, so every entry is +-1
    and D1 depends on (n, m) alone.  Each complex checks D2 D1 = 0 against
    it.  image1() is the elimination of D1^T, kept on its first call.  The
    values are tuples and read-only maps, so no complex can alter another's.
    """

    def __init__(self, res):
        bases = (tuple((g, "") for g in res.gens0()), _basis(res, 1),
                 _basis(res, 2))
        self.bases = bases
        self.idx = tuple(MappingProxyType({t: k for k, t in enumerate(b)})
                         for b in bases)
        self.positions = tuple(map(_positions, bases))
        self.weights = tuple(tuple(map(tau_weight, b)) for b in bases)
        self.d1 = tuple(map(MappingProxyType,
                            _differential(res, self.positions, 1)))

    @kept
    def image1(self):
        return _echelon(self.d1, len(self.bases[0]))


def _spaces(res):
    """The `_WeightPair` of res's weight pair, made on first use.  _SPACES
    keeps the latest pair's only: a sweep builds the complexes of a weight
    pair one after another, and keeping every pair's D1 and image(1) would
    grow its memory with the sweep."""
    key = (res.B.n, res.B.m)
    if key not in _SPACES:
        _SPACES.clear()
        _SPACES[key] = _WeightPair(res)
    return _SPACES[key]


def _echelon(rows, ncols):
    """`HomComplex.image` of the matrix with these nonzero rows and ncols
    columns: one elimination of its transpose, frozen."""
    width = len(rows)
    rows, pivots = _gauss_jordan(_transposed(rows, ncols), width)
    s = lcm(*(row[c] for row, c in zip(rows, pivots)))
    free = tuple(sorted(set(range(width)) - set(pivots)))
    return (s, free, MappingProxyType({
        c: MappingProxyType({j: s // row[c] * x for j, x in row.items()
                             if j != c})
        for row, c in zip(rows, pivots)}))


def _positions(basis):
    """{(kind, w): (position of tau[(kind, 1)]^w, of tau[(kind, 2)]^w,
    ...)} for a tau basis; raises KeyError unless the generators of a kind
    that carry w are numbered 1, 2, ... without a gap."""
    at = {}
    for k, ((kind, i), w) in enumerate(basis):
        at.setdefault((kind, w), {})[i] = k
    return MappingProxyType({kw: tuple(ks[i] for i in range(1, len(ks) + 1))
                             for kw, ks in at.items()})


def _differential(res, positions, k):
    """The nonzero rows of Dk in the tau bases with these position tables
    (`_positions`, over P0^, P1^, P2^), pairing one generator per kind.
    Relations and normal forms do not depend on the vertex, so the entries
    of (kind, i) are those of (kind, 1) with every generator index shifted
    by i - 1 and the words unchanged: the position tables list their rows
    and columns in the order of i."""
    gens, d_fun = ((res.gens1(), res.d1), (res.gens2(), res.d2))[k - 1]
    lo, hi = positions[k - 1], positions[k]
    rows = [{} for _ in range(sum(map(len, hi.values())))]
    for (gen, w2), ((g, j), w), c in res.pair(
            d_fun, [gen for gen in gens if gen[1] == 1]):
        for r, col in zip(hi[gen[0], w2], lo[g, w][j - 1:]):
            row = rows[r]
            row[col] = row.get(col, 0) + c
    return [{j: x if type(x) is int else _as_q(x)
             for j, x in row.items() if x} for row in rows]


class HomComplex:
    """The complex 0 -> P0^ -> P1^ -> P2^ -> 0 in the tau-functional bases.

    The pairing walk gives each differential as its nonzero rows,
    nonzero[k] (see `linalg`), and everything the complex computes reads
    them: the D2 D1 = 0 certificate, the cocycle test of `cohomology` and
    image(k), the one elimination of the nonzero rows of Dk^T, kept on first
    use, through which coker(k, v) answers every question modulo im Dk
    (ranks, block ranks, HH^1 and HH^2 classes); block(weight) cuts from
    nonzero[2].
    No dense copy is kept: the D1 and D2 properties densify on each read.
    Shared per weight pair (`_spaces`, read-only): the bases, index maps,
    position tables and weights, nonzero[1], built with them, and image(1).
    Shared per (alpha, beta): the normal forms of `Beilinson`.  Per
    complex: nonzero[2], the certificate, which every complex runs against
    the shared nonzero[1], and image(2), the HH bases and the ring data
    built on the complex, each `kept`: once each.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self.res = Resolution(inst)
        self.B = self.res.B
        shared = self._shared = _spaces(self.res)
        self.basis0, self.basis1, self.basis2 = shared.bases
        self.idx0, self.idx1, self.idx2 = shared.idx
        self._positions, self._weights = shared.positions, shared.weights
        self.nonzero = {1: shared.d1,
                        2: _differential(self.res, shared.positions, 2)}
        if any(_product(self.nonzero[2], shared.d1)):
            raise AssertionError("D2 * D1 != 0")

    # -- matrices ----------------------------------------------------------

    @property
    def D1(self):
        """D1 as a dense QMatrix, built from nonzero[1] on each read."""
        return QMatrix._of(_dense(self.nonzero[1], self.dims[0]), self.dims[0])

    @property
    def D2(self):
        """D2 as a dense QMatrix, built from nonzero[2] on each read."""
        return QMatrix._of(_dense(self.nonzero[2], self.dims[1]), self.dims[1])

    @property
    def dims(self):
        return (len(self.basis0), len(self.basis1), len(self.basis2))

    @property
    def ranks(self):
        """(rank D1, rank D2): the lengths of the two images."""
        return (len(self.image(1)[2]), len(self.image(2)[2]))

    @kept
    def image(self, k):
        """The echelon basis (s, free, rows) of im Dk, one elimination of the
        nonzero rows of Dk^T: free lists the non-pivot columns, and pivot
        column c carries s e_c + sum_j rows[c][j] e_j over the free columns
        j where it is nonzero, s the lcm of the pivots (Gauss-Jordan).
        image(1) is the weight pair's (`_WeightPair.image1`), image(2) this
        complex's, kept; both are read-only."""
        if k == 1:
            return self._shared.image1()
        return _echelon(self.nonzero[2], self.dims[1])

    def coker(self, k, v):
        """The class of v in P_k^ / im Dk: v reduced against image(k), read
        on the non-pivot columns.  Linear in v, and zero exactly when v lies
        in im Dk.  Raises ValueError unless len(v) = dim P_k^."""
        if len(v) != self.dims[k]:
            raise ValueError("vector length mismatch")
        s, free, rows = self.image(k)
        d, (support,) = _cleared([{c: x for c, x in enumerate(v) if x}])
        out = dict.fromkeys(free, 0)
        for c, x in support.items():
            if c in rows:
                for j, y in rows[c].items():
                    out[j] -= x * y
            else:
                out[c] += s * x
        sd = s * d
        return list(out.values()) if sd == 1 else [_q(x, sd) for x in out.values()]

    def block_rank(self, weight):
        """The rank of the D2 block of the given weight, read as the number
        of image(2) pivots of that weight.  Gauss-Jordan combines two
        columns of D2 only where both have a nonzero in one row, so when
        every nonzero joins a row and a column of equal weight it eliminates
        each block on its own; raises AssertionError naming the first
        nonzero of nonzero[2] that does not."""
        w1, w2 = self._weights[1], self._weights[2]
        for r, row in enumerate(self.nonzero[2]):
            w = w2[r]
            for j in row:
                if w1[j] != w:
                    raise AssertionError(f"off-block D2 entry ({r}, {j}): "
                                         f"row weight {w}, column weight "
                                         f"{w1[j]}")
        return sum(1 for c in self.image(2)[2] if w2[c] == weight)

    def block(self, weight):
        """The D2 rows and P1^ columns (D1's codomain) of the given weight,
        cut from nonzero[2] as a dense QMatrix, in basis order: for a
        display block that is its `_displays` order."""
        at = {j: c for c, j in enumerate(
            j for j, w in enumerate(self._weights[1]) if w == weight)}
        rows = [{at[j]: x for j, x in row.items() if j in at}
                for row, w in zip(self.nonzero[2], self._weights[2])
                if w == weight]
        return QMatrix._of(_dense(rows, len(at)), len(at))

    def L2(self):
        """For n = 1: the x-power block, of weight (m,-1), with the rows and
        columns `_displays` lists for it."""
        if self.B.n != 1:
            raise ValueError("the x-power block exists only for n = 1")
        return self.block((self.B.m, -1))

    def L2_star(self):
        """For n = m = 1 only: the mirror block, of weight (-1,1), with the
        rows and columns `_displays` lists for it."""
        if not (self.B.n == 1 and self.B.m == 1):
            raise ValueError("the mirror block exists only for n = m = 1")
        return self.block((-1, 1))


# -- closed forms against which the matrices are tested ---------------------

def L2_display(inst: Instance) -> QMatrix:
    """The (m+2) x (m+2) x-power block in closed form (n = 1).

    Rows 1..m carry the band (1, -alpha, -beta); the two bottom rows carry
    lambda values.  For m = 1 the band and the lambda rows overlap and add.
    """
    m, a, b, lam = inst.m, _as_q(inst.alpha), _as_q(inst.beta), inst.lam
    M = QMatrix.zeros(m + 2, m + 2)
    for r in range(m):
        M.rows[r][r] += 1
        M.rows[r][r + 1] += -a
        M.rows[r][r + 2] += -b
    M.rows[m][0] += -lam(2)
    M.rows[m][1] += -b * lam(1)
    M.rows[m][m] += b * lam(m)
    M.rows[m][m + 1] += -b * lam(m + 1)
    M.rows[m + 1][0] += lam(1)
    M.rows[m + 1][1] += b * lam(0)
    M.rows[m + 1][m] += lam(m + 1)
    M.rows[m + 1][m + 1] += -lam(m + 2)
    return M


def rank_L1_closed_form(inst: Instance) -> int:
    n, m = inst.n, inst.m
    return n + m - 1 if classify(inst)[0] == Cond1.CASE_I else n + m
