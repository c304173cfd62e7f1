"""The flat family over the coefficient parameters, in closed form and
certified by its construction.  All arithmetic is exact.

The family is A^univ, the cluster algebra with universal coefficients:
each generator is its Stanley-Reisner (SR) monomial minus the monomial's
expansion in cluster monomials over Z[t], unique because in finite type
the cluster monomials form a basis.  Its tails are standard monomials, and
two certificates make it the reduced Groebner basis (see `lift`).

Generators are `Poly`s over the variables z first, t after, ordered by
`MonomialOrder(weights)`: the weights cover the z-variables only, and ties
break by total degree, then lexicographically.  Each generator leads with
its SR monomial, coefficient 1, and is homogeneous for the fine grading in
which z_v has degree e_v and t_i its degree deg_T from the universal
module.
"""

from heapq import heapify, heappop, heappush
from operator import add, sub

from .intlinalg import vec_dot
from .polynomials import MonomialOrder, Poly, monomial_str


class DeformError(Exception):
    pass


class DeformationFamily:
    __slots__ = ("univ", "z_vars", "t_vars", "weights", "lam",
                 "generators", "sr_leads", "order")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])

    @property
    def nz(self):
        return len(self.z_vars)

    @property
    def nv(self):
        return len(self.z_vars) + len(self.t_vars)

    def tdeg(self, e):
        return sum(e[self.nz:])


def _exponent(index, nv, *monomials):
    """Exponent tuple over nv variables, placed by `index`, of the product
    of the given {variable: exponent} monomials."""
    e = [0] * nv
    for mono in monomials:
        for v, x in mono.items():
            e[index[v]] += x
    return tuple(e)


def _family(univ, J, weight):
    """The unlifted family, each generator its SR monomial alone, after
    the input checks that `lift` and `verify_family` rely on."""
    if univ.has_isolated_vertex:
        raise DeformError("isolated vertex: no canonical first-order data")
    if any(x < 0 for x in weight):
        raise DeformError("weight vector has negative entries")
    z_vars, t_vars = list(univ.variable_order), list(univ.t_ids)
    index = {v: i for i, v in enumerate(z_vars + t_vars)}
    nv = len(index)
    lam = [vec_dot(weight, deg) for deg in univ.t_degrees]
    for t, x in zip(t_vars, lam):
        if x < 1:
            raise DeformError("weight is not positive on %s" % t)

    sr_leads = sorted(_exponent(index, nv, dict(zip(J.variables, gen)))
                      for gen in J.generators)
    leads = set(sr_leads)
    for rel in univ.univ_relations:
        b = _exponent(index, nv, dict.fromkeys(rel["pair"], 1))
        if b not in leads:
            raise DeformError("exchange monomial %r is not an ideal "
                              "generator" % (b,))
    return DeformationFamily(
        univ=univ, z_vars=z_vars, t_vars=t_vars, weights=list(weight),
        lam=lam, generators=[Poly.monomial(nv, lead) for lead in sr_leads],
        sr_leads=sr_leads, order=0)


def _max_possible_order(family):
    min_lam = min(family.lam)
    return max(vec_dot(family.weights, l[:family.nz])
               for l in family.sr_leads) // min_lam


def _separation(univ):
    """F, p and R of the separation formula (Fomin-Zelevinsky, "Cluster
    algebras IV", Cor. 6.3): the image in A^univ of variable v of
    `univ.variable_order` is the sum of c * x^(p[v] + R beta) over the
    terms c * y^beta of F[v], v's principal expansion at x = 1.  R stacks
    B~_0 over the coefficient rows U, and p[v] = (g_v, -low_v), low_v the
    entrywise least U beta over F[v].  Each F[v] must have constant term 1
    and exponents >= 0: the pointed-term certificate of `lift`."""
    atlas = univ.base_atlas
    m, n = atlas.m, atlas.n
    R = [list(row) for row in atlas.initial_seed.matrix.entries] + univ.u_rows
    F, p = [], []
    for v in univ.variable_order:
        f = atlas.principal[v].project(range(m, m + n))
        if f.terms.get((0,) * n) != 1 or min(map(min, f.terms)) < 0:
            raise DeformError("pointed-term certificate: the F-polynomial of "
                              "%s is not 1 plus terms of exponents >= 0" % v)
        F.append(f)
        p.append(atlas.variables[v].g_vector + tuple(
            -min(vec_dot(row, b) for b in f.terms) for row in univ.u_rows))
    return F, p, R


def lift(univ, J, weight, max_order=16):
    """The flat family of A^univ over Z[t] with fibre the SR ring of J at
    t = 0, J the SR ideal of the cluster complex of `univ.base_atlas`, and
    the z-variables weighted by `weight`.  Each generator is its SR
    monomial, which must lead it, minus the monomial's expansion in A^univ
    (`_expansion`); a term of t-degree above max_order raises "order
    budget exceeded".  The order is min(max_order, the first k >= max(2,
    `_max_possible_order`) at which no generator has a term of t-degree k).

    Lemma: the generators G are a Groebner basis of the kernel of
    z -> images, with quotient free over Z[t] on the standard monomials,
    if (1) each F-polynomial has constant term 1 and exponents >= 0 (the
    pointed-term certificate, `_separation`), and (2) the g-vector fan is
    complete and simplicial, of unimodular cones (the fan certificate,
    `Atlas.fan_defect`).  Proof: `_expansion` stops only when nothing is
    left of z^lead's image, so G lies in the kernel.  A standard monomial
    is t^gamma * M, M a cluster monomial.  The root's j-th variable has
    coefficient row -e_j (duality at the root, where H_t = I), so psi(e),
    minus the sum of the t-exponents of those n rows, has psi(R beta) =
    |beta|, and by (1) the image of t^gamma * M has x^g(M) *
    t^(gamma + p(M)) as its unique least-psi term, with coefficient 1.  By (2), frozen g-vectors being
    unit vectors, g is injective on cluster monomials, so these terms are
    distinct, and in a nonzero combination of images the least-psi ones
    cannot all cancel: the images are linearly independent.  Dividing a
    kernel element by G leaves a combination of standard monomials in the
    kernel, hence 0, so the kernel is (G) and G is a Groebner basis of it."""
    family = _family(univ, J, weight)
    F, p, R = _separation(univ)
    known = {}
    family.generators = [_expansion(family, lead, F, p, R, known, max_order)
                         for lead in family.sr_leads]

    key = MonomialOrder(family.weights).key
    for g, lead in zip(family.generators, family.sr_leads):
        if max(g.terms, key=key) != lead:
            raise DeformError("generator %s: its SR monomial is not its "
                              "leading term" % _name(family, lead))
    defect = univ.base_atlas.fan_defect()
    if defect:
        raise DeformError("fan certificate: %s" % defect)

    degrees = {family.tdeg(e) for g in family.generators for e in g.terms}
    k = max(2, _max_possible_order(family))
    while k in degrees:
        k += 1
    family.order = min(max_order, k)
    return family


def _name(family, e):
    return monomial_str(family.z_vars, e[:family.nz])


def _expansion(family, lead, F, p, R, known, max_order):
    """z^lead minus its expansion sum c * t^gamma * M in cluster monomials,
    peeled over the product of the F[v]^a[v], a = lead's z-part.

    A term c * y^beta stands for c * x^e[:m] * t^e[m:], e = p(a) + R beta
    (`_separation`).  The term of least |beta| left names M by its g-vector
    e[:m], and gamma = e[m:] - p(M)[m:]: the image of t^gamma * M stands
    for y^beta * F_M in the same way, so by F_M(0) = 1 and exponents >= 0,
    subtracting c * y^beta * F_M cancels the term and adds only larger
    |beta|.  `known` keeps, by g and across calls, M's z-exponent, p(M)[m:]
    and the terms of F_M but its constant."""
    atlas = family.univ.base_atlas
    m, nz = atlas.m, family.nz

    def pointed(a):
        return [sum(x * q[i] for x, q in zip(a, p) if x)
                for i in range(len(R))]

    base = pointed(lead[:nz])
    work = dict(_product(F, lead[:nz]).terms)
    heap = [(sum(beta), beta) for beta in work]
    heapify(heap)
    terms = {lead: 1}
    while heap:
        _, beta = heappop(heap)
        c = work.pop(beta, None)
        if c is None:
            continue
        e = [x + vec_dot(row, beta) for x, row in zip(base, R)]
        g = tuple(e[:m])
        if g not in known:
            mono = atlas.cluster_monomial(g)
            if mono is None:
                raise DeformError("generator %s: exponent %r lies in no cone "
                                  "of the g-vector fan"
                                  % (_name(family, lead), g))
            z = [0] * nz
            for v, x in mono:
                z[family.z_vars.index(v)] = x
            known[g] = (tuple(z), pointed(z)[m:], [
                t for t in _product(F, z).terms.items() if any(t[0])])
        z, pm, tail = known[g]
        gamma = tuple(map(sub, e[m:], pm))
        if min(gamma) < 0:
            raise DeformError("generator %s: negative t-exponent %r"
                              % (_name(family, lead), gamma))
        if sum(gamma) > max_order:
            raise DeformError("order budget exceeded: generator %s has a "
                              "term of t-degree %d > %d" % (
                                  _name(family, lead), sum(gamma), max_order))
        terms[z + gamma] = -c
        for b, cb in tail:
            b = tuple(map(add, beta, b))
            old = work.pop(b, None)
            s = (old or 0) - c * cb
            if s:
                if old is None:
                    heappush(heap, (sum(b), b))
                work[b] = s
    return Poly(family.nv, terms)


def _product(polys, a):
    """The product of polys[i]^a[i], by repeated products: `Poly.__pow__`
    squares once more than it needs."""
    out = Poly.one(polys[0].nvars)
    for f, k in zip(polys, a):
        for _ in range(k):
            out = out * f
    return out


def _laurent_images(F, p, R):
    """Each variable's image in A^univ, over x and then t (`_separation`)."""
    return [Poly(len(R), {tuple(x + vec_dot(row, b) for x, row in zip(pv, R)):
                          c for b, c in f.terms.items()})
            for f, pv in zip(F, p)]


def verify_family(family):
    """Fiber at zero, vanishing on the images of the variables in A^univ,
    with t kept, and agreement with the universal exchange relations."""
    univ = family.univ
    report = {}

    report["fiber_at_zero"] = all(
        {e: c for e, c in g.terms.items() if family.tdeg(e) == 0} == {lead: 1}
        for g, lead in zip(family.generators, family.sr_leads))

    images = _laurent_images(*_separation(univ))
    nx, nz = images[0].nvars, family.nz

    def image(g):
        """g under the images; the t's stay, each z-part is composed once."""
        parts = {}
        for e, c in g.terms.items():
            parts.setdefault(e[:nz], {})[(0,) * (nx - univ.p) + e[nz:]] = c
        out = Poly.zero(nx)
        for z, ts in parts.items():
            out = out + _product(images, z) * Poly(nx, ts)
        return out

    report["laurent_vanishing"] = all(image(g).is_zero()
                                      for g in family.generators)

    index = {v: i for i, v in enumerate(family.z_vars + family.t_vars)}
    lead_index = {l: i for i, l in enumerate(family.sr_leads)}
    match_ok = True
    for rel in univ.univ_relations:
        b = _exponent(index, family.nv, dict.fromkeys(rel["pair"], 1))
        expected = {b: 1}
        for t_part, z_part in rel["sides"]:
            expected[_exponent(index, family.nv, z_part, t_part)] = -1
        match_ok &= family.generators[lead_index[b]] == Poly(family.nv,
                                                             expected)
    report["matches_universal_relations"] = match_ok
    return report
