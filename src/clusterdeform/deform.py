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
which z_v has degree e_v and t_i the degree from the gradings module.
"""

from heapq import heapify, heappop, heappush
from operator import add, sub

from .gradings import t_degrees
from .intlinalg import vec_dot
from .polynomials import MonomialOrder, Poly, monomial_str
from .universal import universal_images


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
    tdeg_map = t_degrees(univ)
    lam = [vec_dot(weight, tdeg_map[t]) for t in t_vars]
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
    if (1) each image has a unique term of least phi (see `_expansion`),
    of coefficient 1 and x-exponent its variable's g-vector (the
    pointed-term certificate), and (2) the g-vector fan is complete and
    simplicial, of unimodular cones (the fan certificate,
    `Atlas.fan_defect`).  Proof: `_expansion` stops only when nothing is
    left of z^lead's image, so G lies in the kernel.  A standard monomial
    is t^gamma * M, M a cluster monomial; as phi is additive, (1) makes
    x^g(M) * t^(gamma + p(M)) the unique least-phi term of its image, with
    coefficient 1.  By (2), frozen g-vectors being unit vectors, g is
    injective on cluster monomials, so these terms are distinct, and in a
    nonzero combination of images the least-phi ones cannot all cancel:
    the images are linearly independent.  Dividing a kernel element by G
    leaves a combination of standard monomials in the kernel, hence 0, so
    the kernel is (G) and G is a Groebner basis of it."""
    family = _family(univ, J, weight)
    atlas = univ.base_atlas
    m = atlas.m
    images = universal_images(univ)
    unit = [m + i for i, row in enumerate(univ.u_rows)
            if sorted(row) == [0] * (len(row) - 1) + [1]]

    def phi(e):
        return sum(e[i] for i in unit)

    # the t-exponent of each variable's pointed term, the least in phi
    pointed = [min(img.terms, key=phi)[m:] for img in images]
    known = {}
    family.generators = [_expansion(family, lead, images, pointed, phi,
                                    known, max_order)
                         for lead in family.sr_leads]

    key = MonomialOrder(family.weights).key
    for g, lead in zip(family.generators, family.sr_leads):
        if max(g.terms, key=key) != lead:
            raise DeformError("generator %s: its SR monomial is not its "
                              "leading term" % _name(family, lead))
    for v, img in zip(family.z_vars, images):
        least = min(map(phi, img.terms))
        low = [(e[:m], c) for e, c in img.terms.items() if phi(e) == least]
        if low != [(atlas.variables[v].g_vector, 1)]:
            raise DeformError("pointed-term certificate: the image of %s has "
                              "no unique least-phi term x^g(%s)" % (v, v))
    defect = atlas.fan_defect()
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


def _expansion(family, lead, images, pointed, phi, known, max_order):
    """z^lead minus its expansion sum c * t^gamma * M in cluster monomials.

    phi sums the exponents of the t's whose coefficient row is a unit
    vector, the y-degree of the F-polynomial, so the image of a cluster
    monomial M with g-vector g is x^g * t^p(M) plus terms of larger phi
    (the lemma in `lift`).  The term c * x^g * t^beta of least phi left in
    the image of z^lead names M and gamma = beta - p(M), and subtracting
    c * t^gamma times the image of M cancels it.  `known` keeps, by g and
    across calls, each M's z-exponent, p(M) and image."""
    atlas = family.univ.base_atlas
    m, nz = atlas.m, family.nz
    work = dict(_image(images, lead[:nz]).terms)
    heap = [(phi(e), e) for e in work]
    heapify(heap)
    terms = {lead: 1}
    while heap:
        _, e = heappop(heap)
        c = work.get(e)
        if c is None:
            continue
        if e[:m] not in known:
            mono = atlas.cluster_monomial(e[:m])
            if mono is None:
                raise DeformError("generator %s: exponent %r lies in no cone "
                                  "of the g-vector fan"
                                  % (_name(family, lead), e[:m]))
            z = [0] * nz
            for v, x in mono:
                z[family.z_vars.index(v)] = x
            p = [sum(x * q[t] for x, q in zip(z, pointed) if x)
                 for t in range(len(e) - m)]
            known[e[:m]] = (tuple(z), p, _image(images, z))
        z, p, image = known[e[:m]]
        gamma = tuple(map(sub, e[m:], p))
        if min(gamma) < 0:
            raise DeformError("generator %s: negative t-exponent %r"
                              % (_name(family, lead), gamma))
        if sum(gamma) > max_order:
            raise DeformError("order budget exceeded: generator %s has a "
                              "term of t-degree %d > %d" % (
                                  _name(family, lead), sum(gamma), max_order))
        terms[z + gamma] = -c
        shift = (0,) * m + gamma
        for x, cx in image.terms.items():
            x = tuple(map(add, x, shift))
            s = work.pop(x, 0) - c * cx
            if s:
                if x not in work:
                    heappush(heap, (phi(x), x))
                work[x] = s
        if e in work:
            raise DeformError("generator %s: the image of %s does not lead "
                              "with x^g * t^p(M) and coefficient 1"
                              % (_name(family, lead), _name(family, z)))
    return Poly(family.nv, terms)


def _image(images, z):
    """The product of images[i]^z[i], by repeated products: `Poly.__pow__`
    squares once more than it needs."""
    out = Poly.one(images[0].nvars)
    for img, k in zip(images, z):
        for _ in range(k):
            out = out * img
    return out


def verify_family(family):
    """Fiber at zero, vanishing on the images of the variables in A^univ,
    with t kept, and agreement with the universal exchange relations."""
    univ = family.univ
    report = {}

    report["fiber_at_zero"] = all(
        {e: c for e, c in g.terms.items() if family.tdeg(e) == 0} == {lead: 1}
        for g, lead in zip(family.generators, family.sr_leads))

    images = universal_images(univ)
    nx, nz = images[0].nvars, family.nz

    def image(g):
        """g under the images; the t's stay, each z-part is composed once."""
        parts = {}
        for e, c in g.terms.items():
            parts.setdefault(e[:nz], {})[(0,) * (nx - univ.p) + e[nz:]] = c
        out = Poly.zero(nx)
        for z, ts in parts.items():
            out = out + _image(images, z) * Poly(nx, ts)
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
