"""The flat family over the coefficient parameters, in closed form and
certified by Buchberger's criterion.  All arithmetic is exact.

The family is A^univ, the cluster algebra with universal coefficients:
each generator is its Stanley-Reisner (SR) monomial minus the monomial's
expansion in cluster monomials over Z[t], unique because in finite type
the cluster monomials form a basis.  Its tails are standard monomials, so
once every S-pair reduces to zero it is the reduced Groebner basis.

Generators are `Poly`s over the variables z first, t after, ordered by
`MonomialOrder(weights)`: the weights cover the z-variables only, and ties
break by total degree, then lexicographically.  Each generator leads with
its SR monomial, coefficient 1, and is homogeneous for the fine grading in
which z_v has degree e_v and t_i the degree from the gradings module.
"""

from heapq import heapify, heappop, heappush
from operator import add, sub

from .gradings import t_degrees
from .groebner import groebner_cone
from .intlinalg import vec_dot
from .polynomials import MonomialOrder, Poly, divide, monomial_str
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


def first_order(univ, J, weight=None):
    """Perturb each exchangeable-pair generator by its owned coefficients;
    all other generators start unperturbed."""
    if univ.has_isolated_vertex:
        raise DeformError("isolated vertex: no canonical first-order data")
    z_vars = list(univ.variable_order)
    t_vars = list(univ.t_ids)
    nv = len(z_vars) + len(t_vars)
    index = {v: i for i, v in enumerate(z_vars + t_vars)}

    tdeg_map = t_degrees(univ)
    if weight is None:
        weight = groebner_cone(univ).interior_weight
    if any(x < 0 for x in weight):
        raise DeformError("weight vector has negative entries")
    lam = [vec_dot(weight, tdeg_map[t]) for t in t_vars]
    for t, x in zip(t_vars, lam):
        if x < 1:
            raise DeformError("weight is not positive on %s" % t)

    sr_leads = sorted(_exponent(index, nv, dict(zip(J.variables, gen)))
                      for gen in J.generators)
    generators = [{lead: 1} for lead in sr_leads]
    lead_index = {l: i for i, l in enumerate(sr_leads)}

    for t in t_vars:
        rel_idx, side_idx = univ.owners[t][0]
        rel = univ.univ_relations[rel_idx]
        b = _exponent(index, nv, dict.fromkeys(rel["pair"], 1))
        if b not in lead_index:
            raise DeformError("exchange monomial %r is not an ideal "
                              "generator" % (b,))
        _, z_part = rel["sides"][side_idx]
        corr = _exponent(index, nv, z_part, {t: 1})
        generators[lead_index[b]][corr] = -1

    return DeformationFamily(
        univ=univ, z_vars=z_vars, t_vars=t_vars, weights=list(weight),
        lam=lam, generators=[Poly(nv, g) for g in generators],
        sr_leads=sr_leads, order=1)


def _spairs(family):
    """(i, l, cofactor_i, cofactor_l) exponents of every S-pair of leads
    that are not coprime, read off the bit masks of the squarefree leads'
    supports."""
    masks = [sum(1 << j for j, x in enumerate(a) if x)
             for a in family.sr_leads]

    def monomial(mask):
        return tuple((mask >> j) & 1 for j in range(family.nv))

    return [(i, l, monomial(masks[l] & ~a), monomial(a & ~masks[l]))
            for i, a in enumerate(masks) for l in range(i + 1, len(masks))
            if a & masks[l]]


def _max_possible_order(family):
    min_lam = min(family.lam)
    return max(vec_dot(family.weights, l[:family.nz])
               for l in family.sr_leads) // min_lam


def lift(family, max_order=16):
    """Replace each generator by its SR monomial minus the monomial's
    expansion in A^univ (`_expansion`), then certify the family: each SR
    monomial must lead its generator and every S-pair must reduce to zero.
    A term of t-degree above max_order raises "order budget exceeded".  The
    order is min(max_order, the first k >= max(2, `_max_possible_order`)
    at which no generator has a term of t-degree k)."""
    univ = family.univ
    m = univ.base_atlas.m
    images = universal_images(univ)
    unit = [m + i for i, row in enumerate(univ.u_rows)
            if sorted(row) == [0] * (len(row) - 1) + [1]]

    def phi(e):
        return sum(e[i] for i in unit)

    # the t-exponent of each variable's pointed term, the least in phi
    pointed = [min(img.terms, key=phi)[m:] for img in images]
    known = {}
    for j, lead in enumerate(family.sr_leads):
        family.generators[j] = _expansion(family, lead, images, pointed, phi,
                                          known, max_order)

    key = MonomialOrder(family.weights).key
    for g, lead in zip(family.generators, family.sr_leads):
        if max(g.terms, key=key) != lead:
            raise DeformError("generator %s: its SR monomial is not its "
                              "leading term" % _name(family, lead))
    for i, l, _, _, r, _ in _pair_reductions(family, _spairs(family)):
        if not r.is_zero():
            raise DeformError("not flat: the S-pair of %s and %s does not "
                              "reduce to zero" % (
                                  _name(family, family.sr_leads[i]),
                                  _name(family, family.sr_leads[l])))

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

    Let phi sum the exponents of the t's whose coefficient row is a unit
    vector: they carry the y-degree of the F-polynomial, so the image of a
    cluster monomial M with g-vector g is x^g * t^p(M) plus terms of larger
    phi.  Hence the term c * x^g * t^beta of least phi left in the image of
    z^lead names exactly one M and gamma = beta - p(M), and subtracting
    c * t^gamma times the image of M cancels it and adds only terms of
    larger phi.  `known` keeps, by g and across calls, each M's
    z-exponent, p(M) and image."""
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


def _pair_reductions(family, spairs):
    """Each S-pair m_i*g_i - m_l*g_l divided by the generators, all in one
    call: (i, l, mi, ml, remainder, quotients)."""
    gens = family.generators
    dividends = []
    for i, l, mi, ml in spairs:
        s = {tuple(map(add, e, mi)): c for e, c in gens[i].terms.items()}
        for e, c in gens[l].terms.items():
            e = tuple(map(add, e, ml))
            s[e] = s.get(e, 0) - c
        dividends.append(Poly(family.nv, s))
    divided = divide(dividends, list(zip(family.sr_leads, gens)),
                     MonomialOrder(family.weights))
    return [pair + (r, q) for pair, (q, r) in zip(spairs, divided)]


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
