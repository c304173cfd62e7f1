"""Command-line interface: every pipeline stage behind one binary.

Exit codes: 0 success, 1 property-check failure (witnesses reported),
2 input or usage error, 141 (128 + SIGPIPE, as a shell reports a writer
killed by SIGPIPE) when the reader closes stdout before the output ends.
"""

import argparse
import json
import os
import sys
from functools import cached_property

from .atlas import AtlasError, enumerate_atlas
from .cotangent import CotangentError, t1_invariant
from .deform import DeformError, lift, verify_family
from .gradings import (add_frozen_for_positivity, find_positive_grading,
                       find_strictly_positive, m_grading, rank_flags)
from .groebner import GroebnerError, groebner_cone
from .intlinalg import lattice_coordinates
from .polynomials import MonomialOrder, join_terms, monomial_str
from .properties import (PropertyError, PropertyReport, check_t0,
                         check_t0_star, check_t1, semigroup_data)
from .seeds import add_frozen_rows, load_seed, mutate_along, seed_to_dict
from .simplicial import cluster_complex, sr_ideal
from .universal import UniversalError, build_universal, fiber_at_zero


PIPELINE_ERRORS = (AtlasError, CotangentError, DeformError, GroebnerError,
                   PropertyError, UniversalError, ValueError)


class Pipeline:
    """The stages built from one seed, each computed on first use and kept:
    atlas -> complex -> ideal, atlas -> universal -> cone, and atlas ->
    M-grading -> strictly positive grading -> T1.  No stage is computed
    twice; `repair_t1` runs its rounds as pipelines, this one first."""

    def __init__(self, seed, max_seeds):
        self.seed = seed
        self.max_seeds = max_seeds

    @cached_property
    def atlas(self):
        return enumerate_atlas(self.seed, max_seeds=self.max_seeds)

    @cached_property
    def complex(self):
        return cluster_complex(self.atlas)

    @cached_property
    def ideal(self):
        return sr_ideal(self.complex, self.atlas.frozen_ids)

    @cached_property
    def universal(self):
        return build_universal(self.atlas)

    @cached_property
    def cone(self):
        return groebner_cone(self.universal)

    @cached_property
    def grading(self):
        return m_grading(self.atlas)

    @cached_property
    def strict_grading(self):
        return find_strictly_positive(self.atlas, self.grading)

    @cached_property
    def t1(self):
        return check_t1(self.atlas, self.strict_grading, self.grading)

    def repair_t1(self, max_rounds=64):
        """The seed with frozen rows added until T1 holds on every seed in
        its class: the rows of a strictly positive grading where it has
        none, then one row per round against the first witness.  A round
        is one pipeline, one search of its seed; the first is this one."""
        # added rows keep B~ of full rank, so only the first round can fail
        if not rank_flags(self.seed.matrix, self.grading)["full_rank"]:
            raise PropertyError("repair requires a full-rank matrix")
        pipe = self
        for _ in range(max_rounds):
            if pipe.strict_grading is None:
                pipe = Pipeline(add_frozen_for_positivity(
                    pipe.seed, max_seeds=self.max_seeds), self.max_seeds)
                if pipe.strict_grading is None:
                    raise PropertyError("could not establish a strictly "
                                        "positive grading")
            if pipe.t1.holds:
                return pipe.seed
            witness, m = pipe.t1.witnesses[0], pipe.seed.matrix.m
            state = pipe.atlas.seeds[witness["seed"]]
            lam = lattice_coordinates(witness["w"], state.matrix)
            if lam is None:
                raise PropertyError("witness not in the column lattice")
            k = next(i for i, x in enumerate(lam) if i != witness["j"] and x)
            row = tuple((i == k) * (1 if lam[k] < 0 else -1)
                        for i in range(len(lam)))
            # transport the row back to the initial seed along the reverse path
            work = mutate_along(state.matrix + (row,), reversed(state.path))
            if work[:m] != pipe.seed.matrix.entries:
                raise PropertyError("row transport did not return to the "
                                    "initial seed")
            seed = add_frozen_rows(pipe.seed, work[m:], ["r%d" % len(work)])
            pipe = Pipeline(seed, self.max_seeds)
        raise PropertyError("repair did not terminate within the round budget")

    def lifted_family(self, max_order):
        """The flat family at the cone's interior weight (`deform.lift`)."""
        return lift(self.universal, self.ideal, self.cone.interior_weight,
                    max_order=max_order)


def _laurent_parts(poly):
    """Split a Laurent polynomial into (numerator Poly, denominator exps)."""
    denom = [max(0, -min((e[i] for e in poly.terms), default=0))
             for i in range(poly.nvars)]
    return poly.scale_monomial(denom), tuple(denom)


def _emit(args, payload, text_lines):
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _pipeline(args):
    return Pipeline(load_seed(args.seed), args.max_seeds)


def _factors_str(items):
    """monomial_str over (variable, exponent) pairs."""
    return monomial_str([v for v, _ in items], [e for _, e in items])


def cmd_enumerate(args):
    pipe = _pipeline(args)
    atlas = pipe.atlas
    names = list(pipe.seed.var_ids)
    variables = []
    for var in atlas.variables.values():
        num, den = _laurent_parts(atlas.laurent_expansion(var.id))
        variables.append({
            "id": var.id, "g_vector": list(var.g_vector),
            "frozen": var.is_frozen,
            "numerator": num.to_string(names),
            "denominator": monomial_str(names, den)})
    clusters = [list(c) for c in atlas.clusters]
    pairs = []
    for ep in sorted(atlas.exchange_pairs.values(),
                     key=lambda p: tuple(sorted(p.pair))):
        pairs.append({"pair": sorted(ep.pair),
                      "sides": [[[v, e] for v, e in side]
                                for side in ep.monomials]})
    payload = {"variables": variables, "clusters": clusters,
               "exchange_pairs": pairs}
    lines = ["variables: %d (%d mutable)" % (
        len(variables), len(atlas.mutable_variables))]
    for v in variables:
        lines.append("  %s  g=%s  %s / %s" % (
            v["id"], tuple(v["g_vector"]), v["numerator"], v["denominator"]))
    lines.append("clusters: %d" % len(clusters))
    for c in clusters:
        lines.append("  " + " ".join(c))
    lines.append("exchange pairs: %d" % len(pairs))
    for p in pairs:
        sides = " + ".join(_factors_str(s) for s in p["sides"])
        lines.append("  %s * %s = %s" % (p["pair"][0], p["pair"][1], sides))
    _emit(args, payload, lines)
    return 0


def cmd_complex(args):
    K = _pipeline(args).complex
    payload = {"vertices": K.vertices,
               "facets": [sorted(f) for f in K.facets]}
    lines = ["vertices: " + " ".join(K.vertices)]
    lines += ["facet: " + " ".join(sorted(f)) for f in K.facets]
    _emit(args, payload, lines)
    return 0


def cmd_sr_ideal(args):
    J = _pipeline(args).ideal
    payload = {"variables": J.variables,
               "generators": [list(g) for g in J.generators]}
    lines = ["variables: " + " ".join(J.variables)]
    lines += ["gen: " + monomial_str(J.variables, g) for g in J.generators]
    _emit(args, payload, lines)
    return 0


def cmd_grading(args):
    pipe = _pipeline(args)
    seed = pipe.seed
    if args.add_frozen:
        augmented = add_frozen_for_positivity(seed, max_seeds=args.max_seeds)
        payload = seed_to_dict(augmented)
        _emit(args, payload, [json.dumps(payload)])
        return 0
    atlas, grading = pipe.atlas, pipe.grading
    payload = {"free_rank": grading.free_rank, "torsion": grading.torsion,
               "rank_flags": rank_flags(seed.matrix, grading),
               "degrees": {v: [list(grading.deg_H[v][0]),
                               list(grading.deg_H[v][1])]
                           for v in sorted(grading.deg_H)}}
    lines = ["free rank: %d  torsion: %s" % (grading.free_rank,
                                             grading.torsion)]
    for v in sorted(grading.deg_H):
        free, tors = grading.deg_H[v]
        lines.append("  deg %s = %s%s" % (v, free,
                                          " mod %s" % (tors,) if tors else ""))
    if args.find_positive:
        payload["positive_grading"] = find_positive_grading(atlas, grading)
        payload["strictly_positive_grading"] = pipe.strict_grading
        lines.append("positive grading: %s" % payload["positive_grading"])
        lines.append("strictly positive grading: %s"
                     % payload["strictly_positive_grading"])
    _emit(args, payload, lines)
    return 0


def _relation_payload(univ):
    out = []
    for rel in univ.univ_relations:
        sides = []
        for t_part, z_part in rel["sides"]:
            sides.append({"t": dict(sorted(t_part.items())),
                          "z": dict(sorted(z_part.items()))})
        out.append({"pair": sorted(rel["pair"]), "sides": sides})
    return out


def _relation_line(rel):
    parts = [_factors_str(sorted(side["t"].items()) + sorted(side["z"].items()))
             for side in rel["sides"]]
    return "%s * %s = %s" % (rel["pair"][0], rel["pair"][1],
                             " + ".join(parts))


def cmd_univ(args):
    pipe = _pipeline(args)
    univ = pipe.universal
    fiber = fiber_at_zero(univ, pipe.ideal)
    payload = {"u_rows": univ.u_rows, "t_ids": univ.t_ids,
               "relations": _relation_payload(univ),
               "t_degrees": dict(zip(univ.t_ids, map(list, univ.t_degrees))),
               "variable_order": univ.variable_order,
               "fiber_at_zero": fiber["verdict"]}
    lines = ["coefficients: %d" % univ.p]
    for t, row, deg in zip(univ.t_ids, univ.u_rows, univ.t_degrees):
        lines.append("  %s  row %s  deg_T %s" % (t, row, deg))
    lines.append("relations: %d" % len(univ.univ_relations))
    lines += ["  " + _relation_line(r) for r in payload["relations"]]
    lines.append("fiber at zero in the monomial ideal: %s" % fiber["verdict"])
    _emit(args, payload, lines)
    return 0


def cmd_t1(args):
    pipe = _pipeline(args)
    pinned = t1_invariant(pipe.atlas, pipe.strict_grading, pipe.grading)
    lines = ["pinned degrees: %d" % len(pinned)]
    lines += ["  pair {%s}  a=%s  w=%s" % (", ".join(p["pair"]), p["a"],
                                           p["witness"]) for p in pinned]
    _emit(args, {"pinned": pinned}, lines)
    return 0


def cmd_check(args):
    if args.repair and args.property != "t1":
        raise PropertyError("--repair only applies to --property t1")
    pipe = _pipeline(args)
    atlas, D = pipe.atlas, pipe.strict_grading
    if args.repair and D is None:
        # the repair first adds the frozen rows of a strictly positive grading
        report = PropertyReport("T1", [])
        report.holds = None
    elif args.property == "t1":
        report = pipe.t1
    elif args.property == "t0":
        report = check_t0(pipe.ideal, pipe.grading, atlas, D)
    else:
        # no semigroup without a grading, nor at rank 0, where T0* holds
        univ = pipe.universal
        semigroup = semigroup_data(univ) if D and atlas.n else None
        report = check_t0_star(pipe.ideal, univ, semigroup, D)
    payload = {"property": report.property, "holds": report.holds,
               "witnesses": report.witnesses}
    verdict = ("undecided (no strictly positive grading)"
               if report.holds is None else report.holds)
    lines = ["%s holds: %s" % (report.property, verdict)]
    lines += ["  witness: %s" % w for w in report.witnesses]
    code = 0 if report.holds else 1
    if args.repair and not report.holds:
        payload["repaired_seed"] = seed_to_dict(pipe.repair_t1())
        lines.append("repaired seed: %s" % json.dumps(payload["repaired_seed"]))
        code = 0
    _emit(args, payload, lines)
    return code


def cmd_cone(args):
    pipe = _pipeline(args)
    univ, gc = pipe.universal, pipe.cone
    payload = {"ambient": univ.variable_order,
               "lineality": gc.cone.lineality,
               "rays": [list(r) for r in gc.cone.rays],
               "dual_generators": [list(g) for g in gc.dual_generators],
               "simplicial_mod_lineality": gc.simplicial_mod_lineality,
               "smooth_mod_lineality": gc.smooth_mod_lineality,
               "interior_weight": gc.interior_weight}
    lines = ["ambient order: " + " ".join(univ.variable_order)]
    lines += ["lineality: %s" % (row,) for row in gc.cone.lineality]
    lines += ["ray: %s" % (r,) for r in gc.cone.rays]
    lines.append("simplicial mod lineality: %s" % gc.simplicial_mod_lineality)
    lines.append("smooth mod lineality: %s" % gc.smooth_mod_lineality)
    lines.append("interior weight: %s" % (gc.interior_weight,))
    _emit(args, payload, lines)
    return 0


def _sorted_terms(family):
    """Each generator's (exponent, coefficient) terms, leading term first."""
    key = MonomialOrder(family.weights).key
    return [sorted(g.terms.items(), key=lambda item: key(item[0]),
                   reverse=True) for g in family.generators]


def family_payload(family):
    """Generators in stable order with terms sorted by the monomial order."""
    gens = [[{"coeff": str(c), "exponents": list(e)}
             for e, c in terms] for terms in _sorted_terms(family)]
    return {"variables": family.z_vars + family.t_vars,
            "weights": family.weights, "order": family.order,
            "generators": gens}


def family_lines(family):
    names = family.z_vars + family.t_vars
    return [join_terms((c, monomial_str(names, e)) for e, c in terms)
            for terms in _sorted_terms(family)]


def cmd_lift(args):
    family = _pipeline(args).lifted_family(args.max_order)
    payload = family_payload(family)
    lines = ["generators: %d  (order %d)" % (len(family.generators),
                                             family.order)]
    lines += ["  " + line for line in family_lines(family)]
    code = 0
    if args.verify:
        report = verify_family(family)
        payload["verify"] = report
        lines += ["verify %s: %s" % (k, v) for k, v in sorted(report.items())]
        if not all(report.values()):
            code = 1
    _emit(args, payload, lines)
    return code


def _data_path(name):
    from importlib.resources import files
    return str(files("clusterdeform.data").joinpath(name + ".json"))


def cmd_demo(args):
    for name in ("a2", "g2"):
        print("== %s ==" % name)
        pipe = Pipeline(load_seed(_data_path(name)), args.max_seeds)
        atlas = pipe.atlas
        print("variables: %d mutable, %d frozen; ideal generators: %d"
              % (len(atlas.mutable_variables), len(atlas.frozen_ids),
                 len(pipe.ideal.generators)))
        univ, gc = pipe.universal, pipe.cone
        print("coefficients: %d; cone rays: %d, lineality: %d, smooth: %s"
              % (univ.p, len(gc.cone.rays), gc.cone.lineality_dim,
                 gc.smooth_mod_lineality))
        # mutation preserves skew-symmetry, so the initial seed decides it
        B, n = pipe.seed.matrix.entries, pipe.seed.matrix.n
        if all(B[i][j] == -B[j][i] for i in range(n) for j in range(n)):
            print("mutable block: skew-symmetric, so unobstructed (paper)")
        else:
            print("mutable block: not skew-symmetric: not covered by the "
                  "paper's unobstructedness theorem")
        family = pipe.lifted_family(args.max_order)
        print("lifted family (%d generators):" % len(family.generators))
        for line in family_lines(family):
            print("  " + line)
        report = verify_family(family)
        print("verified: %s" % all(report.values()))
    return 0


def _budget(text):
    """An argparse type for a budget: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("must be an integer >= 1, not %r"
                                         % text)
    return value


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    common.add_argument("--max-seeds", type=_budget, default=100000,
                        help="enumeration budget (default 100000)")

    parser = argparse.ArgumentParser(
        prog="cluster-deform",
        description="Exact cluster-algebra enumeration, property checks, "
                    "and deformation lifting.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, with_seed=True, **kw):
        p = sub.add_parser(name, parents=[common], **kw)
        if with_seed:
            p.add_argument("seed", help="seed JSON file")
        p.set_defaults(fn=fn)
        return p

    add("enumerate", cmd_enumerate,
        help="cluster variables, clusters, exchange pairs")
    add("complex", cmd_complex, help="cluster complex vertices and facets")
    add("sr-ideal", cmd_sr_ideal, help="Stanley-Reisner ideal generators")
    g = add("grading", cmd_grading, help="fine grading and positivity")
    g.add_argument("--find-positive", action="store_true")
    g.add_argument("--add-frozen", action="store_true")
    add("univ", cmd_univ, help="universal coefficient extension")
    add("t1", cmd_t1, help="pinned deformation degrees")
    c = add("check", cmd_check, help="decision procedures")
    c.add_argument("--property", required=True,
                   choices=["t0", "t0star", "t1"])
    c.add_argument("--repair", action="store_true")
    add("cone", cmd_cone, help="weight cone with certificates")
    lf = add("lift", cmd_lift, help="flat family over the coefficients")
    lf.add_argument("--verify", action="store_true")
    demo = add("demo", cmd_demo, with_seed=False,
               help="run the bundled showcase examples end to end")
    for p in (lf, demo):
        p.add_argument("--max-order", type=_budget, default=16,
                       help="cap on the lifted family's t-degree "
                            "(default 16)")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; preserve both
        return exc.code
    try:
        code = args.fn(args)
        # a closed pipe shows here, not at the flush on exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the output is unwanted: point stdout at /dev/null so that the
        # flush on exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, json.JSONDecodeError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except PIPELINE_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
