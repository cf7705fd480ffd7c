"""The acceptance suite: twelve exact, brute-force-verifiable criteria
covering coboundaries, cocycle classification, connections, curvature,
holonomy and gauge groups on small fixture posets."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import connections as cn
from .cochains import (
    Cochain1,
    coboundary,
    coboundary2,
    coboundary_from_assignment,
    classify_cocycles,
    cocycle_from_hom,
    enumerate_cocycles,
    extend_to_path,
    is_morphism,
    is_path_independent,
    random_cochain0,
    random_cochain1,
    trivial_cochain1,
)
from .gauge import gauge_group, gauge_group_raw
from .groups import FiniteGroup, cyclic_group, symmetric_group
from .paths import (
    count_hom_classes,
    deformations,
    enumerate_homs,
    pi1_presentation,
)
from .poset import Poset, build_poset, generate
from .simplicial import (
    Simplex0,
    Simplex1,
    Simplex2,
    enumerate_simplices,
    is_degenerate,
    is_inflating,
    permute2,
)

DEFAULT_SEED = 20260824


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self):
        verdict = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{verdict}] {self.name}: {self.detail}"


def two_loop_poset() -> Poset:
    """Two minimal under three maximal elements; its realization is a
    wedge of two circles, giving a free fundamental group of rank 2."""
    return build_poset(
        ["m1", "m2", "M1", "M2", "M3"],
        [(m, M) for m in ("m1", "m2") for M in ("M1", "M2", "M3")],
        name="twoloop",
    )


def standard_groups():
    return {
        "z2": cyclic_group(2),
        "z3": cyclic_group(3),
        "s3": symmetric_group(3),
    }


def standard_posets():
    return {
        "chain2": generate("chain", 2),
        "chain3": generate("chain", 3),
        "vee": generate("vee", 1),
        "circle2": generate("circle", 2),
        "twoloop": two_loop_poset(),
    }


def _all_cochain1(P: Poset, G: FiniteGroup):
    simplices = enumerate_simplices(P, 1)
    for assignment in itertools.product(G.elements, repeat=len(simplices)):
        yield Cochain1(P, G, dict(zip(simplices, assignment)))


def winding_cocycle(P: Poset, G: FiniteGroup, g) -> Cochain1:
    """The first enumerated cocycle whose holonomy subgroup contains g."""
    a0 = P.elements[0]
    pres, words = pi1_presentation(P, a0)
    f = {a: G.identity for a in P.elements}
    for sigma in enumerate_homs(pres, G):
        if g in G.subgroup_generated(list(sigma)):
            return cocycle_from_hom(P, G, pres, words, sigma, f)
    raise ValueError(f"no cocycle on {P.name} winds through {g!r}")


def full_image_cocycle(P: Poset, G: FiniteGroup) -> Cochain1:
    """A cocycle whose holonomy is all of G (needs enough loops in P)."""
    a0 = P.elements[0]
    pres, words = pi1_presentation(P, a0)
    f = {a: G.identity for a in P.elements}
    for sigma in enumerate_homs(pres, G):
        if len(G.subgroup_generated(list(sigma))) == len(G):
            return cocycle_from_hom(P, G, pres, words, sigma, f)
    raise ValueError(f"no surjective homomorphism onto {G.name} from {P.name}")


def random_cocycle(P: Poset, G: FiniteGroup, rng) -> Cochain1:
    a0 = P.elements[0]
    pres, words = pi1_presentation(P, a0)
    sigma = rng.choice(enumerate_homs(pres, G))
    f = {a: rng.choice(G.elements) for a in P.elements}
    f[a0] = G.identity
    return cocycle_from_hom(P, G, pres, words, sigma, f)


def random_connection(P: Poset, G: FiniteGroup, rng) -> Cochain1:
    """A uniformly random twist of a random bundle."""
    z = random_cocycle(P, G, rng)
    twist = {b: G.identity for b in enumerate_simplices(P, 1)}
    for b in cn.noninflating_pairs(P):
        twist[b] = rng.choice(G.elements)
    return cn.construct_from_cochain(Cochain1(P, G, twist), z)


# -- criteria --------------------------------------------------------------


def criterion_1(rng):
    """Second coboundary trivial (d after d lands in unit arrows)."""
    chain2 = generate("chain", 2)
    circle2 = generate("circle", 2)
    Z2, S3 = cyclic_group(2), symmetric_group(3)
    checked = 0
    for u in _all_cochain1(chain2, Z2):
        x = coboundary(coboundary(u))
        if any(g != Z2.identity for g in x.values.values()):
            return False, f"exhaustive failure at cochain #{checked}"
        checked += 1
    randoms = 0
    for _ in range(500):
        u = random_cochain1(circle2, S3, rng)
        x = coboundary(coboundary(u))
        if any(g != S3.identity for g in x.values.values()):
            return False, "random 1-cochain broke d after d"
        v = random_cochain0(circle2, S3, rng)
        w = coboundary(coboundary(v))
        if any(g != S3.identity for g in w.values.values()):
            return False, "random 0-cochain broke d after d"
        randoms += 1
    return True, f"{checked} exhaustive + {randoms} random cochains, all trivial"


def criterion_2(rng):
    """Cocycle classes match fundamental-group homomorphism classes."""
    circle2 = generate("circle", 2)
    groups = standard_groups()
    expected = {"z2": 2, "z3": 3, "s3": 3}
    details = []
    for key, G in groups.items():
        reps = classify_cocycles(circle2, G)
        pres, _ = pi1_presentation(circle2, circle2.elements[0])
        homs = count_hom_classes(pres, G)
        if not (len(reps) == homs == expected[key]):
            return False, (
                f"circle2 x {G.name}: {len(reps)} classes, "
                f"{homs} hom classes, expected {expected[key]}"
            )
        details.append(f"{G.name}:{len(reps)}")
    for n in (2, 3):
        chain = generate("chain", n)
        for G in groups.values():
            if len(classify_cocycles(chain, G)) != 1:
                return False, f"chain{n} x {G.name} is not a single class"
    return True, "circle2 " + " ".join(details) + "; chains collapse to 1"


def criterion_3(rng):
    """Path independence is exactly the coboundary property."""
    Z2 = cyclic_group(2)
    total = 0
    for P in (generate("chain", 2), generate("vee", 1)):
        sections = [
            dict(zip(P.elements, choice))
            for choice in itertools.product(Z2.elements, repeat=len(P))
        ]
        for u in _all_cochain1(P, Z2):
            witness = is_path_independent(u)
            brute = any(
                coboundary_from_assignment(P, Z2, s) == u for s in sections
            )
            if bool(witness) != brute:
                return False, f"mismatch on {P.name} after {total} cochains"
            if witness is not None and coboundary(witness) != u:
                return False, f"bad witness on {P.name}"
            total += 1
    return True, f"{total} cochains agree with the brute-force scan"


def criterion_4(rng):
    """On a totally ordered poset every connection is its own bundle."""
    chain3 = generate("chain", 3)
    Z2 = cyclic_group(2)
    us = cn.enumerate_connections(chain3, Z2)
    for u in us:
        if not cn.is_flat(u) or u != cn.induced_cocycle(u):
            return False, "found a nonflat or twisted connection on chain3"
    return True, f"{len(us)} connections on chain3 x Z2, all flat and untwisted"


def criterion_5(rng):
    """Nonflat connections exist and stay on their bundle."""
    circle2 = generate("circle", 2)
    details = []
    for G in (cyclic_group(2), symmetric_group(3)):
        z = trivial_cochain1(circle2, G)
        u, witness = cn.construct_nonflat(z)
        if witness is None:
            return False, f"no witness 2-simplex over {G.name}"
        w = cn.curvature(u)
        if w(witness) == G.identity or cn.is_flat(u):
            return False, f"constructed connection over {G.name} is flat"
        if cn.induced_cocycle(u) != z:
            return False, f"induced cocycle moved off z over {G.name}"
        details.append(f"{G.name}: w={w(witness)} at {witness.support}")
    zw = winding_cocycle(circle2, cyclic_group(2), "g1")
    u, witness = cn.construct_nonflat(zw)
    if witness is None or cn.induced_cocycle(u) != zw:
        return False, "nonflat construction failed on the winding bundle"
    return True, "; ".join(details) + "; winding bundle also twisted"


def criterion_6(rng):
    """Exactly one cocycle agrees with a connection on inflating edges."""
    circle2 = generate("circle", 2)
    Z2 = cyclic_group(2)
    cocycles = enumerate_cocycles(circle2, Z2)
    inflating = [
        b for b in enumerate_simplices(circle2, 1) if is_inflating(circle2, b)
    ]
    for i in range(200):
        u = random_connection(circle2, Z2, rng)
        agreeing = [
            z for z in cocycles if all(z(b) == u(b) for b in inflating)
        ]
        if len(agreeing) != 1:
            return False, f"sample {i}: {len(agreeing)} cocycles agree"
        if agreeing[0] != cn.induced_cocycle(u):
            return False, f"sample {i}: induced cocycle is not the agreeing one"
    return True, f"200 samples, unique agreement among {len(cocycles)} cocycles"


def criterion_7(rng):
    """Central decomposition round-trips; star composition is abelian."""
    circle2 = generate("circle", 2)
    Z2 = cyclic_group(2)
    us = cn.enumerate_connections(circle2, Z2)
    center = set(Z2.center())
    cocycles = enumerate_cocycles(circle2, Z2)
    inflating = [
        b for b in enumerate_simplices(circle2, 1) if is_inflating(circle2, b)
    ]
    for u in us:
        if not cn.is_central(u):
            return False, "a Z2 connection failed centrality"
        z, chi = cn.central_decompose(u)
        w = cn.curvature(u)
        for b in enumerate_simplices(circle2, 1):
            if Z2.mul(z(b), chi(b)) != u(b) or chi(b) not in center:
                return False, "decomposition does not recompose"
            c_b = Simplex2(
                b.support,
                Simplex1(b.support, b.face0, Simplex0(b.support)),
                b,
                Simplex1(b.support, Simplex0(b.support), b.face1),
            )
            if w(c_b) != Z2.inv(chi(b)):
                return False, "curvature of the pinch simplex missed chi"
        agreeing = [
            z1 for z1 in cocycles if all(z1(b) == u(b) for b in inflating)
        ]
        if agreeing != [z]:
            return False, "decomposition is not unique"
    by_bundle = {}
    for u in us:
        by_bundle.setdefault(cn.induced_cocycle(u), []).append(u)
    for z, members in by_bundle.items():
        for u in members:
            if cn.star_compose(z, u) != u:
                return False, "z is not a star identity"
            if cn.star_compose(u, cn.star_inverse(u)) != z:
                return False, "star inverse failed"
        for u, u1 in itertools.product(members, repeat=2):
            left = cn.star_compose(u, u1)
            if left != cn.star_compose(u1, u) or left not in members:
                return False, "star composition not abelian or not closed"
    sizes = sorted({len(m) for m in by_bundle.values()})
    return True, (
        f"{len(us)} connections over {len(by_bundle)} bundles "
        f"(fibre sizes {sizes}), all abelian groups under star"
    )


def criterion_8(rng):
    """Bianchi identity on every 3-simplex of the sampled connections."""
    checked = 0
    for P, G, samples in (
        (generate("circle", 2), cyclic_group(2), 10),
        (generate("circle", 2), symmetric_group(3), 10),
        (generate("vee", 1), symmetric_group(3), 10),
    ):
        for _ in range(samples):
            u = random_connection(P, G, rng)
            w = cn.curvature(u)
            x = coboundary2(w)
            if any(g != G.identity for g in x.values.values()):
                return False, f"Bianchi failed on {P.name} x {G.name}"
            checked += 1
    return True, f"{checked} sampled connections, all 3-simplices balanced"


def criterion_9(rng):
    """Ambrose-Singer: reduction into the holonomy group."""
    circle2 = generate("circle", 2)
    S3 = symmetric_group(3)
    z = winding_cocycle(circle2, S3, "231")
    u1, f, H = cn.ambrose_singer_reduce(z, "a1")
    if sorted(H.elements) != ["123", "231", "312"]:
        return False, f"holonomy is {H.elements}, expected the 3-cycles"
    if not set(u1.values.values()) <= set(H.elements):
        return False, "reduced connection left the holonomy group"
    if not cn.is_connection(u1):
        return False, "reduced cochain is not a connection"
    if not is_morphism(f.as_dict(), f.source, f.target):
        return False, "reduction morphism is invalid"
    included = f.source
    if cn.holonomy(included, "a1") != tuple(sorted(H.elements)):
        return False, "reduced holonomy is not all of H"
    nonflat, _ = cn.construct_nonflat(trivial_cochain1(circle2, S3), g="213")
    if "213" not in cn.holonomy(nonflat, "a1"):
        return False, "nonflat holonomy missed its twisting element"
    u2, f2, H2 = cn.ambrose_singer_reduce(nonflat, "a1")
    if not set(u2.values.values()) <= set(H2.elements):
        return False, "nonflat reduction left its holonomy group"
    return True, f"flat fixture reduces into A3, nonflat into {H2.name}"


def criterion_10(rng):
    """Gauge group sizes and agreement with the raw map search."""
    chain3 = generate("chain", 3)
    circle2 = generate("circle", 2)
    S3, Z2, Z3 = symmetric_group(3), cyclic_group(2), cyclic_group(3)
    s = dict(zip(chain3.elements, ("123", "231", "213")))
    z = coboundary_from_assignment(chain3, S3, s)
    if len(gauge_group(z)) != len(S3):
        return False, "coboundary bundle gauge group is not all of G"
    zw = winding_cocycle(circle2, Z3, "g1")
    gg = gauge_group(zw)
    constant = all(
        len(set(t.as_dict().values())) == 1 for t in gg
    )
    if len(gg) != len(Z3) or not constant:
        return False, "abelian gauge group is not the constant copy of G"
    zfull = full_image_cocycle(two_loop_poset(), S3)
    if len(gauge_group(zfull)) != 1:
        return False, "full-holonomy bundle has nontrivial gauge group"
    compared = 0
    for P in (generate("chain", 2), generate("vee", 1), circle2):
        for G in (Z2, Z3):
            for z1 in enumerate_cocycles(P, G):
                if gauge_group(z1) != gauge_group_raw(z1):
                    return False, f"raw disagreement on {P.name} x {G.name}"
                compared += 1
    return True, (
        f"sizes 6/3/1 as predicted; raw scan agrees on {compared} bundles"
    )


def criterion_11(rng):
    """Curvature symmetry under orientation and triviality on the rigid
    part."""
    checked = 0
    for P, G in (
        (generate("circle", 2), cyclic_group(2)),
        (generate("circle", 2), symmetric_group(3)),
        (generate("vee", 1), cyclic_group(2)),
    ):
        for _ in range(10):
            u = random_connection(P, G, rng)
            w = cn.curvature(u)
            for c in enumerate_simplices(P, 2):
                if w(permute2(c, (1, 0, 2))) != G.inv(w(c)):
                    return False, f"orientation symmetry failed on {P.name}"
                if (is_degenerate(c) or is_inflating(P, c)) and (
                    w(c) != G.identity
                ):
                    return False, f"rigid 2-simplex carries curvature on {P.name}"
            checked += 1
    return True, f"{checked} sampled connections, symmetries exact"


def criterion_12(rng):
    """Cocycles cannot see certificate-homotopic path changes."""
    pairs = 0
    for P, G, start in (
        (generate("circle", 2), cyclic_group(2), "a1"),
        (generate("chain", 3), cyclic_group(2), "x1"),
    ):
        cocycles = enumerate_cocycles(P, G)
        _, words = pi1_presentation(P, start)
        seeds = [words.tree_path(a) for a in P.elements if len(words.tree_path(a)) <= 2]
        reached = set()
        frontier = list(seeds)
        for _ in range(3):  # a few BFS layers within the length bound
            nxt = []
            for p in frontier:
                for q in deformations(p, P):
                    if len(q) <= 6 and q.steps not in reached:
                        reached.add(q.steps)
                        nxt.append(q)
                        for p0 in seeds:
                            if p0.start == q.start and p0.end == q.end:
                                for z in cocycles:
                                    if extend_to_path(z, p0) != extend_to_path(z, q):
                                        if _certified(p0, q, P):
                                            return False, (
                                                f"cocycle split a homotopic "
                                                f"pair on {P.name}"
                                            )
            frontier = nxt
        for p in seeds:
            for q in deformations(p, P):
                pairs += 1
                for z in cocycles:
                    if extend_to_path(z, p) != extend_to_path(z, q):
                        return False, f"one-step deformation split on {P.name}"
    return True, f"{pairs} one-step pairs plus BFS layers, all invariant"


def _certified(p, q, P):
    from .paths import homotopic

    return homotopic(p, q, P, 6).status == "yes"


_CRITERIA = (
    (1, "second coboundary trivial", criterion_1),
    (2, "cocycle classes = hom classes", criterion_2),
    (3, "path independence = coboundary", criterion_3),
    (4, "totally ordered forces flat", criterion_4),
    (5, "nonflat connections exist", criterion_5),
    (6, "induced cocycle unique", criterion_6),
    (7, "central decomposition + star group", criterion_7),
    (8, "Bianchi identity", criterion_8),
    (9, "Ambrose-Singer reduction", criterion_9),
    (10, "gauge group sizes", criterion_10),
    (11, "curvature symmetries", criterion_11),
    (12, "homotopy invariance of cocycles", criterion_12),
)


CRITERIA_COUNT = len(_CRITERIA)


def run_criterion(number: int, seed=DEFAULT_SEED) -> CriterionResult:
    for num, name, fn in _CRITERIA:
        if num == number:
            passed, detail = fn(random.Random(seed + number))
            return CriterionResult(num, name, passed, detail)
    raise ValueError(f"no acceptance criterion {number}")


def run_all(seed=DEFAULT_SEED):
    return tuple(run_criterion(num, seed) for num, _, _ in _CRITERIA)
