"""The acceptance suite: twelve exact, brute-force-verifiable criteria
covering coboundaries, cocycle classification, connections, curvature,
holonomy and gauge groups on small fixture posets, and the fixture files
that the `suite` command writes and checks before it runs them."""

from __future__ import annotations

import itertools
import random

from . import connections as cn
from .cochains import (
    Cochain1,
    _act,
    _hom_loops,
    coboundary,
    coboundary_from_assignment,
    classify_cocycles,
    cocycle_from_hom,
    enumerate_cocycles,
    format_cochain_text,
    is_cocycle,
    is_morphism,
    is_path_independent,
    parse_cochain_text,
    random_cochain0,
    random_cochain1,
    trivial_cochain1,
)
from .errors import PosetBundleError
from .frozen import Frozen
from .gauge import gauge_group, gauge_group_raw
from .groups import (cyclic_group, format_group_text, parse_group_text,
                     symmetric_group)
from .paths import (
    _neighbours,
    count_hom_classes,
    enumerate_homs,
    pi1_presentation,
)
from .poset import (base_point, build_poset, format_poset_text, generate,
                    parse_poset_text)
from .simplicial import complex_of

DEFAULT_SEED = 20260824


class CriterionResult(Frozen):
    number: int
    name: str
    passed: bool
    detail: str

    def line(self):
        verdict = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{verdict}] {self.name}: {self.detail}"


# The fixture posets and groups, built once so that the criteria share
# their tables.
_POSETS = {
    "chain2": generate("chain", 2),
    "chain3": generate("chain", 3),
    "vee": generate("vee", 1),
    "circle2": generate("circle", 2),
    "twoloop": build_poset(
        ["m1", "m2", "M1", "M2", "M3"],
        [(m, M) for m in ("m1", "m2") for M in ("M1", "M2", "M3")],
        name="twoloop",
    ),
}
_GROUPS = {"z2": cyclic_group(2), "z3": cyclic_group(3),
           "s3": symmetric_group(3)}


def two_loop_poset() -> Poset:
    """Two minimal under three maximal elements; its realization is a
    wedge of two circles, giving a free fundamental group of rank 2."""
    return _POSETS["twoloop"]


def standard_groups():
    return dict(_GROUPS)


def standard_posets():
    return dict(_POSETS)


def _all_cochain1(P: Poset, G: FiniteGroup):
    n = len(complex_of(P)[1].faces)
    for ids in itertools.product(range(len(G)), repeat=n):
        yield Cochain1._of(P, G, ids)


def winding_cocycle(P: Poset, G: FiniteGroup, g) -> Cochain1:
    """The first enumerated cocycle whose holonomy subgroup contains g."""
    pres, _ = pi1_presentation(P, base_point(P))
    for sigma in enumerate_homs(pres, G):
        if g in G.subgroup_generated(sigma):
            return cocycle_from_hom(P, G, sigma)
    raise ValueError(f"no cocycle on {P.name} winds through {g!r}")


def full_image_cocycle(P: Poset, G: FiniteGroup) -> Cochain1:
    """A cocycle whose holonomy is all of G (needs enough loops in P)."""
    pres, _ = pi1_presentation(P, base_point(P))
    for sigma in enumerate_homs(pres, G):
        if len(G.subgroup_generated(sigma)) == len(G):
            return cocycle_from_hom(P, G, sigma)
    raise ValueError(f"no surjective homomorphism onto {G.name} from {P.name}")


# The cochain fixtures of `suite`: file stem -> (poset stem, group stem,
# function making the cochain from the standard poset and group).
COCHAIN_FIXTURES = {
    "winding-z3": ("circle2", "z3", lambda P, G: winding_cocycle(P, G, "g1")),
    "fullimage-s3": ("twoloop", "s3", full_image_cocycle),
}


def write_fixtures(directory):
    """Write the standard posets and groups and the cochain fixtures into
    `directory`, keeping each file that is already there; the names of
    the files written."""
    posets, groups = standard_posets(), standard_groups()
    texts = {
        **{f"{n}.poset": format_poset_text(P) for n, P in posets.items()},
        **{f"{n}.group": format_group_text(G) for n, G in groups.items()},
        **{f"{n}.cochain": format_cochain_text(make(posets[p], groups[g]), n)
           for n, (p, g, make) in COCHAIN_FIXTURES.items()},
    }
    directory.mkdir(parents=True, exist_ok=True)
    written = [name for name in texts if not (directory / name).exists()]
    for name in written:
        (directory / name).write_text(texts[name])
    return written


def fixture_problems(directory):
    """What is wrong with the fixture files, one line per file."""
    problems, posets, groups = [], {}, {}
    for suffix, parse, parsed in (("poset", parse_poset_text, posets),
                                  ("group", parse_group_text, groups)):
        for path in sorted(directory.glob(f"*.{suffix}")):
            try:
                parsed[path.stem] = parse(path.read_text())
            except PosetBundleError as exc:
                problems.append(f"{exc} in {path.name}")
    for path in sorted(directory.glob("*.cochain")):
        p, g, _ = COCHAIN_FIXTURES.get(path.stem, (None, None, None))
        if p not in posets or g not in groups:
            continue
        try:
            z = parse_cochain_text(path.read_text(), posets[p], groups[g])
            if not is_cocycle(z):
                problems.append(f"not a cocycle in {path.name}")
        except PosetBundleError as exc:
            problems.append(f"{exc} in {path.name}")
    return problems


def _random_bundle(P: Poset, G: FiniteGroup, rng):
    """The ids of a random bundle: the cocycle of a uniformly random
    homomorphism of the fundamental group and a uniformly random point
    assignment, the identity at the base point.  One draw picks a row of
    the kept `_hom_loops` table, then one draw per element (the base
    point's too) the id of its value."""
    loops = _hom_loops(P, G)
    h = rng.randrange(len(loops))
    f = [rng.randrange(len(G)) for _ in P.elements]
    f[0] = G.unit  # the base point
    return _act(G, complex_of(P)[1].faces, loops[h], f)


def random_cocycle(P: Poset, G: FiniteGroup, rng) -> Cochain1:
    """A random bundle, drawn by `_random_bundle`."""
    return Cochain1._of(P, G, _random_bundle(P, G, rng))


def random_connection(P: Poset, G: FiniteGroup, rng) -> Cochain1:
    """A uniformly random twist of a `_random_bundle`, which is not
    checked again: one draw per 1-simplex of a free reversal class, in
    id order, the id of its twist value, applied by `cn._twist`."""
    x = _random_bundle(P, G, rng)
    free = complex_of(P)[1].free_classes
    twist = [G.unit] * len(x)
    for i in sorted(i for pair in free for i in pair):
        twist[i] = rng.randrange(len(G))
    return Cochain1._of(P, G, cn._twist(G, free, x, twist))


# -- criteria --------------------------------------------------------------


def _agreeing(P: Poset, cocycles):
    """The function taking a connection u on P to the list of `cocycles`
    that agree with u on the inflating 1-simplices, in their order.  The
    cocycles are indexed once by their values on the inflating ids, so
    each call is one lookup."""
    inflating = complex_of(P)[1].inflating

    def key(v):
        return tuple(itertools.compress(v.ids, inflating))

    index = {}
    for z in cocycles:
        index.setdefault(key(z), []).append(z)
    return lambda u: index.get(key(u), [])


def _path_values(cochains):
    """The function taking a tuple r of 1-simplex ids to the tuple of
    `_path_value(z, r)` for z in `cochains`.  The values after step i
    depend only on those before it and on i, so a table, kept as long as
    the function, maps (i, state) to the next state: the index of an
    interned tuple of values."""
    family = [(z.group.rows, z.ids) for z in cochains]
    states = [tuple(z.group.unit for z in cochains)]
    index, step = {states[0]: 0}, {}

    def values(r):
        s = 0
        for i in r:
            t = step.get((i, s))
            if t is None:
                v = tuple(rows[x[i]][g]
                          for (rows, x), g in zip(family, states[s]))
                t = step[i, s] = index.setdefault(v, len(states))
                if t == len(states):
                    states.append(v)
            s = t
        return states[s]
    return values


def criterion_1(rng):
    """Second coboundary trivial (d after d lands in unit arrows)."""
    chain2, circle2 = _POSETS["chain2"], _POSETS["circle2"]
    Z2, S3 = _GROUPS["z2"], _GROUPS["s3"]
    checked = 0
    for u in _all_cochain1(chain2, Z2):
        if not is_cocycle(coboundary(u)):
            return False, f"exhaustive failure at cochain #{checked}"
        checked += 1
    randoms = 0
    for _ in range(500):
        u = random_cochain1(circle2, S3, rng)
        if not is_cocycle(coboundary(u)):
            return False, "random 1-cochain broke d after d"
        v = random_cochain0(circle2, S3, rng)
        w = coboundary(coboundary(v))
        if w.ids.count(S3.unit) != len(w.ids):
            return False, "random 0-cochain broke d after d"
        randoms += 1
    return True, f"{checked} exhaustive + {randoms} random cochains, all trivial"


def criterion_2(rng):
    """Cocycle classes match fundamental-group homomorphism classes."""
    circle2 = _POSETS["circle2"]
    expected = {"z2": 2, "z3": 3, "s3": 3}
    details = []
    for key, G in _GROUPS.items():
        reps = classify_cocycles(circle2, G)
        pres, _ = pi1_presentation(circle2, base_point(circle2))
        homs = count_hom_classes(pres, G)
        if not (len(reps) == homs == expected[key]):
            return False, (
                f"circle2 x {G.name}: {len(reps)} classes, "
                f"{homs} hom classes, expected {expected[key]}"
            )
        details.append(f"{G.name}:{len(reps)}")
    for n in (2, 3):
        chain = _POSETS[f"chain{n}"]
        for G in _GROUPS.values():
            if len(classify_cocycles(chain, G)) != 1:
                return False, f"chain{n} x {G.name} is not a single class"
    return True, "circle2 " + " ".join(details) + "; chains collapse to 1"


def criterion_3(rng):
    """Path independence is exactly the coboundary property.

    Every 1-cochain is scanned.  The brute-force side builds the
    coboundary of every section once per poset and asks whether the
    cochain is one of them.
    """
    Z2 = _GROUPS["z2"]
    total = 0
    for P in (_POSETS["chain2"], _POSETS["vee"]):
        coboundaries = {
            coboundary_from_assignment(P, Z2, dict(zip(P.elements, choice)))
            for choice in itertools.product(Z2.elements, repeat=len(P))
        }
        for u in _all_cochain1(P, Z2):
            witness = is_path_independent(u)
            brute = u in coboundaries
            if bool(witness) != brute:
                return False, f"mismatch on {P.name} after {total} cochains"
            if witness is not None and coboundary(witness) != u:
                return False, f"bad witness on {P.name}"
            total += 1
    return True, f"{total} cochains agree with the brute-force scan"


def criterion_4(rng):
    """On a totally ordered poset every connection is its own bundle."""
    chain3 = _POSETS["chain3"]
    Z2 = _GROUPS["z2"]
    us = cn.enumerate_connections(chain3, Z2)
    for u in us:
        if not cn.is_flat(u) or u != cn.induced_cocycle(u):
            return False, "found a nonflat or twisted connection on chain3"
    return True, f"{len(us)} connections on chain3 x Z2, all flat and untwisted"


def criterion_5(rng):
    """Nonflat connections exist and stay on their bundle."""
    circle2 = _POSETS["circle2"]
    details = []
    for G in (_GROUPS["z2"], _GROUPS["s3"]):
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
    zw = winding_cocycle(circle2, _GROUPS["z2"], "g1")
    u, witness = cn.construct_nonflat(zw)
    if witness is None or cn.induced_cocycle(u) != zw:
        return False, "nonflat construction failed on the winding bundle"
    return True, "; ".join(details) + "; winding bundle also twisted"


def criterion_6(rng):
    """Exactly one cocycle agrees with a connection on inflating edges.

    The agreeing cocycles of each sampled connection are looked up in an
    index of all the cocycles by their inflating values (`_agreeing`),
    which lists them as a scan of `enumerate_cocycles` would."""
    circle2 = _POSETS["circle2"]
    Z2 = _GROUPS["z2"]
    cocycles = enumerate_cocycles(circle2, Z2)
    agreeing_with = _agreeing(circle2, cocycles)
    for i in range(200):
        u = random_connection(circle2, Z2, rng)
        agreeing = agreeing_with(u)
        if len(agreeing) != 1:
            return False, f"sample {i}: {len(agreeing)} cocycles agree"
        if agreeing[0] != cn.induced_cocycle(u):
            return False, f"sample {i}: induced cocycle is not the agreeing one"
    return True, f"200 samples, unique agreement among {len(cocycles)} cocycles"


def criterion_7(rng):
    """Central decomposition round-trips; star composition is abelian."""
    circle2 = _POSETS["circle2"]
    Z2 = _GROUPS["z2"]
    us = cn.enumerate_connections(circle2, Z2)
    rows, inv = Z2.rows, Z2.inverses
    center = {Z2.index[g] for g in Z2.center()}
    agreeing_with = _agreeing(circle2, enumerate_cocycles(circle2, Z2))
    edges, at = complex_of(circle2)[1], complex_of(circle2)[2].at
    pinch = [at[x, edges.reverse[e], i, s] for i, (x, (e, s))
             in enumerate(zip(edges.support, edges.legs))]
    for u in us:
        if not cn.is_central(u):
            return False, "a Z2 connection failed centrality"
        z, chi = cn.central_decompose(u)
        w = cn.curvature(u).ids
        for i, (g, h, c) in enumerate(zip(u.ids, z.ids, chi.ids)):
            if rows[h][c] != g or c not in center:
                return False, "decomposition does not recompose"
            if w[pinch[i]] != inv[c]:
                return False, "curvature of the pinch simplex missed chi"
        if agreeing_with(u) != [z]:
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
        (_POSETS["circle2"], _GROUPS["z2"], 10),
        (_POSETS["circle2"], _GROUPS["s3"], 10),
        (_POSETS["vee"], _GROUPS["s3"], 10),
    ):
        for _ in range(samples):
            u = random_connection(P, G, rng)
            if not is_cocycle(cn.curvature(u)):
                return False, f"Bianchi failed on {P.name} x {G.name}"
            checked += 1
    return True, f"{checked} sampled connections, all 3-simplices balanced"


def criterion_9(rng):
    """Ambrose-Singer: reduction into the holonomy group."""
    circle2 = _POSETS["circle2"]
    S3 = _GROUPS["s3"]
    z = winding_cocycle(circle2, S3, "231")
    u1, f, H = cn.ambrose_singer_reduce(z, "a1")
    if sorted(H.elements) != ["123", "231", "312"]:
        return False, f"holonomy is {H.elements}, expected the 3-cycles"
    if not set(u1.values.values()) <= set(H.elements):
        return False, "reduced connection left the holonomy group"
    if not cn.is_connection(u1):
        return False, "reduced cochain is not a connection"
    if not is_morphism(f, f.source, f.target):
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
    chain3, circle2 = _POSETS["chain3"], _POSETS["circle2"]
    S3, Z2, Z3 = _GROUPS["s3"], _GROUPS["z2"], _GROUPS["z3"]
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
    zfull = full_image_cocycle(_POSETS["twoloop"], S3)
    if len(gauge_group(zfull)) != 1:
        return False, "full-holonomy bundle has nontrivial gauge group"
    compared = 0
    for P in (_POSETS["chain2"], _POSETS["vee"], circle2):
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
    part.

    Both are read from the curvature's ids: the value at the swapped
    2-simplex `permute2(c, (1, 0, 2))` is the value at the id that
    `Cells.permuted` gives for c.  The 2-simplices are checked in id
    order, the orientation test first."""
    checked = 0
    for P, G in (
        (_POSETS["circle2"], _GROUPS["z2"]),
        (_POSETS["circle2"], _GROUPS["s3"]),
        (_POSETS["vee"], _GROUPS["z2"]),
    ):
        cells = complex_of(P)[2]
        swap = cells.permuted((1, 0, 2))
        rigid = [a or b for a, b in zip(cells.degenerate, cells.inflating)]
        inv = G.inverses
        for _ in range(10):
            u = random_connection(P, G, rng)
            w = cn.curvature(u).ids
            for i, (j, fixed) in enumerate(zip(swap, rigid)):
                if w[j] != inv[w[i]]:
                    return False, f"orientation symmetry failed on {P.name}"
                if fixed and w[i] != G.unit:
                    return False, f"rigid 2-simplex carries curvature on {P.name}"
            checked += 1
    return True, f"{checked} sampled connections, symmetries exact"


def criterion_12(rng):
    """Cocycles cannot see elementary deformations of a path.

    The search runs on tuples of 1-simplex ids: the seeds are the
    spanning tree paths of length <= 2 (`Complex.tree`), the neighbours
    of a path the set `paths._neighbours` gives (each layer is a set, so
    their order does not matter), and the cocycles' values come from one
    `_path_values` table.  Every path the search reaches is a chain of
    elementary deformations away from the seed with its endpoints, so
    homotopic to it by construction: any split fails the criterion, and
    no `Path` is built."""
    pairs = 0
    for P, G, start in (
        (_POSETS["circle2"], _GROUPS["z2"], "a1"),
        (_POSETS["chain3"], _GROUPS["z2"], "x1"),
    ):
        values = _path_values(enumerate_cocycles(P, G))
        K = complex_of(P)
        faces, moves = K[1].faces, K[2].deformations
        frontier = [r for r in K.tree(start) if len(r) <= 2]
        # Keyed by (start, end) point ids: the seeds end at distinct
        # points, and deformations keep the endpoints, so every path the
        # search reaches shares them with exactly one seed.
        seeds = {(faces[r[0]][1], faces[r[-1]][0]): values(r)
                 for r in frontier}
        pairs += sum(len(_neighbours(r, moves, len(r) + 1))
                     for r in frontier)
        reached = set()
        for _ in range(3):  # paths of length <= 5
            nxt = []
            for r in frontier:
                for q in _neighbours(r, moves, len(r) + 1):
                    if q not in reached:
                        reached.add(q)
                        nxt.append(q)
                        if seeds[faces[q[0]][1], faces[q[-1]][0]] != values(q):
                            return False, (
                                f"cocycle split a homotopic "
                                f"pair on {P.name}"
                            )
            frontier = nxt
    return True, f"{pairs} one-step pairs plus BFS layers, all invariant"


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
    """The result of each criterion in order, lazily: each is run when
    it is asked for."""
    return (run_criterion(num, seed) for num, _, _ in _CRITERIA)
