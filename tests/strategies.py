"""Hypothesis strategies that several test modules share."""

from hypothesis import strategies as st

from posetbundle.poset import build_poset

NAMES = "abcdef"

# Names for the tests of the name rule: any text, short plain names, and
# names with one of the characters the rule turns on.
TEXT_NAMES = st.one_of(
    st.text(),
    st.text("ab", min_size=1, max_size=2),
    st.builds("a{}b".format, st.sampled_from(" \t\n\u2028#();,=:")),
)


@st.composite
def small_posets(draw, max_size=4, max_height=None, min_size=1,
                 connected=False):
    """Random posets on `min_size` to `max_size` elements.

    Relations run from earlier to later positions of a random ordering
    of the names, so the closure is antisymmetric while sorted name
    order and the order relation stay unrelated.  With `max_height=2`
    only the first `split` positions lie below the rest, which keeps
    dimension 3 small, and the poset may be disconnected.

    Without a height bound, a `connected` draw relates each position
    after the first to an earlier one, so the first lies below
    everything.  Half the connected draws on 4 or more elements are
    instead two blocks, the even positions below the odd ones, joined
    by a random spanning tree of cross pairs plus random cross pairs:
    these have free reversal classes and, from the full 2 x 2 case (the
    circle) on, a nontrivial fundamental group.
    """
    n = draw(st.integers(min_size, max_size))
    names = draw(st.permutations(NAMES[:n])) if n else []
    tree = []
    if max_height == 2:
        split = draw(st.integers(0, n))
        pairs = [(i, j) for i in range(split) for j in range(split, n)]
    elif connected and n >= 4 and draw(st.booleans()):
        pairs = [(i, j) for i in range(0, n, 2) for j in range(1, n, 2)]
        for j in range(1, n):  # each position meets an earlier one across
            i = draw(st.sampled_from(range(1 - j % 2, j, 2)))
            tree.append((i, j) if j % 2 else (j, i))
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        if connected:
            tree = [(draw(st.integers(0, j - 1)), j) for j in range(1, n)]
    extra = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    chosen = set(tree) | extra
    return build_poset(names, [(names[i], names[j]) for i, j in chosen])
