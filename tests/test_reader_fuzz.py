"""The five text readers on mutated fixture texts.

Each draw takes a fixture file (a poset, group, cochain, gauge
assignment or path) and mutates it: lines or whitespace tokens dropped,
duplicated or swapped, non-ASCII characters inserted, or bytes that are
not UTF-8 written into the file.  The reader of that format may accept
the text or refuse it, but only with a `PosetBundleError`.  The same
file then goes through `cli.run`, which must return without raising:
exit 2 with an `error:` line when the reader refuses the text (or the
bytes do not decode), any exit code otherwise.

Each reader also breaks lines only at \\n, \\r\\n and \\r and fields
only at spaces and tabs: a comment may hold any other break or space,
and a name that holds one is refused on its own line.
"""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings, strategies as st

from posetbundle import cli
from posetbundle.cochains import parse_assignment_text, parse_cochain_text
from posetbundle.errors import PosetBundleError
from posetbundle.groups import parse_group_text
from posetbundle.paths import parse_path_text
from posetbundle.poset import parse_poset_text

from inputs import write_fixtures

# The file mutated, the poset and group it is read against, and the
# command that reads it, with "{}" for the mutated file.
SOURCES = (
    ("circle2.poset", None, None, "validate {}"),
    ("twoloop.poset", None, None, "validate {}"),
    ("s3.group", None, None, "group-validate {}"),
    ("z3.group", None, None, "group-validate {}"),
    ("winding-z3.cochain", "circle2.poset", "z3.group",
     "check-cocycle circle2.poset z3.group {}"),
    ("fullimage-s3.cochain", "twoloop.poset", "s3.group",
     "check-cocycle twoloop.poset s3.group {}"),
    ("g1.assign", "circle2.poset", "z3.group",
     "gauge-act circle2.poset z3.group winding-z3.cochain --transform {}"),
    ("circle2-yes-p.path", "circle2.poset", None,
     "homotopic circle2.poset {} {} --bound 1"),
    ("twoloop-no-q.path", "twoloop.poset", None,
     "homotopic twoloop.poset {} {} --bound 1"),
)

READERS = {
    "poset": lambda text, P, G: parse_poset_text(text),
    "group": lambda text, P, G: parse_group_text(text),
    "cochain": parse_cochain_text,
    "assign": parse_assignment_text,
    "path": lambda text, P, G: parse_path_text(text, P),
}

NON_ASCII = st.sampled_from("\xe9\xa0\x85\u2028\xad\u200b\ufeff\u03a3\U0001d53e")


@st.composite
def mutated(draw, text):
    """`text` after one to four mutations, encoded as UTF-8; one draw in
    four then gets a byte inserted that is not UTF-8."""
    lines = text.split("\n")
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("drop", "repeat", "swap", "char")))
        level = draw(st.sampled_from(("line", "token")))
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if kind == "char" or not lines:
            line = lines[i] if lines else ""
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(NON_ASCII) + line[at:]
            lines[i:i + 1] = [line]
            continue
        items = lines if level == "line" else lines[i].split(" ")
        k = draw(st.integers(0, len(items) - 1))
        j = draw(st.integers(0, len(items) - 1))
        if kind == "drop":
            del items[k]
        elif kind == "repeat":
            items.insert(j, items[k])
        else:
            items[k], items[j] = items[j], items[k]
        if level == "token":
            lines[i] = " ".join(items)
    data = "\n".join(lines).encode()
    if draw(st.booleans()) and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + bytes([draw(st.integers(0x80, 0xff))]) + data[at:]
    return data


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    write_fixtures(directory)
    return directory


def _refused(read, data):
    """Whether the reader refuses `data` (which must decode as UTF-8 to
    reach it); anything but a `PosetBundleError` propagates."""
    try:
        read(data.decode())
    except (UnicodeDecodeError, PosetBundleError):
        return True
    return False


def _reader(fixtures, source):
    """The reader of the file of `source`, as a function of the text,
    with the poset and group it is read against."""
    name, poset_file, group_file, _ = source
    P = poset_file and parse_poset_text((fixtures / poset_file).read_text())
    G = group_file and parse_group_text((fixtures / group_file).read_text())
    read = READERS[name.rsplit(".")[-1]]
    return lambda text: read(text, P, G)


@settings(max_examples=400, deadline=None)
@given(source=st.sampled_from(SOURCES), data=st.data())
def test_readers_raise_only_library_errors(fixtures, source, data):
    name, _, _, command = source
    text = (fixtures / name).read_text()
    blob = data.draw(mutated(text))
    refused = _refused(_reader(fixtures, source), blob)

    target = fixtures / ("mutated-" + name)
    target.write_bytes(blob)
    argv = [str(target) if token == "{}" else
            str(fixtures / token) if "." in token else token
            for token in command.split()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if refused:
        assert code == 2
        assert err.getvalue().startswith("error: ")
    else:
        assert code in (0, 1, 2)


# The characters `str.splitlines` breaks lines at besides \n and \r, and
# two that `str.split` splits at: none of them separates anything.
NOT_SEPARATORS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029\xa0\u3000"
ONE_OF_EACH = [s for s in SOURCES if s[0] in (
    "circle2.poset", "z3.group", "winding-z3.cochain", "g1.assign",
    "circle2-yes-p.path")]
NEWLINES = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}


def _lines(fixtures, source):
    """The lines of the fixture file, a comment first for a path file,
    so that line 2 holds names in every format."""
    lines = (fixtures / source[0]).read_text().splitlines()
    return ["# a path"] + lines if source[0].endswith(".path") else lines


@pytest.mark.parametrize("newline", NEWLINES.values(), ids=NEWLINES)
@pytest.mark.parametrize("source", ONE_OF_EACH, ids=lambda s: s[0])
def test_comments_hold_any_character(fixtures, source, newline):
    read = _reader(fixtures, source)
    lines = _lines(fixtures, source)
    expected = read("\n".join(lines) + "\n")
    for c in NOT_SEPARATORS:
        noted = [f"# before{c}it"] + [f"{line} # {c}x{c}" for line in lines]
        assert read(newline.join(noted) + newline) == expected


@pytest.mark.parametrize("newline", NEWLINES.values(), ids=NEWLINES)
@pytest.mark.parametrize("source", ONE_OF_EACH, ids=lambda s: s[0])
def test_a_name_holding_another_separator_is_refused_on_its_line(
        fixtures, source, newline):
    read = _reader(fixtures, source)
    lines = _lines(fixtures, source)
    n = len(lines)
    for c in NOT_SEPARATORS:
        # At the start of line 2, after its first digit (which ends or is
        # inside a name), at its end, and at the start of the last line.
        for k, line in ((2, c + lines[1]),
                        (2, re.sub(r"\d", rf"\g<0>{c}", lines[1], count=1)),
                        (2, lines[1] + c), (n, c + lines[-1])):
            bad = lines[:k - 1] + [line] + lines[k:]
            with pytest.raises(PosetBundleError) as caught:
                read(newline.join(bad) + newline)
            assert str(caught.value).endswith(f" (line {k})"), (k, line)
