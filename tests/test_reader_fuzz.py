"""The five text readers on mutated fixture texts.

Each draw takes a fixture file (a poset, group, cochain, gauge
assignment or path) and mutates it: lines or whitespace tokens dropped,
duplicated or swapped, non-ASCII characters inserted, or bytes that are
not UTF-8 written into the file.  The reader of that format may accept
the text or refuse it, but only with a `PosetBundleError`.  The same
file then goes through `cli.run`, which must return without raising:
exit 2 with an `error:` line when the reader refuses the text (or the
bytes do not decode), any exit code otherwise.
"""

import contextlib
import io

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


def _refused(read, data, P, G):
    """Whether the reader refuses `data` (which must decode as UTF-8 to
    reach it); anything but a `PosetBundleError` propagates."""
    try:
        read(data.decode(), P, G)
    except (UnicodeDecodeError, PosetBundleError):
        return True
    return False


@settings(max_examples=400, deadline=None)
@given(source=st.sampled_from(SOURCES), data=st.data())
def test_readers_raise_only_library_errors(fixtures, source, data):
    name, poset_file, group_file, command = source
    text = (fixtures / name).read_text()
    blob = data.draw(mutated(text))
    P = poset_file and parse_poset_text((fixtures / poset_file).read_text())
    G = group_file and parse_group_text((fixtures / group_file).read_text())
    refused = _refused(READERS[name.rsplit(".")[-1]], blob, P, G)

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
