"""`lt.cli.main` on arbitrary input: a verdict or an error, never a crash.

Every command must exit with 0-3; status 4 is kept for exceptions that
no check anticipated.  Formula text is drawn both as arbitrary text and
as sequences of the language's own tokens, so that much of it parses;
proof and homomorphism files are drawn both as arbitrary JSON and in
the shape of their format.  The text is drawn from ASCII and a few
other characters (Unicode digits, spaces, a combining mark, NUL), not
from all of Unicode, whose tables Hypothesis builds on first use, in
about 2.5 s.  The searches run to small sizes so that the suite stays
quick.  The draws are derandomised.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lt.cli import main
from lt.proofcheck import RuleName

_CHECKS = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                   suppress_health_check=[HealthCheck.too_slow,
                                          HealthCheck.function_scoped_fixture])

_TOKENS = ["P0", "P1", "P2", "P10", "p0", "p1", "p2", "F", "bot", "ibot", "top", "itop",
           "nb", "(", ")", "!", "i!", "~", "&", "i&", "|", "i|", "o*", "->", "|-", ",",
           ":", "box", "dia", "down", "up", "P", "p", "Q", "1", "#", " ", "  "]
_CHARS = "".join(map(chr, range(32, 127))) + "\t\n\r\x00\xa0\xe9\xb2\u0661\u0301\u2003\U0001d7d8"
_TEXT = st.one_of(
    st.text(_CHARS, max_size=40),
    st.lists(st.sampled_from(_TOKENS), max_size=24).map(" ".join),
    st.lists(st.sampled_from(_TOKENS), max_size=24).map("".join),
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(_CHARS, max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(_CHARS, max_size=8), inner, max_size=4),
    max_leaves=12,
)
_LABELLED = st.builds(lambda a, f: f"{a} : {f}", _TEXT, _TEXT) | _TEXT
_DERIVATIONS = st.recursive(
    st.fixed_dictionaries({"assume": _LABELLED | _JSON, "id": st.sampled_from(["u", "v", 3])}),
    lambda inner: st.fixed_dictionaries(
        {"rule": st.sampled_from([r.value for r in RuleName]) | _JSON,
         "conclusion": _LABELLED | _JSON},
        optional={"premises": st.lists(inner, max_size=3) | _JSON,
                  "discharges": st.lists(st.lists(st.sampled_from(["u", "v", 0]), max_size=2),
                                         max_size=3) | _JSON,
                  "fresh": st.lists(st.sampled_from(["p0", "p1", "p9", "P0", ""]), max_size=2)
                  | _JSON},
    ),
    max_leaves=6,
)
_ELEMENTS = st.lists(st.sampled_from(["", "0", "1", "00", "01", "10", "11", "2", "011"]),
                     max_size=4)
_HOMS = st.fixed_dictionaries(
    {"n": st.integers(-1, 3) | _JSON,
     "assignment": st.dictionaries(st.sampled_from(["P0", "P1", "P01", "Q0", "P", "P²"]),
                                   _ELEMENTS | _JSON, max_size=3) | _JSON},
)


def _status(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    return code


@_CHECKS
@given(_TEXT)
def test_formula_text(text):
    _status(["parse", text])
    _status(["expand", text])
    _status(["eval", "--n", "1", "--assign", "P0=[1]", "--assign", "P1=[]", text])
    _status(["entail", "--max-n", "1", text])
    _status(["lentail", "--max-n", "1", text])
    _status(["pt", "eval", "--k", "1", text])
    _status(["pt", "entail", "--k", "1", text])


@_CHECKS
@given(_DERIVATIONS | _JSON, st.lists(_LABELLED, max_size=2))
def test_check_proof_file(tmp_path, derivation, assumptions):
    proof, gamma = tmp_path / "proof.json", tmp_path / "gamma.txt"
    proof.write_text(json.dumps(derivation))
    gamma.write_text("\n".join(assumptions), encoding="utf-8")
    _status(["check-proof", str(proof)])
    _status(["check-proof", str(proof), "--assumptions", str(gamma)])


@_CHECKS
@given(_HOMS | _JSON)
def test_bridge_verify_f_file(tmp_path, hom):
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(hom))
    _status(["bridge", "verify-f", str(path), "--k", "1", "--depth", "1"])
