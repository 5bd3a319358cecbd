"""The command line's error contract, fuzzed over every subcommand's flag
table: whatever one flag or one config document holds, ``lst`` exits 0, 1
or 2 (2 also by argparse's usage error), writes at most one JSON line on
stderr, with a documented ``error``, and never a traceback. A slow
optimizer verdict is a verdict too, so no draw is filtered out for time."""

import contextlib
import io
import json
import os
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lst.cli import FLAGS, MAX_DAYS, main

DATA = resources.files("lst") / "data"
FUND = str(DATA / "example_fund.csv")
CORR = str(DATA / "example_fund_corr.csv")
BUCKETS = str(DATA / "example_buckets.json")
GATES = str(DATA / "example_gates.csv")

#: The ``error`` values README documents for exit codes 1 and 2.
DOCUMENTED = {"validation", "missing-file", "file", "config", "infeasible-policy"}
OUTPUTS = {"--out", "--schedule-out", "--out-dir"}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory to run in: relative output names land here, and it holds
    an alpha file, a non-UTF-8 file and a subdirectory."""
    root = tmp_path_factory.mktemp("contract")
    (root / "alpha.csv").write_text("0.20\n0.30\n0\n0.15\n0\n0\n0\n")
    (root / "binary.csv").write_bytes(b"id,shares\n\xff\xfe\x00\x81\n")
    (root / "sub").mkdir()
    cwd = os.getcwd()
    os.chdir(root)
    yield root
    os.chdir(cwd)


def base_argv(command):
    """A valid command line of ``command`` that one more flag may change."""
    return {
        "rcr": ["rcr", f"--portfolio={FUND}"],
        "hqla": ["hqla", f"--buckets={BUCKETS}", "--weights=0.6,0.3,0.1"],
        "rst": ["rst", f"--portfolio={FUND}", "--alpha=alpha.csv"],
        "optimize": ["optimize", f"--portfolio={FUND}", f"--corr={CORR}"],
        "buffer": ["buffer"],
        "swing": ["swing", "--flow=-2", "--tc=30"],
        "gate": ["gate", f"--requests={GATES}"],
        "goldens": ["goldens"],
    }[command]


ROWS = [(command, flag) for command, (_, flags) in FLAGS.items() for flag in flags]
NUMBERS = ["0", "1", "0.2", "-1", "1e308", "-1e308", "1e-320", "nan", "inf", "-inf", "-0"]
JUNK = st.text(max_size=12)


def values(flag):
    """Text for ``flag``: valid for its kind, at its edges, or junk. A day or
    point count reaches its cap and passes it by at most one."""
    kind = flag.kind
    if kind in ("rate", "number"):
        extra = ["20bp", "1.5%", "0.2 %", "bp"] if kind == "rate" else []
        return st.sampled_from(NUMBERS + extra) | JUNK
    if kind in ("rates", "numbers"):
        return st.lists(st.sampled_from(NUMBERS), min_size=1, max_size=4).map(",".join) | JUNK
    if kind == "count":
        return (st.integers(-2, flag.cap + 1).map(str)
                | st.sampled_from(["1.5", "1e3", "", "0" * 9999 + "7"]) | JUNK)
    if kind == "days":
        day = st.integers(-3, MAX_DAYS + 1)
        return (day.map(str) | st.tuples(day, day).map(lambda p: f"{p[0]}..{p[1]}")
                | st.sampled_from(["1,3,5", "", ",", "1..2..3", "0" * 9999 + "7"])
                | JUNK)
    if kind == "path":
        if flag.name in OUTPUTS:
            return st.sampled_from(["out.csv", "sub", "", "a\0b", "binary.csv.out", "missing/x.csv",
                                    "\udcff.csv"])
        return st.sampled_from([FUND, CORR, BUCKETS, GATES, "alpha.csv", "binary.csv", "sub",
                                "missing.csv", "", "a\0b"])
    if kind == "choice":
        return st.sampled_from(list(flag.choices)) | JUNK
    raise AssertionError(kind)


@st.composite
def one_flag(draw):
    command, flag = draw(st.sampled_from(ROWS))
    if flag.kind == "switch":
        return [*base_argv(command), flag.name]
    return [*base_argv(command), f"{flag.name}={draw(values(flag))}"]


def assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            assert exc.code == 2, (argv, exc.code)
            assert f"lst {argv[0]}: error: " in err.getvalue()
            return
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if err:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert json.loads(err)["error"] in DOCUMENTED, (argv, err)
    if code == 2:
        assert err, argv


@settings(max_examples=150, deadline=None)
@given(argv=one_flag())
def test_any_one_flag_keeps_the_contract(argv, workdir):
    assert_contract(argv)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**600, 10**600)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=10) | st.sampled_from(["a\0b", "\ud800", "0.2", "20bp", "5", "1..3", ""]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


@st.composite
def config_document(draw):
    """A base command line and a config document: one or two keys of its
    table, in either spelling, or an unknown key, each with any JSON
    value; or a document that is not an object."""
    command = draw(st.sampled_from(list(FLAGS)))
    flags = FLAGS[command][1]
    doc = {}
    for _ in range(draw(st.integers(1, 2))):
        flag = draw(st.sampled_from(flags))
        key = flag.dest if draw(st.booleans()) else flag.name[2:]
        if flag.kind == "path":
            # a name in the working directory: any JSON but a separator or a dot
            value = draw(st.text(alphabet=st.characters(blacklist_characters="/.\\",
                                                         blacklist_categories=()), max_size=8)
                         | JSON.filter(lambda v: not isinstance(v, str)))
        else:
            value = draw(JSON)
        doc[draw(st.sampled_from([key, key, "shoc"]))] = value
    text = json.dumps(doc)
    text = draw(st.sampled_from([text, text, "[1]", "", "{", "1" * 5000, "[" * 100_000]))
    return base_argv(command), text


@settings(max_examples=150, deadline=None)
@given(case=config_document())
def test_any_config_document_keeps_the_contract(case, workdir):
    argv, text = case
    (workdir / "cfg.json").write_text(text)
    assert_contract([*argv, "--config=cfg.json"])
