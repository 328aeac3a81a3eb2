"""Mutated input files: `lh` either succeeds or fails with an `error:` line.

Valid hop files, code files and stores are mutated by inserting,
deleting or replacing characters, and every command that reads that
kind of file runs on the mutant.  Each run must return 0 with an empty
stderr, or 1 with no stdout and stderr starting with `error:`; no
exception may escape `cli.main`.
"""

import contextlib
import io
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from longhop import cli
from longhop.constructions import lh_hd
from longhop.ecc import format_code, hops_to_code
from longhop.graph import GeneratorSet, format_hops
from longhop.soldb import REFERENCE_EXAMPLES, SolutionDB, dumps, make_record

ALPHABET = "0123456789abcdefABCDEF-#=/ \r\n"
# Mutants whose headers ask for more than this are skipped, so that every
# example runs in milliseconds.
MAX_FUZZ_D = 12
NEGATIVE_D_RECORD = "record d=-3 m=4 b=2 diam=2 avg=10/8 prov=x\n1\n2\n4\n7\n"
NON_SPANNING_RECORD = "record d=3 m=3 b=1 diam=3 avg=12/8 prov=x\n1\n2\n3\n"


def edited_record(gens, old, new):
    """The store of one measured record, its header edited."""
    db = SolutionDB()
    db.add(make_record(gens, "x"))
    text = dumps(db)
    assert old in text
    return text.replace(old, new, 1)


MESH3 = lh_hd(3, 7)
REF8 = REFERENCE_EXAMPLES[1][1]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@st.composite
def spanning_sets(draw, min_d=1):
    """The d unit hops plus up to 4 more, in any order; d <= 8."""
    d = draw(st.integers(min_d, 8))
    units = [1 << i for i in range(d)]
    extra = draw(st.lists(
        st.integers(1, (1 << d) - 1).filter(lambda h: h not in units),
        max_size=4, unique=True,
    ))
    return GeneratorSet(d, tuple(draw(st.permutations(units + extra))))


@st.composite
def stores(draw):
    db = SolutionDB()
    for gens in draw(st.lists(spanning_sets(min_d=3), min_size=1, max_size=3)):
        if db.query(gens.d, gens.m) is None:
            db.add(make_record(gens, draw(st.sampled_from(["fuzz", "a # b", ""]))))
    return dumps(db)


@st.composite
def mutants(draw, texts):
    chars = list(draw(texts))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        if op == "insert":
            chars.insert(draw(st.integers(0, len(chars))), draw(st.sampled_from(ALPHABET)))
        elif chars:
            i = draw(st.integers(0, len(chars) - 1))
            if op == "delete":
                del chars[i]
            else:
                chars[i] = draw(st.sampled_from(ALPHABET))
    text = "".join(chars)
    assume(all(int(d) <= MAX_FUZZ_D for d in re.findall(r"d=(\d+)", text)))
    return text


def assert_clean_exit(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(arg) for arg in argv])
    if code == 0:
        assert err.getvalue() == "", argv
    else:
        assert (code, out.getvalue()) == (1, ""), argv
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())


@settings(deadline=None)
@given(mutants(spanning_sets().map(format_hops)))
@example("d=-3 q=2\n1\n2\n4\n")
def test_mutated_hop_files(workdir, text):
    path = workdir / "set.hops"
    path.write_text(text)
    assert_clean_exit("bisect", path)
    assert_clean_exit("metrics", path)
    assert_clean_exit("translate", "--to-code", path)


@settings(deadline=None)
@given(mutants(spanning_sets().map(lambda gens: format_code(hops_to_code(gens)))))
def test_mutated_code_files(workdir, text):
    path = workdir / "set.code"
    path.write_text(text)
    assert_clean_exit("translate", "--to-hops", path)


@settings(deadline=None)
@given(mutants(stores()))
@example(NEGATIVE_D_RECORD)
@example(NON_SPANNING_RECORD)
# Metrics that no hop set can have, on the (3,7) and (8,18) records.
@example(edited_record(MESH3, " b=4 ", " b=0 "))
@example(edited_record(MESH3, " b=4 ", " b=-4 "))
@example(edited_record(MESH3, " diam=1 ", " diam=-1 "))
@example(edited_record(MESH3, " avg=7/8 ", " avg=-5/8 "))
@example(edited_record(REF8, " b=6 ", " b=60 "))
def test_mutated_stores(workdir, text):
    path = workdir / "lh.db"
    path.write_text(text)
    assert_clean_exit("db", "list", "--db", path)
    assert_clean_exit("db", "verify", "--db", path)
    assert_clean_exit("design", "-P", "64", "-R", "16", "--db", path)
    assert_clean_exit("compare", "--family", "lh", "-R", "16", "--db", path)
    assert_clean_exit(
        "compare", "--family", "lh_vs_hypercube", "-R", "16", "--sizes", "3..4",
        "--db", path,
    )
