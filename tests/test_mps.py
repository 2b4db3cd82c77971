"""MPS round trips, error diagnostics, and the solution exchange format.

golden/mps_digests.json holds the sha256 of `write_mps` for each LP of
`golden_lps()`; running this file as a script prints them.
"""

import hashlib
import json
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scen_helpers as sh
from conftest import CONFIGS
from sinkplan import load_config, mps
from sinkplan.formulation import assemble
from sinkplan.lp import GE, LE, LinearProgramBuilder
from sinkplan.mps import (
    CertificationError,
    MPSError,
    lp_equal,
    mangle_names,
    parse_mps,
    read_external_solution,
    write_mps,
    write_solution_text,
)
from sinkplan.simplex import solve

GOLDEN = Path(__file__).parent / "golden"


def trivial_lp():
    b = LinearProgramBuilder("trivial2")
    x = b.add_col("x", obj=1.5)
    y = b.add_col("y", obj=2.0, upper=4.0)
    b.add_row("cover", GE, 3.0, [(x, 1.0), (y, 1.0)])
    b.add_row("cap", LE, 8.0, [(x, 2.0), (y, 1.0)])
    return b.build()


def awkward_lp():
    b = LinearProgramBuilder("awkward")
    a = b.add_col("a_very_long_column_name_indeed", obj=0.1 + 0.2,
                  lower=-np.inf, upper=np.inf)
    c = b.add_col("c", obj=-1.2345678901234567e-11, upper=1 / 3)
    d = b.add_col("fixedvar", lower=2.5, upper=2.5)
    e = b.add_col("shifted", lower=-4.0)
    b.add_row("row/one%with[strange]chars!", "=", np.pi,
              [(a, 2 / 3), (c, 1e300)])
    b.add_row("r2", LE, -7.25, [(c, 1.0), (d, -3.0), (e, 0.125)])
    return b.build()


def random_lp(seed):
    """A small LP with every bound type and a mix of kept and mangled names."""
    rng = np.random.default_rng(seed)
    b = LinearProgramBuilder(f"h{seed}")
    n = int(rng.integers(1, 7))
    empty = []
    for j in range(n):
        lower = float(rng.choice([0.0, -1.5, -np.inf]))
        upper = float(rng.choice([np.inf, 4.25, lower + 1.0]))
        if upper == -np.inf:
            empty.append(j)
            upper = np.inf
        b.add_col(f"col_{j}_{'x' * int(rng.integers(0, 12))}",
                  obj=float(rng.normal()), lower=lower, upper=upper)
    for i in range(int(rng.integers(1, 6))):
        coeffs = [(j, float(np.round(rng.normal(), 6)))
                  for j in range(n) if rng.random() < 0.7]
        coeffs = [(j, v) for j, v in coeffs if v != 0.0]
        if not coeffs:
            coeffs = [(0, 1.0)]
        b.add_row(f"row{i}", str(rng.choice([LE, "=", GE])),
                  float(rng.normal()), coeffs)
    lp = b.build()
    # the builder refuses [-inf, -inf], which holds no value, but MPS writes
    # and reads it (MI, then UP -inf), so it is set on the built LP
    lp.upper[empty] = -np.inf
    return lp


def names_lp():
    """Names at the edges of the mangling rule: every kept length from 1 to
    8, the writer's own keywords, generated forms and non-ASCII or NUL
    characters, with a column that has no matrix entry."""
    b = LinearProgramBuilder("names")
    cols = ["x", "xy", "x.z", "x_1.", "Abcde", "abcdef", "abc.def", "ABCDEFGH",
            "OBJ", "RHS", "BND", "MARKER", "C0000013", "R0000001",
            "C0000002", "größe_der_anlage_im_jahr", "flöße", "nul\x00inside_a_name",
            "abcdefghi", "1abc", "unused"]
    n = len(cols)
    b.add_cols(cols, np.linspace(-2.0, 2.0, n), np.zeros(n), np.full(n, np.inf))
    rows = ["r", "ro", "r.w", "r_w_", "rowfi", "rowsix", "rowseve", "roweight",
            "OBJ", "RHS", "BND", "MARKER", "R0000013", "C0000001",
            "Ωmega_row_with_a_long_name", "zé", "row\x00nul"]
    for i, name in enumerate(rows):
        b.add_row(name, (LE, GE, "=")[i % 3], float(i) - 3.5,
                  [(i, 1.0 + i), ((i + 5) % (n - 1), -0.5)])
    return b.build()


def values_lp():
    """Values whose shortest repr is unusual, in every section."""
    b = LinearProgramBuilder("values")
    b.add_col("a", obj=-0.0, lower=-0.0, upper=1e300)
    b.add_col("b", obj=5e-324, lower=-1.2345678901234567e-300, upper=5e-324)
    b.add_col("c", obj=1e300, lower=-1e300, upper=-0.0)
    b.add_col("d", obj=-1.2345678901234567e-300, lower=5e-324, upper=5e-324)
    b.add_row("r1", LE, 5e-324, [(0, -0.0 - 1e300), (1, 5e-324), (2, 1e300)])
    b.add_row("r2", GE, -1.2345678901234567e-300,
              [(0, -1.2345678901234567e-300), (3, -5e-324)])
    b.add_row("r3", "=", 1e300, [(1, -1e300), (2, 0.1), (3, 7.0)])
    lp = b.build()
    # the builder drops zero coefficients; MPS writes a -0.0 entry as it is
    lp.values[-1] = -0.0
    return lp


def no_rows_lp():
    b = LinearProgramBuilder("norows")
    b.add_cols(["x", "long_column_name"], [1.0, -0.0], [0.0, -1.0], [np.inf, 2.0])
    return b.build()


def no_cols_lp():
    """One row and no columns, which the builder refuses but MPS writes."""
    b = LinearProgramBuilder("nocols")
    lp = b.build()
    return replace(lp, row_names=["alone", "a_long_row_name"], senses=[LE, GE],
                   rhs=np.array([1.0, -0.0]))


def golden_lps():
    lps = {"awkward": awkward_lp(), "names": names_lp(), "values": values_lp(),
           "no_rows": no_rows_lp(), "no_cols": no_cols_lp()}
    lps.update((f"random_{seed}", random_lp(seed)) for seed in range(20))
    return lps


def mps_digests():
    return {name: hashlib.sha256(write_mps(lp).encode()).hexdigest()
            for name, lp in golden_lps().items()}


class TestGolden:
    def test_writer_matches_frozen_bytes(self):
        assert write_mps(trivial_lp()) == (GOLDEN / "trivial.mps").read_text()

    def test_frozen_file_parses_back(self):
        lp = parse_mps((GOLDEN / "trivial.mps").read_text())
        assert lp_equal(lp, trivial_lp())

    def test_byte_stable_across_runs(self):
        lp = trivial_lp()
        assert write_mps(lp) == write_mps(lp)

    def test_signed_zeros_keep_their_sign(self):
        b = LinearProgramBuilder("z")
        b.add_col("x", obj=-0.0)
        b.add_col("y", obj=0.0)
        b.add_row("r", LE, 1.0, [(0, 1.0), (1, 1.0)])
        lines = write_mps(b.build()).splitlines()
        assert [ln.split() for ln in lines if " OBJ " in ln] == [
            ["x", "OBJ", "-0.0"], ["y", "OBJ", "0.0"]]

    def test_writer_matches_frozen_digests(self):
        frozen = json.loads((GOLDEN / "mps_digests.json").read_text())
        assert mps_digests() == frozen


class TestRoundTrip:
    def test_write_parse_write_fixpoint(self):
        lp = awkward_lp()
        text = write_mps(lp)
        lp2 = parse_mps(text)
        assert lp_equal(lp, lp2)
        assert write_mps(lp2) == text

    def test_free_format_file_parses(self):
        # external files may be free-format: single spaces between fields
        lp = awkward_lp()
        free = "\n".join(re.sub(r"(?<=\S) +", " ", ln)
                         for ln in write_mps(lp).splitlines())
        assert free != write_mps(lp)
        assert lp_equal(parse_mps(free), lp)

    def test_column_order_preserved(self):
        lp = awkward_lp()
        lp2 = parse_mps(write_mps(lp))
        assert lp2.col_names == lp.col_names
        assert lp2.row_names == lp.row_names

    def test_fr_bound_round_trip(self):
        text = write_mps(awkward_lp())
        assert "\n FR  BND" in text
        lp2 = parse_mps(text)
        assert lp2.lower[0] == -np.inf and lp2.upper[0] == np.inf

    @pytest.mark.parametrize("name, read", [
        ("my tiny", "my tiny"), ("a\tb  c", "a\tb  c"), ("", "lp")])
    def test_lp_name_with_spaces_round_trips(self, name, read):
        assert parse_mps(write_mps(replace(trivial_lp(), name=name))).name == read

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_random_lp_round_trip(self, seed):
        lp = random_lp(seed)
        assert lp_equal(parse_mps(write_mps(lp)), lp)


def two_row_lp():
    """Columns x and y over rows r1 (<=) and r2 (>=), with an upper bound."""
    b = LinearProgramBuilder("t")
    x = b.add_col("x", obj=1.5, upper=4.0)
    y = b.add_col("y")
    b.add_row("r1", LE, 3.0, [(x, 1.0), (y, 2.0)])
    b.add_row("r2", GE, 4.0, [(x, 3.0)])
    return b.build()


class TestParserLayout:
    """Layouts other writers produce, each read as two_row_lp()."""

    def test_two_pairs_on_columns_and_rhs_lines(self):
        text = ("NAME t\nROWS\n N  OBJ\n L  r1\n G  r2\nCOLUMNS\n"
                " x  OBJ  1.5  r1  1.0\n x  r2  3.0\n y  r1  2.0\n"
                "RHS\n RHS  r1  3.0  r2  4.0\nBOUNDS\n UP BND x 4.0\n"
                "ENDATA\n")
        assert lp_equal(parse_mps(text), two_row_lp())

    @pytest.mark.parametrize("zero", ["0", "-0.0"])
    def test_zero_entries_are_dropped(self, zero):
        text = ("NAME t\nROWS\n N  OBJ\n L  r1\n G  r2\nCOLUMNS\n"
                f" x  OBJ  1.5\n x  r1  1.0\n x  r2  3.0\n y  r1  2.0\n y  r2  {zero}\n"
                "RHS\n RHS  r1  3.0\n RHS  r2  4.0\nBOUNDS\n UP BND x 4.0\n"
                "ENDATA\n")
        assert lp_equal(parse_mps(text), two_row_lp())

    def test_column_entries_need_not_be_contiguous(self):
        text = ("NAME t\nROWS\n N  OBJ\n L  r1\n G  r2\nCOLUMNS\n"
                " x  r1  1.0\n y  r1  2.0\n x  r2  3.0\n x  OBJ  1.5\n"
                "RHS\n RHS  r1  3.0\n RHS  r2  4.0\nBOUNDS\n UP BND x 4.0\n"
                "ENDATA\n")
        lp = parse_mps(text)
        assert lp.col_names == ["x", "y"]
        assert lp_equal(lp, two_row_lp())

    def test_comments_and_blank_lines_inside_columns(self):
        text = ("NAME t\nROWS\n N  OBJ\n L  r1\n G  r2\nCOLUMNS\n"
                " x  OBJ  1.5\n* between two entries\n x  r1  1.0\n\n"
                " x  r2  3.0\n   \n\t\n y  r1  2.0\n*\n"
                "RHS\n RHS  r1  3.0\n RHS  r2  4.0\nBOUNDS\n UP BND x 4.0\n"
                "ENDATA\n")
        assert lp_equal(parse_mps(text), two_row_lp())

    @pytest.mark.parametrize("bounds, lower", [
        (" UP  BND       x         -1.0\n", -np.inf),
        (" LO  BND       x         -5.0\n UP  BND       x         -1.0\n", -5.0),
    ], ids=["lower-unset", "lower-set-before"])
    def test_negative_up_bound_frees_an_unset_lower_bound(self, bounds, lower):
        """The common MPS reading: a negative UP on a column whose lower
        bound no earlier line set makes that bound -inf, not [0, -1]."""
        text = (GOLDEN / "trivial.mps").read_text().replace(
            "ENDATA\n", bounds + "ENDATA\n")
        lp = parse_mps(text)
        assert (lp.lower[0], lp.upper[0]) == (lower, -1.0)
        solution = solve(lp)
        assert solution.status == "optimal"
        assert solution.objective == pytest.approx(6.5)  # x = -1, y = 4

    def test_lower_case_keywords(self):
        text = ("NAME t\nrows\n n  OBJ\n l  r1\n g  r2\ncolumns\n"
                " x  OBJ  1.5\n x  r1  1.0\n x  r2  3.0\n y  r1  2.0\n"
                "rhs\n RHS  r1  3.0\n RHS  r2  4.0\nbounds\n up bnd x 4.0\n"
                "endata\n")
        assert lp_equal(parse_mps(text), two_row_lp())

    @pytest.mark.parametrize("comment", [
        "*NAMEMAP x long_x", "*  NAMEMAP\tx\tlong x  ", "* NAMEMAP x",
        "* NAMEMAP x  ", "* namemap x y", "**NAMEMAP x y", "* NAMEMAPx x y",
        "* NAMEMAP\xa0r1\x1fz w", "* NAMEMAP r2 q\n* NAMEMAP r2 q2"])
    def test_namemap_comments_read_as_split(self, comment):
        """A NAMEMAP comment maps the second item of line[1:].split(None, 2)
        to the third, the later of two for one name winning."""
        names = {}
        for line in comment.split("\n"):
            toks = line[1:].split(None, 2)
            if len(toks) == 3 and toks[0] == "NAMEMAP":
                names[toks[1]] = toks[2]
        lp = parse_mps(comment + "\n" + write_mps(two_row_lp()))
        assert lp.col_names == [names.get(n, n) for n in ("x", "y")]
        assert lp.row_names == [names.get(n, n) for n in ("r1", "r2")]

    def test_namemap_maps_a_row_and_a_column_of_one_name(self):
        text = ("* NAMEMAP x long_x\n* NAMEMAP r long_r\nROWS\n N OBJ\n L r\n"
                " G x\nCOLUMNS\n x OBJ 1 r 2\n r x 1\n y r 1\nENDATA\n")
        lp = parse_mps(text)
        assert lp.row_names == ["long_r", "long_x"]
        assert lp.col_names == ["long_x", "long_r", "y"]


class TestMangling:
    def test_short_safe_names_kept(self):
        assert mangle_names(["abc", "x1"], "C") == ["abc", "x1"]

    def test_long_names_generated(self):
        out = mangle_names(["okay", "much_too_long_for_mps"], "C")
        assert out == ["okay", "C0000002"]

    def test_collision_detected(self):
        with pytest.raises(MPSError, match=re.escape(
                "'much_too_long_for_mps' and 'C0000002' both map to 'C0000002'")):
            mangle_names(["C0000002", "much_too_long_for_mps"], "C")

    def test_generated_form_kept_at_its_own_index(self):
        names = ["much_too_long_for_mps", "C0000002", "R0000001", "C0000009"]
        assert mangle_names(names, "C") == ["C0000001", "C0000002", "R0000001", "C0000009"]

    def test_repeated_kept_name_collides(self):
        with pytest.raises(MPSError, match="'ab' and 'ab' both map to 'ab'"):
            mangle_names(["ab", "much_too_long_for_mps", "ab"], "R")

    def test_generated_names_past_seven_digits(self, monkeypatch):
        # %07d writes all eight digits of 10,000,000; such a name overflows
        # the 8-character field of a COLUMNS line as any long token does.
        # Only the last two of the ten million numbers are made: all of them
        # would take ~300 MB.
        arange = np.arange
        monkeypatch.setattr(np, "arange", lambda start, stop: arange(stop - 2, stop))
        names = mps._generated("C", 10_000_000)
        monkeypatch.undo()
        assert mps._strings(names) == ["C9999999", "C10000000"]
        assert mps._strings(mps._fields(b" ", mps._spaced(names), b"  ")) == [
            " C9999999  ", " C10000000  "]

    def test_reserved_names_replaced(self):
        assert mangle_names(["OBJ"], "R") == ["R0000001"]


class TestParserErrors:
    def test_missing_objective_row(self):
        text = "NAME t\nROWS\n L  r1\nCOLUMNS\n x  r1  1.0\nRHS\nENDATA\n"
        with pytest.raises(MPSError, match=r"^no objective \(N\) row declared$"):
            parse_mps(text)

    def test_missing_endata(self):
        text = write_mps(trivial_lp()).replace("ENDATA\n", "")
        with pytest.raises(MPSError, match="ENDATA"):
            parse_mps(text)

    def test_duplicate_row_named_with_line(self):
        text = "NAME t\nROWS\n N  OBJ\n L  r1\n L  r1\n"
        with pytest.raises(MPSError, match=r"line 5.*r1"):
            parse_mps(text)

    def test_malformed_number_named_with_line(self):
        text = ("NAME t\nROWS\n N  OBJ\n L  r1\nCOLUMNS\n"
                " x  r1  abc\nENDATA\n")
        with pytest.raises(MPSError, match=r"line 6.*abc"):
            parse_mps(text)

    def test_unknown_row_reference(self):
        text = ("NAME t\nROWS\n N  OBJ\n L  r1\nCOLUMNS\n"
                " x  nosuch  1.0\nENDATA\n")
        with pytest.raises(MPSError, match="nosuch"):
            parse_mps(text)

    def test_ranges_entries_unsupported(self):
        text = ("NAME t\nROWS\n N  OBJ\n L  r1\nCOLUMNS\n x  r1  1.0\n"
                "RANGES\n RNG  r1  2.0\nENDATA\n")
        with pytest.raises(MPSError, match="RANGES"):
            parse_mps(text)

    def test_integer_bounds_unsupported(self):
        text = ("NAME t\nROWS\n N  OBJ\n L  r1\nCOLUMNS\n x  r1  1.0\n"
                "BOUNDS\n BV BND  x\nENDATA\n")
        with pytest.raises(MPSError, match="BV"):
            parse_mps(text)

    def test_second_objective_row_rejected(self):
        text = "NAME t\nROWS\n N  OBJ\n N  OBJ2\nENDATA\n"
        with pytest.raises(MPSError, match="OBJ2"):
            parse_mps(text)

    def test_duplicate_matrix_entry_rejected(self):
        text = ("NAME t\nROWS\n N  OBJ\n L  r1\nCOLUMNS\n"
                " x  r1  1.0\n x  r1  2.0\nENDATA\n")
        with pytest.raises(MPSError, match="duplicate"):
            parse_mps(text)

    def test_row_without_coefficients_rejected(self):
        text = ("NAME t\nROWS\n N  OBJ\n L  r1\n L  r2\nCOLUMNS\n"
                " x  r1  1.0\nRHS\nENDATA\n")
        with pytest.raises(MPSError, match="r2"):
            parse_mps(text)

    def test_unknown_bounds_column_named_with_line(self):
        text = ("NAME t\nROWS\n N  OBJ\n L  r1\nCOLUMNS\n x  r1  1.0\n"
                "BOUNDS\n UP BND  nosuch  4.0\nENDATA\n")
        with pytest.raises(MPSError, match=r"line 8: unknown column 'nosuch'"):
            parse_mps(text)

    HEAD = "NAME t\nROWS\n N  OBJ\n L  r1\n L  r2\nCOLUMNS\n"

    @pytest.mark.parametrize("body, expected", [
        (" x  nosuch  1.0\n x  r2  abc\nENDATA\n",
         "line 7: unknown row 'nosuch'"),
        (" x  r1  abc\n x  nosuch  1.0\nENDATA\n",
         "line 7: malformed numeric field 'abc'"),
        (" x  r1  1.0\n x  r1  2.0\n x  r2  abc\nENDATA\n",
         "line 8: duplicate entry for row 'r1', column 'x'"),
        (" x  r1  1.0  r2  2.0\n y  r1  3.0\n x  r2  4.0\n y  r2  zz\n",
         "line 9: duplicate entry for row 'r2', column 'x'"),
        (" x  r1  abc  nosuch  1.0\nENDATA\n",
         "line 7: malformed numeric field 'abc'"),
        (" x  r1  1.0  nosuch  1.0\n x  r2\nENDATA\n",
         "line 7: unknown row 'nosuch'"),
        (" x  r2  1.0\n x  r1  1.0\n x  r1  1.0\nRHS\n RHS  r9  1.0\n",
         "line 9: duplicate entry for row 'r1', column 'x'"),
        (" x  r1  1.0\n x  r2  1.0\nRHS\n RHS  r1  1.0\n RHS  r1  2.0\n"
         "BOUNDS\n UP BND  nosuch  4.0\nENDATA\n",
         "line 11: duplicate RHS for row 'r1'"),
        (" x  r1  1.0\n x  r2  1.0\nBOUNDS\n UP BND  x  abc\n"
         " XX BND  x\nENDATA\n",
         "line 10: malformed numeric field 'abc'"),
    ])
    def test_earliest_of_two_faults_is_reported(self, body, expected):
        with pytest.raises(MPSError, match=re.escape(expected)):
            parse_mps(self.HEAD + body)


class TestSmallPieces:
    """The writer formats and the parser reads in pieces of _CHUNK lines or
    32 * _CHUNK characters; tiny pieces must give the same bytes, the same
    LP and the same first error as one piece."""

    @pytest.mark.parametrize("chunk", [1, 2])
    def test_same_bytes_and_lp(self, monkeypatch, chunk):
        lps = {"trivial": trivial_lp(), **golden_lps()}
        texts = {name: write_mps(lp) for name, lp in lps.items()}
        monkeypatch.setattr(mps, "_CHUNK", chunk)
        for name, lp in lps.items():
            assert write_mps(lp) == texts[name]
            # a -0.0 entry reads as none, and a row without entries is refused
            if name not in ("values", "no_cols"):
                assert lp_equal(parse_mps(texts[name]), lp)

    def test_first_error_across_pieces(self, monkeypatch):
        monkeypatch.setattr(mps, "_CHUNK", 1)
        text = (TestParserErrors.HEAD + " x  r1  1.0\n x  r2  1.0\n"
                " y  r1  1.0\n x  r1  2.0\n y  r9  1.0\nENDATA\n")
        with pytest.raises(MPSError, match="line 10: duplicate entry for row "
                                           "'r1', column 'x'"):
            parse_mps(text)


def two_pairs_per_line(text):
    """The MPS text with each two consecutive COLUMNS entries of a column on
    one line, as other writers lay them out."""
    head, rest = text.split("COLUMNS\n")
    body, tail = rest.split("RHS\n")
    lines, out, k = [ln.split() for ln in body.splitlines()], [], 0
    while k < len(lines):
        if k + 1 < len(lines) and lines[k + 1][0] == lines[k][0]:
            out.append("  ".join([""] + lines[k] + lines[k + 1][1:]))
            k += 2
        else:
            out.append("  ".join([""] + lines[k]))
            k += 1
    return head + "COLUMNS\n" + "\n".join(out) + "\nRHS\n" + tail


@pytest.fixture
def line_path(monkeypatch):
    """The COLUMNS blocks np.loadtxt refused, read line by line instead."""
    refused = []
    column_lines = mps._Reader._column_lines

    def spy(reader, text, lineno):
        refused.append(lineno)
        return column_lines(reader, text, lineno)

    monkeypatch.setattr(mps._Reader, "_column_lines", spy)
    return refused


def parse_at(monkeypatch, text, chunk):
    monkeypatch.setattr(mps, "_CHUNK", chunk)
    return parse_mps(text)


CHUNKS = pytest.mark.parametrize("chunk", [mps._CHUNK, 1], ids=["chunk", "chunk1"])


class TestLoaderPath:
    """Blocks np.loadtxt reads and those it refuses, which are read line by
    line, give the same LP at any piece size."""

    LPS = [awkward_lp()] + [random_lp(seed) for seed in range(20)]

    @CHUNKS
    def test_two_pairs_per_line_are_read_line_by_line(self, monkeypatch, line_path,
                                                      chunk):
        for lp in self.LPS:
            text = two_pairs_per_line(write_mps(lp))
            assert text.count("\n") < write_mps(lp).count("\n")
            del line_path[:]
            assert lp_equal(parse_at(monkeypatch, text, chunk), lp)
            assert line_path

    @CHUNKS
    @pytest.mark.parametrize("body, line, loader", [
        (" X  OBJ  1.0  R1  1.0\n X  OBJ  5.0\n", 7, False),
        (" X  OBJ  1.0\n X  R1  1.0\n X  OBJ  5.0\n X  R1  2.0\n", 8, True),
    ], ids=["line-path", "loader"])
    def test_repeated_objective_entry_refused(self, monkeypatch, line_path,
                                              chunk, body, line, loader):
        """As a repeated matrix entry is, instead of the later value
        replacing the earlier one; it is named even where a matrix entry
        repeats on a later line."""
        text = f"NAME t\nROWS\n N  OBJ\n L  R1\nCOLUMNS\n{body}RHS\nENDATA\n"
        with pytest.raises(MPSError, match=re.escape(
                f"line {line}: duplicate entry for row 'OBJ', column 'X'")):
            parse_at(monkeypatch, text, chunk)
        assert bool(line_path) != loader

    @CHUNKS
    def test_three_and_five_tokens_in_one_block(self, monkeypatch, line_path, chunk):
        text = ("NAME t\nROWS\n N  OBJ\n L  r1\n G  r2\nCOLUMNS\n"
                " x  OBJ  1.5\n x  r1  1.0  r2  3.0\n y  r1  2.0\n"
                "RHS\n RHS  r1  3.0  r2  4.0\nBOUNDS\n UP BND x 4.0\nENDATA\n")
        assert lp_equal(parse_at(monkeypatch, text, chunk), two_row_lp())
        assert line_path

    @CHUNKS
    @pytest.mark.parametrize("sep", ["\t", "\x0b", "\xa0"], ids=["tab", "vt", "nbsp"])
    def test_other_whitespace_separates_fields(self, monkeypatch, line_path, chunk, sep):
        for lp in self.LPS:
            text = re.sub(" +", sep, write_mps(lp))
            assert lp_equal(parse_at(monkeypatch, text, chunk), lp)
        assert not line_path

    @CHUNKS
    def test_crlf_line_endings(self, monkeypatch, line_path, chunk):
        for lp in self.LPS:
            text = write_mps(lp).replace("\n", "\r\n")
            assert lp_equal(parse_at(monkeypatch, text, chunk), lp)
        assert not line_path

    @given(seed=st.integers(0, 10_000), edits=st.lists(st.tuples(
        st.integers(0, 10_000), st.sampled_from(["sep", "token", "insert", "drop"]),
        st.sampled_from(["\t", "\xa0", "x", "r1", "OBJ", "1_5", "abc", "nan", "l",
                         "'MARKER'", "R00000011", "a_longer_name", "*", "",
                         "* NAMEMAP x y", "* NAMEMAP R0000001 z"])), max_size=3))
    @settings(max_examples=60, deadline=None)
    @example(seed=0, edits=[(444, "token", "'MARKER'")])  # a column named 'MARKER'
    def test_loader_and_line_path_read_alike(self, seed, edits):
        """A written file with a few lines edited reads to the same LP, or
        fails with the same message, with and without the loader."""
        lines = write_mps(random_lp(seed)).split("\n")
        for at, edit, token in edits:
            k = at % len(lines)
            if edit == "sep":
                lines[k] = lines[k].replace(" ", token if token in "\t\xa0" else "  ")
            elif edit == "token" and lines[k].split():
                toks = lines[k].split()
                toks[at % len(toks)] = token or "x"
                lines[k] = " " * lines[k].startswith(" ") + " ".join(toks)
            elif edit == "insert":
                lines.insert(k, token)
            elif edit == "drop":
                del lines[k]
        text = "\n".join(lines)

        def read():
            try:
                return parse_mps(text)
            except MPSError as e:
                return str(e)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mps._Reader, "load", lambda reader, *args: None)
            by_line = read()
        got = read()
        if isinstance(by_line, str):
            assert got == by_line
        else:  # numbers are compared by their bits, which nan equals
            bits = lambda lp: replace(lp, **{f: getattr(lp, f).view(np.int64) for f in
                                             ("obj", "lower", "upper", "rhs", "values")})
            assert lp_equal(bits(got), bits(by_line))

    @CHUNKS
    def test_name_with_hash(self, monkeypatch, line_path, chunk):
        text = ("NAME t\nROWS\n N  OBJ\n L  r#1\nCOLUMNS\n x#y  OBJ  1.5\n"
                " x#y  r#1  2.0\nRHS\n RHS  r#1  3.0\nENDATA\n")
        lp = parse_at(monkeypatch, text, chunk)
        assert (lp.col_names, lp.row_names, lp.values.tolist()) == (["x#y"], ["r#1"], [2.0])
        assert not line_path

    @CHUNKS
    def test_trailing_nul_is_part_of_a_name(self, monkeypatch, line_path, chunk):
        # numpy's strings drop trailing NULs
        text = ("* NAMEMAP x\x00 long\nNAME t\nROWS\n N  OBJ\n L  r1\n L  r1\x00\n"
                "COLUMNS\n x  r1  1.0\n x\x00  r1  2.0\n*\n y  r1\x00  3.0\n"
                "*\n y  r1  4.0\nRHS\nENDATA\n")
        lp = parse_at(monkeypatch, text, chunk)
        assert (lp.col_names, lp.row_names) == (["x", "long", "y"], ["r1", "r1\x00"])
        assert lp_equal(lp, replace(lp, row_idx=np.array([0, 0, 1, 0]), col_idx=np.array(
            [0, 1, 2, 2]), values=np.array([1.0, 2.0, 3.0, 4.0])))
        assert line_path

    @CHUNKS
    def test_longer_column_name_in_a_later_piece(self, monkeypatch, line_path, chunk):
        # blocks of ten lines, the longer names in the last
        names = [f"c{k}" for k in range(57)] + ["a8chars_", "nine_char",
                                                "a_much_longer_name"]
        text = ("NAME t\nROWS\n N  OBJ\n L  r1\nCOLUMNS\n" + "".join(
            f" {c}  r1  1.0\n" + "*\n" * (k % 10 == 9) for k, c in enumerate(names))
            + "RHS\nENDATA\n")
        assert parse_at(monkeypatch, text, chunk).col_names == names
        assert not line_path

    def test_one_very_long_name_is_read_line_by_line(self, line_path):
        # a field as wide as that name would hold more than four times the
        # block's characters, so the loader gives the block up
        names = [f"c{k}" for k in range(50)] + ["n" * 300]
        text = ("NAME t\nROWS\n N  OBJ\n L  r1\nCOLUMNS\n"
                + "".join(f" {c}  r1  {k + 1}.0\n" for k, c in enumerate(names))
                + "RHS\nENDATA\n")
        b = LinearProgramBuilder("t")
        b.add_cols(names, np.zeros(51), np.zeros(51), np.full(51, np.inf))
        b.add_row("r1", LE, 0.0, [(k, k + 1.0) for k in range(51)])
        assert lp_equal(parse_mps(text), b.build())
        assert line_path

    @CHUNKS
    @pytest.mark.parametrize("token", ["r1x", "r1xyz"])
    def test_row_token_extending_a_row_name(self, monkeypatch, chunk, token):
        text = (TestParserErrors.HEAD + " x  r1  1.0\n x  r2  1.0\n"
                f" y  r2  1.0\n y  {token}  1.0\nENDATA\n")
        with pytest.raises(MPSError, match=re.escape(f"line 10: unknown row '{token}'")):
            parse_at(monkeypatch, text, chunk)

    @CHUNKS
    @pytest.mark.parametrize("rows, fault", [
        (" L  r1\n X  r2\n", "line 5: unknown row type 'X'"),
        (" L  r1\n L\n", "line 5: ROWS entries need a type and a name"),
        (" L  r1\n L  r2  r3\n", "line 5: ROWS entries need a type and a name"),
        (" L  r1\n*\n G  r2\n E  r1\n", "line 7: duplicate row name 'r1'"),
        (" L  r1\n*\n n  OBJ2\n", "line 6: second objective row 'OBJ2'"),
    ], ids=["type", "one-token", "three-tokens", "later-duplicate", "later-objective"])
    def test_rows_faults_named_with_line(self, monkeypatch, chunk, rows, fault):
        text = f"NAME t\nROWS\n N  OBJ\n{rows}COLUMNS\n x  r1  1.0\nENDATA\n"
        with pytest.raises(MPSError, match=f"^{re.escape(fault)}$"):
            parse_at(monkeypatch, text, chunk)

    @CHUNKS
    def test_numbers_read_as_float_reads_them(self, monkeypatch, chunk):
        tokens = ["1_5", "+1.5", "-Infinity", "nan", "4.9e-324", "-0.0", "1e999"]
        for some in [tokens[:1], tokens[1:], tokens]:
            text = (TestParserErrors.HEAD + "".join(
                f" c{k}  OBJ  {tok}\n c{k}  r1  1.0\n c{k}  r2  1.0\n"
                for k, tok in enumerate(some)) + "ENDATA\n")
            lp = parse_at(monkeypatch, text, chunk)
            assert lp.obj.view(np.int64).tolist() == np.array(
                [float(t) for t in some]).view(np.int64).tolist()

    @CHUNKS
    @pytest.mark.parametrize("token", ["0x1p3", "1.5d0"])
    def test_numbers_float_refuses_are_malformed(self, monkeypatch, chunk, token):
        text = (TestParserErrors.HEAD + f" x  r1  1.0\n x  r2  {token}\n"
                " y  r1  2.0\nENDATA\n")
        with pytest.raises(MPSError, match=re.escape(
                f"line 8: malformed numeric field '{token}'")):
            parse_at(monkeypatch, text, chunk)


class TestMemory:
    def test_parse_keeps_little_beyond_its_input(self, monkeypatch):
        """Parsing a 168-hour northern slice, 2 MB of text, adds a traced
        peak under 3x the text's length (2.0x measured).  Pieces of 64 K
        characters keep each piece's transient lines and tokens small, so the
        peak is what the reader keeps across pieces: name indices, matrix
        blocks, the matrix and the names.  A reader holding the name map,
        the indices and per-entry int64 blocks all at once while it builds
        the matrix peaks at 4.5x."""
        scenario, _ = load_config(CONFIGS / "northern")
        text = write_mps(assemble(sh.first_hours(scenario, 168))[0])
        monkeypatch.setattr(mps, "_CHUNK", 1 << 11)
        tracemalloc.start()
        try:  # the text was made before tracing starts
            lp = parse_mps(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lp.n_rows > 10_000
        assert peak / len(text) < 3.0


class TestLpEqual:
    def test_permuted_triplets_are_equal(self):
        lp = awkward_lp()
        perm = np.random.default_rng(0).permutation(lp.n_nonzeros)
        shuffled = replace(lp, row_idx=lp.row_idx[perm],
                           col_idx=lp.col_idx[perm], values=lp.values[perm])
        assert lp_equal(shuffled, lp) and lp_equal(lp, shuffled)

    def test_one_changed_value_is_not_equal(self):
        lp = awkward_lp()
        values = lp.values.copy()
        values[2] = np.nextafter(values[2], np.inf)
        assert not lp_equal(replace(lp, values=values), lp)


class TestSolutionExchange:
    def test_internal_round_trip(self, tmp_path):
        lp = trivial_lp()
        sol = solve(lp)
        path = tmp_path / "t.sol"
        path.write_text(write_solution_text(lp, sol))
        back, _ = read_external_solution(lp, path)
        assert back.status == sol.status
        assert np.array_equal(back.primal, sol.primal)
        assert np.array_equal(back.duals, sol.duals)
        assert back.objective == sol.objective

    def test_missing_column_is_named(self, tmp_path):
        lp = trivial_lp()
        sol = solve(lp)
        lines = [ln for ln in write_solution_text(lp, sol).splitlines()
                 if not ln.startswith("COL y")]
        path = tmp_path / "t.sol"
        path.write_text("\n".join(lines))
        with pytest.raises(MPSError, match="y"):
            read_external_solution(lp, path)

    @pytest.mark.parametrize("extra, expected", [
        ("COL zz 99\nROW nosuch 7\n", "t.sol: solution file names unknown columns: zz"),
        ("ROW nosuch 7\nROW r2 7\n", "t.sol: solution file names unknown rows: nosuch, r2"),
    ], ids=["columns", "rows"])
    def test_unknown_name_is_named(self, tmp_path, extra, expected):
        lp = trivial_lp()
        path = tmp_path / "t.sol"
        path.write_text(write_solution_text(lp, solve(lp)) + extra)
        with pytest.raises(MPSError, match=re.escape(expected)):
            read_external_solution(lp, path)

    def test_scaled_duals_fail_certification(self, tmp_path):
        lp = trivial_lp()
        sol = solve(lp)
        out = []
        for ln in write_solution_text(lp, sol).splitlines():
            toks = ln.split()
            if toks and toks[0] == "ROW":
                toks[2] = repr(float(toks[2]) * 2.0)
                out.append(" ".join(toks))
            else:
                out.append(ln)
        path = tmp_path / "t.sol"
        path.write_text("\n".join(out))
        with pytest.raises(CertificationError) as exc:
            read_external_solution(lp, path)
        assert exc.value.report.duality_gap > 1e-6

    def test_status_header_required(self, tmp_path):
        lp = trivial_lp()
        path = tmp_path / "t.sol"
        path.write_text("COL x 1.0\n")
        with pytest.raises(MPSError, match="STATUS"):
            read_external_solution(lp, path)

    def test_malformed_col_line_named_with_line(self, tmp_path):
        lp = trivial_lp()
        path = tmp_path / "t.sol"
        path.write_text("STATUS optimal OBJ 4.5\n\nCOL x 3.0\nCOL y\n"
                        "ROW cover 1.5\n")
        with pytest.raises(MPSError, match=r"t\.sol: line 4: malformed COL"):
            read_external_solution(lp, path)

    @pytest.mark.parametrize("text", [
        "STATUS optimal OBJ 4.5\nCOL x 3.0\nCOL y abc\nROW cover 1.5\nROW cap zz\n",
        # a form feed separates fields, as in MPS files, and ends no line
        "STATUS optimal OBJ 4.5\nCOL x\x0c3.0\nCOL y abc\nROW cover 1.5\n",
    ], ids=["newlines", "form-feed"])
    def test_malformed_value_named_with_line(self, tmp_path, text):
        path = tmp_path / "t.sol"
        path.write_text(text)
        with pytest.raises(MPSError, match=re.escape(
                "t.sol: line 3: malformed numeric field 'abc'")):
            read_external_solution(trivial_lp(), path)

    @pytest.mark.parametrize("text, expected", [
        ("STATUS optimal OBJ 4.5\nCOL x 1.0\nROW x 1.0\nCOL x 1.0\nCOL y abc\n",
         "t.sol: line 4: COL 'x' repeats line 2"),
        ("STATUS infeasible OBJ 1\nSTATUS optimal OBJ 4.5\nCOL x 3.0\nCOL y 0.0\n"
         "ROW cover 1.5\nROW cap 0.0\n", "t.sol: line 2: STATUS repeats line 1"),
    ], ids=["COL", "STATUS"])
    def test_repeated_record_named_with_line(self, tmp_path, text, expected):
        path = tmp_path / "t.sol"
        path.write_text(text)
        with pytest.raises(MPSError, match=re.escape(expected)):
            read_external_solution(trivial_lp(), path)


if __name__ == "__main__":
    print(json.dumps(mps_digests(), indent=2))
