import csv
import hashlib

import numpy as np
import pytest

import depthtest.dataset as dataset
from depthtest import (
    DepthTestError,
    MissingGroupColumn,
    NonNumericCell,
    ParseError,
    load_csv,
    skulls_path,
)
from oracles import load_csv_reference


class TestSkullsFixture:
    def test_shape(self, skulls):
        assert skulls.labels == ("c1850BC", "c200BC", "c3300BC", "c4000BC", "cAD150")
        assert all(arr.shape == (30, 4) for arr in skulls.groups.values())
        assert skulls.variable_names == ("mb", "bh", "bl", "nh")

    def test_known_epoch_means(self, skulls):
        # published per-epoch means of the four measurements
        assert np.allclose(
            skulls.groups["c4000BC"].mean(axis=0), [131.3667, 133.6, 99.1667, 50.5333], atol=2e-4
        )
        assert np.allclose(
            skulls.groups["cAD150"].mean(axis=0), [136.1667, 130.3333, 93.5, 51.3667], atol=2e-4
        )

    def test_subset(self, skulls):
        sub = skulls.subset(["cAD150", "c200BC"])
        assert sub.labels == ("c200BC", "cAD150")
        with pytest.raises(MissingGroupColumn):
            skulls.subset(["c200BC", "c9999BC"])


class TestLoadCsv:
    def test_group_column_by_index(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("v,grp\n1.5,a\n2.5,a\n3.5,b\n4.5,b\n")
        # an int, or the digit string that --group passes
        for group in (1, "1"):
            ds = load_csv(path, group)
            assert ds.labels == ("a", "b")
            assert ds.groups["a"].tolist() == [[1.5], [2.5]]
            assert ds.variable_names == ("v",)

    def test_header_and_name(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("v,w,grp\n1,2,first\n3,4,second\n")
        ds = load_csv(path, "grp")
        assert ds.variable_names == ("v", "w")
        assert ds.groups["first"].tolist() == [[1.0, 2.0]]

    def test_row_order_preserved_within_group(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("v,grp\n5,a\n1,a\n3,a\n")
        ds = load_csv(path, "grp")
        assert ds.groups["a"][:, 0].tolist() == [5.0, 1.0, 3.0]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_csv(path, 0)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("a,b\n")
        with pytest.raises(ParseError):
            load_csv(path, "a")

    def test_missing_group_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("v,grp\n1,a\n")
        with pytest.raises(MissingGroupColumn):
            load_csv(path, "epoch")
        with pytest.raises(MissingGroupColumn):
            load_csv(path, 7)

    def test_repeated_group_column_name(self, tmp_path):
        path = tmp_path / "dupg.csv"
        path.write_text("grp,x,grp\na,1,5\nb,2,6\n")
        with pytest.raises(
            MissingGroupColumn,
            match=r"group column 'grp' appears 2 times in the header, at 0-based positions \[0, 2\]",
        ):
            load_csv(path, "grp")
        # by index the column is unambiguous; the other 'grp' is a data column
        ds = load_csv(path, 0)
        assert ds.variable_names == ("x", "grp")
        assert ds.groups["b"].tolist() == [[2.0, 6.0]]

    def test_repeated_data_column_names(self, tmp_path):
        path = tmp_path / "dupx.csv"
        path.write_text("x,grp,x\n1,a,5\n2,b,6\n")
        ds = load_csv(path, "grp")
        assert ds.variable_names == ("x", "x")
        assert ds.groups["a"].tolist() == [[1.0, 5.0]]

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("v,w,grp\n1,2,a\n1,oops,a\n")
        with pytest.raises(NonNumericCell, match="row 3, column 2"):
            load_csv(path, "grp")

    def test_non_utf8_bytes_are_a_parse_error(self, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"v,grp\n1,a\n\x7fELF\x02\x01\xd0\xff,b\n")
        with pytest.raises(ParseError, match=r"binary\.csv: not UTF-8 text"):
            load_csv(path, "grp")

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("v,w,grp\n1,2,a\n1,a\n")
        with pytest.raises(ParseError, match="row 3"):
            load_csv(path, "grp")

    def test_group_index_checked_against_header_width(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,g\n1,x,7\n2,y,8\n")
        with pytest.raises(MissingGroupColumn, match="index 2 out of range"):
            load_csv(path, 2)

    def test_digit_header_name_selects_its_column(self, tmp_path):
        # 2021 is no valid index of a 2-column header, so it names the column
        path = tmp_path / "year.csv"
        path.write_text("x,2021\n1.5,a\n2.5,b\n3.5,a\n")
        ds = load_csv(path, "2021")
        assert ds.variable_names == ("x",)
        assert ds.groups["a"].tolist() == [[1.5], [3.5]]
        # an int is an index only
        with pytest.raises(MissingGroupColumn, match="index 2021 out of range"):
            load_csv(path, 2021)

    def test_digits_that_index_one_column_and_name_another_are_refused(self, tmp_path):
        path = tmp_path / "ambiguous.csv"
        path.write_text("1,x,g\n5,a,2\n6,b,4\n")
        with pytest.raises(
            MissingGroupColumn,
            match=r"group column '1' is ambiguous: as an index it selects column 1 \('x'\), "
            r"as a header name the column at 0-based position\(s\) \[0\]",
        ):
            load_csv(path, "1")
        # an int is an index only
        assert load_csv(path, 1).variable_names == ("1", "g")

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("a,v\nx,1\ny,2\n".encode("utf-8-sig"))
        ds = load_csv(path, "a")
        assert ds.variable_names == ("v",)
        assert ds.labels == ("x", "y")


class TestRoundTrip:
    def test_dump_then_load_is_identity(self, tmp_path, rng):
        groups = {
            "alpha": rng.normal(size=(6, 3)),
            "beta": rng.normal(size=(4, 3)) * 1e-7,
            "gamma": rng.normal(size=(5, 3)) * 1e7,
        }
        path = tmp_path / "roundtrip.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["u", "v", "w", "grp"])
            for label, arr in groups.items():
                writer.writerows([repr(float(v)) for v in row] + [label] for row in arr)
        back = load_csv(path, "grp")
        assert back.labels == tuple(groups)
        assert back.variable_names == ("u", "v", "w")
        for label in groups:
            assert np.array_equal(back.groups[label], groups[label])


LIMIT = csv.field_size_limit()

# (name, file bytes, group column, whether csv.reader parses them)
INPUTS = (
    ("lf", b"x,y,g\n1.5,2,a\n-3,4e-3,b\n5,6,a\n", "g", False),
    ("crlf", b"x,y,g\r\n1.5,2,a\r\n-3,4e-3,b\r\n5,6,a\r\n", "g", True),
    ("cr", b"x,y,g\r1.5,2,a\r-3,4e-3,b\r", "g", True),
    ("no-final-newline", b"x,y,g\n1.5,2,a\n-3,4e-3,b", "g", False),
    ("crlf-no-final-newline", b"x,y,g\r\n1.5,2,a\r\n-3,4e-3,b", "g", True),
    ("blank-lines", b"\n\nx,y,g\n\n1,2,a\n\n\n3,4,b\n\n", "g", False),
    ("blank-lines-crlf", b"\r\nx,y,g\r\n\r\n1,2,a\r\n3,4,b\r\n\r\n", "g", True),
    ("bom", "\ufeffx,y,g\n1,2,a\n3,4,b\n".encode(), "x", False),
    ("bom-quoted", '\ufeff"x",y,g\n"1",2,a\n3,4,b\n'.encode(), "x", True),
    ("quoted-numbers", b'x,y,g\n"1.5","2",a\n"3",4,"b"\n', "g", True),
    ("quoted-label-with-comma", b'x,g\n1,"a,b"\n2,c\n', "g", True),
    ("quoted-doubled-quote", b'x,g\n1,"say ""a"""\n2,c\n', "g", True),
    ("quoted-newline-in-label", b'x,g\n1,"a\nb"\n2,c\n', "g", True),
    ("spaces", b"x,y,g\n 1.5 , 2\t, a \n3 ,4,b\n", "g", False),
    ("float-syntax", b"x,y,g\n1_000,+.5,a\n-0,1E5,b\n1e-400,.5e1,c\n", "g", False),
    ("hex-literal", b"x,y,g\n1_000,+.5,a\n 0x1,2,c\n", "g", False),
    ("overflow", b"x,g\n1,a\n1e400,b\n", "g", False),
    ("nan", b"x,g\n1,a\nnan,b\n", "g", False),
    ("width-2", b"v,g\n1,a\n2,a\n3,b\n", "g", False),
    ("width-2-group-first", b"g,v\na,1\nb,2\n", "0", False),
    ("width-2-quoted", b'v,g\n"1",a\n2,b\n', "g", True),
    ("line-at-limit", b"x,g\n" + b"0" * (LIMIT - 3) + b"1,a\n2,b\n", "g", False),
    ("line-past-limit", b"x,g\n" + b"0" * (LIMIT - 2) + b"1,a\n2,b\n", "g", True),
    ("field-past-limit", b"x,g\n2,b\n" + b"0" * LIMIT + b"1,a\n", "g", True),
    ("nul-cell", b"x,g\n1\x00,a\n", "g", True),
    ("nul-label", b"x,g\n1,a\x00\n", "g", True),
    ("non-utf8", b"x,g\n1,a\n\xff,b\n", "g", True),
    ("non-utf8-late", b"x,g\n" + b"1,a\n" * 10_000 + b"\xd0,b\n", "g", True),
    ("truncated-utf8", b"x,g\n1,a\n1,\xe2\x82", "g", True),
    ("empty", b"", "g", False),
    ("blank-only", b"\n\n\n", "g", False),
    ("header-only", b"x,g\n", "g", False),
    ("missing-group", b"x,g\n1,a\n", "h", False),
    ("index-out-of-range", b"x,g\n1,a\n", 5, False),
    ("repeated-group", b"g,x,g\na,1,2\n", "g", False),
    ("group-by-index", b"g,x,g\na,1,2\nb,3,4\n", "2", False),
    ("group-only", b"g\na\n", "g", False),
    ("digit-name-past-the-width", b"x,2021\n1,a\n2,b\n", "2021", False),
    ("digit-name-repeated-past-the-width", b"7,x,7\na,1,2\n", "7", False),
    ("digit-index-naming-another-column", b"1,x,g\na,1,2\nb,3,4\n", "1", False),
    ("digit-index-naming-itself", b"0,1,2\n1,a,3\n2,b,4\n", "1", False),
    ("digit-index-named-twice", b"x,1,1\n1,a,2\n", "1", False),
    ("non-decimal-digit-name", "x,\u00b2\n1,a\n2,b\n".encode(), "\u00b2", False),
    ("ragged", b"x,y,g\n1,2,a\n1,a\n", "g", False),
    ("ragged-long", b"x,y,g\n1,2,a\n3,4,b,5\n", "g", False),
    ("ragged-short", b"g,x,y\na,1,2\nb,3\n", "g", False),
    ("whitespace-line", b"x,g\n1,a\n \n", "g", False),
    ("trailing-comma", b"x,g,\n1,a,\n", "g", False),
    ("non-numeric", b"x,y,g\n1,2,a\n1,oops,a\n", "g", False),
    ("non-numeric-before-ragged", b"x,y,g\n1,2,a\nq,2,a\n3,4,a\n5,a\n", "g", False),
    ("ragged-before-non-numeric", b"x,y,g\n1,2,a\n1,a\n3,4,a\nq,2,a\n", "g", False),
    ("non-numeric-before-ragged-quoted", b'"x",y,g\n1,2,a\nq,2,a\n3,4,a\n5,a\n', "g", True),
    ("ragged-before-non-numeric-quoted", b'"x",y,g\n1,2,a\n1,a\n3,4,a\nq,2,a\n', "g", True),
    ("non-finite-in-later-group", b"x,g\ninf,b\n1,a\n-inf,c\n", "g", False),
)


def _assert_matches_reference(path, group):
    """load_csv gives the reference loader's groups bit for bit, or raises
    its exception type with its message."""
    try:
        groups, names = load_csv_reference(path, group)
    except DepthTestError as exc:
        with pytest.raises(DepthTestError) as raised:
            load_csv(path, group)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        return
    ds = load_csv(path, group)
    assert ds.labels == tuple(groups)
    assert ds.variable_names == names
    for label, want in groups.items():
        got = ds.groups[label]
        assert got.dtype == want.dtype == np.float64
        assert got.flags.c_contiguous
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestAgreesWithReference:
    @pytest.mark.parametrize(
        "content, group, through_reader", [case[1:] for case in INPUTS], ids=[c[0] for c in INPUTS]
    )
    def test_groups_or_error(self, tmp_path, monkeypatch, content, group, through_reader):
        path = tmp_path / "data.csv"
        path.write_bytes(content)
        calls = []

        def spy(*args):
            calls.append(args)
            return records(*args)

        records = dataset._records
        monkeypatch.setattr(dataset, "_records", spy)
        _assert_matches_reference(path, group)
        assert bool(calls) == through_reader

    def test_generated_data(self, tmp_path, rng):
        # the repr() round trip of random doubles, as the benchmark's
        # generated inputs are written
        values = rng.normal(size=(300, 5)) * np.exp(rng.uniform(-700, 700, size=(300, 1)))
        labels = rng.choice(["f", "g", "h"], size=300)
        path = tmp_path / "generated.csv"
        lines = ["x0,x1,x2,x3,x4,group"]
        lines += [",".join(map(repr, map(float, row))) + f",{lab}" for row, lab in zip(values, labels)]
        path.write_text("\n".join(lines) + "\n")
        _assert_matches_reference(path, "group")

    def test_skulls(self):
        _assert_matches_reference(skulls_path(), "epoch")

    def test_field_limit_is_read_at_call_time(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"x,g\n" + b"1" * 30 + b",a\n")
        default = csv.field_size_limit(20)
        try:
            with pytest.raises(ParseError, match=r"line 2: field larger than field limit \(20\)"):
                load_csv(path, "g")
            _assert_matches_reference(path, "g")
        finally:
            csv.field_size_limit(default)
        assert load_csv(path, "g").groups["a"].shape == (1, 1)

    def test_oversized_field_names_the_line_that_opened_it(self, tmp_path):
        # an unmatched quote on line 3 makes the rest of the file one field
        path = tmp_path / "unmatched.csv"
        path.write_text("a,b,g\n1.0,2.0,x\n\"3.0,4.0,x\n" + "5.0,6.0,y\n" * 16_000)
        with pytest.raises(
            ParseError, match=rf"unmatched\.csv: line 3: field larger than field limit \({LIMIT}\)"
        ):
            load_csv(path, "g")

    def test_digest_is_of_the_bytes_parsed(self, tmp_path):
        content = "\ufeffx,g\r\n1,a\r\n".encode()
        path = tmp_path / "data.csv"
        path.write_bytes(content)
        ds = load_csv(path, "g")
        assert ds.sha256 == hashlib.sha256(content).hexdigest()
        assert ds.subset(["a"]).sha256 == ds.sha256
