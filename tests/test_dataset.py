import numpy as np
import pytest

from depthtest import (
    LabeledDataset,
    MissingGroupColumn,
    NonNumericCell,
    ParseError,
    dump_csv,
    load_csv,
    skulls_path,
)


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
        path.write_text("1.5,a\n2.5,a\n3.5,b\n4.5,b\n")
        ds = load_csv(path, 1, has_header=False)
        assert ds.labels == ("a", "b")
        assert ds.groups["a"].tolist() == [[1.5], [2.5]]
        assert ds.variable_names == ("x0",)

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
        ds = LabeledDataset(groups=groups, variable_names=("u", "v", "w"))
        path = tmp_path / "roundtrip.csv"
        dump_csv(ds, path, group_column_name="grp")
        back = load_csv(path, "grp")
        assert back.labels == ds.labels
        assert back.variable_names == ds.variable_names
        for label in groups:
            assert np.array_equal(back.groups[label], ds.groups[label])
