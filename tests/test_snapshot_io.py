import numpy as np
import pytest

from pcdoa import snapshot_io
from pcdoa.array_model import SourceScenario, build_geometry, synthesize
from pcdoa.errors import SnapshotFormatError
from pcdoa.snapshot_io import (
    ingest_snapshot_csv,
    superpose_snapshots,
    write_csv,
    write_snapshot_csv,
)


def geometry():
    return build_geometry("equidistant", 4, 3, 0.5, 12.0, 1.0)


def snapshot(seed=0):
    scenario = SourceScenario([5.0], [1.0 + 0.5j], 0.01, seed=seed)
    x, _ = synthesize(geometry(), scenario)
    return x


class TestRoundTrip:
    def test_bit_identical(self, tmp_path):
        x = snapshot()
        path = tmp_path / "snap.csv"
        write_snapshot_csv(path, x)
        back = ingest_snapshot_csv(path, geometry())
        assert np.array_equal(back.data, x.data)

    def test_accepts_bare_array(self, tmp_path):
        x = snapshot()
        path = tmp_path / "snap.csv"
        write_snapshot_csv(path, np.asarray(x.data))
        back = ingest_snapshot_csv(path, geometry())
        assert np.array_equal(back.data, x.data)

    def test_layout_element_major_one_based(self, tmp_path):
        path = tmp_path / "snap.csv"
        write_snapshot_csv(path, snapshot())
        lines = path.read_text().splitlines()
        assert lines[0] == "element_index,subarray_index,real,imag"
        first = [line.split(",")[:2] for line in lines[1:6]]
        assert first == [
            ["1", "1"],
            ["1", "2"],
            ["1", "3"],
            ["1", "4"],
            ["2", "1"],
        ]
        assert len(lines) == 1 + 3 * 4

    def test_unix_newlines(self, tmp_path):
        path = tmp_path / "snap.csv"
        write_snapshot_csv(path, snapshot())
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


# Values whose printed form is easy to get wrong: signed zero, the
# smallest subnormal, exponent notation both ways, a rounding artefact,
# an integer-valued float and nan.
SPECIAL = [-0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, 5.0, float("nan")]


def special_matrix():
    """A 3x4 complex matrix holding every SPECIAL value in both parts."""
    values = np.array(SPECIAL + [0.25] * 5)
    data = np.empty((3, 4), dtype=complex)
    data.real = values.reshape(3, 4)
    data.imag = values[::-1].reshape(3, 4)
    return data


class TestCsvFormat:
    def test_columns_print_like_per_cell_repr(self, tmp_path):
        path = tmp_path / "table.csv"
        index = np.arange(1, len(SPECIAL) + 1)
        write_csv(path, ["index", "value"], [index, np.array(SPECIAL)])
        expected = ["index,value"] + [
            f"{i},{repr(float(v))}" for i, v in zip(range(1, len(SPECIAL) + 1), SPECIAL)
        ]
        assert path.read_text().splitlines() == expected
        assert "6,5.0" in expected and "7,nan" in expected and "1,-0.0" in expected

    def test_snapshot_matches_per_cell_writer(self, tmp_path):
        data = special_matrix()
        path = tmp_path / "snap.csv"
        write_snapshot_csv(path, data)
        expected = ["element_index,subarray_index,real,imag"]
        for m in range(data.shape[0]):
            for k in range(data.shape[1]):
                value = complex(data[m, k])
                expected.append(f"{m + 1},{k + 1},{repr(value.real)},{repr(value.imag)}")
        assert path.read_text() == "\n".join(expected) + "\n"

    def test_special_values_round_trip(self, tmp_path):
        data = special_matrix()
        data[np.isnan(data.real)] = 0.25
        data[np.isnan(data.imag)] = 0.25
        path = tmp_path / "snap.csv"
        write_snapshot_csv(path, data)
        back = ingest_snapshot_csv(path, geometry())
        assert np.array_equal(back.data, data)

    def test_signed_zeros_written_back_byte_identical(self, tmp_path):
        # A zero's sign must survive ingest in both parts of a cell.
        cells = ["-0.0,5e-324", "-1e-300,-0.0", "-0.0,-0.0", "0.0,-0.0"] * 3
        lines = ["element_index,subarray_index,real,imag"]
        for index, cell in enumerate(cells):
            lines.append(f"{index // 4 + 1},{index % 4 + 1},{cell}")
        source = tmp_path / "in.csv"
        source.write_text("\n".join(lines) + "\n")
        back = tmp_path / "out.csv"
        write_snapshot_csv(back, ingest_snapshot_csv(source, geometry()))
        assert back.read_bytes() == source.read_bytes()


class TestRepeatedValues:
    """Each distinct value is formatted once and every cell prints as per-cell `repr` / `str`."""

    COLUMNS = {
        "signed-zeros": np.array([0.0, -0.0, 1.5, -0.0, 0.0, 1.5]),
        "nan-inf": np.array([np.nan, np.inf, -np.inf, np.nan, np.inf, -np.nan]),
        "float32": np.array([0.1, -0.0, 5.0, 0.1, 0.0, 5.0], dtype=np.float32),
        "uint64": np.array([2**64 - 1, 2**63, 1, 2**64 - 1, 1, 0], dtype=np.uint64),
        "int64": np.array([-(2**63), -1, 0, -1, -(2**63), 7]),
        "int32": np.array([3, -4, 3, -4, 3, 5], dtype=np.int32),
    }

    @staticmethod
    def per_cell(column):
        if column.dtype.kind in "iu":
            return [str(int(v)) for v in column]
        return [repr(float(v)) for v in column]

    def test_cells_match_per_cell_formatting(self, tmp_path):
        columns = list(self.COLUMNS.values())
        expected = ",".join(self.COLUMNS) + "\n" + "".join(
            ",".join(row) + "\n" for row in zip(*map(self.per_cell, columns))
        )
        path = tmp_path / "table.csv"
        write_csv(path, list(self.COLUMNS), columns)
        assert path.read_bytes() == expected.encode()
        text = path.read_text()
        assert "0.0,nan,0.10000000149011612,18446744073709551615" in text
        assert "-0.0,inf,-0.0,9223372036854775808" in text

    def test_warm_columns_print_like_cold(self, tmp_path, clear_memos):
        # Each column is written twice, the second time from the memo. The
        # memo keys a column by dtype and bytes: the bytes of uint64
        # 2**64 - 1 are those of int64 -1, and the two must not share text.
        twins = [np.array([2**64 - 1], dtype=np.uint64), np.array([-1]), np.array([0.0, -0.0])]
        columns = [*self.COLUMNS.values(), *twins]
        path = tmp_path / "column.csv"
        for column in columns:
            for _ in range(2):
                write_csv(path, ["v"], [column])
                assert path.read_text().splitlines()[1:] == self.per_cell(column)
        assert snapshot_io._texts.cache_info().hits == len(columns)

    def test_strided_and_tiled_columns(self, tmp_path):
        grid = np.linspace(-20.0, 20.0, 9)
        table = np.arange(16).reshape(4, 4)
        path = tmp_path / "table.csv"
        write_csv(path, ["theta", "column", "row"], [np.tile(grid, 2)[7:11], table.T[1], table[1]])
        assert path.read_text().splitlines() == [
            "theta,column,row",
            "15.0,1,4",
            "20.0,5,5",
            "-20.0,9,6",
            "-15.0,13,7",
        ]


class TestIngestValidation:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        return path

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "a,b,c,d\n1,1,0.0,0.0\n")
        with pytest.raises(SnapshotFormatError, match="header"):
            ingest_snapshot_csv(path, geometry())

    def test_wrong_field_count(self, tmp_path):
        path = self.write(
            tmp_path, "element_index,subarray_index,real,imag\n1,1,0.0\n"
        )
        with pytest.raises(SnapshotFormatError) as info:
            ingest_snapshot_csv(path, geometry())
        assert info.value.row == 2

    def test_non_numeric_value(self, tmp_path):
        good = tmp_path / "good.csv"
        write_snapshot_csv(good, snapshot())
        lines = good.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",oops"
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(SnapshotFormatError) as info:
            ingest_snapshot_csv(path, geometry())
        assert info.value.row == 4

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, tmp_path, cell):
        good = tmp_path / "good.csv"
        write_snapshot_csv(good, snapshot())
        lines = good.read_text().splitlines()
        lines[3] = ",".join(lines[3].split(",")[:2] + [cell, "0.0"])
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(SnapshotFormatError, match="finite") as info:
            ingest_snapshot_csv(path, geometry())
        assert info.value.row == 4

    def test_index_out_of_range(self, tmp_path):
        path = self.write(
            tmp_path,
            "element_index,subarray_index,real,imag\n9,1,0.0,0.0\n",
        )
        with pytest.raises(SnapshotFormatError, match="outside"):
            ingest_snapshot_csv(path, geometry())

    def test_duplicate_cell(self, tmp_path):
        good = tmp_path / "good.csv"
        write_snapshot_csv(good, snapshot())
        text = good.read_text()
        dup = text.splitlines()[1]
        path = self.write(tmp_path, text + dup + "\n")
        with pytest.raises(SnapshotFormatError, match="duplicate"):
            ingest_snapshot_csv(path, geometry())

    def test_missing_cell_named(self, tmp_path):
        good = tmp_path / "good.csv"
        write_snapshot_csv(good, snapshot())
        lines = good.read_text().splitlines()
        # drop the (element 2, subarray 3) row
        kept = [ln for ln in lines if not ln.startswith("2,3,")]
        path = self.write(tmp_path, "\n".join(kept) + "\n")
        with pytest.raises(SnapshotFormatError, match=r"element 2.*subarray 3"):
            ingest_snapshot_csv(path, geometry())

    def test_blank_lines_ignored(self, tmp_path):
        good = tmp_path / "good.csv"
        write_snapshot_csv(good, snapshot())
        lines = good.read_text().splitlines()
        lines.insert(4, "")
        path = self.write(tmp_path, "\n".join(lines) + "\n\n")
        back = ingest_snapshot_csv(path, geometry())
        assert np.array_equal(back.data, snapshot().data)


class TestSuperpose:
    def test_sums_two_files(self, tmp_path):
        a, b = snapshot(seed=1), snapshot(seed=2)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_snapshot_csv(pa, a)
        write_snapshot_csv(pb, b)
        total = superpose_snapshots([pa, pb], geometry())
        assert np.allclose(total.data, a.data + b.data, rtol=0, atol=0)

    def test_single_file_is_identity(self, tmp_path):
        a = snapshot(seed=1)
        pa = tmp_path / "a.csv"
        write_snapshot_csv(pa, a)
        total = superpose_snapshots([pa], geometry())
        assert np.array_equal(total.data, a.data)
