"""Tests for tensor I/O (repro.io)."""

import gzip

import numpy as np
import pytest

from repro.core.coo import CooTensor
from repro.io import cached_dataset, load_npz, read_tns, save_npz, write_tns

from .helpers import random_coo


@pytest.fixture
def tensor():
    return random_coo(np.random.default_rng(0), (6, 7, 5), 40)


def _spy_loadtxt_comments(monkeypatch):
    """Record the ``comments`` argument of every ``np.loadtxt`` call."""
    from repro.io import frostt

    seen = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        seen.append(kwargs["comments"])
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(frostt.np, "loadtxt", spy)
    return seen


class TestFrostt:
    def test_roundtrip(self, tensor, tmp_path):
        path = tmp_path / "t.tns"
        write_tns(tensor, path)
        back = read_tns(path)
        assert back.shape == tensor.shape
        assert back.allclose(tensor)

    def test_gzip_roundtrip(self, tensor, tmp_path):
        path = tmp_path / "t.tns.gz"
        write_tns(tensor, path)
        with gzip.open(path, "rt") as fh:
            assert fh.readline().startswith("#")
        assert read_tns(path).allclose(tensor)

    def test_explicit_shape_override(self, tensor, tmp_path):
        path = tmp_path / "t.tns"
        write_tns(tensor, path)
        big = read_tns(path, shape=(10, 10, 10))
        assert big.shape == (10, 10, 10)
        assert big.nnz == tensor.nnz

    def test_one_based_on_disk(self, tmp_path):
        path = tmp_path / "t.tns"
        write_tns(CooTensor([[0, 0]], [2.5], (1, 1)), path)
        body = [
            line for line in path.read_text().splitlines()
            if not line.startswith("#")
        ]
        assert body == ["1 1 2.5"]

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("# hi\n\n% also a comment\n1 2 3.0\n2 1 4.0\n")
        t = read_tns(path)
        assert t.nnz == 2
        assert t.shape == (2, 2)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("1 2 3.0\n1 2 3 4.0\n")
        with pytest.raises(ValueError, match="expected 3 fields"):
            read_tns(path)

    def test_nan_value_rejected(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("1 1 1.0\n2 3 nan\n")
        with pytest.raises(ValueError, match=r"1 non-finite .* \(1, 2\)"):
            read_tns(path)

    def test_zero_based_rejected(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("0 1 3.0\n")
        with pytest.raises(ValueError, match="1-based"):
            read_tns(path)

    def test_empty_file_needs_shape(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError):
            read_tns(path)
        t = read_tns(path, shape=(2, 3))
        assert t.nnz == 0

    def test_percent_comment_mid_file(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("1 2 3.0\n% mid-file note\n2 1 4.0\n")
        t = read_tns(path)
        assert t.idx.tolist() == [[0, 1], [1, 0]]
        assert t.vals.tolist() == [3.0, 4.0]

    def test_percent_comment_in_gzip(self, tmp_path):
        path = tmp_path / "t.tns.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("# header\n1 2 3.0\n% note\n2 1 4.0\n")
        t = read_tns(path)
        assert t.idx.tolist() == [[0, 1], [1, 0]]
        assert t.vals.tolist() == [3.0, 4.0]

    def test_hash_only_file_takes_fast_path(self, tensor, tmp_path,
                                            monkeypatch):
        path = tmp_path / "t.tns"
        write_tns(tensor, path)
        seen = _spy_loadtxt_comments(monkeypatch)
        back = read_tns(path)
        assert seen == ["#"]
        np.testing.assert_array_equal(back.idx, tensor.idx)
        np.testing.assert_array_equal(back.vals, tensor.vals)

    def test_percent_file_parses_in_one_loadtxt(self, tmp_path, monkeypatch):
        path = tmp_path / "t.tns"
        path.write_text("% header\n1 2 3.0\n2 1 4.0\n")
        seen = _spy_loadtxt_comments(monkeypatch)
        assert read_tns(path).nnz == 2
        assert seen == [["#", "%"]]

    def test_percent_scan_crosses_block_boundaries(self, tmp_path):
        from repro.io import frostt

        path = tmp_path / "t.tns"
        body = "1 1 1.0\n" * ((1 << 20) // 8 + 10)
        path.write_text(body + "% late comment\n")
        assert frostt._has_percent(path)
        assert read_tns(path).nnz == 1

    @pytest.mark.parametrize("header", ["# hash header\n", "% pct header\n"])
    def test_ragged_rows_name_the_line_in_either_comment_mode(
            self, tmp_path, header):
        path = tmp_path / "t.tns"
        path.write_text(header + "1 2 3.0\n1 2 3 4.0\n")
        with pytest.raises(ValueError, match=r"t\.tns:3: expected 3 fields"):
            read_tns(path)

    @pytest.mark.parametrize("text", ["# only\n# comments\n",
                                      "% only\n# comments\n"])
    def test_all_comment_file_is_empty_with_shape(self, tmp_path, text):
        path = tmp_path / "t.tns"
        path.write_text(text)
        t = read_tns(path, shape=(2, 3))
        assert t.nnz == 0
        assert t.shape == (2, 3)

    def test_values_roundtrip_exactly(self, tmp_path):
        vals = [1.0 / 3.0, 2.5e-17, -1234567.875]
        t = CooTensor([[0, 0], [1, 1], [2, 2]], vals, (3, 3))
        path = tmp_path / "t.tns"
        write_tns(t, path)
        np.testing.assert_array_equal(read_tns(path).vals, t.vals)


def _read_both_ways(path, monkeypatch, **kwargs):
    """``read_tns`` on the integer parse, then with it disabled (the float
    parse); each outcome is a tensor or the raised ``ValueError``'s text."""
    from repro.io import frostt

    def outcome():
        try:
            return read_tns(path, **kwargs)
        except ValueError as exc:
            return str(exc)

    first = outcome()
    with monkeypatch.context() as patch:
        patch.setattr(frostt, "_first_row_fields", lambda path: None)
        second = outcome()
    return first, second


def _assert_same_outcome(a, b):
    assert type(a) is type(b)
    if isinstance(a, str):
        assert a == b
        return
    assert a.shape == b.shape
    assert a.idx.dtype == b.idx.dtype and a.vals.dtype == b.vals.dtype
    assert a.idx.tobytes() == b.idx.tobytes()
    assert a.vals.tobytes() == b.vals.tobytes()


class TestFrosttParsePaths:
    """The integer coordinate parse and the float parse it falls back to
    give the same tensors and errors."""

    @pytest.mark.parametrize("gz", [False, True])
    @pytest.mark.parametrize("shape", [None, (10, 10, 10)])
    def test_written_tensor(self, tensor, tmp_path, monkeypatch, gz, shape):
        path = tmp_path / ("t.tns.gz" if gz else "t.tns")
        write_tns(tensor, path)
        a, b = _read_both_ways(path, monkeypatch, shape=shape)
        _assert_same_outcome(a, b)
        assert not isinstance(a, str)

    @pytest.mark.parametrize("text", [
        "# hi\n\n1 2 3.0\n2 1 4.0\n",
        "1 2 3.0\n1 2 3 4.0\n",                  # ragged
        "# hash header\n1 2 3.0\n1 2 3 4.0\n",   # ragged, names line 3
        "1 1 1.0\n2 3 nan\n",                    # NaN value
        "0 1 3.0\n",                              # zero-based
        "3 1 2\n1 1 -0.5\n2 2 1e300\n",         # integer-looking values
        "7 1.0\n",                                # order-1
        "1 2 3.0 # trailing note\n",
        "1\n2\n",                                # no value column
    ])
    def test_text_cases(self, tmp_path, monkeypatch, text):
        path = tmp_path / "t.tns"
        path.write_text(text)
        _assert_same_outcome(*_read_both_ways(path, monkeypatch))

    def test_empty_file(self, tmp_path, monkeypatch):
        path = tmp_path / "t.tns"
        path.write_text("# nothing\n")
        _assert_same_outcome(*_read_both_ways(path, monkeypatch))
        _assert_same_outcome(
            *_read_both_ways(path, monkeypatch, shape=(2, 3)))

    def test_values_roundtrip_exactly(self, tmp_path, monkeypatch):
        vals = [1.0 / 3.0, 2.5e-17, -1234567.875]
        path = tmp_path / "t.tns"
        write_tns(CooTensor([[0, 0], [1, 1], [2, 2]], vals, (3, 3)), path)
        a, b = _read_both_ways(path, monkeypatch)
        _assert_same_outcome(a, b)
        np.testing.assert_array_equal(a.vals, vals)

    def test_integer_parse_is_the_fast_path(self, tensor, tmp_path,
                                            monkeypatch):
        from repro.io import frostt

        path = tmp_path / "t.tns"
        write_tns(tensor, path)
        dtypes = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            dtypes.append(np.dtype(kwargs["dtype"]))
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(frostt.np, "loadtxt", spy)
        read_tns(path)
        assert len(dtypes) == 1
        assert dtypes[0].names == ("idx", "val")
        assert dtypes[0]["idx"].base == np.int64

    def test_coordinate_above_2_pow_53_reads_exactly(self, tmp_path):
        big = 2**53 + 1
        path = tmp_path / "t.tns"
        path.write_text(f"{big} 1 1.5\n1 2 2.5\n")
        t = read_tns(path)
        assert t.shape == (big, 2)
        assert t.idx.tolist() == [[0, 1], [big - 1, 0]]
        # a '%' file takes the float parse, which rounds to a double
        path.write_text(f"% note\n{big} 1 1.5\n1 2 2.5\n")
        t = read_tns(path)
        assert t.idx.tolist() == [[0, 1], [big - 2, 0]]

    @pytest.mark.parametrize("header", ["# hash header\n",
                                        "% pct header\n"])
    def test_fractional_coordinate_rejected(self, tmp_path, header):
        path = tmp_path / "t.tns"
        path.write_text(header + "1 1 1 1.0\n\n2.5 1 1 2.0\n")
        with pytest.raises(
                ValueError, match=r"t\.tns:4: coordinate 2\.5 is not a "
                                  r"64-bit integer"):
            read_tns(path)

    @pytest.mark.parametrize("text", ["1 nan 2.0\n", "1 inf 2.0\n",
                                      "1 1e20 2.0\n",
                                      "1 99999999999999999999 2.0\n"])
    def test_non_int64_coordinate_rejected(self, tmp_path, text):
        path = tmp_path / "t.tns"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"t\.tns:1: coordinate "
                                             r"(nan|inf|1e\+20) is not a "
                                             r"64-bit integer"):
            read_tns(path)

    def test_integral_float_coordinate_accepted(self, tmp_path):
        path = tmp_path / "t.tns"
        path.write_text("2.0 1 3.0\n")
        t = read_tns(path)
        assert t.idx.tolist() == [[1, 0]]


class TestNpzCache:
    def test_roundtrip(self, tensor, tmp_path):
        path = tmp_path / "t.npz"
        save_npz(tensor, path)
        assert load_npz(path).allclose(tensor)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, idx=np.zeros((1, 2), np.int64))
        with pytest.raises(ValueError):
            load_npz(path)

    def test_cached_dataset_hits_cache(self, tmp_path):
        a = cached_dataset("nips", tmp_path, scale=0.005)
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        b = cached_dataset("nips", tmp_path, scale=0.005)
        assert a.allclose(b)
        assert list(tmp_path.iterdir()) == files
