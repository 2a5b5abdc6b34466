import numpy as np
import pytest

from aquafuse.raster import (
    BinaryMask,
    GridGeometry,
    RasterError,
    RasterGrid,
    read_mask,
    read_raster,
    resample_nearest,
    window_ratio,
    window_reduce,
    write_raster,
)


def make_raster(width=4, height=3, bands=2, pixel_size=1.0, seed=0, **kw):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(bands, height, width)).astype(np.float32)
    geom = GridGeometry(width, height, pixel_size, **kw)
    return RasterGrid(geom, data, [f"b{i}" for i in range(bands)])


class TestGeometry:
    def test_invalid_dimensions(self):
        with pytest.raises(RasterError):
            GridGeometry(0, 3, 1.0)
        with pytest.raises(RasterError):
            GridGeometry(3, 3, 0.0)

    def test_center_roundtrip(self):
        geom = GridGeometry(7, 5, 0.8, origin_x=100.0, origin_y=200.0)
        rows, cols = np.meshgrid(np.arange(5), np.arange(7), indexing="ij")
        x, y = geom.pixel_center(rows, cols)
        r2, c2 = geom.locate(x, y)
        assert np.allclose(r2, rows)
        assert np.allclose(c2, cols)

    def test_axis_convention(self):
        geom = GridGeometry(4, 4, 2.0, origin_x=0.0, origin_y=8.0)
        x, y = geom.pixel_center(0, 0)
        assert (x, y) == (1.0, 7.0)
        x, y = geom.pixel_center(3, 3)
        assert (x, y) == (7.0, 1.0)


class TestIO:
    def test_roundtrip_identity(self, tmp_path):
        raster = make_raster(width=5, height=4, bands=3, pixel_size=0.8)
        write_raster(raster, tmp_path / "r.hdr")
        back = read_raster(tmp_path / "r.hdr")
        assert back.geometry == raster.geometry
        assert back.band_names == raster.band_names
        assert np.array_equal(back.data, raster.data)

    def test_single_zero_sample_bytes(self, tmp_path):
        geom = GridGeometry(1, 1, 1.0)
        raster = RasterGrid(geom, np.zeros((1, 1, 1), dtype=np.float32), ["z"])
        write_raster(raster, tmp_path / "z")
        assert (tmp_path / "z.bin").read_bytes() == b"\x00\x00\x00\x00"

    def test_write_is_deterministic(self, tmp_path):
        raster = make_raster(seed=3)
        write_raster(raster, tmp_path / "a")
        write_raster(raster, tmp_path / "b")
        assert (tmp_path / "a.hdr").read_bytes() == (tmp_path / "b.hdr").read_bytes()
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_band_sequential_layout(self, tmp_path):
        raster = make_raster(width=3, height=2, bands=2)
        write_raster(raster, tmp_path / "r")
        raw = np.frombuffer((tmp_path / "r.bin").read_bytes(), dtype="<f4")
        assert np.array_equal(raw[:6].reshape(2, 3), raster.data[0])
        assert np.array_equal(raw[6:].reshape(2, 3), raster.data[1])

    def test_short_data_file(self, tmp_path):
        raster = make_raster()
        write_raster(raster, tmp_path / "r")
        payload = (tmp_path / "r.bin").read_bytes()
        (tmp_path / "r.bin").write_bytes(payload[:-4])
        with pytest.raises(RasterError, match="bytes"):
            read_raster(tmp_path / "r")

    def test_zero_pixel_size_header(self, tmp_path):
        raster = make_raster()
        write_raster(raster, tmp_path / "r")
        hdr = (tmp_path / "r.hdr").read_text().replace("pixel_size = 1", "pixel_size = 0")
        (tmp_path / "r.hdr").write_text(hdr)
        with pytest.raises(RasterError, match="pixel_size"):
            read_raster(tmp_path / "r")

    def test_unknown_header_key(self, tmp_path):
        raster = make_raster()
        write_raster(raster, tmp_path / "r")
        with open(tmp_path / "r.hdr", "a") as fh:
            fh.write("bogus = 1\n")
        with pytest.raises(RasterError, match="bogus"):
            read_raster(tmp_path / "r")

    def test_missing_file(self, tmp_path):
        with pytest.raises(RasterError, match="missing"):
            read_raster(tmp_path / "nope")

    def test_mask_round_trip(self, tmp_path):
        bits = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)
        mask = BinaryMask(GridGeometry(3, 2, 1.0), bits)
        write_raster(mask.as_raster("m"), tmp_path / "m")
        back = read_mask(tmp_path / "m.hdr")
        assert back.bits.dtype == np.uint8
        assert np.array_equal(back.bits, bits)

    @pytest.mark.parametrize("value", [0.7, 1.9, 2.0, -1.0])
    def test_mask_sample_other_than_0_or_1_rejected(self, tmp_path, value):
        """The samples are checked as floats: 0.7 is not cast to 0, nor 1.9
        to 1."""
        data = np.zeros((1, 2, 3), dtype=np.float32)
        data[0, 1, 2] = value
        write_raster(RasterGrid(GridGeometry(3, 2, 1.0), data, ["m"]), tmp_path / "m")
        with pytest.raises(RasterError, match=r"m\.hdr: mask values must be 0 or 1"):
            read_mask(tmp_path / "m.hdr")

    def test_mask_with_two_bands_rejected(self, tmp_path):
        write_raster(make_raster(bands=2), tmp_path / "m")
        with pytest.raises(RasterError, match=r"m\.hdr: mask file has 2 bands"):
            read_mask(tmp_path / "m.hdr")

    def test_nonfinite_rejected_without_nodata(self):
        geom = GridGeometry(2, 1, 1.0)
        data = np.array([[[1.0, np.nan]]], dtype=np.float32)
        with pytest.raises(RasterError, match="non-finite"):
            RasterGrid(geom, data, ["b"])


class TestResample:
    def test_identity(self):
        raster = make_raster(width=6, height=5, pixel_size=0.8)
        out = resample_nearest(raster, raster.geometry)
        assert np.array_equal(out.data, raster.data)

    def test_duplication_from_single_pixel(self):
        geom = GridGeometry(1, 1, 3.2, origin_x=0.0, origin_y=3.2)
        src = RasterGrid(geom, np.full((1, 1, 1), 7.5, dtype=np.float32), ["b"])
        target = GridGeometry(4, 4, 0.8, origin_x=0.0, origin_y=3.2)
        out = resample_nearest(src, target)
        assert np.array_equal(out.data, np.full((1, 4, 4), 7.5, dtype=np.float32))

    def test_nearest_center_against_bruteforce(self):
        geom = GridGeometry(2, 2, 1.0, origin_x=0.0, origin_y=2.0)
        src = RasterGrid(geom, np.arange(4, dtype=np.float32).reshape(1, 2, 2), ["b"])
        target = GridGeometry(4, 4, 0.5, origin_x=0.0, origin_y=2.0)
        out = resample_nearest(src, target)
        for tr in range(4):
            for tc in range(4):
                tx, ty = target.pixel_center(tr, tc)
                best = min(
                    ((sr, sc) for sr in range(2) for sc in range(2)),
                    key=lambda rc: (geom.pixel_center(*rc)[0] - tx) ** 2
                    + (geom.pixel_center(*rc)[1] - ty) ** 2,
                )
                assert out.data[0, tr, tc] == src.data[0, best[0], best[1]]

    def test_outside_extent_rejected(self):
        geom = GridGeometry(2, 2, 1.0, origin_x=0.0, origin_y=2.0)
        src = RasterGrid(geom, np.ones((1, 2, 2), dtype=np.float32), ["b"])
        for target in (GridGeometry(4, 4, 1.0, origin_x=0.0, origin_y=4.0),
                       GridGeometry(2, 2, 1.0, origin_x=0.5, origin_y=2.0)):
            with pytest.raises(RasterError, match="not inside the source"):
                resample_nearest(src, target)

    def test_idempotent_on_same_geometry(self):
        raster = make_raster(width=5, height=5, pixel_size=2.0)
        once = resample_nearest(raster, raster.geometry)
        twice = resample_nearest(once, raster.geometry)
        assert np.array_equal(once.data, twice.data)


class TestWindowRatio:
    def test_constant_masks(self):
        geom = GridGeometry(5, 5, 1.0)
        ones = BinaryMask(geom, np.ones((5, 5), dtype=np.uint8))
        zeros = BinaryMask(geom, np.zeros((5, 5), dtype=np.uint8))
        assert (window_ratio(ones, 3).data == 1.0).all()
        assert (window_ratio(zeros, 3).data == 0.0).all()

    def test_single_center_pixel(self):
        geom = GridGeometry(3, 3, 1.0)
        bits = np.zeros((3, 3), dtype=np.uint8)
        bits[1, 1] = 1
        out = window_ratio(BinaryMask(geom, bits), 3).data[0]
        assert out[1, 1] == pytest.approx(1 / 9)
        assert out[0, 0] == pytest.approx(1 / 4)

    def test_even_window_rejected(self):
        geom = GridGeometry(3, 3, 1.0)
        mask = BinaryMask(geom, np.zeros((3, 3), dtype=np.uint8))
        with pytest.raises(RasterError):
            window_ratio(mask, 4)

    def test_matches_direct_enumeration(self):
        rng = np.random.default_rng(5)
        bits = (rng.random((7, 6)) < 0.4).astype(np.uint8)
        geom = GridGeometry(6, 7, 1.0)
        out = window_ratio(BinaryMask(geom, bits), 5).data[0]
        for r in range(7):
            for c in range(6):
                r0, r1 = max(0, r - 2), min(7, r + 3)
                c0, c1 = max(0, c - 2), min(6, c + 3)
                expected = bits[r0:r1, c0:c1].mean()
                assert out[r, c] == pytest.approx(expected)
        assert (out >= 0).all() and (out <= 1).all()


class TestWindowReduce:
    @pytest.mark.parametrize("op", [np.minimum, np.maximum, np.logical_or])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_matches_each_window_reduced_directly(self, op, axis):
        """Every length from 1 to the whole axis, on an axis of 19 samples
        with ties, against ``op.reduce`` over each window."""
        shape = [3, 4, 5]
        shape[axis] = 19
        values = np.random.default_rng(axis).integers(0, 4, size=shape)
        if op is np.logical_or:
            values = values == 0
        values = np.moveaxis(values, axis, 0)
        for length in range(1, 20):
            want = np.stack([op.reduce(values[i:i + length], axis=0)
                             for i in range(19 - length + 1)])
            got = window_reduce(np.moveaxis(values, 0, axis), length, op, axis)
            assert np.array_equal(np.moveaxis(got, axis, 0), want), length

    def test_operation_count(self):
        """floor(log2 length) + 1 operations at most, one per doubling and
        one to join two overlapping spans."""
        calls = []

        def op(x, y):
            calls.append(x.shape)
            return np.maximum(x, y)

        values = np.arange(100.0)
        for length, count in [(1, 0), (2, 1), (3, 2), (4, 2), (7, 3), (8, 3), (9, 4), (64, 6)]:
            calls.clear()
            assert np.array_equal(window_reduce(values, length, op), values[length - 1:])
            assert len(calls) == count, length

    @pytest.mark.parametrize("length", [0, -1, 6])
    def test_window_longer_than_the_axis_rejected(self, length):
        with pytest.raises(RasterError, match="window"):
            window_reduce(np.zeros((5, 3)), length, np.minimum)
