import math

import numpy as np
import pytest

from aquafuse.raster import (
    BinaryMask,
    GridGeometry,
    RasterError,
    RasterGrid,
    read_header,
    read_mask,
    read_raster,
    resample_nearest,
    row_blocks,
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

    @pytest.mark.parametrize("args,message", [
        ((3, 3, math.inf), "pixel_size must be finite and > 0, got inf"),
        ((3, 3, math.nan), "pixel_size must be finite and > 0, got nan"),
        ((3, 3, 1.0, math.inf, 0.0), "origin must be finite, got \\(inf, 0.0\\)"),
        ((3, 3, 1.0, 0.0, math.nan), "origin must be finite, got \\(0.0, nan\\)"),
    ], ids=["pixel-size-inf", "pixel-size-nan", "ulx-inf", "uly-nan"])
    def test_non_finite_size_or_origin_rejected(self, args, message):
        with pytest.raises(RasterError, match=message):
            GridGeometry(*args)

    def test_raster_without_bands_rejected(self):
        with pytest.raises(RasterError, match="at least 1 band"):
            RasterGrid(GridGeometry(2, 2, 1.0), np.zeros((0, 2, 2)))

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

    def test_header_alone(self, tmp_path):
        raster = make_raster(width=5, height=4, bands=3, pixel_size=0.8, origin_y=3.2)
        write_raster(raster, tmp_path / "r.hdr")
        (tmp_path / "r.bin").unlink()
        assert read_header(tmp_path / "r.hdr") == (raster.geometry, 3, raster.band_names)
        with pytest.raises(RasterError, match="missing file: .*r.bin"):
            read_raster(tmp_path / "r.hdr")

    @pytest.mark.parametrize("old,new,message", [
        ("bands = 3", "bands = 0", "bands must be at least 1, got 0"),
        ("bands = 3", "bands = -3", "bands must be at least 1, got -3"),
        ("band_names = b0,b1,b2", "band_names = b0,b1",
         "band_names length does not match band count"),
        ("band_names = b0,b1,b2", "band_names = b0,b1,b2,b3",
         "band_names length does not match band count"),
    ])
    def test_header_band_rules(self, tmp_path, old, new, message):
        """The header alone is held to the band rules of a full read."""
        write_raster(make_raster(bands=3), tmp_path / "r")
        hdr = (tmp_path / "r.hdr").read_text()
        assert f"\n{old}\n" in hdr
        (tmp_path / "r.hdr").write_text(hdr.replace(old, new))
        for read in (read_header, read_raster):
            with pytest.raises(RasterError, match=rf"r\.hdr: {message}$"):
                read(tmp_path / "r.hdr")

    def test_missing_file(self, tmp_path):
        with pytest.raises(RasterError, match="missing"):
            read_raster(tmp_path / "nope")

    def test_mask_round_trip(self, tmp_path):
        bits = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)
        mask = BinaryMask(GridGeometry(3, 2, 1.0), bits)
        write_raster(RasterGrid(mask.geometry, mask.bits.astype(np.float32), ["m"]),
                     tmp_path / "m")
        back = read_mask(tmp_path / "m.hdr")
        assert back.bits.dtype == bool
        assert np.array_equal(back.bits, bits)

    def test_bool_bits_kept_without_a_copy(self):
        bits = np.array([[False, True, True], [True, False, False]])
        mask = BinaryMask(GridGeometry(3, 2, 1.0), bits)
        assert mask.bits.dtype == bool
        assert np.shares_memory(mask.bits, bits)

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


def _random_grid_pair(rng, case):
    """(source, target) grids at a random origin: a 30 m or a 3.2 m source
    over the 0.8 m PAN grid of its area (ratios 37.5 and 4).  "shifted" takes
    a target up to two source pixels smaller and moves it east and south by
    -1/4 to 1 source pixel; "short" makes the target one pixel wider or
    taller than the source."""
    size = float(rng.choice([30.0, 3.2]))
    n = 2 * int(rng.integers(1, 5))  # 37.5 target pixels to a 30 m one, so an even count
    ox, oy = (float(v) for v in rng.uniform(-100.0, 100.0, 2))
    src = GridGeometry(n, n, size, ox, oy)
    w = h = round(n * size / 0.8)
    if case == "shifted":
        w, h = (int(v) for v in w - rng.integers(0, 2 * size / 0.8 + 1, 2))
        dx, dy = (float(v) for v in rng.uniform(-size / 4, size, 2))
        ox, oy = ox + dx, oy - dy
    elif case == "short":
        w, h = (w + 1, h) if rng.random() < 0.5 else (w, h + 1)
    return src, GridGeometry(w, h, 0.8, ox, oy)


def _all_centers(geom):
    rows, cols = np.meshgrid(np.arange(geom.height), np.arange(geom.width), indexing="ij")
    return geom.pixel_center(rows, cols)


def _every_center_in(src, target):
    """The reference for ``covers``: the pixel of every center of ``target``,
    not only its corners', is in range on ``src``."""
    row, col = src.pixel_of(*_all_centers(target))
    return bool(((row >= 0) & (row < src.height) & (col >= 0) & (col < src.width)).all())


GRID_PAIRS = [(case, seed) for case in ("same-area", "shifted", "short") for seed in range(12)]
COVERING_PAIRS = [(case, seed) for case, seed in GRID_PAIRS
                  if _every_center_in(*_random_grid_pair(np.random.default_rng(seed), case))]


class TestPixelOf:
    """The one nearest-pixel rule against references that do not use it."""

    def test_floor_of_the_offset(self):
        geom = GridGeometry(4, 3, 2.0, origin_x=10.0, origin_y=6.0)
        row, col = geom.pixel_of([10.0, 11.9, 12.0, 17.9, 9.9], [6.0, 4.1, 4.0, 0.1, 6.1])
        assert row.tolist() == [0, 0, 1, 2, -1]
        assert col.tolist() == [0, 0, 1, 3, -1]

    def test_own_centers(self):
        geom = GridGeometry(7, 5, 0.8, origin_x=100.0, origin_y=200.0)
        rows, cols = np.meshgrid(np.arange(5), np.arange(7), indexing="ij")
        row, col = geom.pixel_of(*geom.pixel_center(rows, cols))
        assert np.array_equal(row, rows) and np.array_equal(col, cols)

    @pytest.mark.parametrize("case,seed", GRID_PAIRS)
    def test_covers_is_every_center_in_range(self, case, seed):
        """``covers`` reads four corner centers; the reference looks up every
        center of the target."""
        src, target = _random_grid_pair(np.random.default_rng(seed), case)
        every = _every_center_in(src, target)
        assert src.covers(target) == every
        assert every == (case == "same-area") or case == "shifted"

    def test_shifted_pairs_both_cover_and_not(self):
        assert 0 < sum(case == "shifted" for case, _ in COVERING_PAIRS) < 12

    def test_a_pixel_short_does_not_cover(self):
        src = GridGeometry(8, 8, 30.0, origin_y=240.0)
        assert src.covers(GridGeometry(300, 300, 0.8, origin_y=240.0))
        assert not src.covers(GridGeometry(301, 300, 0.8, origin_y=240.0))
        assert not src.covers(GridGeometry(300, 301, 0.8, origin_y=240.0))
        assert not src.covers(GridGeometry(300, 300, 0.8, 30.0, 240.0))
        assert GridGeometry(300, 300, 0.8, origin_y=240.0).covers(src)
        geom = GridGeometry(2, 2, 1.0, origin_x=0.0, origin_y=2.0)
        assert not geom.covers(GridGeometry(4, 4, 1.0, origin_x=0.0, origin_y=4.0))
        assert not geom.covers(GridGeometry(2, 2, 1.0, origin_x=0.5, origin_y=2.0))


class TestResample:
    def test_identity(self):
        raster = make_raster(width=6, height=5, pixel_size=0.8)
        out = resample_nearest(raster.data, raster.geometry, raster.geometry)
        assert np.array_equal(out, raster.data)

    def test_duplication_from_single_pixel(self):
        geom = GridGeometry(1, 1, 3.2, origin_x=0.0, origin_y=3.2)
        target = GridGeometry(4, 4, 0.8, origin_x=0.0, origin_y=3.2)
        out = resample_nearest(np.full((1, 1, 1), 7.5, dtype=np.float32), geom, target)
        assert np.array_equal(out, np.full((1, 4, 4), 7.5, dtype=np.float32))

    def test_nearest_center_against_bruteforce(self):
        geom = GridGeometry(2, 2, 1.0, origin_x=0.0, origin_y=2.0)
        data = np.arange(4, dtype=np.float32).reshape(1, 2, 2)
        target = GridGeometry(4, 4, 0.5, origin_x=0.0, origin_y=2.0)
        out = resample_nearest(data, geom, target)
        for tr in range(4):
            for tc in range(4):
                tx, ty = target.pixel_center(tr, tc)
                best = min(
                    ((sr, sc) for sr in range(2) for sc in range(2)),
                    key=lambda rc: (geom.pixel_center(*rc)[0] - tx) ** 2
                    + (geom.pixel_center(*rc)[1] - ty) ** 2,
                )
                assert out[0, tr, tc] == data[0, best[0], best[1]]

    @pytest.mark.parametrize("case,seed", COVERING_PAIRS)
    def test_nearest_center_on_random_grid_pairs(self, case, seed):
        """On a source that covers the target, each target pixel takes a
        source pixel whose center is nearest to its own along each axis
        (square pixels), a tie either way."""
        src, target = _random_grid_pair(np.random.default_rng(seed), case)
        ids = np.arange(src.height * src.width).reshape(src.height, src.width)
        out = resample_nearest(ids, src, target)
        tx, ty = _all_centers(target)
        sx, _ = src.pixel_center(0, np.arange(src.width))
        _, sy = src.pixel_center(np.arange(src.height), 0)
        dx = np.abs(tx[..., None] - sx)  # (h, w, source columns)
        dy = np.abs(ty[..., None] - sy)  # (h, w, source rows)
        row, col = np.divmod(out, src.width)
        tol = 1e-9 * src.pixel_size
        assert (np.take_along_axis(dx, col[..., None], -1)[..., 0]
                <= dx.min(axis=-1) + tol).all()
        assert (np.take_along_axis(dy, row[..., None], -1)[..., 0]
                <= dy.min(axis=-1) + tol).all()

    def test_idempotent_on_same_geometry(self):
        raster = make_raster(width=5, height=5, pixel_size=2.0)
        once = resample_nearest(raster.data, raster.geometry, raster.geometry)
        twice = resample_nearest(once, raster.geometry, raster.geometry)
        assert np.array_equal(once, twice)


class TestWindowRatio:
    def test_constant_masks(self):
        assert (window_ratio(np.ones((5, 5), dtype=bool), 3) == 1.0).all()
        assert (window_ratio(np.zeros((5, 5), dtype=bool), 3) == 0.0).all()

    def test_single_center_pixel(self):
        bits = np.zeros((3, 3), dtype=bool)
        bits[1, 1] = True
        out = window_ratio(bits, 3)
        assert out.dtype == np.float32
        assert out[1, 1] == pytest.approx(1 / 9)
        assert out[0, 0] == pytest.approx(1 / 4)

    def test_matches_direct_enumeration(self):
        rng = np.random.default_rng(5)
        bits = rng.random((7, 6)) < 0.4
        out = window_ratio(bits, 5)
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


class TestRowBlocks:
    @pytest.mark.parametrize("size", range(3, 11))
    def test_blocks_cover_the_rows_in_order_and_none_has_one_row(self, size):
        for n in range(300):
            blocks = row_blocks(n, size)
            assert [i for block in blocks for i in range(n)[block]] == list(range(n))
            lengths = [len(range(n)[block]) for block in blocks]
            assert len(blocks) == -(-n // size)
            assert all(0 < length <= size for length in lengths)
            assert not lengths or max(lengths) - min(lengths) <= 1
            if n >= 2:
                assert min(lengths) >= 2

    def test_size_two_leaves_one_row_alone(self):
        assert row_blocks(3, 2) == [slice(0, 1), slice(1, 3)]
