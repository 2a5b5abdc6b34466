"""Quick tests of the benchmark's own logic.

    python3 -m pytest perfbench/test_perfbench.py -q

The last test renders the 480 m tiling, which takes about half a minute and
1.1 GiB of memory.
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- self time --------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [  # metric, start, end, parent, pass id
        ["pass", 0.0, 10.0, None, 1],
        ["cli.segment_s", 1.0, 9.0, 0, 1],
        ["segmentation.kmeans_s", 2.0, 5.0, 1, 1],
        ["raster.read_s", 3.0, 4.0, 2, 1],
        ["segmentation.stats_s", 6.0, 8.0, 1, 1],
        ["segmentation.kmeans_s", 20.0, 30.0, None, 2],   # another pass
    ]
    times = tracing.self_times(spans, 1)
    assert times["segmentation.kmeans_s"] == pytest.approx(2.0)
    assert times["raster.read_s"] == pytest.approx(1.0)
    assert times["segmentation.stats_s"] == pytest.approx(2.0)
    assert times["cli.segment_s"] == pytest.approx(8.0)   # stage spans count whole
    assert times["pass"] == pytest.approx(2.0)


def test_self_time_sums_repeated_calls():
    spans = [["raster.read_s", 0.0, 1.5, None, 0], ["raster.read_s", 2.0, 2.5, None, 0]]
    assert tracing.self_times(spans, 0)["raster.read_s"] == pytest.approx(2.0)


def test_tracer_nests_spans_and_restores_the_namespace():
    ns = types.SimpleNamespace()
    ns.parse_scene = lambda text: text.upper()
    ns.generate_scene = lambda spec: ns.parse_scene(spec)

    def synth():
        return ns.generate_scene("abc")

    ns.RUN_ALL_ORDER = (("synth", synth),)
    ns.COMMANDS = dict(ns.RUN_ALL_ORDER)
    originals = (ns.parse_scene, ns.generate_scene, ns.RUN_ALL_ORDER, ns.COMMANDS)
    tracer = tracing.Tracer(ns)
    tracer.install(7, "spans")
    assert ns.RUN_ALL_ORDER[0][1]() == "ABC"
    tracer.uninstall()
    assert (ns.parse_scene, ns.generate_scene, ns.RUN_ALL_ORDER, ns.COMMANDS) == originals
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("cli.synth_s", None, 7), ("scene.generate_s", 0, 7),
                     ("scene.parse_s", 1, 7)]
    assert tracer.counter_errors == 1     # "abc" has no extent: counted, not raised


# -- correctness check ------------------------------------------------------

GOOD = {"water_final": (100.0, 100.0, 100.0), "pgm_water": (100.0, 97.4, 98.7),
        "ms_water": (95.7, 94.4, 95.0), "pca_water": (99.7, 85.7, 91.5),
        "pan_water": (100.0, 84.3, 90.7), "landsat_water": (76.7, 99.1, 88.0)}
# wrong pixels per map on an 8 x 8 truth grid
ORDERED = {"water_final": 0, "pgm_water": 1, "ms_water": 3, "pca_water": 4,
           "pan_water": 5, "landsat_water": 16}


def _write_map(out, stem, bits, pixel=1.0):
    h, w = bits.shape
    (out / f"{stem}.hdr").write_text(
        f"samples = {w}\nlines = {h}\nbands = 1\ndata_type = float32le\n"
        f"interleave = bsq\npixel_size = {pixel}\nulx = 0\nuly = 8\nband_names = b\n")
    bits.astype("<f4").tofile(out / f"{stem}.bin")


def _write_pass(out, wrong=ORDERED, table=GOOD):
    """Reports from `table`; maps that miss `wrong[stem]` truth pixels.  The
    Landsat map sits on a 2 x 2 grid of 4-unit pixels, missing whole blocks."""
    truth = np.zeros((8, 8), dtype=bool)
    truth[:, :4] = True
    _write_map(out, "truth", truth)
    for stem, n in wrong.items():
        if stem == "landsat_water":
            coarse = np.array([[True, False], [True, False]])
            coarse.flat[:n // 16] = ~coarse.flat[:n // 16]
            _write_map(out, stem, coarse, pixel=4.0)
            continue
        bits = truth.copy()
        bits.flat[:n] = ~bits.flat[:n]
        _write_map(out, stem, bits)
    for stem, (pa, ua, oa) in table.items():
        (out / f"report_{stem}.txt").write_text(
            f"Confusion matrix for {stem}\nPA(water) = {pa}%   UA(water) = {ua}%   OA = {oa}%\n"
            f"pa={pa},ua={ua},oa={oa}\n")


def test_check_accepts_an_ordered_pass_matching_the_readme(tmp_path):
    _write_pass(tmp_path)
    reports, note = check.check_pass(tmp_path, check.readme_table(ROOT / "README.md"))
    assert reports == GOOD and note is None
    acc = check.map_accuracy(tmp_path)
    assert acc["pgm_water"] == pytest.approx(100.0 * 63 / 64)
    assert acc["landsat_water"] == pytest.approx(75.0)


@pytest.mark.parametrize("stem, wrong", [("water_final", 2),     # final below fused
                                         ("ms_water", 0),        # a single source above fused
                                         ("landsat_water", 0)])  # ... on a coarser grid
def test_check_rejects_broken_ordering(tmp_path, stem, wrong):
    _write_pass(tmp_path, dict(ORDERED, **{stem: wrong}))
    with pytest.raises(check.CheckError, match="ordering"):
        check.check_pass(tmp_path)


def test_check_notes_a_sampled_swap_the_whole_map_does_not_show(tmp_path):
    _write_pass(tmp_path, table=dict(GOOD, water_final=(100.0, 96.9, 98.5)))
    _, note = check.check_pass(tmp_path)
    assert note.startswith("sampled OA order swapped")


def test_check_rejects_missing_report_and_readme_mismatch(tmp_path):
    _write_pass(tmp_path, table=dict(GOOD, pgm_water=(100.0, 97.5, 98.7)))
    with pytest.raises(check.CheckError, match="README"):
        check.check_pass(tmp_path, check.readme_table(ROOT / "README.md"))
    (tmp_path / "report_pan_water.txt").unlink()
    with pytest.raises(check.CheckError, match="missing"):
        check.check_pass(tmp_path)


# -- workload inputs --------------------------------------------------------

def test_pass_zero_uses_the_fixture_and_later_passes_follow_the_seed(tmp_path):
    from aquafuse.scene import parse_scene
    first = workloads.write_inputs(ROOT, "bundled", 3, 0, tmp_path, parse_scene)
    assert first.scene_is_fixture and first.pipeline_seed == 0
    later = workloads.write_inputs(ROOT, "bundled", 3, 2, tmp_path, parse_scene)
    assert later.scene_is_fixture and later.pipeline_seed == 3002
    assert "seed = 3002" in later.config.read_text()


def test_scene_check_rejects_extent_off_the_240m_grid():
    from aquafuse.scene import SceneError, parse_scene
    text = (ROOT / workloads.FIXTURE).read_text().replace("extent 240 240", "extent 240 216")
    with pytest.raises(SceneError):
        workloads.check_scene(text, parse_scene)
    with pytest.raises(workloads.WorkloadError, match="multiple of 240"):
        workloads.check_scene("", lambda text: types.SimpleNamespace(extent=(240.0, 120.0)))


def test_tiler_output_parses_and_renders_at_480m():
    from aquafuse.scene import generate_scene, parse_scene
    fixture = parse_scene((ROOT / workloads.FIXTURE).read_text())
    spec = workloads.check_scene(
        workloads.tile_scene((ROOT / workloads.FIXTURE).read_text(), 2, 2), parse_scene)
    assert spec.extent == (480.0, 480.0)
    assert len(spec.features) == 4 * len(fixture.features) == 64
    last = spec.features[-1]
    assert last.params == tuple(v + 240.0 for v in fixture.features[-1].params)
    bundle = generate_scene(spec)
    assert bundle.pan.data.shape == (1, 600, 600)
    assert bundle.ms.data.shape == (4, 150, 150)
    assert bundle.landsat[0].data.shape == (7, 16, 16)
    water = bundle.truth.bits.astype(bool)
    quadrants = [water[:300, :300], water[:300, 300:], water[300:, :300], water[300:, 300:]]
    sums = [int(q.sum()) for q in quadrants]     # each tile has its lake and river
    assert min(sums) > 0.95 * max(sums), sums


# -- metric contract --------------------------------------------------------

def test_printed_metrics_match_benchmark_json():
    import json
    import run
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(set(names)) == len(names)
    one_pass = run.PassResult(0, "plain", 0, 1.0, 1.0, 100.0, 99.0)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.end_to_end([one_pass], 0.5))
    assert [m["name"] for m in bench["per_layer"]] == tracing.layer_metrics()
