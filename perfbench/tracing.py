"""Spans and counts recorded from outside the program.

The stages reach every library function through names bound in the
`aquafuse.cli` module, so replacing those names with wrappers times each call
into a layer without touching the program.  A span is one call: its metric
name, start, end, parent span and pass id.  Spans stay in memory and are
written out when the benchmark ends.

Per-layer times are self times (span minus its child spans), except the
`cli.<stage>_s` stage spans, which are whole stage durations and so add up to
the pass.  Counts are computed here from each call's arguments and return
value, after the call's span has ended.
"""

from __future__ import annotations

import functools
import statistics
import time
import tracemalloc
from pathlib import Path

MIB = float(1 << 20)


def _bin_size(path) -> int:
    return Path(path).with_suffix(".bin").stat().st_size


def _count_scene(args, kwargs, result):
    spec = args[0]
    ex, ey = spec.extent
    return {"scene.supersample_mpx": (ex / 0.1) * (ey / 0.1) / 1e6,
            "scene.features": len(spec.features)}


def _count_read(args, kwargs, result):
    return {"raster.read_calls": 1, "raster.read_mib": _bin_size(args[0]) / MIB}


def _count_write(args, kwargs, result):
    return {"raster.write_calls": 1, "raster.write_mib": _bin_size(args[1]) / MIB}


def _count_classified(args, kwargs, result):
    return {"spectral.classified_mpx": args[1].data[0].size / 1e6}


def _count_kmeans(args, kwargs, result):
    pan, mps = args[0], args[1]
    return {"segmentation.kmeans_features": pan.data[0].size * (pan.bands + mps.bands),
            "segmentation.segments": len(result.records)}


def _count_table_save(args, kwargs, result):
    return {"segmentation.table_bytes": Path(args[1]).stat().st_size}


def _count_table_load(args, kwargs, result):
    return {"segmentation.table_bytes": Path(args[0]).stat().st_size}


def _count_shadow_mask(args, kwargs, result):
    return {"shadow.mask_px": int(result.bits.sum())}


def _count_fusion(args, kwargs, result):
    records, params = args[0].records, args[1]
    gate = params.n2 * params.r_l
    return {"fusion.segments": len(records),
            "fusion.landsat_active": sum(1 for rec in records if rec.w >= gate),
            "fusion.water_segments": sum(1 for flag in result[1] if flag)}


def _count_relabel(args, kwargs, result):
    return {"postclass.relabeled":
            sum(1 for before, after in zip(args[0], result) if before and not after)}


def _count_unmix(args, kwargs, result):
    return {"postclass.unmix_flipped_px": int((args[0].bits != result.bits).sum())}


def _count_samples(args, kwargs, result):
    return {"evaluate.samples": len(result)}


# (name in aquafuse.cli, span metric, counter or None)
PROBES = (
    ("generate_scene", "scene.generate_s", _count_scene),
    ("parse_scene", "scene.parse_s", None),
    ("read_raster", "raster.read_s", _count_read),
    ("read_mask", "raster.read_s", _count_read),
    ("write_raster", "raster.write_s", _count_write),
    ("resample_nearest", "raster.resample_s", None),
    ("fit_classifier", "spectral.fit_s", None),
    ("classify_probabilities", "spectral.classify_s", _count_classified),
    ("pca_fuse", "spectral.pca_fuse_s", None),
    ("landsat_water_index", "spectral.water_index_s", None),
    ("otsu_threshold", "spectral.otsu_s", None),
    ("morphological_profiles", "segmentation.profiles_s", None),
    ("kmeans_segment", "segmentation.kmeans_s", _count_kmeans),
    ("segment_stats", "segmentation.stats_s", None),
    ("save_segment_stats", "segmentation.table_io_s", _count_table_save),
    ("load_segment_stats", "segmentation.table_io_s", _count_table_load),
    ("building_intensity_map", "shadow.intensity_s", None),
    ("potential_shadow_mask", "shadow.mask_s", _count_shadow_mask),
    ("fuse_all_segments", "fusion.fuse_s", _count_fusion),
    ("relabel_shadow_segments", "postclass.relabel_s", _count_relabel),
    ("boundary_unmix", "postclass.unmix_s", _count_unmix),
    ("stratified_sample", "evaluate.sample_s", _count_samples),
    ("confusion_matrix", "evaluate.report_s", None),
    ("format_report", "evaluate.report_s", None),
)

STAGES = ("synth", "train", "classify-ms", "water-index", "pca-fuse", "segment",
          "shadow", "fuse", "postclass", "evaluate")
# layers whose peak allocation is measured, in a separate tracemalloc pass
ALLOC_LAYERS = ("scene", "segmentation", "postclass")


def stage_metric(stage: str) -> str:
    return f"cli.{stage.replace('-', '_')}_s"


def span_metrics():
    """Stage spans, then each probe metric once (some probes share one)."""
    names = [stage_metric(s) for s in STAGES] + [metric for _, metric, _ in PROBES]
    return list(dict.fromkeys(names))


def count_metrics():
    return ["scene.supersample_mpx", "scene.features", "raster.read_calls",
            "raster.read_mib", "raster.write_calls", "raster.write_mib",
            "spectral.classified_mpx", "segmentation.kmeans_features",
            "segmentation.segments", "segmentation.table_bytes", "shadow.mask_px",
            "shadow.truth_coverage", "fusion.segments", "fusion.landsat_active",
            "fusion.water_segments", "postclass.relabeled",
            "postclass.unmix_flipped_px", "evaluate.samples"]


def alloc_metrics():
    return [f"{layer}.peak_alloc_mib" for layer in ALLOC_LAYERS]


# the traced pass's median wall time, its excess over the untraced median, and
# the counter calls that failed on an argument they no longer understand
TRACE_METRICS = ["trace.pipeline_s", "trace.overhead_s", "trace.counter_errors"]


def layer_metrics():
    """Every per-layer metric, in the order they are printed."""
    return span_metrics() + count_metrics() + alloc_metrics() + TRACE_METRICS


class Tracer:
    """Installs wrappers on the `aquafuse.cli` namespace for one pass at a
    time.  mode "spans" records spans and counts; mode "alloc" measures the
    peak traced allocation of each ALLOC_LAYERS call and records nothing else.
    """

    def __init__(self, cli):
        self.cli = cli
        self.spans = []         # [metric, start, end, parent index, pass id]
        self.counts = {}        # pass id -> {metric: value}
        self.peaks = {}         # pass id -> {layer: bytes}
        self.counter_errors = 0
        self._stack = []
        self._pass = None
        self._mode = None
        self._saved = {}

    # -- installation -------------------------------------------------------

    def install(self, pass_id: int, mode: str) -> None:
        self._pass, self._mode = pass_id, mode
        self.counts.setdefault(pass_id, {})
        self.peaks.setdefault(pass_id, {})
        cli = self.cli
        for name, metric, counter in PROBES:
            if hasattr(cli, name):
                self._patch(name, self._wrap(getattr(cli, name), metric, counter))
        if mode == "spans":
            order = getattr(cli, "RUN_ALL_ORDER", None)
            commands = getattr(cli, "COMMANDS", None)
            if order is not None:
                self._patch("RUN_ALL_ORDER", tuple(
                    (stage, self._wrap(fn, stage_metric(stage), None)) for stage, fn in order))
            if commands is not None:
                self._patch("COMMANDS", {
                    stage: self._wrap(fn, stage_metric(stage), None) if stage in STAGES else fn
                    for stage, fn in commands.items()})

    def uninstall(self) -> None:
        for name, value in self._saved.items():
            setattr(self.cli, name, value)
        self._saved.clear()
        self._pass = self._mode = None

    def _patch(self, name, value):
        self._saved.setdefault(name, getattr(self.cli, name))
        setattr(self.cli, name, value)

    # -- spans --------------------------------------------------------------

    def open_span(self, metric: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([metric, time.perf_counter(), None, parent, self._pass])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close_span(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, metric, counter):
        layer = metric.split(".", 1)[0]
        tracer = self

        if self._mode == "alloc":
            if layer not in ALLOC_LAYERS:
                return fn

            @functools.wraps(fn)
            def measured(*args, **kwargs):
                if tracemalloc.is_tracing():
                    return fn(*args, **kwargs)
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    peaks = tracer.peaks[tracer._pass]
                    peaks[layer] = max(peaks.get(layer, 0), peak)
            return measured

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open_span(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close_span(index)
            if counter is not None:
                tracer._count(counter, args, kwargs, result)
            return result
        return traced

    def _count(self, counter, args, kwargs, result) -> None:
        try:
            values = counter(args, kwargs, result)
        except Exception:       # an API the counter no longer understands
            self.counter_errors += 1
            return
        counts = self.counts[self._pass]
        for name, value in values.items():
            counts[name] = counts.get(name, 0) + value

    # -- aggregation --------------------------------------------------------

    def spans_as_records(self):
        return [{"name": m, "start": s, "end": e, "parent": p, "pass": pid}
                for m, s, e, p, pid in self.spans]


def self_times(spans, pass_id) -> dict:
    """Sum per metric over one pass's spans; `cli.*` spans count whole,
    every other span counts its duration minus its direct children's."""
    child_time = {}
    for metric, start, end, parent, pid in spans:
        if pid == pass_id and parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals = {}
    for index, (metric, start, end, parent, pid) in enumerate(spans):
        if pid != pass_id:
            continue
        value = end - start
        if not metric.startswith("cli."):
            value -= child_time.get(index, 0.0)
        totals[metric] = totals.get(metric, 0.0) + value
    return totals


def median_over(passes, per_pass: dict, names) -> dict:
    """Median of each metric over the given passes (absent counts as 0)."""
    return {name: statistics.median(per_pass[p].get(name, 0.0) for p in passes)
            for name in names}
