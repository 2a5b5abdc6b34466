"""Decision-level fusion of PAN, MS and Landsat imagery for water mapping."""

from .raster import (
    BinaryMask,
    GridGeometry,
    RasterError,
    RasterGrid,
    read_mask,
    read_raster,
    resample_nearest,
    window_ratio,
    write_raster,
)
from .spectral import (
    CLASS_ORDER,
    ClassifierModel,
    PcaModel,
    classify_probabilities,
    fit_classifier,
    landsat_water_index,
    otsu_threshold,
    pca_fit,
    pca_fuse,
)
from .segmentation import (
    SegmentMap,
    kmeans_segment,
    morphological_profiles,
    pan_water_probability,
    segment_stats,
    segment_table,
)
from .shadow import (
    ShadowGeometry,
    building_intensity_map,
    classify_segments_majority,
    potential_shadow_mask,
    segment_shadow_proportion,
    tree_grass_split,
)
from .fusion import FusionParams, decide, fuse_all_segments, fuse_pm, fuse_w, sigmoid
from .postclass import relabel_shadow_segments
from .evaluate import (
    AccuracyReport,
    ConfusionMatrix,
    accuracy_metrics,
    confusion_matrix,
    format_report,
    stratified_sample,
)

__version__ = "0.1.0"
