"""How the two-stage fusion weighs its sources by segment size.

The fusion merges three per-segment water probabilities (PAN threshold, MS
classifier, Landsat time-series index).  Two conditional tables control the
blend:

* stage one leans toward the MS result for large or shadowed segments and
  toward the PAN result for thin ones;
* stage two lets the Landsat evidence veto, but only for segments at least
  as large as the Landsat detectability scale (n2 * 30 m).

This script prints the fused probability across segment sizes for the two
flagship situations: a thin river the MS image misses, and a large
low-reflectance field that only the Landsat SWIR bands reject.

Usage:  python demos/fusion_behavior.py
"""

from aquafuse.config import PipelineConfig
from aquafuse.fusion import FusionParams, fuse_pm, fuse_w

# the pipeline's defaults, on the bundled scene's 3.2 m MS and 30 m Landsat
# pixels (the pipeline reads both sizes from the raster headers)
cfg = PipelineConfig()
params = FusionParams(n1=cfg.n1, n2=cfg.n2, r_ms=3.2, r_l=30.0,
                      decision_threshold=cfg.decision_threshold)

print("case 1: thin river -- PAN says water (0.95), MS says probably not (0.40)")
print(f"{'size w (m)':>12} {'fused p':>9} {'decision':>9}")
for w in (1.0, 2.4, 5.0, 10.0, 30.0, 60.0, 120.0):
    p = fuse_w(fuse_pm(0.95, 0.40, w, 0.0, params), 0.0, w, params)
    print(f"{w:12.1f} {p:9.3f} {'water' if p > 0.5 else 'non-water':>9}")
print("Small segments follow the PAN evidence; once the segment is wide")
print("enough for Landsat to see (>= 30 m), its zero vote vetoes.\n")

print("case 2: dark field -- PAN and MS both say water (1.0), Landsat says no (0.0)")
print(f"{'size w (m)':>12} {'fused p':>9} {'decision':>9}")
for w in (10.0, 29.0, 30.0, 48.0, 100.0, 300.0):
    p = fuse_w(fuse_pm(1.0, 1.0, w, 0.0, params), 0.0, w, params)
    print(f"{w:12.1f} {p:9.3f} {'water' if p > 0.5 else 'non-water':>9}")
print("Below the Landsat scale the agreeing PAN+MS vote wins; above it the")
print("multi-date SWIR veto takes over and rejects the false positive.\n")

print("case 3: shadow shifts weight toward the MS classifier")
print(f"{'p_shadow':>9} {'fused p':>9}")
for p_shadow in (0.0, 0.25, 0.5, 0.75, 1.0):
    p = fuse_pm(0.95, 0.10, 4.0, p_shadow, params)
    print(f"{p_shadow:9.2f} {p:9.3f}")
print("The more a segment lies in potential shadow, the less the dark PAN")
print("response is trusted as water evidence.")
