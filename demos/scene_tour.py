"""A tour of the synthetic scene generator.

Parses the bundled scene description, renders the three co-registered
sensors (0.8 m PAN, 3.2 m 4-band MS, 30 m 7-band Landsat at seven dates)
plus ground truth, and prints what ended up where.

Usage:  python demos/scene_tour.py
"""

import numpy as np

from aquafuse.scene import LANDSAT_DAYS, MS_BANDS, default_scene, generate_scene
from aquafuse.spectral import CLASS_ORDER

spec = default_scene()
print(f"scene extent: {spec.extent[0]:.0f} x {spec.extent[1]:.0f} m, "
      f"sun elevation {spec.sun.sun_elevation_deg:.0f} deg, "
      f"azimuth {spec.sun.sun_azimuth_deg:.0f} deg")
print(f"features: {len(spec.features)}")
for feat in spec.features:
    extra = f" height {feat.height:g} m" if feat.height else ""
    print(f"  {feat.kind:<11} {feat.shape:<5} {feat.params}{extra}")
print()

bundle = generate_scene(spec)
for name, raster in (("PAN", bundle.pan), ("MS", bundle.ms),
                     ("Landsat (1 of 7)", bundle.landsat[0])):
    g = raster.geometry
    print(f"{name:<17} {g.width:>4} x {g.height:<4} pixels at {g.pixel_size:g} m, "
          f"{raster.bands} band(s)")
print(f"Landsat day-of-year tags: {LANDSAT_DAYS}")
print()

truth = bundle.truth.bits
shadow = bundle.shadow_truth.bits
area = bundle.pan.geometry.pixel_size ** 2
print(f"water truth:  {truth.sum()} PAN pixels ({truth.sum() * area:.0f} m2)")
print(f"shadow truth: {shadow.sum()} PAN pixels ({shadow.sum() * area:.0f} m2)")

codes = bundle.class_truth.data[0].astype(int)
for idx, name in enumerate(CLASS_ORDER):
    print(f"  stratum {name:<11} {np.count_nonzero(codes == idx):>6} pixels")
print()

print(f"training sites: {len(bundle.train_sites)} "
      f"({spec.train_per_class} per stratum), e.g.:")
for cls, x, y in bundle.train_sites[:4]:
    row, col = bundle.ms.geometry.locate(x, y)
    spectrum = bundle.ms.data[:, int(row), int(col)]
    pairs = ", ".join(f"{b}={v:.3f}" for b, v in zip(MS_BANDS, spectrum))
    print(f"  {cls:<11} at ({x:6.1f}, {y:6.1f}): {pairs}")
print()
print("Rendering is deterministic: the same description text always yields")
print("bit-identical rasters, truth masks, and training sites.")
