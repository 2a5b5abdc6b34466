import importlib.util
import sys
import time
from pathlib import Path

import pytest

from aquafuse import cli
from aquafuse.scene import DEFAULT_SCENE_TEXT, generate_scene, parse_scene


@pytest.fixture(scope="session")
def pipeline_dir(tmp_path_factory):
    """One full run-all execution shared by the CLI and acceptance tests."""
    out = tmp_path_factory.mktemp("pipeline")
    assert cli.main(["run-all", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="session")
def pipeline_repeat(tmp_path_factory):
    """A second timed run-all with identical configuration, for the
    determinism and runtime checks.  Returns (directory, seconds)."""
    out = tmp_path_factory.mktemp("pipeline_repeat")
    start = time.perf_counter()
    assert cli.main(["run-all", "--out", str(out)]) == 0
    return out, time.perf_counter() - start


def load_workloads():
    """The benchmark's workload module, which tiles the bundled scene."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def tile_2x2():
    """The rendered bundled scene tiled 2 x 2 (480 m), as a SceneBundle."""
    return generate_scene(parse_scene(load_workloads().tile_scene(DEFAULT_SCENE_TEXT, 2, 2)))
