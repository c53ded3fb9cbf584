import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from bqbox import GridSpec


@pytest.fixture
def grid2d():
    return GridSpec(n=2, N=16, L=1.0)


@pytest.fixture
def grid2d_box():
    return GridSpec(n=2, N=16, L=2.0 * np.pi)


@pytest.fixture
def grid3d():
    return GridSpec(n=3, N=16, L=2.0 * np.pi)


@pytest.fixture
def grid3d_small():
    return GridSpec(n=3, N=8, L=1.0)


def bench_workload_config(name, seed, indir):
    """The config dict of a benchmark workload at ``seed`` (``bench/workloads.py``)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return json.loads(module.WORKLOADS[name].write_inputs(seed, indir).read_text())


@pytest.fixture
def linear_workload_configs(tmp_path):
    """periodic-linear-n16's config at seed 3, and the same with evolve-full-n32's g and kappa = 0.5."""
    linear = bench_workload_config("periodic-linear-n16", 3, tmp_path / "in")
    coupled = json.loads(json.dumps(linear))
    coupled["forcing"].update(
        g=bench_workload_config("evolve-full-n32", 3, tmp_path / "in")["forcing"]["g"], kappa=0.5)
    return linear, coupled
