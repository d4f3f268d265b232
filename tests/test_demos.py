import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# demos 04 and 05 train (about 10 and 20 s on 2 vCPUs), so tier-1 runs only
# the quick ones; CI runs the training demos in a step of their own
@pytest.mark.parametrize("demo", ["01_events_and_voxels.py",
                                  "02_sparse_convolution.py",
                                  "03_lif_neuron.py"])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
