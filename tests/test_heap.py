"""The package fixes glibc's heap thresholds, so a graph-sized block of
arrays freed and allocated again faults no pages back in."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from spafit import heap

SRC = Path(__file__).resolve().parent.parent / "src"
GLIBC = sys.platform == "linux" and platform.libc_ver()[0] == "glibc"

# 24 one-MiB arrays made and freed together, as a training step's graph is;
# prints the minor page faults of five more rounds after the first.
CHURN = """
import resource
import numpy as np
import spafit

def churn():
    blocks = [np.ones(1 << 17) for _ in range(24)]
    del blocks

churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _churn_faults(**env) -> int:
    """Faults of CHURN in a fresh interpreter, whose heap no earlier test shaped."""
    full_env = {k: v for k, v in os.environ.items()
                if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    full_env.update(env, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", CHURN], env=full_env, check=True,
                         capture_output=True, text=True, timeout=120)
    return int(out.stdout)


@pytest.mark.skipif(not GLIBC, reason="the thresholds are glibc's")
class TestThresholds:
    def test_freed_arrays_stay_in_the_process(self):
        # 30 MiB of fresh pages would be 7680 faults
        assert _churn_faults() < 300

    def test_user_setting_wins(self):
        # glibc's own setting trims and maps every block: each round faults in full
        assert _churn_faults(MALLOC_TRIM_THRESHOLD_="131072") > 5000

    def test_set_only_without_user_settings(self, monkeypatch):
        for name in heap._USER_SETTINGS + ("GLIBC_TUNABLES",):
            monkeypatch.delenv(name, raising=False)
        assert heap.fix_thresholds()
        monkeypatch.setenv("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=0")
        assert not heap.fix_thresholds()
        monkeypatch.delenv("GLIBC_TUNABLES")
        monkeypatch.setenv("MALLOC_TOP_PAD_", "0")
        assert not heap.fix_thresholds()
