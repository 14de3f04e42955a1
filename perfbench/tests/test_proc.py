"""Process-tree accounting charges a role for its children's work."""

import os
import signal
import subprocess
import sys
import time

from perfbench.proc import tree, tree_cpu_s, tree_hwm_mb

BURN_S = 0.6
# The parent only waits; its child burns CPU, then idles until killed.
PARENT = f"""
import subprocess, sys, time
child = subprocess.Popen([sys.executable, "-c",
    "import time\\nend = time.process_time() + {BURN_S}\\n"
    "while time.process_time() < end: pass\\n"
    "time.sleep(60)"])
print(child.pid, flush=True)
time.sleep(60)
"""


def _own_cpu_s(pid: int) -> float:
    from perfbench.proc import CLK_TCK, _stat

    fields = _stat(pid)
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def test_tree_cpu_counts_a_child() -> None:
    parent = subprocess.Popen([sys.executable, "-c", PARENT],
                              stdout=subprocess.PIPE, text=True)
    try:
        child = int(parent.stdout.readline())
        deadline = time.monotonic() + 30
        while tree_cpu_s(parent.pid) < 0.8 * BURN_S:
            assert time.monotonic() < deadline, "child never burned its CPU"
            time.sleep(0.05)
        assert child in tree(parent.pid)
        assert _own_cpu_s(parent.pid) < 0.5 * BURN_S
        assert tree_hwm_mb(parent.pid) > 0
    finally:
        for pid in tree(parent.pid)[::-1]:
            os.kill(pid, signal.SIGTERM)
        parent.wait(timeout=10)
        parent.stdout.close()
    assert parent.poll() is not None
