"""Spawning the system's processes and accounting for them via /proc.

Every role (router, backends) is a process *tree*: CPU and peak memory
are summed over the spawned process and all of its descendants, so a
role that grows worker children is still charged in full.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat(pid: int) -> list[str] | None:
    """Fields of /proc/<pid>/stat after the command name (field 3 on),
    or None when the process is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    return text[text.rindex(")") + 2:].split()


def tree(root: int) -> list[int]:
    """``root`` and every live descendant, parents before children."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def tree_cpu_s(root: int) -> float:
    """utime+stime of the tree, plus what its members' reaped children
    used (cutime+cstime), in seconds."""
    ticks = 0
    for pid in tree(root):
        fields = _stat(pid)
        if fields is not None:
            ticks += sum(int(f) for f in fields[11:15])
    return ticks / CLK_TCK


def tree_hwm_mb(root: int) -> float:
    """Sum of VmHWM (peak resident set) over the live tree, in MB."""
    total_kb = 0
    for pid in tree(root):
        try:
            lines = Path(f"/proc/{pid}/status").read_text().splitlines()
        except (FileNotFoundError, ProcessLookupError):
            continue
        for line in lines:
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def own_hwm_mb() -> float:
    """VmHWM of this process alone, in MB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class Spawned:
    """One ``python -m repro <command>`` process listening on a port."""

    def __init__(self, role: str, argv: list[str], run_dir: Path,
                 src: Path) -> None:
        self.role = role
        self.port_file = run_dir / f"{role}-{time.monotonic_ns()}.port"
        self.log = (run_dir / f"{role}.log").open("ab")
        env = dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(run_dir))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv,
             "--host", "127.0.0.1", "--port", "0",
             "--port-file", str(self.port_file)],
            env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self.log,
        )
        self.port = 0

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_port(self, timeout_s: float = 60.0) -> int:
        deadline = time.monotonic() + timeout_s
        while True:
            if self.port_file.exists():
                text = self.port_file.read_text().strip()
                if text:
                    self.port = int(text)
                    return self.port
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"{self.role} exited with {self.process.returncode} "
                    "before binding"
                )
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.role} did not bind in time")
            time.sleep(0.01)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10.0)
        self.log.close()
        self.port_file.unlink(missing_ok=True)


class Deployment:
    """``serve`` backends, optionally behind one ``router``, all on CLI
    defaults: the system exactly as it ships."""

    def __init__(self, run_dir: Path, src: Path, backends: int,
                 router: bool) -> None:
        self.procs: list[Spawned] = []
        try:
            serves = [
                Spawned(f"server{i}", ["serve"], run_dir, src)
                for i in range(backends)
            ]
            self.procs.extend(serves)
            for proc in serves:
                proc.wait_port()
            if router:
                spec = ",".join(
                    f"b{i}=127.0.0.1:{proc.port}" for i, proc in enumerate(serves)
                )
                front = Spawned("router", ["router", "--backends", spec],
                                run_dir, src)
                self.procs.append(front)
                front.wait_port()
            self.port = self.procs[-1].port
        except BaseException:
            self.stop()
            raise

    def roots(self, role: str) -> list[int]:
        return [p.pid for p in self.procs if p.role.startswith(role)]

    def cpu_s(self) -> dict[str, float]:
        """CPU seconds per role so far, each summed over its trees."""
        return {
            role: sum(tree_cpu_s(pid) for pid in self.roots(role))
            for role in ("router", "server")
        }

    def hwm_mb(self) -> float:
        return sum(tree_hwm_mb(p.pid) for p in self.procs)

    def stop(self) -> None:
        # Router first, so it never sees a backend die and fails over.
        for proc in reversed(self.procs):
            proc.stop()
