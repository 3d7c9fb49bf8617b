"""Plumbing shared by the workloads: the local Ray cluster, its CPU and
peak memory, percentiles, and the size and digest of a committed table."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time

import numpy as np

RAY_CPUS = 2
# Unix socket paths are capped at 107 bytes and Ray puts its sockets up to
# 64 bytes below its temp dir (session_<date>_<pid>/sockets/plasma_store),
# so under a long checkout path Ray gets a private dir in the system temp
# dir instead, removed on exit.
_MAX_RAY_TEMP_LEN = 107 - 64


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: list[float]) -> float:
    return percentile(values, 50)


class Cluster:
    """One local Ray cluster for the whole run, plus the processes it
    started, so that :meth:`stop` can wait until every one has ended."""

    def __init__(self, ray_temp: str):
        self.ray_temp = ray_temp
        self.private_tmp: str | None = None
        self.init_s = 0.0
        self.init_cpu_s = 0.0
        self.cpu: ClusterCpu | None = None

    def start(self) -> None:
        import ray

        temp = self.ray_temp
        if len(temp) > _MAX_RAY_TEMP_LEN:
            temp = self.private_tmp = tempfile.mkdtemp(prefix="pb-")
        self.cpu = ClusterCpu()
        c0 = self.cpu.snapshot()
        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
                 object_store_memory=256 * 1024 * 1024, log_to_driver=False,
                 _temp_dir=temp)
        self.init_s = time.perf_counter() - t0
        self.init_cpu_s = ClusterCpu.since(c0, self.cpu.snapshot())
        import ray.data

        # progress bars redraw on stderr from the driver for every Dataset
        # execution; they are display only and add driver CPU to each op
        ray.data.DataContext.get_current().enable_progress_bars = False

    def stop(self) -> None:
        import psutil
        import ray

        procs = psutil.Process().children(recursive=True)
        ray.shutdown()
        _, alive = psutil.wait_procs(procs, timeout=20)
        for p in alive:
            try:
                p.kill()
            except psutil.NoSuchProcess:
                pass
        psutil.wait_procs(alive, timeout=10)
        if self.private_tmp:
            shutil.rmtree(self.private_tmp, ignore_errors=True)


def _process_cpu_s(pid: int) -> float:
    """CPU seconds of a whole process (all threads), nanosecond resolution.
    The kernel does not count time the VM's CPU was taken by the host."""
    return time.clock_gettime(((~pid) << 3) | 2)  # CPUCLOCK_SCHED, process-wide


class ClusterCpu:
    """CPU seconds spent by the driver plus the local cluster's Ray worker,
    raylet and GCS processes. Wall time on a shared VM moves with the
    neighbours' load; CPU time moves with the work this run asked for."""

    _DAEMONS = ("raylet", "gcs_server")

    def __init__(self):
        import psutil

        self._me = psutil.Process()
        self._counted: dict[int, bool] = {}

    def _is_counted(self, p) -> bool:
        if p.pid not in self._counted:
            cmd = p.cmdline()
            self._counted[p.pid] = bool(cmd) and (
                cmd[0].startswith("ray::") or os.path.basename(cmd[0]) in self._DAEMONS)
        return self._counted[p.pid]

    def snapshot(self) -> dict[int, float]:
        import psutil

        out = {self._me.pid: time.process_time()}
        for p in self._me.children(recursive=True):
            try:
                if self._is_counted(p):
                    out[p.pid] = _process_cpu_s(p.pid)
            except (psutil.Error, OSError):  # exited between listing and reading
                continue
        return out

    @staticmethod
    def since(before: dict[int, float], after: dict[int, float]) -> float:
        """CPU seconds between two snapshots; a process started in between
        counts from zero, one that exited in between is lost."""
        return sum(t - before.get(pid, 0.0) for pid, t in after.items())


def peak_rss_mb() -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of this driver and
    the live Ray worker processes (command line starting ``ray::``), MiB.
    The kernel keeps each peak, so nothing has to sample it."""
    import psutil

    me = psutil.Process()
    total_kb = 0
    for p in [me] + me.children(recursive=True):
        try:
            cmd = p.cmdline()
            if p.pid != me.pid and not (cmd and cmd[0].startswith("ray::")):
                continue
            with open(f"/proc/{p.pid}/status") as f:
                total_kb += next(int(line.split()[1]) for line in f
                                 if line.startswith("VmHWM:"))
        except (psutil.Error, OSError, StopIteration):  # exited meanwhile
            continue
    return total_kb / 1024


def read_committed(table_dir: str) -> dict:
    """The committed manifest as a dict, read from disk directly so that
    the benchmark's own bookkeeping never shows up in traced spans."""
    with open(os.path.join(table_dir, "_CURRENT")) as f:
        name = json.load(f)["manifest"]
    return read_manifest(table_dir, name)


def read_manifest(table_dir: str, name: str) -> dict:
    with open(os.path.join(table_dir, "_manifests", name)) as f:
        return json.load(f)


def listed_files(manifest: dict) -> list[str]:
    """Relative paths of every data file a manifest lists (bases + deltas)."""
    out = []
    for entry in manifest["partitions"].values():
        if entry.get("file"):
            out.append(entry["file"])
        out.extend(entry.get("deltas", ()))
    return sorted(out)


def table_bytes(table_dir: str) -> int:
    """Bytes of the data files the committed manifest lists."""
    return sum(os.path.getsize(os.path.join(table_dir, f))
               for f in listed_files(read_committed(table_dir)))


def table_digest(table_dir: str) -> str:
    """sha256 over (path, bytes) of the committed manifest's data files.
    Manifests and job rows carry wall-clock stamps, so they are left out."""
    h = hashlib.sha256()
    for rel in listed_files(read_committed(table_dir)):
        h.update(rel.encode())
        with open(os.path.join(table_dir, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()
