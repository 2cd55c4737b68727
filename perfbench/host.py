"""Host facts, the Ray session the benchmark owns, and the RSS sampler.

Everything here reads or writes inside the checkout: Ray's temp dir (logs,
sockets, spill files) lives under ``.bench_run/ray``.
"""

from __future__ import annotations

import logging
import os
import platform
import subprocess
import sys
import threading
import time

OBJECT_STORE_BYTES = 1_000_000_000
# AF_UNIX socket paths are capped at 107 bytes; Ray appends
# "/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store" (~70 bytes).
_RAY_SOCKET_SUFFIX = 72


def num_cpus() -> int:
    """The CPU count ``nproc`` reports (it honours ``OMP_NUM_THREADS``);
    the Ray cluster is sized to it.  Falls back to the affinity mask."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass
    return len(os.sched_getaffinity(0))


def calib_single_core_ops(seconds: float = 0.25) -> int:
    """Counter increments per second of a pure-Python loop: a host-speed
    anchor, so two artifacts can be compared net of single-core speed."""
    deadline = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < deadline:
        n += 1
    return int(n / seconds)


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of ``/proc/stat``, in clock ticks
    (empty where there is no ``/proc/stat``)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time between two ``cpu_times()`` readings that the
    hypervisor gave to other guests: the host noise a run cannot control."""
    d = [b - a for a, b in zip(before, after)]
    total = sum(d[:8])  # user .. steal; guest time is already in user
    return d[7] / total if len(d) > 7 and total else 0.0


def _mem_total_mb() -> int:
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) // 1024
    except OSError:
        pass
    return 0


def _git_commit(root: str) -> str:
    """Commit of the checkout when it is a git work tree, else "unknown"
    (a benchmark checkout is usually an export without ``.git``)."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_facts(root: str, *, seed: int, cpus: int) -> dict:
    import pyarrow
    import ray

    return {
        "nproc": cpus,  # the Ray cluster is sized to it
        "num_cpus": cpus,
        "cpu_count": os.cpu_count() or 1,
        "mem_total_mb": _mem_total_mb(),
        "calib_single_core_ops": calib_single_core_ops(),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }


def ray_init(root: str, cpus: int, *, setup_hook: str | None = None) -> None:
    """Start a local single-node Ray session sized to ``cpus``.

    Workers import the program and this benchmark from the checkout, so the
    checkout root goes on their ``PYTHONPATH``.  ``setup_hook`` names a
    ``module.function`` run once in every worker process at start."""
    import ray
    from ray.data import DataContext

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH", "")) if p
    )
    temp_dir = os.path.join(root, ".bench_run", "ray")
    kwargs: dict = {}
    if len(temp_dir) + _RAY_SOCKET_SUFFIX <= 107:
        os.makedirs(temp_dir, exist_ok=True)
        kwargs["_temp_dir"] = temp_dir
    else:
        print(
            f"perfbench: checkout path too long for Ray sockets; using Ray's default temp dir",
            file=sys.stderr,
        )
    if setup_hook:
        kwargs["runtime_env"] = {"worker_process_setup_hook": setup_hook}
    ray.init(
        address="local",
        num_cpus=cpus,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        **kwargs,
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def ray_shutdown() -> None:
    """Stop the Ray session and wait until every process it started has
    ended (workers outlive the raylet briefly and get re-parented, so the
    process tree is taken before the shutdown)."""
    import ray

    started = set(process_tree(os.getpid())) - {os.getpid()}
    if ray.is_initialized():
        ray.shutdown()
    left = stop_processes(started)
    if left:
        print(f"perfbench: processes still alive after shutdown: {left}", file=sys.stderr)


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            continue
        # field 4 (ppid) follows the parenthesised command name
        ppid = int(stat[stat.rindex(b")") + 2 :].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def process_tree(root_pid: int) -> list[int]:
    kids = _children_map()
    out, todo = [], [root_pid]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(kids.get(pid, ()))
    return out


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm", "rb") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return 0


class RssSampler:
    """Peak summed RSS of this process and every descendant (the Ray head
    processes and workers), sampled while ``active`` is set.

    The process list is refreshed every ``refresh_s``; in between only the
    known pids' ``statm`` is read, so sampling stays cheap on one core."""

    def __init__(self, interval_s: float = 0.2, refresh_s: float = 2.0):
        self.interval_s = interval_s
        self.refresh_s = refresh_s
        self.peak_bytes = 0
        self.active = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="rss-sampler", daemon=True)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def _run(self) -> None:
        pids: list[int] = []
        refreshed = 0.0
        while not self._stop.wait(self.interval_s):
            if not self.active.is_set():
                continue
            now = time.monotonic()
            if now - refreshed > self.refresh_s:
                pids = process_tree(os.getpid())
                refreshed = now
            total = sum(_rss_bytes(p) for p in pids)
            self.peak_bytes = max(self.peak_bytes, total)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rindex(b")") + 2 : stat.rindex(b")") + 3] != b"Z"


def stop_processes(pids: set[int], timeout_s: float = 10.0) -> list[int]:
    """Wait for ``pids`` and any descendant of this process to end; after
    1 s send SIGTERM, after half the timeout SIGKILL.  Returns the pids
    still alive at the timeout."""
    import signal

    me = os.getpid()
    start = time.monotonic()
    sent: dict[int, int] = {}
    while True:
        try:  # reap our own exited children
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        left = sorted(p for p in pids | set(process_tree(me)) if p != me and _alive(p))
        waited = time.monotonic() - start
        if not left or waited > timeout_s:
            return left
        if waited > 1:
            sig = signal.SIGKILL if waited > timeout_s / 2 else signal.SIGTERM
            for pid in left:
                if sent.get(pid) != sig:
                    try:
                        os.kill(pid, sig)
                    except ProcessLookupError:
                        pass
                    sent[pid] = sig
        time.sleep(0.2)
