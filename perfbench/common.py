"""Shared pieces of the benchmark: sizes, inputs, set-up probes, host facts.

Nothing here runs on import.  Every input is generated, from the run's seed
or from :data:`GRAPH_SEED`; the program under test only ever sees the
generated graphs and streams.
"""

from __future__ import annotations

import ctypes
import gc
import os
import platform
import resource
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Toggles that select between implementations.  A run with any of them set
#: would measure a different program than the default, so it is refused.
REFUSED_ENV = (
    "REPRO_FUSED",
    "REPRO_FUSED_BUILD",
    "REPRO_MSSP",
    "REPRO_BACKEND",
    "REPRO_POOL_POISON",
    "REPRO_WORKER_STATS",
    "REPRO_DYN_FALLBACK",
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

EPSILON = 0.25
BETA = 8
BLOCK = 32  # closed-loop caller's serve_batch block

#: No workload's graphs vary with the seed (it draws the request streams and
#: the sampled sources of the checks): one graph's build and exploration
#: costs differ from another's by more than the bounds allow.
GRAPH_SEED = 2021

#: An open loop's percentiles are medians over up to this many consecutive
#: segments of its requests, so a burst of interference on a shared host
#: moves a few segments, not the figure.
SEGMENTS = 9
#: An open-loop segment holds at least this many requests (five beyond its
#: p95; the median over segments then rests on more than ten).
MIN_SEGMENT = 100


@dataclass(frozen=True)
class Sizes:
    """Input sizes and rates of one benchmark scale."""

    build_side: int          # build: road_network(side, side)
    er_n: int                # query-cold: erdos_renyi(n, p)
    er_p: float
    churn_side: int          # churn: road_network(side, side), path-reporting
    churn_laps: int          # churn: distinct congested sets the mutations rotate over
    hot_sources: int         # churn: Zipf-hot source set
    cache_size: int          # tier-1 vector cache of every server
    rate_cold: float         # open-loop offered rates, requests per second
    rate_churn: float
    closed_blocks_cold: int  # one closed-loop stretch, in blocks of BLOCK
    open_lines_cold: int     # one open-loop stretch, in requests
    closed_blocks_churn: int
    open_lines_churn: int
    mutation_every: int      # churn: one mutation per this many ops
    setup_reps: int          # fresh-process set-ups per run (median reported)
    stretch_sources: int     # Dijkstra-checked sources per serving run
    calib_blocks: int        # blocks in the traced-vs-untraced calibration


FULL = Sizes(
    build_side=32,
    er_n=1200, er_p=0.01, churn_side=20, churn_laps=6,
    hot_sources=64, cache_size=128,
    rate_cold=50.0, rate_churn=150.0,
    # About a second each.  churn's sizes also keep every lazy refresh of
    # a 28 s window (at fixed op positions) inside a closed stretch, with
    # at least 200 ops to spare, so no stall lands in the open loop.
    closed_blocks_cold=20, open_lines_cold=50,
    closed_blocks_churn=38, open_lines_churn=160,
    mutation_every=10, setup_reps=5, stretch_sources=16,
    calib_blocks=24,
)

#: The benchmark's own test runs every workload at this scale.
TINY = Sizes(
    build_side=8,
    er_n=120, er_p=0.06, churn_side=6, churn_laps=2,
    hot_sources=8, cache_size=16,
    rate_cold=200.0, rate_churn=200.0,
    closed_blocks_cold=2, open_lines_cold=20,
    closed_blocks_churn=2, open_lines_churn=20,
    mutation_every=5, setup_reps=1, stretch_sources=4,
    calib_blocks=2,
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, refused settings)."""


def import_program() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"repro imported from {repro.__file__}, not {SRC}")


def refuse_toggles() -> None:
    bad = [k for k in REFUSED_ENV if k in os.environ]
    if bad:
        raise BenchError(f"unset {', '.join(bad)}: they change the program measured")


def work_dir(workload: str, seed: int) -> Path:
    path = ROOT / ".perfbench_work" / f"{workload}-s{seed}-p{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def params():
    from repro.hopsets.params import HopsetParams

    return HopsetParams(epsilon=EPSILON, beta=BETA)


def sub_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


# -- streams ------------------------------------------------------------------


def zipf_weights(k: int, a: float = 1.1) -> np.ndarray:
    w = 1.0 / np.arange(1, k + 1) ** a
    return w / w.sum()


class QueryStream:
    """An endless seeded stream of ``dist``/``path`` lines (every 8th a path)."""

    def __init__(self, n: int, seed: int, hot: np.ndarray | None = None) -> None:
        self.n = n
        self.rng = np.random.default_rng(seed)
        self.hot = hot
        self.p = None if hot is None else zipf_weights(hot.size)
        self.count = 0

    def take(self, k: int) -> list[str]:
        if self.hot is None:
            src = self.rng.integers(0, self.n, size=k)
        else:
            src = self.hot[self.rng.choice(self.hot.size, size=k, p=self.p)]
        dst = self.rng.integers(0, self.n, size=k)
        out = []
        for s, t in zip(src.tolist(), dst.tolist()):
            kind = "path" if self.count % 8 == 7 else "dist"
            self.count += 1
            out.append(f"{kind} {s} {t}")
        return out


# -- measurement helpers ------------------------------------------------------


def settle() -> None:
    """Collect garbage, exempt every survivor from collection, reset peak RSS.

    Called just before a measured window: the inputs, reference answers and
    booted state alive at that point would otherwise be rescanned by every
    full collection inside the window, charging the benchmark's own heap to
    the program.  The peak-RSS mark is reset to the current RSS, so
    :func:`peak_rss_mb` leaves out the hopset build and the reference
    answers' peaks before the window.
    """
    gc.collect()
    gc.freeze()
    try:
        # hand freed heap back first, so the mark starts at the live set
        # rather than at whatever the allocator kept from earlier peaks
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:  # no reset: the figure then includes the set-up peak
        pass


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def segment_pct(values, q: float, min_size: int = MIN_SEGMENT) -> float:
    """Median over consecutive segments of each segment's ``q``-th percentile."""
    k = max(1, min(SEGMENTS, len(values) // min_size))
    return float(np.median([pct(part, q) for part in np.array_split(values, k)]))


def peak_rss_mb() -> float:
    """Peak RSS of this process since :func:`settle`, plus live workers' Pss.

    Forked workers share most pages with the parent, so their share is
    read as Pss (``/proc/<pid>/smaps_rollup``) rather than double-counted.
    """
    import multiprocessing

    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kb = int(line.split()[1])
                break
    except OSError:
        pass
    for child in multiprocessing.active_children():
        try:
            text = Path(f"/proc/{child.pid}/smaps_rollup").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("Pss:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


#: Longest a set-up process may take to answer ``ready`` or to exit.
SETUP_TIMEOUT_S = 60.0


def time_setups(args: list[str], reps: int) -> float:
    """Median wall of ``reps`` fresh processes from spawn to their ``ready``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_child.py"), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )
        line, code = "", None
        try:
            if select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)[0]:
                line = proc.stdout.readline().strip()
            wall = time.perf_counter() - t0
            proc.stdin.close()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != "ready" or code != 0:
            raise BenchError(f"set-up process failed ({line!r}, exit {code})")
        walls.append(wall)
    return float(np.median(walls))


def adopt_orphans() -> None:
    """Make this process the reaper of every descendant orphaned under it.

    A worker whose parent died (a set-up process killed on timeout, say)
    is then re-parented here rather than to init, so :func:`reap_children`
    still finds it.  Linux only; elsewhere a no-op.
    """
    pr_set_child_subreaper = 36
    try:
        ctypes.CDLL(None).prctl(pr_set_child_subreaper, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # the parent pid is the second field after the parenthesised name
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def reap_children(grace_s: float = 2.0) -> None:
    """Stop and wait for every child still there, adopted orphans included.

    Each gets SIGTERM, then SIGKILL after ``grace_s`` (the resource tracker
    ignores SIGTERM).  Repeats until none is left, since a killed child's
    own children are adopted in turn.
    """
    while pids := child_pids():
        for pid in pids:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        for pid in pids:
            try:
                while not os.waitpid(pid, os.WNOHANG)[0]:
                    if time.monotonic() > deadline:
                        os.kill(pid, signal.SIGKILL)
                        os.waitpid(pid, 0)
                        break
                    time.sleep(0.01)
            except (ChildProcessError, ProcessLookupError):
                pass


def stop_helpers() -> None:
    """Stop every helper process this process started and wait for each.

    The sharded backend's ``close`` joins its workers; left are children
    still alive after an error, the shared-memory resource tracker (which
    would otherwise outlive this process until it noticed its pipe close)
    and anything adopted through :func:`adopt_orphans`.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()
    reap_children()


def fingerprint() -> dict:
    """Host and configuration facts recorded next to every result."""
    from repro.obs.ledger import git_sha, host_fingerprint

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "host": host_fingerprint(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(ROOT),
        "repro_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
    }
