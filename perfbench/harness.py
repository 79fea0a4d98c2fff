"""Measurement plumbing: paths, child processes, spans, summaries, run manifest.

Nothing here imports numpy at module level, so ``run.py`` can pin the BLAS
thread count in the environment before numpy is first loaded.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BENCH_DIR = Path(__file__).resolve().parent

# Load comes from one process at a time, and BLAS runs single-threaded: on a
# shared 2-vCPU machine a second BLAS thread made run-to-run spread of
# skewed_curve wall_s about 1.6x larger (IQR/median 0.14 vs 0.09 over 5 seeds).
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_environment() -> None:
    """Set BLAS threads and PYTHONPATH for this process and every child it starts."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def run_child(argv, log_path: Path, timeout: float = CHILD_TIMEOUT_S) -> tuple[int, float]:
    """Run argv to completion from the checkout root; return (exit code, peak RSS in MB).

    stdout and stderr go to ``log_path``. The peak RSS is the child's own
    (``wait4`` rusage), so earlier children do not leak into it.
    """
    log_path.parent.mkdir(parents=True, exist_ok=True)
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "index", "parent", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.parent = tr._open[-1] if tr._open else None
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr._open.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr._open.pop()
        tr.spans[self.index] = (self.name, self.start, end, self.parent, tr.pass_id)
        return False


class Tracer:
    """Spans kept in memory as (name, start, end, parent index, pass id).

    A disabled tracer hands out one shared no-op context, so untraced
    passes pay only a method call per span site.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._open: list[int] = []
        self.pass_id = None
        self.t0 = time.perf_counter()

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def durations(self, pass_id) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for name, start, end, _, pid in self.spans:
            if pid == pass_id:
                out.setdefault(name, []).append(end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            {"name": n, "start": s - self.t0, "end": e - self.t0, "parent": p, "pass": pid}
            for n, s, e, p, pid in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "self_s": self.self_times()}, fh, indent=1)
            fh.write("\n")


# ---------------------------------------------------------------------------
# summaries and manifest
# ---------------------------------------------------------------------------

TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def summarize(samples) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n}
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            rank = min(n - 1, int(round(p / 100.0 * (n - 1))))
            out["percentile"] = p
            out["percentile_value"] = xs[rank]
            break
    return out


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def manifest(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy

    from phantomfields import __version__, kernels

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": nproc(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "numba_present": importlib.util.find_spec("numba") is not None,
        "kernels_backend": kernels.backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "phantomfields": __version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }
