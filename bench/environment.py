"""Process set-up shared by the benchmark's entry scripts.

Call ``cap_threads`` before NumPy is imported (OpenBLAS reads its thread
count once, at load time), then ``import_inls`` to load the package from the
checkout's ``src/``. ``stamp`` describes the machine and library versions so
every printed result carries them.
"""
from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("INLS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """Run FFTs and BLAS on one thread unless told otherwise, and never on
    more threads than there are usable CPUs.

    One thread is the default because a 64^3 FFT pair gains ~2% from a second
    worker on a shared 2-vCPU VM, while waiting on the slower of two vCPUs
    more than doubles the run-to-run spread of tensor3d_bubble. Unset, empty
    or non-numeric values become 1; values above the CPU count become it.
    """
    nproc = usable_cpus()
    for var in THREAD_VARS:
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            value = 0
        os.environ[var] = str(min(value, nproc) if value >= 1 else 1)


def import_inls():
    """Import ``inls`` from this checkout's ``src/`` and nowhere else.

    Exits with code 1 when the sources are absent, so that a directory holding
    only the benchmark fails instead of measuring an installed copy.
    """
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import inls
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import inls from {src}: {exc}")
    if Path(inls.__file__).resolve().parent != src / "inls":
        sys.exit(f"benchmark: inls was imported from {inls.__file__}, not from {src}")
    return inls


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> dict:
    import numpy
    import scipy
    from inls.grids import thread_count

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "fft_workers": thread_count(),
        "git_commit": _git_commit(),
    }
