"""One benchmark child process: a fresh interpreter and one generated config.

    python3 bench/audit.py MODE CONFIG_JSON

MODE is one of
  probe   load the config, then report the environment (untimed warm-up);
  setup   load the config and stop, so the parent can time set-up;
  audit   load the config and run one audit, timing it;
  traced  the same audit with spans around the package's stage functions.

The last line of standard output is one JSON object. `t_ready` is
`time.monotonic()` once the config is loaded and validated; on Linux that
clock is shared by all processes, so the parent subtracts its spawn time.
"""
from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def blas_info() -> dict:
    """BLAS library as numpy was built against it, and its live thread count."""
    import numpy as np

    info: dict = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment() -> dict:
    import numpy as np
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_info()}


def main(argv: list[str]) -> int:
    mode, config_path = argv[1], Path(argv[2])
    from recourse_mi import runner

    if not Path(runner.__file__).resolve().is_relative_to(SRC):
        print(f"recourse_mi was imported from {runner.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    config = runner.load_config(config_path)
    out: dict = {"t_ready": time.monotonic()}
    if mode == "probe":
        out["environment"] = environment()
    elif mode in ("audit", "traced"):
        tracer = None
        if mode == "traced":
            import tracing
            tracer = tracing.Tracer.install()
        wall, cpu = time.perf_counter(), time.process_time()
        runner.run_experiment(config)
        out["audit_s"] = time.perf_counter() - wall
        out["audit_cpu_s"] = time.process_time() - cpu
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if tracer is not None:
            report_dir = Path(config.out_dir)
            out["layers"] = tracer.layer_metrics(report_dir)
            out["absent"] = tracer.absent()
            tracer.write(report_dir.parent / f"{report_dir.name}_spans.json")
    elif mode != "setup":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
