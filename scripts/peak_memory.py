"""Peak memory of each heavy fracvol call, each in its own fresh process.

The benchmark reports one peak RSS per workload, which cannot say which call
sets it. For each case in CASES this script starts a new interpreter that
imports fracvol, runs the call once and reads the process's peak resident set
(ru_maxrss, the module imports the call triggers included), then runs the call
again under tracemalloc and reads the traced peak of that warm call. numpy
reports its buffers to tracemalloc, so the traced peak is the call's own
arrays. Prints one line per case, in MiB; name cases to run only those.

    PYTHONPATH=src python scripts/peak_memory.py [case ...]
"""
import atexit
import functools
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import tracemalloc

import fracvol


def _path_csv():
    fracvol.io.market_path_csv(fracvol.simulate_path(fracvol.ModelParams(), 2**16, 1.0))


def _paths_x8():
    # fsv_recovery's eight seeds: pocketfft's cached 131,074-point plan,
    # which tracemalloc does not see, shows in the fresh-process peak only
    for seed in range(8):
        fracvol.simulate_path(fracvol.ModelParams(), 2**16, 1.0, seed=seed)


def _ensemble_csv():
    times, prices, _ = fracvol.path_ensemble(fracvol.ModelParams(), 1000, 1.0, n_paths=256)
    fracvol.io.ensemble_csv(times, prices)


@functools.cache
def _export() -> str:
    """A market_path_csv export of a 2^16-step path, written once per process
    into a directory removed at exit; the first ingest case call writes it,
    so only the traced figure is ingest_prices alone."""
    directory = tempfile.mkdtemp(prefix="fracvol-peak-")
    atexit.register(shutil.rmtree, directory)
    file_path = os.path.join(directory, "path.csv")
    fracvol.io.atomic_write(file_path, fracvol.io.market_path_csv(
        fracvol.simulate_path(fracvol.ModelParams(), 2**16, 1.0)))
    return file_path


def _cold_weights():
    fracvol.fgn._spectral_weights.cache_clear()  # so the traced call is a miss too
    fracvol.fgn._spectral_weights(2**20, 0.83)


def _monte_carlo():
    params = fracvol.ModelParams()
    sigma_t, _ = fracvol.pricing.mean_variance_fit(params, 20.0)
    fracvol.monte_carlo_price(fracvol.OptionInputs(1.0, 1.0, 0.0, sigma_t, 20.0), params,
                              100_000)


CASES = {
    "_spectral_weights 2^20, cold": _cold_weights,
    "generate_fgn 2^20": lambda: fracvol.generate_fgn(2**20, 0.83),
    "generate_fgn 65537": lambda: fracvol.generate_fgn(65537, 0.83),
    "simulate_path 2^16 + market_path_csv": _path_csv,
    "simulate_path 2^16 x8": _paths_x8,
    "path_ensemble 256x1000 + ensemble_csv": _ensemble_csv,
    "ingest_prices 2^16 export": lambda: fracvol.io.ingest_prices(_export()),
    "monte_carlo_price 100k paths": _monte_carlo,
    "smile_surface default": lambda: fracvol.smile_surface(fracvol.ModelParams(), 0.01),
}


def _mib_rss() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def measure(case: str) -> str:
    """Run one case in this process: RSS at start, peak RSS, warm traced peak."""
    start = _mib_rss()
    CASES[case]()
    peak = _mib_rss()
    tracemalloc.start()
    CASES[case]()
    traced = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return f"{case:40s} {start:9.1f} {peak:9.1f} {traced:9.1f}"


def main(argv: list[str]) -> None:
    if argv[:1] == ["--child"]:
        print(measure(argv[1]))
        return
    print(f"{'case':40s} {'start':>9s} {'rss peak':>9s} {'traced':>9s}")
    for case in argv or CASES:
        if case not in CASES:
            sys.exit(f"unknown case {case!r}; one of {list(CASES)}")
        run = subprocess.run([sys.executable, __file__, "--child", case],
                             capture_output=True, text=True)
        print(run.stdout.rstrip() or f"{case:40s} failed: {run.stderr.strip()}")


if __name__ == "__main__":
    main(sys.argv[1:])
