"""fracvol benchmark: one workload per process, untraced or traced.

    python3 perfbench/run.py --workload fsv_recovery --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --smoke --trace 1

Run from the repository root; the package is imported from ./src, nothing
needs installing. A run times set-up in fresh interpreters, then repeats
the workload's pass (a closed loop, one caller) until --seconds have passed,
checks every pass and prints one line per metric followed by a JSON result
line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, with times rescaled to a reference host speed measured
by a probe loop around each interval. --trace 1 alternates untraced and
traced passes and reports the per-layer metrics from the traced ones,
including the tracing overhead. Failed checks exit 1. Spans and a result file with report-only
facts (machine, versions, artifact digests) go to .perfbench_out/.
See perfbench/README.md for the workloads and what each metric predicts.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("fsv_recovery", "pricing_surface", "microstructure", "cli_cold")
SETUP_SAMPLES = 3
PROBE_SAMPLES = 3
# The host's speed drifts by +-25% over tens of seconds (other tenants share
# its cores), so the end-to-end times are rescaled to a reference speed: a
# fixed probe loop, timed before and after each measured interval, took
# PROBE_REF_S on the 2-vCPU Xeon VM the bounds were set on.
PROBE_REF_S = 0.0125

END_TO_END = {"setup_s": "s", "wall_s": "s", "task_p50_s": "s", "peak_rss_mb": "MiB"}

# functions the workloads call, by layer; cli spans are one per command
LAYER_FUNCTIONS = {
    "fgn": ("generate_fgn",),
    "simulate": ("simulate_path", "path_ensemble"),
    "estimation": ("estimate_report",),
    "io": ("market_path_csv", "atomic_write", "ingest_prices", "ensemble_csv"),
    "returns": ("pdf", "cdf"),
    "pricing": ("smile_surface", "price", "implied_vol", "mean_variance_fit",
                "monte_carlo_price"),
    "agents": ("run_experiment",),
    "lob": ("run_lob", "run_lob_traced"),
}
LAYERS = ("cli",) + tuple(LAYER_FUNCTIONS)
CLI_NAMES = ("simulate", "estimate", "pdf", "price", "smile", "abm", "lob")
FAILABLE = ("pricing.smile_surface", "pricing.implied_vol", "lob.run_lob",
            "lob.run_lob_traced")
LABELLED = ("fgn.generate_fgn.pow2", "fgn.generate_fgn.prime",
            "agents.run_experiment.n100", "agents.run_experiment.n2000")
# rate name -> (work counter, layer whose busy time it is divided by)
RATES = {
    "fgn.samples_per_s": ("fgn.samples", "fgn"),
    "simulate.steps_per_s": ("simulate.steps", "simulate"),
    "estimation.points_per_s": ("estimation.points", "estimation"),
    "io.rows_per_s": ("io.rows", "io"),
    "returns.points_per_s": ("returns.points", "returns"),
    "pricing.grid_points_per_s": ("pricing.grid_points", "pricing.smile_surface"),
    "agents.steps_per_s": ("agents.steps", "agents"),
    "agents.agent_steps_per_s": ("agents.agent_steps", "agents"),
    "lob.events_per_s": ("lob.events", "lob"),
}
# work counters reported per traced pass as they are
COUNTS = {"estimation.n_floored": "count", "io.bytes_written": "bytes",
          "pricing.iv_band_edge": "count", "cli.handler_s": "s"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.busy_s"] = units[f"{layer}.self_s"] = "s"
        for fn in LAYER_FUNCTIONS.get(layer, ()):
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.busy_s"] = units[f"{layer}.{fn}.self_s"] = "s"
    units.update({f"{key}.failed": "count" for key in FAILABLE})
    units.update({f"{key}.busy_s": "s" for key in LABELLED})
    units.update({name: "1/s" for name in RATES})
    units.update(COUNTS)
    units["pricing.iv_ok_ratio"] = "ratio"
    units["cli.interp_s"] = units["cli.import_s"] = "s"
    units.update({f"cli.{name}.wall_s": "s" for name in CLI_NAMES})
    units["bench.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    units.update({f"{layer}.src_lines": "lines" for layer in LAYERS})
    units["src.lines"] = "lines"
    return units


def machine_facts() -> dict:
    """Report-only facts about the machine and the software stack."""
    import numpy
    import scipy

    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "numpy": numpy.__version__,
             "scipy": scipy.__version__,
             "FRACVOL_THREADS": os.environ.get("FRACVOL_THREADS", "unset"),
             "cli_FRACVOL_THREADS": "unset"}
    try:
        with open("/proc/cpuinfo") as handle:
            facts["cpu"] = next((line.split(":", 1)[1].strip() for line in handle
                                 if line.startswith("model name")), "unknown")
    except OSError:
        facts["cpu"] = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    facts["caches"] = caches
    return facts


def src_lines() -> dict[str, float]:
    counts = {}
    for path in sorted((SRC / "fracvol").glob("*.py")):
        counts[path.stem] = path.read_bytes().count(b"\n")
    out = {f"{layer}.src_lines": float(counts.get(layer, 0)) for layer in LAYERS}
    out["src.lines"] = float(sum(counts.values()))
    return out


def _probe_once(values) -> float:
    import numpy as np

    start = time.perf_counter()
    table, x = {}, 0.0
    for i in range(60_000):
        x += (i % 7) * 0.5
        table[i & 1023] = x
    for _ in range(4):
        np.fft.rfft(values)
        np.exp(values)
    return time.perf_counter() - start


def host_probe_s() -> float:
    """Fastest of 3 runs of a fixed interpreter-and-numpy loop (about 12 ms)."""
    import numpy as np

    values = np.linspace(-1.0, 1.0, 2 ** 16)
    return min(_probe_once(values) for _ in range(3))


def speed_factor(before: float, after: float) -> float:
    """Scale for an interval bracketed by two probes; 1 at reference speed."""
    return PROBE_REF_S / (0.5 * (before + after))


def _rescale(samples: list[float], pass_factor: float,
             call_factors: list[float] | None) -> list[float]:
    """Samples at reference speed: by each call's own factor where every
    sample is one probed call, else by the pass's factor."""
    if call_factors is not None and len(call_factors) == len(samples):
        return [s * f for s, f in zip(samples, call_factors)]
    return [s * pass_factor for s in samples]


def time_setups(args, count: int) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until it has imported
    fracvol and generated the workload's inputs, with each sample's speed
    factor."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples, factors = [], []
    for _ in range(count):
        before = host_probe_s()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up child exited {code} before it was ready")
        samples.append(elapsed)
        factors.append(speed_factor(before, host_probe_s()))
    return samples, factors


def setup_child(args) -> int:
    from workloads import WORKLOADS

    workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        WORKLOADS[args.workload].inputs(args.seed, args.smoke, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def probe_seconds(argv: list[str], env: dict) -> float:
    """Median wall time of a fresh interpreter running argv."""
    samples = []
    for _ in range(PROBE_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], env=env, check=True,
                       capture_output=True, timeout=120)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def pass_digest(artifacts: list[bytes]) -> str:
    """sha256 over a pass's artifacts; equal digests mean an exact replay."""
    return hashlib.sha256(b"".join(
        hashlib.sha256(a).digest() for a in artifacts)).hexdigest()


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec, traced: list, untraced: list) -> dict[str, float]:
    """Per-layer metrics, each per traced pass, from the recorded spans."""
    from tracing import layer_stats

    stats = layer_stats(rec.spans)
    n = len(traced)
    work: dict[str, float] = {}
    for _, result in traced:
        for key, value in result.work.items():
            work[key] = work.get(key, 0.0) + value

    def stat(key: str, field: str) -> float:
        return stats.get(key, {}).get(field, 0.0) / n

    out: dict[str, float] = {}
    for name in per_layer_units():
        key, _, field = name.rpartition(".")
        if field in ("busy_s", "self_s", "calls", "failed"):
            out[name] = stat(key, field)
    for name, (counter, layer) in RATES.items():
        out[name] = _div(work.get(counter, 0.0), stats.get(layer, {}).get("busy_s", 0.0))
    for name in COUNTS:
        out[name] = work.get(name, 0.0) / n
    out["pricing.iv_ok_ratio"] = _div(work.get("pricing.iv_ok", 0.0),
                                      work.get("pricing.iv_attempted", 0.0))
    for name in CLI_NAMES:
        key = f"cli.{name}"
        out[f"{key}.wall_s"] = _div(stats.get(key, {}).get("busy_s", 0.0),
                                    stats.get(key, {}).get("calls", 0))
    out["trace.overhead_s"] = (statistics.median(w for w, _ in traced)
                               - statistics.median(w for w, _ in untraced))
    out["trace.spans"] = len(rec.spans) / n
    return out


def run_workload(args) -> int:
    from checks import CheckFailed
    from tracing import Recorder
    from workloads import WORKLOADS

    name, seed = args.workload, args.seed
    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    setup, setup_factors = time_setups(args, 1 if args.smoke else SETUP_SAMPLES)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    rec = Recorder()
    rec.probe = host_probe_s if workload.probe_calls else None
    # (traced, wall s, call durations, PassResult, pass speed factor,
    #  per-call speed factors or None)
    passes: list[tuple] = []
    digests: list[str] = []
    try:
        inputs = workload.inputs(seed, args.smoke, workdir)
        probes = {"cli.interp_s": 0.0, "cli.import_s": 0.0}
        if args.trace and name == "cli_cold":
            env = inputs["env"]
            probes = {"cli.interp_s": probe_seconds(["-c", "pass"], env),
                      "cli.import_s": probe_seconds(["-c", "import fracvol"], env)}
        min_passes = 2 if args.trace else 1
        deadline = time.perf_counter() + args.seconds
        # start a pass only if half of it fits, so runs end near --seconds
        while len(passes) < min_passes or (not args.smoke and (
                time.perf_counter() + 0.5 * passes[-1][1] < deadline)):
            traced = bool(args.trace) and len(passes) % 2 == 1
            rec.tracing, rec.run_id = traced, f"{name}:{seed}:{len(passes)}"
            rec.durations, rec.probes = [], []
            before = host_probe_s()
            begin = time.perf_counter()
            with rec.span("bench.pass"):
                result = workload.run_pass(rec, inputs)
            wall = time.perf_counter() - begin
            factor = speed_factor(before, host_probe_s())
            rec.tracing = False
            workload.check(inputs, result)
            digest = pass_digest(result.artifacts)
            if digests and digest != digests[0]:
                raise CheckFailed(f"pass {len(passes)} did not replay pass 0's outputs")
            if passes and len(rec.durations) != len(passes[0][2]):
                raise CheckFailed(f"pass {len(passes)} made {len(rec.durations)} "
                                  f"calls, pass 0 made {len(passes[0][2])}")
            digests.append(digest)
            result.outputs, result.artifacts = {}, []
            call_factors = ([speed_factor(a, b) for a, b in rec.probes]
                            if rec.probe else None)
            passes.append((traced, wall, rec.durations, result, factor,
                           call_factors))
            if len(passes) == 1:
                # later passes only add allocator fragmentation, which grows
                # with the pass count and so with machine speed
                rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    except CheckFailed as err:
        print(f"perfbench: {name} seed {seed}: check failed: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": rec.attempted,
                          "failed": rec.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [(w, r) for t, w, _, r, _, _ in passes if not t]
    traced = [(w, r) for t, w, _, r, _, _ in passes if t]
    plain = [p[2:] for p in passes if not p[0]]
    # at reference speed: each call's median over the untraced passes,
    # summed, so one burst of load moves a single sample, not the estimate
    call_medians = [statistics.median(col) for col in zip(
        *(_rescale(d, f, cf) for d, _, f, cf in plain))]
    tasks = [s for _, r, f, cf in plain for s in _rescale(r.task_s, f, cf)]
    named: dict[str, list[float]] = {}
    for _, r, f, cf in plain:
        for key, samples in r.named.items():
            named.setdefault(key, []).extend(_rescale(samples, f, cf))
    factors = [f for _, _, f, _ in plain]
    end_to_end = {"setup_s": (statistics.median(s * f for s, f in
                                                zip(setup, setup_factors)), len(setup)),
                  "wall_s": (sum(call_medians), len(untraced)),
                  "task_p50_s": (statistics.median(tasks), len(tasks)),
                  "peak_rss_mb": (rss_kib / 1024.0, 1)}
    print(f"[{name}] seed={seed} trace={args.trace} passes={len(passes)} "
          f"(traced {len(traced)}); task_p50_s is {workload.task}")
    for metric, (value, count) in end_to_end.items():
        print(f"  {metric:<24} {value:12.6f} {END_TO_END[metric]:<6} n={count}")
    for metric, samples in named.items():
        print(f"  {metric:<24} {statistics.median(samples):12.6f} s      "
              f"n={len(samples)}")
    print(f"  {'error_rate':<24} {_div(rec.failed, rec.attempted):12.6f} ratio  "
          f"failed={rec.failed} attempted={rec.attempted}")
    print(f"  {'speed_factor':<24} {statistics.median(factors):12.6f} x      "
          f"n={len(factors)} (times above are rescaled by it; raw: "
          f"setup {statistics.median(setup):.6f} s, "
          f"pass {statistics.median(w for w, _ in untraced):.6f} s)")

    report = {"workload": name, "seed": seed, "trace": args.trace,
              "smoke": args.smoke, "passes": len(passes),
              "pass_wall_s": [p[1] for p in passes],
              "pass_speed_factor": [p[4] for p in passes],
              "setup_raw_s": setup, "setup_speed_factor": setup_factors,
              "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
              "named": {k: statistics.median(v) for k, v in named.items()},
              "attempted": rec.attempted, "failed": rec.failed,
              "artifact_digest": digests[0], "facts": machine_facts()}
    if args.trace:
        metrics = {**layer_metrics(rec, traced, untraced), **probes, **src_lines()}
        units = per_layer_units()
        metrics = {k: metrics[k] for k in units}
        report["per_layer"] = metrics
        rec.write(str(OUT / f"{name}-seed{seed}.spans.jsonl"))
        for metric, value in metrics.items():
            if value:
                print(f"  {metric:<40} {value:14.6f} {units[metric]}")
    else:
        units = END_TO_END
        metrics = {k: v for k, (v, _) in end_to_end.items()}
    with open(OUT / f"{name}-seed{seed}-trace{args.trace}.json", "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    print(f"  facts {json.dumps(report['facts'], sort_keys=True)}")
    print(f"  artifact_digest {digests[0]}")
    print(json.dumps({"correct": True, "attempted": rec.attempted,
                      "failed": rec.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints a combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v
                                    for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return worst if worst else (0 if combined["correct"] else 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one pass per workload")
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "fracvol" / "__init__.py").is_file():
        print(f"perfbench: no fracvol package at {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_child:
        return setup_child(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
