"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Every correctness check passes on a real smoke-size pass of its workload
   and trips when one output of that pass is perturbed; the replay digest
   changes when one artifact byte does.
2. A smoke run of all workloads, untraced and traced, emits every metric
   BENCHMARK.json names, with its unit.
3. Run from a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Prints one line per case and exits 1 if any case fails.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile

from run import OUT, ROOT, SRC, pass_digest

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from checks import CheckFailed  # noqa: E402
from tracing import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

failures: list[str] = []


def report(case: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {case}")
    if not ok:
        failures.append(case)


def _bump(a: np.ndarray, index: int = -1) -> np.ndarray:
    out = a.copy()
    out[index] = np.nextafter(out[index], np.inf)
    return out


def _set_surface(out, **changes):
    out["surfaces"]["model"] = dataclasses.replace(out["surfaces"]["model"], **changes)


def _set_ladder_iv(out):
    # an at-the-money point, where the price is sensitive to the vol
    i, (opt, value, iv) = next((i, row) for i, row in enumerate(out["ladder"])
                               if row[0].strike == 1.0 and row[2] is not None)
    out["ladder"][i] = (opt, value, iv * 1.001)


def _set_density(out, scale_pdf=1.0, swap_cdf=False):
    r, f, c = out["densities"][0]
    c = c.copy()
    if swap_cdf:
        c[100], c[101] = c[101], c[100]
    out["densities"][0] = (r, f * scale_pdf, c)


def _set_recovery(out, field, value):
    out["rows"] = [(p, t, i, dataclasses.replace(r, **{field: value}))
                   for p, t, i, r in out["rows"]]


def _set_ingested(out):
    path, text, ingested, rep = out["rows"][0]
    out["rows"][0] = (path, text, dataclasses.replace(
        ingested, prices=_bump(ingested.prices)), rep)


def _set_lob(out, drop_trace=False):
    path, trace = out["lob"][-1]
    if drop_trace:
        out["lob"][-1] = (path, trace[:-1])
    else:
        prices = path.prices.copy()
        prices[5] = 0.0
        out["lob"][-1] = (dataclasses.replace(path, prices=prices), trace)


def _set_abm(out):
    run = out["abm"]["n100"]
    prices = -run.path.prices
    out["abm"]["n100"] = dataclasses.replace(
        run, path=dataclasses.replace(run.path, prices=prices))


def _set_cli(out, returncode=None, stdout=None):
    name, proc = out["procs"][0]
    out["procs"][0] = (name, subprocess.CompletedProcess(
        proc.args, proc.returncode if returncode is None else returncode,
        proc.stdout if stdout is None else stdout, proc.stderr))


PERTURBATIONS = {
    "fsv_recovery": {
        "fgn value not finite": lambda o: o["fgn"]["pow2"].values.__setitem__(0, np.nan),
        "csv round trip one ulp off": _set_ingested,
        "hurst_hat off": lambda o: _set_recovery(o, "hurst_hat", 0.7),
        "beta_hat off": lambda o: _set_recovery(o, "beta_hat", -4.5),
        "ensemble csv last row": lambda o: o.__setitem__(
            "ensemble_text", o["ensemble_text"].rsplit("\n", 2)[0] + "\n"),
    },
    "pricing_surface": {
        "smile below Black-Scholes": lambda o: _set_surface(
            o, price=o["surfaces"]["model"].price - 1e-3),
        "smile implied vol off": lambda o: _set_surface(
            o, implied_vol=o["surfaces"]["model"].implied_vol * 1.001),
        "ladder implied vol off": _set_ladder_iv,
        "pdf mass off": lambda o: _set_density(o, scale_pdf=1.001),
        "cdf not monotone": lambda o: _set_density(o, swap_cdf=True),
        "Monte Carlo off by 10 se": lambda o: o.__setitem__(
            "mc", (o["mc"][0] + 10 * o["mc"][1], o["mc"][1])),
    },
    "microstructure": {
        "abm price negative": _set_abm,
        "lob price zero": _set_lob,
        "lob trace short": lambda o: _set_lob(o, drop_trace=True),
    },
    "cli_cold": {
        "cli exit code 1": lambda o: _set_cli(o, returncode=1),
        "cli summary not JSON": lambda o: _set_cli(o, stdout="done\n"),
    },
}


def check_checks() -> None:
    rec = Recorder()
    OUT.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        workdir = tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=OUT)
        try:
            inputs = workload.inputs(7, True, workdir)
            result = workload.run_pass(rec, inputs)
            try:
                workload.check(inputs, result)
                report(f"{name}: smoke pass passes its checks", True)
            except CheckFailed as err:
                report(f"{name}: smoke pass passes its checks ({err})", False)
            for case, mutate in PERTURBATIONS[name].items():
                bad = dataclasses.replace(result, outputs=copy.deepcopy(result.outputs))
                mutate(bad.outputs)
                try:
                    workload.check(inputs, bad)
                    tripped = False
                except CheckFailed:
                    tripped = True
                report(f"{name}: check trips on {case}", tripped)
            digest = pass_digest(result.artifacts)
            bumped = [bytes([result.artifacts[0][0] ^ 1]) + result.artifacts[0][1:]]
            report(f"{name}: replay digest changes with one artifact byte",
                   pass_digest(bumped + result.artifacts[1:]) != digest)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def check_metric_coverage() -> None:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             "all", "--smoke", "--seed", "3", "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        report(f"smoke run --trace {trace} exits 0 and is correct",
               proc.returncode == 0 and result["correct"] is True)
        for workload in (w["name"] for w in spec["workloads"]):
            missing = [m["name"] for m in spec[group]
                       if result["metrics"].get(f"{workload}.{m['name']}", {})
                       .get("unit") != m["unit"]]
            report(f"{workload} --trace {trace} emits every {group} metric "
                   f"with its unit (missing: {missing or 'none'})", not missing)


def check_bare_directory() -> None:
    OUT.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(prefix="selftest-bare-", dir=OUT)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fsv_recovery",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180)
        report("without src/ the benchmark exits non-zero and prints no result",
               proc.returncode != 0 and not proc.stdout.strip())
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    check_checks()
    check_metric_coverage()
    check_bare_directory()
    print(f"{len(failures)} failed" if failures else "all passed")
    sys.exit(1 if failures else 0)
