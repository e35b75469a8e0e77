"""The package's export table: every public name resolves to the object its
defining module holds, however it is reached; and the scripts that reach
into its private names still run."""
import ast
import dataclasses
import importlib
import inspect
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fracvol
from fracvol.errors import Checked, ParameterError


def _fresh_python(*args):
    """stdout of a new interpreter, where nothing is resolved yet, given args:
    "-c" and code, or a script and its arguments."""
    package_root = os.path.dirname(os.path.dirname(
        os.path.abspath(fracvol.__file__)))
    pythonpath = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_kernel_accuracy_script_finds_the_alpha_cap():
    # the script calls pricing._mixture and pricing._contract directly
    from fracvol.pricing import _ALPHA_MAX
    verdict = _fresh_python(str(SCRIPTS / "kernel_accuracy.py")).splitlines()[-1]
    held = verdict.split("holds 1e-10: ")[1].split(";")[0]
    assert float(held) == _ALPHA_MAX, verdict


def test_peak_memory_script_prints_a_result_row():
    # the script reaches fgn, io and pricing internals through fracvol
    lines = _fresh_python(str(SCRIPTS / "peak_memory.py"), "smile_surface default").splitlines()
    assert len(lines) == 2 and lines[0].split() == ["case", "start", "rss", "peak", "traced"]
    name, figures = lines[1][:40].strip(), lines[1][40:].split()
    assert name == "smile_surface default" and len(figures) == 3, lines[1]
    assert all(float(f) > 0 for f in figures), lines[1]


def test_every_export_resolves_to_its_module_attribute():
    assert len(fracvol.__all__) == len(set(fracvol.__all__))
    for name in fracvol.__all__:
        module = importlib.import_module(f"fracvol.{fracvol._SOURCE[name]}")
        value = getattr(fracvol, name)
        assert value is getattr(module, name), name
        assert value.__module__ == module.__name__, name  # its defining module


def test_star_import_binds_every_export():
    namespace = {}
    exec("from fracvol import *", namespace)
    missing = [n for n in fracvol.__all__ if n not in namespace]
    assert missing == []
    assert all(namespace[n] is getattr(fracvol, n) for n in fracvol.__all__)
    assert _fresh_python("-c", "from fracvol import *; import fracvol; "
                         "print(sorted(set(fracvol.__all__) - set(globals())))"
                         ) == "[]"


def test_dir_lists_the_exports():
    assert set(fracvol.__all__) <= set(dir(fracvol))


def test_submodules_stay_reachable():
    from fracvol import pricing
    assert fracvol.pricing is pricing
    assert _fresh_python("-c", "import fracvol; "
                         "print(fracvol.pricing.__name__, fracvol.rng.__name__)"
                         ) == "fracvol.pricing fracvol.rng"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'fracvol'.*no_such_name"):
        fracvol.no_such_name
    with pytest.raises(ImportError):
        from fracvol import no_such_name  # noqa: F401


def _literal_defaults():
    """{(name, value): [file:line, ...]} over src/fracvol: each literal
    keyword default of a function and each literal dataclass field default,
    skipping None, bools, 0, 1 and empty values."""
    found = {}
    for path in sorted(Path(fracvol.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                plain = args.posonlyargs + args.args
                pairs = list(zip(plain[len(plain) - len(args.defaults):], args.defaults))
                pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                pairs = [(a.arg, d) for a, d in pairs]
            elif isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                pairs = [(s.target.id, s.value) for s in node.body
                         if isinstance(s, ast.AnnAssign) and s.value is not None]
            else:
                continue
            for name, default in pairs:
                try:
                    value = ast.literal_eval(default)
                except ValueError:
                    continue
                if (value is None or isinstance(value, bool) or value in (0, 1)
                        or (isinstance(value, (str, tuple)) and not value)):
                    continue
                found.setdefault((name, value), []).append(f"{path.name}:{default.lineno}")
    return found


def test_no_default_written_twice():
    twice = {pair: where for pair, where in _literal_defaults().items() if len(where) > 1}
    assert twice == {}


def test_cli_raises_nothing():
    """The CLI only adapts flags to library calls: every check, and so every
    raise, belongs to the module that owns the decision."""
    tree = ast.parse((Path(fracvol.__file__).parent / "cli.py").read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)] == []


def test_only_returns_imports_scipy():
    """returns.py loads scipy's three ufuncs for the package (cold start: no
    command loads a scipy package module); no other module imports scipy."""
    importers = []
    for path in sorted(Path(fracvol.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.append(path.name)
    assert sorted(set(importers)) == ["returns.py"]


# the parameters of the entry points whose quadrature sizes, windows, report
# lags and moving-average kernel (its 4096 steps and calibrated amplitude k')
# are fixed module constants, not keywords
_SIGNATURES = {
    "pricing.m_function": ["alpha", "a", "b"],
    "pricing.price": ["opt", "disp"],
    "pricing.smile_surface": ["model", "sigma_t", "moneyness", "taus", "spot", "rate",
                              "alpha"],
    "returns.pdf": ["r", "params"],
    "returns.cdf": ["r", "params"],
    "returns.calibrate_tail_prefactor": ["params"],
    "estimation.induced_volatility": ["log_prices", "window", "dt"],
    "estimation.estimate_report": ["prices", "dt", "window", "delta", "scaling_lags"],
    "estimation.integrated_logvol_decompose": ["vol"],
    "simulate.ModelParams": ["mu", "beta", "k", "delta", "hurst", "coupling"],
    "simulate.calibrated_kprime": ["params", "dt"],
    "simulate.simulate_identified": ["params", "n_steps", "dt", "s0", "seed"],
    "simulate.identified_return_ensemble": ["params", "n_steps", "dt", "seed", "n_paths"],
}


@pytest.mark.parametrize("name", _SIGNATURES)
def test_fixed_numerics_take_no_keyword(name):
    module, function = name.split(".")
    func = getattr(importlib.import_module(f"fracvol.{module}"), function)
    assert list(inspect.signature(func).parameters) == _SIGNATURES[name]


def test_fbm_covariance_is_a_test_oracle_only():
    from fracvol import fgn
    assert not hasattr(fgn, "fbm_covariance")


# what tests/oracles.py may import from the package: state containers, event
# codes, an error class and the substream, but no transition or kernel
_ORACLE_IMPORTS = {"LIMIT_ASK", "LIMIT_BID", "MARKET_BUY", "MARKET_SELL", "MarketEnv",
                   "Population", "evolve", "NoSolutionError", "substream"}


def test_oracles_import_no_package_kernel():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names if a.name.split(".")[0] == "fracvol"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fracvol":
            imported += [a.name for a in node.names]
    assert imported and set(imported) <= _ORACLE_IMPORTS, sorted(set(imported) - _ORACLE_IMPORTS)


# one bad field per class with a validate(); every other field is valid
_ONE_BAD_FIELD = {
    "LogVolParams": dict(hurst=1.5),
    "ModelParams": dict(coupling="other"),
    "ReturnDistParams": dict(lag=0.0),
    "MarketPath": dict(times=[0.0, 1.0], prices=[1.0, math.nan], logvol=[0.0, 0.0], seed=0),
    "OptionInputs": dict(spot=1.0, strike=1.0, rate=0.0, sigma_t=-0.1, tau=1.0),
    "VolDispersion": dict(alpha=math.nan),
    "Strategy": dict(entries=(1, 1, 2, 1)),
    "ImpactParams": dict(alpha_exponent=1.5),
    "MarketEnv": dict(f_choice="other"),
    "EvolutionParams": dict(mutation_prob=1.5),
    "ExperimentConfig": dict(window=4),
    "LobParams": dict(event_probs=(0.3, 0.3, 0.3, 0.3)),
}
# a result, not a parameter: its builder checks it, so that a test of the checks
# that read it can still build a corrupted copy
_CHECKED_BY_BUILDER = {"MarketPath"}


def test_parameter_classes_check_when_built():
    """Every dataclass with a validate() checks itself when it is built, but
    for the results its builders check."""
    found = {}
    for info in pkgutil.iter_modules(fracvol.__path__):
        module = importlib.import_module(f"fracvol.{info.name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__ and hasattr(cls, "validate")):
                found[cls.__name__] = cls
    assert sorted(found) == sorted(_ONE_BAD_FIELD)
    for name, cls in found.items():
        if name in _CHECKED_BY_BUILDER:
            assert not issubclass(cls, Checked), name
            with pytest.raises(ParameterError):
                cls(**_ONE_BAD_FIELD[name]).validate()
        else:
            assert issubclass(cls, Checked), name
            with pytest.raises(ParameterError):
                cls(**_ONE_BAD_FIELD[name])
