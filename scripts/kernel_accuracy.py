"""How far the M-kernel price is from adaptive quadrature, by dispersion alpha.

For each alpha in ALPHAS and each contract in CONTRACTS (spot 1, sigma_t 0.01,
rate 0), prints the relative gap between the kernel's call value and the
Hull-White mixture E[BS(sigma_t e^u)], u ~ N(0, alpha^2), integrated by scipy's
adaptive quad (tests/oracles.py::ref_price_quad). The largest alpha whose worst
gap is within 1e-10 is the cap fracvol.pricing._ALPHA_MAX; past it `price`
raises ParameterError, so this script calls the kernel, pricing._mixture, directly.

    PYTHONPATH=src python scripts/kernel_accuracy.py
"""
import math
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles import ref_price_quad  # noqa: E402

from fracvol import pricing  # noqa: E402
from fracvol.errors import FracvolError  # noqa: E402

ALPHAS = (1.0, 2.0, 3.0, 5.0, 6.0, 8.0, 10.0, 20.0, 50.0)
CONTRACTS = ((1.05, 20.0), (0.8, 5.0), (1.5, 100.0), (1.0, 20.0))  # (strike, tau)
SIGMA_T, TOLERANCE = 0.01, 1e-10


def kernel_gap(alpha: float, strike: float, tau: float) -> float:
    """|kernel - quadrature| / quadrature, or nan where the kernel raises."""
    opt = pricing.OptionInputs(1.0, strike, 0.0, SIGMA_T, tau)
    exact = ref_price_quad(1.0, strike, 0.0, SIGMA_T, tau, alpha)
    try:
        value = float(pricing._mixture(alpha, 1.0, *pricing._contract(opt), SIGMA_T)[0])
    except FracvolError:
        return float("nan")
    return abs(value - exact) / exact


def main() -> None:
    print("alpha   " + "  ".join(f"K={k:<4g} tau={t:<5g}" for k, t in CONTRACTS)
          + "  worst     within 1e-10")
    held, holding = 0.0, True
    for alpha in ALPHAS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the kernel's float range past alpha ~ 44
            gaps = [kernel_gap(alpha, k, t) for k, t in CONTRACTS]
        worst = math.nan if any(map(math.isnan, gaps)) else max(gaps)
        holding = holding and worst <= TOLERANCE
        held = alpha if holding else held
        print(f"{alpha:<6g}  " + "  ".join(f"{g:<16.2e}" for g in gaps)
              + f"  {worst:<8.2e}  {'yes' if worst <= TOLERANCE else 'no'}")
    print(f"largest alpha up to which every row holds {TOLERANCE:g}: {held:g}; "
          f"pricing._ALPHA_MAX = {pricing._ALPHA_MAX:g} (nan: the kernel raised)")


if __name__ == "__main__":
    main()
