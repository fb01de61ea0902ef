"""The 23-function benchmark suite plus a composite-function plugin point.

F1-F7 are unimodal, F8-F13 multimodal (both families scale to any
dimension >= 1), F14-F23 fixed-dimension multimodal.  Each entry carries
its conventional dimension, box bounds, known minimum and, where known, a
reference minimizer polished to full float precision so fidelity tests can
assert |evaluate(minimizer) - f_min| <= 1e-4.

F24-F29 are composite-function slots: nothing is shipped for them, but an
external pack can register implementations (``register_composite``) or be
loaded from a directory of JSON files (``load_composite_pack``; format
documented on that function).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .space import SearchSpace
from .stochastic import check_count, make_rng


class UnknownFunctionError(LookupError):
    """Function id is not a known benchmark id."""


class CompositeUnavailableError(LookupError):
    """A composite slot (F24-F29) was requested but no pack is installed."""


class CompositeCollisionError(ValueError):
    """A composite id was registered twice."""


# ---------------------------------------------------------------------------
# raw function bodies
# ---------------------------------------------------------------------------
#
# Every body is an objective as the engine calls it: it takes an (n, d)
# float64 swarm and returns its n values, reducing along axis 1; a single
# point is a one-row swarm (``BenchmarkFunction.evaluate``).  Each row
# equals the value the point would get on its own, bit for bit: row-wise
# sum/prod/cumsum/max over a C-contiguous array reduce exactly like the
# 1-d call, and a term whose vector form rounds differently from the
# scalar one (math.exp against the SIMD np.exp, Python ``**`` against
# np.power) is computed per row in Python over ``.tolist()``.
#
# The reductions are the ndarray methods (``v.sum(axis=1)``, ``.prod``,
# ``.max``, ``.cumsum``), not ``np.sum(v, axis=1)`` and its kin: both run
# the same ufunc reduce, so every row keeps its bits, but the function
# form's Python wrapper costs as much as the arithmetic on a 30 x 30
# swarm, and the engine calls a body once per iteration.

def _rows(fn, column):
    """fn applied to each value of a column, as an array."""
    return np.array([fn(v) for v in column.tolist()])


def _sphere(x):
    return (x * x).sum(axis=1)


def _abs_and_product(x):
    ax = np.abs(x)
    with np.errstate(over="ignore"):  # inf at high d; evaluate_swarm aborts
        return ax.sum(axis=1) + ax.prod(axis=1)


def _double_sum(x):
    c = x.cumsum(axis=1)
    return (c * c).sum(axis=1)


def _max_abs(x):
    return np.abs(x).max(axis=1)


def _rosenbrock(x):
    head, tail = x[:, :-1], x[:, 1:]
    return (100.0 * (tail - head**2) ** 2 + (head - 1.0) ** 2).sum(axis=1)


def _step(x):
    s = np.floor(x + 0.5)
    return (s * s).sum(axis=1)


def _quartic(x):
    return (np.arange(1.0, x.shape[1] + 1.0) * x**4).sum(axis=1)


def _quartic_noise(x, rng):
    # one uniform draw per row, in row order: the same stream as per-row calls
    return _quartic(x) + rng.random(x.shape[0])


def _schwefel(x):
    return -(x * np.sin(np.sqrt(np.abs(x)))).sum(axis=1)


def _rastrigin(x):
    return (x * x - 10.0 * np.cos(2.0 * math.pi * x) + 10.0).sum(axis=1)


def _ackley(x):
    d = x.shape[1]
    radius = np.sqrt((x * x).sum(axis=1) / d)
    wave = np.cos(2.0 * math.pi * x).sum(axis=1) / d
    return (-20.0 * _rows(lambda r: math.exp(-0.2 * r), radius)
            - _rows(math.exp, wave) + 20.0 + math.e)


def _griewank(x):
    i = np.arange(1.0, x.shape[1] + 1.0)
    return (x * x).sum(axis=1) / 4000.0 - np.cos(x / np.sqrt(i)).prod(axis=1) + 1.0


def _penalty(x, a):
    out = np.zeros_like(x)
    over = x > a
    under = x < -a
    out[over] = 100.0 * (x[over] - a) ** 4.0
    out[under] = 100.0 * (-x[under] - a) ** 4.0
    return out.sum(axis=1)


def _penalized_1(x):
    y = 1.0 + (x + 1.0) / 4.0
    core = _rows(lambda v: 10.0 * math.sin(math.pi * v) ** 2, y[:, 0])
    core += ((y[:, :-1] - 1.0) ** 2
             * (1.0 + 10.0 * np.sin(math.pi * y[:, 1:]) ** 2)).sum(axis=1)
    core += _rows(lambda v: (v - 1.0) ** 2, y[:, -1])
    return math.pi / x.shape[1] * core + _penalty(x, 10.0)


def _penalized_2(x):
    core = _rows(lambda v: math.sin(3.0 * math.pi * v) ** 2, x[:, 0])
    core += ((x[:, :-1] - 1.0) ** 2
             * (1.0 + np.sin(3.0 * math.pi * x[:, 1:]) ** 2)).sum(axis=1)
    core += _rows(lambda v: (v - 1.0) ** 2 * (1.0 + math.sin(2.0 * math.pi * v) ** 2),
                  x[:, -1])
    return 0.1 * core + _penalty(x, 5.0)


# Shekel foxholes grid: 25 columns of (a_1j, a_2j)
_FOX_A1 = np.tile([-32.0, -16.0, 0.0, 16.0, 32.0], 5)
_FOX_A2 = np.repeat([-32.0, -16.0, 0.0, 16.0, 32.0], 5)
_FOX_J = np.arange(1.0, 26.0)


def _foxholes(x):
    den = _FOX_J + (x[:, :1] - _FOX_A1) ** 6 + (x[:, 1:2] - _FOX_A2) ** 6
    return 1.0 / (1.0 / 500.0 + (1.0 / den).sum(axis=1))


_KOW_A = np.array([0.1957, 0.1947, 0.1735, 0.1600, 0.0844, 0.0627,
                   0.0456, 0.0342, 0.0323, 0.0235, 0.0246])
_KOW_B = 1.0 / np.array([0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0])


def _kowalik(x):
    x1, x2, x3, x4 = (x[:, i:i + 1] for i in range(4))
    model = x1 * (_KOW_B**2 + _KOW_B * x2) / (_KOW_B**2 + _KOW_B * x3 + x4)
    return ((_KOW_A - model) ** 2).sum(axis=1)


# The two-variable polynomials below are written per row: their powers are
# scalar ``**`` (libm pow), which np.power does not reproduce bit for bit.

def _six_hump_camel(x):
    return np.array([
        4.0 * x1**2 - 2.1 * x1**4 + x1**6 / 3.0 + x1 * x2 - 4.0 * x2**2 + 4.0 * x2**4
        for x1, x2 in x.tolist()
    ])


def _branin(x):
    return np.array([
        (x2 - 5.1 * x1**2 / (4.0 * math.pi**2) + 5.0 * x1 / math.pi - 6.0) ** 2
        + 10.0 * (1.0 - 1.0 / (8.0 * math.pi)) * math.cos(x1)
        + 10.0
        for x1, x2 in x.tolist()
    ])


def _goldstein_price(x):
    def f(x1, x2):
        a = 1.0 + (x1 + x2 + 1.0) ** 2 * (
            19.0 - 14.0 * x1 + 3.0 * x1**2 - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * x2**2
        )
        b = 30.0 + (2.0 * x1 - 3.0 * x2) ** 2 * (
            18.0 - 32.0 * x1 + 12.0 * x1**2 + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * x2**2
        )
        return a * b

    return np.array([f(x1, x2) for x1, x2 in x.tolist()])


_HART_C = np.array([1.0, 1.2, 3.0, 3.2])
_HART3_A = np.array([[3.0, 10.0, 30.0],
                     [0.1, 10.0, 35.0],
                     [3.0, 10.0, 30.0],
                     [0.1, 10.0, 35.0]])
_HART3_P = np.array([[0.3689, 0.1170, 0.2673],
                     [0.4699, 0.4387, 0.7470],
                     [0.1091, 0.8732, 0.5547],
                     [0.03815, 0.5743, 0.8828]])
_HART6_A = np.array([[10.0, 3.0, 17.0, 3.5, 1.7, 8.0],
                     [0.05, 10.0, 17.0, 0.1, 8.0, 14.0],
                     [3.0, 3.5, 1.7, 10.0, 17.0, 8.0],
                     [17.0, 8.0, 0.05, 10.0, 0.1, 14.0]])
_HART6_P = np.array([[0.1312, 0.1696, 0.5569, 0.0124, 0.8283, 0.5886],
                     [0.2329, 0.4135, 0.8307, 0.3736, 0.1004, 0.9991],
                     [0.2348, 0.1451, 0.3522, 0.2883, 0.3047, 0.6650],
                     [0.4047, 0.8828, 0.8732, 0.5743, 0.1091, 0.0381]])


def _hartmann(a, p):
    def f(x):
        inner = (a * (x[:, None, :] - p) ** 2).sum(axis=2)
        return -(_HART_C * np.exp(-inner)).sum(axis=1)

    return f


_SHEKEL_A = np.array([[4.0, 4.0, 4.0, 4.0],
                      [1.0, 1.0, 1.0, 1.0],
                      [8.0, 8.0, 8.0, 8.0],
                      [6.0, 6.0, 6.0, 6.0],
                      [3.0, 7.0, 3.0, 7.0],
                      [2.0, 9.0, 2.0, 9.0],
                      [5.0, 5.0, 3.0, 3.0],
                      [8.0, 1.0, 8.0, 1.0],
                      [6.0, 2.0, 6.0, 2.0],
                      [7.0, 3.6, 7.0, 3.6]])
_SHEKEL_C = np.array([0.1, 0.2, 0.2, 0.4, 0.4, 0.6, 0.3, 0.7, 0.5, 0.5])


def _shekel(m: int):
    a, c = _SHEKEL_A[:m], _SHEKEL_C[:m]

    def f(x):
        return -(1.0 / (((x[:, None, :] - a) ** 2).sum(axis=2) + c)).sum(axis=1)

    return f


# named basis functions available to composite packs ((n, d) -> (n,) bodies)
BASIS_FUNCTIONS = {
    "sphere": _sphere,
    "abs_and_product": _abs_and_product,
    "double_sum": _double_sum,
    "max_abs": _max_abs,
    "rosenbrock": _rosenbrock,
    "step": _step,
    "quartic": _quartic,
    "schwefel": _schwefel,
    "rastrigin": _rastrigin,
    "ackley": _ackley,
    "griewank": _griewank,
    "penalized_1": _penalized_1,
    "penalized_2": _penalized_2,
}


# ---------------------------------------------------------------------------
# the catalogue
# ---------------------------------------------------------------------------

@dataclass
class BenchmarkFunction:
    """One benchmark entry: metadata plus a pure evaluation function.

    ``_eval`` maps an (n, d) swarm to its n values.
    """

    fid: str
    name: str
    dim: int
    lower: float
    upper: float
    f_min: Optional[float]
    minimizer: Optional[np.ndarray]
    scalable: bool
    noisy: bool = False
    _eval: Callable = None

    def space(self, dim: Optional[int] = None) -> SearchSpace:
        """The function's box; scalable functions accept a dim override."""
        d = self.dim if dim is None else check_count("dim", dim, 1)
        if d != self.dim and not self.scalable:
            raise ValueError(
                f"{self.fid} is fixed at dimension {self.dim}, got {d}"
            )
        return SearchSpace.cube(d, self.lower, self.upper)

    def evaluate(self, x, seed: int = 0) -> float:
        """Validated single evaluation of a finite 1-d point of the
        function's dimension, through ``objective(seed)``."""
        check_count("seed", seed, 0)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("point must be a 1-d vector")
        self.space(x.size)  # raises on a wrong dimension
        finite = np.isfinite(x)
        if not finite.all():
            i = int(np.flatnonzero(~finite)[0])
            raise ValueError(f"point coordinate {i} is {float(x[i])!r}, "
                             "not finite")
        value = np.asarray(self.objective(seed)(x[None, :]), dtype=np.float64)
        if value.shape != (1,):
            raise ValueError(f"objective returned shape {value.shape}, expected (1,)")
        return float(value[0])

    def objective(self, seed: int = 0):
        """The unvalidated swarm objective of a run seeded ``seed``: the
        body itself, mapping an (n, d) float64 swarm to its n values (dims
        come from space()); for the noisy F7, the body bound to its noise
        stream, stream 1 of ``seed`` (stream 0 drives the optimizer)."""
        if not self.noisy:
            return self._eval
        return functools.partial(self._eval, rng=make_rng(seed, stream=1))


def _entry(fid, name, dim, lower, upper, f_min, minimizer, fn,
           scalable=False, noisy=False):
    m = None if minimizer is None else np.asarray(minimizer, dtype=np.float64)
    return BenchmarkFunction(fid, name, dim, float(lower), float(upper),
                             f_min, m, scalable, noisy, fn)


# Reference minimizers for F14-F23 were polished offline to full float
# precision (frozen here) so that local-minimality and f_min fidelity both
# hold; printed catalogues round these to 3-6 significant digits.
_BUILTIN = {
    "F1": _entry("F1", "sphere", 30, -100, 100, 0.0, np.zeros(30), _sphere, scalable=True),
    "F2": _entry("F2", "abs_and_product", 30, -10, 10, 0.0, np.zeros(30), _abs_and_product, scalable=True),
    "F3": _entry("F3", "double_sum", 30, -100, 100, 0.0, np.zeros(30), _double_sum, scalable=True),
    "F4": _entry("F4", "max_abs", 30, -100, 100, 0.0, np.zeros(30), _max_abs, scalable=True),
    "F5": _entry("F5", "rosenbrock", 30, -30, 30, 0.0, np.ones(30), _rosenbrock, scalable=True),
    "F6": _entry("F6", "step", 30, -100, 100, 0.0, np.zeros(30), _step, scalable=True),
    "F7": _entry("F7", "quartic_noise", 30, -1.28, 1.28, 0.0, np.zeros(30), _quartic_noise,
                 scalable=True, noisy=True),
    "F8": _entry("F8", "schwefel", 30, -500, 500, -12569.486618173014,
                 np.full(30, 420.96874657644923), _schwefel, scalable=True),
    "F9": _entry("F9", "rastrigin", 30, -5.12, 5.12, 0.0, np.zeros(30), _rastrigin, scalable=True),
    "F10": _entry("F10", "ackley", 30, -32, 32, 0.0, np.zeros(30), _ackley, scalable=True),
    "F11": _entry("F11", "griewank", 30, -600, 600, 0.0, np.zeros(30), _griewank, scalable=True),
    "F12": _entry("F12", "penalized_1", 30, -50, 50, 0.0, np.full(30, -1.0), _penalized_1,
                  scalable=True),
    "F13": _entry("F13", "penalized_2", 30, -50, 50, 0.0, np.ones(30), _penalized_2,
                  scalable=True),
    "F14": _entry("F14", "foxholes", 2, -65, 65, 0.9980038377944498,
                  [-31.97833357139726, -31.978336789414364], _foxholes),
    "F15": _entry("F15", "kowalik", 4, -5, 5, 0.0003074859878056055,
                  [0.19283345267974872, 0.1908362373090203,
                   0.12311729237896951, 0.13576598922143462], _kowalik),
    "F16": _entry("F16", "six_hump_camel", 2, -5, 5, -1.0316284534898776,
                  [0.08984201492945389, -0.712656402369394], _six_hump_camel),
    "F17": _entry("F17", "branin", 2, -5, 5, 0.39788735772973816,
                  [math.pi, 2.275], _branin),
    "F18": _entry("F18", "goldstein_price", 2, -2, 2, 3.0, [0.0, -1.0], _goldstein_price),
    "F19": _entry("F19", "hartmann_3", 3, 0, 1, -3.8627821478207554,
                  [0.11461432790029832, 0.5556488504420141, 0.8525469546889314],
                  _hartmann(_HART3_A, _HART3_P)),
    "F20": _entry("F20", "hartmann_6", 6, 0, 1, -3.322368011415515,
                  [0.2016895128922905, 0.15001069323742897, 0.4768739767611768,
                   0.2753324307839508, 0.31165161848739587, 0.6573005349989142],
                  _hartmann(_HART6_A, _HART6_P)),
    "F21": _entry("F21", "shekel_5", 4, 0, 10, -10.153199679058229,
                  [4.000037152376549, 4.000133278657566,
                   4.000037151057555, 4.000133277090425], _shekel(5)),
    "F22": _entry("F22", "shekel_7", 4, 0, 10, -10.402940566818662,
                  [4.000572914277084, 4.000689366040889,
                   3.9994897107938447, 3.9996061600067923], _shekel(7)),
    "F23": _entry("F23", "shekel_10", 4, 0, 10, -10.536409816692045,
                  [4.000746530253313, 4.000592936779709,
                   3.9996633957714787, 3.9995097993299975], _shekel(10)),
}

BUILTIN_IDS = tuple(_BUILTIN)
COMPOSITE_IDS = ("F24", "F25", "F26", "F27", "F28", "F29")

_composites: dict[str, BenchmarkFunction] = {}
_loaded_packs: dict[str, tuple] = {}  # resolved pack directory -> its ids


def lookup(fid: str) -> BenchmarkFunction:
    """Fetch a benchmark by id (case-insensitive: 'f1' or 'F1')."""
    key = str(fid).upper()
    if key in _BUILTIN:
        return _BUILTIN[key]
    if key in _composites:
        return _composites[key]
    if key in COMPOSITE_IDS:
        raise CompositeUnavailableError(
            f"{key} is a composite function slot and no composite pack is "
            f"installed; register one with register_composite or "
            f"load_composite_pack"
        )
    raise UnknownFunctionError(f"unknown benchmark function id {fid!r}")


def register_composite(pack) -> None:
    """Register composite implementations for the F24-F29 slots.

    ``pack`` is one mapping or a list of mappings, each with keys id, dim
    (an integer >= 1), lower, upper, eval (the objective: an (n, d) swarm
    to its n values, each row the value it gets alone) and optionally name,
    f_min, minimizer.  Ids must be F24-F29 and not yet registered.
    """
    specs = pack if isinstance(pack, (list, tuple)) else [pack]
    staged = []
    for spec in specs:
        fid = str(spec.get("id")).upper()
        if fid not in COMPOSITE_IDS:
            raise UnknownFunctionError(
                f"composite id must be one of {COMPOSITE_IDS}, got {fid!r}"
            )
        if fid in _composites or any(e.fid == fid for e in staged):
            raise CompositeCollisionError(f"composite {fid} already registered")
        fn = spec.get("eval")
        if not callable(fn):
            raise ValueError(f"composite {fid} needs a callable 'eval'")
        staged.append(_entry(
            fid, spec.get("name", fid.lower()), check_count("dim", spec.get("dim"), 1),
            spec.get("lower"), spec.get("upper"), spec.get("f_min"),
            spec.get("minimizer"), fn))
    for entry in staged:
        _composites[entry.fid] = entry


def clear_composites() -> None:
    """Drop all registered composites and the record of loaded packs."""
    _composites.clear()
    _loaded_packs.clear()


def load_composite_pack(directory) -> list[str]:
    """Load composite functions from a directory of JSON files.

    Each ``*.json`` file describes one function::

        {
          "id": "F24", "dim": 30, "lower": -100, "upper": 100,
          "f_min": 2400.0,                  # optional
          "minimizer": [...],               # optional
          "bias": 2400.0,                   # optional, default 0
          "components": [                   # optional, default []
            {"basis": "sphere",             # key in BASIS_FUNCTIONS
             "weight": 1.0,                 # optional, default 1
             "shift": [... dim floats ...], # optional, default zeros
             "rotation": [[dim x dim]]}     # optional, default identity
          ]
        }

    Evaluation is bias + sum_j weight_j * basis_j(R_j @ (x - shift_j)).
    This is a plugin data format, not an official competition definition;
    packs needing richer semantics register eval callables directly.

    The pack loads whole or not at all: every file is parsed and checked
    (a malformed file, a dim that is not an integer >= 1, an unknown basis
    or a shift or rotation whose shape does not match dim is a ValueError)
    before one ``register_composite`` call registers them all.  A directory
    loaded since the last ``clear_composites`` is not read again; it returns
    its ids.
    """
    directory = Path(directory)
    key = str(directory.resolve())
    if key in _loaded_packs:
        return list(_loaded_packs[key])
    files = sorted(directory.glob("*.json"))
    if not files:
        raise FileNotFoundError(f"no composite definitions (*.json) in {directory}")
    specs = []
    for path in files:
        try:
            specs.append(_composite_spec(path))
        except (KeyError, TypeError, ValueError) as exc:
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"{path.name}: {detail}") from exc
    register_composite(specs)
    _loaded_packs[key] = tuple(spec["id"] for spec in specs)
    return list(_loaded_packs[key])


def _composite_spec(path: Path) -> dict:
    with open(path) as fh:
        raw = json.load(fh)
    dim = check_count("dim", raw["dim"], 1)
    bias = float(raw.get("bias", 0.0))
    parts = []
    for comp in raw.get("components", []):
        if comp["basis"] not in BASIS_FUNCTIONS:
            raise ValueError(f"unknown basis {comp['basis']!r}; choose from "
                             f"{tuple(BASIS_FUNCTIONS)}")
        basis = BASIS_FUNCTIONS[comp["basis"]]
        weight = float(comp.get("weight", 1.0))
        shift = np.asarray(comp.get("shift", np.zeros(dim)), dtype=np.float64)
        if shift.shape != (dim,):
            raise ValueError(f"shift shape {shift.shape} != ({dim},)")
        rotation = comp.get("rotation")
        if rotation is not None:
            rotation = np.asarray(rotation, dtype=np.float64)
            if rotation.shape != (dim, dim):
                raise ValueError(f"rotation shape {rotation.shape} != ({dim}, {dim})")
        parts.append((basis, weight, shift, rotation))

    def f(x):
        total = np.full(x.shape[0], bias)
        for basis, weight, shift, rotation in parts:
            z = x - shift
            if rotation is not None:
                z = np.matmul(rotation, z[:, :, None])[:, :, 0]  # rotation @ row, bit for bit
            total += weight * basis(z)
        return total

    fid = str(raw["id"]).upper()
    return {
        "id": fid,
        "name": raw.get("name", fid.lower()),
        "dim": dim,
        "lower": float(raw["lower"]),
        "upper": float(raw["upper"]),
        "f_min": raw.get("f_min"),
        "minimizer": raw.get("minimizer"),
        "eval": f,
    }
