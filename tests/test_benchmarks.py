"""Tests for the benchmark catalogue: fidelity, properties, composites."""

import json
import math
import re

import numpy as np
import pytest

from nlcmfo.benchmarks import (BASIS_FUNCTIONS, BUILTIN_IDS, COMPOSITE_IDS,
                               CompositeCollisionError,
                               CompositeUnavailableError,
                               UnknownFunctionError, clear_composites,
                               load_composite_pack, lookup,
                               register_composite)
from nlcmfo.stochastic import make_rng

SCALABLE_IDS = tuple(f"F{i}" for i in range(1, 14))
FIXED_IDS = tuple(f"F{i}" for i in range(14, 24))


@pytest.fixture
def composite_sandbox():
    clear_composites()
    yield
    clear_composites()


# ---------------------------------------------------------------------------
# catalogue shape
# ---------------------------------------------------------------------------


def test_builtin_ids_complete():
    assert BUILTIN_IDS == SCALABLE_IDS + FIXED_IDS
    assert COMPOSITE_IDS == ("F24", "F25", "F26", "F27", "F28", "F29")


def test_lookup_is_case_insensitive():
    assert lookup("f1") is lookup("F1")
    assert lookup("f18").evaluate([0.0, -1.0]) == pytest.approx(3.0)


def test_unknown_id_rejected():
    with pytest.raises(UnknownFunctionError):
        lookup("F99")
    with pytest.raises(UnknownFunctionError):
        lookup("sphere")


def test_composite_slot_without_pack(composite_sandbox):
    with pytest.raises(CompositeUnavailableError):
        lookup("F24")


def test_scalable_flags_and_dims():
    for fid in SCALABLE_IDS:
        f = lookup(fid)
        assert f.scalable and f.dim == 30, fid
    for fid, dim in zip(FIXED_IDS, (2, 4, 2, 2, 2, 3, 6, 4, 4, 4)):
        f = lookup(fid)
        assert not f.scalable and f.dim == dim, fid


def test_search_ranges():
    expected = {
        "F1": 100, "F2": 10, "F3": 100, "F4": 100, "F5": 30, "F6": 100,
        "F7": 1.28, "F8": 500, "F9": 5.12, "F10": 32, "F11": 600,
        "F12": 50, "F13": 50, "F16": 5, "F17": 5, "F15": 5,
    }
    for fid, half in expected.items():
        f = lookup(fid)
        assert (f.lower, f.upper) == (-half, half), fid
    assert (lookup("F14").lower, lookup("F14").upper) == (-65, 65)
    assert (lookup("F18").lower, lookup("F18").upper) == (-2, 2)
    for fid in ("F19", "F20"):
        assert (lookup(fid).lower, lookup(fid).upper) == (0, 1), fid
    for fid in ("F21", "F22", "F23"):
        assert (lookup(fid).lower, lookup(fid).upper) == (0, 10), fid


def test_space_override_rules():
    assert lookup("F1").space().dim == 30
    assert lookup("F1").space(100).dim == 100
    with pytest.raises(ValueError):
        lookup("F16").space(5)
    with pytest.raises(ValueError):
        lookup("F1").space(0)


# ---------------------------------------------------------------------------
# fidelity at the reference minimizers
# ---------------------------------------------------------------------------


def test_zero_minimum_functions_vanish_at_minimizer():
    for fid in ("F1", "F2", "F3", "F4", "F5", "F6", "F9", "F11", "F12", "F13"):
        f = lookup(fid)
        assert abs(f.evaluate(f.minimizer)) < 1e-12, fid


def test_ackley_minimum_is_float_exact():
    # analytic 0; float exp/sqrt leave a ~4e-16 residue
    f = lookup("F10")
    assert f.evaluate(f.minimizer) == pytest.approx(4.440892098500626e-16,
                                                    abs=1e-16)


def test_schwefel_minimum_scales_with_dimension():
    f = lookup("F8")
    assert f.evaluate(f.minimizer) == pytest.approx(-12569.486618173014,
                                                    abs=1e-9)
    assert f.evaluate(f.minimizer) == pytest.approx(-418.9829 * 30, abs=0.01)
    ten = np.full(10, f.minimizer[0])
    assert f.evaluate(ten) == pytest.approx(-418.9829 * 10, abs=0.01)


def test_fixed_dimension_minimizers_reproduce_f_min():
    for fid in FIXED_IDS:
        f = lookup(fid)
        assert f.evaluate(f.minimizer) == pytest.approx(f.f_min, abs=1e-8), fid


def test_quartic_noise_at_origin_is_pure_noise():
    f = lookup("F7")
    value = f.evaluate(f.minimizer, seed=0)
    assert 0.0 <= value < 1.0


# independent re-implementations used as cross-checks


def _camel_oracle(x1, x2):
    return (4 * x1**2 - 2.1 * x1**4 + x1**6 / 3.0 + x1 * x2
            - 4 * x2**2 + 4 * x2**4)


def _branin_oracle(x1, x2):
    return ((x2 - 5.1 / (4 * math.pi**2) * x1**2 + 5.0 / math.pi * x1 - 6) ** 2
            + 10 * (1 - 1 / (8 * math.pi)) * math.cos(x1) + 10)


def test_six_hump_camel_matches_independent_oracle():
    f = lookup("F16")
    rng = make_rng(1)
    pts = rng.uniform(-5, 5, size=(100, 2))
    for p in pts:
        assert f.evaluate(p) == pytest.approx(_camel_oracle(*p), rel=1e-12)


def test_branin_matches_independent_oracle():
    f = lookup("F17")
    rng = make_rng(2)
    pts = rng.uniform(-5, 5, size=(100, 2))
    for p in pts:
        assert f.evaluate(p) == pytest.approx(_branin_oracle(*p), rel=1e-12)


def test_six_hump_camel_grid_floor_matches_f_min():
    # a fine grid over the basin region never undercuts the reference minimum
    f = lookup("F16")
    g = np.linspace(-2.0, 2.0, 401)
    x1, x2 = np.meshgrid(g, g)
    grid_min = _camel_oracle(x1, x2).min()
    assert grid_min >= f.f_min
    assert grid_min - f.f_min < 1e-3


def test_reference_minimizers_are_local_minima():
    rng = make_rng(17)
    for fid in FIXED_IDS:
        f = lookup(fid)
        x = f.minimizer
        base = f.f_min
        slack = 1e-8 * max(1.0, abs(base))
        for _ in range(300):
            delta = rng.normal(size=x.size)
            delta *= rng.uniform(0, 1e-3) / np.linalg.norm(delta)
            probe = np.clip(x + delta, f.lower, f.upper)
            assert f.evaluate(probe) >= base - slack, fid


# ---------------------------------------------------------------------------
# pointwise behavior of selected functions
# ---------------------------------------------------------------------------


def test_nonnegative_functions_stay_nonnegative():
    rng = make_rng(23)
    for fid in ("F1", "F2", "F3", "F4", "F5", "F6", "F9", "F10", "F11"):
        f = lookup(fid)
        pts = rng.uniform(f.lower, f.upper, size=(2000, f.dim))
        assert all(f.evaluate(p) >= 0.0 for p in pts), fid


def test_step_function_plateaus():
    f = lookup("F6")
    assert f.evaluate(np.full(30, 0.4)) == 0.0    # rounds to 0 per coordinate
    assert f.evaluate(np.full(30, 0.6)) == 30.0   # rounds to 1 per coordinate
    assert f.evaluate(np.full(30, -1.6)) == 4 * 30.0


def test_quartic_noise_follows_the_seed():
    f = lookup("F7")
    obj = f.objective(0)
    x = np.zeros((1, 30))
    draws = {obj(x)[0] for _ in range(5)}
    assert len(draws) == 5                        # fresh noise per call
    assert all(0.0 <= v < 1.0 for v in draws)
    assert f.evaluate(x[0], seed=0) != f.evaluate(x[0], seed=1)


def test_penalized_functions_match_independent_oracle():
    # hand-computed values, including points with active boundary penalties
    f12, f13 = lookup("F12"), lookup("F13")
    assert f12.evaluate([0.5, -0.5, 2.0]) == pytest.approx(9.98853618692775,
                                                           rel=1e-12)
    assert f12.evaluate([12.0, -11.0, 0.0]) == pytest.approx(1866.24261125246,
                                                             rel=1e-12)
    assert f13.evaluate([0.5, -0.5, 2.0]) == pytest.approx(0.475, rel=1e-12)
    assert f13.evaluate([7.0, -6.0, 0.0]) == pytest.approx(1708.6, rel=1e-12)


def test_penalty_grows_quartically_outside_core_box():
    # the boundary penalty (active beyond |x| = 10) dwarfs the smooth part
    f12 = lookup("F12")
    inside = f12.evaluate(np.full(2, 9.9))
    assert math.isfinite(inside) and inside < 1e3
    assert f12.evaluate(np.full(2, 20.0)) > 1e6        # 2 * 100 * 10^4
    assert f12.evaluate(np.full(2, 30.0)) > f12.evaluate(np.full(2, 20.0))


def test_scalable_evaluation_other_dimensions():
    assert lookup("F1").evaluate(np.zeros(100)) == 0.0
    assert lookup("F1").evaluate([3.0, 4.0]) == 25.0
    assert lookup("F9").evaluate(np.zeros(1000)) == 0.0
    assert lookup("F10").evaluate(np.zeros(100)) == pytest.approx(0.0, abs=1e-12)


def test_dimension_validation():
    with pytest.raises(ValueError):
        lookup("F16").evaluate([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        lookup("F1").evaluate(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="^dim must be >= 1$"):
        lookup("F1").space(0)
    assert lookup("F1").space(np.int64(3)).dim == 3


@pytest.mark.parametrize("dim", [2.5, np.float64(3.9), True, "3"])
def test_space_requires_an_integer_dim(dim):
    # int(dim) made 2.5 a 2-d box and 3.9 a 3-d one
    with pytest.raises(TypeError,
                       match=re.escape(f"dim must be an integer, got {dim!r}")):
        lookup("F1").space(dim)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_point_rejected(value):
    # F1's body alone would give nan or inf; the point check names the
    # first non-finite coordinate
    with pytest.raises(ValueError, match=r"coordinate 2 is .*, not finite"):
        lookup("F1").evaluate([0.0, 1.0, value, value])


# ---------------------------------------------------------------------------
# swarm evaluation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fid", BUILTIN_IDS)
def test_swarm_call_equals_per_row_calls_bitwise(fid):
    f = lookup(fid)
    rng = make_rng(31)
    for d in (1, 2, 30, 1000) if f.scalable else (f.dim,):
        for half in (f.upper - f.lower) / 2, (f.upper - f.lower) / 200:
            centre = (f.upper + f.lower) / 2
            swarm = rng.uniform(centre - half, centre + half, size=(12, d))
            if f.noisy:
                # one noise stream across the rows, as in the swarm call
                batch = f.objective(4)(swarm)
                per_row = f.objective(4)
                rows = [per_row(row[None, :])[0] for row in swarm]
            else:
                batch = f.objective()(swarm)
                rows = [f.evaluate(row) for row in swarm]
            assert batch.shape == (12,)
            assert batch.tobytes() == np.array(rows).tobytes(), (fid, d, half)


def test_builtin_objective_is_its_swarm_body():
    f1 = lookup("F1")
    obj = f1.objective()
    assert obj is f1._eval
    assert np.array_equal(obj(np.array([[3.0, 4.0], [0.0, 1.0]])), [25.0, 1.0])
    # F7's body with its noise rng bound: one draw per row, in row order
    f7 = lookup("F7")
    noisy = f7.objective(0)
    assert noisy.func is f7._eval
    values = noisy(np.zeros((3, 2)))
    assert values.tobytes() == make_rng(0, stream=1).random(3).tobytes()


# ---------------------------------------------------------------------------
# composite registry
# ---------------------------------------------------------------------------


def test_register_composite_dict(composite_sandbox):
    register_composite({
        "id": "F24", "dim": 2, "lower": -100.0, "upper": 100.0,
        "f_min": 2400.0, "minimizer": [1.0, 2.0],
        "eval": lambda X: 2400.0 + ((X - [1.0, 2.0]) ** 2).sum(axis=1),
    })
    f = lookup("F24")
    assert f.dim == 2 and not f.scalable
    assert f.evaluate([1.0, 2.0]) == 2400.0
    assert f.evaluate([3.0, 2.0]) == 2404.0


def test_register_composite_rejects_builtin_slot(composite_sandbox):
    with pytest.raises(UnknownFunctionError):
        register_composite({"id": "F30", "dim": 2, "lower": 0, "upper": 1,
                            "eval": lambda X: np.zeros(len(X))})
    with pytest.raises(UnknownFunctionError):
        register_composite({"id": "F1", "dim": 2, "lower": 0, "upper": 1,
                            "eval": lambda X: np.zeros(len(X))})


def test_register_composite_collision(composite_sandbox):
    spec = {"id": "F25", "dim": 2, "lower": 0, "upper": 1,
            "eval": lambda X: np.zeros(len(X))}
    register_composite(spec)
    with pytest.raises(CompositeCollisionError):
        register_composite(dict(spec))


def test_register_composite_list_is_atomic(composite_sandbox):
    good = {"id": "F24", "dim": 2, "lower": 0, "upper": 1,
            "eval": lambda X: np.zeros(len(X))}
    bad = {"id": "F99", "dim": 2, "lower": 0, "upper": 1,
           "eval": lambda X: np.zeros(len(X))}
    with pytest.raises(UnknownFunctionError):
        register_composite([good, bad])
    with pytest.raises(CompositeUnavailableError):
        lookup("F24")   # nothing from the failed batch was committed


def test_register_composite_requires_callable(composite_sandbox):
    with pytest.raises(ValueError):
        register_composite({"id": "F24", "dim": 2, "lower": 0, "upper": 1,
                            "eval": 3.0})


@pytest.mark.parametrize("dim", [2.7, 2.0, True, "3"])
def test_register_composite_requires_an_integer_dim(composite_sandbox, dim):
    with pytest.raises(TypeError,
                       match=re.escape(f"dim must be an integer, got {dim!r}")):
        register_composite({"id": "F24", "dim": dim, "lower": 0, "upper": 1,
                            "eval": lambda X: np.zeros(len(X))})
    with pytest.raises(CompositeUnavailableError):
        lookup("F24")


def test_clear_composites(composite_sandbox):
    register_composite({"id": "F24", "dim": 2, "lower": 0, "upper": 1,
                        "eval": lambda X: np.zeros(len(X))})
    clear_composites()
    with pytest.raises(CompositeUnavailableError):
        lookup("F24")


def _write_pack(directory, specs):
    for name, spec in specs.items():
        with open(directory / name, "w") as fh:
            json.dump(spec, fh)


def test_load_composite_pack_roundtrip(tmp_path, composite_sandbox):
    _write_pack(tmp_path, {
        "f24.json": {
            "id": "F24", "dim": 2, "lower": -100, "upper": 100,
            "f_min": 2400.0, "minimizer": [1.0, 2.0], "bias": 2400.0,
            "components": [
                {"basis": "sphere", "weight": 1.0, "shift": [1.0, 2.0]},
            ],
        },
        "f25.json": {
            "id": "F25", "dim": 3, "lower": -10, "upper": 10,
            "bias": 2500.0,
        },
    })
    loaded = load_composite_pack(tmp_path)
    assert loaded == ["F24", "F25"]
    f24 = lookup("F24")
    assert f24.evaluate([1.0, 2.0]) == 2400.0
    assert f24.evaluate([4.0, 6.0]) == 2400.0 + 9.0 + 16.0
    assert f24.f_min == 2400.0
    f25 = lookup("F25")   # empty component list: constant bias stub
    assert f25.evaluate([0.0, 0.0, 0.0]) == 2500.0
    assert f25.evaluate([5.0, -5.0, 1.0]) == 2500.0


def test_load_composite_pack_rotation_and_weight(tmp_path, composite_sandbox):
    _write_pack(tmp_path, {
        "f26.json": {
            "id": "F26", "dim": 2, "lower": -5, "upper": 5,
            "components": [
                {"basis": "sphere", "weight": 2.0, "shift": [1.0, 0.0],
                 "rotation": [[2.0, 0.0], [0.0, 0.0]]},
            ],
        },
    })
    load_composite_pack(tmp_path)
    # weight * sphere(R @ (x - shift)) = 2 * (2 * (x1 - 1))^2
    assert lookup("F26").evaluate([2.0, 7.7]) == pytest.approx(8.0)
    assert lookup("F26").evaluate([1.0, -3.0]) == 0.0


def test_composite_objective_is_called_once_per_swarm(composite_sandbox):
    seen = []

    def fn(x):
        seen.append(np.shape(x))
        return x.sum(axis=1)

    register_composite({"id": "F24", "dim": 3, "lower": -1, "upper": 1,
                        "eval": fn})
    obj = lookup("F24").objective()
    swarm = obj(np.array([[1.0, 2.0, 3.0], [0.5, 0.0, -1.0]]))
    assert np.array_equal(swarm, [6.0, -0.5])
    assert seen == [(2, 3)]
    value = lookup("F24").evaluate([1.0, 2.0, 3.0])
    assert type(value) is float and value == 6.0
    assert seen == [(2, 3), (1, 3)]


@pytest.mark.parametrize("fn, shape", [
    (lambda X: 3.0, "()"),
    (lambda X: np.float64(3.0), "()"),
    (lambda X: np.full((len(X), 1), 3.0), "(1, 1)"),
], ids=["float", "float64", "column"])
def test_evaluate_rejects_a_return_of_the_wrong_shape(composite_sandbox, fn,
                                                      shape):
    register_composite({"id": "F24", "dim": 2, "lower": 0, "upper": 1,
                        "eval": fn})
    with pytest.raises(ValueError, match=re.escape(
            f"objective returned shape {shape}, expected (1,)")):
        lookup("F24").evaluate([0.5, 0.25])


def _per_point_values(swarm, bias, components):
    """A pack's values, one point at a time, from its formula written out:
    bias + sum of weight * basis(rotation @ (x - shift)) in file order."""
    values = []
    for x in swarm:
        total = bias
        for comp in components:
            z = x - np.array(comp["shift"])
            if "rotation" in comp:
                z = np.array(comp["rotation"]) @ z
            basis = BASIS_FUNCTIONS[comp["basis"]]
            total += comp["weight"] * basis(z[None, :])[0]
        values.append(total)
    return np.array(values)


def _assert_pack_matches_per_point_values(directory, spec, rng):
    _write_pack(directory, {"f24.json": spec})
    load_composite_pack(directory)
    swarm = rng.uniform(-5, 5, (7, spec["dim"]))
    expected = _per_point_values(swarm, spec["bias"], spec["components"])
    assert (lookup("F24").objective()(swarm).tobytes()
            == expected.tobytes())


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("d", [1, 3, 30])
@pytest.mark.parametrize("basis", sorted(BASIS_FUNCTIONS))
def test_composite_pack_swarm_call_equals_per_point_formula_bitwise(
        tmp_path, composite_sandbox, basis, d, rotated):
    rng = make_rng(5)
    comp = {"basis": basis, "weight": 0.7,
            "shift": rng.uniform(-2, 2, d).tolist()}
    if rotated:
        comp["rotation"] = rng.standard_normal((d, d)).tolist()
    _assert_pack_matches_per_point_values(tmp_path, {
        "id": "F24", "dim": d, "lower": -5, "upper": 5, "bias": 2400.0,
        "components": [comp]}, rng)


def test_composite_pack_swarm_call_equals_per_row_calls_bitwise(
        tmp_path, composite_sandbox):
    rng = make_rng(5)
    _assert_pack_matches_per_point_values(tmp_path, {
        "id": "F24", "dim": 3, "lower": -5, "upper": 5, "bias": 2400.0,
        "components": [
            {"basis": "rastrigin", "weight": 0.7,
             "shift": rng.uniform(-2, 2, 3).tolist(),
             "rotation": rng.standard_normal((3, 3)).tolist()},
            {"basis": "ackley", "weight": 1.3,
             "shift": rng.uniform(-2, 2, 3).tolist()},
        ],
    }, rng)


def test_load_composite_pack_empty_directory(tmp_path, composite_sandbox):
    with pytest.raises(FileNotFoundError):
        load_composite_pack(tmp_path)


_GOOD_F24 = {"id": "F24", "dim": 2, "lower": -5, "upper": 5,
             "components": [{"basis": "sphere", "shift": [1.0, 0.0]}]}


@pytest.mark.parametrize("bad, message", [
    ({"basis": "nope"}, "unknown basis"),
    ({"basis": "sphere", "shift": [1.0, 2.0, 3.0]}, "shift shape"),
    ({"basis": "sphere", "rotation": [[1.0, 0.0]]}, "rotation shape"),
    ({"weight": 1.0}, "basis"),   # a component without a basis
])
def test_load_composite_pack_registers_nothing_on_a_bad_file(
        tmp_path, composite_sandbox, bad, message):
    # f24.json sorts first and is fine; f25.json fails after it is parsed
    _write_pack(tmp_path, {
        "f24.json": _GOOD_F24,
        "f25.json": {"id": "F25", "dim": 2, "lower": -5, "upper": 5,
                     "components": [bad]},
    })
    with pytest.raises(ValueError, match=message) as excinfo:
        load_composite_pack(tmp_path)
    assert "f25.json" in str(excinfo.value)
    for fid in ("F24", "F25"):
        with pytest.raises(CompositeUnavailableError):
            lookup(fid)


@pytest.mark.parametrize("dim", [2.7, 2.0, True, "3"])
def test_load_composite_pack_requires_an_integer_dim(tmp_path,
                                                     composite_sandbox, dim):
    # checked before the shift shape, which would fail on some of these
    _write_pack(tmp_path, {"f24.json": dict(_GOOD_F24, dim=dim)})
    with pytest.raises(ValueError) as excinfo:
        load_composite_pack(tmp_path)
    assert str(excinfo.value) == f"f24.json: dim must be an integer, got {dim!r}"
    with pytest.raises(CompositeUnavailableError):
        lookup("F24")


@pytest.mark.parametrize("dim", [0, -2])
def test_register_composite_requires_a_positive_dim(composite_sandbox, dim):
    # it was accepted, and only space() refused it
    with pytest.raises(ValueError, match="^dim must be >= 1$"):
        register_composite({"id": "F24", "dim": dim, "lower": 0, "upper": 1,
                            "eval": lambda X: np.zeros(len(X))})
    with pytest.raises(CompositeUnavailableError):
        lookup("F24")


def test_load_composite_pack_rejects_one_id_in_two_files(tmp_path,
                                                         composite_sandbox):
    _write_pack(tmp_path, {"a.json": _GOOD_F24,
                           "b.json": dict(_GOOD_F24, bias=1.0)})
    with pytest.raises(CompositeCollisionError):
        load_composite_pack(tmp_path)
    with pytest.raises(CompositeUnavailableError):
        lookup("F24")
