"""Tests for the benchmark catalogue: fidelity, properties, composites."""

import json
import math

import numpy as np
import pytest

from nlcmfo.benchmarks import (BUILTIN_IDS, COMPOSITE_IDS,
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
    value = f.evaluate(f.minimizer, rng=make_rng(0, stream=1))
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


def test_quartic_requires_rng_and_noise_varies():
    f = lookup("F7")
    with pytest.raises(ValueError):
        f.evaluate(np.zeros(30))
    with pytest.raises(ValueError):
        f.objective()
    rng = make_rng(0, stream=1)
    obj = f.objective(rng=rng)
    x = np.zeros(30)
    draws = {obj(x) for _ in range(5)}
    assert len(draws) == 5                        # fresh noise per call
    assert all(0.0 <= v < 1.0 for v in draws)


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
                batch = f.objective(rng=make_rng(4, stream=1))(swarm)
                row_rng = make_rng(4, stream=1)
                rows = [f.evaluate(row, rng=row_rng) for row in swarm]
            else:
                batch = f.objective()(swarm)
                rows = [f.evaluate(row) for row in swarm]
            assert batch.shape == (12,)
            assert batch.tobytes() == np.array(rows).tobytes(), (fid, d, half)


def test_builtin_objective_takes_a_point_or_a_swarm():
    obj = lookup("F1").objective()
    assert obj.vectorized is True
    value = obj(np.array([3.0, 4.0]))
    assert type(value) is float and value == 25.0
    assert np.array_equal(obj(np.array([[3.0, 4.0], [0.0, 1.0]])), [25.0, 1.0])
    assert lookup("F7").objective(rng=make_rng(0, stream=1)).vectorized is True


# ---------------------------------------------------------------------------
# composite registry
# ---------------------------------------------------------------------------


def test_register_composite_dict(composite_sandbox):
    register_composite({
        "id": "F24", "dim": 2, "lower": -100.0, "upper": 100.0,
        "f_min": 2400.0, "minimizer": [1.0, 2.0],
        "eval": lambda x: 2400.0 + float(np.sum((np.asarray(x) - [1.0, 2.0]) ** 2)),
    })
    f = lookup("F24")
    assert f.dim == 2 and not f.scalable
    assert f.evaluate([1.0, 2.0]) == 2400.0
    assert f.evaluate([3.0, 2.0]) == 2404.0


def test_register_composite_rejects_builtin_slot(composite_sandbox):
    with pytest.raises(UnknownFunctionError):
        register_composite({"id": "F30", "dim": 2, "lower": 0, "upper": 1,
                            "eval": lambda x: 0.0})
    with pytest.raises(UnknownFunctionError):
        register_composite({"id": "F1", "dim": 2, "lower": 0, "upper": 1,
                            "eval": lambda x: 0.0})


def test_register_composite_collision(composite_sandbox):
    spec = {"id": "F25", "dim": 2, "lower": 0, "upper": 1,
            "eval": lambda x: 0.0}
    register_composite(spec)
    with pytest.raises(CompositeCollisionError):
        register_composite(dict(spec))


def test_register_composite_list_is_atomic(composite_sandbox):
    good = {"id": "F24", "dim": 2, "lower": 0, "upper": 1,
            "eval": lambda x: 0.0}
    bad = {"id": "F99", "dim": 2, "lower": 0, "upper": 1,
           "eval": lambda x: 0.0}
    with pytest.raises(UnknownFunctionError):
        register_composite([good, bad])
    with pytest.raises(CompositeUnavailableError):
        lookup("F24")   # nothing from the failed batch was committed


def test_register_composite_requires_callable(composite_sandbox):
    with pytest.raises(ValueError):
        register_composite({"id": "F24", "dim": 2, "lower": 0, "upper": 1,
                            "eval": 3.0})


def test_clear_composites(composite_sandbox):
    register_composite({"id": "F24", "dim": 2, "lower": 0, "upper": 1,
                        "eval": lambda x: 0.0})
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


def test_composite_objective_is_called_per_row(composite_sandbox):
    seen = []

    def fn(x):
        seen.append(np.shape(x))
        return float(np.sum(x))

    register_composite({"id": "F24", "dim": 3, "lower": -1, "upper": 1,
                        "eval": fn})
    obj = lookup("F24").objective()
    assert obj.vectorized is True
    value = obj(np.array([1.0, 2.0, 3.0]))
    assert type(value) is float and value == 6.0
    assert seen == [(3,)]
    swarm = obj(np.array([[1.0, 2.0, 3.0], [0.5, 0.0, -1.0]]))
    assert np.array_equal(swarm, [6.0, -0.5])
    assert seen == [(3,), (3,), (3,)]


def test_composite_pack_swarm_call_equals_per_row_calls_bitwise(
        tmp_path, composite_sandbox):
    rng = make_rng(5)
    _write_pack(tmp_path, {
        "f24.json": {
            "id": "F24", "dim": 3, "lower": -5, "upper": 5, "bias": 2400.0,
            "components": [
                {"basis": "rastrigin", "weight": 0.7,
                 "shift": rng.uniform(-2, 2, 3).tolist(),
                 "rotation": rng.standard_normal((3, 3)).tolist()},
                {"basis": "ackley", "weight": 1.3,
                 "shift": rng.uniform(-2, 2, 3).tolist()},
            ],
        },
    })
    load_composite_pack(tmp_path)
    obj = lookup("F24").objective()
    swarm = rng.uniform(-5, 5, (7, 3))
    rows = [obj(row) for row in swarm]
    assert obj(swarm).tobytes() == np.array(rows).tobytes()


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


def test_load_composite_pack_rejects_one_id_in_two_files(tmp_path,
                                                         composite_sandbox):
    _write_pack(tmp_path, {"a.json": _GOOD_F24,
                           "b.json": dict(_GOOD_F24, bias=1.0)})
    with pytest.raises(CompositeCollisionError):
        load_composite_pack(tmp_path)
    with pytest.raises(CompositeUnavailableError):
        lookup("F24")
