import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stokolmo.model import (ConstantNoise, ExprNoise, ModelError,
                            cholesky_factor, parse_model, restrict_to_face)

LV2 = {
    "n": 2,
    "lv": {"a": [3.0, 3.0], "B": [[-2.0, -1.0], [-1.0, -2.0]], "g": [1.0, 1.0]},
    "sigma": [[1.0, 0.0], [0.0, 1.0]],
}


def parse(doc):
    return parse_model(json.dumps(doc))


def test_lv_model_basics():
    m = parse(LV2)
    assert m.n == 2 and m.is_lv
    assert np.allclose(m.drift_at(np.array([1.0, 1.0])), [0.0, 0.0])
    assert np.allclose(m.noise_amp_at(np.array([0.3, 0.7])), [1.0, 1.0])


def test_general_form_expressions():
    m = parse({
        "n": 2,
        "general": {"f": ["2 - x1 - x2", "x1 - 1"], "g": ["1", "sqrt(1 + x2)"]},
        "sigma": [[1.0, 0.25], [0.25, 1.0]],
    })
    assert not m.is_lv
    x = np.array([0.5, 3.0])
    assert np.allclose(m.drift_at(x), [2 - 0.5 - 3, 0.5 - 1])
    assert np.allclose(m.noise_amp_at(x), [1.0, 2.0])


def test_lv_drift_matches_equivalent_expressions():
    rng = np.random.default_rng(7)
    a = rng.normal(size=3)
    B = rng.normal(size=(3, 3))
    lv = parse({"n": 3,
                "lv": {"a": a.tolist(), "B": B.tolist(), "g": [1.0, 1.0, 1.0]},
                "sigma": np.eye(3).tolist()})
    f = [
        " + ".join([f"({float(a[i])!r})"]
                   + [f"({float(B[i, j])!r}) * x{j + 1}" for j in range(3)])
        for i in range(3)
    ]
    gen = parse({"n": 3, "general": {"f": f, "g": ["1", "1", "1"]},
                 "sigma": np.eye(3).tolist()})
    for _ in range(25):
        x = rng.uniform(0.01, 10.0, size=3)
        assert np.allclose(lv.drift_at(x), gen.drift_at(x), rtol=0, atol=1e-12)


@pytest.mark.parametrize("mutate,field", [
    (lambda d: d.pop("n"), "n"),
    (lambda d: d.update(n=0), "n"),
    (lambda d: d.update(n=True), "n"),
    (lambda d: d.pop("sigma"), "sigma"),
    (lambda d: d.update(extra=1), "extra"),
    (lambda d: d["lv"].pop("a"), "lv.a"),
    (lambda d: d["lv"].update(a=[1.0]), "lv.a"),
    (lambda d: d["lv"].update(g=[1.0, 0.0]), "lv.g[1]"),
    (lambda d: d.update(sigma=[[1.0, 0.5], [0.4, 1.0]]), "symmetric"),
    (lambda d: d.update(sigma=[[1.0, 2.0], [2.0, 1.0]]), "positive semidefinite"),
    (lambda d: d.update(sigma=[[1.0, 1.0], [1.0, 1.0]]), "singular"),
    (lambda d: d.update(sigma=[[0.0, 0.0], [0.0, 1.0]]), "diagonal"),
])
def test_rejects_bad_documents(mutate, field):
    doc = json.loads(json.dumps(LV2))
    mutate(doc)
    with pytest.raises(ModelError) as ei:
        parse(doc)
    assert field in str(ei.value)


def test_rejects_both_or_neither_drift_form():
    doc = json.loads(json.dumps(LV2))
    doc["general"] = {"f": ["1", "1"], "g": ["1", "1"]}
    with pytest.raises(ModelError):
        parse(doc)
    del doc["lv"], doc["general"]
    with pytest.raises(ModelError):
        parse(doc)


def test_expression_syntax_error_points_at_entry():
    with pytest.raises(ModelError) as ei:
        parse({"n": 1, "general": {"f": ["2 +"], "g": ["1"]}, "sigma": [[1.0]]})
    assert "general.f[0]" in str(ei.value)


def test_growth_rate_origin_is_ito_corrected():
    m = parse(LV2)
    # a_i - sigma_ii g_i^2 / 2 at the origin
    assert np.allclose(m.growth_rate_origin(), [2.5, 2.5])


def test_log_growth_is_drift_less_half_the_noise_variance():
    lv = parse({**LV2, "lv": {**LV2["lv"], "g": [0.5, 2.0]},
                "sigma": [[1.5, 0.2], [0.2, 3.0]]})
    expr = parse({"n": 2, "general": {"f": ["1 - x1*x2", "exp(-x1) - x2"],
                                      "g": ["1 + x2", "0.5*x1"]},
                  "sigma": [[2.0, 0.5], [0.5, 1.0]]})
    x = np.array([[0.3, 1.7], [2.0, 0.0], [0.0, 0.0]])
    for m in (lv, expr):
        f, g = m.drift_at(x), m.noise_amp_at(x)
        got = m.log_growth_at(x)
        for i in range(2):
            # species by species, f_i - sigma_ii g_i^2 / 2
            assert np.allclose(got[:, i], f[:, i] - m.sigma[i, i] * g[:, i] ** 2 / 2,
                               rtol=1e-15, atol=0.0)
        assert np.array_equal(m.log_growth_at(x[1]), got[1])
    assert np.array_equal(lv.growth_rate_origin(), lv.log_growth_at(np.zeros(2)))


def test_growth_rate_origin_evaluates_the_drift_once(monkeypatch):
    m = parse(LV2)
    calls = []
    orig = type(m).drift_at
    monkeypatch.setattr(type(m), "drift_at", lambda self, x: calls.append(1) or orig(self, x))
    first = m.growth_rate_origin()
    assert m.growth_rate_origin() is first and len(calls) == 1
    assert not first.flags.writeable
    # another model has its own rates
    parse(LV2).growth_rate_origin()
    assert len(calls) == 2


def test_json_round_trip():
    m = parse(LV2)
    again = parse(m.to_json_dict())
    x = np.array([0.4, 1.7])
    assert np.allclose(m.drift_at(x), again.drift_at(x))
    assert np.array_equal(m.sigma, again.sigma)


# -- constant noise ----------------------------------------------------------

def general2(g):
    return parse({"n": 2, "general": {"f": ["1 - x1", "1 - x2"], "g": g},
                  "sigma": np.eye(2).tolist()})


def test_variable_free_noise_is_a_constant_amplitude():
    m = general2(["1", "2 * 0.05"])
    assert isinstance(m.noise, ConstantNoise)
    assert m.noise.g.tolist() == [1.0, 0.1]
    # the echo prints the folded value as the expression printer does
    assert m.to_json_dict()["general"]["g"] == ["1", "0.1"]
    again = parse(m.to_json_dict())
    assert np.array_equal(again.noise.g, m.noise.g)


def test_noise_holding_a_variable_stays_expressions():
    m = general2(["1", "1 + 0*x1"])
    assert isinstance(m.noise, ExprNoise)
    assert m.to_json_dict()["general"]["g"] == ["1", "1 + 0 * x1"]


@pytest.mark.parametrize("g", ["ln(0)", "1 / (1 - 1)", "1e308 * 10"])
def test_constant_noise_errors_at_load(g):
    with pytest.raises(ModelError) as ei:
        general2(["1", g])
    assert "general.g[1]" in str(ei.value)


def test_restriction_folds_noise_left_without_variables():
    m = general2(["1 + x2", "sqrt(x2)"])
    assert isinstance(m.noise, ExprNoise)
    face = restrict_to_face(m, [0])
    assert isinstance(face.noise, ConstantNoise) and face.noise.g.tolist() == [1.0]
    assert isinstance(restrict_to_face(m, [1]).noise, ExprNoise)
    # a domain error left on the face names the entry of the full model
    with pytest.raises(ModelError) as ei:
        restrict_to_face(general2(["1 + x1", "ln(x1)"]), [1])
    assert "general.g[1]" in str(ei.value)


# -- face restriction --------------------------------------------------------

def test_restrict_lv_face():
    m = parse({"n": 3,
               "lv": {"a": [4.0, -1.0, -2.0],
                      "B": [[-1.0, -1.0, -1.0], [2.0, -1.0, -0.5],
                            [0.5, -0.5, -1.0]],
                      "g": [1.0, 1.0, 1.0]},
               "sigma": np.eye(3).tolist()})
    sub = restrict_to_face(m, [0, 2])
    assert sub.n == 2 and sub.labels == (1, 3)
    x = np.array([0.7, 1.3])
    full = m.drift_at(np.array([0.7, 0.0, 1.3]))
    assert np.allclose(sub.drift_at(x), full[[0, 2]])


def test_restrict_expression_face_equals_pinned_full_drift():
    m = parse({
        "n": 2,
        "general": {"f": ["2 - x1 - x2 / (1 + x2)", "-0.2 + 2 * x1 / (1 + x1)"],
                    "g": ["1", "1"]},
        "sigma": [[1.0, 0.0], [0.0, 0.5]],
    })
    sub = restrict_to_face(m, [0])
    for u in (0.1, 1.0, 5.0):
        assert np.isclose(sub.drift_at(np.array([u]))[0],
                          m.drift_at(np.array([u, 1e-300]))[0], atol=1e-12)


def test_restrict_nesting_matches_direct_restriction():
    m = parse({"n": 3,
               "lv": {"a": [1.0, 2.0, 3.0],
                      "B": [[-1.0, 0.5, 0.2], [0.1, -1.0, 0.3],
                            [0.2, 0.1, -1.0]],
                      "g": [1.0, 2.0, 3.0]},
               "sigma": [[2.0, 0.5, 0.1], [0.5, 2.0, 0.2], [0.1, 0.2, 2.0]]})
    two_step = restrict_to_face(restrict_to_face(m, [0, 2]), [1])
    one_step = restrict_to_face(m, [2])
    assert two_step.labels == one_step.labels == (3,)
    x = np.array([0.9])
    assert np.allclose(two_step.drift_at(x), one_step.drift_at(x))
    assert np.array_equal(two_step.sigma, one_step.sigma)


def test_restrict_rejects_bad_faces():
    m = parse(LV2)
    with pytest.raises(ModelError):
        restrict_to_face(m, [])
    with pytest.raises(ModelError):
        restrict_to_face(m, [5])


@pytest.mark.parametrize("doc", [
    {"n": 3, "lv": {"a": [1.0, -0.3, 0.7],
                    "B": [[-1.0, 0.3, -0.7], [0.2, -1.1, 0.4], [-0.6, 0.9, -1.3]],
                    "g": [1.0, 0.5, 2.0]}, "sigma": np.eye(3).tolist()},
    # only correctly rounded operations, so every evaluation order of the
    # elements must give the same bits
    {"n": 2, "general": {"f": ["2 - x1 - x2/(1 + x2)", "0.5*x1 - 0.1*x2*x1"],
                         "g": ["1", "0.5 + 0.1*x1"]}, "sigma": np.eye(2).tolist()},
], ids=["lv", "expressions"])
def test_drift_rows_keep_the_bits_of_single_points_in_any_memory_order(doc):
    m = parse(doc)
    rng = np.random.default_rng(4)
    x = rng.uniform(0.01, 5.0, size=(37, m.n))
    single = np.array([m.drift_at(row) for row in x])
    for batch in (x, np.asfortranarray(x), np.ascontiguousarray(x.T).T):
        for fn, ref in ((m.drift_at, single),
                        (m.noise_amp_at, np.array([m.noise_amp_at(r) for r in x]))):
            out = fn(batch)
            assert out.shape == x.shape
            assert np.ascontiguousarray(out).tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_lv_drift_sums_in_the_engine_order_in_any_layout(n):
    # the engine's in-place LV step sums a_i + x_0 B_i0 + x_1 B_i1 + ... in
    # this order, so drift_at must give those bits for every input layout
    rng = np.random.default_rng(n)
    a, B = rng.normal(size=n), rng.normal(size=(n, n))
    m = parse({"n": n, "lv": {"a": a.tolist(), "B": B.tolist(), "g": [1.0] * n},
               "sigma": np.eye(n).tolist()})
    x = rng.uniform(0.0, 5.0, size=(9, n))
    ref = np.empty_like(x)
    for p in range(x.shape[0]):
        for i in range(n):
            s = float(a[i])
            for j in range(n):
                s += float(x[p, j]) * float(B[i, j])
            ref[p, i] = s
    for batch in (x, np.asfortranarray(x), np.ascontiguousarray(x.T).T):
        assert np.ascontiguousarray(m.drift_at(batch)).tobytes() == ref.tobytes()
    for p in range(x.shape[0]):
        assert m.drift_at(x[p]).tobytes() == ref[p].tobytes()


# -- cholesky ----------------------------------------------------------------

def test_cholesky_reproduces_sigma():
    sigma = np.array([[4.0, 2.0, 0.0], [2.0, 5.0, 1.0], [0.0, 1.0, 6.0]])
    L = cholesky_factor(sigma)
    assert np.allclose(L @ L.T, sigma, atol=1e-12)
    assert np.allclose(L, np.tril(L))


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, (3, 3),
                  elements=st.floats(min_value=-1.0, max_value=1.0)))
def test_cholesky_property(A):
    sigma = A @ A.T + 0.5 * np.eye(3)   # strictly positive definite
    L = cholesky_factor(sigma)
    scale = float(np.max(np.abs(sigma)))
    assert np.max(np.abs(L @ L.T - sigma)) <= 1e-10 * max(1.0, scale)
