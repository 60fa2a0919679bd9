"""The CLI's JSON writer against json.dumps(indent=2, allow_nan=False)."""
import json
import math

import numpy as np
import pytest

from asymclone import cli
from asymclone.cli import _json_text, _rounded


def _json_num(x: float) -> float:
    """x as the CLI prints it: 12 significant digits, read back; + 0.0 turns -0.0 into 0.0."""
    return float(format(float(x) + 0.0, ".12g"))


# edges of the float range, signed zeros, subnormals and 12-digit rounding ties
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1e-300, -1e-300,
    1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308, 0.5, -1.0, 1e16,
    1e-5, 1e-4, 0.1 + 0.2, 123456789012.5, 9.999999999995e-3, 2 / 3,
    # a token repr writes in other notation: e+12 to e+15, subnormal, integral
    999999999999.5, 1e12, 123456789012345.0, 9.9999999999995e15, 1e-307, 2.2250738585072014e-308, 1e-320, 3.0,
    -7.0,
]
# the writer fills one %-template of the whole payload, so strings and keys
# carry % signs and conversion specs too
EDGE_STRINGS = [
    'say "no"', "back\\slash", "café", " \u0000\x7f", "\U0001d54a", "margin 0.63 exceeds 0", "100%", "%s", "%%d",
]


def _reference(value):
    """value as the CLI handed it to json.dumps before the direct writer.

    Every number goes through _json_num and every complex number becomes a
    [re, im] list, as the removed _json_vector/_json_matrix builders did.
    """
    if isinstance(value, dict):
        return {key: _reference(v) for key, v in value.items()}
    if isinstance(value, (list, np.ndarray)):
        return [_reference(v) for v in value]
    if isinstance(value, complex):
        return [_json_num(value.real), _json_num(value.imag)]
    if value is None or isinstance(value, (bool, str)):
        return value
    return _json_num(value)


def _payloads():
    st = pytest.importorskip("hypothesis").strategies
    real = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    text = st.one_of(st.sampled_from(EDGE_STRINGS), st.text())

    @st.composite
    def complex_array(draw):
        shape = draw(st.sampled_from([(1,), (2,), (4,), (8,), (2, 2), (4, 4)]))
        size = 2 * math.prod(shape)
        parts = np.array(draw(st.lists(real, min_size=size, max_size=size)))
        array = parts.view(complex).reshape(shape)
        # strided views, as np.diag and a transpose hand them over
        view = draw(st.sampled_from(["contiguous", "diagonal", "transpose", "every other"]))
        if view == "diagonal" and array.ndim == 2:
            return np.diag(array)
        if view == "transpose":
            return array.T
        if view == "every other" and len(array) > 1:
            return array[::2]
        return array

    @st.composite
    def complex_list(draw):
        # Python complex numbers in a list or a nested 2x2 list, as clone writes its row's numbers
        shape = draw(st.sampled_from([(1,), (2,), (8,), (2, 2)]))
        parts = np.array(draw(st.lists(real, min_size=2 * math.prod(shape), max_size=2 * math.prod(shape))))
        return parts.view(complex).reshape(shape).tolist()

    leaf = st.one_of(st.none(), st.booleans(), real, text, st.lists(text, max_size=4), complex_array(), complex_list())
    return st.dictionaries(text, leaf, min_size=1, max_size=8)


def _as_arrays(payload: dict) -> dict:
    """payload with each list of complex numbers, nested or not, as the complex ndarray of the same values."""

    def first(value):
        return first(value[0]) if isinstance(value, list) and value else value

    return {k: np.array(v) if isinstance(v, list) and isinstance(first(v), complex) else v for k, v in payload.items()}


def test_each_token_is_the_text_of_the_rounded_value():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    real = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))

    @hypothesis.settings(max_examples=1000, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.lists(real, min_size=1, max_size=60))
    def check(values):
        assert _rounded(values) == [repr(float(format(x, ".12g")) + 0.0) for x in values]

    check()


def test_writer_matches_json_dumps_on_every_payload_shape():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @hypothesis.given(_payloads())
    def check(payload):
        reference = _reference(payload)
        text = _json_text(payload)
        assert text == json.dumps(reference, indent=2, allow_nan=False)
        # and a second, independent reading: the parser gives the numbers back
        assert json.loads(text) == reference
        # a list of complex numbers writes the bytes of the complex array of its values
        assert _json_text(_as_arrays(payload)) == text

    check()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_raise_value_error(bad):
    for payload in ({"x": bad}, {"x": np.array([1.0, complex(0.0, bad)])}, {"x": np.full((2, 2), bad)}):
        with pytest.raises(ValueError):
            json.dumps(_reference(payload), indent=2, allow_nan=False)
        with pytest.raises(ValueError):
            _json_text(payload)


def test_percent_signs_neither_raise_nor_move_a_number():
    payload = {"%s": "100%", "%%d": [0.5, "%s"], "100%": np.array([1 + 2j]), "x": -1.25}
    assert _json_text(payload) == json.dumps(_reference(payload), indent=2, allow_nan=False)


def test_negative_zero_prints_as_zero():
    assert _json_text({"x": -0.0}) == '{\n  "x": 0.0\n}'
    assert _json_text({"z": np.array([complex(-0.0, -0.0)])}) == '{\n  "z": [\n    [\n      0.0,\n      0.0\n    ]\n  ]\n}'


def _written(payload) -> str:
    text = _json_text(payload)
    assert text == json.dumps(_reference(payload), indent=2, allow_nan=False)
    return text


# values that compare equal, or lay out alike, across the kinds a layout tells apart
_LOOKALIKE_PAIRS = [
    (False, 0), (False, 0.0), (0, 0.0), (True, 1.0), (True, 1), (None, 0.0), (None, 1.0),
    ([True], np.array([1 + 0j])), ([False, 0.0], [0.0, False]), (["a"], "a"), (["a"], ["b", "c"]),
    (np.array([1j]), np.array([[1j]])), ([], np.zeros(0, complex)),
]


@pytest.mark.parametrize("first, second", _LOOKALIKE_PAIRS, ids=[f"{a!r}-{b!r}" for a, b in _LOOKALIKE_PAIRS])
def test_a_layout_is_keyed_by_kind_not_by_value(first, second):
    for a, b in ((first, second), (second, first)):
        cli._layout.cache_clear()
        for value in (a, b, a):
            _written({"k": value})
            _written({"k": value, "n": 0.5, "s": "%s"})


def test_a_cached_layout_writes_what_a_fresh_one_writes():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def payload_pairs(draw):
        # two payloads with the same keys, so that only their values' kinds can tell their layouts apart
        first = draw(_payloads())
        values = draw(st.lists(_payloads(), min_size=1, max_size=3))
        leaves = [v for payload in values for v in payload.values()]
        return first, {key: draw(st.sampled_from(leaves)) for key in first}

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(payload_pairs())
    def check(pair):
        first, second = pair
        cli._layout.cache_clear()
        cold = _written(first)
        assert _written(first) == cold
        assert _written(second) == _written(second)
        assert _written(first) == cold

    check()


def _clean_values(n: int) -> list[float]:
    """n values whose %.12g tokens are their own text: no integral, e+1x, e-3xx or zero tokens."""
    return [(k + 0.5) / 7.0 * (-1) ** k * 10.0 ** (k % 9 - 4) for k in range(n)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 24, 48])
@pytest.mark.parametrize("company", [[], [1e13], [1e-310], [1.5e-34], [3.0]])
def test_a_non_finite_value_raises_wherever_it_stands(bad, where, company):
    values = _clean_values(49 - len(company)) + company
    values[where] = bad
    with pytest.raises(ValueError):
        _rounded(values)


# e+12 to e+15, subnormal, integral and zero tokens, and the e-3x and e-30x tokens that need no rewrite
_ODD_VALUES = [
    999999999999.5, 1e12, 123456789012345.0, 9.9999999999995e15, 1e-307, 2.2250738585072014e-308, 1e-320,
    -5e-324, 3.0, -7.0, 123456789012.0, 0.0, -0.0, 1.5e-34, -2.5e-39, 1e-300, 1.00000000001e-30,
]


@pytest.mark.parametrize("odd", _ODD_VALUES)
@pytest.mark.parametrize("where", [0, 24, 48])
def test_a_rewritten_token_among_clean_ones_still_gets_its_repr_text(odd, where):
    values = _clean_values(48)
    values.insert(where, odd)
    expected = [repr(float(format(x, ".12g")) + 0.0) for x in values]
    assert _rounded(values) == expected
    # and with a second odd value beside it, whichever scan branch each one alone takes
    for other in (1e13, 5e-324, 4.0, -0.0):
        values[where - 1] = other
        assert _rounded(values) == [repr(float(format(x, ".12g")) + 0.0) for x in values]
