"""The CLI's JSON writer against json.dumps(indent=2, allow_nan=False)."""
import json
import math

import numpy as np
import pytest

from asymclone import cli
from asymclone.cli import _json_text, _layout_text, _rounded


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
# the writer fills one %-template of the whole report, so strings, constants
# and keys carry % signs and conversion specs too
EDGE_STRINGS = [
    'say "no"', "back\\slash", "café", " \u0000\x7f", "\U0001d54a", "margin 0.63 exceeds 0", "100%", "%s", "%%d",
]


def _reference(value):
    """value as json.dumps takes it from the CLI: every number through _json_num, every complex one a [re, im] list."""
    if isinstance(value, dict):
        return {key: _reference(v) for key, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_reference(v) for v in value]
    if isinstance(value, complex):
        return [_json_num(value.real), _json_num(value.imag)]
    if value is None or isinstance(value, (bool, str)):
        return value
    return _json_num(value)


def _declared(value):
    """value's tag in a declared layout, with its numbers and strings in fill order, as a command hands them over.

    A complex number or ndarray is (complex, *shape), a list a tuple of tags and any other number float.
    """
    if value is None or isinstance(value, bool):
        return value, [], []
    if isinstance(value, str):
        return str, [], [value]
    if isinstance(value, (complex, np.ndarray)):
        array = np.ascontiguousarray(value, dtype=complex)
        return (complex, *array.shape), array.reshape(-1).view(float).tolist(), []
    if isinstance(value, list):
        parts = [_declared(v) for v in value]
        return tuple(t for t, _, _ in parts), [x for _, n, _ in parts for x in n], [x for _, _, s in parts for x in s]
    return float, [float(value)], []


def _slots(tag):
    """A tag's fill slots in order: n a number, s a string."""
    if tag is str:
        return "s"
    if tag is float:
        return "n"
    if isinstance(tag, tuple) and tag[:1] == (complex,):
        return "n" * 2 * math.prod(tag[1:])
    return "".join(_slots(t) for t in tag) if isinstance(tag, tuple) else ""


def _write(values: dict, template=None) -> str:
    """values written through the layout their kinds declare (or template), checked against json.dumps."""
    layout, numbers, strings = [], [], []
    for key, value in values.items():
        tag, n, s = _declared(value)
        layout.append((key, tag))
        numbers += n
        strings += s
    text = _json_text(template or _layout_text(layout), numbers, *strings)
    assert text == json.dumps(_reference(values), indent=2, allow_nan=False)
    return text


def _layouts():
    """A declared layout, its values' json.dumps reference, numbers and strings, and a slot and a value to spoil.

    Entries are numbers, literals, complex arrays, nested lists of these and
    constant lists of str; str slots come last, after every number, as the
    writer fills them.
    """
    st = pytest.importorskip("hypothesis").strategies
    real = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    text = st.one_of(st.sampled_from(EDGE_STRINGS), st.text())

    @st.composite
    def complex_array(draw):
        shape = draw(st.sampled_from([(), (0,), (1,), (2,), (4,), (8,), (2, 2), (4, 4), (2, 0)]))
        parts = draw(st.lists(real, min_size=2 * math.prod(shape), max_size=2 * math.prod(shape)))
        return (complex, *shape), np.array(parts).reshape(*shape, 2).tolist(), parts

    number = real.map(lambda x: (float, x, [x]))
    literal = st.sampled_from([None, True, False]).map(lambda v: (v, v, []))
    leaf = st.one_of(number, literal, complex_array())
    entry = st.recursive(
        leaf,
        lambda children: st.lists(children, max_size=4).map(
            lambda items: (tuple(t for t, _, _ in items), [v for _, v, _ in items], [x for _, _, n in items for x in n])
        ),
        max_leaves=12,
    )
    constant = st.lists(text, max_size=4).map(lambda names: (names, names, []))

    @st.composite
    def layouts(draw):
        entries = draw(st.lists(st.one_of(entry, constant), max_size=8))
        strings = draw(st.lists(text, max_size=2))
        size = len(entries) + len(strings)
        keys = draw(st.lists(text, min_size=size, max_size=size, unique=True))
        layout = [(k, t) for k, (t, _, _) in zip(keys, entries)] + [(k, str) for k in keys[len(entries) :]]
        reference = {k: v for k, (_, v, _) in zip(keys, entries)} | dict(zip(keys[len(entries) :], strings))
        numbers = [x for _, _, n in entries for x in n]
        spoil = draw(st.integers(0, max(len(numbers) - 1, 0))), draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        return layout, {k: _reference(v) for k, v in reference.items()}, numbers, strings, spoil

    return layouts()


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
    @hypothesis.given(_layouts())
    def check(case):
        layout, reference, numbers, strings, (where, bad) = case
        template = _layout_text(layout)
        text = _json_text(template, numbers, *strings)
        assert text == json.dumps(reference, indent=2, allow_nan=False)
        # and a second, independent reading: the parser gives the numbers back
        assert json.loads(text) == reference
        # a NaN or infinite number raises in any number slot
        if numbers:
            numbers[where] = bad
            with pytest.raises(ValueError):
                _json_text(template, numbers, *strings)

    check()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_numbers_raise_value_error(bad):
    # in every number slot of each of the CLI's reports
    for report, declare in cli._REPORTS.items():
        slots = "".join(_slots(tag) for _, tag in declare())
        for where in range(slots.count("n")):
            numbers = [0.5] * slots.count("n")
            numbers[where] = bad
            with pytest.raises(ValueError):
                _json_text(cli._layout(report), numbers, *["reason"] * slots.count("s"))


def test_every_report_fills_its_strings_after_its_numbers():
    for report, declare in cli._REPORTS.items():
        slots = "".join(_slots(tag) for _, tag in declare())
        assert "n" in slots and "sn" not in slots, report
        assert cli._layout(report).count("%s") == len(slots), report


def test_percent_signs_neither_raise_nor_move_a_number():
    layout = (("%s", (float, float)), ("%%d", ["%s", "100%"]), ("100%", (complex, 1)), ("x", float), ("s", str))
    text = _json_text(_layout_text(layout), [0.5, -1.25, 1.0, 2.0, 3.5], "100% %s")
    reference = {"%s": [0.5, -1.25], "%%d": ["%s", "100%"], "100%": [[1.0, 2.0]], "x": 3.5, "s": "100% %s"}
    assert text == json.dumps(reference, indent=2, allow_nan=False)


def test_negative_zero_prints_as_zero():
    assert _write({"x": -0.0}) == '{\n  "x": 0.0\n}'
    assert _write({"z": np.array([complex(-0.0, -0.0)])}) == '{\n  "z": [\n    [\n      0.0,\n      0.0\n    ]\n  ]\n}'


# values that compare equal, or lay out alike, across the kinds a layout tells apart
_LOOKALIKE_PAIRS = [
    (False, 0), (False, 0.0), (0, 0.0), (True, 1.0), (True, 1), (None, 0.0), (None, 1.0),
    ([True], np.array([1 + 0j])), ([False, 0.0], [0.0, False]), (["a"], "a"), (["a"], ["b", "c"]),
    (np.array([1j]), np.array([[1j]])), ([], np.zeros(0, complex)),
]


@pytest.mark.parametrize("first, second", _LOOKALIKE_PAIRS, ids=[f"{a!r}-{b!r}" for a, b in _LOOKALIKE_PAIRS])
def test_a_layout_is_keyed_by_kind_not_by_value(monkeypatch, first, second):
    # two reports whose layouts differ only in the kind of one value, each written through its own cached template
    for a, b in ((first, second), (second, first)):
        for name, value in (("first", a), ("second", b)):
            monkeypatch.setitem(cli._REPORTS, name, lambda value=value: (("n", float), ("k", _declared(value)[0])))
        cli._layout.cache_clear()
        for name, value in (("first", a), ("second", b), ("first", a)):
            _write({"n": 0.5, "k": value}, cli._layout(name))
            _write({"n": 0.5, "k": value, "s": "%s"})
    cli._layout.cache_clear()


def test_a_cached_layout_writes_what_a_fresh_one_writes(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(_layouts(), _layouts())
    def check(first, second):
        # two reports registered by name, written cold, cached and in turn, each as its fresh template writes it
        for name, (layout, *_) in (("first", first), ("second", second)):
            monkeypatch.setitem(cli._REPORTS, name, lambda layout=layout: layout)
        cli._layout.cache_clear()
        for name, (layout, reference, numbers, strings, _) in (("first", first), ("second", second), ("first", first)):
            text = _json_text(cli._layout(name), numbers, *strings)
            assert text == _json_text(_layout_text(layout), numbers, *strings)
            assert json.loads(text) == reference

    check()
    cli._layout.cache_clear()


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
