"""The stacked solver and the shared rules against their one-pair forms.

solve_rows must give, bit for bit, what solve_prep gives each pair: sweep's
CSV and verify's errors are formatted from it. A host whose vectorised
np.arccos or np.sqrt rounds differently from the scalar call fails here
instead of silently changing what users see.
"""
import numpy as np
import pytest

from asymclone import cli, cloner
from asymclone.cloner import (
    InfeasibleScalingError,
    PrepState,
    feasibility,
    feasibility_rule,
    preparation_rule,
    solve_prep,
    solve_rows,
)
from asymclone.qstate import ROUNDOFF_TOL, check_unit_norm


def _same_bits(got, want):
    """Equal values and equal bits, so -0.0 and 0.0 differ."""
    want = np.asarray(want)
    return np.array_equal(got, want) and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _reference(pairs):
    """solve_rows' (columns, amplitudes), one solve_prep call per pair, and the PrepStates' own amplitudes.

    The reference amplitudes come from scalar np.exp calls on each pair's
    fields, neither from solve_rows' column writes nor from PrepState's
    math.cos and math.sin. The PrepStates' come twice: as their tuples of
    Python numbers, which solve and clone read, and as as_amplitudes.
    """
    preps = [solve_prep(feasibility(s0, s1)) for s0, s1 in pairs]
    columns = np.array([[p.c1, p.c2, p.c4, p.theta2, p.theta4] for p in preps]).reshape(len(preps), 5)
    amplitudes = np.array(
        [[p.c1 * np.exp(1j * p.theta1), p.c2 * np.exp(1j * p.theta2), 0.0, p.c4 * np.exp(1j * p.theta4)] for p in preps]
    ).reshape(len(preps), 4)
    rows = np.array([p.amplitudes for p in preps], dtype=complex).reshape(len(preps), 4)
    return columns, amplitudes, rows, np.array([p.as_amplitudes for p in preps]).reshape(len(preps), 4)


def _check_against_solve_prep(pairs):
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 2)
    columns, amplitudes = solve_rows(pairs[:, 0], pairs[:, 1])
    want_columns, want_amplitudes, row_tuples, row_amplitudes = _reference(pairs.tolist())
    assert _same_bits(columns, want_columns)
    assert _same_bits(amplitudes, want_amplitudes)
    # one row's preparation, PrepState on Python numbers, and the stack's, solve_rows', give the same bits
    assert row_tuples.tobytes() == amplitudes.tobytes()
    assert _same_bits(row_amplitudes, amplitudes)


def _feasible(pairs):
    return [(s0, s1) for s0, s1 in pairs if feasibility(s0, s1).feasible]


def _overshooting_grid_values():
    """The last points, past 1 by an ulp or a few, of grids with 1/k to 16 digits as step."""
    values = []
    for k in range(2, 201):
        step = float(f"{1 / k:.16g}")
        last = cli._sweep_values(step)[-1]
        if last > 1.0:
            values.append(last)
    return values


class TestSolveRows:
    def test_matches_solve_prep_on_random_feasible_pairs(self):
        rng = np.random.default_rng(101)
        pairs = rng.uniform(0.0, 1.0, size=(150_000, 2))
        margin, in_range, over = feasibility_rule(pairs[:, 0], pairs[:, 1])
        pairs = pairs[in_range & ~over]
        assert len(pairs) >= 100_000
        _check_against_solve_prep(pairs)

    def test_matches_solve_prep_at_the_corners_and_the_symmetric_point(self):
        corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (2 / 3, 2 / 3), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]
        _check_against_solve_prep(corners)
        # each alone too: a row's bits do not depend on its neighbours
        for pair in corners:
            _check_against_solve_prep([pair])

    def test_matches_solve_prep_within_roundoff_of_the_boundary(self):
        # points on the arc margin = 0, nudged a few ulps and 1e-13 either way
        t = np.linspace(-np.pi / 3, np.pi / 3, 401)
        base, shift = (1.0 + np.cos(t)) / 3.0, np.sin(t) / np.sqrt(3.0)
        arc = np.stack([base - shift, base + shift], axis=-1)
        pairs = []
        for nudge in (0.0, 1e-13, -1e-13, 4e-13, -4e-13):
            pairs += (arc * (1.0 + nudge)).tolist()
        for ulps in (1, 3, -1, -3):
            pairs += np.nextafter(arc, arc + ulps).tolist()
        pairs = _feasible(pairs)
        margins = np.array([feasibility(s0, s1).margin for s0, s1 in pairs])
        assert (np.abs(margins) <= ROUNDOFF_TOL).all()
        assert (margins > 0).sum() > 100 and (margins < 0).sum() > 100
        _check_against_solve_prep(pairs)

    def test_matches_solve_prep_where_the_clamp_acts(self):
        # the last grid point of some steps overshoots 1 by an ulp, and a
        # factor may lie up to ROUNDOFF_TOL below 0
        over = _overshooting_grid_values()
        assert len(over) > 10 and all(1.0 < v <= 1.0 + ROUNDOFF_TOL for v in over)
        below = [-ROUNDOFF_TOL, -1e-13, -5e-324]
        pairs = [(v, 0.0) for v in over] + [(0.0, v) for v in over]
        pairs += [(v, b) for v in over for b in below] + [(b, v) for v in over for b in below]
        pairs += [(b, 0.5) for b in below] + [(0.5, b) for b in below] + [(b, c) for b in below for c in below]
        pairs = _feasible(pairs)
        assert len(pairs) > 50
        _check_against_solve_prep(pairs)

    def test_matches_solve_prep_on_any_stack(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        factor = st.one_of(
            st.floats(-ROUNDOFF_TOL, 1.0 + ROUNDOFF_TOL),
            st.sampled_from([0.0, -0.0, 1.0, 2 / 3, 1.0 + ROUNDOFF_TOL, -ROUNDOFF_TOL]),
        )
        pairs = st.lists(st.tuples(factor, factor).filter(lambda p: feasibility(*p).feasible), min_size=1, max_size=40)

        @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
        @hypothesis.given(pairs)
        def check(pairs):
            _check_against_solve_prep(pairs)

        check()

    def test_an_empty_stack_solves_to_empty_arrays(self):
        columns, amplitudes = solve_rows(np.empty(0), np.empty(0))
        assert columns.shape == (0, 5) and amplitudes.shape == (0, 4)

    @pytest.mark.parametrize(
        "bad_pair, message",
        [
            ((0.9, 0.9), "margin 0.63 exceeds 0"),
            ((1.5, 0.0), r"must lie in \[0, 1\]"),
            ((-1e-9, 0.5), r"must lie in \[0, 1\]"),
            ((np.nan, 0.5), r"must lie in \[0, 1\]"),
            ((0.5, np.inf), r"must lie in \[0, 1\]"),
        ],
    )
    def test_one_bad_pair_fails_the_stack(self, bad_pair, message):
        pairs = np.array([(0.4, 0.7), (0.5, 0.5), (1.0, 0.0), (0.2, 0.8), (2 / 3, 2 / 3)])
        pairs[3] = bad_pair
        with pytest.raises(InfeasibleScalingError, match=message) as stacked:
            solve_rows(pairs[:, 0], pairs[:, 1])
        # feasibility takes finite pairs alone; where it does, solve_prep raises the same text
        if np.isfinite(bad_pair).all():
            with pytest.raises(InfeasibleScalingError) as scalar:
                solve_prep(feasibility(*bad_pair))
            assert str(scalar.value) == str(stacked.value)

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (2, 1.2, "modulus c4 = 1.2 outside"),
            (1, -0.1, "modulus c2 = -0.1 outside"),
            (0, np.nan, "modulus c1 = nan outside"),
            (2, 1.0 + 2 * ROUNDOFF_TOL, "modulus c4 = .* outside"),
            (3, np.nan, "finite"),
            (4, np.inf, "finite"),
            (5, -np.inf, "finite"),
        ],
    )
    def test_one_bad_preparation_row_fails_the_stack(self, column, value, message):
        # rows (c1, c2, c4, theta1, theta2, theta4), as PrepState's fields
        rng = np.random.default_rng(102)
        pairs = np.array(_feasible(rng.uniform(0.0, 1.0, size=(40, 2)).tolist()))
        columns, _ = solve_rows(pairs[:, 0], pairs[:, 1])
        values = np.insert(columns, 3, 0.0, axis=1)
        preparation_rule(*values.T)
        values[7, column] = value
        with pytest.raises(ValueError, match=message):
            preparation_rule(*values.T)
        # the same row alone, as a PrepState
        with pytest.raises(ValueError, match=message):
            PrepState(*values[7].tolist())

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((1.2, 0.0, 0.0, 0.0, 0.0, 0.0), "modulus c1 = 1.2 outside [0, 1]"),
            ((0.6, -0.1, 0.8, 0.0, 0.0, 0.0), "modulus c2 = -0.1 outside [0, 1]"),
            ((0.6, 0.0, np.nan, 0.0, np.nan, 0.0), "modulus c4 = nan outside [0, 1]"),
            ((2.0, -1.0, 0.0, 0.0, 0.0, 0.0), "modulus c1 = 2.0 outside [0, 1]"),
            ((1.0, 0.0, 0.0, 0.0, np.nan, 0.0), "phases must be finite"),
            ((1.0, 0.0, 0.0, -np.inf, 0.0, 0.0), "phases must be finite"),
            ((0.5, 0.5, 0.5, 0.0, 1.0, 2.0), "state is not normalized: sum |amp|^2 = 0.75"),
        ],
    )
    def test_one_preparation_raises_the_stacks_message(self, fields, message):
        # PrepState checks its Python row with the rules solve_rows runs on a stack's columns, in the same order
        with pytest.raises(ValueError) as row:
            PrepState(*fields)
        c1, c2, c4, theta1, theta2, theta4 = np.array([(0.6, 0.0, 0.8, 0.0, 0.0, 0.0), fields]).T
        with pytest.raises(ValueError) as stack:
            preparation_rule(c1, c2, c4, theta1, theta2, theta4)
            phased = [c1 * np.exp(1j * theta1), c2 * np.exp(1j * theta2), 0.0 * c1, c4 * np.exp(1j * theta4)]
            check_unit_norm(np.stack(phased, axis=-1))
        assert str(row.value) == str(stack.value) == message

    def test_every_rule_runs_once_on_the_whole_stack(self, monkeypatch):
        seen = []

        def recorded(name):
            rule = getattr(cloner, name)
            return lambda *values: seen.append((name, [np.shape(v) for v in values])) or rule(*values)

        for name in ("preparation_rule", "check_unit_norm"):
            monkeypatch.setattr(cloner, name, recorded(name))
        rng = np.random.default_rng(104)
        pairs = np.array(_feasible(rng.uniform(0.0, 1.0, size=(300, 2)).tolist()))
        solve_rows(pairs[:, 0], pairs[:, 1])
        # the preparation's columns, theta1 the float 0.0, then the amplitudes
        column = (len(pairs),)
        assert seen == [
            ("preparation_rule", [column, column, column, (), column, column]),
            ("check_unit_norm", [(len(pairs), 4)]),
        ]


class TestFeasibilityRule:
    @staticmethod
    def _check(pairs):
        pairs = np.asarray(pairs, dtype=float).reshape(-1, 2)
        margin, in_range, over = feasibility_rule(pairs[:, 0], pairs[:, 1])
        for k, (s0, s1) in enumerate(pairs.tolist()):
            pair = feasibility(s0, s1)
            assert bool(in_range[k] & ~over[k]) == pair.feasible, (s0, s1)
            assert _same_bits(margin[k : k + 1], [pair.margin]), (s0, s1)
            # the rule on two floats is the rule on the stack
            assert feasibility_rule(s0, s1) == (pair.margin, bool(in_range[k]), bool(over[k]))
            if not in_range[k]:
                assert pair.reason == "scaling factors must lie in [0, 1]"
            elif over[k]:
                assert pair.reason.endswith("exceeds 0")

    def test_matches_feasibility_on_random_and_out_of_range_pairs(self):
        rng = np.random.default_rng(103)
        self._check(rng.uniform(0.0, 1.0, size=(3000, 2)))
        self._check(rng.uniform(-0.5, 1.5, size=(3000, 2)))
        self._check(rng.uniform(-1e6, 1e6, size=(200, 2)))

    def test_matches_feasibility_at_the_range_ends(self):
        edges = []
        for end in (-ROUNDOFF_TOL, 1.0 + ROUNDOFF_TOL, 0.0, 1.0):
            edges += [end, np.nextafter(end, -np.inf), np.nextafter(end, np.inf)]
        edges += [-0.0, 0.5]
        self._check([(a, b) for a in edges for b in edges])
        # both ends belong to the range, the next floats out do not
        lo, hi = -ROUNDOFF_TOL, 1.0 + ROUNDOFF_TOL
        ends = np.array([lo, hi, np.nextafter(lo, -1.0), np.nextafter(hi, 2.0)])
        for s0, s1 in ((ends, np.zeros(4)), (np.zeros(4), ends)):
            assert feasibility_rule(s0, s1)[1].tolist() == [True, True, False, False]

    def test_matches_feasibility_within_roundoff_of_the_boundary(self):
        # margin = s1^2 - s1 on s0 = 0, so s1 = 1 + d gives margin ~ d
        near = [1.0 + d for d in (-2e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 2e-12)]
        pairs = [(0.0, v) for v in near] + [(v, 0.0) for v in near]
        t = np.linspace(-np.pi / 3, np.pi / 3, 101)
        base, shift = (1.0 + np.cos(t)) / 3.0, np.sin(t) / np.sqrt(3.0)
        arc = np.stack([base - shift, base + shift], axis=-1)
        for nudge in (-3e-12, -1e-12, 0.0, 1e-12, 3e-12):
            pairs += (arc * (1.0 + nudge)).tolist()
        self._check(pairs)


def test_sweep_row_pass_solves_every_feasible_grid_point():
    # the stacked row pass against the scalar rule and solver at every point
    # of a grid whose last point overshoots 1 by an ulp
    step = float(f"{1 / 6:.16g}")
    values = cli._sweep_values(step)
    assert values[-1] == np.nextafter(1.0, 2.0)
    num = cli._csv_num
    rows = cli.sweep_rows(step)
    for row, (s0, s1) in zip(rows, [(a, b) for a in values for b in values], strict=True):
        pair = feasibility(s0, s1)
        lead = [num(s0), num(s1), "true" if pair.feasible else "false", num(pair.margin)]
        if pair.feasible:
            prep = solve_prep(pair)
            lead += [num(x) for x in (prep.c1, prep.c2, prep.c4, prep.theta2, prep.theta4)]
        assert row.startswith(",".join(lead) + ","), (s0, s1)
    # the overshooting points are in range, so (1 + ulp, 0) and (0, 1 + ulp) solve
    assert rows[-len(values)].split(",")[2] == rows[len(values) - 1].split(",")[2] == "true"
