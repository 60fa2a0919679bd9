import re
from dataclasses import replace

import numpy as np
import pytest

from asymclone import cli, cloner
from asymclone.cloner import (
    NETWORK_LABELS,
    InfeasibleScalingError,
    PrepState,
    CloneBatch,
    ScalingPair,
    clone_batch,
    cloning_network,
    feasibility,
    run_cloner,
    solve_prep,
    verify_scaling,
)
from asymclone.qstate import (
    _NAMED_AMPLITUDES,
    ESTIMATE_TOL,
    ROUNDOFF_TOL,
    StateVector,
    bloch_rows,
    bloch_vector,
    check_density,
    fidelity_pure,
    named_state,
    partial_trace,
    projector_rows,
    random_rows,
    random_state,
    single_qubit,
    tensor,
    to_density,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)
# the six axis states 0, 1, +, -, +i, -i on a0, which sweep clones
PROBES = [named_state(name, "a0") for name in _NAMED_AMPLITUDES]
PROBE_AMPLITUDES = np.array(list(_NAMED_AMPLITUDES.values()), dtype=complex)


def _branches(prep):
    """prep under each sign of theta2 and theta4, solve_prep's minus signs first."""
    return [
        replace(prep, theta2=sign2 * prep.theta2, theta4=sign4 * prep.theta4)
        for sign2 in (1.0, -1.0)
        for sign4 in (1.0, -1.0)
    ]


def _boundary_point(t):
    # the feasibility quadratic vanishes along this arc; endpoints (1,0) and (0,1)
    base = (1.0 + np.cos(t)) / 3.0
    shift = np.sin(t) / np.sqrt(3.0)
    return base - shift, base + shift


def _sample_feasible(rng):
    while True:
        s0, s1 = rng.uniform(0.0, 1.0, size=2)
        pair = feasibility(float(s0), float(s1))
        if pair.feasible:
            return pair


class TestFeasibility:
    def test_known_margins(self):
        assert feasibility(2 / 3, 2 / 3).margin == pytest.approx(0.0, abs=1e-12)
        assert feasibility(1, 0).margin == 0.0
        assert feasibility(0, 1).margin == 0.0
        assert feasibility(1, 1).margin == 1.0
        assert feasibility(0.9, 0.9).margin == pytest.approx(0.63)

    def test_feasible_flags(self):
        assert feasibility(2 / 3, 2 / 3).feasible
        assert feasibility(1, 0).feasible
        assert feasibility(0.5, 0.5).feasible
        assert not feasibility(1, 1).feasible
        assert not feasibility(0.9, 0.9).feasible

    def test_out_of_range_is_flagged_with_reason(self):
        # (-0.1, 0.5) has a negative quadratic yet must still be rejected
        pair = feasibility(-0.1, 0.5)
        assert pair.margin < 0
        assert not pair.feasible
        assert "[0, 1]" in pair.reason
        assert not feasibility(1.1, 0.0).feasible

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            feasibility(float("nan"), 0.5)
        with pytest.raises(ValueError, match="finite"):
            feasibility(0.5, float("inf"))

    def test_flag_matches_quadratic_for_random_points(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            s0, s1 = rng.uniform(0.0, 1.0, size=2)
            pair = feasibility(float(s0), float(s1))
            assert pair.feasible == (pair.margin <= 1e-12)


class TestSolvePrep:
    def test_identity_channel_prep_is_bell_state(self):
        prep = solve_prep(feasibility(1, 0))
        assert np.allclose(prep.as_amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-12)
        assert prep.theta4 == 0.0

    def test_swap_channel_prep_is_disentangled(self):
        prep = solve_prep(feasibility(0, 1))
        assert np.allclose(prep.as_amplitudes, [INV_SQRT2, INV_SQRT2, 0, 0], atol=1e-12)
        assert prep.theta2 == 0.0

    def test_symmetric_prep_moduli_and_phases(self):
        prep = solve_prep(feasibility(2 / 3, 2 / 3))
        assert prep.c1 == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)
        assert prep.c2 == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-12)
        assert prep.c4 == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-12)
        # the phase equations give cos = 1 here; arccos noise stays below 1e-6
        assert abs(prep.theta2) < 1e-6
        assert abs(prep.theta4) < 1e-6
        expected = [np.sqrt(2.0 / 3.0), 1.0 / np.sqrt(6.0), 0.0, 1.0 / np.sqrt(6.0)]
        assert np.allclose(prep.as_amplitudes, expected, atol=1e-6)

    def test_theta1_convention_and_c3_zero(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            prep = solve_prep(_sample_feasible(rng))
            assert prep.theta1 == 0.0
            assert prep.as_amplitudes[2] == 0.0

    def test_moduli_normalization_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            pair = _sample_feasible(rng)
            prep = solve_prep(pair)
            assert prep.c1**2 + prep.c2**2 + prep.c4**2 == pytest.approx(1.0, abs=1e-12)

    def test_rejects_infeasible_pair(self):
        with pytest.raises(InfeasibleScalingError, match="infeasible"):
            solve_prep(feasibility(0.9, 0.9))

    def test_explicit_branches_set_phase_signs(self):
        minus = solve_prep(feasibility(0.5, 0.5))
        plus = replace(minus, theta2=-minus.theta2, theta4=-minus.theta4)
        assert minus.theta2 < 0 < plus.theta2
        assert minus.theta4 < 0 < plus.theta4
        assert plus.theta2 == pytest.approx(-minus.theta2)

    def test_all_four_branches_are_valid_cloners(self):
        # the reduced outputs depend on phases only through cosines, so every
        # sign combination reproduces the scaled form
        for prep in _branches(solve_prep(feasibility(0.4, 0.7))):
            for probe in PROBES:
                out = run_cloner(probe, prep)
                assert (out.residual < 1e-8).all()

    def test_prep_state_validation(self):
        with pytest.raises(ValueError, match="outside"):
            PrepState(c1=1.2, c2=0.0, c4=0.0, theta1=0.0, theta2=0.0, theta4=0.0)
        with pytest.raises(ValueError, match="not normalized"):
            PrepState(c1=0.5, c2=0.5, c4=0.5, theta1=0.0, theta2=0.0, theta4=0.0)
        basis = dict(c1=1.0, c2=0.0, c4=0.0, theta1=0.0, theta2=0.0, theta4=0.0)
        for phase in ("theta1", "theta2", "theta4"):
            for value in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="finite"):
                    PrepState(**{**basis, phase: value})

    def test_prep_state_accepts_only_what_the_network_accepts(self):
        # a norm error between the two tolerances used to pass construction
        # and then fail inside run_cloner
        with pytest.raises(ValueError, match="not normalized"):
            PrepState(c1=np.sqrt(0.5 + 2.5e-11), c2=0.5, c4=0.5, theta1=0.0, theta2=0.0, theta4=0.0)
        prep = PrepState(c1=np.sqrt(0.5 + 2.5e-13), c2=0.5, c4=0.5, theta1=0.0, theta2=0.0, theta4=0.0)
        assert run_cloner(named_state("0", "a0"), prep).joint.shape == (8,)

    def test_amplitudes_are_built_once_and_read_only(self):
        prep = solve_prep(feasibility(0.4, 0.7))
        assert prep.as_amplitudes is prep.as_amplitudes
        expected = np.array(
            [
                prep.c1 * np.exp(1j * prep.theta1),
                prep.c2 * np.exp(1j * prep.theta2),
                0.0,
                prep.c4 * np.exp(1j * prep.theta4),
            ]
        )
        assert prep.as_amplitudes.tobytes() == expected.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            prep.as_amplitudes[0] = 0.0


class TestRunCloner:
    def test_identity_channel_leaves_original_untouched(self):
        prep = solve_prep(feasibility(1, 0))
        psi = single_qubit(0.6, 0.8, "a0")
        out = run_cloner(psi, prep)
        assert np.max(np.abs(out.rho[0] - to_density(psi).entries)) < 1e-12
        assert np.max(np.abs(out.rho[1] - 0.5 * np.eye(2))) < 1e-12
        assert out.s_est[0] == pytest.approx(1.0, abs=1e-12)
        assert out.s_est[1] == pytest.approx(0.0, abs=1e-12)

    def test_swap_channel_teleports_into_the_copy(self):
        prep = solve_prep(feasibility(0, 1))
        rng = np.random.default_rng(24)
        for _ in range(20):
            psi = random_state(("a0",), rng)
            out = run_cloner(psi, prep)
            assert np.max(np.abs(out.rho[1] - to_density(psi).entries)) < 1e-12
            assert np.max(np.abs(out.rho[0] - 0.5 * np.eye(2))) < 1e-12
            assert out.s_est[1] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_cloner_on_basis_input(self):
        prep = solve_prep(feasibility(2 / 3, 2 / 3))
        out = run_cloner(named_state("0", "a0"), prep)
        expected = np.diag([5.0 / 6.0, 1.0 / 6.0])
        assert np.max(np.abs(out.rho[0] - expected)) < 1e-10
        assert np.max(np.abs(out.rho[1] - expected)) < 1e-10

    def test_universality_of_estimates(self):
        pair = feasibility(0.55, 0.6)
        prep = solve_prep(pair)
        rng = np.random.default_rng(25)
        estimates = []
        for _ in range(50):
            out = run_cloner(random_state(("a0",), rng), prep)
            estimates.append(out.s_est)
            assert out.s_est[0] == pytest.approx(pair.s0, abs=1e-8)
            assert out.s_est[1] == pytest.approx(pair.s1, abs=1e-8)
        spread = np.ptp(np.asarray(estimates), axis=0)
        assert np.all(spread < 1e-8)

    def test_fidelity_tracks_scaling(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            pair = _sample_feasible(rng)
            out = run_cloner(random_state(("a0",), rng), solve_prep(pair))
            assert out.fidelity[0] == pytest.approx(0.5 * (1 + out.s_est[0]), abs=1e-8)
            assert out.fidelity[1] == pytest.approx(0.5 * (1 + out.s_est[1]), abs=1e-8)

    def test_joint_register_and_norm(self):
        out = run_cloner(named_state("+i", "a0"), solve_prep(feasibility(0.5, 0.5)))
        assert NETWORK_LABELS == ("a0", "a1", "b1")
        assert out.joint.shape == (2 ** len(NETWORK_LABELS),)
        assert np.linalg.norm(out.joint) == pytest.approx(1.0, abs=1e-12)

    def test_accepts_raw_two_qubit_prep(self):
        prep = solve_prep(feasibility(1, 0))
        raw = StateVector(prep.as_amplitudes, ("a1", "b1"))
        psi = named_state("+", "a0")
        direct = run_cloner(psi, prep)
        via_raw = run_cloner(psi, raw)
        assert np.allclose(direct.joint, via_raw.joint, atol=1e-15)

    def test_input_validation(self):
        prep = solve_prep(feasibility(0.5, 0.5))
        two = random_state(("a", "b"), np.random.default_rng(0))
        with pytest.raises(ValueError, match="single qubit"):
            run_cloner(two, prep)
        with pytest.raises(ValueError, match="two qubits"):
            run_cloner(named_state("0", "a0"), random_state(("a1",), np.random.default_rng(1)))


def _per_object_clone(input_amplitudes, prep_amplitudes):
    """clone_batch's numbers for one input, from the validated per-object API."""
    original = StateVector(input_amplitudes, ("a0",))
    joint = cloning_network(tensor(original, StateVector(prep_amplitudes, ("a1", "b1"))))
    rho_joint = to_density(joint)
    reduced = [partial_trace(rho_joint, [label]) for label in ("a0", "a1")]
    rho_in = to_density(original)
    m_in = bloch_vector(rho_in).as_array()
    fields = {"joint": joint.amplitudes, "rho": [rho.entries for rho in reduced]}
    fields.update({key: [] for key in ("s_est", "residual", "isotropy", "fidelity")})
    for rho in reduced:
        m_out = bloch_vector(rho).as_array()
        s_est = float(m_out @ m_in) / float(m_in @ m_in)
        expected = s_est * rho_in.entries + 0.5 * (1.0 - s_est) * np.eye(2)
        fields["s_est"].append(s_est)
        fields["residual"].append(float(abs(rho.entries - expected).max()))
        fields["isotropy"].append(float(abs(m_out - s_est * m_in).max()))
        fields["fidelity"].append(fidelity_pure(original, rho))
    return fields


def _reference_preparations():
    # all four phase-sign branches of a generic pair, the three corner pairs
    # and a raw preparation outside the solved form (nonzero |10> amplitude)
    preps = [prep.as_amplitudes for prep in _branches(solve_prep(feasibility(0.4, 0.7)))]
    preps += [solve_prep(feasibility(s0, s1)).as_amplitudes for s0, s1 in ((1, 0), (0, 1), (2 / 3, 2 / 3))]
    injected = solve_prep(feasibility(0.5, 0.5)).as_amplitudes.copy()
    injected[2] = 0.5
    return preps + [injected / np.linalg.norm(injected)]


class TestCloneBatch:
    @pytest.mark.parametrize("prep", _reference_preparations())
    def test_bit_identical_to_the_per_object_path(self, prep):
        rng = np.random.default_rng(29)
        inputs = [random_state(("a0",), rng).amplitudes for _ in range(200)]
        inputs += list(PROBE_AMPLITUDES)
        batch = clone_batch(np.array(inputs), prep)
        for k, psi in enumerate(inputs):
            for key, want in _per_object_clone(psi, prep).items():
                assert np.array_equal(getattr(batch, key)[k], want), (k, key)

    @pytest.mark.parametrize(
        "case", ["sweep 1/11", "sweep 1/14", "sweep 0.01", "verify", "one row", "empty", "empty broadcast", "strided"]
    )
    def test_the_column_trace_keeps_the_broadcast_traces_bits(self, monkeypatch, case):
        # the kernel traces on one column of rows per entry; the reference is
        # the same products and sums broadcast over rows of 4 x 2 entries
        def broadcast_trace(joint):
            lead = joint.shape[:-1]
            v = joint.reshape(lead + (4, 2))
            w = v.conj()
            pair = v[..., :, None, 0] * w[..., None, :, 0] + v[..., :, None, 1] * w[..., None, :, 1]
            pair = pair.reshape(lead + (2, 2, 2, 2))
            rho = np.empty(lead + (2, 2, 2), dtype=complex)
            np.add(pair[..., :, 0, :, 0], pair[..., :, 1, :, 1], out=rho[..., 0, :, :])
            np.add(pair[..., 0, :, 0, :], pair[..., 1, :, 1, :], out=rho[..., 1, :, :])
            return rho

        rng = np.random.default_rng(36)
        preps = np.array([solve_prep(feasibility(*rng.uniform(0.0, 0.5, 2).tolist())).as_amplitudes for _ in range(50)])
        inputs = random_rows(rng.standard_normal((50, 2, 4)))
        if case.startswith("sweep"):
            # the first block sweep passes the kernel, the own points of the whole grid at 1/11 and 1/14
            calls = []
            monkeypatch.setattr(cloner, "clone_batch", lambda *args: calls.append(args) or clone_batch(*args))
            cli.sweep_rows(cli._parse_real(case.split()[1]))
            inputs, preps = calls[0]
            assert preps.shape[1:] == (1, 4) and len(preps) > 50
        elif case == "verify":
            preps = preps[:, None]
        elif case == "one row":
            inputs, preps = inputs[0, 0], preps[0]
        elif case == "empty":
            inputs, preps = inputs[:0, 0], preps[:0]
        elif case == "empty broadcast":
            inputs, preps = PROBE_AMPLITUDES, preps[:0, None]
        else:
            inputs, preps = inputs[::2, ::-1], preps[::2, None]
            assert not inputs.flags.c_contiguous
        batch = clone_batch(inputs, preps)
        assert batch.rho.flags.c_contiguous and batch.rho.shape == batch.joint.shape[:-1] + (2, 2, 2)
        assert batch.rho.tobytes() == broadcast_trace(batch.joint).tobytes()

    def test_run_cloner_wraps_the_kernel(self):
        prep = solve_prep(feasibility(0.3, 0.5))
        psi = random_state(("a0",), np.random.default_rng(30))
        out = run_cloner(psi, prep)
        batch = clone_batch(psi.amplitudes[None, :], prep.as_amplitudes)
        assert isinstance(out, CloneBatch)
        assert (out.joint.shape, out.rho.shape, out.s_est.shape, out.residual.shape) == ((8,), (2, 2, 2), (2,), (2,))
        assert "isotropy" not in out.__dict__ and "fidelity" not in out.__dict__
        for key in ("joint", "rho", "s_est", "residual", "isotropy", "fidelity"):
            assert np.array_equal(getattr(out, key), getattr(batch, key)[0]), key

    def test_a_result_equals_itself_alone_and_hashes(self):
        prep = solve_prep(feasibility(0.3, 0.5)).as_amplitudes
        first, second = clone_batch(PROBE_AMPLITUDES, prep), clone_batch(PROBE_AMPLITUDES, prep)
        assert first == first and first != second
        assert hash(first) == hash(first) and len({first, second, first}) == 2

    def test_fidelity_and_isotropy_are_computed_once_on_first_read(self):
        probes = PROBE_AMPLITUDES
        batch = clone_batch(probes, solve_prep(feasibility(0.3, 0.5)).as_amplitudes)
        assert "fidelity" not in batch.__dict__ and "isotropy" not in batch.__dict__
        assert batch.fidelity is batch.fidelity and batch.isotropy is batch.isotropy

    def test_every_array_is_read_only_and_the_callers_inputs_stay_writable(self):
        prep = solve_prep(feasibility(0.8, 0.4)).as_amplitudes
        inputs = np.array(_NAMED_AMPLITUDES["+"], dtype=complex)
        out, untouched = clone_batch(inputs, prep), clone_batch(inputs.copy(), prep)
        # edits before the first read of the lazy fields, which read these arrays
        with pytest.raises(ValueError, match="read-only"):
            out.rho[0] = (out.rho[0] + out.rho[1]) / 2
        with pytest.raises(ValueError, match="read-only"):
            out.m_out[1] = 0
        assert np.array_equal(out.fidelity, untouched.fidelity) and np.allclose(out.fidelity, [0.9, 0.7])
        assert np.array_equal(out.isotropy, untouched.isotropy) and out.isotropy.max() < ROUNDOFF_TOL
        for key in ("joint", "rho", "s_est", "residual", "inputs", "m_in", "m_out", "isotropy", "fidelity"):
            assert not getattr(out, key).flags.writeable, key
        assert np.shares_memory(out.inputs, inputs) and inputs.flags.writeable

    @pytest.mark.parametrize("bad_row", [[1.0, 0.1], [np.nan, 0.0], [np.inf, 0.0]])
    def test_one_bad_input_row_fails_the_stack(self, bad_row):
        inputs = PROBE_AMPLITUDES.copy()
        inputs[3] = bad_row
        with pytest.raises(ValueError, match="not normalized"):
            clone_batch(inputs, solve_prep(feasibility(0.5, 0.5)).as_amplitudes)

    def test_rejects_bad_preparation_and_shapes(self):
        inputs = PROBE_AMPLITUDES
        with pytest.raises(ValueError, match="not normalized"):
            clone_batch(inputs, [1.0, 0.0, 0.0, np.nan])
        with pytest.raises(ValueError, match="4 amplitudes"):
            clone_batch(inputs, [1.0, 0.0])
        with pytest.raises(ValueError, match=r"\(\.\.\., 2\) inputs"):
            clone_batch(inputs[:, :1], [1.0, 0.0, 0.0, 0.0])

    def test_one_preparation_per_row_matches_one_call_per_row(self):
        rng = np.random.default_rng(31)
        pairs = [(0.4, 0.7), (0.5, 0.5), (0.9, 0.05), (0.2, 0.8)]
        preps = _reference_preparations() + [solve_prep(feasibility(*pair)).as_amplitudes for pair in pairs]
        preps = np.array([preps[k] for k in rng.permutation(60) % len(preps)])
        inputs = np.array([random_state(("a0",), rng).amplitudes for _ in range(len(preps))])
        batch = clone_batch(inputs, preps)
        for k in range(len(preps)):
            single = clone_batch(inputs[k : k + 1], preps[k])
            for key in ("joint", "rho", "s_est", "residual", "isotropy", "fidelity"):
                assert np.array_equal(getattr(batch, key)[k], getattr(single, key)[0]), (k, key)

    @pytest.mark.parametrize("bad_row", ["nan", "off-norm"])
    def test_one_bad_preparation_row_fails_the_stack(self, bad_row):
        inputs = PROBE_AMPLITUDES
        preps = np.tile(solve_prep(feasibility(0.5, 0.5)).as_amplitudes, (len(inputs), 1))
        if bad_row == "nan":
            preps[4, 1] = np.nan
        else:
            preps[4] *= 1.001
        with pytest.raises(ValueError, match="not normalized"):
            clone_batch(inputs, preps)

    @pytest.mark.parametrize("rows", [1, 5, 7])
    def test_preparation_rows_must_match_the_input_rows(self, rows):
        # one preparation row broadcasts over the six inputs; 5 or 7 rows do not
        inputs = PROBE_AMPLITUDES
        prep = solve_prep(feasibility(0.5, 0.5)).as_amplitudes
        preps = np.tile(prep, (rows, 1))
        if rows == 1:
            batch, shared = clone_batch(inputs, preps), clone_batch(inputs, prep)
            for key in ("joint", "rho", "s_est", "residual", "isotropy", "fidelity"):
                assert np.array_equal(getattr(batch, key), getattr(shared, key)), key
            return
        with pytest.raises(ValueError, match="cannot be broadcast"):
            clone_batch(inputs, preps)

    @pytest.mark.parametrize(
        "case", ["sweep, m = 0", "sweep, m = 1", "sweep, m = 7", "verify", "one input", "mixed"]
    )
    def test_broadcast_calls_equal_the_flattened_calls(self, case):
        # the reference flattens the stack by hand, as callers did before the
        # kernel broadcast, and unflattens each field to the broadcast shape
        rng = np.random.default_rng(32)
        pairs = [(0.4, 0.7), (0.5, 0.5), (0.9, 0.05), (1, 0), (0, 1), (2 / 3, 2 / 3), (0.2, 0.8)]
        preps = np.array([solve_prep(feasibility(*pair)).as_amplitudes for pair in pairs])
        probes = PROBE_AMPLITUDES
        if case.startswith("sweep"):
            m = int(case[-1])
            inputs, preps, lead = probes, preps[:m, None], (m, 6)
            flat = clone_batch(np.tile(probes, (m, 1)), np.repeat(preps[:, 0], 6, axis=0))
        elif case == "verify":
            n = len(preps)
            inputs = np.array([random_state(("a0",), rng).amplitudes for _ in range(2 * n)]).reshape(n, 2, 2)
            preps, lead = preps[:, None], (n, 2)
            flat = clone_batch(inputs.reshape(2 * n, 2), np.repeat(preps[:, 0], 2, axis=0))
        elif case == "one input":
            inputs, preps, lead = random_state(("a0",), rng).amplitudes, preps[0], ()
            flat = clone_batch(inputs[None, :], preps)
        else:
            inputs = np.array([random_state(("a0",), rng).amplitudes for _ in range(3)]).reshape(3, 1, 2)
            preps, lead = preps[:5].reshape(1, 5, 4), (3, 5)
            flat = clone_batch(np.repeat(inputs, 5, axis=1).reshape(15, 2), np.tile(preps, (3, 1, 1)).reshape(15, 4))
        batch = clone_batch(inputs, preps)
        for key in ("joint", "rho", "s_est", "residual", "isotropy", "fidelity"):
            want = getattr(flat, key)
            assert getattr(batch, key).shape == lead + want.shape[1:], key
            assert np.array_equal(getattr(batch, key), want.reshape(lead + want.shape[1:])), key

    @pytest.mark.parametrize("skipped", [(), ("check_unit_norm",), ("check_unit_norm", "check_density")])
    def test_sweep_shape_fails_on_one_bad_row_as_the_flattened_call(self, monkeypatch, skipped):
        # the kernel checks each distinct probe once, at the inputs' own shape;
        # with the rules before it switched off, each later rule must still
        # see the bad probe or preparation row and raise as the tiled call does
        for name in skipped:
            monkeypatch.setattr(cloner, name, lambda values: None)
        pairs = [(0.4, 0.7), (0.5, 0.5), (1, 0), (2 / 3, 2 / 3), (0.2, 0.8)]
        good = np.array([solve_prep(feasibility(*pair)).as_amplitudes for pair in pairs])
        probes = PROBE_AMPLITUDES
        bad_nan, bad_norm = good.copy(), good.copy()
        bad_nan[3, 1] = np.nan
        # the (1, 0) row: its a0 clone keeps the input's Bloch vector, scaled by 2.25
        bad_norm[2] *= 1.5
        bad_probe = probes.copy()
        bad_probe[4] *= 1.001
        # the bad probe's own projector fails first, with values its clones do not share
        rho = projector_rows(bad_probe[4])
        trace, length = complex(np.trace(rho)), float((bloch_rows(rho) ** 2).sum())
        want = {
            (): ["not normalized"] * 3,
            ("check_unit_norm",): ["not Hermitian", "trace is (2.25", f"trace is {trace!r}"],
            ("check_unit_norm", "check_density"): ["|m|^2 = nan", "unit ball", f"|m|^2 = {length!r}"],
        }[skipped]
        for (inputs, preps), match in zip([(probes, bad_nan), (probes, bad_norm), (bad_probe, good)], want):
            m = len(preps)
            messages = []
            for args in [(inputs, preps[:, None]), (np.tile(inputs, (m, 1)), np.repeat(preps, len(inputs), axis=0))]:
                with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=re.escape(match)) as raised:
                    clone_batch(*args)
                messages.append(str(raised.value))
            assert messages[0] == messages[1]


def _exchange_pairs():
    """Pairs feasible in both orders: seeded draws, the corners, clamped ends and the arc nudged off by round-off."""
    drawn = np.random.default_rng(37).uniform(0.0, 1.0, (20000, 2))
    corners = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2 / 3, 2 / 3], [0.5, 0.5], [-1e-13, 1.0], [1.0 + 1e-13, 0.0]]
    corners += [[0.0, 5e-324], [1.0, 1e-300], [0.25, 0.25 + 2**-54]]
    arc = np.stack(_boundary_point(np.linspace(-np.pi / 3, np.pi / 3, 401)), axis=-1)
    nudged = [arc * (1.0 + nudge) for nudge in (0.0, 1e-13, -1e-13)] + [np.nextafter(arc, arc + u) for u in (1, -1)]
    pairs = np.concatenate([drawn, corners, *nudged])
    _, in_range, over = cloner.feasibility_rule(pairs[:, 0], pairs[:, 1])
    _, mirror_in_range, mirror_over = cloner.feasibility_rule(pairs[:, 1], pairs[:, 0])
    both = in_range & ~over & mirror_in_range & ~mirror_over
    assert both[20000:20010].all() and both[20010:].sum() > 1000 and both[:20000].sum() > 10000
    return pairs[both]


class TestExchangeSymmetry:
    """Exchanging s0 and s1 exchanges c2, theta2 with c4, theta4 and the two clones, bit for bit.

    sweep runs its kernel on one point of each mirrored pair and copies the
    other's numbers across, so these hold its bytes.
    """

    def test_solve_rows_exchanges_c2_and_c4_and_theta2_and_theta4(self):
        pairs = _exchange_pairs()
        columns, amplitudes = cloner.solve_rows(pairs[:, 0], pairs[:, 1])
        mirror_columns, mirror_amplitudes = cloner.solve_rows(pairs[:, 1], pairs[:, 0])
        assert mirror_columns.tobytes() == columns[:, [0, 2, 1, 4, 3]].tobytes()
        assert mirror_amplitudes.tobytes() == amplitudes[:, [0, 3, 2, 1]].tobytes()

    @pytest.mark.parametrize("kind", ["solved", "|10> = 0", "empty"])
    def test_clone_batch_exchanges_the_clones(self, kind):
        rng = np.random.default_rng(38)
        if kind == "solved":
            preps = cloner.solve_rows(*_exchange_pairs()[-3000:].T)[1]  # the corners, the arc and some draws
        else:
            preps = random_rows(rng.standard_normal((0 if kind == "empty" else 3000, 8)))
            preps[:, 2] = 0.0
            preps /= np.linalg.norm(preps, axis=-1, keepdims=True)
        inputs = random_rows(rng.standard_normal((len(preps), 4)))
        # random inputs one a row, and the six probes on every row as sweep passes them
        for psi, stack in ((inputs, preps), (PROBE_AMPLITUDES, preps[:, None])):
            batch = clone_batch(psi, stack)
            mirror = clone_batch(psi, stack[..., [0, 3, 2, 1]])
            assert mirror.rho.shape == batch.rho.shape and len(batch.rho) == len(preps)
            assert mirror.rho.tobytes() == np.flip(batch.rho, axis=-3).tobytes()
            for key in ("s_est", "residual", "isotropy", "fidelity"):
                assert getattr(mirror, key).tobytes() == np.flip(getattr(batch, key), axis=-1).tobytes(), key


def _signed_zero_preps(rng, n):
    """Unit rows on 1, 2 or 4 of the four entries, each +-m or +-m i beside a signed zero; the rest +-0 +-0i."""
    support = rng.choice([1, 2, 4], n)
    on = rng.random((n, 4)).argsort(axis=-1) < support[:, None]
    modulus = np.where(on, 1.0 / np.sqrt(support)[:, None], 0.0) * rng.choice([1.0, -1.0], (n, 4))
    real_zero, imag_zero = rng.choice([0.0, -0.0], (2, n, 4))
    imaginary = rng.random((n, 4)) < 0.5
    preps = np.empty((n, 4), dtype=complex)
    preps.real, preps.imag = np.where(imaginary, real_zero, modulus), np.where(imaginary, modulus, imag_zero)
    return preps


def _covariance_preps(kind):
    rng = np.random.default_rng(40)
    if kind == "general":  # |10> != 0
        return random_rows(rng.standard_normal((3000, 8)))
    if kind == "solved":  # the corners, (2/3, 2/3), clamped ends, the arc and some draws
        pairs = np.concatenate([_exchange_pairs()[-3000:], [CORNER, CORNER[::-1]]])
        return cloner.solve_rows(pairs[:, 0], pairs[:, 1])[1]
    return _signed_zero_preps(rng, 2000)


def _pauli_partner(pauli, stack, axes):
    """X or Z on each qubit of stack's rows (axes -1, bits as in NETWORK_LABELS) or 2x2 matrices (axes (-2, -1)).

    Entries are moved, or negated where Z's sign is -1, both exact.
    """
    if pauli == "X":
        return np.flip(stack, axis=axes)
    odd = np.array([bin(k).count("1") % 2 for k in range(stack.shape[-1])], dtype=bool)
    return np.where(odd if axes == -1 else odd[:, None] ^ odd, -stack, stack)


class TestPauliCovariance:
    """X or Z on the input a0 comes out as X X X or Z Z Z on (a0, a1, b1), with no phase, for any preparation.

    So each clone of X psi is X rho X and of Z psi is Z rho Z, and the
    antipodal probes |1> = X|0>, |-> = Z|+> and |-i> = Z|+i> give their
    partners' residual and s_est bit for bit; sweep runs one probe of each
    pair, so these hold its residual_max bytes.
    """

    @pytest.mark.parametrize("kind", ["general", "solved", "signed zeros"])
    def test_antipodal_probes_clone_alike(self, kind):
        batch = clone_batch(PROBE_AMPLITUDES, _covariance_preps(kind)[:, None])
        # the six probes 0, 1, +, -, +i, -i; each partner is its probe under the Pauli (up to a zero's sign)
        for probe, partner, pauli in [(0, 1, "X"), (2, 3, "Z"), (4, 5, "Z")]:
            assert np.array_equal(PROBE_AMPLITUDES[partner], _pauli_partner(pauli, PROBE_AMPLITUDES[probe], -1))
            assert np.array_equal(batch.joint[:, partner], _pauli_partner(pauli, batch.joint[:, probe], -1))
            assert np.array_equal(batch.rho[:, partner], _pauli_partner(pauli, batch.rho[:, probe], (-2, -1)))
            for key in ("residual", "s_est"):
                assert getattr(batch, key)[:, partner].tobytes() == getattr(batch, key)[:, probe].tobytes(), key

    @pytest.mark.parametrize("pauli", ["X", "Z"])
    def test_any_input_and_its_pauli_partner_clone_alike(self, pauli):
        # joint states and clones only: off the axes, X psi's Bloch y reads Im rho[0, 1] where psi's read
        # Im rho[1, 0], and a fused multiply-add may round the two apart in the last bit
        preps = np.concatenate([_covariance_preps(kind) for kind in ("general", "solved", "signed zeros")])
        inputs = random_rows(np.random.default_rng(41).standard_normal((len(preps), 4)))
        batch, partner = clone_batch(inputs, preps), clone_batch(_pauli_partner(pauli, inputs, -1), preps)
        assert np.array_equal(partner.joint, _pauli_partner(pauli, batch.joint, -1))
        assert np.array_equal(partner.rho, _pauli_partner(pauli, batch.rho, (-2, -1)))


def test_projector_of_a_norm_checked_state_is_a_density_matrix():
    # clone_batch checks the joint state's norm and not its projector: every
    # stack within half the norm tolerance must give valid density matrices
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    part = st.floats(-1.0, 1.0)
    stacks = st.integers(1, 8).flatmap(
        lambda dim: st.lists(st.lists(st.tuples(part, part), min_size=dim, max_size=dim), min_size=1, max_size=4)
    )
    pulls = st.floats(-ROUNDOFF_TOL / 2, ROUNDOFF_TOL / 2)

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(stacks, pulls)
    def check(rows, pull):
        amps = np.array([[complex(re, im) for re, im in row] for row in rows])
        with np.errstate(all="ignore"):
            amps = amps / np.linalg.norm(amps, axis=-1, keepdims=True) * np.sqrt(1.0 + pull)
        norm_error = np.abs((np.abs(amps) ** 2).sum(axis=-1) - 1.0)
        hypothesis.assume((norm_error <= ROUNDOFF_TOL / 2).all())
        check_density(projector_rows(amps))

    check()


class TestVerifyScaling:
    def test_valid_cloner_passes(self):
        rng = np.random.default_rng(27)
        prep = solve_prep(feasibility(2 / 3, 2 / 3))
        for _ in range(50):
            out = run_cloner(random_state(("a0",), rng), prep)
            assert verify_scaling(out, 1e-8) is True

    def test_identity_channel_passes_tight_tolerance(self):
        out = run_cloner(single_qubit(0.6, 0.8, "a0"), solve_prep(feasibility(1, 0)))
        assert verify_scaling(out, 1e-12) is True

    def test_reads_the_errors_run_cloner_computed(self):
        out = run_cloner(named_state("+", "a0"), solve_prep(feasibility(0.8, 0.4)))
        assert verify_scaling(out, 1e-8) is True
        # each of the four errors alone decides, and the fidelities do not;
        # replace recomputes the isotropy from m_out and the fidelity from inputs
        for k in range(2):
            bump = np.eye(2)[k] * 2e-8
            assert verify_scaling(replace(out, residual=out.residual + bump), 1e-8) is False
            skewed = replace(out, m_out=out.m_out + bump[:, None] * [1.0, 0.0, 0.0])
            assert skewed.isotropy[k] > 1e-8 >= skewed.isotropy[1 - k]
            assert verify_scaling(skewed, 1e-8) is False
        unread = replace(out, inputs=np.full(2, np.nan + 0j))
        assert np.isnan(unread.fidelity).all() and verify_scaling(unread, 1e-8) is True
        assert not verify_scaling(replace(out, m_out=out.m_out + [[0.0], [np.nan]]), 1e-8)

    def test_injected_c3_breaks_the_scaled_form(self):
        # axis-aligned probes still fit individually, so generic inputs are
        # needed to expose the violation
        prep = solve_prep(feasibility(0.5, 0.5))
        amps = prep.as_amplitudes.copy()
        amps[2] = 0.5
        bad = StateVector(amps / np.linalg.norm(amps), ("a1", "b1"))
        rng = np.random.default_rng(11)
        outs = [run_cloner(random_state(("a0",), rng), bad) for _ in range(10)]
        assert not any(verify_scaling(out, 1e-8) for out in outs)
        assert max(out.isotropy[0] for out in outs) > 0.05


class TestBoundary:
    def test_boundary_margin_and_solvability(self):
        for t in np.linspace(-np.pi / 3, np.pi / 3, 60):
            s0, s1 = _boundary_point(t)
            pair = feasibility(s0, s1)
            assert abs(pair.margin) < 1e-10
            assert pair.feasible
            prep = solve_prep(pair)
            out = run_cloner(named_state("+", "a0"), prep)
            assert (out.residual < 1e-8).all()

    def test_phases_match_a_50_digit_reference_inside_the_arc(self):
        # arccos has slope 1/sqrt(1 - x^2) where its argument nears 1 at the
        # boundary; pairs pulled inside the arc by a relative 1e-16..1e-4 keep
        # the phase error far below what the cloner's checks resolve
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        rng = np.random.default_rng(41)
        corner = 1.7e-3  # |dt| that keeps the arc point within 1e-3 of (1, 0) or (0, 1)
        ts = np.concatenate(
            [
                rng.uniform(-np.pi / 3, np.pi / 3, 1800),
                -np.pi / 3 + rng.uniform(0.0, corner, 100),
                np.pi / 3 - rng.uniform(0.0, corner, 100),
            ]
        )
        pulls = 10.0 ** rng.uniform(-16.0, -4.0, ts.size)

        def reference(numerator, factor_a, factor_b):
            if factor_a < ROUNDOFF_TOL or factor_b < ROUNDOFF_TOL:
                return 0.0
            return -float(mpmath.acos(min(numerator / mpmath.sqrt(factor_a * factor_b), 1)))

        for t, pull in zip(ts, pulls):
            b0, b1 = _boundary_point(t)
            pair = feasibility(1 / 3 + (1 - pull) * (b0 - 1 / 3), 1 / 3 + (1 - pull) * (b1 - 1 / 3))
            assert pair.feasible
            prep = solve_prep(pair)
            s0 = mpmath.mpf(min(max(pair.s0, 0.0), 1.0))
            s1 = mpmath.mpf(min(max(pair.s1, 0.0), 1.0))
            assert abs(prep.theta2 - reference(s1, s0 + s1, 1 - s0)) <= 1e-7
            assert abs(prep.theta4 - reference(s0, s0 + s1, 1 - s1)) <= 1e-7

    def test_boundary_endpoints(self):
        s0, s1 = _boundary_point(-np.pi / 3)
        assert s0 == pytest.approx(1.0, abs=1e-12)
        assert s1 == pytest.approx(0.0, abs=1e-12)
        s0, s1 = _boundary_point(np.pi / 3)
        assert s0 == pytest.approx(0.0, abs=1e-12)
        assert s1 == pytest.approx(1.0, abs=1e-12)


def test_solver_roundtrip_on_random_feasible_pairs():
    rng = np.random.default_rng(28)
    for _ in range(60):
        pair = _sample_feasible(rng)
        prep = solve_prep(pair)
        out = run_cloner(random_state(("a0",), rng), prep)
        assert out.s_est[0] == pytest.approx(pair.s0, abs=1e-8)
        assert out.s_est[1] == pytest.approx(pair.s1, abs=1e-8)
        assert verify_scaling(out, 1e-8) is True


# margin 0.0 on the ellipse next to (0, 1), where the phase cosine rounds to
# 1.0000019855 and must be clamped
CORNER = (2.467399070893439e-06, 0.999999999993912)


def test_degenerate_corner_pairs_solve_cleanly():
    for s0, s1 in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (2 / 3, 2 / 3), CORNER, CORNER[::-1]):
        prep = solve_prep(feasibility(s0, s1))
        for probe in PROBES:
            out = run_cloner(probe, prep)
            assert (out.residual < 1e-8).all()


def test_cloning_network_requires_the_three_labels():
    with pytest.raises(ValueError, match="unknown qubit label"):
        cloning_network(random_state(("a0", "a1", "x"), np.random.default_rng(2)))


def test_scaling_pair_is_a_plain_record():
    pair = ScalingPair(s0=0.1, s1=0.2, feasible=True, margin=-0.25)
    assert pair.reason is None


# The paper's optimality claim: no preparation of (a1, b1) beats the ellipse.
# Twirling a cloner (U on its input, U x U on its clones) leaves a universal
# cloner whose shrinks are the axis averages s = tr(T)/3 of each clone's
# transfer matrix T. A probe on +e_k reads T_kk plus the clone's shift along
# e_k as its s_est, the probe on -e_k reads T_kk minus it, so s is the mean
# of the six probes' s_est.
def _axis_averaged_shrinks(preps):
    """(s0, s1) of the twirled cloner of each (..., 4) preparation."""
    return clone_batch(PROBE_AMPLITUDES, preps[..., None, :]).s_est.mean(axis=-2)


def _ellipse_margins(preps):
    """The margin of each preparation whose two averaged shrinks are >= 0, after the two bounds are checked."""
    s = _axis_averaged_shrinks(preps)
    # complete positivity of a universal qubit channel: the universal-NOT bound
    assert (s >= -1 / 3 - ROUNDOFF_TOL).all(), s.min()
    margin, _, _ = cloner.feasibility_rule(s[..., 0], s[..., 1])
    margin = margin[(s >= 0).all(axis=-1)]
    assert (margin <= ROUNDOFF_TOL).all(), margin.max()
    return margin


def test_no_preparation_beats_the_ellipse():
    rng = np.random.default_rng(18)
    normals = rng.standard_normal((20000, 8))
    # a fifth of the amplitudes zeroed, so the faces of the sphere (the
    # solved family's |10> = 0 among them) are drawn too
    zero = np.tile(rng.random((20000, 4)) < 0.2, 2)
    normals[zero] = 0.0
    normals[(normals == 0.0).all(axis=-1), 0] = 1.0
    margin = _ellipse_margins(random_rows(normals))
    # inside by a clear gap: the solved family alone reaches the ellipse
    assert margin.size > 3000 and margin.max() < -1e-3


def test_no_preparation_beats_the_ellipse_on_drawn_amplitudes():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    part = st.floats(-1.0, 1.0)

    @hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.tuples(*[part] * 8))
    def check(parts):
        amps = np.array(parts[:4]) + 1j * np.array(parts[4:])
        norm = np.linalg.norm(amps)
        hypothesis.assume(norm > 1e-3)
        _ellipse_margins(amps / norm)

    check()


def test_solved_preparations_clone_isotropically_at_their_targets():
    def errors(pairs):
        _, preps = cloner.solve_rows(pairs[:, 0], pairs[:, 1])
        batch = clone_batch(PROBE_AMPLITUDES, preps[:, None])
        shrink = np.abs(batch.s_est - pairs[:, None, :]).max()
        return max(batch.isotropy.max(), shrink, np.abs(_axis_averaged_shrinks(preps) - pairs).max())

    rng = np.random.default_rng(19)
    pairs = rng.uniform(0.0, 1.0, (4000, 2))
    _, in_range, over = cloner.feasibility_rule(pairs[:, 0], pairs[:, 1])
    assert errors(pairs[in_range & ~over]) <= ROUNDOFF_TOL
    # CORNER's phase cosine is clamped from 1.0000019855 to 1, which moves its shrinks by 4.9e-12
    corners = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (2 / 3, 2 / 3), CORNER, CORNER[::-1]]
    assert errors(np.array(corners)) <= ESTIMATE_TOL
