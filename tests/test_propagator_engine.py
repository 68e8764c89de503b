"""Attachment/swapper pulses against the kron + scipy.expm oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsakit.dense_oracle import verify_schedule
from qsakit.pauli_core import PauliString, WeightedPauliSum
from qsakit.propagator_engine import (
    MAX_BRANCH,
    AttachmentSpec,
    CollapseError,
    PulseSpecError,
    SwapperSpec,
    apply_swap,
    branch_conjugate,
    conjugate,
    conjugate_string,
    make_attachment,
    make_swapper,
)
from qsakit.schedule_compiler import (
    ConnectivityGraph,
    QsaSchedule,
    compile_schedule,
    validate,
)

from conftest import kron_expm, kron_string, kron_sum

SEED = 20240812


def random_phase_free(rng, n_sites):
    letters = tuple(rng.choice(["I", "X", "Y", "Z"]) for _ in range(n_sites))
    return PauliString(n_sites, letters)


def test_attachment_generator_matrix():
    spec = AttachmentSpec(connector_site=0, alpha="Z", beta="X", attached_site=1)
    h = spec.generator(2)
    want = (kron_string(PauliString.parse("ZI")) +
            kron_string(PauliString.parse("XX"))) / math.sqrt(2.0)
    assert np.allclose(kron_sum(h), want, atol=1e-12)


def test_swapper_generator_matrix():
    spec = SwapperSpec(site=1, alpha="X", beta="Z")
    h = spec.generator(3)
    want = (kron_string(PauliString.parse("IXI")) +
            kron_string(PauliString.parse("IZI"))) / math.sqrt(2.0)
    assert np.allclose(kron_sum(h), want, atol=1e-12)


def test_default_branch_angles():
    spec = AttachmentSpec(connector_site=0, alpha="Z", beta="X", attached_site=1)
    assert spec.forward_angle == pytest.approx(-math.pi / 2.0)
    assert spec.inverse_angle == pytest.approx(math.pi / 2.0)
    other = AttachmentSpec(
        connector_site=0, alpha="Z", beta="X", attached_site=1,
        branch_m=0, branch_mp=1,
    )
    assert other.forward_angle == pytest.approx(1.5 * math.pi)
    assert other.inverse_angle == pytest.approx(0.5 * math.pi + 2.0 * math.pi)


def test_forward_inverse_pulses_are_mutually_adjoint():
    spec = AttachmentSpec(connector_site=0, alpha="Z", beta="X", attached_site=1)
    h = kron_sum(spec.generator(2))
    fwd = kron_expm(h, spec.forward_angle)
    inv = kron_expm(h, spec.inverse_angle)
    assert np.allclose(fwd @ inv, np.eye(4), atol=1e-12)


def test_spec_validation():
    with pytest.raises(PulseSpecError):
        AttachmentSpec(connector_site=1, alpha="Z", beta="X", attached_site=1)
    with pytest.raises(PulseSpecError):
        AttachmentSpec(connector_site=0, alpha="Z", beta="Z", attached_site=1)
    with pytest.raises(PulseSpecError):
        AttachmentSpec(connector_site=0, alpha="Q", beta="X", attached_site=1)
    with pytest.raises(PulseSpecError):
        AttachmentSpec(
            connector_site=0, alpha="Z", beta="X", attached_site=1,
            attached_letter="I",
        )
    with pytest.raises(PulseSpecError):
        SwapperSpec(site=0, alpha="Y", beta="Y")


def test_pulse_makers_give_the_forward_pulse():
    attach = AttachmentSpec(connector_site=0, alpha="Z", beta="X", attached_site=1)
    swap = SwapperSpec(site=0, alpha="X", beta="Z")
    assert make_attachment(attach, 3) == (attach.generator(3), attach.forward_angle)
    assert make_swapper(swap, 2) == (swap.generator(2), swap.forward_angle)


def test_spec_dict_round_trip():
    a = AttachmentSpec(
        connector_site=2, alpha="X", beta="Y", attached_site=0,
        attached_letter="Z", branch_m=0, branch_mp=-1,
    )
    assert AttachmentSpec.from_dict(a.to_dict()) == a
    s = SwapperSpec(site=3, alpha="X", beta="Z")
    assert SwapperSpec.from_dict(s.to_dict()) == s


def test_conjugate_matches_sandwich_oracle():
    rng = np.random.default_rng(SEED)
    for _ in range(80):
        n = int(rng.integers(2, 5))
        sites = rng.choice(n, size=2, replace=False)
        alpha, beta = rng.choice(["X", "Y", "Z"], size=2, replace=False)
        if rng.integers(0, 2):
            spec = AttachmentSpec(
                connector_site=int(sites[0]),
                alpha=str(alpha),
                beta=str(beta),
                attached_site=int(sites[1]),
                attached_letter=str(rng.choice(["X", "Y", "Z"])),
            )
            make = make_attachment
        else:
            spec = SwapperSpec(site=int(sites[0]), alpha=str(alpha), beta=str(beta))
            make = make_swapper
        if rng.integers(0, 2):
            pulse = make(spec, n)
        else:
            pulse = (spec.generator(n), spec.inverse_angle)
        q = random_phase_free(rng, n)
        got = kron_sum(conjugate(q, pulse))
        generator, angle = pulse
        u = kron_expm(kron_sum(generator), angle)
        want = u @ kron_string(q) @ u.conj().T
        assert np.allclose(got, want, atol=1e-10)


def test_collapse_at_quarter_turns():
    n = 2
    spec = AttachmentSpec(connector_site=0, alpha="Z", beta="X", attached_site=1)
    generator, angle = make_attachment(spec, n)
    grown = conjugate_string(PauliString.parse("ZI"), (generator, angle))
    assert grown.phase_exp == 0
    u = kron_expm(kron_sum(generator), angle)
    want = u @ kron_string(PauliString.parse("ZI")) @ u.conj().T
    assert np.allclose(kron_string(grown), want, atol=1e-12)


def test_collapse_rejects_partial_rotation():
    spec = AttachmentSpec(connector_site=0, alpha="Z", beta="X", attached_site=1)
    generator, angle = make_attachment(spec, 2)
    with pytest.raises(CollapseError, match="did not collapse to one string"):
        conjugate_string(PauliString.parse("ZI"), (generator, angle / 2.0))


def test_conjugate_string_letter_rules():
    n = 2
    spec = AttachmentSpec(connector_site=0, alpha="Z", beta="X", attached_site=1)
    fwd = make_attachment(spec, n)
    # alpha at the connector swaps to beta and drags the attached letter in.
    assert conjugate_string(PauliString.parse("ZI"), fwd).letters == ("X", "X")
    # beta swaps back to alpha, also dragging the attached letter.
    assert conjugate_string(PauliString.parse("XI"), fwd).letters == ("Z", "X")


def test_conjugate_fixes_strings_off_the_pulse():
    spec = AttachmentSpec(connector_site=0, alpha="Z", beta="X", attached_site=1)
    fwd = make_attachment(spec, 3)
    assert conjugate_string(PauliString.parse("IIZ"), fwd).format() == "IIZ"


def test_conjugate_third_letter_flips_sign():
    spec = AttachmentSpec(connector_site=0, alpha="Z", beta="X", attached_site=1)
    fwd = make_attachment(spec, 2)
    total = conjugate(PauliString.parse("YI"), fwd)
    ((coeff, string),) = total.terms
    assert string == PauliString.parse("YI")
    assert coeff == pytest.approx(-1.0, abs=1e-12)


def test_apply_swap_rules():
    spec = SwapperSpec(site=0, alpha="X", beta="Z")
    assert apply_swap(PauliString.parse("XY"), spec).format() == "ZY"
    assert apply_swap(PauliString.parse("ZY"), spec).format() == "XY"
    assert apply_swap(PauliString.parse("YY"), spec).format() == "-YY"
    assert apply_swap(PauliString.parse("IY"), spec).format() == "IY"


def test_apply_swap_matches_dense_conjugation():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        alpha, beta = rng.choice(["X", "Y", "Z"], size=2, replace=False)
        spec = SwapperSpec(
            site=int(rng.integers(0, n)), alpha=str(alpha), beta=str(beta)
        )
        generator, angle = make_swapper(spec, n)
        q = random_phase_free(rng, n)
        u = kron_expm(kron_sum(generator), angle)
        want = u @ kron_string(q) @ u.conj().T
        assert np.allclose(kron_string(apply_swap(q, spec)), want, atol=1e-10)


# -- the exact branch-angle rule against the float conjugation and kron -------

BRANCHES = st.integers(-MAX_BRANCH, MAX_BRANCH)
LETTER = st.sampled_from("XYZ")


@st.composite
def branch_cases(draw):
    """(spec, pulse, string): a random spec's ``(generator, angle)`` at random
    branch integers, at its forward or inverse angle, and a string on its
    register."""
    n = draw(st.integers(1, 6))
    alpha, beta = draw(st.lists(LETTER, min_size=2, max_size=2, unique=True))
    branches = {"branch_m": draw(BRANCHES), "branch_mp": draw(BRANCHES)}
    forward = draw(st.booleans())
    if n > 1 and draw(st.booleans()):
        c, a = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        spec = AttachmentSpec(c, alpha, beta, a, draw(LETTER), **branches)
        make = make_attachment
    else:
        spec = SwapperSpec(draw(st.integers(0, n - 1)), alpha, beta, **branches)
        make = make_swapper
    pulse = make(spec, n) if forward else (spec.generator(n), spec.inverse_angle)
    letters = draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n))
    return spec, pulse, PauliString(n, letters, draw(st.sampled_from([0, 2])))


@settings(max_examples=300, deadline=None)
@given(branch_cases())
def test_branch_rule_matches_float_conjugation_and_kron(case):
    spec, pulse, q = case
    got = branch_conjugate(q, *spec.pair(q.n_sites))
    assert got.phase_exp in (0, 2)
    # the float identity gives one string with coefficient +-1, the rule's sign
    ((coeff, string),) = conjugate(q, pulse).terms
    assert string == got.with_phase_exp(0)
    assert coeff == pytest.approx(got.phase.real, abs=1e-10)
    if got.phase_exp == 0:
        assert conjugate_string(q, pulse) == got
    else:
        with pytest.raises(CollapseError, match="differs from \\+1"):
            conjugate_string(q, pulse)
    generator, angle = pulse
    u = kron_expm(kron_sum(generator), angle)
    want = u @ kron_string(q) @ u.conj().T
    assert np.abs(kron_string(got) - want).max() <= 1e-9


@settings(max_examples=50, deadline=None)
@given(branch_cases(), st.sampled_from([1, 3]))
def test_branch_rule_refuses_imaginary_phases_like_conjugate(case, phase_exp):
    spec, pulse, q = case
    q = q.with_phase_exp(phase_exp)
    with pytest.raises(ValueError) as float_error:
        conjugate(q, pulse)
    with pytest.raises(ValueError) as rule_error:
        branch_conjugate(q, *spec.pair(q.n_sites))
    assert str(rule_error.value) == str(float_error.value)


def test_conjugate_refuses_a_non_involution_pulse():
    # (ZI + XI)**2 = 2 + {Z, X} = 2, not the identity
    generator = WeightedPauliSum.from_terms(
        2, [(1.0, PauliString.parse("ZI")), (1.0, PauliString.parse("XI"))]
    )
    with pytest.raises(PulseSpecError, match="^generator does not square to the identity: "):
        conjugate(PauliString.parse("ZZ"), (generator, -math.pi / 2.0))
    with pytest.raises(PulseSpecError, match="^generator does not square to the identity: "):
        conjugate_string(PauliString.parse("ZZ"), (generator, -math.pi / 2.0))


def test_branch_rule_refuses_a_commuting_pair():
    with pytest.raises(PulseSpecError, match="anticommuting"):
        branch_conjugate(PauliString.parse("ZI"), PauliString.parse("XX"), PauliString.parse("ZZ"))


@pytest.mark.parametrize("imaginary", ["a", "b"])
def test_branch_rule_refuses_one_imaginary_phase(imaginary):
    # X and Z anticommute, but iX is not Hermitian: (iX + Z)/sqrt(2) is no involution
    pair = {"a": PauliString.parse("X"), "b": PauliString.parse("Z")}
    pair[imaginary] = pair[imaginary].with_phase_exp(1)
    with pytest.raises(PulseSpecError, match="not an anticommuting Hermitian pair"):
        branch_conjugate(PauliString.parse("Y"), pair["a"], pair["b"])


# -- the branch-integer bound ---------------------------------------------------


@pytest.mark.parametrize("field", ["branch_m", "branch_mp"])
@pytest.mark.parametrize("value", [MAX_BRANCH + 1, -MAX_BRANCH - 1])
def test_branch_integers_beyond_the_bound_are_refused(field, value):
    with pytest.raises(PulseSpecError, match=f"{field} must lie in"):
        AttachmentSpec(connector_site=0, alpha="Z", beta="X", attached_site=1, **{field: value})
    with pytest.raises(PulseSpecError, match=f"{field} must lie in"):
        SwapperSpec(site=0, alpha="X", beta="Z", **{field: value})


@pytest.mark.parametrize("branch", [MAX_BRANCH, -MAX_BRANCH])
def test_schedules_at_the_branch_bound_validate_and_verify(branch):
    schedule = compile_schedule(PauliString.parse("XYZZYX"), ConnectivityGraph.complete(6))
    data = schedule.to_dict()
    for spec in [s for layer in data["layers"] for s in layer] + data["final_swappers"]:
        spec["branch_m"] = spec["branch_mp"] = branch
    assert data["final_swappers"]
    at_bound = QsaSchedule.from_dict(data)
    assert validate(at_bound) == []
    assert verify_schedule(at_bound)["passed"]
