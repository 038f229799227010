"""Every dimension guard at its advertised maximum.

At the cap the call gets past the guard; one dimension above it the call
raises ``LimitError`` (the CLI exits 3) with the exact message.
"""

import pytest

from pinforms import (
    Enhancement,
    LimitError,
    enumerate_pinplus,
    hyperbolic_form,
    identity_form,
    isometry_generators,
    isometry_group,
    mulclose,
    nonorientable_surface,
    value_histograms,
)
from pinforms.cli import main
from pinforms.orbits import orbit_labels


def _values(value, n):
    return ",".join([value] * n)


CLI_GUARDS = {
    "census": (
        ("census", "-s", "N:20", "-t", "pin-"),
        ("census", "-s", "N:21", "-t", "pin-"),
        "census enumeration capped at dimension 20, got 21",
    ),
    "census-spin": (
        ("census", "-s", "S:10", "-t", "spin"),
        ("census", "-s", "S:11", "-t", "spin"),
        "census enumeration capped at dimension 20, got 22",
    ),
    "orbits": (
        ("orbits", "-s", "N:20", "-t", "pin-"),
        ("orbits", "-s", "N:21", "-t", "pin-"),
        "orbit computation capped at dimension 20, got 21",
    ),
    "invariant": (
        ("invariant", "-s", "N:256", "-e", _values("1", 256)),
        ("invariant", "-s", "N:257", "-e", _values("1", 257)),
        "normal-form reduction capped at dimension 256, got 257",
    ),
    "invariant-spin": (
        ("invariant", "-s", "S:128", "-q", _values("0", 256)),
        ("invariant", "-s", "S:129", "-q", _values("0", 258)),
        "normal-form reduction capped at dimension 256, got 258",
    ),
}


@pytest.mark.parametrize("at_cap,over_cap,message", CLI_GUARDS.values(), ids=list(CLI_GUARDS))
def test_cli_guard_at_its_maximum(capsys, at_cap, over_cap, message):
    assert main(list(at_cap)) == 0
    assert capsys.readouterr().err == ""
    assert main(list(over_cap)) == 3
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {message}\n")


LIBRARY_GUARDS = {
    "orbit_labels": (
        # no generators: every code is its own orbit, so only the guard costs
        lambda: orbit_labels(identity_form(20), Enhancement, []).size == 1 << 20,
        lambda: orbit_labels(identity_form(21), Enhancement, []),
        "orbit labels capped at dimension 20, got 21",
    ),
    "value_table": (
        lambda: Enhancement.value_table(identity_form(20), [(1,) * 20]).shape == (1, 1 << 20),
        lambda: Enhancement.value_table(identity_form(21), [(1,) * 21]),
        "dense class tables capped at dimension 20, got 21",
    ),
    "value_histograms": (
        lambda: value_histograms(identity_form(20), [(1,) * 20]).sum() == 1 << 20,
        lambda: value_histograms(identity_form(21), [(1,) * 21]),
        "dense class tables capped at dimension 20, got 21",
    ),
    "brute group": (
        lambda: len(isometry_group(identity_form(4), "brute")) == 48,
        lambda: isometry_group(identity_form(5), "brute"),
        "brute-force groups capped at dimension 4, got 5",
    ),
    "generated group": (
        lambda: len(isometry_group(identity_form(4), "generated")) == 48,
        lambda: isometry_group(identity_form(5), "generated"),
        "generated groups capped at dimension 4, got 5",
    ),
    "generated group, orientable": (
        lambda: len(isometry_group(hyperbolic_form(2), "generated")) == 720,
        lambda: isometry_group(hyperbolic_form(3), "generated"),
        "generated groups capped at dimension 4, got 6",
    ),
    "group closure": (
        lambda: len(mulclose(isometry_generators(identity_form(5)))) == 720,
        lambda: mulclose(isometry_generators(identity_form(6))),
        "group closure capped at dimension 5, got 6",
    ),
}


@pytest.mark.parametrize("at_cap,over_cap,message", LIBRARY_GUARDS.values(), ids=list(LIBRARY_GUARDS))
def test_library_guard_at_its_maximum(at_cap, over_cap, message):
    assert at_cap()
    with pytest.raises(LimitError) as raised:
        over_cap()
    assert str(raised.value) == message


def test_pinplus_guard_above_its_maximum():
    # Only the over-cap half: at N:20 the call builds all 2^20 PinPlusForm
    # objects (about 3.5 s and 370 MB), too slow for the test suite.
    with pytest.raises(LimitError) as raised:
        enumerate_pinplus(nonorientable_surface(21))
    assert str(raised.value) == "structure enumeration capped at dimension 20, got 21"
