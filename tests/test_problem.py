"""Problem-file parsing: round trips, defaults, and error reporting."""
import pytest

import qbhkit as qk
from qbhkit.problem import parse_problem


EXP_TEXT = """
[space]
coordinates = x y z

[field X1]
x = exp(z)
y = 1

[field X2]
y = 1

[function H]
expr = y

[domain]
box = x:-1:1 y:-1:1 z:0.1:1
samples = 50
seed = 7

[tolerances]
residual = 1e-10
"""


def test_parse_basic_problem():
    spec = parse_problem(EXP_TEXT)
    assert spec.chart.names == ("x", "y", "z")
    assert set(spec.fields) == {"X1", "X2"}
    assert set(spec.functions) == {"H"}
    assert spec.domain.samples == 50
    assert spec.domain.seed == 7
    assert spec.domain.box[2] == (0.1, 1.0)
    assert spec.tolerances.residual == 1e-10
    # unmentioned tolerances keep their defaults
    assert spec.tolerances.fd == 1e-5


def test_missing_components_default_to_zero():
    spec = parse_problem(EXP_TEXT)
    x2 = spec.fields["X2"]
    assert x2.components[0].is_zero()
    assert x2.components[2].is_zero()
    assert not x2.components[1].is_zero()


def test_shipped_fixture_round_trip():
    spec = qk.load_fixture("exp-realization")
    assert set(spec.fields) == {"X1", "X2", "X3"}
    assert {"H", "F", "F2"} <= set(spec.functions)
    assert spec.domain.samples == 200
    assert spec.domain.seed == 42


def test_duplicate_coordinate_error_carries_line():
    text = "[space]\ncoordinates = x x\n"
    with pytest.raises(qk.ProblemFormatError) as err:
        parse_problem(text)
    assert err.value.line == 2
    assert "duplicate" in str(err.value)


def test_unknown_section():
    with pytest.raises(qk.ProblemFormatError) as err:
        parse_problem("[space]\ncoordinates = x\n[bogus]\nkey = 1\n")
    assert err.value.line == 3


def test_unknown_key_in_space():
    with pytest.raises(qk.ProblemFormatError):
        parse_problem("[space]\ncoordinates = x\nwhat = 1\n")


def test_unknown_component_name():
    text = "[space]\ncoordinates = x y\n[field A]\nw = 1\n"
    with pytest.raises(qk.ProblemFormatError) as err:
        parse_problem(text)
    assert err.value.line == 4


def test_entry_before_section():
    with pytest.raises(qk.ProblemFormatError) as err:
        parse_problem("coordinates = x\n")
    assert err.value.line == 1


def test_missing_equals_sign():
    with pytest.raises(qk.ProblemFormatError):
        parse_problem("[space]\ncoordinates x\n")


def test_bad_expression_reports_line():
    text = "[space]\ncoordinates = x\n[function F]\nexpr = x +\n"
    with pytest.raises(qk.ProblemFormatError) as err:
        parse_problem(text)
    assert err.value.line == 4


def test_unknown_identifier_in_expression():
    text = "[space]\ncoordinates = x1 x2 x3\n[function F]\nexpr = atan(x2/x1)+C\n"
    with pytest.raises(qk.ProblemFormatError) as err:
        parse_problem(text)
    assert "C" in str(err.value)


def test_function_requires_expr():
    with pytest.raises(qk.ProblemFormatError):
        parse_problem("[space]\ncoordinates = x\n[function F]\n")


def test_duplicate_field_section():
    text = "[space]\ncoordinates = x\n[field A]\nx = 1\n[field A]\nx = 2\n"
    with pytest.raises(qk.ProblemFormatError):
        parse_problem(text)


def test_bad_box_syntax():
    with pytest.raises(qk.ProblemFormatError):
        parse_problem("[space]\ncoordinates = x\n[domain]\nbox = x:0\n")


@pytest.mark.parametrize(
    "old, new, line, message",
    [
        ("residual = 1e-10", "residual = 1e-10\nfd = -1", 22, "fd must be positive"),
        ("residual = 1e-10", "residual = nan", 21, "residual must be finite"),
        (
            "residual = 1e-10",
            "max_skip_fraction = 2\nresidual = 1e-10",
            21,
            "max_skip_fraction must lie in [0, 1]",
        ),
        ("samples = 50", "samples = 0", 17, "samples must be >= 1"),
        ("samples = 50", "samples = 333334", 17, "must be at most 1000000"),
        ("seed = 7", "seed = -1", 18, "seed must fit in 64 unsigned bits"),
        ("z:0.1:1", "z:1:0.1", 16, "empty interval [1.0, 0.1]"),
        (
            "box = x:-1:1 y:-1:1 z:0.1:1",
            "box = x:-1:1 y:-inf:1\nbox = z:0.1:1",
            16,
            "not of finite width",
        ),
    ],
)
def test_invalid_domain_or_tolerance_is_reported_at_its_entry(old, new, line, message):
    with pytest.raises(qk.ProblemFormatError) as err:
        parse_problem(EXP_TEXT.replace(old, new))
    assert err.value.line == line
    assert message in str(err.value)


def test_box_defaults_to_unit_interval():
    spec = parse_problem("[space]\ncoordinates = x y\n[domain]\nbox = x:0:2\n")
    assert spec.domain.box == ((0.0, 2.0), (-1.0, 1.0))


def test_guard_inherits_guard_eps():
    text = (
        "[space]\ncoordinates = x\n"
        "[domain]\nguard = x\n"
        "[tolerances]\nguard_eps = 1e-3\n"
    )
    spec = parse_problem(text)
    assert spec.domain.guards[0].min_abs == 1e-3


def test_comments_and_blank_lines_ignored():
    text = "# header\n\n[space]  # trailing\ncoordinates = x  # names\n"
    spec = parse_problem(text)
    assert spec.chart.names == ("x",)


def test_digest_stable_and_content_sensitive():
    a = parse_problem(EXP_TEXT)
    b = parse_problem(EXP_TEXT)
    assert a.digest() == b.digest()
    c = parse_problem(EXP_TEXT.replace("expr = y", "expr = y + 0.5"))
    assert c.digest() != a.digest()


def test_config_overrides():
    spec = parse_problem(EXP_TEXT)
    cfg = spec.config(samples=10, seed=99, residual=1e-6)
    assert cfg.domain.samples == 10
    assert cfg.domain.seed == 99
    assert cfg.tol.residual == 1e-6
    # the original spec is untouched
    assert spec.domain.samples == 50
