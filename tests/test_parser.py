"""qbhkit.parser against the parser it replaced (tests/reference_parser.py):
the same node or the same error for every input."""
import random
from pathlib import Path

import pytest

import qbhkit as qk
from qbhkit.expr import Const
from qbhkit.parser import parse_expression
from qbhkit.problem import _split_sections

import reference_parser
from helpers import DEEP_EXPRESSIONS, perfbench_module
from test_expr import CHART, CORPUS

SHIPPED = sorted((Path(qk.__file__).parent / "problems").glob("*.prob"))
GENERATED_SEED = 777
GENERATED_COUNT = 1000
FUZZ_COUNT = 20_000

# pieces of fuzzed text: the grammar's characters, numbers, coordinates,
# function names, unknown names, whitespace that str.isspace() accepts,
# and characters of two UTF-8 bytes, so that byte offsets differ from
# character offsets: an unexpected one, a no-break space and an
# Arabic-Indic digit, which both parsers take for a space and a digit
FUZZ_PIECES = (
    list("0123456789.eE+-*/^(), xyz")
    + ["1e999", "2", ".5", "3.", "x", "y", "(", ")"]
    + ["sin", "atan2", "exp", "sqrt", "ln", "q", "foo", "sinx"]
    + ["\t", "\n", "\x1c", "é", "\xa0", "\u0663"]
)


def problem_expressions(text):
    """(expression text, chart) for every field component, function
    and guard of a problem file."""
    sections = _split_sections(text)
    (space,) = [s for s in sections if s.kind == "space"]
    chart = qk.CoordinateChart(tuple(space.entries[0][2].split()))
    return [
        (value, chart)
        for section in sections
        for _, key, value in section.entries
        if section.kind in ("field", "function") or key == "guard"
    ]


def shipped_inputs():
    inputs = []
    for path in SHIPPED:
        inputs += problem_expressions(path.read_text(encoding="utf-8"))
    return inputs


def corpus_inputs():
    edges = ["(" * n + "y" + ")" * n for n in (100, 101)]
    edges += ["-" * n + "x" for n in (100, 101)] + ["x" + "/2" * n for n in (100, 101)]
    edges += ["x^" * n + "x" for n in (100, 101)]
    return [(text, CHART) for text in [*CORPUS, *DEEP_EXPRESSIONS.values(), *edges]]


def generated_inputs():
    generate = perfbench_module("generate")
    inputs = []
    for index in range(GENERATED_COUNT):
        inputs += problem_expressions(generate.problem_text(GENERATED_SEED, index))
    return inputs


def fuzz_inputs():
    """Half short strings of random pieces, half corpus expressions with
    one slice replaced by a random piece, so that some errors come deep
    inside otherwise well-formed text."""
    rng = random.Random(5)
    inputs = []
    for _ in range(FUZZ_COUNT // 2):
        pieces = rng.choices(FUZZ_PIECES, k=rng.randint(0, 12))
        inputs.append("".join(pieces))
        text = rng.choice(CORPUS)
        start = rng.randrange(len(text) + 1)
        end = start + rng.randrange(3)
        inputs.append(text[:start] + rng.choice(FUZZ_PIECES) + text[end:])
    return [(text, CHART) for text in inputs]


def outcome(parse, text, chart):
    """The node ``parse`` returns, or its error's class, message and
    offset."""
    try:
        return parse(text, chart).node
    except qk.ExprSyntaxError as exc:
        return type(exc), str(exc), exc.offset


def same(a, b):
    if isinstance(a, tuple):
        return a == b
    if isinstance(a, Const):  # constants are not interned
        return type(a) is type(b) and repr(a) == repr(b)
    return a is b


@pytest.mark.parametrize(
    "inputs", [corpus_inputs, shipped_inputs, generated_inputs, fuzz_inputs]
)
def test_every_parse_is_the_reference_parse(inputs):
    mismatches = []
    errors = 0
    for text, chart in inputs():
        # the reference's node stays alive, so an interned node is the same
        want = outcome(reference_parser.parse_expression, text, chart)
        got = outcome(parse_expression, text, chart)
        errors += isinstance(want, tuple)
        if not same(want, got):
            mismatches.append((text, want, got))
    assert not mismatches, (len(mismatches), mismatches[:5])
    # every source but the problem files has inputs of both outcomes
    if inputs in (corpus_inputs, fuzz_inputs):
        assert errors
