"""The --json writer (cli._write_json) against its oracle, the standard
library's json.dumps(payload, sort_keys=True, indent=1) as print writes it:
byte for byte on every golden case, on every benchmark command at two seeds,
and on generated payloads, where a payload the oracle refuses must raise the
same exception class."""

import contextlib
import enum
import importlib.util
import io
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superfs import cli
from test_golden import CASES

ROOT = Path(__file__).resolve().parents[1]


def oracle(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def written(payload) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_json(payload)
    return out.getvalue()


def outcome(encode, payload):
    """The text `encode` gives, or the class of the exception it raises."""
    try:
        return encode(payload)
    except Exception as exc:   # compared by class with the oracle's
        return type(exc)


@pytest.fixture
def payloads(monkeypatch) -> list:
    """A list that gains every payload main writes as --json."""
    seen = []
    write = cli._write_json
    monkeypatch.setattr(cli, "_write_json", lambda payload: seen.append(payload) or write(payload))
    return seen


def run_json(argv: list, payloads: list, capsys) -> tuple:
    """(exit code, stdout, the oracle's text of the one payload written)."""
    del payloads[:]
    code = cli.main([*argv, "--json"])
    out = capsys.readouterr().out
    assert len(payloads) == 1
    return code, out, oracle(payloads[0])


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case_text_is_the_oracles(name, payloads, capsys):
    code, out, want = run_json(CASES[name], payloads, capsys)
    assert code == 0 and out == want


def _workloads(monkeypatch):
    """bench/workloads.py, loaded as a module (it uses only the standard
    library; its dataclasses look their module up in sys.modules)."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("workload", ["catalog-sweep", "large-algebras", "surface-crosschecks"])
def test_benchmark_command_text_is_the_oracles(workload, seed, tmp_path, monkeypatch,
                                               payloads, capsys):
    monkeypatch.chdir(tmp_path)   # the commands name their inputs relative to it
    commands = _workloads(monkeypatch).build(workload, seed, tmp_path, tmp_path / "inputs")
    assert commands
    for command in commands:
        code, out, want = run_json(command.argv[:-1], payloads, capsys)   # argv ends in --json
        assert code == 0 and out == want, command.name


def test_text_is_written_in_bounded_chunks(monkeypatch, payloads):
    # 1024 pin- reports, about 650 KB: several writes, none much above a chunk
    writes = []
    monkeypatch.setattr(sys, "stdout", type("Sink", (), {"write": writes.append})())
    code = cli.main(["partition", "--group", "z2", "--phi", "id", "--family", "pin-",
                     "--surface", "nonorientable:10", "--json"])
    assert code == 0 and "".join(writes) == oracle(payloads[0])
    assert len(writes) > 4 and max(map(len, writes)) < cli._CHUNK + 4096


def test_shared_lists_are_written_at_each_depth():
    terms = [{"value": [0.5, -0.0]}, {"value": [math.nan, math.inf]}]
    payload = {"a": terms, "b": [terms, {"c": terms}], "d": [terms, terms]}
    assert written(payload) == oracle(payload)


def test_subclasses_are_written_as_their_base_types():
    class Text(str):
        pass

    class Real(float):
        pass

    payload = {"bools": [True, 1, 2.5], "enum": enum.IntEnum("E", "A B").B,
               "text": Text("é"), "real": [Real(0.5)], Text("key"): Real(math.inf)}
    assert written(payload) == oracle(payload)


@pytest.mark.parametrize("payload", [
    {"k": {1, 2}},                # a set
    {(1, 2): 0},                  # a tuple key
    {"a": 1, 2: 3},               # keys that do not sort
    [10 ** 5000],                 # past the int-to-string digit limit
    {"x": [1, 2, 10 ** 5000]},
    b"bytes",
])
def test_refused_payloads_raise_as_the_oracle_does(payload):
    assert outcome(written, payload) is outcome(oracle, payload)
    assert isinstance(outcome(oracle, payload), type)


KEYS = st.one_of(st.text(max_size=6), st.integers(), st.floats(), st.booleans(), st.none())
LEAVES = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=2 ** 63, max_value=2 ** 70),
    st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e16, 5e-324]),
    st.text(), st.text(st.characters(max_codepoint=0x1f), max_size=4),
    st.text(st.characters(min_codepoint=0x80), max_size=4),
)


def _containers(children):
    return st.one_of(st.lists(children, max_size=5),
                     st.lists(children, max_size=5).map(tuple),
                     st.lists(st.one_of(st.integers(), st.floats()), max_size=5),
                     st.dictionaries(st.text(max_size=6), children, max_size=5),
                     st.dictionaries(KEYS, children, max_size=3))


TREES = st.recursive(LEAVES, _containers, max_leaves=25)


@settings(max_examples=400, deadline=None)
@given(TREES, TREES, st.booleans())
def test_generated_payloads_match_the_oracle(tree, shared, nested):
    # `shared` appears at depths 1, 2 and 3, and twice at depth 2
    payload = {"tree": tree, "shared": shared, "again": [shared, {"s": shared}, shared]}
    if nested:
        payload = [payload, payload]
    assert outcome(written, payload) == outcome(oracle, payload)
