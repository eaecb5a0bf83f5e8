"""Command-line contract tests: exit codes (0 pass / 1 check failure /
2 bad input), exact rational rendering, trace files, CSV determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricmld import cli, proof
from toricmld.cli import load_instance, main
from toricmld.errors import CheckFailed, InvalidParameters, NoInteriorPoint

THIRD_DOC = {
    "dim": 2,
    "rays": [[0, 1], [3, -1]],
    "coefficients": [{"type": "standard", "l": 1}, {"type": "standard", "l": 1}],
}

SMOOTH_DOC = {
    "dim": 2,
    "rays": [[1, 0], [0, 1]],
    "coefficients": [{"type": "standard", "l": 1}, {"type": "standard", "l": 1}],
}

# b = 1 on (3, 2) and l = 10^30 on (3, 2^70): 1/r(1, s) with r = 3·2^70 - 6
SKEWED_DOC = {
    "dim": 2,
    "rays": [[3, 2], [3, 2**70]],
    "coefficients": [{"type": "one"}, {"type": "standard", "l": 10**30}],
}

NON_Q_GORENSTEIN_DOC = {
    "dim": 3,
    "rays": [[0, 0, 1], [1, 0, 2], [0, 1, 1], [1, 1, 1]],
    "coefficients": [{"type": "standard", "l": 1}] * 4,
}


def write(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_compute_json_third(tmp_path, capsys):
    assert main(["compute", write(tmp_path, THIRD_DOC), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 3 and doc["a"] == "2/3" and doc["q"] == 3
    assert doc["psi"] == ["2/3", "1"]
    assert doc["klt"] is True


def test_compute_text_smooth(tmp_path, capsys):
    assert main(["compute", write(tmp_path, SMOOTH_DOC)]) == 0
    out = capsys.readouterr().out
    assert "n: 1" in out and "a: 2" in out and "q: 1" in out


def test_compute_exit_codes(tmp_path, capsys):
    bad = dict(THIRD_DOC, rays=[[0, 2], [3, -1]])  # non-primitive ray
    assert main(["compute", write(tmp_path, bad)]) == 2
    assert "primitive" in capsys.readouterr().out
    assert main(["compute", write(tmp_path, NON_Q_GORENSTEIN_DOC)]) == 1


def test_compute_skewed_pair_with_huge_level(tmp_path):
    """A pair whose minimisation in the caller's frame never finished."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "toricmld", "compute", write(tmp_path, SKEWED_DOC)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert f"a: 1/{10**30 * (3 * 2**70 - 6)}" in done.stdout


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def instance_documents(draw):
    """An instance of dimension <= 3 with entries and levels up to 10^6 (small
    ones mixed in, so that some are valid), then up to two mutations: a
    field, a ray or a coefficient replaced by arbitrary JSON, a field
    dropped, or an unknown one added."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d, d + 1))
    entry = st.integers(-3, 3) | st.integers(-10**6, 10**6)
    level = st.integers(1, 3) | st.integers(1, 10**6)
    coeff = st.builds(lambda l: {"type": "standard", "l": l}, level) | st.just({"type": "one"})
    doc = {
        "dim": d,
        "rays": draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=n, max_size=n)),
        "coefficients": draw(st.lists(coeff, min_size=n, max_size=n)),
    }
    for _ in range(draw(st.integers(0, 2))):
        if not doc:
            break
        key, value = draw(st.sampled_from(sorted(doc))), draw(json_values)
        how = draw(st.sampled_from(["field", "item", "drop", "extra"]))
        if how == "field":
            doc[key] = value
        elif how == "item" and isinstance(doc[key], list) and doc[key]:
            doc[key][draw(st.integers(0, len(doc[key]) - 1))] = value
        elif how == "drop":
            del doc[key]
        else:
            doc[draw(st.text(max_size=6))] = value
    return doc


@given(json_values | instance_documents(), st.sampled_from(["text", "json"]))
@settings(deadline=None, max_examples=200)
def test_compute_fuzzed_documents_exit_cleanly(tmp_path_factory, doc, fmt):
    """Any JSON document ends in exit code 0, 1 or 2, never a traceback."""
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))
    assert main(["compute", str(path), "--format", fmt]) in (0, 1, 2)


@st.composite
def sweep_arguments(draw):
    """``sweep`` arguments of bounded size: either family, ``--max-r`` up to
    6, ``--dims`` lists of dimensions up to 5 with garbage tokens mixed in,
    ``--count``, ``--max-entry`` and ``--L`` up to 3 (negative ones
    included), any ``--seed`` or none, and ``--include-one`` or not; each
    option may be left out."""
    args = ["sweep", "--family", draw(st.sampled_from(["cyclic2d", "random_cone"]))]
    small = st.integers(-1, 3).map(str)
    token = st.integers(-2, 5).map(str) | st.text(alphabet=" ,-+x.", max_size=3)
    options = {
        "--max-r": st.integers(-2, 6).map(str),
        "--dims": st.lists(token, max_size=3).map(",".join),
        "--count": small,
        "--max-entry": small,
        "--L": small,
        "--seed": st.integers(-(10**6), 10**6).map(str),
    }
    for flag, values in options.items():
        if draw(st.booleans()):
            args += [flag, draw(values)]
    if draw(st.booleans()):
        args.append("--include-one")
    return args


@given(sweep_arguments())
@settings(deadline=None, max_examples=100)
def test_sweep_fuzzed_arguments_exit_cleanly(args):
    """Any bounded ``sweep`` invocation ends in exit code 0, 1 or 2, never a
    traceback."""
    assert main(args) in (0, 1, 2)


@given(json_values | instance_documents())
@settings(deadline=None, max_examples=200)
def test_prove_fuzzed_documents_exit_cleanly(tmp_path_factory, doc):
    """Any JSON document ends ``prove``, to stdout and with ``--trace``, in
    exit code 0, 1 or 2, never a traceback."""
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzzed.json"
    path.write_text(json.dumps(doc))
    assert main(["prove", str(path)]) in (0, 1, 2)
    assert main(["prove", str(path), "--trace", str(base / "fuzzed.trace")]) in (0, 1, 2)


def test_instance_document_errors_carry_field_paths(tmp_path):
    cases = [
        (dict(THIRD_DOC, dim="2"), "dim"),
        ({k: v for k, v in THIRD_DOC.items() if k != "rays"}, "rays"),
        (dict(THIRD_DOC, rays=[[0, 1], [3]]), "rays[1]"),
        (dict(THIRD_DOC, rays=[[0, 1], [3, "x"]]), "rays[1][1]"),
        (
            dict(THIRD_DOC, coefficients=[{"type": "standard"}, {"type": "one"}]),
            "coefficients[0]",
        ),
        (
            dict(
                THIRD_DOC,
                coefficients=[{"type": "standard", "l": 0}, {"type": "one"}],
            ),
            "coefficients[0].l",
        ),
        (
            dict(THIRD_DOC, coefficients=[{"type": "half"}, {"type": "one"}]),
            "coefficients[0].type",
        ),
        (dict(THIRD_DOC, extra=1), "extra"),
    ]
    for doc, path_fragment in cases:
        with pytest.raises(InvalidParameters) as err:
            load_instance(write(tmp_path, doc))
        assert path_fragment in str(err.value)


def test_load_instance_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(InvalidParameters):
        load_instance(str(path))
    path.write_text('["list"]')
    with pytest.raises(InvalidParameters):
        load_instance(str(path))


def test_load_instance_rejects_non_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dim": 2, "rays": "\xff"}')
    with pytest.raises(InvalidParameters, match="UTF-8"):
        load_instance(str(path))
    assert main(["compute", str(path)]) == 2
    assert capsys.readouterr().out.startswith("error: not UTF-8")


def test_load_instance_rejects_deep_nesting(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    with pytest.raises(InvalidParameters, match="nested too deeply"):
        load_instance(str(path))
    assert main(["compute", str(path)]) == 2
    assert capsys.readouterr().out.startswith("error: not valid JSON")


def test_load_instance_rejects_integer_too_long_to_convert(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"dim": 1' + "0" * 5000 + ', "rays": [[1]], "coefficients": []}')
    with pytest.raises(InvalidParameters, match="not valid JSON"):
        load_instance(str(path))
    assert main(["compute", str(path)]) == 2
    assert capsys.readouterr().out.startswith("error: not valid JSON")


def test_coefficient_one_parses(tmp_path):
    doc = dict(
        THIRD_DOC,
        coefficients=[{"type": "one"}, {"type": "standard", "l": 2}],
    )
    pair = load_instance(write(tmp_path, doc))
    assert [str(c.value) for c in pair.coefficients] == ["1", "1/2"]


def test_prove_writes_versioned_trace(tmp_path, capsys):
    trace_path = tmp_path / "out.trace"
    code = main(["prove", write(tmp_path, THIRD_DOC), "--trace", str(trace_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "result: pass" in out
    text = trace_path.read_text()
    assert text.splitlines()[0] == "trace-v1"
    assert "gamma: 1/2" in text
    assert "certificate-volume: 4/3" in text


def test_prove_stdout_when_no_trace_flag(tmp_path, capsys):
    assert main(["prove", write(tmp_path, SMOOTH_DOC)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("trace-v1")
    assert "certificate-volume: 4" in out


def test_prove_cyclic_quotient_of_huge_order(tmp_path, capsys):
    doc = dict(THIRD_DOC, rays=[[0, 1], [1000000007, -3]])
    assert main(["prove", write(tmp_path, doc)]) == 0
    assert "result: pass" in capsys.readouterr().out


def test_prove_exit_two_outside_scope(tmp_path, capsys):
    one_dim = {"dim": 1, "rays": [[1]], "coefficients": [{"type": "standard", "l": 5}]}
    assert main(["prove", write(tmp_path, one_dim)]) == 2
    with_one = dict(
        SMOOTH_DOC, coefficients=[{"type": "one"}, {"type": "standard", "l": 1}]
    )
    assert main(["prove", write(tmp_path, with_one)]) == 2
    assert main(["prove", write(tmp_path, NON_Q_GORENSTEIN_DOC)]) == 1
    capsys.readouterr()


def test_prove_exit_one_when_a_check_raises(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise CheckFailed("shrink-uniqueness", "forced")

    monkeypatch.setattr(proof, "shrink_to_unique", fail)
    assert main(["prove", write(tmp_path, THIRD_DOC)]) == 1
    assert "shrink-uniqueness" in capsys.readouterr().out


def test_unexpected_library_error_exits_two(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise NoInteriorPoint("forced")

    monkeypatch.setattr(cli, "compute_mld", fail)
    monkeypatch.setattr(proof, "compute_mld", fail)
    path = write(tmp_path, THIRD_DOC)
    for command in ("compute", "prove"):
        assert main([command, path]) == 2
        assert capsys.readouterr().out == "error: forced\n"


def test_sweep_cyclic_summary_and_csv(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code = main(
        ["sweep", "--family", "cyclic2d", "--max-r", "10", "--L", "2", "--out", str(out_csv)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "counterexamples: 0" in out
    assert "max n/q^d:" in out and "min gamma:" in out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "key,d,rays,coeffs,n,a,q,j,gamma,n_over_qd,pass"
    assert len(lines) == 1 + 32 * 4  # phi-sum(10) cones x 2x2 coefficient grid
    ratios = []
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[-1] == "1"
        num, _, den = fields[-2].partition("/")
        ratios.append(int(num) / int(den or 1))
    assert max(ratios) <= 2


def test_sweep_bad_flags_exit_two(tmp_path, capsys):
    assert main(["sweep", "--family", "cyclic2d", "--max-r", "0"]) == 2
    assert main(["sweep", "--family", "random_cone", "--dims", "3"]) == 2  # no seed
    assert main(["sweep", "--family", "random_cone", "--dims", "1", "--seed", "1"]) == 2
    assert main(["sweep", "--family", "random_cone", "--dims", "3,3", "--seed", "1"]) == 2
    assert main(["sweep", "--family", "nonsense"]) == 2  # argparse choices
    assert main(["sweep"]) == 2
    capsys.readouterr()


def test_sweep_random_cone_deterministic(tmp_path, capsys):
    args = [
        "sweep", "--family", "random_cone", "--dims", "2,3", "--count", "20",
        "--seed", "7", "--L", "2",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    capsys.readouterr()


def test_sweep_json_out(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    code = main(
        ["sweep", "--family", "cyclic2d", "--max-r", "3", "--out",
         str(tmp_path / "r.csv"), "--json-out", str(out_json)]
    )
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert doc["aggregates"]["counterexamples"] == []
    capsys.readouterr()


def test_lemmas_vo(capsys):
    assert main(["lemmas", "--check", "vo", "--dim", "3", "--samples", "15"]) == 0
    out = capsys.readouterr().out
    assert "pinned: unit square" in out and "all exact" in out


def test_lemmas_lv_reports_unit_triangle(capsys):
    assert main(["lemmas", "--check", "lv", "--dim", "2", "--samples", "15"]) == 0
    out = capsys.readouterr().out
    assert "unit triangle" in out and "vol 3" in out
    assert "vol 2 vs floor 2" in out  # the segment equality case


def test_lemmas_minkowski(capsys):
    assert main(["lemmas", "--check", "minkowski", "--dim", "2", "--samples", "8"]) == 0
    out = capsys.readouterr().out
    assert "certificate volume 4 = 4 ok" in out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "toricmld", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "usage: toricmld" in done.stdout
