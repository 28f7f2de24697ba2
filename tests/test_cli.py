import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omforge.cli import EXIT_INVALID, EXIT_IO, EXIT_OK, EXIT_UNDETERMINED, run
from omforge.core import MAX_ELEMENTS
from omforge.corpus import cyclic_om, cyclic_points, non_euclidean_848, w3
from omforge.fileio import write_ccj, write_chi, write_pts


@pytest.fixture()
def w3_chi(tmp_path):
    path = tmp_path / "w3.chi"
    write_chi(path, w3().chirotope)
    return str(path)


@pytest.fixture()
def c48_pts(tmp_path):
    path = tmp_path / "c48.pts"
    write_pts(path, cyclic_points(4, 8))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    run_json.err = captured.err
    return code, json.loads(captured.out)


def test_cocircuits(w3_chi, capsys):
    code, payload = run_json(capsys, ["cocircuits", w3_chi])
    assert code == EXIT_OK
    assert payload["cocircuits"] == ["++0", "+0-", "--0", "-0+", "0++", "0--"]
    assert "seed" in payload


def test_euclidean(w3_chi, capsys):
    code, payload = run_json(capsys, ["euclidean", w3_chi, "--g", "0", "--f", "1"])
    assert code == EXIT_OK
    assert payload["euclidean"] is True


def test_euclidean_all(c48_pts, capsys):
    code, payload = run_json(capsys, ["euclidean-all", c48_pts])
    assert code == EXIT_OK
    assert payload["euclidean_all_programs"] is True
    assert payload["totally_non_euclidean"] is False
    assert len(payload["verdicts"]) == 56


@pytest.mark.parametrize(
    "text, count", [("3 3\n+\n", 0), ("1 4\n+-++\n", 12)], ids=["r=n", "rank1"]
)
def test_euclidean_all_edge_shapes(tmp_path, capsys, text, count):
    # r = n makes every element a coloop, so there is no program; in
    # rank 1 every program is Euclidean
    path = tmp_path / "edge.chi"
    path.write_text(text)
    code, payload = run_json(capsys, ["euclidean-all", str(path)])
    assert code == EXIT_OK
    assert len(payload["verdicts"]) == count
    assert all(v["euclidean"] for v in payload["verdicts"])


def test_euclidean_all_chi_matches_ccj(tmp_path, capsys):
    # a .chi takes the sign route, its .ccj the cocircuit graph
    om = non_euclidean_848()
    write_chi(tmp_path / "ne.chi", om.chirotope)
    write_ccj(tmp_path / "ne.ccj", om)
    _, from_chi = run_json(capsys, ["euclidean-all", str(tmp_path / "ne.chi")])
    _, from_ccj = run_json(capsys, ["euclidean-all", str(tmp_path / "ne.ccj")])
    assert from_chi == from_ccj
    assert from_chi["euclidean_all_programs"] is False


def test_classify_chi_matches_ccj(tmp_path, capsys):
    # the .ccj is searched on its recovered chirotope, so both files get
    # the same report, flip-pipeline witness included
    om = non_euclidean_848()
    write_chi(tmp_path / "ne.chi", om.chirotope)
    write_ccj(tmp_path / "ne.ccj", om)
    runs = [
        run_json(capsys, ["classify", str(tmp_path / name), "--max-candidates", "200"])
        for name in ("ne.chi", "ne.ccj")
    ]
    assert runs[0] == runs[1]
    code, payload = runs[0]
    assert code == EXIT_OK
    assert payload["mandel_witness"]["kind"] == "flip-pipeline"


def test_topes_chi_matches_ccj(tmp_path, capsys):
    om = non_euclidean_848()
    write_chi(tmp_path / "ne.chi", om.chirotope)
    write_ccj(tmp_path / "ne.ccj", om)
    _, from_chi = run_json(capsys, ["topes", str(tmp_path / "ne.chi")])
    _, from_ccj = run_json(capsys, ["topes", str(tmp_path / "ne.ccj")])
    assert from_chi == from_ccj
    assert from_chi["count"] == 128


def test_topes_of_rank0_is_the_zero_vector(tmp_path, capsys):
    path = tmp_path / "r0.ccj"
    path.write_text(json.dumps({"n": 3, "rank": 0, "cocircuits": []}))
    code, payload = run_json(capsys, ["topes", str(path)])
    assert code == EXIT_OK
    assert payload["count"] == 1 and payload["topes"] == ["000"]


def test_element_outside_the_ground_set_is_an_error(w3_chi, capsys):
    # the rank of a set with an element past n has no end to its loop
    assert run(["mandel-pipeline", w3_chi, "--mutation", "0,3", "--g", "1"]) == EXIT_IO
    assert "outside the ground set" in capsys.readouterr().err


def test_rank0_chi_is_rejected(tmp_path, capsys):
    # the rank-0 chirotope exists, but a sign string has rank >= 1
    path = tmp_path / "r0.chi"
    path.write_text("0 3\n+\n")
    for command in ("validate", "topes"):
        assert run([command, str(path)]) == EXIT_IO
        assert "need 1 <= rank <= n" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mutations", "classify", "validate"])
def test_rank0_ccj_has_no_mutation(tmp_path, capsys, command):
    path = tmp_path / "r0.ccj"
    path.write_text(json.dumps({"n": 3, "rank": 0, "cocircuits": []}))
    code, payload = run_json(capsys, [command, str(path)])
    assert code == EXIT_OK
    if command == "mutations":
        assert payload["mutations"] == [] and payload["L"] is None
    elif command == "classify":
        assert payload["mutation_count"] == 0 and payload["L"] is None
        assert payload["mandel_witness"] == {"kind": "loop"}
    else:
        assert payload["ok"]


@pytest.fixture()
def broken_c36_ccj(tmp_path):
    """cyclic_om(3,6) with one sign changed in one cocircuit pair: closed
    under negation, with the declared rank, but no oriented matroid."""
    coc = sorted(x.to_string() for x in cyclic_om(3, 6).cocircuits)
    swap = str.maketrans("+-", "-+")
    x = coc[0]
    i = next(k for k, c in enumerate(x) if c != "0")
    y = x[:i] + x[i].translate(swap) + x[i + 1:]
    pair = {x: y, x.translate(swap): y.translate(swap)}
    path = tmp_path / "broken.ccj"
    path.write_text(json.dumps(
        {"n": 6, "rank": 3, "cocircuits": [pair.get(c, c) for c in coc]}
    ))
    return str(path)


@pytest.mark.parametrize("command", ["mutations", "classify", "euclidean-all"])
def test_ccj_failing_the_axioms_is_a_validation_failure(
    broken_c36_ccj, capsys, command
):
    code, report = run_json(capsys, ["validate", broken_c36_ccj])
    assert code == EXIT_INVALID and len(report["violations"]) > 1
    first = report["violations"][0]
    assert run([command, broken_c36_ccj]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert lines[0].endswith(
        f"axiom {first['axiom']} fails at {' '.join(first['witness'])}"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["validate"], ["cocircuits"], ["topes"], ["mutations"],
        ["euclidean", "--g", "0", "--f", "1"], ["euclidean-all"],
        ["lexext", "--spec", "0:+,2:+,5:+"], ["flip", "--basis", "0,2,5"],
        ["perturb", "--cocircuit", "0+0000", "--element", "0"], ["classify"],
        ["mutation-graph"], ["mandel-pipeline", "--mutation", "0,2,5", "--g", "1"],
        ["summary"],
    ],
    ids=lambda argv: argv[0],
)
def test_chi_failing_basis_exchange_is_a_validation_failure(tmp_path, capsys, argv):
    # the only bases are {0,2,5} and {1,3,4}: every three-term
    # Grassmann-Pluecker relation holds, but the support is no matroid
    path = tmp_path / "two_bases.chi"
    path.write_text("3 6\n000000-000000+000000\n")
    code = run([argv[0], str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    if argv[0] == "validate":
        violations = json.loads(captured.out)["violations"]
        assert violations[0] == {
            "axiom": "basis-exchange", "witness": ["(0, 2, 5)", "(1, 3, 4)", "0"]
        }
    else:
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1
        assert lines[0].endswith(
            "invalid chirotope: basis-exchange fails at (0, 2, 5) (1, 3, 4) 0"
        )


@pytest.mark.parametrize(
    "name, text",
    [("r_equals_n.chi", "3 3\n+\n"),
     ("rank0.ccj", json.dumps({"n": 3, "rank": 0, "cocircuits": []}))],
    ids=["r=n", "rank0"],
)
def test_no_program_is_not_totally_non_euclidean(tmp_path, capsys, name, text):
    # with no valid program, both commands report every program
    # Euclidean and the class not totally non-Euclidean
    path = tmp_path / name
    path.write_text(text)
    for command in ("euclidean-all", "classify"):
        code, payload = run_json(capsys, [command, str(path)])
        assert code == EXIT_OK
        assert payload["euclidean_all_programs"] is True
        assert payload["totally_non_euclidean"] is False
    assert payload["consistency_violations"] == []


def test_python_m_omforge_runs_the_cli(w3_chi):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-m", "omforge", "topes", w3_chi],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert json.loads(done.stdout)["count"] == 6


def test_mutations_b(c48_pts, capsys):
    code, payload = run_json(capsys, ["mutations", c48_pts])
    assert code == EXIT_OK
    assert payload["L"] == 4
    assert all(v >= 4 for v in payload["adjacency"].values())


def test_validate_good_and_bad(tmp_path, capsys):
    good = tmp_path / "good.chi"
    write_chi(good, cyclic_om(3, 5).chirotope)
    code, payload = run_json(capsys, ["validate", str(good)])
    assert code == EXIT_OK and payload["ok"]
    bad = tmp_path / "bad.chi"
    bad.write_text("2 4\n++++-+\n")
    code, payload = run_json(capsys, ["validate", str(bad)])
    assert code == EXIT_INVALID and not payload["ok"]


def test_validate_reports_a_wrong_ccj_rank(tmp_path, capsys):
    # other commands reject this file (test_malformed_reader_input_is_an_error)
    path = tmp_path / "rank_mismatch.ccj"
    path.write_text('{"n": 2, "rank": 5, "cocircuits": ["+-", "-+"]}')
    code, payload = run_json(capsys, ["validate", str(path)])
    assert code == EXIT_INVALID and not payload["ok"]
    assert payload["violations"][0]["axiom"] == "rank"


def test_topes(w3_chi, capsys):
    code, payload = run_json(capsys, ["topes", w3_chi])
    assert code == EXIT_OK
    assert payload["count"] == 6


def test_lexext_flip_pipeline(tmp_path, capsys, c48_pts):
    code, payload = run_json(capsys, ["lexext", c48_pts, "--spec", "0:+,1:+,2:+,3:+"])
    assert code == EXIT_OK
    assert payload["n"] == 9 and payload["new_element"] == 8
    code, payload = run_json(capsys, ["flip", c48_pts, "--basis", "0,1,2,3"])
    assert code == EXIT_OK
    assert payload["chirotope"].count("-") == 1


def test_mandel_pipeline_cmd(c48_pts, capsys):
    code, payload = run_json(
        capsys, ["mandel-pipeline", c48_pts, "--mutation", "0,1,2,3", "--g", "5"]
    )
    assert code == EXIT_OK
    assert payload["ok"] is True


def test_mutation_graph_budget(tmp_path, capsys):
    seed = tmp_path / "c36.chi"
    write_chi(seed, cyclic_om(3, 6).chirotope)
    code, payload = run_json(capsys, ["--max-nodes", "2", "mutation-graph", str(seed)])
    assert code == EXIT_UNDETERMINED
    assert payload["budget_exhausted"]
    code, payload = run_json(capsys, ["--max-nodes", "50", "mutation-graph", str(seed)])
    assert code == EXIT_OK
    assert len(payload["nodes"]) == 4


def test_cut_mutation_graph_lists(tmp_path, capsys):
    # a cut search expands the root and stops: its list is the closure's,
    # and every other list is empty or the closure's
    seed = tmp_path / "c38.chi"
    write_chi(seed, cyclic_om(3, 8).chirotope)
    code, full = run_json(capsys, ["--max-nodes", "200", "mutation-graph", str(seed)])
    assert code == EXIT_OK and len(full["nodes"]) == 135
    code, cut = run_json(capsys, ["--max-nodes", "5", "mutation-graph", str(seed)])
    assert code == EXIT_UNDETERMINED
    assert cut["budget_exhausted"]
    assert len(cut["nodes"]) == 5
    (root,) = [key for key, node in cut["nodes"].items() if node["depth"] == 0]
    assert cut["nodes"][root]["neighbors"] == full["nodes"][root]["neighbors"]
    for key, node in cut["nodes"].items():
        assert node["neighbors"] in ([], full["nodes"][key]["neighbors"])


def test_mutation_graph_keeps_seed_key(tmp_path, capsys):
    # the seed class key sits under seed_key; seed is the RNG seed
    seed = tmp_path / "c36.chi"
    write_chi(seed, cyclic_om(3, 6).chirotope)
    code, payload = run_json(capsys, ["--seed", "5", "mutation-graph", str(seed)])
    assert code == EXIT_OK
    assert payload["seed"] == 5
    assert payload["nodes"][payload["seed_key"]]["depth"] == 0
    assert len(payload["nodes"]) == 4


def test_classify_cmd(tmp_path, capsys):
    seed = tmp_path / "c36.chi"
    write_chi(seed, cyclic_om(3, 6).chirotope)
    code, payload = run_json(capsys, ["classify", str(seed)])
    assert code == EXIT_OK
    assert payload["euclidean_all_programs"] is True
    assert payload["las_vergnas"] is True
    assert payload["L"] == 3


def test_summary_cmd(tmp_path, capsys, w3_chi):
    code, payload = run_json(capsys, ["summary", w3_chi])
    assert code == EXIT_OK
    assert payload["rows"]["all"]["min_L"] == 2


def test_summary_counts_a_class_without_L(tmp_path, capsys, w3_chi):
    # r = n makes every element a coloop, so L is undefined: the class is
    # counted and leaves min_L and max_L to the classes that have one
    path = tmp_path / "rn.chi"
    path.write_text("3 3\n+\n")
    code, payload = run_json(capsys, ["summary", str(path)])
    assert code == EXIT_OK
    assert payload["rows"]["all"] == {"count": 1, "min_L": None, "max_L": None}
    code, payload = run_json(capsys, ["summary", str(path), w3_chi])
    assert code == EXIT_OK
    assert payload["rows"]["all"] == {"count": 2, "min_L": 2, "max_L": 2}
    for cmd in ("classify", "mutations"):
        code, payload = run_json(capsys, [cmd, str(path)])
        assert code == EXIT_OK and payload["L"] is None


def test_out_file_and_seed(tmp_path, w3_chi, capsys):
    out = tmp_path / "res.json"
    code = run(["--seed", "7", "--out", str(out), "cocircuits", w3_chi])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["seed"] == 7


def test_io_error(capsys):
    assert run(["cocircuits", "/nonexistent/x.chi"]) == 1


def test_acceptance_cmd_direct_sum(capsys):
    code, payload = run_json(capsys, ["acceptance", "direct-sum"])
    assert code == EXIT_OK
    assert payload["ok"] is True
    # one pass/fail line per criterion on stderr
    assert "[PASS] 10 direct-sum-counting" in run_json.err


# rank 3 on 5 elements: cyclic(3,5) with the non-mutation basis {0,1,3} negated
INVALID_R3N5 = "+-++++++++"


@pytest.mark.parametrize("cmd", ["validate", "cocircuits", "mutations", "classify"])
def test_invalid_chirotope_exits_3(tmp_path, capsys, cmd):
    bad = tmp_path / "bad.chi"
    bad.write_text(f"3 5\n{INVALID_R3N5}\n")
    assert run([cmd, str(bad)]) == EXIT_INVALID
    if cmd != "validate":
        err = capsys.readouterr().err
        assert err.startswith("error: invalid chirotope")


def test_invalid_chirotope_names_its_first_violation(tmp_path, capsys):
    bad = tmp_path / "bad.chi"
    bad.write_text(f"3 5\n{INVALID_R3N5}\n")
    code, report = run_json(capsys, ["validate", str(bad)])
    first = report["violations"][0]
    assert code == EXIT_INVALID and first["axiom"] == "grassmann-pluecker-3"
    assert run(["topes", str(bad)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: invalid chirotope: grassmann-pluecker-3 fails at "
        f"{' '.join(first['witness'])}\n"
    )
    assert first["witness"] == ["(0,)", "(1, 2, 3, 4)"]


def test_header_only_chi_is_an_error(tmp_path, capsys):
    path = tmp_path / "short.chi"
    path.write_text("4 8\n")
    assert run(["cocircuits", str(path)]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_mutation_graph_on_ten_elements(tmp_path, capsys):
    seed = tmp_path / "c310.chi"
    write_chi(seed, cyclic_om(3, 10).chirotope)
    code, payload = run_json(capsys, ["mutation-graph", str(seed), "--depth", "2"])
    assert code == EXIT_OK
    assert len(payload["nodes"]) == 7 and not payload["budget_exhausted"]


@pytest.mark.parametrize(
    "argv",
    [
        ["euclidean", "x.chi", "--g", "abc", "--f", "1"],
        ["no-such-command", "x.chi"],
    ],
)
def test_usage_error_exits_1(capsys, argv):
    assert run(argv) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert "usage: omforge" in capsys.readouterr().out


def test_validate_reports_a_ccj_not_closed_under_negation(tmp_path, capsys):
    path = tmp_path / "open.ccj"
    path.write_text('{"n": 3, "rank": 2, "cocircuits": ["++0", "+0-", "0++"]}')
    code, payload = run_json(capsys, ["validate", str(path)])
    assert code == EXIT_INVALID and not payload["ok"]
    assert {v["axiom"] for v in payload["violations"]} == {"C1"}
    # witnesses are sign strings, as in every other command's output
    assert ["++0"] in [v["witness"] for v in payload["violations"]]


def test_validate_rejects_a_ccj_vector_of_the_wrong_length(tmp_path, capsys):
    path = tmp_path / "short.ccj"
    path.write_text('{"n": 3, "rank": 2, "cocircuits": ["++0", "--0", "+0"]}')
    assert run(["validate", str(path)]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")


def test_threads_variable_is_ignored(w3_chi, capsys, monkeypatch):
    monkeypatch.setenv("OM_FORGE_THREADS", "abc")
    code, payload = run_json(capsys, ["cocircuits", w3_chi])
    assert code == EXIT_OK
    assert len(payload["cocircuits"]) == 6


@pytest.mark.parametrize(
    "name, text",
    [
        ("empty.pts", ""),
        ("no_cocircuits.ccj", '{"n": 3, "rank": 2}'),
        ("top_level_list.ccj", '[1, 2, 3]'),
        ("int_labels.ccj", '{"n": 2, "rank": 1, "cocircuits": ["+-", "-+"], "labels": 5}'),
        ("huge_header.chi", "500000 1000000\n+\n"),
        ("rank_mismatch.ccj", '{"n": 2, "rank": 5, "cocircuits": ["+-", "-+"]}'),
    ],
)
def test_malformed_reader_input_is_an_error(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert run(["cocircuits", str(path)]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if name == "huge_header.chi":
        assert f"n <= {MAX_ELEMENTS}" in lines[0]


# -- readers under fuzzed input ----------------------------------------------------

_SMALL = st.integers(-1, 7)
_JUNK = st.text(alphabet="+-0x1 .{}[]\",:", max_size=24)


@st.composite
def _chi_text(draw):
    r, n = draw(_SMALL), draw(_SMALL)
    if 1 <= r <= n and draw(st.booleans()):
        size = math.comb(n, r)
        body = draw(st.text(alphabet="+-0", min_size=size, max_size=size))
    else:
        body = draw(st.one_of(st.text(alphabet="+-0", max_size=40), _JUNK))
    header = f"{r} {n}"
    if draw(st.booleans()):
        header = draw(st.sampled_from([f"{r}", f"{r} {n} {n}", f"{r} x", ""]))
    return "in.chi", f"{header}\n{body}\n"


@st.composite
def _pts_text(draw):
    r, n = draw(_SMALL), draw(_SMALL)
    count = max(r * n, 0) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    coords = draw(st.lists(st.integers(-3, 3), min_size=max(count, 0), max_size=max(count, 0)))
    tokens = [str(c) for c in coords]
    if draw(st.booleans()):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(["x", "1.5", "+"])))
    return "in.pts", f"{r} {n}\n" + " ".join(tokens) + "\n"


@st.composite
def _ccj_text(draw):
    n, rank = draw(_SMALL), draw(_SMALL)
    length = st.just(max(n, 0)) if draw(st.booleans()) else st.integers(0, 6)
    vectors = draw(st.lists(
        length.flatmap(lambda k: st.text(alphabet="+-0", min_size=k, max_size=k)),
        max_size=8,
    ))
    if draw(st.booleans()):  # close the set under negation
        neg = str.maketrans("+-", "-+")
        vectors += [v.translate(neg) for v in vectors]
    data = {"n": n, "rank": rank, "cocircuits": vectors}
    if draw(st.booleans()):
        del data[draw(st.sampled_from(sorted(data)))]
    text = json.dumps(data)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]  # cut short
    return "in.ccj", text


@settings(max_examples=200, deadline=None)
@given(st.one_of(_chi_text(), _pts_text(), _ccj_text()))
def test_readers_never_raise_through_the_cli(tmp_path_factory, case):
    name, text = case
    path = tmp_path_factory.mktemp("fuzz") / name
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["cocircuits", str(path)])
    assert code in (EXIT_OK, EXIT_IO, EXIT_INVALID)
    if code != EXIT_OK:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "flags",
    [
        ["mutation-graph", "{seed}", "--depth", "-1"],
        ["--max-nodes", "-3", "mutation-graph", "{seed}"],
        ["mutation-graph", "{seed}", "--max-nodes", "-3"],
        ["--max-candidates", "-1", "classify", "{seed}"],
        ["classify", "{seed}", "--max-candidates", "-1"],
        ["mutation-graph", "{seed}", "--depth", "two"],
    ],
)
def test_negative_budget_is_a_usage_error(tmp_path, capsys, flags):
    seed = tmp_path / "c36.chi"
    write_chi(seed, cyclic_om(3, 6).chirotope)
    assert run([f.format(seed=seed) for f in flags]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_zero_budgets_are_accepted(tmp_path, capsys):
    seed = tmp_path / "c36.chi"
    write_chi(seed, cyclic_om(3, 6).chirotope)
    code, payload = run_json(capsys, ["mutation-graph", str(seed), "--depth", "0"])
    assert code == EXIT_OK
    assert len(payload["nodes"]) == 1 and not payload["budget_exhausted"]
