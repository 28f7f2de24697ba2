import json

import pytest

from omforge.canonical import canonical_form
from omforge.core import om_from_points
from omforge.corpus import cyclic_om, cyclic_points, w3
from omforge.fileio import (
    load_om,
    read_chi,
    read_ccj,
    read_pts,
    write_ccj,
    write_chi,
    write_pts,
)


def test_chi_round_trip(tmp_path):
    chi = cyclic_om(4, 8).chirotope
    path = tmp_path / "c.chi"
    write_chi(path, chi)
    assert read_chi(path) == chi
    # bit-exact file content
    assert path.read_text() == f"4 8\n{chi.to_string()}\n"


def test_pts_round_trip(tmp_path):
    pts = cyclic_points(3, 6)
    path = tmp_path / "c.pts"
    write_pts(path, pts)
    assert read_pts(path) == pts
    assert load_om(path) == cyclic_om(3, 6)


def test_ccj_round_trip(tmp_path):
    om = w3().direct_sum(w3())
    path = tmp_path / "s.ccj"
    write_ccj(path, om)
    loaded = read_ccj(path)
    assert loaded == om
    assert loaded.provenance == "from-file"


def test_ccj_negation_closure_enforced(tmp_path):
    path = tmp_path / "bad.ccj"
    path.write_text(json.dumps({"n": 3, "rank": 2, "cocircuits": ["+0-"]}))
    with pytest.raises(ValueError):
        read_ccj(path)


def test_chi_round_trip_canonical_equality(tmp_path):
    om = cyclic_om(4, 7)
    path = tmp_path / "c.chi"
    write_chi(path, om.chirotope)
    again = load_om(path)
    assert canonical_form(again) == canonical_form(om)


def test_ccj_round_trip_canonical_equality(tmp_path):
    om = cyclic_om(4, 7)
    path = tmp_path / "c.ccj"
    write_ccj(path, om)
    again = load_om(path)
    assert canonical_form(again) == canonical_form(om)


def test_uniform_ccj_loads_without_the_axiom_check(tmp_path, count_calls):
    # a set is checked through its recovered chirotope, uniform or not;
    # the cubic axiom check runs only on the sets that check rejects
    from omforge import core
    from omforge.core import InvalidCocircuits

    axioms = count_calls(core, "validate_cocircuit_axioms")
    for r, n in ((3, 6), (4, 8), (5, 10)):
        om = cyclic_om(r, n)
        path = tmp_path / f"c{r}{n}.ccj"
        write_ccj(path, om)
        assert read_ccj(path) == om
    # not uniform: two rank-2 lines, and a repeated point
    repeated = om_from_points([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 1, 1]])
    for name, om in (("sum", w3().direct_sum(w3())), ("repeated", repeated)):
        write_ccj(tmp_path / f"{name}.ccj", om)
        assert read_ccj(tmp_path / f"{name}.ccj") == om
    assert axioms == []
    # uniform, but one sign of one cocircuit pair changed: the axiom
    # check names the violation
    coc = sorted(x.to_string() for x in cyclic_om(3, 6).cocircuits)
    swap = str.maketrans("+-", "-+")
    x = coc[0]
    i = next(k for k, c in enumerate(x) if c != "0")
    y = x[:i] + x[i].translate(swap) + x[i + 1:]
    pair = {x: y, x.translate(swap): y.translate(swap)}
    coc = [pair.get(c, c) for c in coc]
    path = tmp_path / "broken.ccj"
    path.write_text(json.dumps({"n": 6, "rank": 3, "cocircuits": coc}))
    with pytest.raises(InvalidCocircuits, match="axiom"):
        read_ccj(path)
    assert len(axioms) == 1


def test_unknown_extension(tmp_path):
    path = tmp_path / "c.xyz"
    path.write_text("nope")
    with pytest.raises(ValueError):
        load_om(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("4 8\n", "found 2 tokens"),  # header only
        ("+++-\n", "found 1 tokens"),  # no header
        ("2 4\n++++++\nextra\n", "found 4 tokens"),
        ("two 4\n++++++\n", "two integers"),
        ("1 30\n" + "+" * 30 + "\n", "n <= 20"),  # 2**30 dense entries
    ],
)
def test_malformed_chi_rejected(tmp_path, text, message):
    path = tmp_path / "bad.chi"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_chi(path)
