import json

import pytest

from omforge.canonical import canonical_form
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
