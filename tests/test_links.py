"""Links walk up the covers of their element.

The Buchsbaum check reads the homology of each link from the local
complex of its element (``SimplicialPoset._local_complex``), whose
elements are reached rank by rank through the upper covers, with no call
to ``le``.  ``scan_link`` below is the construction the walk replaced,
which tests ``le(e, x)`` for every element x of the poset.  The local
complex must have the elements above e by rank, and the link built as a
poset by the walk (``link``, the reference of the Buchsbaum tests) the
same elements, vertices, vertex sets and covers as the scan.
"""

import json

import pytest

from conftest import build_cross_polytope, cross_polytope_ball
from test_posets import link
from torushom import cli
from torushom.fixtures import bundled_names, dumps_fixture, resolve_fixture
from torushom.generator import polygon_with_holes
from torushom.posets import BOTTOM, SimplicialPoset


def scan_link(poset, e):
    above = [x for x in poset.elements() if poset.le(e, x) and x != e]
    base = poset.ver(e)
    rank = poset.rank(e)
    cells = []
    for x in above:
        if poset.rank(x) <= rank + 1:
            continue
        extra = sorted(poset.ver(x) - base)
        cells.append({"id": x,
                      "vertices": [poset.face(x, base | {v}) for v in extra],
                      "faces": [poset.face(x, poset.ver(x) - {v})
                                for v in extra]})
    return SimplicialPoset([x for x in above if poset.rank(x) == rank + 1],
                           cells)


def _posets():
    for name in bundled_names():
        yield name, resolve_fixture(name).manifold.poset
    yield "6,4,3 seed 3", polygon_with_holes((6, 4, 3), seed=3).manifold.poset
    for n in (3, 4):
        yield "cross-polytope %d" % n, build_cross_polytope(n)[0]


@pytest.mark.parametrize("name,poset", list(_posets()),
                         ids=[name for name, _ in _posets()])
def test_links_match_the_scan(name, poset):
    signs = poset.sign_convention()
    for e in poset.elements():
        walked, reference = link(poset, e), scan_link(poset, e)
        elements = reference.elements(include_bottom=True)
        assert walked.elements(include_bottom=True) == elements, (name, e)
        assert walked.vertices() == reference.vertices()
        for x in elements:
            assert walked.upper_covers(x) == reference.upper_covers(x)
            assert walked.lower_covers(x) == reference.lower_covers(x)
            assert walked.ver(x) == reference.ver(x)
        local = poset._local_complex(e, signs)
        assert local.basis(-1) == [e]
        for k in range(1, poset.top_rank - poset.rank(e) + 1):
            assert sorted(local.basis(k - 1), key=repr) == \
                sorted(reference.elements_of_rank(k), key=repr), (name, e)


def test_cross_polytope_links_are_spheres():
    poset, _ = build_cross_polytope(4)
    vertex = link(poset, 1)
    assert vertex.f_vector() == (1, 6, 12, 8)
    assert poset.buchsbaum_check() == (True, [])


FIXTURE_TEXTS = {
    "polygon-643": lambda: dumps_fixture(
        polygon_with_holes((6, 4, 3), seed=3)),
    "cross3-ball": lambda: json.dumps(cross_polytope_ball(3, 1)),
}


def _write(tmp_path, shape):
    target = tmp_path / (shape + ".json")
    target.write_text(FIXTURE_TEXTS[shape]())
    return str(target)


def test_report_calls_no_le_inside_link(monkeypatch, capsys, tmp_path):
    """No local complex calls ``le``; on the 3-ball, unlike the polygon,
    the links of the walls are proper links with a complex of their own,
    and the bottom has none: the reduced Betti numbers read the face
    complex."""
    local, le = SimplicialPoset._local_complex, SimplicialPoset.le
    depth, links, inside = [0], [], []

    def counted_local(self, e, signs):
        links.append(e)
        depth[0] += 1
        try:
            return local(self, e, signs)
        finally:
            depth[0] -= 1

    def counted_le(self, a, b):
        if depth[0]:
            inside.append((a, b))
        return le(self, a, b)

    monkeypatch.setattr(SimplicialPoset, "_local_complex", counted_local)
    monkeypatch.setattr(SimplicialPoset, "le", counted_le)
    for shape in sorted(FIXTURE_TEXTS):
        links.clear()
        assert cli.main(["report", _write(tmp_path, shape)]) == 0
        capsys.readouterr()
        if shape == "cross3-ball":
            assert links and all(e is not BOTTOM for e in links)
        else:
            assert links == [], shape
    assert inside == []


@pytest.mark.parametrize("command", ["report", "check"])
def test_no_link_complex_is_built_at_n_2(command, monkeypatch, capsys,
                                         tmp_path):
    """At n = 2 a proper link can fail only in degree -1, which is read
    off the covers, and the reduced Betti numbers read the face complex,
    so ``report`` and ``check`` build no local complex at all."""
    target = _write(tmp_path, "polygon-643")
    local, links = SimplicialPoset._local_complex, []

    def recording(self, e, signs):
        links.append(e)
        return local(self, e, signs)

    monkeypatch.setattr(SimplicialPoset, "_local_complex", recording)
    assert cli.main([command, target]) == 0
    capsys.readouterr()
    assert links == []
