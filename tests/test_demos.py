"""The narrative demos run to the end and print what they promise."""

import runpy
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name, monkeypatch, capsys):
    path = DEMOS / name
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out


def test_tour_annulus(monkeypatch, capsys):
    out = run_demo("tour_annulus.py", monkeypatch, capsys)
    assert "h'-vector: (1, 5, 2)" in out
    assert "relations of the first kind only:  (2, 5, 1)" in out
    assert "both kinds:                        (1, 5, 1)" in out
    assert "betti numbers of the manifold: (1, 1, 7, 1, 1)" in out
    assert "magnitude: 9" in out
    assert out.rstrip().endswith("second-kind-independence     ok")


def test_hole_census(monkeypatch, capsys):
    out = run_demo("hole_census.py", monkeypatch, capsys)
    assert "4,3                 1      (1, 1, 7, 1, 1)    " \
        "5 diagonal + 2 from the holes" in out
    assert "6,3,3,2             3      (1, 3, 18, 3, 1)   " \
        "12 diagonal + 6 from the holes" in out
    assert "euler characteristic 12, corners 12" in out
    assert "  6,3,3,2      -> 3" in out
