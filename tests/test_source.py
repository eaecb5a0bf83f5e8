"""Source hygiene: every module under ``src/`` reads each name it imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(path):
    """The names that ``path`` imports and never reads, with their lines."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path) == []


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\nimport os, sys\nfrom a import b as c\nsys.exit(c)\n")
    assert unused_imports(module) == [(2, "os")]


def int_isinstance_lines(path):
    """The lines of ``path`` that test ``isinstance(x, int)``, alone or in a
    tuple: that lets ``True`` through as 1, where ``type(x) is int`` does
    not."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id != "isinstance" or len(node.args) != 2:
            continue
        kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        if any(isinstance(k, ast.Name) and k.id == "int" for k in kinds):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_isinstance_int(path):
    assert int_isinstance_lines(path) == []


def test_the_scan_sees_isinstance_int(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "isinstance(a, int)\nisinstance(b, bool)\nisinstance(c, (str, int))\n"
        "type(d) is int\nisinstance(e, Fraction)\n"
    )
    assert int_isinstance_lines(module) == [1, 3]


def names_quotient_lattice(path):
    """The lines of ``path`` that name ``quotient_lattice``: as a name, as
    an attribute or in an import.  Only ``pairs.py`` may, through
    ``quotient_pair``, so that the package builds one zero-face quotient."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named = any(a.name.split(".")[-1] == "quotient_lattice" for a in node.names)
        else:
            named = getattr(node, "id", getattr(node, "attr", None)) == "quotient_lattice"
        if named:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "pairs.py"], ids=lambda p: p.name)
def test_only_pairs_names_quotient_lattice(path):
    assert names_quotient_lattice(path) == []


def test_the_scan_sees_quotient_lattice(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from .lattice import quotient_lattice as q\nimport lattice\n"
        "lattice.quotient_lattice(r, 2)\nquotient_lattice(r, 2)\n"
        "def quotient_lattice(rows, dim):\n    '''quotient_lattice'''\n"
    )
    assert names_quotient_lattice(module) == [1, 3, 4]


def calls_to(path, callee):
    """The calls to ``callee`` in ``path``, by name or as an attribute, each
    as the name of the top-level definition it sits in (``None`` at module
    level) and its line."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == callee:
                    calls.append((owner, node.lineno))
    return sorted(calls, key=lambda call: call[1])


def test_geometry_hulls_only_the_difference_body_of_a_non_simplex():
    """Inside ``geometry.py`` only ``difference_body`` calls ``convex_hull``,
    once: the walker's projections and cuts and the pyramids come from
    facets already known and can never re-hull.  ``prove`` calls
    ``difference_body`` only for a section that is not a simplex; a simplex
    section's difference body is its rows."""
    calls = calls_to(SRC / "toricmld" / "geometry.py", "convex_hull")
    assert [owner for owner, _ in calls] == ["difference_body"]


def test_the_scan_sees_convex_hull_calls(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from .geometry import convex_hull\nconvex_hull(p)\n"
        "def f(P):\n    def g():\n        return geo.convex_hull(P.rows)\n    return g\n"
        "class C:\n    def m(self):\n        convex_hull(self.rows)\n"
    )
    assert calls_to(module, "convex_hull") == [(None, 2), ("f", 5), ("C", 9)]


def test_proof_builds_pyramids_only_to_walk_and_to_measure():
    """Inside ``proof.py`` only ``verify_bullets`` (the threshold walk) and
    ``lemma_vo_check`` (the pyramid volume rule) call ``cone_over``: the
    pyramid over the shrunk body is read from the threshold walk and a
    containment, never built."""
    calls = calls_to(SRC / "toricmld" / "proof.py", "cone_over")
    assert sorted({owner for owner, _ in calls}) == ["lemma_vo_check", "verify_bullets"]


def test_the_scan_sees_cone_over_calls(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from .geometry import cone_over\ndef verify_bullets(box):\n    return cone_over(1, box)\n"
        "def minkowski_certificate(j, shrunk):\n    return geometry.cone_over(j, shrunk)\n"
    )
    assert calls_to(module, "cone_over") == [("verify_bullets", 3), ("minkowski_certificate", 5)]


def test_no_bipyramid_is_built():
    """``geometry.py`` defines no ``bipyramid`` and no module calls one: the
    certificate is its rows, and its volume is derived."""
    tree = ast.parse((SRC / "toricmld" / "geometry.py").read_text(encoding="utf-8"))
    assert "bipyramid" not in {getattr(top, "name", None) for top in tree.body}
    assert [call for path in MODULES for call in calls_to(path, "bipyramid")] == []


def test_proof_measures_and_walks_only_in_prove_and_its_search():
    """Inside ``proof.py`` only ``prove`` and the lemma checks measure a
    volume, and only ``prove`` and ``shrink_to_unique`` walk a body: the
    certificate's volume and interior are derived in
    ``minkowski_certificate``, never measured or walked."""
    proof_py = SRC / "toricmld" / "proof.py"
    measured = {owner for owner, _ in calls_to(proof_py, "normalized_volume")}
    assert measured == {"prove", "lemma_vo_check", "lemma_lv_check"}
    walked = {owner for owner, _ in calls_to(proof_py, "enumerate_points")}
    assert walked == {"prove", "shrink_to_unique"}


def test_the_scan_sees_calls_by_owner(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def bipyramid(h, Q, z):\n    return Q\n"
        "def minkowski_certificate(body):\n    geometry.enumerate_points(body, strict=True)\n"
        "    return normalized_volume(bipyramid(1, body, z))\n"
        "def prove(pair):\n    return enumerate_points(pair)\n"
    )
    assert calls_to(module, "normalized_volume") == [("minkowski_certificate", 5)]
    assert calls_to(module, "enumerate_points") == [("minkowski_certificate", 4), ("prove", 7)]
    assert calls_to(module, "bipyramid") == [("minkowski_certificate", 5)]


def triangulation_names(path):
    """The lines of ``path`` that spell ``"_triangulation"`` as a string:
    that is how an entry is written into a polytope's instance cache
    (``vars(P)["_triangulation"] = …``, or a list of names to copy there).
    Reading ``P._triangulation`` pulls the polytope's own rows and is not
    flagged, so every triangulation stays its polytope's own pulling."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == "_triangulation"
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_triangulation_is_stored_into_a_cache(path):
    assert triangulation_names(path) == []


def test_the_scan_sees_a_stored_triangulation(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        'vars(C)["_triangulation"] = t\nsimplices = P._triangulation\n'
        'for name in ("_triangulation", "_basis"):\n    vars(Q)[name] = vars(P)[name]\n'
        'def f():\n    """Reads ``_triangulation``."""\nsetattr(Q, "_triangulation", t)\n'
    )
    assert triangulation_names(module) == [1, 3, 7]


def constant_verdicts(path):
    """The lines of ``path`` that build a ``CheckResult`` whose ``passed``
    (the second argument, or the keyword) is a literal constant: a check
    that cannot fail is no check."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if getattr(node.func, "id", getattr(node.func, "attr", None)) != "CheckResult":
            continue
        passed = [k.value for k in node.keywords if k.arg == "passed"] + node.args[1:2]
        if any(isinstance(p, ast.Constant) for p in passed):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_check_passes_a_constant(path):
    assert constant_verdicts(path) == []


def test_the_scan_sees_a_constant_verdict(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        'CheckResult("a", True, "detail")\nCheckResult("b", ok)\n'
        'proof.CheckResult(name="c", passed=False)\nCheckResult("d", passed=x and y)\n'
        'Other("e", True)\n'
    )
    assert constant_verdicts(module) == [1, 3]
