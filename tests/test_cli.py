import json
import random
from fractions import Fraction

import pytest

from tropcalc import cli, serialization as ser
from tropcalc.cli import main, parse_expression
from tropcalc.deltaforms import DeltaForm, PSFunction, equal
from tropcalc.errors import NotBalanced
from tropcalc.morphisms import AffineMap
from tropcalc.polyhedra import Polyhedron
from tropcalc.superforms import Poly, Superform

from util import random_balanced, random_pl, random_superform, standard_line


def sample_objects():
    rng = random.Random(41)
    return {
        "line": standard_line(),
        "fullspace": DeltaForm.full_space(2),
        "interval": Polyhedron(1, [((1,), 1), ((-1,), 0)]),
        "vol": Superform.monomial(1, (0,), (0,), Poly.var(1, 0)),
        "form": random_balanced(rng, 2, 1, 1, 1),
        "fullspace1": DeltaForm.full_space(1),
        "max_x_0": PSFunction.from_minmax(1, "max", [(1, 0), (0, 0)]),
        "phi": random_pl(rng, 2),
        "psq": random_pl(rng, 1) + PSFunction.from_poly(
            Poly(1, {(2,): Fraction(1, 3)})),
        "double": AffineMap(1, 1, ((2,),), (Fraction(1, 2),)),
        "proj": AffineMap.projection(2, 1),
    }


def semantically_same(a, b):
    if isinstance(a, DeltaForm):
        return equal(a, b)
    if isinstance(a, PSFunction):
        if sorted(c.key() for c in a.top_cells()) != \
                sorted(c.key() for c in b.top_cells()):
            return False
        return all(a.pieces[k] == b.pieces[k] for k in a.pieces)
    if isinstance(a, Polyhedron):
        return a.key() == b.key()
    if isinstance(a, AffineMap):
        return (a.matrix, a.translate) == (b.matrix, b.translate)
    return a == b


def test_round_trip_every_kind():
    objects = sample_objects()
    doc = ser.document_to_json(objects)
    back = ser.document_from_json(json.loads(ser.dumps(doc)))
    assert set(back) == set(objects)
    for name, obj in objects.items():
        assert semantically_same(obj, back[name]), name


def test_serialization_is_canonical():
    objects = sample_objects()
    one = ser.dumps(ser.document_to_json(objects))
    two = ser.dumps(ser.document_to_json(sample_objects()))
    assert one == two


def test_parse_errors():
    with pytest.raises(ser.ParseError):
        ser.document_from_json({"version": "1", "objects": {"x": {}}})
    with pytest.raises(ser.ParseError):
        ser.document_from_json({"version": "99", "objects": {}})
    with pytest.raises(ser.ParseError):
        ser.object_from_json({"object": "polyhedron", "rank": 1,
                              "ineqs": [[1, "0"], [-1, "-1"]], "eqs": []})


def write_doc(path, objects):
    ser.save_document(str(path), objects)
    return str(path)


def test_check_balance_command(tmp_path, capsys):
    file = write_doc(tmp_path / "doc.json", sample_objects())
    assert main(["check-balance", file, "line"]) == 0
    assert "balanced" in capsys.readouterr().out
    two_rays = DeltaForm.from_weights(2, 1, [
        (Polyhedron(2, [((-1, 0), 0)], [((0, 1), 0)]), 1),
        (Polyhedron(2, [((0, -1), 0)], [((1, 0), 0)]), 1),
    ])
    bad = write_doc(tmp_path / "bad.json", {"rays": two_rays})
    assert main(["check-balance", bad, "rays"]) == 1
    out = capsys.readouterr().out
    assert "(0,0)" in out
    assert main(["check-balance", file, "nope"]) == 2


def test_check_balance_malformed_file(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["check-balance", str(broken), "x"]) == 2


def test_compute_corner_and_wedge(tmp_path, capsys):
    file = write_doc(tmp_path / "doc.json", sample_objects())
    out = tmp_path / "out.json"
    assert main(["compute", file, "corner(max_x_0, fullspace1)",
                 "-o", str(out)]) == 0
    result = ser.load_document(str(out))["result"]
    assert equal(result, DeltaForm.from_weights(
        1, 1, [(Polyhedron.point((0,)), 1)]))
    assert main(["compute", file, "wedge(line, line)", "-o", str(out)]) == 0
    result = ser.load_document(str(out))["result"]
    origin = DeltaForm.from_weights(2, 2, [(Polyhedron.point((0, 0)), 1)])
    assert equal(result, origin)


def test_compute_pull_identity(tmp_path):
    objects = sample_objects()
    objects["idmap"] = AffineMap.identity(2)
    file = write_doc(tmp_path / "doc.json", objects)
    out = tmp_path / "out.json"
    assert main(["compute", file, "pull(idmap, line)", "-o", str(out)]) == 0
    assert equal(ser.load_document(str(out))["result"], standard_line())


@pytest.mark.parametrize("target_rank, translate", [(2, ["1"]),
                                                    (1, ["1", "2"])])
def test_map_with_a_translate_of_the_wrong_length_is_a_parse_error(
        tmp_path, capsys, target_rank, translate):
    doc = {"object": "affinemap", "source_rank": 2,
           "target_rank": target_rank,
           "matrix": [[1, 0], [0, 1]][:target_rank], "translate": translate}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"version": "1", "objects": {"f": doc}}))
    assert main(["compute", str(path), "graph(f)"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_compute_bad_expression(tmp_path, capsys):
    file = write_doc(tmp_path / "doc.json", sample_objects())
    assert main(["compute", file, "frobnicate(line)"]) == 2
    assert main(["compute", file, "wedge(line)"]) == 2
    assert main(["compute", file, "wedge(line, nope)"]) == 2
    assert main(["compute", file, "wedge(line, max_x_0)"]) == 2


def test_verify_random_suites(capsys):
    for suite in ("stokes", "pl"):
        code = main(["verify", "--random", "--suite", suite,
                     "--seed", "5", "--size", "count=3,r=2,deg=2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "3/3 passed" in out


def test_random_cycle_restarts_after_zero_corner_locus(monkeypatch):
    # The second function drawn is affine, so its corner locus on the line
    # drawn first is zero; the chain must start over and still reach
    # codimension 2.
    real_random_pl = cli._random_pl
    draws = []

    def random_pl(rng, rank):
        draws.append(rank)
        if len(draws) == 2:
            return PSFunction.from_minmax(rank, "max", [(1, 1, 0)])
        return real_random_pl(rng, rank)

    monkeypatch.setattr(cli, "_random_pl", random_pl)
    cycle = cli._random_cycle(random.Random(3), 2, 2)
    assert len(draws) >= 4
    assert not cycle.is_zero()
    assert cycle.l == 2


def test_verify_deterministic(capsys):
    argv = ["verify", "--random", "--suite", "green", "--seed", "7",
            "--size", "count=2"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_verify_file_mode_and_failure(tmp_path, capsys):
    objects = {"line": standard_line(), "phi":
               PSFunction.from_minmax(2, "max", [(1, 0, 0), (0, 1, 0),
                                                 (0, 0, 0)])}
    file = write_doc(tmp_path / "doc.json", objects)
    assert main(["verify", file, "--suite", "pl"]) == 0
    # corrupt a weight: the tropical PL identity must fail
    broken = standard_line() + DeltaForm.from_weights(
        2, 1, [(Polyhedron(2, [((-1, -1), 0)], [((1, -1), 0)]), 1)])
    file2 = write_doc(tmp_path / "bad.json", {"line": broken,
                                              "phi": objects["phi"]})
    assert main(["verify", file2, "--suite", "pl"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("size", ["count=x", "foo=1", "count=0", "r=0",
                                  "deg=-1"])
def test_verify_bad_size_is_a_usage_error(size, capsys):
    code = main(["verify", "--random", "--suite", "stokes", "--size", size])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_verify_file_mode_without_instances(tmp_path, capsys):
    # No PS function in the file: the pl suite has nothing to check.
    file = write_doc(tmp_path / "doc.json", {"line": standard_line()})
    assert main(["verify", file, "--suite", "pl"]) == 2
    captured = capsys.readouterr()
    assert "passed" not in captured.out
    assert captured.err.startswith("error:")


def test_verify_random_instance_that_raises_is_one_failure(monkeypatch,
                                                           capsys):
    real_check = cli.tropical_pl_check
    calls = []

    def flaky_check(phi, a):
        calls.append(phi)
        if len(calls) == 2:
            raise NotBalanced("injected")
        return real_check(phi, a)

    monkeypatch.setattr(cli, "tropical_pl_check", flaky_check)
    code = main(["verify", "--random", "--suite", "pl", "--seed", "5",
                 "--size", "count=3,r=2,deg=2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL pl[1]" in out
    assert "pass pl[2]" in out
    assert "pl: 2/3 passed" in out


def test_psfunction_with_a_lower_dimensional_cell_is_a_parse_error(
        tmp_path, capsys):
    half = ser.polyhedron_to_json(Polyhedron(1, [((1,), 0)]))
    point = ser.polyhedron_to_json(Polyhedron.point((0,)))
    for cells in ([half, point], [point]):
        doc = {"object": "psfunction", "rank": 1, "complex": cells,
               "pieces": [[{"exp": [1], "coef": "1"}]] * len(cells)}
        with pytest.raises(ser.ParseError):
            ser.psfunction_from_json(doc)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"version": "1", "objects": {"phi": doc}}))
        assert main(["check-balance", str(path), "phi"]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--random", "--suite", "bogus"])
    assert exc.value.code == 2


def test_integrate_command(tmp_path, capsys):
    file = write_doc(tmp_path / "doc.json", sample_objects())
    assert main(["integrate", file, "vol", "interval"]) == 0
    assert capsys.readouterr().out.strip() == "1/2"


def test_expression_parser():
    tree = parse_expression("wedge(corner(phi, a), b)")
    assert tree == ("call", "wedge",
                    [("call", "corner", [("name", "phi"), ("name", "a")]),
                     ("name", "b")])
