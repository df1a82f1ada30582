import json
from pathlib import Path

import numpy as np
import pytest

import quatrange as qr
from quatrange import Quaternion, fileio
from quatrange.cli import main


@pytest.fixture
def matrix_file(tmp_path):
    T = qr.QMatrix.diag([Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0)])
    path = tmp_path / "matrix.json"
    fileio.dump_matrix(T, path)
    return path


@pytest.fixture
def remark_file(tmp_path):
    path = tmp_path / "remark.json"
    fileio.dump_operator(qr.remark_operator(), path)
    return path


def read_summary(out_dir):
    return json.loads((Path(out_dir) / "summary.json").read_text())


# -- file formats ------------------------------------------------------------------


def test_matrix_round_trip(tmp_path):
    T = qr.QMatrix.from_quaternions([
        [Quaternion(1, 2, 3, 4), Quaternion(0, 0, 0, 0)],
        [Quaternion(0.5, -0.25, 0, 1), Quaternion(-1, 1, 0, 0)],
    ])
    path = tmp_path / "m.json"
    fileio.dump_matrix(T, path)
    back = fileio.load_matrix(path)
    assert np.array_equal(T.arr, back.arr)


def test_operator_round_trip(tmp_path):
    M = qr.remark_operator()
    path = tmp_path / "op.json"
    fileio.dump_operator(M, path)
    back = fileio.load_operator(path)
    assert np.array_equal(back.block.arr, M.block.arr)
    assert back.bound == M.bound
    assert np.array_equal(back.tail.prefix(50), M.tail.prefix(50))
    assert np.array_equal(qr.essential_bild(back), qr.essential_bild(M))


def test_operator_all_tail_kinds(tmp_path):
    tails = [
        qr.ConstantTail(Quaternion(0, 0.5, 0, 0)),
        qr.PeriodicTail([Quaternion(0, 0.5, 0, 0), Quaternion(0, -0.5, 0, 0)]),
        qr.ExplicitTail([Quaternion(1.0), Quaternion(0, 0.5, 0, 0)]),
        qr.DecayingPeriodicTail([Quaternion(0.2, 0.5, 0, 0), Quaternion(-0.3, 0.1, 0, 0)],
                                amplitude=0.05),
    ]
    for tail in tails:
        M = qr.ModelOperator(qr.QMatrix.zeros(0), tail,
                             [qr.SimilaritySphere(0.0, 0.5)], bound=1.0)
        path = tmp_path / f"{tail.kind}.json"
        fileio.dump_operator(M, path)
        back = fileio.load_operator(path)
        assert back.tail.kind == tail.kind
        assert np.array_equal(back.tail.prefix(10), tail.prefix(10))
    # the decaying_periodic loader checks its numbers like every other kind
    for bad in ({"amplitude": "X"}, {"targets": [[0.2, "X", 0, 0]]}):
        data = json.loads(path.read_text())
        data["tail"].update(bad)
        path.write_text(json.dumps(data).replace('"X"', "NaN"))
        with pytest.raises(fileio.ParseError, match="non-finite"):
            fileio.load_operator(path)


def test_mapped_tail_operators_round_trip(tmp_path):
    M = qr.remark_operator()
    path = tmp_path / "mapped.json"
    for op in (M.adjoint(), M.affine(2, -1), M.affine(0.5, 1).adjoint()):
        fileio.dump_operator(op, path)
        back = fileio.load_operator(path)
        assert back.tail.kind == op.tail.kind
        assert np.array_equal(back.tail.prefix(1000), op.tail.prefix(1000))
        assert back.limit_set == op.limit_set
        assert back.bound == op.bound
        assert np.array_equal(back.block.arr, op.block.arr)
    # the last file is an adjoint around an affine around the rationals tail
    data = json.loads(path.read_text())
    assert data["tail"]["kind"] == "adjoint"
    assert data["tail"]["base"]["kind"] == "affine"
    out = tmp_path / "out"
    nan_a = json.loads(json.dumps(data))
    nan_a["tail"]["base"]["a"] = "X"
    path.write_text(json.dumps(nan_a).replace('"X"', "NaN"))
    with pytest.raises(fileio.ParseError, match="non-finite"):
        fileio.load_operator(path)
    assert main(["essential", str(path), "--out", str(out)]) == 2
    unknown = json.loads(json.dumps(data))
    unknown["tail"]["base"]["base"]["kind"] = "mystery"
    path.write_text(json.dumps(unknown))
    with pytest.raises(fileio.ParseError, match="unknown tail kind"):
        fileio.load_operator(path)
    assert main(["essential", str(path), "--out", str(out)]) == 2


def test_malformed_file_raises(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(fileio.ParseError):
        fileio.load_matrix(path)
    path.write_text(json.dumps({"entries": [[[1, 0, 0]]]}))
    with pytest.raises(fileio.ParseError):
        fileio.load_matrix(path)


# -- subcommands ------------------------------------------------------------------


def test_bild_command(matrix_file, tmp_path):
    out = tmp_path / "out"
    code = main(["bild", str(matrix_file), "--samples", "2000", "--angles", "90",
                 "--seed", "7", "--out", str(out), "--svg"])
    assert code == 0
    lines = (out / "bild.csv").read_text().strip().splitlines()
    assert lines[0] == "a,b,kind"
    assert len(lines) > 2000
    summary = read_summary(out)
    assert summary["config"]["samples"] == 2000
    # both diagonal units lie on the class (0, 1)
    assert summary["outer_polygon"][-1][1] == pytest.approx(1.0, abs=1e-6)
    assert (out / "bild.svg").exists()


def test_sspec_command(matrix_file, tmp_path):
    out = tmp_path / "out"
    assert main(["sspec", str(matrix_file), "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["spheres"] == [[pytest.approx(0.0, abs=1e-9),
                                   pytest.approx(1.0, abs=1e-9)]]


def test_essential_command(remark_file, tmp_path):
    out = tmp_path / "out"
    assert main(["essential", str(remark_file), "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["vertices"] == [[0.0, -0.5], [0.0, 0.5]]
    csv = (out / "essential.csv").read_text()
    assert csv == "a,b\n0.0,-0.5\n0.0,0.5\n"


@pytest.mark.slow
def test_lancaster_command(remark_file, tmp_path):
    out = tmp_path / "out"
    code = main(["lancaster", str(remark_file), "--section", "40",
                 "--samples", "5000", "--angles", "60", "--out", str(out),
                 "--target=-1,1;1,1;0.3333333333333333,0;-0.3333333333333333,0",
                 "--edge=-0.3333333333333333,0,-1,1"])
    assert code == 0
    lines = (out / "lancaster.csv").read_text().strip().splitlines()
    assert lines[0] == "N,hausdorff,residual"
    assert len(lines) == 2
    summary = read_summary(out)
    assert summary["rows"][0]["hausdorff_target"] <= 0.05
    assert "sampling_gap" not in summary["rows"][0]
    assert summary["rows"][0]["hausdorff_gap"] > 0.0
    assert float(summary["residuals"]["40"]) > 0.0


@pytest.mark.parametrize("flag, message", [
    ("--edge=1,2,3", "--edge needs 4"),
    ("--edge=nan,0,1,1", "non-finite"),
    ("--target=nan,0;1,1", "non-finite"),
], ids=["edge_three_numbers", "edge_nan", "target_nan"])
def test_lancaster_rejects_bad_flags(remark_file, tmp_path, capsys, flag, message):
    code = main(["lancaster", str(remark_file), "--section", "5", "--samples", "200",
                 "--angles", "12", "--out", str(tmp_path / "out"), flag])
    assert code == 2
    assert message in capsys.readouterr().err


def test_unattained_probe_residual_is_null(remark_file, tmp_path):
    # no attained value projects into the window of an edge far from the bild,
    # so the residual is inf in the library and null / empty in the artifacts
    out = tmp_path / "out"
    assert main(["lancaster", str(remark_file), "--section", "5", "--samples", "200",
                 "--angles", "12", "--out", str(out), "--edge=5,5,6,6"]) == 0
    text = (out / "summary.json").read_text()
    assert "Infinity" not in text
    assert read_summary(out)["residuals"] == {"5": None}
    assert (out / "lancaster.csv").read_text().splitlines()[1].endswith(",")
    with pytest.raises(ValueError):
        fileio.write_json(tmp_path / "nan.json", {"x": float("nan")})


def test_verify_command(remark_file, tmp_path):
    out = tmp_path / "out"
    code = main(["verify", str(remark_file), "--samples", "5000", "--angles", "90",
                 "--section", "50", "--out", str(out)])
    assert code == 0
    summary = read_summary(out)
    assert summary["pass"] is True
    assert summary["essential_endpoints"]["b_min"] == -0.5
    assert summary["essential_endpoints"]["b_max"] == 0.5
    vertices = summary["essential_vertices"]
    assert [0.0, -0.5] in vertices and [0.0, 0.5] in vertices


def test_verify_the_bundled_operator_at_section_500(tmp_path):
    # s_spectrum reads the 1004 x 1004 chi of this diagonal section in closed form
    data = Path(__file__).resolve().parent.parent / "demos" / "data" / "remark_operator.json"
    out = tmp_path / "out"
    code = main(["verify", str(data), "--section", "500", "--samples", "2000",
                 "--out", str(out)])
    assert code == 0
    assert read_summary(out)["pass"] is True


def test_removed_depth_flag_is_rejected(matrix_file, tmp_path, capsys):
    # no command read --depth, so it is gone rather than echoed into the config
    with pytest.raises(SystemExit) as exit_info:
        main(["bild", str(matrix_file), "--depth", "5", "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert "--depth" in capsys.readouterr().err


_UNREAD_FLAGS = [
    ("sspec", ["--seed", "1"]), ("sspec", ["-m", "100"]), ("sspec", ["-k", "12"]),
    ("sspec", ["-N", "5"]), ("sspec", ["--tol", "1e-3"]), ("sspec", ["--svg"]),
    ("essential", ["--seed", "1"]), ("essential", ["-m", "100"]),
    ("essential", ["-k", "12"]), ("essential", ["-N", "5"]),
    ("essential", ["--tol", "1e-3"]),
    ("bild", ["-N", "5"]),
    ("lancaster", ["--tol", "1e-3"]),
    ("verify", ["--svg"]),
]


@pytest.mark.parametrize("command, flag", _UNREAD_FLAGS,
                         ids=[f"{c}{f[0]}" for c, f in _UNREAD_FLAGS])
def test_unread_flags_are_rejected(matrix_file, remark_file, tmp_path, capsys,
                                   command, flag):
    # a command accepts only the flags it reads, so none is echoed unused
    source = matrix_file if command in ("bild", "sspec") else remark_file
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(source), *flag, "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert flag[0] in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lancaster", "verify"])
@pytest.mark.parametrize("size", ["0", "-3"])
def test_section_below_one_is_rejected(remark_file, tmp_path, capsys, command, size):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(remark_file), "--section", size, "--out", str(out)])
    assert exit_info.value.code == 2
    assert "section size must be at least 1" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("command", ["bild", "verify"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_bad_tolerance_is_rejected(matrix_file, remark_file, tmp_path, capsys, command, tol):
    source = matrix_file if command == "bild" else remark_file
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(source), "--tol", tol, "--samples", "200", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "--tol" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    out = tmp_path / "out"
    assert main(["bild", str(bad), "--out", str(out)]) == 2
    assert main(["essential", str(bad), "--out", str(out)]) == 2


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_numerical_failure_exit_code(tmp_path):
    # LinAlgError subclasses ValueError but is a numerical failure, not a parse error
    big = Quaternion(1e300, 0, 0, 0)
    T = qr.QMatrix.from_quaternions([[big, -big], [big, big]])
    path = tmp_path / "huge.json"
    fileio.dump_matrix(T, path)
    assert main(["sspec", str(path), "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_numbers_rejected(remark_file, tmp_path, literal):
    out = tmp_path / "out"
    matrix = tmp_path / "matrix.json"
    matrix.write_text('{"n": 1, "entries": [[[%s, 0, 0, 0]]]}' % literal)
    with pytest.raises(fileio.ParseError, match="non-finite"):
        fileio.load_matrix(matrix)
    assert main(["sspec", str(matrix), "--out", str(out)]) == 2

    # key paths into an otherwise valid operator file
    spots = [("block", "entries", 0, 0, 1), ("tail", "half"),
             ("limit_set", 0, "segment", "b1"), ("bound",)]
    for spot in spots:
        data = json.loads(remark_file.read_text())
        node = data
        for key in spot[:-1]:
            node = node[key]
        node[spot[-1]] = "X"
        path = tmp_path / f"op_{spot[0]}.json"
        path.write_text(json.dumps(data).replace('"X"', literal))
        with pytest.raises(fileio.ParseError, match="non-finite"):
            fileio.load_operator(path)
        assert main(["essential", str(path), "--out", str(out)]) == 2


@pytest.mark.parametrize("text", ["[1, 2]", "null", '"x"', "3"],
                         ids=["list", "null", "string", "number"])
def test_operator_file_must_hold_an_object(tmp_path, text):
    path = tmp_path / "op.json"
    path.write_text(text)
    with pytest.raises(fileio.ParseError, match="JSON object"):
        fileio.load_operator(path)
    assert main(["essential", str(path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("n", ["1.5", "1.0", "true", '"1"'])
def test_matrix_size_must_be_an_integer(tmp_path, n):
    path = tmp_path / "matrix.json"
    path.write_text('{"n": %s, "entries": [[[1, 0, 0, 0]]]}' % n)
    with pytest.raises(fileio.ParseError, match="must be an integer"):
        fileio.load_matrix(path)
    assert main(["sspec", str(path), "--out", str(tmp_path / "out")]) == 2


def test_empty_matrix_is_a_parse_error(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"n": 0, "entries": []}')
    assert main(["bild", str(path), "--out", str(tmp_path / "out")]) == 2
    # an operator's block may still be empty
    M = qr.ModelOperator(qr.QMatrix.zeros(0), qr.ConstantTail(Quaternion(0, 1, 0, 0)),
                         [qr.SimilaritySphere(0.0, 1.0)], bound=1.5)
    op = tmp_path / "op.json"
    fileio.dump_operator(M, op)
    data = json.loads(op.read_text())
    data["block"] = {"n": 0, "entries": []}
    op.write_text(json.dumps(data))
    assert fileio.load_operator(op).block_size == 0


def test_validation_error_exit_code(tmp_path):
    M = qr.ModelOperator(qr.QMatrix.zeros(0), qr.ConstantTail(Quaternion(0, 1, 0, 0)),
                         [qr.SimilaritySphere(4.0, 0.0)], bound=1.5)
    path = tmp_path / "phantom.json"
    fileio.dump_operator(M, path)
    out = tmp_path / "out"
    assert main(["essential", str(path), "--out", str(out)]) == 2


def test_byte_identical_reruns(remark_file, matrix_file, tmp_path):
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / f"run_{tag}"
        assert main(["verify", str(remark_file), "--samples", "3000",
                     "--angles", "60", "--section", "30", "--seed", "11",
                     "--out", str(out)]) == 0
        assert main(["bild", str(matrix_file), "--samples", "3000",
                     "--angles", "60", "--seed", "11",
                     "--out", str(out / "bild")]) == 0
        runs.append(out)
    for rel in ("summary.json", "verify.csv", "bild/summary.json", "bild/bild.csv"):
        b1 = (runs[0] / rel).read_bytes()
        b2 = (runs[1] / rel).read_bytes()
        assert b1 == b2, f"outputs differ in {rel}"
