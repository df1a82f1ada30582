import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import quatrange as qr
from quatrange import Quaternion, cli, fileio, numrange, spectra
from quatrange.cli import main
from quatrange.geometry import signed_inner_distance

from conftest import seeded_model_operator


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


BUNDLED = Path(__file__).resolve().parent.parent / "demos" / "data" / "remark_operator.json"


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
    # a diagonal matrix's region is its exact polygon, nothing sampled: the
    # class (0, 1) and the real point (0, 0) where i and j cancel
    assert sorted(line for line in lines if line.endswith(",inner")) == [
        "0.0,0.0,inner", "0.0,1.0,inner"]
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


def _sspec_accounted_reference(M, T, spheres, tol):
    """verify's per-sphere check before its array passes: each sphere is a tail
    class, within max(tol, 1e-3) of the essential polygon, or a block sphere."""
    poly = qr.essential_bild(M)
    block_spec = qr.s_spectrum(M.block) if M.block_size else None
    tail_classes = qr.bild_points(T.diagonal()[M.block_size:])
    near_tail = [bool((np.hypot(*(tail_classes - s.point()).T) <= 1e-6).any()) for s in spheres]
    return all(
        near or signed_inner_distance(poly, s.point()) >= -max(tol, 1e-3)
        or (block_spec is not None and any(s.distance(b) <= 1e-6 for b in block_spec))
        for s, near in zip(spheres, near_tail))


def _verify_sspec(tmp_path, monkeypatch, M, flags, section_spheres=None):
    """Run verify on M; return its exit code, its sspec_accounted and the
    reference's answer on the section spheres verify saw.  section_spheres,
    if given, stands for the section's S-spectrum."""
    seen = []

    def spy(T):
        spheres = spectra.s_spectrum(T) if seen or section_spheres is None else section_spheres
        seen.append((T, spheres))
        return spheres

    monkeypatch.setattr(cli, "s_spectrum", spy)
    path, out = tmp_path / "op.json", tmp_path / "out"
    fileio.dump_operator(M, path)
    code = main(["verify", str(path), *flags, "--out", str(out)])
    T, spheres = seen[0]
    want = _sspec_accounted_reference(M, T, spheres, 1e-6)
    return code, read_summary(out)["checks"]["sspec_accounted"], want


def test_sspec_accounted_matches_the_per_sphere_check(tmp_path, monkeypatch):
    fast = ["--samples", "500", "--angles", "60"]
    runs = [(fileio.load_operator(BUNDLED), ["--section", str(n)]) for n in (100, 2000)]
    runs += [(seeded_model_operator(s), fast) for s in range(40)]
    for M, flags in runs:
        code, got, want = _verify_sspec(tmp_path, monkeypatch, M, flags)
        assert (code, got, want) == (0, True, True)
    # a block sphere (3, 1) away from the tail class (0, 1) and the essential
    # polygon, the segment from (0, -1) to (0, 1): the crafted set's third
    # sphere is accounted for only as block spectrum, its second only by the
    # polygon's tolerance 1e-3; each extra sphere lies just past the tolerance
    # that would account for it
    M = qr.ModelOperator(qr.QMatrix.from_quaternions([[Quaternion(3, 1, 0, 0)]]),
                         qr.ConstantTail(Quaternion(0, 1, 0, 0)),
                         [qr.SimilaritySphere(0.0, 1.0)], bound=3.5)
    accounted = [[0.0, 1.0], [0.0, 1.0005], [3.0, 1.0 + 5e-7]]
    for extra, ok in (([], True), ([[3.0, 1.0 + 2e-6]], False), ([[0.0, 1.002]], False)):
        crafted = qr.SphereSet(accounted + extra)
        code, got, want = _verify_sspec(tmp_path, monkeypatch, M, fast, crafted)
        assert (code, got, want) == (0 if ok else 1, ok, ok)


def test_verify_on_a_crowded_tail_holds_no_pair_list(tmp_path):
    # a decaying-periodic tail crowds its classes within 1e-6 of each other;
    # verify matches them by identity, so its memory stays linear in N
    path, out = tmp_path / "op.json", tmp_path / "out"
    fileio.dump_operator(seeded_model_operator(1), path)
    tracemalloc.start()
    try:
        code = main(["verify", str(path), "--section", "5000", "--samples", "500",
                     "--angles", "60", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert read_summary(out)["checks"]["sspec_accounted"] is True
    assert peak <= 4096 * 5000


def test_verify_fails_on_an_unaccounted_sphere(tmp_path, monkeypatch):
    # one far sphere in the default section's S-spectrum fails the run
    M = fileio.load_operator(BUNDLED)
    far = np.vstack([qr.s_spectrum(qr.truncate(M, 100)).points(), [[5.0, 5.0]]])
    assert _verify_sspec(tmp_path, monkeypatch, M, [], qr.SphereSet(far)) == (1, False, False)
    out = tmp_path / "out"
    summary = read_summary(out)
    assert summary["checks"]["sspec_accounted"] is False
    assert summary["pass"] is False
    assert all(v for k, v in summary["checks"].items() if k != "sspec_accounted")
    assert (out / "verify.csv").read_text().splitlines()[-1] == "sspec_accounted,False"


def test_verify_exits_3_when_memory_runs_out(tmp_path, monkeypatch, capsys):
    # a crowded section's S-spectrum can outgrow memory; that is a numerical
    # failure, not a failed verification
    def exhausted(T):
        raise MemoryError("Unable to allocate 1.5 GiB")

    monkeypatch.setattr(cli, "s_spectrum", exhausted)
    assert main(["verify", str(BUNDLED), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.strip() == "out of memory: Unable to allocate 1.5 GiB"


def test_the_module_entry_point_sets_the_process_exit_status(tmp_path):
    # the other tests read main()'s return value; this one the child's status
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(BUNDLED.parents[2] / "src")] + [p for p in [env.get("PYTHONPATH")] if p])

    def run(out, *flags):
        return subprocess.run([sys.executable, "-m", "quatrange.cli", "verify", str(BUNDLED),
                               *flags, "--out", str(tmp_path / out)],
                              capture_output=True, text=True, env=env, timeout=120)

    done = run("ok")
    assert done.returncode == 0, done.stderr
    assert read_summary(tmp_path / "ok")["pass"] is True
    done = run("parse", "--angles", "2")
    assert done.returncode == 2
    assert "angle count must be at least 3, got 2" in done.stderr
    assert not (tmp_path / "parse").exists()


def _count(monkeypatch, owner, name, log):
    """Wrap owner.name so each call appends (name, its m argument) to log."""
    func = getattr(owner, name)

    def counted(T, *args, **kwargs):
        log.append((name, kwargs.get("m", args[0] if args else None)))
        return func(T, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_verify_samples_nothing_on_a_diagonal_section(tmp_path, monkeypatch):
    # the default section of the bundled operator is diagonal: its region is
    # diagonal_bild's exact polygon, so --samples changes nothing
    log = []
    _count(monkeypatch, numrange, "nr_sample", log)
    _count(monkeypatch, numrange, "_sampled_bild", log)
    checks = []
    for samples in ("1", "20000"):
        out = tmp_path / samples
        assert main(["verify", str(BUNDLED), "--samples", samples, "--out", str(out)]) == 0
        summary = read_summary(out)
        assert summary["pass"] is True
        checks.append(summary["checks"])
    assert log == []
    assert checks[0] == checks[1]
    assert len(checks[0]) == 4 and all(checks[0].values())


def test_verify_samples_a_section_with_a_dense_block(tmp_path, monkeypatch):
    M = seeded_model_operator(0)
    assert M.block_size == 2 and M.block.block_split() == 2
    path = tmp_path / "block.json"
    fileio.dump_operator(M, path)
    # upper_bild samples the 2x2 block, not the 42-row section
    sampled = []
    sampled_bild = numrange._sampled_bild
    monkeypatch.setattr(numrange, "_sampled_bild",
                        lambda T, *args: sampled.append((T.n, args[0])) or sampled_bild(T, *args))
    out = tmp_path / "out"
    assert main(["verify", str(path), "--section", "40", "--samples", "3000",
                 "--angles", "90", "--out", str(out)]) == 0
    assert read_summary(out)["pass"] is True
    assert sampled == [(2, 3000)]


def test_verify_fails_numerically_when_the_closed_form_misses_h(tmp_path, monkeypatch):
    # diagonal_bild compares its polygon's support with h, the support of the
    # classes' hull (_hull_support); a shifted h breaks that check, so the run
    # is a numerical failure
    support = numrange._hull_support

    def shifted(hull, thetas):
        h, points = support(hull, thetas)
        return h + 1e-6, points

    monkeypatch.setattr(numrange, "_hull_support", shifted)
    out = tmp_path / "out"
    assert main(["verify", str(BUNDLED), "--out", str(out)]) == 3
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("command", ["bild", "lancaster", "verify"])
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_samples_below_one_are_rejected(matrix_file, remark_file, tmp_path, capsys,
                                        command, samples):
    # a diagonal section reads no samples, so the count is checked at the parse
    source = matrix_file if command == "bild" else remark_file
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(source), "--samples", samples, "--out", str(out)])
    assert exit_info.value.code == 2
    assert "sample count must be at least 1" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["bild", "lancaster", "verify"])
@pytest.mark.parametrize("angles", ["2", "0", "-1"])
def test_angles_below_three_are_rejected(matrix_file, remark_file, tmp_path, capsys,
                                         command, angles):
    # checked at the parse, before essential_bild or s_spectrum runs
    source = matrix_file if command == "bild" else remark_file
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(source), "--angles", angles, "--out", str(out)])
    assert exit_info.value.code == 2
    assert f"angle count must be at least 3, got {angles}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["bild", "lancaster", "verify"])
def test_negative_seed_is_rejected(matrix_file, remark_file, tmp_path, capsys, command):
    # a diagonal section draws nothing, so the seed is checked at the parse
    source = matrix_file if command == "bild" else remark_file
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(source), "--seed", "-1", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "seed must be at least 0, got -1" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


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


@pytest.mark.parametrize("literal", ["true", "false", '"0.5"'],
                         ids=["true", "false", "numeric_string"])
def test_numbers_must_be_json_numbers(tmp_path, literal):
    # json reads true as a bool, which float would take for 1.0
    out = tmp_path / "out"
    matrix = tmp_path / "matrix.json"
    matrix.write_text('{"n": 1, "entries": [[[%s, 0, 0, 0]]]}' % literal)
    with pytest.raises(fileio.ParseError, match="bad number"):
        fileio.load_matrix(matrix)
    assert main(["sspec", str(matrix), "--out", str(out)]) == 2

    # key paths into otherwise valid operator files
    operators = {"remark": qr.remark_operator(), "seeded": seeded_model_operator(0),
                 "affine": qr.remark_operator().affine(2.0, 0.5)}
    spots = [("remark", "block", "entries", 0, 0, 1), ("remark", "tail", "half"),
             ("remark", "limit_set", 0, "segment", "a"),
             ("remark", "limit_set", 0, "segment", "b0"), ("remark", "bound"),
             ("seeded", "tail", "amplitude"), ("seeded", "tail", "targets", 0, 0),
             ("seeded", "limit_set", 0, 0), ("seeded", "limit_set", 0, 1),
             ("affine", "tail", "a"), ("affine", "tail", "b")]
    for name, *spot in spots:
        path = tmp_path / f"{name}.json"
        fileio.dump_operator(operators[name], path)
        data = json.loads(path.read_text())
        node = data
        for key in spot[:-1]:
            node = node[key]
        node[spot[-1]] = "X"
        path.write_text(json.dumps(data).replace('"X"', literal))
        with pytest.raises(fileio.ParseError, match="bad number"):
            fileio.load_operator(path)
        assert main(["essential", str(path), "--out", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())


def test_an_integer_beyond_the_float_range_is_non_finite(tmp_path):
    matrix = tmp_path / "matrix.json"
    matrix.write_text('{"n": 1, "entries": [[[1%s, 0, 0, 0]]]}' % ("0" * 400))
    with pytest.raises(fileio.ParseError, match="non-finite"):
        fileio.load_matrix(matrix)
    assert main(["sspec", str(matrix), "--out", str(tmp_path / "out")]) == 2


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
