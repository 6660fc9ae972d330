import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hspovm.catalog import make_hs_povm
from hspovm.cli import _COMMANDS, _build_parser, main
from hspovm.entropy import DEFAULT_GRID, _entropy_values, fibonacci_sphere


def run_cli(args, capsys):
    code = main(args)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("family, code", [("cube", 0), ("nosuch", 2)])
def test_python_dash_m_runs_the_cli(family, code):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "hspovm", "minimize", "--family", family],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    if code == 0:
        assert json.loads(proc.stdout)["count"] == 8
    else:
        assert proc.stdout == "" and "unknown POVM family" in proc.stderr


class TestGenerateValidate:
    def test_generate_cube(self, tmp_path, capsys):
        out = tmp_path / "cube.json"
        code = main(["generate", "--family", "cube", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["family"] == "cube"
        assert len(payload["vectors"]) == 8
        assert payload["schema_version"] == 1

    def test_validate_generated_file(self, tmp_path, capsys):
        out = tmp_path / "octa.json"
        main(["generate", "--family", "octahedron", "--out", str(out)])
        code, text = run_cli(["validate", "--in", str(out)], capsys)
        assert code == 0
        payload = json.loads(text)
        assert payload["is_povm"] and payload["informationally_complete"]
        assert payload["design_order"] == 3
        # sum_{x,y} P_s(x . y) / k^2 over the Gram matrix: the dots are 1 and
        # -1 six times each and 0 otherwise, so only P_4(0) = 3/8 survives
        moments = dict(payload["moment_deviation"])
        assert sorted(moments) == [1, 2, 3, 4, 5]
        assert float(moments[4]) == pytest.approx((12 + 24 * 3 / 8) / 36, abs=1e-15)
        assert all(abs(float(moments[s])) < 1e-15 for s in (1, 2, 3, 5))

    def test_generate_ngon(self, capsys):
        code, text = run_cli(["generate", "--family", "n-gon", "--n", "5"], capsys)
        assert code == 0
        assert len(json.loads(text)["vectors"]) == 5


class TestEntropyMap:
    def test_columns_and_bounds(self, capsys):
        code, text = run_cli(
            ["entropy-map", "--family", "octahedron", "--grid", "1000"], capsys)
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "x,y,z,H,Hrel"
        assert len(lines) == 1001
        for line in lines[1:]:
            x, y, z, H, rel = map(float, line.split(","))
            assert math.log(3) - 1e-9 <= H <= math.log(6) + 1e-9
            assert abs(H + rel - math.log(6)) < 1e-12

    def test_deterministic_output(self, capsys):
        args = ["entropy-map", "--family", "cube", "--grid", "500"]
        _, first = run_cli(args, capsys)
        _, second = run_cli(args, capsys)
        assert first == second

    @pytest.mark.parametrize("bits", [False, True])
    def test_rows_match_per_value_formatting(self, bits, capsys):
        # the CSV is formatted in one call; each field must read exactly as
        # format(value, ".17g") of the entropy at that lattice point
        def scale(value):
            return value / math.log(2.0) if bits else value

        povm = make_hs_povm("icosidodecahedron")
        points = fibonacci_sphere(777)
        expected = ["x,y,z,H,Hrel"]
        for p, H in zip(points, _entropy_values(points, povm)):
            H = scale(H)
            fields = (*p, H, scale(math.log(povm.k)) - H)
            expected.append(",".join(format(float(v), ".17g") for v in fields))
        args = ["entropy-map", "--family", "icosidodecahedron", "--grid", "777"]
        code, text = run_cli(args + ["--bits"] * bits, capsys)
        assert code == 0
        assert text == "\n".join(expected) + "\n"


class TestMinimize:
    def test_tetrahedron_minima(self, capsys):
        code, text = run_cli(
            ["minimize", "--family", "tetrahedron", "--grid", "20000"], capsys)
        assert code == 0
        payload = json.loads(text)
        assert payload["count"] == 4
        for entry in payload["minima"]:
            assert entry["kind"] == "min"
            assert entry["type"] == "I"
            assert float(entry["value"]) == pytest.approx(math.log(3), abs=1e-8)

    def test_report_alias(self, tmp_path):
        out = tmp_path / "extrema.json"
        code = main(["minimize", "--family", "digon", "--report", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["count"] == 2


class TestClassify:
    def test_cube_default_points(self, capsys):
        code, text = run_cli(["classify", "--family", "cube"], capsys)
        assert code == 0
        payload = json.loads(text)
        kinds = {p["kind"] for p in payload["points"]}
        assert "min" in kinds        # the cube orbit itself (type I)

    def test_generated_file_classifies_like_the_family(self, tmp_path, capsys):
        out = tmp_path / "cube.json"
        main(["generate", "--family", "cube", "--out", str(out)])
        code, from_file = run_cli(["classify", "--in", str(out)], capsys)
        assert code == 0
        assert from_file == run_cli(["classify", "--family", "cube"], capsys)[1]

    @pytest.mark.parametrize("args", [["--family", "cube"], ["--family", "5-gon"],
                                      ["--family", "rectangle", "--alpha", "0.8"],
                                      ["--family", "rectangle", "--alpha", "1.4"]],
                             ids=["cube", "5-gon", "rectangle 0.8", "rectangle 1.4"])
    def test_rotated_file_classifies_like_the_family(self, args, tmp_path, capsys):
        # the points are carried over by the file's rotation; kinds, types,
        # values and statistics are the family's
        out = tmp_path / "family.json"
        main(["generate", *args, "--out", str(out)])
        q, r = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        q[:, 0] *= np.sign(np.linalg.det(q))
        payload = json.loads(out.read_text())
        payload["vectors"] = (np.array(payload["vectors"]) @ q.T).tolist()
        out.write_text(json.dumps(payload))
        points = []
        for source in (["--in", str(out)], args):
            code, text = run_cli(["classify", *source], capsys)
            assert code == 0
            points.append(json.loads(text)["points"])
        (rotated, canonical) = points
        assert [(p["kind"], p["type"]) for p in rotated] == [
            (p["kind"], p["type"]) for p in canonical]
        for a, b in zip(rotated, canonical):
            assert float(a["value"]) == pytest.approx(float(b["value"]), abs=1e-12)
            assert (a["statistic"] is None) == (b["statistic"] is None)
            if a["statistic"] is not None:
                assert float(a["statistic"]) == pytest.approx(float(b["statistic"]), abs=1e-9)

    def test_custom_file_gets_the_cube_s_points(self, tmp_path, capsys):
        # the label decides nothing: the cube's vectors labelled custom have
        # the cube's inert points, and the payload echoes the label
        out = tmp_path / "custom.json"
        main(["generate", "--family", "cube", "--out", str(out)])
        out.write_text(out.read_text().replace('"cube"', '"custom"'))
        code, text = run_cli(["classify", "--in", str(out)], capsys)
        _, cube = run_cli(["classify", "--family", "cube"], capsys)
        assert code == 0 and json.loads(text)["family"] == "custom"
        assert json.loads(text)["points"] == json.loads(cube)["points"]
        code, text = run_cli(["classify", "--in", str(out), "--point=-1,-1,-1"], capsys)
        assert code == 0 and json.loads(text)["points"][0]["type"] == "I"

    def test_unmatched_file_without_point_is_refused(self, tmp_path, capsys):
        # +-x, +-y, +-(0.6, 0, 0.8) is congruent to no member: no symmetry
        # forces a critical point, so one must be named
        out = tmp_path / "skew.json"
        out.write_text(json.dumps({"vectors": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                                               [0.6, 0, 0.8], [-0.6, 0, -0.8]]}))
        assert main(["classify", "--in", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no symmetry forces a critical point; name the point" in captured.err

    def test_explicit_point(self, capsys):
        code, text = run_cli(
            ["classify", "--family", "octahedron", "--point", "0,0,-1"], capsys)
        payload = json.loads(text)
        assert payload["points"][0]["type"] == "I"
        assert payload["points"][0]["kind"] == "min"

    @pytest.mark.parametrize("point, plain", [("1e308,1e308,0", "1,1,0"),
                                              ("-1e-320,0,0", "-1,0,0")])
    def test_point_scale_does_not_matter(self, point, plain, capsys):
        # a point whose norm would overflow or underflow classifies as the
        # same direction written plainly, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = run_cli(["classify", "--family", "octahedron", f"--point={point}"],
                             capsys)
        assert scaled == run_cli(["classify", "--family", "octahedron", f"--point={plain}"],
                                 capsys)

    def test_nan_point_is_a_usage_error(self, capsys):
        assert main(["classify", "--family", "cube", "--point", "nan,0,0"]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_nan_vector_in_file_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "cube.json"
        main(["generate", "--family", "cube", "--out", str(out)])
        payload = json.loads(out.read_text())
        payload["vectors"][0] = [math.nan, 0.0, 0.0]
        out.write_text(json.dumps(payload))
        assert main(["entropy-map", "--in", str(out), "--grid", "10"]) == 2
        assert "not finite" in capsys.readouterr().err


class TestCertify:
    @pytest.mark.parametrize("family", ["tetrahedron", "cube"])
    def test_valid_families_exit_zero(self, family, capsys):
        code, text = run_cli(["certify", "--family", family], capsys)
        assert code == 0
        payload = json.loads(text)
        assert payload["valid"]
        assert float(payload["min_gap"]) >= -1e-12

    def test_icosidodecahedron_payload(self, tmp_path):
        out = tmp_path / "cert.json"
        code = main(["certify", "--family", "icosidodecahedron",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["sturm_root_count"] == 0
        assert payload["sturm_precision_bits"] <= 512
        assert float(payload["wall_clock_seconds"]) < 60.0
        assert payload["invariant_coefficients"].keys() == {"A", "B", "C", "D"}

    def test_invalid_certificate_exits_one(self, capsys, monkeypatch):
        import dataclasses

        import hspovm.cli as cli_mod
        original = cli_mod.cert_mod.certify_minimum

        def doctored(povm, kernel=None):
            cert = original(povm)
            return dataclasses.replace(
                cert, orbit_min_verdict=False,
                reason="doctored for the exit-code test")

        monkeypatch.setattr(cli_mod.cert_mod, "certify_minimum", doctored)
        code, text = run_cli(["certify", "--family", "digon"], capsys)
        assert code == 1
        assert not json.loads(text)["valid"]


class TestInfoPower:
    def test_table_format(self, capsys):
        code, text = run_cli(["info-power", "--family", "all"], capsys)
        assert code == 0
        assert "icosidodecahedron" in text

    def test_csv_format(self, capsys):
        code, text = run_cli(
            ["info-power", "--family", "all", "--format", "csv"], capsys)
        rows = text.strip().split("\n")
        assert rows[0] == "family,k,W"
        assert len(rows) == 9      # header + the eight named families

    def test_bits_flag(self, capsys):
        _, nats = run_cli(["info-power", "--family", "digon", "--format",
                           "csv"], capsys)
        _, bits = run_cli(["info-power", "--family", "digon", "--format",
                           "csv", "--bits"], capsys)
        w_nats = float(nats.strip().split("\n")[1].split(",")[2])
        w_bits = float(bits.strip().split("\n")[1].split(",")[2])
        assert w_bits == pytest.approx(w_nats / math.log(2), abs=1e-12)
        assert w_bits == pytest.approx(1.0, abs=1e-12)


class TestOtherCommands:
    def test_table5(self, capsys):
        code, text = run_cli(["table5"], capsys)
        assert code == 0
        # header + eight family rows + average row + max-delta line
        assert text.count("\n") == 11
        max_delta = float(text.strip().split()[-1])
        assert max_delta < 5e-6

    def test_ngon_sweep(self, capsys):
        code, text = run_cli(["ngon-sweep", "--range", "3..8"], capsys)
        rows = text.strip().split("\n")
        assert rows[0] == "n,W"
        assert len(rows) == 7
        n4 = float(rows[2].split(",")[1])
        assert n4 == pytest.approx(0.5 * math.log(2), abs=1e-12)

    def test_dynent(self, capsys):
        code, text = run_cli(
            ["dynent", "--family", "cube", "--rotation",
             "axis=z,angle=0.7853981633974483"], capsys)
        assert code == 0
        payload = json.loads(text)
        value = float(payload["dynamical_entropy"])
        assert value == pytest.approx(float(payload["entropy_rate_check"]),
                                      abs=1e-12)
        assert math.log(4) <= value <= math.log(8)

    def test_dynent_depth_is_not_capped(self, capsys):
        from hspovm.dynamics import UnitaryAsRotation, empirical_entropy_rate
        code, text = run_cli(["dynent", "--family", "cube", "--depth", "5"], capsys)
        assert code == 0
        expected = empirical_entropy_rate(UnitaryAsRotation.identity(),
                                          make_hs_povm("cube"), 5)
        assert json.loads(text)["entropy_rate_check"] == format(expected, ".17g")

    def test_dynent_depth_over_budget_is_usage_error(self, capsys):
        # 30^9 strings exceed the enumeration budget
        assert main(["dynent", "--family", "icosidodecahedron", "--depth", "8"]) == 2

    def test_bifurcation(self, capsys):
        code, text = run_cli(["bifurcation"], capsys)
        assert float(json.loads(text)["threshold"]) == pytest.approx(
            1.17056, abs=1e-4)

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["certify", "--family"])
        assert err.value.code == 2

    def test_unknown_family_exit_code(self, capsys):
        assert main(["certify", "--family", "hypercube"]) == 2

    @pytest.mark.parametrize("argv", [
        ["certify", "--family", "cube", "--seed", "42"],
        ["generate", "--family", "cube", "--seed", "42"],
        ["certify", "--family", "cube", "--precision-bits", "320"],
        *[[name, "--format", "json"] for name in (
            "generate", "validate", "entropy-map", "minimize", "classify",
            "certify", "ngon-sweep", "dynent", "bifurcation", "table5")],
        *[[name, "--bits"] for name in (
            "generate", "validate", "certify", "bifurcation", "table5")],
    ], ids=lambda argv: f"{argv[0]}{argv[-2] if len(argv) > 2 else argv[-1]}")
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        # a defect inside the certificate pipeline is neither a usage error
        # nor a certificate verdict; its message is cut to one line
        import hspovm.certificate as certificate

        def defect(kernel, nodes):
            raise ZeroDivisionError("injected defect\nsecond line")

        monkeypatch.setattr(certificate, "_remainder_sign", defect)
        certificate._member_certificate.cache_clear()   # a memoized cube would hide it
        try:
            assert main(["certify", "--family", "cube"]) == 3
        finally:
            certificate._member_certificate.cache_clear()
        err = capsys.readouterr().err
        assert err == "error: ZeroDivisionError: injected defect\n"

    def test_undecided_interval_sign_is_a_certificate_failure(self, capsys, monkeypatch):
        # a sign still open at the top of the precision ladder is a failed
        # proof, not a defect: exit 1 with the reason
        import hspovm.certificate as certificate

        monkeypatch.setattr(certificate, "INTERVAL_PRECISIONS", (8,))
        certificate._member_certificate.cache_clear()
        try:
            code, text = run_cli(["certify", "--family", "icosidodecahedron"], capsys)
        finally:
            certificate._member_certificate.cache_clear()
        payload = json.loads(text)
        assert code == 1 and not payload["valid"] and not payload["orbit_min_verdict"]
        assert payload["reason"] == ("interval sign undecided: "
                                     "C enclosure straddles zero at 8 bits")
        assert payload["sturm_precision_bits"] == 8 and payload["sturm_root_count"] is None

    @pytest.mark.parametrize("reflect", [False, True], ids=["rotated", "reflected"])
    @pytest.mark.parametrize("family", ["digon", "tetrahedron", "octahedron", "cube",
                                        "cuboctahedron", "icosahedron", "dodecahedron",
                                        "icosidodecahedron",
                                        *(f"{n}-gon" for n in range(3, 13))])
    def test_rotated_file_certifies_as_its_family(self, family, reflect, tmp_path,
                                                  capsys):
        # a rotated or reflected file is a copy of its family's registry
        # member, whose certificate it gets: the --family payload, exit 0
        q, r = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        q *= np.sign(np.linalg.det(q)) * (-1 if reflect else 1)
        coords = make_hs_povm(family).matrix() @ q.T
        path = tmp_path / f"rotated-{family}.json"
        path.write_text(json.dumps({"vectors": coords.tolist(), "family": family}))
        payloads = []
        for args in (["--in", str(path)], ["--family", family]):
            code, text = run_cli(["certify", *args], capsys)
            assert code == 0
            payloads.append(json.loads(text))
            del payloads[-1]["wall_clock_seconds"]
        assert payloads[0] == payloads[1]


_OUT = [(("--out",), "out", None)]
_BITS = [(("--bits",), "bits", False)]
_SOURCE = [(("--family",), "family", None), (("--n",), "n", None),
           (("--alpha",), "alpha", None), (("--in",), "infile", None)]
OPTIONS = {   # subcommand -> (option strings, dest, default), in --help order
    "generate": _OUT + _SOURCE,
    "validate": _OUT + _SOURCE,
    "minimize": [(("--out", "--report"), "out", None)] + _BITS + _SOURCE
                + [(("--grid",), "grid", DEFAULT_GRID)],
    "classify": _OUT + _BITS + _SOURCE + [(("--point",), "point", None)],
    "certify": _OUT + _SOURCE,
    "dynent": _OUT + _BITS + _SOURCE + [(("--rotation",), "rotation", None),
                                        (("--depth",), "depth", 3)],
    "entropy-map": _OUT + _BITS + _SOURCE + [(("--grid",), "grid", DEFAULT_GRID)],
    "info-power": _OUT + _BITS + [(("--format",), "fmt", "table"),
                                  (("--family",), "family", "all"),
                                  (("--n",), "n", None)],
    "ngon-sweep": _OUT + _BITS + [(("--range",), "ngon_range", "3..64")],
    "bifurcation": _OUT,
    "table5": _OUT,
}


def _subparsers() -> dict:
    parser = _build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestFlags:
    """Every subcommand's flags pinned: a dropped, renamed or re-defaulted
    option fails here."""

    def test_subcommands_in_order(self):
        assert list(_subparsers()) == list(OPTIONS)

    @pytest.mark.parametrize("name", list(OPTIONS))
    def test_options(self, name):
        actions = [a for a in _subparsers()[name]._actions if a.dest != "help"]
        assert [(tuple(a.option_strings), a.dest, a.default)
                for a in actions] == OPTIONS[name]


USAGE_ERRORS = [
    (["minimize", "--family", "rectangle"], "rectangle family needs --alpha"),
    (["ngon-sweep", "--range", "3-5"], "bad range '3-5'; expected e.g. 3..64"),
    (["dynent", "--family", "cube", "--rotation", "spin=1"],
     "bad rotation component 'spin=1'"),
    (["dynent", "--family", "cube", "--rotation", "axis=0:0:0,angle=1"],
     "rotation axis [0.0, 0.0, 0.0] is zero or not finite"),
    (["classify", "--family", "cube", "--point", "1,2"],
     "--point '1,2' has 2 coordinates; expected x,y,z"),
    (["classify", "--family", "cube", "--point", "1,2,3,4"],
     "--point '1,2,3,4' has 4 coordinates; expected x,y,z"),
    (["classify", "--family", "cube", "--point", "0,0,0"], "--point '0,0,0' is zero"),
    (["dynent", "--family", "cube", "--rotation", "axis=1:2,angle=1"],
     "rotation axis [1.0, 2.0] is not three numbers"),
    (["dynent", "--family", "cube", "--rotation", "axis=1:2:3:4,angle=1"],
     "rotation axis [1.0, 2.0, 3.0, 4.0] is not three numbers"),
    (["dynent", "--family", "cube", "--rotation", "axis="], "bad rotation component 'axis='"),
    (["dynent", "--family", "cube", "--rotation", "angle=nan"],
     "rotation angle 'nan' is not finite"),
    # an option that would do nothing is refused
    (["ngon-sweep", "--range", "5..3"], "--range '5..3' holds no n-gon: need 2 <= lo <= hi"),
    (["ngon-sweep", "--range", "1..3"], "--range '1..3' holds no n-gon: need 2 <= lo <= hi"),
    (["generate", "--family", "cube", "--n", "5"], "--n is read by --family n-gon only"),
    (["generate", "--family", "5-gon", "--n", "6"], "--n is read by --family n-gon only"),
    (["info-power", "--family", "cube", "--n", "5"], "--n is read by --family n-gon only"),
    (["info-power", "--n", "5"], "--n is read by --family n-gon only"),
    (["generate", "--family", "cube", "--alpha", "1"],
     "--alpha is read by --family rectangle only"),
    (["minimize", "--family", "4-gon", "--alpha", "1"],
     "--alpha is read by --family rectangle only"),
    (["certify", "--family", "cube", "--in", "cube.json"],
     "--in and --family both name the POVM; give one"),
    (["dynent", "--family", "icosidodecahedron", "--depth", "8"],
     "--depth 8 needs 30^9 outcome strings, over the budget of 1e7; "
     "the deepest --depth for icosidodecahedron is 3"),
    # an empty value is refused, not read as the option's absence
    (["classify", "--family", "cube", "--point", ""], "--point is empty"),
    (["dynent", "--family", "cube", "--rotation", ""], "--rotation is empty"),
    (["generate", "--family", "cube", "--out", ""], "--out is empty"),
    (["minimize", "--family", "cube", "--report", ""], "--out is empty"),
    (["generate", "--in", "", "--family", "cube"], "--in is empty"),
    (["generate", "--family", ""], "--family is empty"),
    (["generate"], "no POVM: give --family or --in"),
]

#: POVM files that are not a JSON object with a list of three-number vectors
#: and a string label
MALFORMED_FILES = {
    "two-components": '{"vectors": [[1, 0], [-1, 0]]}',
    "four-components": '{"vectors": [[1, 0, 0, 5], [-1, 0, 0, 7]]}',
    "ragged": '{"vectors": [[1, 0, 0], [-1, 0]]}',
    "nested": '{"vectors": [[[1], [0], [0]], [[-1], [0], [0]]]}',
    "empty": '{"vectors": []}',
    "no-vectors": '{"family": "cube"}',
    "top-level-list": '[[1, 0, 0], [-1, 0, 0]]',
    "vectors-number": '{"vectors": 7}',
    "vectors-string": '{"vectors": "100"}',
    "vectors-object": '{"vectors": {"a": [1, 0, 0]}}',
    "family-number": '{"vectors": [[1, 0, 0], [-1, 0, 0]], "family": 5}',
    "null": '{"vectors": [[1, 0, null], [-1, 0, 0]]}',
    "boolean": '{"vectors": [[true, 0, 0], [-1, 0, 0]]}',
    "string": '{"vectors": [["1", 0, 0], [-1, 0, 0]]}',
    "infinite": '{"vectors": [[1e999, 0, 0], [-1, 0, 0]]}',
    "huge-integer": '{"vectors": [[1' + '0' * 400 + ', 0, 0], [-1, 0, 0]]}',
    "truncated": '{"vectors": [[1, 0, 0], [-1, 0, 0]',
}


class TestUsageErrors:
    """A malformed input exits 2 with one `error:` line, no stdout and no
    warning."""

    @pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                             ids=[" ".join(argv) for argv, _ in USAGE_ERRORS])
    def test_one_error_line(self, argv, message, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        [command, "--family", "cube", option, value]
        for command, option in (("entropy-map", "--grid"), ("minimize", "--grid"),
                                ("dynent", "--depth"))
        for value in ("0", "-5")], ids=" ".join)
    def test_counts_are_positive(self, argv, capsys):
        # argparse refuses the value itself, naming the option
        with pytest.raises(SystemExit) as err:
            main(argv)
        captured = capsys.readouterr()
        assert (err.value.code, captured.out) == (2, "")
        assert captured.err.splitlines()[-1] == (
            f"hspovm {argv[0]}: error: argument {argv[3]}: "
            f"invalid positive_int value: '{argv[4]}'")

    @pytest.mark.parametrize("depth", ["9", "100"])
    def test_depth_is_at_most_8(self, depth, capsys):
        # argparse refuses a depth the string enumeration cannot reach,
        # naming the option, before the handler runs
        with pytest.raises(SystemExit) as err:
            main(["dynent", "--family", "cube", "--depth", depth])
        captured = capsys.readouterr()
        assert (err.value.code, captured.out) == (2, "")
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            f"hspovm dynent: error: argument --depth: invalid choice: {depth} "
            "(choose from 1, 2, 3, 4, 5, 6, 7, 8)"]

    @pytest.mark.parametrize("command", [c for c in _COMMANDS if any(
        "--in" in flags for flags, _ in _COMMANDS[c][1])])
    @pytest.mark.parametrize("payload", MALFORMED_FILES)
    def test_malformed_file(self, command, payload, tmp_path, capsys):
        path = tmp_path / "povm.json"
        path.write_text(MALFORMED_FILES[payload])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--in", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


HOSTILE = ("0", "-1", "nan", "inf", "", "1,2", "3..2", "x")


def _valued_options(command):
    """The flags of a subcommand's options that take a value."""
    return [flags[0] for flags, kwargs in _COMMANDS[command][1]
            if kwargs.get("action") != "store_true"]


def _source_for(option, flags):
    """A valid POVM source beside ``option``, for the subcommands that read one."""
    if "--family" not in flags or option in ("--family", "--in"):
        return []
    return ["--family", {"--n": "n-gon", "--alpha": "rectangle"}.get(option, "cube")]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_hostile_values_keep_the_exit_codes(data):
    """Every option of every subcommand, given a hostile value, exits 0, 1
    or 2 (argparse's own refusal included), never 3 (an internal error)."""
    command = data.draw(st.sampled_from(sorted(_COMMANDS)))
    flags = _valued_options(command)
    option = data.draw(st.sampled_from(flags))
    argv = [command, *_source_for(option, flags), option, data.draw(st.sampled_from(HOSTILE))]
    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as workdir, contextlib.chdir(workdir), \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(argv)
        except SystemExit as refused:           # argparse refuses the value itself
            code = refused.code
    assert code in (0, 1, 2), (argv, sink.getvalue())


class TestPinnedValues:
    def test_dynent_about_a_tilted_axis(self, capsys):
        code, text = run_cli(["dynent", "--family", "cube", "--rotation",
                              "axis=1:1:0,angle=0.5"], capsys)
        assert code == 0
        assert json.loads(text)["dynamical_entropy"] == "1.8823243381888615"

    def test_info_power_json(self, capsys):
        code, text = run_cli(["info-power", "--family", "cube", "--format", "json"],
                             capsys)
        assert code == 0
        assert json.loads(text) == {"schema_version": 1, "unit": "nats", "rows": [
            {"family": "cube", "k": 8, "W": "0.21576155433883565"}]}


class TestCertifyGolden:
    """`certify` output pinned byte for byte (apart from the wall clock);
    any change to a certificate shows as a diff of tests/data."""

    GOLDEN = json.loads((Path(__file__).parent / "data" / "certify_golden.json")
                        .read_text())

    @pytest.mark.parametrize("args", list(GOLDEN))
    def test_payload_unchanged(self, args, capsys):
        code, text = run_cli(["certify", *args.split()], capsys)
        payload = json.loads(text)
        del payload["wall_clock_seconds"]
        assert payload == self.GOLDEN[args]
        assert code == (0 if payload["valid"] else 1)


class TestCertifyGoldenWithoutLongdouble:
    """The certify payloads do not depend on numpy's longdouble, whose width
    varies by platform (80 bits on x86-64 Linux, 64 on macOS arm64 and
    Windows, 128 on aarch64 Linux): with it made float64 before hspovm is
    imported, every golden payload comes out the same."""

    SCRIPT = """
import contextlib, io, json, sys
import numpy as np
np.longdouble = np.float64
from hspovm.cli import main
payloads = {}
for args in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["certify", *args.split()])
    payloads[args] = json.loads(out.getvalue())
    del payloads[args]["wall_clock_seconds"]
print(json.dumps(payloads))
"""

    @pytest.fixture(scope="class")
    def payloads(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT,
                               json.dumps(list(TestCertifyGolden.GOLDEN))],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    @pytest.mark.parametrize("args", list(TestCertifyGolden.GOLDEN))
    def test_payload_unchanged(self, args, payloads):
        assert payloads[args] == TestCertifyGolden.GOLDEN[args]


class TestInfoGolden:
    """`info-power`, `ngon-sweep` and `dynent` output pinned byte for byte
    for the catalog members and the 2- to 64-gons; any change to an
    informational power or a dynamical entropy shows as a diff of
    tests/data."""

    GOLDEN = json.loads((Path(__file__).parent / "data" / "info_golden.json")
                        .read_text())

    @pytest.mark.parametrize("args", list(GOLDEN))
    def test_output_unchanged(self, args, capsys):
        code, text = run_cli(args.split(), capsys)
        assert code == 0
        assert text == self.GOLDEN[args]


class TestMinimizeGolden:
    """`minimize` output pinned byte for byte for the catalog families and
    the 3- to 12-gons; any change to a located minimum shows as a diff of
    tests/data."""

    GOLDEN = json.loads((Path(__file__).parent / "data" / "minimize_golden.json")
                        .read_text())["minimize"]

    @pytest.mark.parametrize("args", list(GOLDEN))
    def test_payload_unchanged(self, args, capsys):
        code, text = run_cli(["minimize", *args.split()], capsys)
        assert code == 0
        assert json.loads(text) == self.GOLDEN[args]


class TestClassifyGolden:
    """`classify` output pinned byte for byte for the catalog families and
    the odd 3- to 11-gons; any change to a type, kind or statistic shows as
    a diff of tests/data."""

    GOLDEN = json.loads((Path(__file__).parent / "data" / "classify_golden.json")
                        .read_text())

    @pytest.mark.parametrize("args", list(GOLDEN))
    def test_payload_unchanged(self, args, capsys):
        code, text = run_cli(["classify", *args.split()], capsys)
        assert code == 0
        assert json.loads(text) == self.GOLDEN[args]


class TestClassifyEvenPolygons:
    """`classify` output of the even 4- to 12-gons, whose symmetry is D_n:
    the vertex is an antipode (I), the edge midpoint lies on an in-plane
    half-turn axis (III) and the axis on the n-fold one (II).  Pinned byte
    for byte in tests/data."""

    GOLDEN = json.loads((Path(__file__).parent / "data" / "classify_even_golden.json")
                        .read_text())

    @pytest.mark.parametrize("args", list(GOLDEN))
    def test_payload_unchanged(self, args, capsys):
        code, text = run_cli(["classify", *args.split()], capsys)
        assert code == 0
        payload = json.loads(text)
        assert payload == self.GOLDEN[args]
        assert [(p["type"], p["kind"]) for p in payload["points"]] == [
            ("I", "min"), ("III", "saddle"), ("II", "max")]
