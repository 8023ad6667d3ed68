import json
import math
import struct

import pytest

from microloc import ScanConfig, WavefrontDetector, WavefrontQuery
from microloc.cli import main


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    assert main(["make-fixtures", "--out", str(out)]) == 0
    return out


def _refuse(token):
    raise ValueError(f"{token} is not strict JSON")


def _strict(path):
    """A file the CLI wrote, read as strict JSON: no NaN or Infinity tokens."""
    return json.loads(path.read_text(), parse_constant=_refuse)


def _payload(path):
    data = _strict(path)
    assert set(data) == {"config", "meta", "result"}
    return data


def test_make_fixtures_manifest(fixture_dir):
    manifest = _strict(fixture_dir / "manifest.json")
    assert set(manifest) == {"smooth_bump", "jump", "line_singularity"}
    for entry in manifest.values():
        assert (fixture_dir / entry["header"]).exists()
        assert (fixture_dir / entry["data"]).exists()


def test_analyze_smooth_bump_conclusive(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "analyze",
            "--signal", str(fixture_dir / "smooth_bump.json"),
            "--x0", "0.0", "--theta", "1.0",
            "--q", "2", "--s", "0.0",
            "--out", str(out),
        ]
    )
    assert code == 0
    result = _payload(out)["result"]
    assert result["fl"]["kind"] == "finite"
    assert result["mod"]["kind"] == "finite"


def test_analyze_jump_divergent(fixture_dir, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "analyze",
            "--signal", str(fixture_dir / "jump.json"),
            "--x0", "0.0", "--theta", "1.0",
            "--q", "1", "--s", "1.0",
            "--out", str(out),
        ]
    )
    assert code == 0
    result = _payload(out)["result"]
    assert result["fl"]["kind"] == "divergent"
    assert result["mod"]["kind"] == "divergent"


def test_analyze_inconclusive_exit_code(fixture_dir, tmp_path):
    # the analytic boundary s = 1 - 1/q sits inside the classifier margin
    out = tmp_path / "inc.json"
    code = main(
        [
            "analyze",
            "--signal", str(fixture_dir / "jump.json"),
            "--x0", "0.0", "--theta", "1.0",
            "--q", "1", "--s", "0.0",
            "--out", str(out),
        ]
    )
    assert code == 2
    result = _payload(out)["result"]
    assert result["fl"]["kind"] == "inconclusive"


def test_scan_2d_line_singularity(fixture_dir, tmp_path):
    cfg = {
        "x_grid": [[0.0, 0.0], [2.0, 0.0]],
        "directions": [[1.0, 0.0], [0.0, 1.0]],
        "pqs": [[1.0, 1.0, 1.0]],
        "alpha": 2.5,
        "gabor_alpha": 2.0,
        "gabor_alpha1": 5.0,
        "r_max": 180.0,
    }
    cfg_path = tmp_path / "cfg2d.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "scan2d.json"
    code = main(
        [
            "scan",
            "--signal", str(fixture_dir / "line_singularity.json"),
            "--config", str(cfg_path),
            "--out", str(out),
        ]
    )
    assert code == 0
    records = _payload(out)["result"]["records"]
    by_key = {(tuple(r["x0"]), tuple(r["theta"])): r for r in records}
    assert by_key[((0.0, 0.0), (1.0, 0.0))]["fl"]["kind"] == "divergent"
    assert by_key[((0.0, 0.0), (0.0, 1.0))]["fl"]["kind"] == "finite"
    assert by_key[((2.0, 0.0), (1.0, 0.0))]["fl"]["kind"] == "finite"
    heat = (tmp_path / "scan2d_heatmap.csv").read_text().splitlines()
    assert heat[0].startswith("x0_0,x0_1,theta_deg")


def test_analyze_malformed_signal(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    (tmp_path / "bad.bin").write_bytes(b"")
    assert main(["analyze", "--signal", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_rejects_nan_sample(fixture_dir, tmp_path, capsys):
    header = _strict(fixture_dir / "jump.json")
    data = bytearray((fixture_dir / "jump.bin").read_bytes())
    at = round(-header["origin"][0] / header["spacing"][0]) * 16  # the jump, complex128
    data[at : at + 8] = struct.pack("<d", math.nan)
    (tmp_path / "nan.json").write_text(json.dumps(header))
    (tmp_path / "nan.bin").write_bytes(bytes(data))
    args = ["analyze", "--signal", str(tmp_path / "nan.json"), "--x0", "0.0", "--theta", "1.0"]
    assert main(args) == 1
    assert "finite" in capsys.readouterr().err


def test_analyze_validates_parameters(fixture_dir):
    code = main(
        ["analyze", "--signal", str(fixture_dir / "jump.json"), "--q", "0.5"]
    )
    assert code == 1


def test_scan_command_and_determinism(fixture_dir, tmp_path):
    cfg = {
        "x_grid": [[0.0], [1.0], [3.0]],
        "directions": [[1.0], [-1.0]],
        "pqs": [[1.0, 1.0, 1.0], [2.0, 2.0, 1.0]],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "s1.json"
    args = ["scan", "--signal", str(fixture_dir / "jump.json"), "--config", str(cfg_path)]
    assert main(args + ["--out", str(out)]) == 0
    first = out.read_bytes()
    p1 = _payload(out)
    assert main(args + ["--out", str(out)]) == 0
    second = out.read_bytes()
    p2 = _payload(out)
    p1.pop("meta"), p2.pop("meta")
    assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)
    if first != second:  # only the timestamp inside "meta" may move
        diff = {i for i, (a, b) in enumerate(zip(first, second)) if a != b}
        meta_lo = first.find(b'"meta"')
        meta_hi = first.find(b'"result"')
        assert all(meta_lo <= i < meta_hi for i in diff)

    heat = tmp_path / "s1_heatmap.csv"
    assert heat.exists()
    header = heat.read_text().splitlines()[0]
    assert header.startswith("x0_0,theta_deg")

    records = p1["result"]["records"]
    assert len(records) == 12
    assert p1["result"]["equivalence"]["n_disagreements"] == 0


def test_scan_honours_method(fixture_dir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"method": "fl", "x_grid": [[0.0]]}))
    out = tmp_path / "fl.json"
    args = ["scan", "--signal", str(fixture_dir / "jump.json"), "--config", str(cfg_path)]
    assert main(args + ["--out", str(out)]) == 0
    records = _payload(out)["result"]["records"]
    assert len(records) == 2
    for rec in records:
        assert rec["fl"] is not None and rec["mod"] is None and rec["error_mod"] is None
    # the route that did not run returned no verdicts, so it is not flagged
    equivalence = _payload(out)["result"]["equivalence"]
    assert equivalence["n_inconclusive_mod"] == 0 and equivalence["all_inconclusive_mod"] is False


def test_scan_writes_infinite_exponents_as_text(fixture_dir, tmp_path):
    out = tmp_path / "inf.json"
    assert main(["scan", "--signal", str(fixture_dir / "jump.json"), "--q", "inf", "--p", "inf",
                 "--out", str(out)]) == 0
    payload = _payload(out)
    assert payload["config"]["q"] == payload["config"]["p"] == "inf"
    records = payload["result"]["records"]
    assert records and all(rec["q"] == rec["p"] == "inf" for rec in records)


def test_scan_rejects_empty_directions(fixture_dir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"x_grid": [[0.0]], "directions": []}))
    code = main(
        ["scan", "--signal", str(fixture_dir / "jump.json"), "--config", str(cfg_path)]
    )
    assert code == 1


def test_config_file_flags_override(fixture_dir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"q": 1.0, "s": 1.0, "x0": [3.0], "theta": [1.0]}))
    out = tmp_path / "r.json"
    code = main(
        [
            "analyze",
            "--signal", str(fixture_dir / "jump.json"),
            "--config", str(cfg_path),
            "--x0", "0.0",  # flag must beat the config file
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = _payload(out)
    assert payload["config"]["x0"] == [0.0]
    assert payload["result"]["fl"]["kind"] == "divergent"


def test_report_config_blocks_are_pinned(fixture_dir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg = {"q": "inf", "p": 2, "s": 0.5, "aperture_deg": 15.0, "pqs": [[1, 1, 1], ["inf", 2, 0.5]],
           "x_grid": [[0.0], [3.0]], "x0": [0.0], "theta": [-1.0], "shells": 5, "margin": 0.2,
           "gabor_alpha": 1.6}
    cfg_path.write_text(json.dumps(cfg))
    signal = str(fixture_dir / "jump.json")
    expected = {**cfg, "alpha": 1.0, "beta": 1.0, "d": 1, "directions": None, "epsilon": None,
                "gabor_alpha1": None, "method": "both", "p": 2.0, "r_max": None, "seed": 0,
                "signal": signal}
    runs = (  # scan fills in the default directions
        ("analyze", ["--q", "2"], {"q": 2.0}),
        ("scan", ["--epsilon", "0.5"], {"epsilon": 0.5, "directions": [[1.0], [-1.0]]}),
    )
    for command, flags, changes in runs:
        out = tmp_path / f"{command}.json"
        main([command, "--signal", signal, "--config", str(cfg_path), "--out", str(out)] + flags)
        pinned = {**expected, **changes, "out": str(out)}
        assert json.dumps(_payload(out)["config"]) == json.dumps(pinned, sort_keys=True)


# (ScanConfig field, detector and CLI name, bad value); the detector has no k_last
_BAD_SETTINGS = [
    ("margin", "margin", 0.0), ("margin", "margin", -1.0),
    ("aperture_deg", "aperture_deg", 0.0), ("aperture_deg", "aperture_deg", 120.0),
    ("epsilon", "epsilon", 0.0), ("epsilon", "epsilon", 2.0),
    ("r_max", "r_max", 0.0), ("r_max", "r_max", -5.0),
    ("k_last", "shells", 3), ("k_last", "shells", 5.5), ("k_last", "shells", True),
    ("methods", "method", "xx"),
]


@pytest.mark.parametrize("field,key,value", _BAD_SETTINGS)
def test_bad_settings_fail_on_every_surface(field, key, value, fixture_dir, jump, tmp_path):
    with pytest.raises(ValueError):
        ScanConfig(**{field: (value,) if field == "methods" else value})
    if field != "methods":
        with pytest.raises(ValueError):
            WavefrontQuery([0.0], [1.0], **{field: value})
    if key in WavefrontDetector().get_params():
        with pytest.raises(ValueError):
            WavefrontDetector(**{key: value}).fit(jump)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({key: value}))
    for command in ("analyze", "scan"):
        assert main([command, "--signal", str(fixture_dir / "jump.json"),
                     "--config", str(cfg_path)]) == 1


@pytest.mark.parametrize("settings,says", [
    ({"pqs": [1, 1, 1]}, "pqs entry 0 must be a (p, q, s) triple, got 1"),
    ({"pqs": [[1, 1, 1], [1, 1]]}, "pqs entry 1 must be a (p, q, s) triple, got [1, 1]"),
    ({"pqs": 5}, "pqs must be a list of (p, q, s) triples"),
    ({"shells": 5.5}, "must be an integer >= 4, got 5.5"),
    ({"q": None}, "q must be a number, got None"),
    ({"alpha": None}, "alpha must be a number, got None"),
    ({"margin": None}, "margin must be a number, got None"),
    ({"r_max": "far"}, "r_max must be a number, got 'far'"),
    ({"theta": [1, 2], "directions": [[1, 2]]}, "direction must have dimension 1, got 2"),
    ({"x_grid": 5}, "x_grid must be a list of points, got 5"),
    ({"directions": 5}, "directions must be a list of vectors, got 5"),
    ({"x_grid": {"0.5": 1}}, "x_grid must be a list of points, got {'0.5': 1}"),
    ({"directions": [[1], [True]]}, "directions entry must hold numbers only, got True"),
    ({"x0": "0"}, "x0 must hold numbers only, got '0'"),
    ({"x_grid": [["0.5"]]}, "x_grid entry must hold numbers only, got '0.5'"),
    ({"r_max": "90"}, "r_max must be a number, got '90'"),
    ({"margin": True}, "margin must be a number, got True"),
    ({"alpha": True}, "alpha must be a number, got True"),
    ({"aperture_deg": "20"}, "aperture_deg must be a number, got '20'"),
    ({"s": True}, "s must be a number, got True"),
    ({"s": "1"}, "s must be a number, got '1'"),
    ({"pqs": [[1, 1, "0.5"]]}, "s must be a number, got '0.5'"),
    ({"r_max": math.inf}, "r_max must be a positive finite number, got inf"),
    ({"margin": math.inf}, "margin must be a positive finite number, got inf"),
    ({"s": math.nan}, "s must be a finite number, got nan"),
    ({"s": math.inf}, "s must be a finite number, got inf"),
    ({"d": 1.5}, "d must be an integer >= 1, got 1.5"),
    ({"d": "2"}, "d must be an integer >= 1, got '2'"),
    ({"d": True}, "d must be an integer >= 1, got True"),
    ({"d": 0}, "d must be an integer >= 1, got 0"),
    ({"seed": 0.5}, "seed must be an integer >= 0, got 0.5"),
    ({"seed": True}, "seed must be an integer >= 0, got True"),
    ({"gabor_alpha1": "x"}, "alpha1 must be a number, got 'x'"),
    ({"gabor_alpha1": True}, "alpha1 must be a number, got True"),
    ({"gabor_alpha": -1}, "gabor_alpha must be a positive finite number, got -1.0"),
    ({"gabor_alpha": math.nan}, "gabor_alpha must be a positive finite number, got nan"),
    ({"gabor_alpha": -1, "method": "fl"}, "gabor_alpha must be a positive finite number, got -1.0"),
    ({"gabor_alpha1": 0}, "gabor_alpha1 must be a positive finite number, got 0.0"),
], ids=["pqs-flat", "pqs-short-entry", "pqs-scalar", "shells-fractional", "q-null", "alpha-null",
        "margin-null", "r_max-text", "direction-dimension", "x_grid-scalar", "directions-scalar",
        "x_grid-object", "direction-bool", "x0-text", "x_grid-text", "r_max-numeric-text",
        "margin-bool", "alpha-bool", "aperture-numeric-text", "s-bool", "s-numeric-text",
        "pqs-text-s", "rmax-inf", "margin-inf", "s-nan", "s-inf", "d-float", "d-text",
        "d-bool", "d-zero", "seed-float", "seed-bool", "gabor_alpha1-text", "gabor_alpha1-bool",
        "gabor_alpha-negative", "gabor_alpha-nan", "gabor_alpha-fl-only", "gabor_alpha1-zero"])
def test_malformed_config_values_fail_with_an_error_line(settings, says, fixture_dir, tmp_path,
                                                         capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(settings))
    for command in ("analyze", "scan"):
        assert main([command, "--signal", str(fixture_dir / "jump.json"),
                     "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError") and says in err
        assert "Traceback" not in err


def test_an_r_max_that_leaves_no_full_shell_is_refused_before_the_signal_is_read(
        fixture_dir, tmp_path, capsys):
    # the signal path does not exist: the settings are refused first; just
    # above 8 the one full shell is too few for a fit, which the verdicts say
    for command in ("analyze", "scan"):
        assert main([command, "--signal", str(tmp_path / "absent.json"), "--rmax", "8"]) == 1
        err = capsys.readouterr().err
        assert err == "error: ValueError: r_max = 8 leaves no full shell above r0 = 4\n"
    assert main(["analyze", "--signal", str(fixture_dir / "jump.json"), "--rmax", "8.5"]) == 1
    assert capsys.readouterr().err.startswith("error: TooFewShells: only 1 shells")
    out = tmp_path / "scan.json"
    main(["scan", "--signal", str(fixture_dir / "jump.json"), "--rmax", "8.5", "--out", str(out)])
    records = _payload(out)["result"]["records"]
    assert records and all(r["error_fl"].startswith("TooFewShells") for r in records)


_LINE = {"alpha": 2.5, "gabor_alpha": 2.0, "gabor_alpha1": 5.0, "r_max": 180.0}


@pytest.mark.parametrize("signal,settings,x0,theta", [
    ("jump", {}, [0.0], [1.0]),
    ("jump", {"p": 2, "q": 2, "s": 0}, [3.0], [-1.0]),
    ("line_singularity", _LINE, [0.0, 0.5], [1.0, 0.0]),
    ("line_singularity", _LINE, [0.0, 0.5], [0.0, 1.0]),
])
def test_analyze_answers_as_the_scan_record(signal, settings, x0, theta, fixture_dir, tmp_path):
    """analyze and scan ask one question, so their verdict blocks are equal."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**settings, "x0": x0, "theta": theta,
                                    "x_grid": [x0], "directions": [theta]}))
    reports = {}
    for command in ("analyze", "scan"):
        out = tmp_path / f"{command}.json"
        main([command, "--signal", str(fixture_dir / f"{signal}.json"),
              "--config", str(cfg_path), "--out", str(out)])
        reports[command] = _payload(out)["result"]
    (record,) = reports["scan"]["records"]
    for route in ("fl", "mod"):
        assert reports["analyze"][route] == record[route]


def test_analyze_fails_on_the_cell_face_as_the_scan_record(fixture_dir, tmp_path, capsys):
    signal = str(fixture_dir / "jump.json")
    scan_out, analyze_out = tmp_path / "scan.json", tmp_path / "analyze.json"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"x_grid": [[0.5]], "directions": [[1.0]]}))
    main(["scan", "--signal", signal, "--config", str(cfg_path), "--out", str(scan_out)])
    (record,) = _payload(scan_out)["result"]["records"]
    assert record["error_fl"].startswith("DomainClipped: ")
    capsys.readouterr()
    code = main(["analyze", "--signal", signal, "--x0", "0.5", "--theta", "1",
                 "--out", str(analyze_out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {record['error_fl']}\n"
    assert not analyze_out.exists()


def test_config_file_rejects_unknown_keys(fixture_dir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"qq": 1.0}))
    assert main(
        ["analyze", "--signal", str(fixture_dir / "jump.json"), "--config", str(cfg_path)]
    ) == 1


def test_gabor_check_exit_codes(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["gabor-check", "--alpha", "1.0", "--beta", str(math.pi), "--out", str(out)]) == 0
    result = _payload(out)["result"]
    assert result["partition_deviation"] <= 1e-10
    assert result["worst_roundtrip_rel_l2"] <= 1e-6

    code = main(["gabor-check", "--alpha", "1.0", "--beta", str(2 * math.pi)])
    assert code == 1
    assert "InadmissibleParameters" in capsys.readouterr().err

    # the check builds the Gabor system scan uses, on the Gabor step
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"alpha": 1.0, "beta": 3.0, "gabor_alpha": 2.5}))
    assert main(["gabor-check", "--config", str(cfg_path)]) == 1
    assert "InadmissibleParameters" in capsys.readouterr().err


def test_gabor_check_refuses_a_malformed_dimension_or_seed(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cases = (
        ({"d": 1.5}, [], "d must be an integer >= 1, got 1.5"),
        ({"seed": True}, [], "seed must be an integer >= 0, got True"),
        ({}, ["--d", "0"], "d must be an integer >= 1, got 0"),
    )
    for settings, flags, says in cases:
        cfg_path.write_text(json.dumps(settings))
        assert main(["gabor-check", "--config", str(cfg_path)] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError") and says in err


def test_gabor_check_2d_reports_roundtrip_not_run(tmp_path, capsys):
    out = tmp_path / "g2.json"
    assert main(["gabor-check", "--d", "2", "--out", str(out)]) == 0
    result = _payload(out)["result"]
    assert result["partition_deviation"] <= 1e-10
    assert result["worst_roundtrip_rel_l2"] is None
    assert "round trip not run" in capsys.readouterr().out


def test_selftest_list_and_single_suite(tmp_path, capsys):
    assert main(["selftest", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert "fourier_oracle" in names and "wavefront_equivalence" in names

    out = tmp_path / "st.json"
    assert main(["selftest", "--only", "fourier_oracle", "--out", str(out)]) == 0
    payload = _payload(out)
    assert payload["result"]["passed"] is True

    assert main(["selftest", "--only", "not_a_suite"]) == 1


def test_selftest_rejects_corrupted_fixture(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"d": 1}')
    (tmp_path / "bad.bin").write_bytes(b"")
    assert main(["selftest", "--only", "fourier_oracle", "--signal", str(bad)]) == 1
