import csv
import errno
import io
import json
import os
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from quadrings.cli import main

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "quadrings" / "schemas"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    with open(SCHEMA_DIR / f"{name}.schema.json") as fh:
        return json.load(fh)


def validate(payload, schema_name):
    jsonschema.validate(payload, load_schema(schema_name))


def test_classify_z4_json(capsys):
    code, out, _ = run(capsys, "classify", "--ring", "Z/4")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "classification")
    assert payload["ring"] == "Z/4"
    assert len(payload["classes"]) == 6
    discs = sorted(c["disc"] for c in payload["classes"])
    assert discs == [0, 0, 0, 0, 1, 1]


def test_classify_poly_ring_uses_coefficient_lists(capsys):
    code, out, _ = run(capsys, "classify", "--ring", "Z/2[x]/(x^2+x+1)")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "classification")
    assert all(isinstance(c["t"], list) for c in payload["classes"])


def test_classify_csv(capsys):
    code, out, _ = run(capsys, "classify", "--ring", "Z/4", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 6
    assert rows[0]["t"] == "0" and rows[0]["sec"] == "False"


def test_classify_csv_poly_ring_cells(capsys):
    code, out, _ = run(capsys, "classify", "--ring", "Z/2[x]/(x^2+x+1)",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    # coefficient vectors flatten to semicolon-joined cells
    assert rows[0]["t"] == "0;0" and rows[0]["n"] == "0;0"


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "classify", "--ring", "Z/6")
    _, second, _ = run(capsys, "classify", "--ring", "Z/6")
    assert first == second


def test_output_is_deterministic_across_processes():
    # different hash seeds must not leak set iteration order into reports
    import os
    import subprocess
    import sys

    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        for args in (["classify", "--ring", "Z/6"],
                     ["fibers", "--ring", "Z/8"],
                     ["disc", "--ring", "Z/12", "--format", "csv"]):
            proc = subprocess.run(
                [sys.executable, "-m", "quadrings.cli"] + args,
                capture_output=True, text=True, env=env, check=True)
            outputs.append((seed, tuple(args), proc.stdout))
    by_args = {}
    for seed, args, out in outputs:
        by_args.setdefault(args, set()).add(out)
    assert all(len(v) == 1 for v in by_args.values())


def test_disc_report(capsys):
    code, out, _ = run(capsys, "disc", "--ring", "Z/4")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "disc_classes")
    assert payload["disc_classes"] == [
        {"absorbing": True, "d": 0, "witness_t": 0},
        {"absorbing": False, "d": 1, "witness_t": 1},
    ]


def test_fibers_report(capsys):
    code, out, _ = run(capsys, "fibers", "--ring", "Z/4")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "fibers")
    by_d = {f["d"]: f for f in payload["fibers"]}
    assert by_d[1]["free"] and by_d[1]["transitive"]
    assert len(by_d[0]["fiber"]) == 4


# sha256 of `classify` stdout (JSON, CSV), recorded while the sec column
# was is_sec_algebra(c.rep); it is now read from c.separable.
CLASSIFY_DIGESTS = {
    "Z/8": ("0d057e9b8eea0337675f8f1f7d9e584151656485079246017f538304195440ce",
            "a35bdb56a43e2444c025fe98179a525731602a0f4a6be9f9c04d203bd59b6f64"),
    "Z/12": ("e88e1881a3b257c0a5a4b97884bc0d54f5123cdc9f5a2f92c11b6b6223ae7bf9",
             "75188c0823171037223dd5b9c39f32659c662f6817331e1b06229bf8caa55a81"),
    "Z/16": ("cfabc414167073ad9a56b04070860e544740dfc2f034d669949400608005d6e8",
             "aa9dc3980496e8a648a73da7aa812d88a3b73efc900b6d33c931849898a23d0c"),
    "Z/4[x]/(x^2)": (
        "ce27c20edca61ce541425363ea0a639155a289e1cd26cddee1d3eb11d4c1f13b",
        "b87244095a27496ba77ce95bbb6ec6e6851231e9221889b3f9dfc40e31cd126f"),
    "Z/6[x]/(x^2+1)": (
        "4e0ec004d2c9d0b75c728ddc99da5daf8063092c6db2f3fa8d435fc02f0747fb",
        "d83005f6e5308992ee0e6ed87f291f498853aacde53c4e3bf43db41baf659103"),
}


@pytest.mark.parametrize("spec", sorted(CLASSIFY_DIGESTS))
def test_classify_stdout_matches_golden_digests(capsys, spec):
    import hashlib
    for fmt, expected in zip(("json", "csv"), CLASSIFY_DIGESTS[spec]):
        code, out, _ = run(capsys, "classify", "--ring", spec, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected, (spec, fmt)


# sha256 of `product` and `sec` stdout (JSON, CSV) and of `verify` stdout
# (text, JSON, CSV), recorded while each command still rendered its own
# report; main's one renderer must not change a byte.
REPORT_DIGESTS = {
    ("product", "--ring", "Z", "--s", "0,-2", "--t", "0,-3"): {
        "json": "782b2d0a22544905e9b067ed4833280963180be3c07b44c00c54298a5b7fddd5",
        "csv": "264d14c62bc7d93e787a38b94a5dcf9d224de1aab1b072954d73a1dad50f4462"},
    ("product", "--ring", "Z/12", "--s", "5,7", "--t", "11,3"): {
        "json": "a9739292f63c0ef5cd0481fd98d69be7854124defb55d76d1387f7687a4dd0a1",
        "csv": "863726d0a67ee0c99ad1921583c9dec8b8c0e5d166de547f4cf496d3885aa3ab"},
    ("product", "--ring", "Z/4[x]/(x^2+x+1)", "--s", "1,2,3,0", "--t", "2,1,0,3"): {
        "json": "e1c2a08e065608ffa8d8574ae53c4cc07f2f7d43bbdcd1f6ac117ce880dcfaae",
        "csv": "3dbae9d16c702e8d8c583d6e49f50b3beeb945497de92e973c83db10adc5b8bf"},
    ("sec", "--ring", "Z/16"): {
        "json": "4ea7dfeabc0135c5685f21bf56736c6381cfc39145457c68f68500aa238d3f27",
        "csv": "2c4138f064a12134aec2d2a9fb35f8a2c70a24658d062f4e8b8537c2a57250ec"},
    ("sec", "--ring", "Z/3[x]/(x^2)"): {
        "json": "10c7d168cd60e0612afea96504ac452572767cb62d07f1aa2d5f07ea8250f68c",
        "csv": "14c9643c62c209a81e58946d4ae810238841b89e4c3d12e1d8111642ab2a80eb"},
    ("verify",): {
        "text": "271284cac486c70ad3ef16e83fa388793ef606dd39023dfba0acba054bf41baf",
        "json": "4427748e022add7511c1926c47daeb8103784bf53994f8fc5d53238d1d54ce67",
        "csv": "95540467ec337c82378c2a104b682cc326ff35dad9feb4e9a71e3d9ff5ade6a9"},
}


@pytest.mark.parametrize("argv", sorted(REPORT_DIGESTS), ids=" ".join)
def test_product_sec_and_verify_stdout_match_golden_digests(capsys, argv):
    import hashlib
    for fmt, expected in REPORT_DIGESTS[argv].items():
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected, fmt


# Every (command, format) pair the parser offers.
REPORTS = [(argv, fmt)
           for argv in (["classify", "--ring", "Z/4"], ["disc", "--ring", "Z/4"],
                        ["fibers", "--ring", "Z/4"], ["as-group", "--ring", "Z/4"],
                        ["sec", "--ring", "Z/4"],
                        ["product", "--ring", "Z/12", "--s", "5,7", "--t", "11,3"])
           for fmt in ("json", "csv")]
REPORTS += [(["verify"], fmt) for fmt in ("text", "json", "csv")]


@pytest.mark.parametrize("argv, fmt", REPORTS,
                         ids=lambda v: v[0] if isinstance(v, list) else v)
def test_output_file_receives_the_stdout_bytes(tmp_path, capsys, argv, fmt):
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0 and out
    target = tmp_path / "report"
    code, written, err = run(capsys, *argv, "--format", fmt, "--output", str(target))
    assert (code, written, err) == (0, "", "")
    assert target.read_bytes() == out.encode()


# sha256 of `fibers` stdout, recorded before the fibre reports moved to
# class representatives; the reports must not change a byte.
FIBERS_DIGESTS = {
    "Z/4": ("0e29806db6a562fdaf0cc1df3b8dc5f33da052acc5b9cf9c3d08d7eab4e407be",
            "548825963e827fbd4597ff821dc3a90b4f8a19efb57f835396711b92e26fcbaf"),
    "Z/8": ("1546e0534eb7cec108e9468e3d5f6d73546a70e5b20587e22e0373e1ab485d6b",
            "f004ab329cd35b159d6fa4ad8fbb8e8e8c11a4cb3be7fa00ce5db70295ef4fa1"),
    "Z/12": ("47d9eb5465630b91628efd715d3f9d69447c8308028e42fb84146d8495108490",
             "7acd4be7ed28ba3b683919d181dd1ba195b57246ff259052ba0ea8b3ac2b3715"),
    "Z/16": ("479e72d068fb4d74ff33764c4434310263f1a01a8ee1e02edc2cf051859749c5",
             "c29470c653d02cb963b308e3852955d8686c7570c9424073fd88b27c21ae2ca2"),
    "Z/2[x]/(x^2)": (
        "731174771922033ed4aacab328ffc5a162298d517d1c266238fbf1f0335fbfc0",
        "f74ede2e9071ea883592f9cfbc8331a171896fafe3d486490446edf4faa56e95"),
    "Z/4[x]/(x^2)": (
        "2126b45bfad3462ffe644e91ed8fd177c5c7b62d8205bf8633c8db6abb758c65",
        "cac293132852a16eaf9aad844ffafe5020d4160eb497e71ea08e8510c4cb161a"),
    "Z/8[x]/(x^2+3)": (
        "8d357a50fd38daedb09457e825893cb77bb2faa038288baaab775063239c8782",
        "3f68876f6956e2f5c4835f6bcb53c10a5c341c5b1a0c4089dac57921b22f1d52"),
    "Z/2[x]/(x^2+x+1)": (
        "6b3200ee656928d224d15ec9fb885cde08bd4007714efd8fd1f137b81b55775a",
        "22d82a7024d42a834ae4497ddb4f871f273c16eb12648e39e5114657f40ccbb2"),
}


@pytest.mark.parametrize("spec", sorted(FIBERS_DIGESTS))
def test_fibers_stdout_matches_golden_digests(capsys, spec):
    import hashlib
    for fmt, expected in zip(("json", "csv"), FIBERS_DIGESTS[spec]):
        code, out, _ = run(capsys, "fibers", "--ring", spec, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected, (spec, fmt)


# sha256 of `disc` and `as-group` stdout (JSON, CSV) on the FIBERS_DIGESTS
# rings, recorded before the with-basis orbit count became a closed form.
DISC_AS_DIGESTS = {
    ("disc", "Z/12"): (
        "54c6191648f4beb1b764dd56b1be230e975a773ea81597694af6e2eea4b53a08",
        "bee387830bd5f1c7dfa62fc7fbf9c2fe7cf4303d72fee0253a9e6b70216357b7"),
    ("disc", "Z/16"): (
        "2fef77b81643b2f477d56506fef0fdf8c1c46e5ad410506edfa184e7cb81ed68",
        "08625009a2ea7fceb0a068f87bc4910c617e1785e95c5b9b9a238850f84bd58e"),
    ("disc", "Z/2[x]/(x^2)"): (
        "a7bc47eadfc9dcbde03938ca269c6dc137a3d29eb993bf1d08da926047cbfd33",
        "241e676be8e055f994d6e71ba74eecc22db57c0cd5a5dbfdb15c72b52e2445a5"),
    ("disc", "Z/2[x]/(x^2+x+1)"): (
        "38f5067cb396e78cef99ed98db082fa2589d4b3d5e9a67072afd38363216ad38",
        "241e676be8e055f994d6e71ba74eecc22db57c0cd5a5dbfdb15c72b52e2445a5"),
    ("disc", "Z/4"): (
        "0e203d54ea6462113b72607eb7f1e4152f1f63317d4cb6fb48f9aa9ae71b07f4",
        "382a641fb738c8c1b5bb57eba57a181ca0522bc12122625a141fd681d2e41874"),
    ("disc", "Z/4[x]/(x^2)"): (
        "db9dd40ac5d5c37867b0ca4954b06a0b098e970ef2f83d3bbdac055b56540104",
        "241e676be8e055f994d6e71ba74eecc22db57c0cd5a5dbfdb15c72b52e2445a5"),
    ("disc", "Z/8"): (
        "650a9cae9cf2f3cdd574773058b2c45c4bfd0573c899cf5b9e00e81e86c54e00",
        "d2d3771be49e227ffcaa62518bf418b5fa255ea3695570ca2bdacc07c8b2565c"),
    ("disc", "Z/8[x]/(x^2+3)"): (
        "b67ce6692daa0a049fea0bd1561306a54e87233d6d95fb977182ef72afbd3d28",
        "0afced69bc33acc841f9a18540a70eeb381bf8fb479a46cba149f6061010835c"),
    ("as-group", "Z/12"): (
        "e9a9edaabcbbe8edc6a2ef9c2e688b72a28e6cea5f4117c90614580340c179aa",
        "1fc844f9a86798a4b2702f9a7e5a2347de410bb469ab27ec7c372efbd00779a3"),
    ("as-group", "Z/16"): (
        "09a6c72c088003ac69258969ba4a09dd8fc6718905f74573d2b45d09d322cf3b",
        "bb2531aa1d8097b8cc3b5caae13f532d9b8baa7a0f85aca433b5cd4f2ce783ac"),
    ("as-group", "Z/2[x]/(x^2)"): (
        "d37f05cd3b21308fccc462f8bfac4e0169b9a9c79fdd499151b35ffdb384e446",
        "1875aa20fd8d5ac3fb98cb68322dcd0d6d43f8c6b8517a574c4d70032ad5a5f9"),
    ("as-group", "Z/2[x]/(x^2+x+1)"): (
        "26b1f8ecccc3ae56e01258a9fc0da9588c820574532ba19ad8fd2f7af6c39212",
        "9acc5c744993f952fa695eba4c1d2e9f1d755fc715cccacb722245358849ac7e"),
    ("as-group", "Z/4"): (
        "082335cc8cb656cf0eb0c18bf3b037693904541aa2469911222ff484dca036e6",
        "1875aa20fd8d5ac3fb98cb68322dcd0d6d43f8c6b8517a574c4d70032ad5a5f9"),
    ("as-group", "Z/4[x]/(x^2)"): (
        "248d394e46dbc9f1416368cdc139567c718be2be5ddf29499b2201e96da83a74",
        "89d1e007aa1c86b389f1cb76820f451fda56e4c507d1764d21b3943d86256d4d"),
    ("as-group", "Z/8"): (
        "0c7b76a10b827013b62a16775094641d5c00fa5fcd282d202eff95c8dcc18245",
        "bb2531aa1d8097b8cc3b5caae13f532d9b8baa7a0f85aca433b5cd4f2ce783ac"),
    ("as-group", "Z/8[x]/(x^2+3)"): (
        "38f94d9b2184d1570c43ef4d9a4170cdc000ca70470935301dad09df4bf5e295",
        "e24b638c4d3d99a39681aae1b5cea0a47a666d23a048ccb64f3e35b94b3d8b9f"),
}


@pytest.mark.parametrize("command, spec", sorted(DISC_AS_DIGESTS))
def test_disc_and_as_group_stdout_match_golden_digests(capsys, command, spec):
    import hashlib
    for fmt, expected in zip(("json", "csv"), DISC_AS_DIGESTS[command, spec]):
        code, out, _ = run(capsys, command, "--ring", spec, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected, (
            command, spec, fmt)


def test_fibers_single_disc(capsys):
    code, out, _ = run(capsys, "fibers", "--ring", "Z/4", "--disc", "1")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["fibers"]) == 1
    code, _, err = run(capsys, "fibers", "--ring", "Z/4", "--disc", "2")
    assert code == 2 and "not a discriminant" in err


def test_as_group_report(capsys):
    code, out, _ = run(capsys, "as-group", "--ring", "Z/4")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "as_group")
    assert payload["wp4"] == [0, 2]
    assert payload["classes"] == [0, 1]
    assert payload["invariant_factors"] == [2]


def test_internal_check_failure_prints_witness_line(capsys, monkeypatch):
    # exit 1: the message, then the check's witness as one JSON line on
    # stderr; nothing on stdout
    import quadrings.artin_schreier as artin_schreier
    monkeypatch.setattr(artin_schreier, "_basis_orbit_bound", lambda *args: -1)
    code, out, err = run(capsys, "fibers", "--ring", "Z/4", "--disc", "1")
    assert code == 1 and out == ""
    message, line = err.splitlines()
    assert message.startswith("internal check failed: with-basis orbit count ")
    assert json.loads(line) == {"ring": "Z/4", "d": 1, "count": 2, "bound": -1}


def test_as_group_over_z_is_trivial(capsys):
    code, out, _ = run(capsys, "as-group", "--ring", "Z")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "as_group")
    assert payload["classes"] == [0]
    assert payload["invariant_factors"] == []


def test_product_kummer(capsys):
    code, out, _ = run(capsys, "product", "--ring", "Z",
                       "--s", "0,-2", "--t", "0,-3")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "product")
    assert payload["product"] == {"t": 0, "n": -24}


def test_product_poly_ring(capsys):
    code, out, _ = run(capsys, "product", "--ring", "Z/2[x]/(x^2+x+1)",
                       "--s", "1,0,0,1", "--t", "1,0,1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["s"] == {"t": [1, 0], "n": [0, 1]}
    # (1, x) * (1, x+1) = (1, x + x+1 - 4 x(x+1)) = (1, 1) in characteristic 2
    assert payload["product"] == {"t": [1, 0], "n": [1, 0]}


def test_product_arity_error(capsys):
    code, _, err = run(capsys, "product", "--ring", "Z", "--s", "1", "--t", "0,0")
    assert code == 2 and "comma-separated" in err


def test_verify_text_lines(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert all(" PASS " in line for line in lines)


def test_verify_json_and_csv(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "verify")
    assert all(entry["passed"] for entry in payload["identities"])
    code, out, _ = run(capsys, "verify", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 7 and all(r["status"] == "PASS" for r in rows)


def test_failing_identity_is_printed_and_exits_1(capsys, monkeypatch):
    from quadrings import QuadraticAlgebra
    monkeypatch.setattr(QuadraticAlgebra, "disc", lambda self: self.n)
    code, out, err = run(capsys, "verify")
    assert code == 1 and err == ""
    assert out.startswith("disc-multiplicativity FAIL ")


def test_verify_single_identity(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "wp-closure")
    assert code == 0
    assert out.startswith("wp-closure PASS")


def test_sec_report(capsys):
    code, out, _ = run(capsys, "sec", "--ring", "Z/4")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "sec")
    assert payload["elements"] == [
        {"e": 0, "sec": False}, {"e": 1, "sec": True},
        {"e": 2, "sec": False}, {"e": 3, "sec": True},
    ]


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "classify", "--ring", "Q")[0] == 2
    assert run(capsys, "classify", "--ring", "Z/0")[0] == 2
    assert run(capsys, "classify", "--ring", "Z/4\n")[0] == 2
    assert run(capsys, "classify", "--ring", "Z")[0] == 2
    assert run(capsys, "sec", "--ring", "Z")[0] == 2
    assert run(capsys, "disc", "--ring", "Z")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "classify")[0] == 2


def test_empty_comma_fields_are_usage_errors(capsys):
    for s, t in [("1,,2", "0,0"), ("1,2", ",0,0,"), ("1,2", ",0"), ("", "0,0")]:
        code, out, err = run(capsys, "product", "--ring", "Z/5", "--s", s, "--t", t)
        assert code == 2 and out == "", (s, t)
        assert err.startswith("error: "), (s, t)
    code, out, _ = run(capsys, "product", "--ring", "Z/2[x]/(x^2+x+1)",
                       "--s", "1,0,,1", "--t", "1,0,1,1")
    assert code == 2 and out == ""
    code, out, _ = run(capsys, "fibers", "--ring", "Z/4", "--disc", "1,")
    assert code == 2 and out == ""
    assert run(capsys, "product", "--ring", "Z/5", "--s", "1, 2", "--t", "3,4")[0] == 0


@pytest.mark.parametrize("argv, message", [
    (["fibers", "--ring", "Z/4", "--disc", "1,2"], "--disc over Z/4 takes one integer"),
    (["product", "--ring", "Z/4", "--s", "1", "--t", "0,0"],
     "--s over Z/4 takes 2 comma-separated integers"),
    (["product", "--ring", "Z/2[x]/(x^2+x+1)", "--s", "1,0,1", "--t", "0,0,0,0"],
     "--s over Z/2[x]/(x^2+x+1) takes 4 comma-separated integers"),
])
def test_a_wrong_count_of_integers_is_a_usage_error(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("where", ["modulus", "coefficient", "exponent", "--s", "--t",
                                   "--disc"])
def test_numbers_longer_than_the_digit_limit_exit_2(capsys, int_digit_limit, where):
    # refused by the grammar, naming the field and the count, not the digits
    limit = int_digit_limit
    long = "1" + "0" * limit + "7"
    argv = {"modulus": ["classify", "--ring", f"Z/{long}"],
            "coefficient": ["classify", "--ring", f"Z/2[x]/({long}x^2+1)"],
            "exponent": ["classify", "--ring", f"Z/2[x]/(x^{long}+1)"],
            "--s": ["product", "--ring", "Z", f"--s=-{long},0", "--t", "0,0"],
            "--t": ["product", "--ring", "Z/5", "--s", "0,0", "--t", f"0,{long}"],
            "--disc": ["fibers", "--ring", "Z/4", "--disc", long]}[where]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: {where} has {limit + 2} digits, more than the "
                   f"interpreter's limit of {limit} (PYTHONINTMAXSTRDIGITS)\n")


@pytest.mark.parametrize("argv", [
    ["classify", "--ring", "Z/\u0663"],
    ["classify", "--ring", "Z/4[x]/(x^\u0662+1)"],
    ["product", "--ring", "Z", "--s", "1_000,0", "--t", "0,0"],
    ["product", "--ring", "Z", "--s", "\uff11,0", "--t", "0,0"],
    ["product", "--ring", "Z", "--s", "+-1,0", "--t", "0,0"],
    ["fibers", "--ring", "Z/4", "--disc", "\u0661"],
], ids=ascii)
def test_numbers_in_other_digits_or_with_underscores_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: ")


def test_signed_elements_are_read(capsys):
    code, out, _ = run(capsys, "product", "--ring", "Z", "--s", "+0,-2", "--t=-0,+3")
    assert code == 0
    assert json.loads(out)["product"] == {"t": 0, "n": 24}


def test_a_leading_negative_element_is_written_with_equals(capsys):
    # argparse takes a value that starts with "-" and is not one plain
    # negative number for an option: "--s -1,0" is a usage error with
    # argparse's message, and "--s=-1,0" is read; "--disc -3" is one
    # negative number, so it is read spaced
    code, out, err = run(capsys, "product", "--ring", "Z", "--s", "-1,0", "--t", "0,0")
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --s: expected one argument\n")
    code, out, _ = run(capsys, "product", "--ring", "Z", "--s=-1,0", "--t=0,-2")
    assert code == 0
    assert json.loads(out)["product"] == {"t": 0, "n": -2}
    code, out, _ = run(capsys, "fibers", "--ring", "Z/4", "--disc", "-3")
    assert code == 0 and json.loads(out)["fibers"][0]["d"] == 1


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_result_too_long_to_print_exits_2(tmp_path, capsys, int_digit_limit, fmt):
    # valid inputs whose product has about twice as many digits as either
    limit = int_digit_limit
    nines = "9" * (limit // 2 + 50)
    argv = ["product", "--ring", "Z", "--s", f"{nines},0", "--t", f"{nines},0",
            "--format", fmt]
    message = (f"error: the result has an integer of more than {limit} digits, the "
               f"interpreter's limit for printing one; raise it with "
               f"PYTHONINTMAXSTRDIGITS\n")
    assert run(capsys, *argv) == (2, "", message)
    target = tmp_path / "product"
    assert run(capsys, *argv, "--output", str(target)) == (2, "", message)
    assert not target.exists()


HUGE_SPECS = {
    "dense-modulus": (["product", "--ring", "Z/2[x]/(x^100000000+1)",
                       "--s", "0,0", "--t", "0,0"], "100000001 items"),
    "degree-1e6": (["classify", "--ring", "Z/2[x]/(x^1000000+1)"],
                   "at least 2^2000000 items"),
    "degree-3000": (["classify", "--ring", "Z/2[x]/(x^3000+1)"], "at least 2^6000 items"),
    "2200-digit-n": (["classify", "--ring", f"Z/{10 ** 2199 + 7}"], "at least 2^14609 items"),
}


@pytest.mark.parametrize("name", sorted(HUGE_SPECS))
def test_huge_ring_specs_exit_2_under_a_memory_cap(name):
    # run in a child whose address space is capped at 512 MiB, so that a
    # spec that is not refused up front fails there (MemoryError, exit 1)
    # and not in this process; the refusal names the budget and states a
    # huge count by its power of 2, not in thousands of digits
    import os
    import subprocess
    import sys

    import quadrings
    argv, stated = HUGE_SPECS[name]
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
             "from quadrings.__main__ import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(quadrings.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr[-300:]
    assert "enumeration budget" in proc.stderr and stated in proc.stderr
    assert len(proc.stderr.split(": ", 2)[-1]) < 100


def test_enumeration_budget_exits_2(monkeypatch, capsys):
    # building any element fails, so a missing check cannot fill memory
    import quadrings.rings as rings

    def refuse(*args):
        raise AssertionError("a ring element was built before the budget check")
    monkeypatch.setattr(rings, "RingElement", refuse)
    for argv in (["classify", "--ring", "Z/100000"], ["sec", "--ring", "Z/10000000"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "enumeration budget" in err


def test_error_message_names_grammar(capsys):
    code, _, err = run(capsys, "classify", "--ring", "GF(4)")
    assert code == 2
    assert "Z/<n>[x]/(<monic poly in x>)" in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "classify", "--ring", "Z/4",
                       "--output", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert len(payload["classes"]) == 6


@pytest.mark.parametrize("argv", [["classify", "--ring", "Z/4"], ["verify"]])
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and str(target) in err
    assert not target.exists()


@pytest.mark.parametrize("where", ["missing-directory", "under-a-file", "a-directory"])
def test_unwritable_output_is_refused_before_the_command(tmp_path, capsys,
                                                         monkeypatch, where):
    import quadrings.cli as cli
    calls = []
    monkeypatch.setitem(cli.COMMANDS, "fibers", lambda args: calls.append(args))
    existing = tmp_path / "kept.json"
    existing.write_text("kept\n")
    target = {"missing-directory": tmp_path / "missing" / "x.json",
              "under-a-file": existing / "x.json",
              "a-directory": tmp_path}[where]
    code, out, err = run(capsys, "fibers", "--ring", "Z/4", "--output", str(target))
    assert code == 2 and out == "" and calls == []
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and str(target) in err
    assert existing.read_text() == "kept\n"


@pytest.mark.parametrize("exists", [False, True])
def test_output_without_write_permission_exits_2(tmp_path, capsys, monkeypatch,
                                                 exists):
    # os.access ignores mode bits for root, so the refusal is made by hand:
    # the check asks about the file if it exists, else about its directory,
    # and a refused path is neither created nor truncated
    asked = []

    def refuse(path, mode):
        asked.append((path, mode))
        return False

    monkeypatch.setattr(os, "access", refuse)
    target = tmp_path / "report.json"
    if exists:
        target.write_text("kept\n")
    code, out, err = run(capsys, "classify", "--ring", "Z/4", "--output", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --output {target}: permission denied\n"
    assert asked == [(str(target if exists else tmp_path), os.W_OK)]
    assert target.read_text() == "kept\n" if exists else not target.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_final_write_exits_2(capsys):
    # /dev/full passes the up-front check and refuses the write itself
    code, out, err = run(capsys, "verify", "--output", "/dev/full")
    assert (code, out) == (2, "")
    assert err == "error: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("method, error", [
    ("write", OSError(errno.ENOSPC, "No space left on device")),
    ("write", BrokenPipeError(errno.EPIPE, "Broken pipe")),
    ("flush", OSError(errno.ENOSPC, "No space left on device"))])
def test_a_failed_write_to_stdout_exits_2(capsys, monkeypatch, method, error):
    # a report that cannot reach stdout is refused like one that cannot
    # reach --output: one error line and exit 2, not a traceback
    def refuse(*args):
        raise error

    stdout = io.StringIO()
    monkeypatch.setattr(stdout, method, refuse)
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["verify"])
    monkeypatch.undo()
    assert code == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("unbuffered", [None, "1"])
@pytest.mark.parametrize("target", ["/dev/full", "closed pipe"])
def test_a_failed_stdout_exits_2_with_one_line(target, unbuffered):
    # In a process of its own, stdout is buffered unless PYTHONUNBUFFERED is
    # set; what a failed write left in the buffer must not be flushed again,
    # and fail again, at exit (a traceback and exit 120).
    import subprocess

    import quadrings
    if target == "/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    env = dict(os.environ, PYTHONPATH=str(Path(quadrings.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    if target == "/dev/full":
        stdout = os.open("/dev/full", os.O_WRONLY)
        message = "[Errno 28] No space left on device"
    else:
        # a pipe whose read end is closed before the child starts: no reader
        read_end, stdout = os.pipe()
        os.close(read_end)
        message = "[Errno 32] Broken pipe"
    try:
        proc = subprocess.run([sys.executable, "-m", "quadrings", "verify"], stdout=stdout,
                              stderr=subprocess.PIPE, text=True, timeout=60, env=env)
    finally:
        os.close(stdout)
    assert (proc.returncode, proc.stderr) == (2, f"error: {message}\n")


def test_an_empty_output_path_is_refused_before_the_command(capsys, monkeypatch):
    # an empty --output names no file; it is not stdout
    import quadrings.cli as cli
    calls = []
    monkeypatch.setitem(cli.COMMANDS, "classify", lambda args: calls.append(args))
    code, out, err = run(capsys, "classify", "--ring", "Z/2", "--output", "")
    assert (code, out, calls) == (2, "", [])
    assert err == "error: cannot write --output : the path is empty\n"


def test_output_check_leaves_an_existing_file_untouched(tmp_path, capsys,
                                                        monkeypatch):
    # The up-front check neither creates nor truncates the file, so a
    # command that fails leaves it as it was.
    import quadrings.cli as cli

    def refuse(args):
        raise cli.UsageError("refused")

    monkeypatch.setitem(cli.COMMANDS, "fibers", refuse)
    existing = tmp_path / "kept.json"
    existing.write_text("kept\n")
    code, out, err = run(capsys, "fibers", "--ring", "Z/4", "--output", str(existing))
    assert code == 2 and out == "" and err == "error: refused\n"
    assert existing.read_text() == "kept\n"
    missing = tmp_path / "new.json"
    code, _, _ = run(capsys, "fibers", "--ring", "Z/4", "--output", str(missing))
    assert code == 2 and not missing.exists()


def witness_line(capsys, *argv):
    """Run main, expect exit 1 with nothing on stdout, and return the
    message and the parsed JSON witness line from stderr."""
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    message, line = err.splitlines()
    assert message.startswith("internal check failed: ")
    return message, json.loads(line)


def test_classify_orbit_sum_failure_prints_witness(capsys, monkeypatch):
    import quadrings.quadratic as quadratic
    real = quadratic.IsoClass
    monkeypatch.setattr(quadratic, "IsoClass",
                        lambda rep, size, *rest: real(rep, size + 1, *rest))
    message, witness = witness_line(capsys, "classify", "--ring", "Z/4")
    assert "orbit sizes sum to 22, expected 16" in message
    assert witness == {"ring": "Z/4", "total": 22, "expected": 16}


def test_quad_monoid_absorbing_failure_prints_witness(capsys, monkeypatch):
    # No command builds the class monoid, so one is stood in for here to
    # reach main's witness line.
    import quadrings.cli as cli
    import quadrings.monoids as monoids
    from quadrings import classify, parse_ring, quad_monoid
    # quad_monoid imports find_absorbing when it runs
    monkeypatch.setattr(monoids, "find_absorbing", lambda monoid: 1)

    def monoid_command(args):
        ring = parse_ring(args.ring)
        quad_monoid(ring, classify(ring))
        return {}, [], True

    monkeypatch.setitem(cli.COMMANDS, "classify", monoid_command)
    message, witness = witness_line(capsys, "classify", "--ring", "Z/4")
    assert "class of (0,0) is not absorbing" in message
    assert witness == {"ring": "Z/4", "zero_class": "(0,0)", "absorbing": "(0,1)"}


def test_quad_monoid_table_failure_names_the_ring(monkeypatch):
    # A failed check of the class monoid's table is an internal check: the
    # MonoidError's message and witness, with the ring in the witness.
    import quadrings.monoids as monoids
    from quadrings import InternalCheckError, classify, parse_ring, quad_monoid
    monkeypatch.setattr(monoids, "find_monoid_violation",
                        lambda monoid: ("associativity", (0, 1, 1)))
    ring = parse_ring("Z/4")
    with pytest.raises(InternalCheckError) as info:
        quad_monoid(ring, classify(ring))
    assert str(info.value) == "associativity fails at ('(0,0)', '(0,1)', '(0,1)')"
    assert info.value.witness == {"ring": "Z/4", "kind": "associativity",
                                  "indices": [0, 1, 1],
                                  "labels": ["(0,0)", "(0,1)", "(0,1)"]}


def test_disc_monoid_closure_failure_prints_witness(capsys, monkeypatch):
    # Over Z/2[x]/(x^4) the discriminants are the squares 0, 1, x^2, 1+x^2;
    # dropping the class of 0 leaves x^2 * x^2 = 0 outside the set.
    import quadrings.discriminants as discriminants
    real = discriminants._square_classes
    monkeypatch.setattr(discriminants, "_square_classes",
                        lambda ring: tuple({k: v for k, v in table.items()
                                            if k != ring.zero.value}
                                           for table in real(ring)))
    message, witness = witness_line(capsys, "disc", "--ring", "Z/2[x]/(x^4)")
    assert "of discriminants is not a discriminant" in message
    assert witness == {"ring": "Z/2[x]/(x^4)", "a": [0, 0, 1, 0],
                       "b": [0, 0, 1, 0], "product": [0, 0, 0, 0]}


def test_disc_hom_violations_print_witness(capsys, monkeypatch):
    # A star table that sends every product to the class of (0,0).
    from quadrings.quadratic import Classification
    monkeypatch.setattr(Classification, "star_table",
                        lambda self: tuple((0,) * len(self) for _ in self))
    _, witness = witness_line(capsys, "disc", "--ring", "Z/2")
    assert witness == {"ring": "Z/2", "violations": [
        f"disc({a}*{b}) differs from disc({a})*disc({b})"
        for a in ("(1,0)", "(1,1)") for b in ("(1,0)", "(1,1)")]}


def test_disc_map_not_onto_prints_witness(capsys, monkeypatch):
    # With the fibre of disc class 5 over Z/8 read as empty, disc exits 1
    # with that class as its one violation.
    import quadrings.discriminants as discriminants
    real = discriminants._disc_map

    def without_five(ring, cl):
        mapping, fibres = real(ring, cl)
        five = discriminants.disc_class_of(ring, 5)
        return mapping, [[] if k == five else f for k, f in enumerate(fibres)]

    monkeypatch.setattr(discriminants, "_disc_map", without_five)
    message, witness = witness_line(capsys, "disc", "--ring", "Z/8")
    violation = "no algebra class maps to disc class 5"
    assert message == f"internal check failed: {violation}"
    assert witness == {"ring": "Z/8", "violations": [violation]}


def test_bad_disc_monoid_table_prints_witness(capsys, monkeypatch):
    # A disc-monoid table with an entry out of range fails FiniteCommMonoid's
    # table check; main exits 1 with the MonoidError's witness line, which
    # names the ring too.
    import quadrings.discriminants as discriminants
    real = discriminants.FiniteCommMonoid

    def corrupted(labels, table, identity):
        table = [list(row) for row in table]
        table[-1][-1] = len(labels)
        return real(labels, table, identity)

    monkeypatch.setattr(discriminants, "FiniteCommMonoid", corrupted)
    message, witness = witness_line(capsys, "disc", "--ring", "Z/4")
    assert message == "internal check failed: table entry (1,1) out of range: 2"
    assert witness == {"ring": "Z/4", "kind": "range", "indices": [1, 1], "value": 2}
