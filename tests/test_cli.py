import csv
import io
import json
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
    assert run(capsys, "classify", "--ring", "Z")[0] == 2
    assert run(capsys, "sec", "--ring", "Z")[0] == 2
    assert run(capsys, "disc", "--ring", "Z")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "classify")[0] == 2


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
