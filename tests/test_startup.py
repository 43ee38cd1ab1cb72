"""What a quadrings process loads, and the lazy package namespace.

`python -m quadrings` runs quadrings/__main__.py, whose commands import the
layer modules they call when they run; `import quadrings` binds the
exported names on first read.  These tests run fresh interpreters, since
the test process has every layer loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadrings

ROOT = Path(__file__).resolve().parents[1]

# The package's export list, as `from quadrings import ...` has always
# offered it.
EXPORTS = [
    "ASGroup", "FiberReport", "annihilator_four_torsion", "as_act", "as_embed",
    "as_group", "check_freeness", "fiber_report", "four_torsion",
    "is_sec_algebra", "is_sec_element", "wp4_subgroup",
    "DiscClass", "DiscClassification", "Rank1Form", "disc_class_of",
    "disc_classes", "disc_hom_check", "form_is_cancellative",
    "form_nondegenerate", "form_nonsingular", "form_semi_nondegenerate",
    "form_semi_nonsingular", "forms_similar", "is_discriminant", "sq_map",
    "EnumerationLimitError", "InfiniteRingError", "InternalCheckError",
    "MixedRingError", "MonoidError", "RingParseError",
    "IDENTITY_NAMES", "IdentityResult", "MultiPoly", "verify_all",
    "verify_named_identity",
    "AbelianGroup", "FiniteCommMonoid", "find_absorbing",
    "grothendieck_group", "validate_monoid",
    "AlgebraElement", "BasisChange", "Classification", "IsoClass",
    "QuadraticAlgebra", "apply_basis_change", "basis_change_group",
    "classify", "integer_algebra_for_disc", "is_isomorphic", "quad_monoid",
    "separable_square_check", "star_product",
    "IntegerRing", "ModRing", "QuotientPolyRing", "Ring", "RingElement",
    "parse_ring",
]

# `python -m quadrings ARGV`, as the -m switch runs it, then the exit code
# and the modules the run added to sys.modules as one JSON line on stderr.
RUN_MAIN = """
import runpy, sys
before = set(sys.modules)
sys.argv = ["quadrings"] + sys.argv[1:]
try:
    runpy.run_module("quadrings", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
added = sorted(set(sys.modules) - before)
import json
print(json.dumps([code, added]), file=sys.stderr)
"""


def env():
    paths = [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                   if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths), COLUMNS="80")


def python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env(), cwd=ROOT, timeout=60)


def added_by(*argv):
    proc = python("-c", RUN_MAIN, *argv)
    code, modules = json.loads(proc.stderr.splitlines()[-1])
    return code, set(modules)


def loaded_by(*argv):
    code, modules = added_by(*argv)
    return code, {m.removeprefix("quadrings.") for m in modules
                  if m.split(".")[0] == "quadrings"}


LAYERS = {"errors", "rings", "quadratic", "monoids", "discriminants",
          "artin_schreier", "polynomials", "identities"}


BASE = {"quadrings", "errors", "rings", "quadratic"}
DISC = BASE | {"monoids", "discriminants"}


@pytest.mark.parametrize("argv, code, loaded", [
    (["classify", "--ring", "Z/8"], 0, BASE),
    (["product", "--ring", "Z", "--s", "0,-2", "--t", "0,-3"], 0, BASE),
    (["classify", "--ring", "Z"], 2, BASE),
    (["disc", "--ring", "Z/12"], 0, DISC),
    (["fibers", "--ring", "Z/4"], 0, DISC | {"artin_schreier"}),
    (["sec", "--ring", "Z/4"], 0, DISC | {"artin_schreier"}),
    (["as-group", "--ring", "Z/4"], 0, DISC | {"artin_schreier"}),
    (["verify"], 0, BASE | {"polynomials", "identities"}),
    (["verify", "--identity", "nope"], 2, {"quadrings", "errors", "rings"}),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_each_command_loads_only_its_layers(argv, code, loaded):
    assert loaded_by(*argv) == (code, loaded)


@pytest.mark.parametrize("argv, code, formats", [
    (["classify", "--ring", "Z/8"], 0, {"json"}),
    (["classify", "--ring", "Z/8", "--format", "csv"], 0, {"csv"}),
    (["product", "--ring", "Z", "--s", "0,-2", "--t", "0,-3"], 0, {"json"}),
    (["classify", "--ring", "Z"], 2, set()),
    (["verify"], 0, set()),
    (["verify", "--format", "csv"], 0, {"csv"}),
    (["verify", "--format", "json"], 0, {"json"}),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_light_commands_import_no_dataclasses_and_one_format(argv, code, formats):
    # classify, product and verify build no dataclass, so they import
    # neither dataclasses nor the inspect it loads, and the report imports
    # the module of its own format only
    got, added = added_by(*argv)
    assert got == code
    assert not added & {"dataclasses", "inspect"}
    assert added & {"json", "csv"} == formats


def test_cli_module_loads_every_traced_layer():
    # perfbench's tracer wraps functions in sys.modules["quadrings.<mod>"]
    # right after `import quadrings.cli`, and calls quadrings.cli.main.
    spans = (ROOT / "perfbench" / "spans.py").read_text()
    namespace = {}
    exec(compile(spans, "spans.py", "exec"), namespace)
    wanted = {mod for items in namespace["SPANNED"].values() for mod, _ in items}
    wanted |= {mod for mod, _ in namespace["COUNTED"]}
    proc = python("-c", "import sys, quadrings, quadrings.cli; "
                  "print(' '.join(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {f"quadrings.{mod}" for mod in wanted} <= loaded
    assert {f"quadrings.{mod}" for mod in LAYERS} <= loaded


def test_all_is_the_export_list():
    assert quadrings.__all__ == EXPORTS


def test_every_exported_name_resolves():
    for name in EXPORTS:
        assert getattr(quadrings, name) is not None
    assert quadrings.classify is sys.modules["quadrings.quadratic"].classify
    assert quadrings.ASGroup is sys.modules["quadrings.artin_schreier"].ASGroup


def test_star_import_gives_exactly_the_exports():
    namespace = {}
    exec("from quadrings import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)


def test_dir_lists_the_exports():
    assert set(EXPORTS) <= set(dir(quadrings))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quadrings.no_such_name


def test_rings_layer_loads_no_regex_engine():
    # ring specs, integers and polynomials are read by string tests; -S
    # keeps site out, since a site .pth file can import re itself
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
         "import quadrings.rings; print('re' in sys.modules)", str(ROOT / "src")],
        capture_output=True, text=True, cwd=ROOT, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_version_and_first_read_in_a_fresh_process():
    # __version__ and an unknown name load no layer; the first read of an
    # exported name binds them all and drops the module's __getattr__, so
    # later reads are plain attribute hits
    proc = python("-c", """
import sys, quadrings
def layers():
    return sorted(m for m in sys.modules if m.startswith("quadrings."))
try:
    quadrings.no_such_name
except AttributeError:
    pass
print(quadrings.__version__, layers(), hasattr(quadrings, "__getattr__"))
quadrings.parse_ring
print(len(layers()), set(quadrings.__all__) <= set(vars(quadrings)),
      hasattr(quadrings, "__getattr__"))
""")
    assert proc.returncode == 0, proc.stderr
    first, second = proc.stdout.splitlines()
    assert first == "0.1.0 [] True"
    assert second == f"{len(LAYERS)} True False"


def test_cli_module_runs_as_a_script():
    proc = python("-m", "quadrings.cli", "verify")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 7 and all(" PASS " in line for line in lines)


def test_cli_identity_names_are_the_catalogue():
    from quadrings.__main__ import IDENTITY_NAMES as choices
    from quadrings.identities import IDENTITY_NAMES
    assert choices == IDENTITY_NAMES


def test_cli_module_reexports_the_commands():
    import quadrings.__main__ as entry
    import quadrings.cli as cli
    assert cli.main is entry.main and cli.COMMANDS is entry.COMMANDS
    assert cli.UsageError is entry.UsageError


GOLDEN = json.loads((ROOT / "tests" / "cli_argparse_golden.json").read_text())


@pytest.mark.parametrize("run", GOLDEN["runs"], ids=lambda r: " ".join(r["argv"]))
def test_argparse_output_matches_golden_bytes(run):
    proc = python("-m", "quadrings", *run["argv"])
    assert proc.returncode == run["exit"]
    assert proc.stdout == run["stdout"]
    assert proc.stderr == run["stderr"]
