"""The four workloads: their inputs, their ops and how each op is checked.

A workload has a set-up step, which returns a session, and a pass, a
generator of ops.  An op is one timed call plus the check of its result; the
pass generator receives each op's result back, so later ops can use earlier
results the way a script would.  Inputs come only from the seed and the pass
index.  `quadrings` is reached through the package namespace at call time
(`Q.name`), so the tracer's rebinding is seen.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

from oracle import FiniteRing, z_disc_witness, z_sec_element

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

Q: Any = None  # the quadrings package, bound by load_package()


def load_package(root: Path):
    """Import quadrings from <root>/src and refuse any other copy."""
    global Q
    src = root / "src"
    if not (src / "quadrings" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {src / 'quadrings'}")
    sys.path.insert(0, str(src))
    import quadrings
    if Path(quadrings.__file__).resolve().parent != (src / "quadrings").resolve():
        raise SystemExit(f"perfbench: imported {quadrings.__file__}, not {src}")
    import quadrings.cli  # noqa: F401  (binds Q.cli)
    Q = quadrings


class Workload:
    """A run is a fixed number of passes, so every run of a workload takes
    the same samples.  `ref_pass_s` is one pass in seconds at the reference
    speed (speed.py) on the VM of baseline.json; a run of
    `seconds` makes round(seconds / ref_pass_s) passes, and at least
    `min_passes`."""

    name: str
    min_passes = 3
    ref_pass_s: float

    def passes(self, seconds: float) -> int:
        return max(self.min_passes, round(seconds / self.ref_pass_s))

    def probe(self, session, rng) -> list:
        """Ops for a known defect, run once after the timed passes, untimed.

        Their wrong outputs are reported beside the result, not counted as
        failed ops: a timed workload holds no op that is known to fail.
        """
        return []


class Op(NamedTuple):
    key: str                       # the op's slot: the same work in every pass
    call: Callable[[], Any]        # the timed part
    check: Callable[[Any], Any]    # result -> None if right, else a message


# ---------------------------------------------------------------- results

def canon(obj):
    """A JSON-ready form of a library result that hash order cannot change."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Q.RingElement):
        return obj.to_json()
    if isinstance(obj, Q.QuadraticAlgebra):
        return [canon(obj.t), canon(obj.n)]
    if isinstance(obj, Q.BasisChange):
        return {"u": canon(obj.u), "r": canon(obj.r)}
    if isinstance(obj, Q.Ring):
        return obj.spec_string()
    if isinstance(obj, Q.Classification):
        def pair_key(p):
            return (p[0].sort_key(), p[1].sort_key())
        return [{"rep": canon(c.rep), "orbit_size": c.orbit_size,
                 "disc": canon(c.disc), "separable": c.separable,
                 "orbit": [canon(list(p)) for p in sorted(c.orbit_pairs, key=pair_key)]}
                for c in obj]
    if isinstance(obj, Q.FiniteCommMonoid):
        return obj.to_json_dict()
    if isinstance(obj, Q.DiscClassification):
        return {"classes": [canon(c) for c in obj],
                "orbits": [canon(o) for o in obj.orbits],
                "monoid": canon(obj.monoid)}
    if isinstance(obj, Q.ASGroup):
        return {"four_torsion": canon(obj.four_torsion), "wp4": canon(obj.wp4),
                "classes": canon(obj.classes)}
    if dataclasses.is_dataclass(obj):
        return {f.name: canon(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    if isinstance(obj, bytes):
        return hashlib.sha256(obj).hexdigest()
    if isinstance(obj, BaseException):
        return {"error": type(obj).__name__}
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj) -> str:
    text = json.dumps(canon(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


_golden: dict | None = None


def golden(workload: str) -> dict:
    global _golden
    if _golden is None:
        _golden = json.loads(GOLDEN_PATH.read_text())
    return _golden[workload]


def golden_check(workload: str, key: str):
    def check(result):
        want = golden(workload).get(key)
        if want is None:
            return f"no golden digest for {key}"
        got = digest(result)
        return None if got == want else f"digest {got[:12]} != golden {want[:12]}"
    return check


# ---------------------------------------------------------------- classify

CLASSIFY_LADDER = ["Z/9", "Z/12", "Z/16", "Z/24", "Z/2[x]/(x^3+x+1)",
                   "Z/4[x]/(x^2)", "Z/4[x]/(x^2+x+1)"]


class Classify(Workload):
    """One op classifies one ring, builds its monoid and its K0.

    The ring is parsed inside the op, so nothing cached on a ring object
    carries over from one pass to the next.
    """

    name = "classify"
    ref_pass_s = 5.1
    min_passes = 4    # op_p50_ms is then the mean of two Z/16 samples, not one

    def setup(self, quick):
        return {"rings": CLASSIFY_LADDER[:1] if quick else CLASSIFY_LADDER}

    def ops(self, session, rng, index):
        specs = list(session["rings"])
        rng.shuffle(specs)
        for spec in specs:
            yield Op(spec, lambda spec=spec: _classify_op(spec),
                     golden_check(self.name, spec))


def _classify_op(spec):
    ring = Q.parse_ring(spec)
    cl = Q.classify(ring)
    monoid = Q.quad_monoid(ring, cl)
    return cl, monoid, Q.grothendieck_group(monoid)


# ---------------------------------------------------------------- fibers

FIBER_RINGS = ["Z/8", "Z/12", "Z/20", "Z/24", "Z/2[x]/(x^2)", "Z/3[x]/(x^2)",
               "Z/4[x]/(x^2)"]


class Fibers(Workload):
    """A library session on rings classified during set-up.

    Per ring the pass calls disc_classes, as_group, disc_hom_check,
    fiber_report and check_freeness for every disc class, and is_sec_element
    for every element.  One op is one public call.
    """

    name = "fibers"
    ref_pass_s = 4.1

    def setup(self, quick):
        session = {}
        for spec in (FIBER_RINGS[:1] if quick else FIBER_RINGS):
            ring = Q.parse_ring(spec)
            session[spec] = (ring, Q.classify(ring), ring.elements())
        return session

    def ops(self, session, rng, index):
        specs = list(session)
        rng.shuffle(specs)
        for spec in specs:
            ring, cl, elements = session[spec]

            def op(what, call):
                key = f"{spec}|{what}"
                return Op(key, call, golden_check(self.name, key))

            dc = yield op("disc_classes", lambda: Q.disc_classes(ring))
            asg = yield op("as_group", lambda: Q.as_group(ring))
            yield op("disc_hom_check", lambda: Q.disc_hom_check(ring, cl))
            for d in dc:
                yield op(f"fiber_report|{d.d}",
                         lambda d=d: Q.fiber_report(ring, d, cl, asg))
            for d in dc:
                yield op(f"check_freeness|{d.d}",
                         lambda d=d: Q.check_freeness(ring, d, cl, asg))
            for a in elements:
                yield op(f"is_sec_element|{a}",
                         lambda a=a: Q.is_sec_element(ring, a))


# ---------------------------------------------------------------- queries

# Finite rings for single queries, |R| <= 81, as (spec, n, f low-to-high).
QUERY_RINGS = [
    ("Z/8", 8, None), ("Z/12", 12, None), ("Z/16", 16, None),
    ("Z/25", 25, None), ("Z/27", 27, None), ("Z/36", 36, None),
    ("Z/2[x]/(x^2+x+1)", 2, (1, 1, 1)), ("Z/3[x]/(x^2)", 3, (0, 0, 1)),
    ("Z/2[x]/(x^3+x+1)", 2, (1, 1, 0, 1)), ("Z/4[x]/(x^2+x+1)", 4, (1, 1, 1)),
    ("Z/5[x]/(x^2+2)", 5, (2, 0, 1)), ("Z/9[x]/(x^2+1)", 9, (1, 0, 1)),
]
ZN_OPS = 64       # per kind: star product, element arithmetic
FIN_OPS = 8       # per finite ring and kind: is_discriminant, as_act
Z_OPS = 48        # per kind of Z-ring query
PROBE_OPS = 12    # perfect squares in the known-defect probe


def _strata(rng, count, lo, hi):
    """`count` draws uniform in [lo, hi), one per equal-width stratum."""
    width = (hi - lo) / count
    return [lo + width * (i + rng.random()) for i in range(count)]


def _signed_bits(rng, bits):
    """A random integer of exactly `bits` bits with a random sign."""
    v = rng.getrandbits(bits) | (1 << (bits - 1))
    return v if rng.random() < 0.5 else -v


def _vals(*elements):
    return tuple(e.value for e in elements)


def _expect(want):
    def check(got):
        if isinstance(got, BaseException):
            return f"raised {type(got).__name__}: {got}"
        return None if got == want else f"got {got!r}, want {want!r}"
    return check


class Queries(Workload):
    """Seeded independent queries; `classify` never runs.

    Every pass draws fresh inputs, stratified so that each pass has the same
    mix of kinds, rings and sizes: Z/n with 1 to 100 digits (cold rings),
    finite rings with |R| <= 81, and Z with 8 to 700-bit integers.  The
    perfect squares for `integer_algebra_for_disc` are in `probe`.
    """

    name = "queries"
    ref_pass_s = 2.6
    min_passes = 6    # op_p90_ms needs the samples: p85 to p95 span 1 to 8 ms

    def passes(self, seconds):
        """An even number, so each ring's is_isomorphic is positive in half."""
        return max(self.min_passes, 2 * round(seconds / self.ref_pass_s / 2))

    def setup(self, quick):
        rings = QUERY_RINGS[:1] if quick else QUERY_RINGS
        return {"rings": [FiniteRing(*r) for r in rings], "quick": quick}

    def ops(self, session, rng, index):
        quick = session["quick"]
        nz = 1 if quick else ZN_OPS
        nq = 1 if quick else Z_OPS
        ops = []
        for i, digits in enumerate(_strata(rng, nz, 1, 101)):
            ops.append(self._zn_star(rng, int(digits), i))
        for i, digits in enumerate(_strata(rng, nz, 1, 101)):
            ops.append(self._zn_element(rng, int(digits), i))
        for k, fr in enumerate(session["rings"]):
            ops.append(self._iso(rng, fr, positive=(k + index) % 2 == 0))
            for j in range(1 if quick else FIN_OPS):
                ops.append(self._fin_disc(rng, fr, j))
                ops.append(self._fin_act(rng, fr, j))
        for make in (self._z_star, self._z_iso, self._z_disc, self._z_std_alg):
            for i, bits in enumerate(_strata(rng, nq, 8, 701)):
                ops.append(make(rng, int(bits), i))
        for make in (self._z_sec_el, self._z_sec_alg):
            for i, exp in enumerate(_strata(rng, nq, 0, 4)):
                ops.append(make(rng, max(1, round(10 ** exp)), i))
        rng.shuffle(ops)
        for op in ops:     # not `yield from`: the caller sends results back
            yield op

    # Z/n, cold: a new modulus for every op.
    def _zn_star(self, rng, digits, i):
        mod = rng.randrange(max(2, 10 ** (digits - 1)), 10 ** digits)
        t, n, s, m = (rng.randrange(mod) for _ in range(4))
        spec = f"Z/{mod}"

        def call():
            ring = Q.parse_ring(spec)
            p = Q.star_product(Q.QuadraticAlgebra(ring, t, n), Q.QuadraticAlgebra(ring, s, m))
            return _vals(p.t, p.n, p.disc())
        pt, pn = s * t % mod, (m * t * t + n * s * s - 4 * n * m) % mod
        return Op(f"zn.star|{i}", call, _expect((pt, pn, (pt * pt - 4 * pn) % mod)))

    def _zn_element(self, rng, digits, i):
        mod = rng.randrange(max(2, 10 ** (digits - 1)), 10 ** digits)
        t, n, a, b, c, d = (rng.randrange(mod) for _ in range(6))
        spec = f"Z/{mod}"

        def call():
            alg = Q.QuadraticAlgebra(Q.parse_ring(spec), t, n)
            p = alg.element(a, b) * alg.element(c, d)
            return _vals(p.a, p.b, p.trace(), p.norm(), p.conjugate().a)
        pa, pb = (a * c - b * d * n) % mod, (a * d + b * c + b * d * t) % mod
        want = (pa, pb, (2 * pa + pb * t) % mod, (pa * pa + pa * pb * t + pb * pb * n) % mod,
                (pa + pb * t) % mod)
        return Op(f"zn.element|{i}", call, _expect(want))

    # Finite rings with |R| <= 81.
    def _pair(self, rng, fr):
        return rng.choice(fr.elements), rng.choice(fr.elements)

    def _iso(self, rng, fr, positive):
        t, n = self._pair(rng, fr)
        if positive:
            t2, n2 = fr.act(rng.choice(fr.units), rng.choice(fr.elements), t, n)
        else:
            wrong = fr.unit_square_class(fr.disc(t, n))
            while True:
                t2, n2 = self._pair(rng, fr)
                if fr.disc(t2, n2) not in wrong:
                    break

        def call():
            ring = Q.parse_ring(fr.spec)
            return Q.is_isomorphic(Q.QuadraticAlgebra(ring, t, n),
                                   Q.QuadraticAlgebra(ring, t2, n2))

        def check(g):
            if isinstance(g, BaseException):
                return f"raised {type(g).__name__}: {g}"
            if not positive:
                return None if g is None else f"witness {g} for a non-isomorphic pair"
            if g is None:
                return "no witness for an isomorphic pair"
            u, r = g.u.value, g.r.value
            if u not in fr.unit_set or fr.act(u, r, t, n) != (t2, n2):
                return f"witness {g} does not map s to t"
            return None
        return Op(f"fin.iso|{fr.spec}", call, check)

    def _fin_disc(self, rng, fr, j):
        d = rng.choice(fr.elements)

        def call():
            ring = Q.parse_ring(fr.spec)
            w = Q.is_discriminant(ring, ring.element(d))
            return None if w is None else w.value
        return Op(f"fin.disc|{fr.spec}|{j}", call, _expect(fr.disc_witness[d]))

    def _fin_act(self, rng, fr, j):
        t, n = self._pair(rng, fr)
        m = rng.choice(fr.four_torsion)

        def call():
            ring = Q.parse_ring(fr.spec)
            s = Q.as_act(Q.QuadraticAlgebra(ring, t, n), ring.element(m))
            return _vals(s.t, s.n)
        want = (t, fr.add(n, fr.mul(fr.disc(t, n), m)))
        return Op(f"fin.act|{fr.spec}|{j}", call, _expect(want))

    # Z with 8 to 700-bit integers.
    def _z_star(self, rng, bits, i):
        t, n, s, m = (_signed_bits(rng, bits) for _ in range(4))

        def call():
            ring = Q.parse_ring("Z")
            p = Q.star_product(Q.QuadraticAlgebra(ring, t, n), Q.QuadraticAlgebra(ring, s, m))
            return _vals(p.t, p.n, p.disc())
        pt, pn = s * t, m * t * t + n * s * s - 4 * n * m
        return Op(f"z.star|{i}", call, _expect((pt, pn, pt * pt - 4 * pn)))

    def _z_iso(self, rng, bits, i):
        positive = i % 2 == 0
        t, n = _signed_bits(rng, bits), _signed_bits(rng, bits)
        if positive:
            u, r = rng.choice((1, -1)), _signed_bits(rng, bits)
            t2, n2 = u * (t + 2 * r), n + t * r + r * r
        else:
            while True:
                t2, n2 = _signed_bits(rng, bits), _signed_bits(rng, bits)
                if t2 * t2 - 4 * n2 != t * t - 4 * n:
                    break

        def call():
            ring = Q.parse_ring("Z")
            return Q.is_isomorphic(Q.QuadraticAlgebra(ring, t, n), Q.QuadraticAlgebra(ring, t2, n2))

        def check(g):
            if isinstance(g, BaseException):
                return f"raised {type(g).__name__}: {g}"
            if not positive:
                return None if g is None else f"witness {g} for a non-isomorphic pair"
            if g is None:
                return "no witness for an isomorphic pair"
            u, r = g.u.value, g.r.value
            ok = u in (1, -1) and (u * (t + 2 * r), n + t * r + r * r) == (t2, n2)
            return None if ok else f"witness {g} does not map s to t"
        return Op(f"z.iso|{i}", call, check)

    def _z_disc(self, rng, bits, i):
        d = _signed_bits(rng, bits)

        def call():
            ring = Q.parse_ring("Z")
            w = Q.is_discriminant(ring, ring.element(d))
            return None if w is None else w.value
        return Op(f"z.disc|{i}", call, _expect(z_disc_witness(d)))

    def _z_std_alg(self, rng, bits, i):
        """A d = 0 or 1 mod 4 that is not a perfect square."""
        while True:
            d = _signed_bits(rng, bits)
            d -= d % 4 if rng.random() < 0.5 else (d - 1) % 4
            if d != 0 and (d < 0 or math.isqrt(d) ** 2 != d):
                break

        def call():
            a = Q.integer_algebra_for_disc(d)
            return _vals(a.t, a.n)
        return Op(f"z.std_alg|{i}", call, _expect((d, (d * d - d) // 4)))

    def _z_std_alg_square(self, rng, bits, i):
        """A perfect square d of about `bits` bits; the oracle is math.isqrt."""
        half = max(2, bits // 2)
        root = rng.getrandbits(half) | (1 << (half - 1)) | 1
        d = root * root

        def call():
            a = Q.integer_algebra_for_disc(d)
            return _vals(a.t, a.n)
        return Op(f"z.std_alg_square|{i}", call, _expect((root, 0)))

    def probe(self, session, rng):
        """`integer_algebra_for_disc` on perfect squares of 8 to 700 bits.

        The package finds the square root of d in floating point, so it
        returns the non-square algebra for most large squares.
        """
        count = 1 if session["quick"] else PROBE_OPS
        return [self._z_std_alg_square(rng, int(bits), i)
                for i, bits in enumerate(_strata(rng, count, 8, 701))]

    # The cost of the Z sec loops depends on t mod 4, so slot i fixes it.
    def _z_sec_el(self, rng, size, i):
        t = rng.choice((1, -1)) * (size - size % 4 + i % 4)

        def call():
            ring = Q.parse_ring("Z")
            return Q.is_sec_element(ring, ring.element(t))
        return Op(f"z.sec_el|{i}", call, _expect(z_sec_element(t)))

    def _z_sec_alg(self, rng, size, i):
        """A quarter of the algebras have discriminant 0 and are not sec."""
        t = rng.choice((1, -1)) * (size - size % 4 + i % 4)
        if i % 4 == 0:
            t += t % 2
            n = t * t // 4
        else:
            n = rng.randint(-10 ** 4, 10 ** 4)
            if t * t == 4 * n:
                n += 1

        def call():
            return Q.is_sec_algebra(Q.QuadraticAlgebra(Q.parse_ring("Z"), t, n))
        return Op(f"z.sec_alg|{i}", call, _expect(t * t - 4 * n != 0))


# ---------------------------------------------------------------- cli

CLI_OPS = [
    ["verify"],
    ["verify", "--format", "json"],
    ["verify", "--format", "csv"],
    ["product", "--ring", "Z", "--s", "0,-2", "--t", "0,-3"],
    ["product", "--ring", "Z", "--s", "123456789012345678901,-98765432109876543210",
     "--t", "-31415926535897932384,27182818284590452353"],
    ["product", "--ring", "Z/2[x]/(x^2+x+1)", "--s", "1,0,0,1", "--t", "1,0,1,1"],
    ["product", "--ring", "Z/4[x]/(x^2+x+1)", "--s", "1,2,3,0", "--t", "2,1,0,3"],
    ["as-group", "--ring", "Z/4[x]/(x^2+x+1)"],
    ["classify", "--ring", "Z/8"],
    ["classify", "--ring", "Z/8", "--format", "csv"],
    ["disc", "--ring", "Z/12"],
    ["disc", "--ring", "Z/16"],
    ["fibers", "--ring", "Z/12"],
    ["sec", "--ring", "Z/16"],
    ["classify", "--ring", "Z"],   # usage error: enumeration of Z, exit 2
]


def cli_key(argv):
    return " ".join(argv)


def cli_subprocess(root: Path, argv):
    """`python -m quadrings argv` from the checkout; returns (exit code, stdout)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "quadrings", *argv], cwd=root, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=120)
    return proc.returncode, proc.stdout


def cli_inprocess(argv):
    """`quadrings.cli.main(argv)` with stdout captured; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = Q.cli.main(list(argv))
    return code, out.getvalue().encode()


class Cli(Workload):
    """`python -m quadrings` subprocesses, one at a time."""

    name = "cli"
    ref_pass_s = 2.2
    min_passes = 8    # >= 120 latency samples, so ten or more lie beyond p90

    def __init__(self, root: Path):
        self.root = root

    def setup(self, quick):
        return {"argvs": CLI_OPS[3:4] if quick else CLI_OPS, "inprocess": False}

    def ops(self, session, rng, index):
        argvs = list(session["argvs"])
        rng.shuffle(argvs)
        for argv in argvs:
            def call(argv=argv):
                if session["inprocess"]:
                    code, out = cli_inprocess(argv)
                else:
                    code, out = cli_subprocess(self.root, argv)
                session["stdout_bytes"] = session.get("stdout_bytes", 0) + len(out)
                return code, out
            key = cli_key(argv)
            yield Op(key, call, self._check(key))

    def _check(self, key):
        def check(result):
            want = golden(self.name).get(key)
            if want is None:
                return f"no golden digest for {key}"
            if isinstance(result, BaseException):
                return f"raised {type(result).__name__}: {result}"
            code, out = result
            got = hashlib.sha256(out).hexdigest()
            if code != want["exit"]:
                return f"exit {code}, want {want['exit']}"
            return None if got == want["sha256"] else f"stdout {got[:12]} != golden {want['sha256'][:12]}"
        return check


def make(name: str, root: Path):
    return {"classify": Classify, "fibers": Fibers, "queries": Queries,
            "cli": lambda: Cli(root)}[name]()


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    """The inputs of pass `index`; str seeds do not depend on PYTHONHASHSEED."""
    return random.Random(f"{workload}:{seed}:{index}")
