"""cli: one fresh `python -m cremona_kit.cli` process at a time.

Each block runs every README subcommand once on small seeded inputs
(files written while the block is generated) plus the three error paths
that exit with code 1.  Latency is spawn-to-exit, measured by this process;
peak_rss_mb is the largest child.  In the traced run each child starts
through cli_boot.py, which wraps the program's functions inside the child
and hands its spans' sums back on stderr.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

import wl_census
from common import Op, block_rng
from tracer import merge

HERE = os.path.dirname(os.path.abspath(__file__))
BOOT = os.path.join(HERE, "cli_boot.py")
WORK_DIR = ".perfbench_work"
TRACE_MARK = "PERFBENCH-TRACE "
CHILD_TIMEOUT_S = 120
# Parameters whose few values cost very differently cycle with the block
# index, so every run of the same length has the same mix of them, and
# set-up (which builds block 0) costs the same whatever the seed.
FACTOR_FIELDS = ((2, 8, 40), (3, 6, 20), (101, 3, 10))  # (q, lowest, highest degree)
CENSUS_CELLS = ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2))


def setup(seed):
    from cremona_kit import catalog, fields, freeprod, linsys, orbits, rewrite

    work = os.path.join(os.getcwd(), WORK_DIR, str(os.getpid()))
    os.makedirs(work)
    F2, F3 = fields.PrimeField(2), fields.PrimeField(3)
    pool = rewrite.make_center_pool(F2, (1, 2, 3, 5, 17, 19))
    return {
        "seed": seed,
        "work": work,
        "trace": False,
        "trace_raws": [],
        "import_ms": [],
        "exits": {},
        "templates": [rewrite.make_link_template(F2, p) for p in pool],
        "quartics": {
            q: [f for f in fields.monic_polys(F, 4) if fields.is_irreducible(f)]
            for q, F in ((2, F2), (3, F3))
        },
        "geometry": wl_census.setup(seed, recorded=False),
        "m": {"fields": fields, "orbits": orbits, "catalog": catalog, "linsys": linsys,
              "rewrite": rewrite, "freeprod": freeprod},
    }


def teardown(state):
    shutil.rmtree(state["work"], ignore_errors=True)
    parent = os.path.dirname(state["work"])
    if os.path.isdir(parent) and not os.listdir(parent):
        os.rmdir(parent)


def trace_summary(state):
    extra = {f"cli.exit.{code}": n for code, n in state["exits"].items()}
    extra["cli.import_ms"] = statistics.median(state["import_ms"]) if state["import_ms"] else 0.0
    return merge(state["trace_raws"]), extra


def _write(state, name, obj):
    path = os.path.join(state["work"], name)
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
    return path


def _op(state, name, argv, expect, verify):
    """verify(stdout, stderr) returns None when the output is right."""
    def run():
        if state["trace"]:
            cmd = [sys.executable, BOOT, *argv]
        else:
            cmd = [sys.executable, "-m", "cremona_kit.cli", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def digest(out):
        code, stdout, stderr = out
        lines = []
        for line in stderr.splitlines():
            if line.startswith(TRACE_MARK):
                raw = json.loads(line[len(TRACE_MARK):])
                state["import_ms"].append(raw.pop("import_ms"))
                state["trace_raws"].append(raw)
            else:
                lines.append(line)
        if state["trace"]:
            state["exits"][code] = state["exits"].get(code, 0) + 1
        return code, stdout, "\n".join(lines)

    def check(out):
        code, stdout, stderr = out
        if code != expect:
            return f"{name}: exit {code}, expected {expect}: {stderr.strip()[-200:]}"
        try:
            return verify(stdout, stderr)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{name}: output does not parse back: {type(exc).__name__}: {exc}"

    return Op("cli", run, check, digest, {"command": name})


def _error_kind(kind):
    def verify(stdout, stderr):
        got = json.loads(stderr.strip().splitlines()[-1])["error"]["kind"]
        return None if got == kind else f"error kind {got}, expected {kind}"
    return verify


def block(state, index):
    m = state["m"]
    fields, orbits, catalog, rewrite, freeprod, linsys = (
        m["fields"], m["orbits"], m["catalog"], m["rewrite"], m["freeprod"], m["linsys"])
    geo = state["geometry"]
    rng = block_rng(state["seed"], index, "cli")
    F2 = fields.PrimeField(2)
    ops = []

    def add(name, argv, verify, expect=0):
        ops.append(_op(state, name, argv, expect, verify))

    # field factor / irreducible
    q, lo, hi = FACTOR_FIELDS[index % len(FACTOR_FIELDS)]
    Fq = fields.PrimeField(q)
    d = rng.randint(lo, hi)
    f = fields.Poly(Fq, [Fq.from_int(rng.randrange(q)) for _ in range(d)] + [Fq.one])
    f_text = fields.poly_to_string(f)

    def verify_factor(stdout, stderr, Fq=Fq, f=f):
        prod = fields.Poly(Fq, (Fq.one,))
        for item in json.loads(stdout):
            g = fields.poly_from_json(item["factor"])
            for _ in range(item["multiplicity"]):
                prod = prod * g
        return None if prod == f.monic() else "factors do not multiply back to the input"
    add("field factor", ["field", "factor", "--field", f"F{q}", "--poly", f_text], verify_factor)

    g = fields.Poly(fields.QQ, [rng.randint(-9, 9) or 1 for _ in range(rng.randint(3, 12))] + [1])

    def verify_irreducible(stdout, stderr):
        cert = json.loads(stdout)
        if "witness" in cert:
            fields.poly_from_json(cert["witness"])
        return None if cert["verdict"] in (fields.IRREDUCIBLE, fields.REDUCIBLE, fields.UNVERIFIED) else "bad verdict"
    add("field irreducible", ["field", "irreducible", "--field", "Q", "--poly", fields.poly_to_string(g)],
        verify_irreducible)

    # orbits
    oq = (2, 3)[index % 2]
    quartic = rng.choice(state["quartics"][oq])

    def verify_orbit(stdout, stderr):
        o = orbits.orbit_from_json(json.loads(stdout))
        return None if (o.size, o.general_position) == (4, orbits.GP_YES) else f"orbit {o}"
    add("orbit make", ["orbit", "make", "--field", f"F{oq}", "--poly", fields.poly_to_string(quartic, "t"),
                       "--template", "conic"], verify_orbit)

    cq, cn = CENSUS_CELLS[index % len(CENSUS_CELLS)]

    def verify_census(stdout, stderr, cq=cq, cn=cn):
        rows = [line.split("\t") for line in stdout.splitlines()]
        if [r[2] for r in rows] != [orbits.ALL, orbits.GENERAL_POSITION_ONLY]:
            return "census rows"
        if int(rows[0][3]) != wl_census.closed_points(cq, cn):
            return f"census counts {rows[0][3]} orbits"
        return None
    add("orbit census", ["orbit", "census", "--field", f"F{cq}", "--size", str(cn)], verify_census)

    kn, kf = 1 + index % 4, ("all", "gp")[index // 4 % 2]

    def verify_classify(stdout, stderr, kn=kn, kf=kf):
        classes = json.loads(stdout)
        for c in classes:
            orbits.orbit_from_json(c["representative"])
        total = sum(c["count"] for c in classes)
        if kf == "all" and total != wl_census.closed_points(2, kn):
            return f"classify covers {total} orbits"
        return None
    add("orbit classify", ["orbit", "classify", "--field", "F2", "--size", str(kn), "--filter", kf],
        verify_classify)

    Fm = geo["fields"][oq]
    mf, K, roots = wl_census._closed_point(geo, Fm, 4, rng)
    M = wl_census._matrix(Fm, rng)
    pts = [(K.one, a, K.mul(a, a)) for a in roots]
    q_pts = [wl_census.apply(Fm, K, M, p) for p in pts]
    p_path = _write(state, f"p{index}.json", orbits.orbit_to_json(orbits.orbit_from_poly(Fm, mf, orbits.CONIC)))
    q_path = _write(state, f"q{index}.json", orbits.orbit_to_json(orbits.explicit_orbit(Fm, K, q_pts)))

    def verify_match(stdout, stderr, Fm=Fm, K=K, pts=pts, q_pts=q_pts):
        A = json.loads(stdout)["match"]
        if A is None:
            return "no match for an image under PGL3"
        A = [[Fm.elem_from_str(x) for x in row] for row in A]
        return None if wl_census.maps_onto(Fm, K, A, pts, q_pts) else "matrix does not map P onto Q"
    add("orbit match", ["orbit", "match", "--p", p_path, "--q", q_path], verify_match)

    # linsys
    size, two_lambda = rng.randint(16, 21), rng.randint(1, 20)
    two_nu, two_mult = rng.randint(-20, 20), rng.randint(0, 2 * two_lambda)

    def verify_push(stdout, stderr, size=size, two_lambda=two_lambda, two_nu=two_nu, two_mult=two_mult):
        out = json.loads(stdout)
        linsys.LinearSystemClass.from_json(out["input"])
        catalog.link_from_json(out["link"])
        pushed = linsys.LinearSystemClass.from_json(out["pushed"])
        want = two_nu + size * (two_lambda - two_mult)
        return None if pushed.two_nu == want else f"pushed two_nu {pushed.two_nu}, expected {want}"
    add("linsys push", ["linsys", "push", "--two-lambda", str(two_lambda), "--two-nu", str(two_nu),
                        "--orbit-size", str(size), "--two-mult", str(two_mult)], verify_push)

    # words
    letters = []
    target = rng.randint(12, 80)
    while len(letters) < target:
        piece = rewrite.random_relator(rng, state["templates"])
        letters.extend(piece.letters)
    w = rewrite.GroupoidWord(tuple(letters), piece.source, piece.target)
    w_path = _write(state, f"w{index}.json", rewrite.word_to_json(w))
    log_path = os.path.join(state["work"], f"log{index}.json")

    def verify_validate(stdout, stderr):
        return None if json.loads(stdout)["ok"] else "valid word rejected"
    add("word validate", ["word", "validate", "--in", w_path], verify_validate)

    def verify_reduce(stdout, stderr, log_path=log_path):
        out = json.loads(stdout)
        rewrite.word_from_json(out["residual"])
        if not out["trivial"] or out["stuck"]:
            return "relator did not reduce to the empty word"
        with open(log_path) as fh:
            return None if json.load(fh) == out["moves"] else "move log file differs from stdout"
    add("word reduce", ["word", "reduce", "--in", w_path, "--log", log_path], verify_reduce)

    def verify_reorder(stdout, stderr):
        out = json.loads(stdout)
        depths = [l.depth for l in rewrite.word_from_json(out["word"]).letters]
        shallow = next((i for i, d in enumerate(depths) if d < 16), len(depths))
        return None if all(d < 16 for d in depths[shallow:]) else "deep letters not first"
    add("word reorder", ["word", "reorder", "--in", w_path, "--delta", "16"], verify_reorder)

    def verify_identity(stdout, stderr):
        elem = freeprod.FreeProductElement.from_json(json.loads(stdout))
        return None if elem.is_identity() else "relator image is not the identity"
    add("homo eval", ["homo", "eval", "--in", w_path], verify_identity)
    add("homo eval refined", ["homo", "eval", "--in", w_path, "--refined", "--field", "F2"], verify_identity)

    # constructions
    dd = rng.randint(2, 12)
    cs = [2 * rng.choice((1, 3, -1))] + [2 * rng.randint(-2, 2) for _ in range(dd - 1)] + [1]
    dj_poly = fields.poly_to_string(fields.Poly(fields.QQ, cs))

    def verify_dj(stdout, stderr, dd=dd):
        out = json.loads(stdout)
        freeprod.FreeProductElement.from_json(out["image"])
        n = len(rewrite.word_from_json(out["word"]).letters)
        return None if n == dd + 1 else f"{n} letters for degree {dd}"
    add("dejonquieres decompose", ["dejonquieres", "decompose", "--field", "Q", "--poly", dj_poly], verify_dj)

    rd = (17, 19, 21, 23)[index % 4]
    r = fields.find_irreducible(F2, rd)
    r_text = fields.poly_to_string(r, "t")

    def verify_link(stdout, stderr, rd=rd):
        out = json.loads(stdout)
        link = catalog.link_from_json(out["link"])
        if (link.depth, out["report"]["conic_count"]) != (rd, rd):
            return f"link of depth {link.depth} with {out['report']['conic_count']} conics"
        return None
    c5_orbit = fields.poly_to_string(rng.choice(state["quartics"][2]), "t")
    add("biglink c5", ["biglink", "c5", "--field", "F2", "--orbit4", c5_orbit, "--rpoly", r_text], verify_link)
    add("biglink c6", ["biglink", "c6", "--field", "F2", "--pair", "x^2+x+1", "--rpoly", r_text], verify_link)

    template = rng.choice(state["templates"])
    link = rewrite.instantiate_link(template, catalog.hirzebruch(rng.randint(0, 3)), rng)
    l_path = _write(state, f"l{index}.json", catalog.link_to_json(link))
    add("catalog validate", ["catalog", "validate", "--in", l_path], verify_validate)

    bound = (17, 19, 21)[index % 3]

    def verify_report(stdout, stderr):
        out = json.loads(stdout)
        for image in out["witness_images"].values():
            freeprod.FreeProductElement.from_json(image)
        return None if out["free_factors_ok"] else "witnesses not in distinct free factors"
    add("report refined", ["report", "refined", "--field", "F2", "--bound", str(bound)], verify_report)

    def verify_sym4(stdout, stderr):
        orders = sorted(e["order"] for e in json.loads(stdout))
        return None if orders == [4, 4, 8, 12, 24] else f"subgroup orders {orders}"
    add("audit sym4", ["audit", "sym4"], verify_sym4)

    # error paths that exit 1 with error JSON on stderr
    add("error not-prime-power", ["field", "irreducible", "--field", "F6", "--poly", "x+1"],
        _error_kind("BadInput"), expect=1)
    even = fields.poly_to_string(fields.Poly(F2, [F2.one] + [F2.zero] * (rd - 1) + [F2.one, F2.one]), "t")
    add("error even-degree", ["biglink", "c5", "--field", "F2", "--orbit4", c5_orbit, "--rpoly", even],
        _error_kind("EvenDegree"), expect=1)
    add("error reducible", ["orbit", "make", "--field", "F2", "--poly", "x^4+x^2+1", "--template", "conic"],
        _error_kind("NotIrreducible"), expect=1)

    rng.shuffle(ops)
    return ops
