"""Seeded inputs and expected outcomes for every workload.

``build(workload, seed)`` returns a JSON-ready job: the inputs a pass loads
and the expectations its checks compare against.  It runs in the benchmark
process before any pass starts, so nothing here is timed.  The same seed
always gives the same job.

Regenerate the ``dense_exact`` inputs of a seed with::

    python3 -m bench.inputs dense_exact --seed 7 --out dense7.json
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction
from pathlib import Path

from . import reference as ref

WORKLOADS = ("catalog", "dense_exact", "identity", "flows")

# flows: every Hamiltonian of the `bisym flow` table, RK4 at three step sizes
FLOW_HORIZON = 4.0
FLOW_STEPS = (0.02, 0.01, 0.005)
# relative drift of H (floored at |H(0)| = 1), on every step size and in the CSV
FLOW_DRIFT_BOUND = 1e-5
# step-halving differences count as truncation error above this share of the state
FLOW_ROUNDOFF = 1e-11
FLOW_RATIO_WINDOW = (14.0, 18.0)

# dense_exact: parameter samples handed to the checks for the parametrised table
DENSE_PARAM_SAMPLES = 2
DENSE_PERTURBATION = Fraction(1, 7)
DENSE_PARAM = "s"

# identity: points at which a mutant's broken identities are evaluated
IDENTITY_CLAIM_POINTS = 3
IDENTITY_CLAIM_TOL = 1e-6


def _frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# polynomials in one parameter: tuples of Fraction coefficients, lowest first


def _padd(p, q):
    n = max(len(p), len(q))
    return tuple((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))


def _pmul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def _pval(p, s: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * s + c
    return acc


def _pzero(p) -> bool:
    return not any(p)


def _pstr(p) -> str:
    """Render a polynomial in DENSE_PARAM for the program's parser."""
    terms = []
    for k, c in enumerate(p):
        if not c:
            continue
        coef = f"({_frac_str(c)})"
        terms.append(coef if k == 0 else f"{coef} * {DENSE_PARAM}" + (f"^{k}" if k > 1 else ""))
    return " + ".join(terms) if terms else "0"


def _const(x) -> tuple:
    return (Fraction(x),)


def _contract(*factors):
    """Product of polynomial factors, skipping the work when one is zero."""
    acc = (Fraction(1),)
    for f in factors:
        if _pzero(f):
            return (Fraction(0),)
        acc = _pmul(acc, f)
    return acc


def _psum(items):
    acc = (Fraction(0),)
    for p in items:
        if not _pzero(p):
            acc = _padd(acc, p)
    return acc


# ---------------------------------------------------------------------------
# dense_exact


def _random_invertible(n: int, rng: random.Random):
    while True:
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        try:
            return m, ref.inverse(m)
        except ZeroDivisionError:
            continue


def _basis_change(n: int, rng: random.Random, parametric: bool):
    """B and B^-1 as polynomial matrices; the parametric one is B0 (I + s E_pq)."""
    b0, b0inv = _random_invertible(n, rng)
    B = [[_const(b0[i][j]) for j in range(n)] for i in range(n)]
    Binv = [[_const(b0inv[i][j]) for j in range(n)] for i in range(n)]
    if parametric:
        p, q = rng.sample(range(n), 2)
        # det(I + s E_pq) = 1 for p != q, so B(s) is invertible at every sample
        for i in range(n):
            B[i][q] = _padd(B[i][q], (Fraction(0), b0[i][p]))
        for j in range(n):
            Binv[p][j] = _padd(Binv[p][j], (Fraction(0), -b0inv[q][j]))
    return B, Binv


def _transform(data: dict, B, Binv) -> dict:
    """Carry a bialgebra with its r-matrices and acting matrices to the basis
    e'_i = B_ia e_a (dual basis e'^i = Binv_ai e^a).  Two-forms are left as
    they are: ``_closed_forms`` replaces them."""
    n = len(B)
    rng_n = range(n)
    out = dict(data)
    f = data["g"]
    out["g"] = [[[_psum(_contract(B[i][a], B[j][b], f[a][b][c], Binv[c][k])
                        for a in rng_n for b in rng_n for c in rng_n if not _pzero(f[a][b][c]))
                  for k in rng_n] for j in rng_n] for i in rng_n]
    ft = data["gdual"]
    out["gdual"] = [[[_psum(_contract(Binv[a][i], Binv[b][j], ft[a][b][c], B[k][c])
                            for a in rng_n for b in rng_n for c in rng_n if not _pzero(ft[a][b][c]))
                      for k in rng_n] for j in rng_n] for i in rng_n]

    def lower(m):  # components of an element of g* (x) g*: B m B^T
        return [[_psum(_contract(B[i][a], m[a][b], B[j][b]) for a in rng_n for b in rng_n)
                 for j in rng_n] for i in rng_n]

    def upper(m):  # components of an element of g (x) g: Binv^T m Binv
        return [[_psum(_contract(Binv[a][i], m[a][b], Binv[b][j]) for a in rng_n for b in rng_n)
                 for j in rng_n] for i in rng_n]

    for key, fn in (("rt", lower), ("r", upper)):
        if data.get(key) is not None:
            out[key] = fn(data[key])
    if data.get("rept") is not None:
        rho = data["rept"]
        out["rept"] = [[[_psum(_contract(Binv[a][i], rho[a][u][v]) for a in rng_n)
                         for v in range(len(rho[0]))] for u in range(len(rho[0]))] for i in rng_n]
    return out


def _conjugate_rep(data: dict, rng: random.Random) -> dict:
    """M rho_i M^-1 for a seeded rational M, so the acting matrices are dense too."""
    if data.get("rept") is None:
        return data
    size = len(data["rept"][0])
    M, Minv = _random_invertible(size, rng)
    Mp = [[_const(x) for x in row] for row in M]
    Mip = [[_const(x) for x in row] for row in Minv]
    rng_s = range(size)
    mats = []
    for rho in data["rept"]:
        left = [[_psum(_contract(Mp[u][w], rho[w][v]) for w in rng_s) for v in rng_s] for u in rng_s]
        mats.append([[_psum(_contract(left[u][w], Mip[w][v]) for w in rng_s) for v in rng_s]
                     for u in rng_s])
    return dict(data, rept=mats)


def _closed_forms(data: dict, rng: random.Random, parametric: bool) -> dict:
    """Replace each two-form the case carries by a seeded nondegenerate form
    that is closed for the case's table.

    The program's closure check uses the cyclic sum f_ij^l w_lk + f_ik^l w_lj
    + f_jk^l w_li over i < j < k, which is not invariant under a change of
    basis, so a transported closed form fails it.  The closed forms are the
    null space of that linear condition; a side whose null space holds no
    nondegenerate form in a few seeded draws, and the parametrised case (whose
    null space would depend on the parameter), carry no form.
    """
    out = dict(data)
    n = data["dim"]
    for key, table in (("omega_g", "g"), ("omega_gdual", "gdual")):
        if data.get(key) is None:
            continue
        out[key] = None
        if parametric:
            continue
        f = [[[p[0] for p in row] for row in plane] for plane in data[table]]
        rows, cols = ref.closure_rows(f)
        basis = ref.nullspace(rows, len(cols))
        for _ in range(20 if basis else 0):
            coef = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in basis]
            upper = [sum((c * v[m] for c, v in zip(coef, basis)), Fraction(0)) for m in range(len(cols))]
            w = [[Fraction(0)] * n for _ in range(n)]
            for (a, b), x in zip(cols, upper):
                w[a][b], w[b][a] = x, -x
            if ref.det(w) != 0:
                out[key] = [[_const(x) for x in row] for row in w]
                break
    return out


def _entry_data(entry, env) -> dict:
    """An entry's exact tables at one parameter assignment, as constant polynomials."""
    from bisymplectic.expr import evaluate

    def grid(m):
        return [[_const(evaluate(e, env)) for e in row] for row in m]

    def tensor(sc):
        return [[[_const(x) for x in row] for row in plane] for plane in sc.evaluated(env)]

    return {
        "dim": entry.dim,
        "g": tensor(entry.g),
        "gdual": tensor(entry.gdual),
        "r": grid(entry.r.entries) if entry.r is not None else None,
        "rt": grid(entry.rt.entries) if entry.rt is not None else None,
        "omega_g": grid(entry.omega_g.entries) if entry.omega_g is not None else None,
        "omega_gdual": grid(entry.omega_gdual.entries) if entry.omega_gdual is not None else None,
        "rept": ([grid(m) for m in entry.rept.matrices] if entry.rept is not None else None),
    }


def _direct_sum_b2(data: dict) -> dict:
    """data + b2, where b2 is the non-abelian plane [e1, e2] = e2 with zero
    cobracket; the r-matrices and acting matrices extend by zero, and the
    forms only carry over as present (``_closed_forms`` solves for them)."""
    d = data["dim"]
    n = d + 2
    Z = (Fraction(0),)
    g = [[[Z] * n for _ in range(n)] for _ in range(n)]
    gd = [[[Z] * n for _ in range(n)] for _ in range(n)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                g[i][j][k] = data["g"][i][j][k]
                gd[i][j][k] = data["gdual"][i][j][k]
    g[d][d + 1][d + 1] = _const(1)
    g[d + 1][d][d + 1] = _const(-1)

    def pad(m):
        out = [[Z] * n for _ in range(n)]
        for i in range(d):
            for j in range(d):
                out[i][j] = m[i][j]
        return out

    out = {"dim": n, "g": g, "gdual": gd}
    for key in ("r", "rt", "omega_g", "omega_gdual"):
        out[key] = pad(data[key]) if data.get(key) is not None else None
    if data.get("rept") is not None:
        size = len(data["rept"][0])
        zero = [[Z] * size for _ in range(size)]
        out["rept"] = list(data["rept"]) + [zero, zero]
    else:
        out["rept"] = None
    return out


def _evaluated(data: dict, sample: dict) -> dict:
    s = sample.get(DENSE_PARAM, Fraction(0))

    def ev(x):
        if isinstance(x, tuple):
            return _pval(x, s)
        if x is None:
            return None
        return [ev(y) for y in x]

    return {k: (ev(v) if k != "dim" else v) for k, v in data.items()}


def _reference(check: str, data: dict, samples: list) -> Fraction | tuple:
    """The reference value of one exact check: max over samples, like the program."""
    vals = [_evaluated(data, smp) for smp in samples]
    if check == "nondegenerate.g" or check == "nondegenerate.gdual":
        key = "omega_g" if check.endswith(".g") else "omega_gdual"
        return min(abs(ref.det(v[key])) for v in vals)
    if check == "manin":
        pairs = [ref.manin_max(v["g"], v["gdual"]) for v in vals]
        return (max(p[0] for p in pairs), max(p[1] for p in pairs))
    fn = {
        "antisymmetry.g": lambda v: ref.antisymmetry_max(v["g"]),
        "antisymmetry.gdual": lambda v: ref.antisymmetry_max(v["gdual"]),
        "jacobi.g": lambda v: ref.jacobi_max(v["g"]),
        "jacobi.gdual": lambda v: ref.jacobi_max(v["gdual"]),
        "cybe.r": lambda v: ref.cybe_max(v["r"], v["g"]),
        "cybe.rt": lambda v: ref.cybe_max(v["rt"], v["gdual"]),
        "closure.g": lambda v: ref.closure_max(v["omega_g"], v["g"]),
        "closure.gdual": lambda v: ref.closure_max(v["omega_gdual"], v["gdual"]),
        "representation": lambda v: ref.representation_max(v["rept"], v["gdual"]),
    }[check]
    return max(fn(v) for v in vals)


def _positive_checks(data: dict, tables: bool = True) -> list[str]:
    """Every exact check whose inputs the case carries."""
    out = ["antisymmetry.g", "antisymmetry.gdual", "jacobi.g", "jacobi.gdual", "manin"] if tables else []
    if data.get("r") is not None:
        out.append("cybe.r")
    if data.get("rt") is not None:
        out.append("cybe.rt")
    for side in ("g", "gdual"):
        if data.get(f"omega_{side}") is not None:
            out += [f"closure.{side}", f"nondegenerate.{side}"]
    if data.get("rept") is not None:
        out.append("representation")
    return out


def _bump(p, delta=DENSE_PERTURBATION):
    return _padd(p, (delta,))


def _negatives(name: str, data: dict, samples: list, rng: random.Random, tables: bool) -> list[dict]:
    """Perturbed copies of one case, each with the checks its perturbation must
    break and the reference value the program has to report."""
    n = data["dim"]
    out = []

    def first_failing(candidates, build, checks):
        """The first candidate copy on which the reference fails every check."""
        for cand in candidates:
            copy = build(cand)
            values = {c: _reference(c, copy, samples) for c in checks}
            if all(any(v) if isinstance(v, tuple) else v != 0 for v in values.values()):
                return copy, values
        return None, None

    def shuffled(items):
        items = list(items)
        rng.shuffle(items)
        return items

    if tables:
        # one entry of each table changed without its mirror: antisymmetry,
        # Jacobi and the double all break
        def build_table(pos):
            i, j, k = pos
            out = dict(data)
            for key in ("g", "gdual"):
                t = [[list(row) for row in plane] for plane in data[key]]
                t[i][j][k] = _bump(t[i][j][k])
                out[key] = t
            return out
        positions = shuffled((i, j, k) for i in range(n) for j in range(n) for k in range(n) if i != j)
        # the 12-dim double of a 6-dim copy costs about 2.8 s per Manin call,
        # so a perturbed table above dimension 4 stops at the table checks
        checks = ["antisymmetry.g", "antisymmetry.gdual", "jacobi.g", "jacobi.gdual"]
        checks += ["manin"] if n <= 4 else []
        copy, values = first_failing(positions, build_table, checks)
        if copy is not None:
            out.append({"name": f"{name}:perturbed-table", "data": copy, "values": values})

    pairs = shuffled((i, j) for i in range(n) for j in range(i + 1, n))
    for key, check in (("r", "cybe.r"), ("rt", "cybe.rt"), ("omega_g", "closure.g"),
                       ("omega_gdual", "closure.gdual")):
        if data.get(key) is None:
            continue

        def build_skew(pos, key=key):
            i, j = pos
            m = [list(row) for row in data[key]]
            m[i][j] = _bump(m[i][j])
            m[j][i] = _bump(m[j][i], -DENSE_PERTURBATION)
            return dict(data, **{key: m})
        copy, values = first_failing(pairs, build_skew, [check])
        if copy is not None:
            out.append({"name": f"{name}:perturbed-{key}", "data": copy, "values": values})

    for key, check in (("omega_g", "nondegenerate.g"), ("omega_gdual", "nondegenerate.gdual")):
        if data.get(key) is None:
            continue
        p = rng.randrange(n)
        m = [[(Fraction(0),) if p in (i, j) else x for j, x in enumerate(row)]
             for i, row in enumerate(data[key])]
        copy = dict(data, **{key: m})
        out.append({"name": f"{name}:degenerate-{key}", "data": copy,
                    "values": {check: _reference(check, copy, samples)}})

    if data.get("rept") is not None:
        size = len(data["rept"][0])

        def build_rep(pos):
            a, u, v = pos
            mats = [[list(row) for row in m] for m in data["rept"]]
            mats[a][u][v] = _bump(mats[a][u][v])
            return dict(data, rept=mats)
        positions = shuffled((a, u, v) for a in range(n) for u in range(size) for v in range(size))
        copy, values = first_failing(positions, build_rep, ["representation"])
        if copy is not None:
            out.append({"name": f"{name}:perturbed-rept", "data": copy, "values": values})
    return out


def _serial_case(name: str, data: dict, samples: list, expect: dict) -> dict:
    def enc(x):
        if isinstance(x, tuple):
            return _pstr(x)
        if x is None:
            return None
        return [enc(y) for y in x]

    def enc_value(v):
        if isinstance(v, tuple):
            return [_frac_str(v[0]), _frac_str(v[1])]
        return _frac_str(v)

    return {
        "name": name,
        "dim": data["dim"],
        "params": [DENSE_PARAM] if any(DENSE_PARAM in smp for smp in samples) else [],
        "samples": [{k: _frac_str(v) for k, v in smp.items()} for smp in samples],
        **{k: enc(data.get(k)) for k in ("g", "gdual", "r", "rt", "omega_g", "omega_gdual", "rept")},
        "expect": {c: {"ok": ok, "max_abs": enc_value(v)} for c, (ok, v) in expect.items()},
    }


def build_dense_exact(seed: int) -> dict:
    """Bundled bialgebras in seeded generic bases, a 6-dim direct sum, and a
    perturbed copy of each.

    ex1 (the entry with r-matrices, forms and acting matrices) goes through a
    basis change with a free parameter s, so its tables are parametrised and
    the checks loop over parameter samples.  trivial_abelian has zero tables
    in every basis, so only its forms are carried.
    """
    from bisymplectic import harness
    from bisymplectic.liealg import default_assignments

    rng = random.Random(f"dense_exact/{seed}")
    cases = []
    param_samples = [{DENSE_PARAM: v} for v in
                     (Fraction(rng.choice((1, -1, 2, -2, 3, -3)), rng.choice((1, 2)))
                      for _ in range(DENSE_PARAM_SAMPLES))]
    ex1_data = None
    for path in harness.list_entry_paths():
        entry = harness.load_entry(path)
        env = default_assignments(entry.params, count=1, seed=seed)[0]
        data = _entry_data(entry, env)
        parametric = entry.rept is not None and entry.rt is not None
        if parametric:
            ex1_data = data
        samples = param_samples if parametric else [{}]
        B, Binv = _basis_change(entry.dim, rng, parametric)
        moved = _conjugate_rep(_transform(data, B, Binv), rng)
        moved = _closed_forms(moved, rng, parametric)
        tables = any(not _pzero(x) for plane in data["g"] + data["gdual"] for row in plane for x in row)
        cases.append((f"{entry.entry_id}:basis", moved, samples, tables))
    if ex1_data is None:
        raise RuntimeError("the catalog has no entry with r-matrices and acting matrices")
    summed = _direct_sum_b2(ex1_data)
    B, Binv = _basis_change(summed["dim"], rng, False)
    moved = _closed_forms(_conjugate_rep(_transform(summed, B, Binv), rng), rng, False)
    cases.append(("ex1+b2:basis", moved, [{}], True))

    out = []
    for name, data, samples, tables in cases:
        checks = _positive_checks(data, tables)
        expect = {}
        for c in checks:
            if c.startswith("nondegenerate"):
                expect[c] = (True, _reference(c, data, samples))
            elif c == "manin":
                expect[c] = (True, (Fraction(0), Fraction(0)))
            else:
                expect[c] = (True, Fraction(0))
        out.append(_serial_case(name, data, samples, expect))
        for neg in _negatives(name, data, samples, rng, tables):
            out.append(_serial_case(neg["name"], neg["data"], samples,
                                    {c: (False, v) for c, v in neg["values"].items()}))
    return {"cases": out}


# ---------------------------------------------------------------------------
# identity


def _mutant_claims(entry, mutant, seed: int) -> dict:
    """Stages of verify_exchange that must fail on a mutant, decided by evaluating
    the stage's identity at seeded rational points with plain loops:

    dynfunc_transport: St_j(y) = sum_l (C^-1)_jl S^l(x(y))
    q_transform:       sum_ij S^i(x(y)) rt_ij rept_j = sum_ij St_i(y) r^ij sum_m (C^-1)_jm rept_m
    """
    from bisymplectic.expr import SampleDomain, SingularPointError, evaluate, sample_point, trial_rng

    d = entry.dim
    coords_y = mutant.coords["dual_group"]
    domain = SampleDomain(coords=coords_y, params=entry.params)
    must = {"exchange.dynfunc_transport": False}
    has_q = entry.rt is not None and entry.r is not None and entry.rept is not None
    if has_q:
        must["exchange.q_transform"] = False
    done = 0
    trial = 0
    while done < IDENTITY_CLAIM_POINTS and trial < 50 * IDENTITY_CLAIM_POINTS:
        env = sample_point(domain, trial_rng(seed + 991, trial))
        trial += 1
        try:
            x = [evaluate(e, env) for e in mutant.cmap.exprs]
            xenv = dict(env, **{s.name: v for s, v in zip(mutant.coords["group"], x)})
            z = [evaluate(e, xenv) for e in mutant.chart_g]
            zenv = dict(env, **{s.name: v for s, v in zip(mutant.coords["chart"], z)})
            S = [float(evaluate(e, zenv)) for e in mutant.S_chart]
            zt = [evaluate(e, env) for e in mutant.chart_gt]
            ztenv = dict(env, **{s.name: v for s, v in zip(mutant.coords["dual_chart"], zt)})
            St = [float(evaluate(e, ztenv)) for e in mutant.St_chart]
            C = [[evaluate(e, env) for e in row] for row in mutant.C.entries]
            Cinv = ref.inverse(C)
        except (SingularPointError, ZeroDivisionError, OverflowError):
            continue
        done += 1
        scale = max([1.0] + [abs(v) for v in S + St])
        for j in range(d):
            res = St[j] - sum(float(Cinv[j][l]) * S[l] for l in range(d))
            if abs(res) > IDENTITY_CLAIM_TOL * scale:
                must["exchange.dynfunc_transport"] = True
        if has_q:
            rt = [[float(evaluate(e, env)) for e in row] for row in mutant.rt.entries]
            r = [[float(evaluate(e, env)) for e in row] for row in mutant.r.entries]
            rho = [[[float(evaluate(e, env)) for e in row] for row in m] for m in mutant.rept.matrices]
            size = mutant.rept.size
            rho_g = [[[sum(float(Cinv[m][i]) * rho[i][a][b] for i in range(d)) for b in range(size)]
                      for a in range(size)] for m in range(d)]
            for a in range(size):
                for b in range(size):
                    left = sum(S[i] * rt[i][j] * rho[j][a][b] for i in range(d) for j in range(d))
                    right = sum(St[i] * r[i][j] * rho_g[j][a][b] for i in range(d) for j in range(d))
                    if abs(left - right) > IDENTITY_CLAIM_TOL * max(1.0, abs(left), abs(right)):
                        must["exchange.q_transform"] = True
    if done < IDENTITY_CLAIM_POINTS:
        raise RuntimeError(f"{entry.entry_id}: no regular points for the mutant claims")
    return must


def build_identity(seed: int) -> dict:
    from bisymplectic import harness

    subjects = []
    for path in harness.list_entry_paths():
        entry = harness.load_entry(path)
        subjects.append({"entry": entry.entry_id, "mutation": None, "must_fail": {}})
        for flag in ("swap-C-rows", "drop-map-term"):
            try:
                mutant = harness.apply_mutations(entry, [flag])
            except harness.CatalogError:
                continue  # the entry has no field this mutation can corrupt
            subjects.append({"entry": entry.entry_id, "mutation": flag,
                             "must_fail": _mutant_claims(entry, mutant, seed)})
    return {"check_seed": seed, "subjects": subjects}


# ---------------------------------------------------------------------------
# flows


def build_flows(seed: int) -> dict:
    """Parameter values (drawn like the CLI's, from the seed) and a seeded
    offset of each flow's canonical start point."""
    from bisymplectic import harness
    from bisymplectic.liealg import default_assignments

    rng = random.Random(f"flows/{seed}")
    entries = []
    for path in harness.list_entry_paths():
        entry = harness.load_entry(path)
        env = default_assignments(entry.params, count=1, seed=seed)[0]
        entries.append({
            "entry": entry.entry_id,
            "params": {k: _frac_str(v) for k, v in env.items()},
            "offset": [_frac_str(Fraction(rng.randint(0, 4), 16)) for _ in range(entry.dim)],
        })
    return {
        "entries": entries,
        "horizon": FLOW_HORIZON,
        "steps": list(FLOW_STEPS),
        "drift_bound": FLOW_DRIFT_BOUND,
        "roundoff": FLOW_ROUNDOFF,
        "ratio_window": list(FLOW_RATIO_WINDOW),
    }


# ---------------------------------------------------------------------------
# catalog


def build_catalog(seed: int) -> dict:
    """`bisym verify --all` at the CLI defaults; the seed does not enter.

    The expectation computed here is the reference double Jacobi of every
    entry at the parameter samples verify_entry draws, which must be zero.
    """
    from bisymplectic import harness
    from bisymplectic.liealg import default_assignments

    cfg = harness.VerifyConfig()
    doubles = {}
    for path in harness.list_entry_paths():
        entry = harness.load_entry(path)
        worst = Fraction(0)
        for env in default_assignments(entry.params, count=cfg.exact_samples, seed=cfg.seed):
            worst = max(worst, ref.jacobi_max(ref.double_table(entry.g.evaluated(env),
                                                               entry.gdual.evaluated(env))))
        doubles[entry.entry_id] = _frac_str(worst)
    return {"config": {"seed": cfg.seed, "trials": cfg.trials, "drift_tol": cfg.drift_tol},
            "reference_double_jacobi": doubles,
            # the report bytes of two passes are compared, so a run needs both
            "min_passes": 2}


BUILDERS = {
    "catalog": build_catalog,
    "dense_exact": build_dense_exact,
    "identity": build_identity,
    "flows": build_flows,
}


def build(workload: str, seed: int) -> dict:
    return {"workload": workload, "seed": seed, **BUILDERS[workload](seed)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.inputs",
                                     description="Write one workload's seeded inputs as JSON.")
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.write_text(json.dumps(build(args.workload, args.seed), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    import sys

    from .paths import use_source_tree

    use_source_tree()
    sys.exit(main())
