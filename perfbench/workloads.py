"""The benchmark's workloads: set-up, timed calls and output checks.

Each workload is closed-loop with one caller.  A pass is one set-up (timed
as set-up) followed by the workload's timed calls on fresh objects, so no
cache of an earlier pass is reused.  The seed is the only input knob: it
picks the functors' atoms and change of basis, or the mutants.  Dimension
vectors are fixed so that every seed asks for the same amount of work.
The timed calls call rec.lap() between steps: where an untraced pass may
pause, outside its time, to measure the host's speed (see calibrate.py).

Every dkequiv function is looked up through its module at call time, so a
traced run sees the wrapped versions.

Outputs are checked with answers that do not come from the code under
test: closed-form dimensions and class sizes, exact products done here
with Fractions, and sha256 digests recorded on the seed code.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb, factorial

from dkequiv import builders, equivalence, fincat, functors, structure


# -- serialization as the CLI does it ------------------------------------------


def dump_json(rec, path, payload):
    """Build the payload and write it the way `dkequiv` writes its files;
    returns the bytes written."""
    with rec.span("cli.dump"):
        text = json.dumps(payload(), sort_keys=True, indent=2) + "\n"
        data = text.encode()
        path.write_bytes(data)
    rec.count("cli.output_bytes", len(data))
    return data


def load_structure(rec, path):
    """Read a structure file the way `dkequiv check` does."""
    with rec.span("cli.load"):
        return structure.MRStructure.from_jsonable(json.loads(path.read_text()))


# -- certify ----------------------------------------------------------------------


CERTIFY_SIZE = 4
CERTIFY_DIMS = ((3, 3, 0, 2, 3), (2, 3, 2, 1, 1), (1, 0, 2, 1, 2), (0, 2, 3, 0, 2),
                (2, 1, 3, 3, 2))


class Certify:
    """`dkequiv certify --name fi_sharp --size 4` on five seeded pointed
    functors of fixed dimensions, certificate JSON included."""

    name = "certify"

    def ops(self, seed):
        return {f"seed{seed}_{i}": "certificate.json"
                for i in range(len(CERTIFY_DIMS))}

    def setup(self, seed, rec, work):
        return builders.build_fi_sharp(CERTIFY_SIZE)

    def run(self, s, seed, rec, work):
        report = structure.check_assumptions(s)
        if not report.passed:
            return {}, {}
        km = equivalence.build_kernel_module(s, validate=True)
        rng = random.Random(seed)
        fs = [functors.random_pointed_functor(km.d, dims,
                                              seed=rng.randrange(2 ** 30))
              for dims in CERTIFY_DIMS]
        rec.lap()
        # One functor per call, so that the pass splits into segments; the
        # certificate is the one a single call over all of them gives.
        cert = equivalence.EquivalenceCertificate()
        for f, name in zip(fs, self.ops(seed)):
            cert.entries += equivalence.certify_equivalence(km, [f],
                                                            [name]).entries
            rec.lap()
        data = dump_json(rec, work / "certificate.json", lambda: {
            "category": f"fi_sharp_{CERTIFY_SIZE}", "seed": seed,
            "certificate": cert.to_jsonable()})
        return {"certificate.json": data}, {}

    def check(self, seed, s, outputs, facts):
        """Failing ops: every entry passes, and hat follows the binomial
        transform dims'_n = sum_k C(n, k) dims_k of the species case."""
        entries = {e["name"]: e for e in json.loads(
            outputs["certificate.json"])["certificate"]["entries"]}
        bad = set()
        for op, dims in zip(self.ops(seed), CERTIFY_DIMS):
            e = entries.get(op)
            want_hat = [sum(comb(n, k) * dims[k] for k in range(len(dims)))
                        for n in range(len(dims))]
            if (e is None or e["ok"] is not True or e["dims"] != list(dims)
                    or e["hat_dims"] != want_hat
                    or e["tilde_hat_dims"] != list(dims)):
                bad.add(op)
        return bad


# -- theta -------------------------------------------------------------------------


THETA_SIZE = 6
THETA_DIMS = ((3, 3, 2, 3, 4, 3), (3, 3, 3, 4, 2, 4))


class Theta:
    """Dold-Kan on delta_bt 6: per chain complex hat, tilde, and the
    triangular comparison with its inverse at every object, written as
    `dkequiv theta` writes it."""

    name = "theta"

    def ops(self, seed):
        return {f"chain{i}": f"theta_chain{i}.json"
                for i in range(len(THETA_DIMS))}

    def setup(self, seed, rec, work):
        s = builders.build_delta_bt(THETA_SIZE)
        if not structure.check_assumptions(s).passed:
            raise RuntimeError("delta_bt fails its assumption checks")
        km = equivalence.build_kernel_module(s, validate=False)
        rng = random.Random(seed)
        fs = [functors.random_pointed_functor(km.d, dims,
                                              seed=rng.randrange(2 ** 30))
              for dims in THETA_DIMS]
        return km, fs

    def run(self, inp, seed, rec, work):
        km, fs = inp
        s = km.structure
        outputs, facts = {}, {}
        for (op, fname), f in zip(self.ops(seed).items(), fs):
            with rec.op(op):
                t = equivalence.hat(km, f)
                back = equivalence.tilde(km, t,
                                         equivalence.tilde_subspaces(km, t))
                facts[op] = list(back.dims)
                rec.lap()
                payload = {}
                for a in s.cat.objects():
                    th = equivalence.theta_matrix(km, t, a)
                    payload[a] = (s.sub_poset(a).linearization, th, th.inverse())
                    rec.lap()
                outputs[fname] = dump_json(rec, work / fname, lambda: {
                    str(a): {"block_order": list(reversed(lin)),
                             "matrix": th.to_jsonable(),
                             "inverse": inv.to_jsonable()}
                    for a, (lin, th, inv) in payload.items()})
        return outputs, facts

    def check(self, seed, inp, outputs, facts):
        """Failing ops: tilde(hat f) has the dimensions of f; at every object
        theta is unitriangular of the size its subobjects give, and theta
        times its inverse is the identity."""
        bad = set()
        for (op, fname), dims in zip(self.ops(seed).items(), THETA_DIMS):
            payload = json.loads(outputs[fname])
            sizes = _over_subobjects(_over_subobjects(dims))
            ok = facts.get(op) == list(dims) and len(payload) == len(dims)
            for a, size in enumerate(sizes):
                if not ok:
                    break
                entry = payload[str(a)]
                th = [[Fraction(x) for x in row] for row in entry["matrix"]]
                inv = [[Fraction(x) for x in row] for row in entry["inverse"]]
                ok = (len(th) == size and len(inv) == size
                      and all(len(row) == size for row in th + inv)
                      and all(th[i][j] == (1 if i == j else 0)
                              for i in range(size) for j in range(i + 1))
                      and _is_identity(_product(th, inv)))
            if not ok:
                bad.add(op)
        return bad


def _over_subobjects(v):
    """Sum of v over the subobject classes of each object of delta_bt: the
    ordinal with n + 1 > 1 points has C(n - 1, k - 1) subobjects with k + 1
    points, the one-point ordinal only itself.  This is hat's dimension
    vector, and applied to hat's the size of theta."""
    return [v[0]] + [sum(comb(n - 1, k - 1) * v[k] for k in range(1, n + 1))
                     for n in range(1, len(v))]


def _product(a, b):
    """Exact product of two Fraction matrices, skipping zero entries."""
    b_rows = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [Fraction(0)] * width
        for k, x in enumerate(row):
            if x:
                for j, y in b_rows[k]:
                    acc[j] += x * y
        out.append(acc)
    return out


def _is_identity(m):
    return all(x == (1 if i == j else 0)
               for i, row in enumerate(m) for j, x in enumerate(row))


# -- axioms ------------------------------------------------------------------------


def _label_tuple(label):
    return tuple(int(x) for x in label.split(",")) if label != "()" else ()


def _delta_bt_facts(n_max):
    """Morphism count, and the irreducibles: identities and the maps from
    c + 2 to c + 1 points that repeat the first point."""
    def maps(m, n):
        if m == 1:
            return 1 if n == 1 else 0
        return comb(n + m - 3, m - 2)

    count = sum(maps(d + 1, c + 1) for d in range(n_max) for c in range(n_max))

    def irreducible(d, c, t):
        return ((d == c and t == tuple(range(d + 1)))
                or (d == c + 1 and t == (0,) + tuple(range(c + 1))))

    return count, irreducible


def _fi_sharp_facts(n_max):
    """Morphism count of partial injections; the irreducibles are the
    permutations."""
    count = sum(comb(m, k) * comb(n, k) * factorial(k)
                for m in range(n_max + 1) for n in range(n_max + 1)
                for k in range(min(m, n) + 1))

    def irreducible(d, c, t):
        return d == c and 0 not in t

    return count, irreducible


def _cube_facts(k_max):
    """Morphism count of cube maps; the irreducibles are the surjections
    that send no interior point to the top."""
    count = sum(comb(k, r) * comb(h, r) * 2 ** (k - r)
                for k in range(k_max + 1) for h in range(k_max + 1)
                for r in range(min(k, h) + 1))

    def irreducible(d, c, t):
        return set(t) == set(range(c + 2)) and all(x != c + 1 for x in t[1:-1])

    return count, irreducible


AXIOM_STRUCTURES = {
    "delta_bt_6": ("build_delta_bt", 6, _delta_bt_facts),
    "cube_3": ("build_cube", 3, _cube_facts),
    "fi_sharp_4": ("build_fi_sharp", 4, _fi_sharp_facts),
}
MUTANT_SOURCES = (("build_delta_bt", 4), ("build_fi_sharp", 3))
N_MUTANTS = 10


def _mutants(sources, rng):
    """Single-entry mutants, alternating over the sources: either a
    composite with an identity is redirected to another parallel morphism,
    or a retraction is replaced by one that does not split its embedding.
    """
    out = []
    while len(out) < N_MUTANTS:
        s = sources[len(out) % len(sources)]
        cat = s.cat
        if rng.randrange(2):
            f = rng.randrange(cat.n_morphisms)
            i = cat.identity(cat.cod[f])
            alt = [g for g in cat.hom(cat.dom[f], cat.cod[f]) if g != f]
            if not alt:
                continue
            comp = [list(row) for row in cat.comp]
            comp[i][f] = rng.choice(alt)
            mutant = fincat.FinCat(cat.n_objects, cat.dom, cat.cod,
                                   cat.identities, comp, cat.obj_labels,
                                   cat.mor_labels)
            out.append(structure.MRStructure(mutant, s.m_class, s.star))
        else:
            ms = [m for m in sorted(s.m_class) if not cat.is_identity(m)]
            m = rng.choice(ms)
            bad = [g for g in cat.hom(cat.cod[m], cat.dom[m])
                   if cat.comp[g][m] != cat.identity(cat.dom[m])]
            if not bad:
                continue
            star = dict(s.star)
            star[m] = rng.choice(bad)
            out.append(structure.MRStructure(cat, s.m_class, star))
    return out


class Axioms:
    """Full structural verification, as `dkequiv check` plus
    scripts/run_certification.py do it, of delta_bt 6, cube 3 and
    fi_sharp 4 loaded from JSON, and of seeded mutants that must be
    rejected."""

    name = "axioms"

    def ops(self, seed):
        tags = list(AXIOM_STRUCTURES) + [f"mutant{j}" for j in range(N_MUTANTS)]
        return {tag: f"{tag}.report.json" for tag in tags}

    def setup(self, seed, rec, work):
        paths = {}
        for tag, (builder, size, _) in AXIOM_STRUCTURES.items():
            s = getattr(builders, builder)(size)
            paths[tag] = work / f"{tag}.structure.json"
            dump_json(rec, paths[tag], s.to_jsonable)
        sources = [getattr(builders, b)(n) for b, n in MUTANT_SOURCES]
        for j, mutant in enumerate(_mutants(sources, random.Random(seed))):
            paths[f"mutant{j}"] = work / f"mutant{j}.structure.json"
            dump_json(rec, paths[f"mutant{j}"], mutant.to_jsonable)
        return paths

    def run(self, paths, seed, rec, work):
        outputs = {}
        for op, fname in self.ops(seed).items():
            with rec.op(op):
                report = self._verdict(rec, load_structure(rec, paths[op]))
                outputs[fname] = dump_json(rec, work / fname, lambda: report)
            rec.lap()
        return outputs, {}

    @staticmethod
    def _verdict(rec, s):
        """Stages in order, stopping at the first that fails."""
        out = {"accepted": False}
        cat_report = s.cat.check()
        out["fincat"] = cat_report.to_jsonable()
        if not cat_report.ok:
            return out
        rec.lap()
        report = structure.check_assumptions(s)
        out["assumptions"] = report.to_jsonable()
        if not report.passed:
            return out
        out["r_class"] = sorted(s.r_class)
        try:
            km = equivalence.build_kernel_module(s, validate=True)
        except AssertionError as e:
            out["kernel_module"] = str(e)
            return out
        out["kernel_module"] = sum(len(us) for us in km.elements.values())
        rec.lap()
        coends = structure.verify_coend_bijections(s)
        out["coends"] = coends.to_jsonable()
        out["accepted"] = coends.ok
        return out

    def check(self, seed, paths, outputs, facts):
        """Failing ops: each stock structure is accepted, with the closed-form
        morphism count, the irreducibles of its exact characterization, and
        every coend class count equal to its target count; each mutant is
        rejected."""
        bad = set()
        for op, fname in self.ops(seed).items():
            out = json.loads(outputs[fname])
            if op.startswith("mutant"):
                if out["accepted"] is not False:
                    bad.add(op)
                continue
            _, size, facts_of = AXIOM_STRUCTURES[op]
            count, irreducible = facts_of(size)
            data = json.loads(paths[op].read_text())
            want_r = [f for f, m in enumerate(data["morphisms"])
                      if irreducible(m["dom"], m["cod"],
                                     _label_tuple(m["label"]))]
            sizes = out.get("assumptions", {}).get("class_sizes", {})
            entries = out.get("coends", {}).get("entries", [])
            if not (out["accepted"] is True
                    and len(data["morphisms"]) == count
                    and sizes.get("morphisms") == count
                    and out["r_class"] == want_r
                    and sizes.get("r_class") == len(want_r)
                    and entries
                    and all(e["class_count"] == e["target_count"]
                            for e in entries)):
                bad.add(op)
        return bad


WORKLOADS = {w.name: w for w in (Certify(), Theta(), Axioms())}
