#!/bin/sh
# Run the same dkequiv CLI cases on two checkouts and diff what they print to
# stdout and stderr, the exit codes, and every file they write.
#
#   mkdir -p /tmp/old && git archive <commit> | tar -x -C /tmp/old
#   sh scripts/compare_cli.sh /tmp/old . /tmp/cli-compare
#
# The exit status is diff's: 0 when both checkouts behave byte-identically.
# Inputs that are not produced by a CLI command (pointed functors on
# delta_bt 4, fi_sharp 3, cube 2 and delta_bt 6, one of them also with
# rational entries, structures that fail the axioms (fi_sharp 2, delta_bt 4
# and cube 2 with their embeddings cut), fi_sharp 2 with one composite
# redirected so that only associativity fails, the par base categories
# (injections of sets up to 2, all maps of sets up to 2, 3 and 4, and
# injective linear maps over F_2 up to dimension 2), idempotent lists,
# delta_bt 4 with one wrong table entry, and the malformed files of the
# exit-3 cases) are written once, by the old checkout, and copied to both
# sides.
# Cases whose outcome an assert decided run again under python -O.
# The benchmark's structures (delta_bt 6, fi_sharp 4, cube 3) are built,
# checked and certified by each checkout: fi_sharp 4 with five seeds,
# delta_bt 6 and cube 3 with two.
# One frontier case certifies fi_sharp 5 (3,395 morphisms) with one seed and
# dims at most 1.  On 2 vCPUs it takes about 3 s on a checkout that fills the
# tuple builders' tables by the generator walk, about 8 s on one that composes
# keys for every composable pair, and about 25 s on one that also walks every
# interchange instance of the kernel bimodule.
# One check case reads fi_sharp 3 with a single composite redirected, which
# breaks associativity only, so the full list of violated triples is compared.
# Five check cases read delta_bt 4 with one table entry made structurally
# wrong: a composite with other endpoints, the ids 10**30 and -7, a composite
# at a pair that is not composable, and -1 at a composable pair.  The table
# check walks only the rows that fail its hom-set gathers, so these compare
# the reports of that fallback.
# check, certify, transport and theta read the non-associative fi_sharp 2,
# each reporting the category's laws.
# transport hat, tilde and theta on delta_bt 6 take a functor with the dims of
# the benchmark's theta workload (3, 3, 2, 3, 4, 3), so the largest matrices
# the CLI writes (theta and its inverse up to 260 x 260), and the kernels and
# restrictions on hat dims up to 51, are compared byte for byte.
# transport hat reads a pointed functor on fi_sharp 3, and transport tilde an
# additive functor on delta_bt 4, each with one matrix entry bumped at a
# morphism that is neither an identity nor a generator; the functor laws are
# tested along generators first, so both exit 2 with the report of the walk
# over every composable pair.
# One idem case holds the entry "1e3", which is malformed input: an exponent
# is rejected before Fraction could build an integer of that many digits.
# nested.json opens 100,000 JSON arrays, deeper than the decoder recurses;
# each reader of input files must reject it as malformed input.
# `example par` on the finset bases builds Gamma_2, Gamma_3 and Gamma_4 (1,279
# morphisms, the largest par table; a checkout that finds pullbacks by
# searching every pair of cones takes about 80 s on it), and one case
# certifies Gamma_3.  `example par` on flinj2 builds VI#_2, in which F_2^2
# has the automorphism group GL_2(F_2); it is also checked and certified.
# One case runs each checkout's own scripts/roundtrip_demo.py.
# No CLI command runs the coend check, so one case has each checkout write
# verify_coend_bijections(s).to_jsonable() for delta_bt 4, fi_sharp 3 and
# cube 2, and for a copy of each whose targets trade one member for a
# non-target of the same hom set, so that failing reports are compared too.
set -e
OLD=$(cd "$1" && pwd)
NEW=$(cd "$2" && pwd)
mkdir -p "$3"
WORK=$(cd "$3" && pwd)
rm -rf "$WORK/inputs" "$WORK/old" "$WORK/new"
mkdir -p "$WORK/inputs"

(cd "$WORK/inputs" && PYTHONPATH="$OLD/src" python3 - <<'EOF'
import json
from fractions import Fraction

from dkequiv.builders import (
    build_cube, build_delta_bt, build_fi_input, build_fi_sharp,
    build_finset_input, build_flinj_input,
)
from dkequiv.equivalence import build_kernel_module
from dkequiv.functors import random_pointed_functor
from dkequiv.structure import MRStructure

km = build_kernel_module(build_delta_bt(4), validate=False)
f = random_pointed_functor(km.d, (1, 2, 2, 1), seed=5)
with open("F.json", "w") as fh:
    json.dump(f.to_jsonable(category="ex/delta_bt_4.structure.json"), fh,
              sort_keys=True, indent=2)
# the same functor after a rational diagonal change of basis at every
# object, with entries 2, 1/3, 2, ... (1/3, 2, ... on odd objects), so that
# the transports hold non-integer rationals.  The functor is identities and
# one rank-one map, and that map gains the entry 1/6.
def diag(a, i):
    return (Fraction(2), Fraction(1, 3))[(a + i) % 2]


q = f.to_jsonable(category="ex/delta_bt_4.structure.json")
cat = km.structure.cat
for key, rows in q["mats"].items():
    a, b = cat.dom[int(key)], cat.cod[int(key)]
    q["mats"][key] = [[str(diag(b, i) * Fraction(x) / diag(a, j))
                       for j, x in enumerate(row)] for i, row in enumerate(rows)]
with open("F_rational.json", "w") as fh:
    json.dump(q, fh, sort_keys=True, indent=2)
# pointed functors on grids with isomorphisms and with zero-height block
# rows, and on delta_bt 6 with hat dims up to 51
for tag, built, dims in (("fi_sharp_3", build_fi_sharp(3), (1, 0, 2, 1)),
                         ("cube_2", build_cube(2), (1, 0, 2)),
                         ("delta_bt_6", build_delta_bt(6), (3, 3, 2, 3, 4, 3))):
    kmx = build_kernel_module(built, validate=False)
    fx = random_pointed_functor(kmx.d, dims, seed=5)
    with open(f"F_{tag}.json", "w") as fh:
        json.dump(fx.to_jsonable(category=f"ex/{tag}.structure.json"), fh,
                  sort_keys=True, indent=2)
for tag, base in (("fi2", build_fi_input(2)), ("finset2", build_finset_input(2)),
                  ("finset3", build_finset_input(3)),
                  ("finset4", build_finset_input(4)),
                  ("flinj2", build_flinj_input(2))):
    with open(f"{tag}.base.json", "w") as fh:
        json.dump(base.to_jsonable(), fh)
# one non-identity retraction redirected to an identity
data = build_fi_sharp(3).to_jsonable()
m = next(k for k in data["star"] if int(k) not in set(data["identities"]))
data["star"][m] = str(data["identities"][0])
with open("bad_star.json", "w") as fh:
    json.dump(data, fh)
# embeddings cut to the isomorphisms plus a few injections: axiom failures
for tag, s, extra in (
    ("cut1", build_fi_sharp(2), {1}),
    ("cut78", build_fi_sharp(2), {7, 8}),
    ("cut_delta3", build_delta_bt(4), {3}),
    ("cut_cube1", build_cube(2), {1}),
):
    ms = s.cat.isos() | extra
    with open(f"{tag}.json", "w") as fh:
        json.dump(MRStructure(s.cat, ms, {k: s.star[k] for k in ms}).to_jsonable(),
                  fh, sort_keys=True, indent=2)
# the first composite of two non-identities of fi_sharp 3 redirected to the
# next morphism with its endpoints: the identity laws hold, associativity not
data = build_fi_sharp(3).to_jsonable()
ids = set(data["identities"])
ends = [(m["dom"], m["cod"]) for m in data["morphisms"]]
u, v, w = next((u, v, w) for u, row in enumerate(data["comp"]) if u not in ids
               for v, w in enumerate(row) if w != -1 and v not in ids
               and ends.count(ends[w]) > 1)
data["comp"][u][v] = next(x % len(ends) for x in range(w + 1, w + len(ends))
                          if ends[x % len(ends)] == ends[w])
with open("assoc_only.json", "w") as fh:
    json.dump(data, fh)
# fi_sharp 2 with comp[6][12] redirected from 13 to 19: only associativity
# fails, and the factorizations the assumption checks make do not exist
data = build_fi_sharp(2).to_jsonable()
assert data["comp"][6][12] == 13
data["comp"][6][12] = 19
with open("nonassoc.json", "w") as fh:
    json.dump(data, fh)


def write(name, data):
    with open(name, "w") as fh:
        json.dump(data, fh)


# malformed idempotent lists, and a good one and a failing one
for tag, mats in (
    ("ok", [[["1", "0"], ["0", "0"]], [["1", "0"], ["0", "1"]]]),
    ("pair", [[["1", "0"], ["1", "0"]], [["1", "1"], ["0", "0"]]]),
    ("empty", []),
    ("nonsquare", [[["1", "0"]]]),
    ("ragged", [[["1", "0"], ["0"]]]),
    ("div0", [[["1/0"]]]),
    ("rational", [[["1/2", "1/2"], ["1/2", "1/2"]], [["1", "0"], ["0", "1"]]]),
    ("bool", [[[True, False], [False, False]]]),
    ("exp", [[["1e3"]]]),
):
    write(f"idem_{tag}.json", {"matrices": mats})
write("idem_nokey.json", {})
with open("nested.json", "w") as fh:
    fh.write("[" * 100_000)
# malformed and invalid pointed functors on delta_bt 4
g = f.to_jsonable(category="ex/delta_bt_4.structure.json")
key = next(k for k in sorted(g["mats"]) if g["mats"][k] and g["mats"][k][0])
for tag, edit in (
    ("div0", lambda d: d["mats"][key][0].__setitem__(0, "1/0")),
    ("short", lambda d: d["dims"].pop()),
    ("negdim", lambda d: d["dims"].__setitem__(0, -1)),
    ("invalid", lambda d: d["mats"][key][0].__setitem__(0, "17")),
):
    d = json.loads(json.dumps(g))
    edit(d)
    write(f"F_{tag}.json", d)
# malformed structure files on delta_bt 4
t = build_delta_bt(4).to_jsonable()
for tag, edit in (
    ("strids", lambda d: d.__setitem__("m_class", [str(m) for m in d["m_class"]])),
    ("compx", lambda d: d["comp"][0].__setitem__(0, "x")),
    ("idshort", lambda d: d["identities"].pop()),
):
    d = json.loads(json.dumps(t))
    edit(d)
    write(f"S_{tag}.json", d)
# well-formed delta_bt 4 files whose tables are structurally wrong at one
# entry of a row g that is no identity: at a composable pair (g, f), a
# composite with other endpoints, an id out of range on either side, or -1;
# at a pair (g, x) that is not composable, a defined composite
ids = set(t["identities"])
ends = [(m["dom"], m["cod"]) for m in t["morphisms"]]
g, f = next((g, f) for g, row in enumerate(t["comp"]) if g not in ids
            for f, h in enumerate(row) if h != -1 and f not in ids)
x = t["comp"][g].index(-1)
wrong = next(h for h, e in enumerate(ends) if e != (ends[f][0], ends[g][1]))
for tag, at, value in (("ends", f, wrong), ("huge", f, 10**30), ("neg", f, -7),
                       ("noncomposable", x, t["comp"][g][f]), ("undefined", f, -1)):
    d = json.loads(json.dumps(t))
    d["comp"][g][at] = value
    write(f"T_{tag}.json", d)
# functors that break a law only at a morphism that is no generator: a
# pointed one on fi_sharp 3 with the matrix of its last irreducible that is
# neither an identity nor a generator of D bumped at entry (0, 0), and
# hat(F) on delta_bt 4 with its last such morphism's matrix bumped
from dkequiv.equivalence import hat

km3 = build_kernel_module(build_fi_sharp(3), validate=False)
d3 = km3.d
plain = (set(d3.nonzero_morphisms()) - set(d3.cat.identities)
         - set(d3.cat.generating_set(d3.nonzero_morphisms())))
p = random_pointed_functor(d3, (2, 2, 2, 2), seed=3).to_jsonable(
    category="ex/fi_sharp_3.structure.json")
rows = p["mats"][str(d3.d_to_r[max(plain)])]
rows[0][0] = str(Fraction(rows[0][0]) + 1)
write("F_nongen.json", p)
a = hat(km, random_pointed_functor(km.d, (1, 2, 2, 1), seed=5)).to_jsonable(
    category="ex/delta_bt_4.structure.json")
plain = set(cat.morphisms()) - set(cat.identities) - set(cat.generating_set())
rows = a["mats"][str(max(g for g in plain if a["mats"][str(g)] and a["mats"][str(g)][0]))]
rows[0][0] = str(Fraction(rows[0][0]) + 1)
write("A_nongen.json", a)
EOF
)

COENDS='
import json

from dkequiv.builders import BUILDERS
from dkequiv.structure import MRStructure, verify_coend_bijections


def swapped(base):
    cat = base.cat
    pair = next({ins[0], outs[0]}
                for c in cat.objects() for b in cat.objects()
                for ins in [[u for u in cat.hom(c, b) if base.s_in_r(u)]]
                for outs in [[u for u in cat.hom(c, b) if u not in ins]]
                if ins and outs)
    bad = MRStructure(cat, base.m_class, base.star)
    bad.s_in_r = lambda u: base.s_in_r(u) != (u in pair)
    return bad


for name, n in (("delta_bt", 4), ("fi_sharp", 3), ("cube", 2)):
    s = BUILDERS[name][0](n)
    for tag, t in ((name, s), (name + "_swapped", swapped(s))):
        with open(f"coends_{tag}.json", "w") as fh:
            json.dump(verify_coend_bijections(t).to_jsonable(), fh,
                      sort_keys=True, indent=2)
'

cases() {
    SRC=$1/src
    cp -r "$WORK/inputs" "$2"
    cd "$2"
    run() {
        name=$1
        shift
        status=0
        PYTHONPATH="$SRC" python3 "$@" > "$name.stdout" 2> "$name.stderr" || status=$?
        echo "$name $status" >> codes.txt
    }
    run ex_delta -m dkequiv.cli example delta_bt --size 4 --out ex
    run ex_fi -m dkequiv.cli example fi_sharp --size 3 --out ex
    run ex_cube -m dkequiv.cli example cube --size 2 --out ex
    run ex_pt -m dkequiv.cli example pt --out ex
    run ex_par -m dkequiv.cli example par --base fi2.base.json --out ex
    for t in finset2 finset3 finset4 flinj2; do
        run "ex_par_$t" -m dkequiv.cli example par --base "$t.base.json" --out ex
    done
    run ex_delta6 -m dkequiv.cli example delta_bt --size 6 --out ex
    run ex_fi4 -m dkequiv.cli example fi_sharp --size 4 --out ex
    run ex_cube3 -m dkequiv.cli example cube --size 3 --out ex
    for t in delta_bt_4 fi_sharp_3 cube_2 pt delta_bt_6 fi_sharp_4 cube_3; do
        run "check_$t" -m dkequiv.cli check "ex/$t.structure.json" --out "check_$t.json"
    done
    for t in bad_star cut1 cut78 cut_delta3 cut_cube1 assoc_only nonassoc; do
        run "check_$t" -m dkequiv.cli check "$t.json" --out "check_$t.json"
    done
    run cert_fi -m dkequiv.cli certify --name fi_sharp --size 3 --seeds 5 --out cert_fi.json
    run cert_fi4 -m dkequiv.cli certify --name fi_sharp --size 4 --seeds 5 --out cert_fi4.json
    run cert_fi5 -m dkequiv.cli certify --name fi_sharp --size 5 --seeds 1 \
        --dims-max 1 --out cert_fi5.json
    run cert_delta6 -m dkequiv.cli certify --name delta_bt --size 6 --seeds 2 \
        --out cert_delta6.json
    run cert_cube3 -m dkequiv.cli certify --name cube --size 3 --seeds 2 --out cert_cube3.json
    run cert_bad -m dkequiv.cli certify --category bad_star.json --seeds 1 --out cert_bad.json
    run cert_cut78 -m dkequiv.cli certify --category cut78.json --out cert_cut78.json
    run hat -m dkequiv.cli transport hat --category ex/delta_bt_4.structure.json \
        --functor F.json --out T.json
    run tilde -m dkequiv.cli transport tilde --category ex/delta_bt_4.structure.json \
        --functor T.json --out FT.json
    run theta -m dkequiv.cli theta --category ex/delta_bt_4.structure.json \
        --functor T.json --out theta.json
    for t in fi_sharp_3 cube_2; do
        run "hat_$t" -m dkequiv.cli transport hat --category "ex/$t.structure.json" \
            --functor "F_$t.json" --out "T_$t.json"
        run "tilde_$t" -m dkequiv.cli transport tilde --category "ex/$t.structure.json" \
            --functor "T_$t.json" --out "FT_$t.json"
        run "theta_$t" -m dkequiv.cli theta --category "ex/$t.structure.json" \
            --functor "T_$t.json" --out "theta_$t.json"
    done
    run hat_delta_bt_6 -m dkequiv.cli transport hat \
        --category ex/delta_bt_6.structure.json --functor F_delta_bt_6.json \
        --out T_delta_bt_6.json
    run tilde_delta_bt_6 -m dkequiv.cli transport tilde \
        --category ex/delta_bt_6.structure.json --functor T_delta_bt_6.json \
        --out FT_delta_bt_6.json
    run theta_delta_bt_6 -m dkequiv.cli theta --category ex/delta_bt_6.structure.json \
        --functor T_delta_bt_6.json --out theta_delta_bt_6.json
    run hat_rational -m dkequiv.cli transport hat \
        --category ex/delta_bt_4.structure.json --functor F_rational.json \
        --out T_rational.json
    run tilde_rational -m dkequiv.cli transport tilde \
        --category ex/delta_bt_4.structure.json --functor T_rational.json \
        --out FT_rational.json
    run theta_rational -m dkequiv.cli theta --category ex/delta_bt_4.structure.json \
        --functor T_rational.json --out theta_rational.json
    run cert_cube -m dkequiv.cli certify --name cube --size 2 --out cert_cube.json
    run cert_delta5 -m dkequiv.cli certify --name delta_bt --size 5 --seeds 5 \
        --out cert_delta5.json
    run cert_pt -m dkequiv.cli certify --name pt --seeds 3 --out cert_pt.json
    run cert_fi_file -m dkequiv.cli certify --category ex/fi_sharp_3.structure.json \
        --seeds 3 --seed 7 --out cert_fi_file.json
    run cert_gamma3 -m dkequiv.cli certify --category ex/par_finset3.base.structure.json \
        --seeds 3 --out cert_gamma3.json
    run check_vi2 -m dkequiv.cli check ex/par_flinj2.base.structure.json \
        --out check_vi2.json
    run cert_vi2 -m dkequiv.cli certify --category ex/par_flinj2.base.structure.json \
        --out cert_vi2.json
    run roundtrip_demo "$1/scripts/roundtrip_demo.py"
    run coends -c "$COENDS"
    # malformed input
    run ex_bogus -m dkequiv.cli example bogus --out ex
    run cert_bogus -m dkequiv.cli certify --name bogus --out cert_bogus.json
    run ex_delta0 -m dkequiv.cli example delta_bt --size 0 --out ex
    run ex_fi_neg -m dkequiv.cli example fi_sharp --size -1 --out ex
    run ex_cube_neg -m dkequiv.cli example cube --size -1 --out ex
    run cert_delta0 -m dkequiv.cli certify --name delta_bt --size 0 --out cert_delta0.json
    run cert_fi_neg -m dkequiv.cli certify --name fi_sharp --size -1 --out cert_fi_neg.json
    run cert_delta0_O -O -m dkequiv.cli certify --name delta_bt --size 0 \
        --out cert_delta0_O.json
    # idempotent decompositions
    for t in ok pair empty nokey nonsquare ragged div0 rational bool exp; do
        run "idem_$t" -m dkequiv.cli idem --input "idem_$t.json" --out "idem_$t.out.json"
    done
    # malformed and invalid functors, structures and argument values
    for t in div0 short negdim invalid; do
        run "hat_$t" -m dkequiv.cli transport hat --category ex/delta_bt_4.structure.json \
            --functor "F_$t.json" --out "hat_$t.out.json"
    done
    for t in strids compx idshort; do
        run "check_$t" -m dkequiv.cli check "S_$t.json"
    done
    for t in ends huge neg noncomposable undefined; do
        run "check_table_$t" -m dkequiv.cli check "T_$t.json" --out "check_table_$t.json"
    done
    run hat_nongen -m dkequiv.cli transport hat --category ex/fi_sharp_3.structure.json \
        --functor F_nongen.json --out hat_nongen.out.json
    run tilde_nongen -m dkequiv.cli transport tilde \
        --category ex/delta_bt_4.structure.json --functor A_nongen.json \
        --out tilde_nongen.out.json
    run hat_cut78 -m dkequiv.cli transport hat --category cut78.json --functor F.json \
        --out hat_cut78.out.json
    run theta_cut78 -m dkequiv.cli theta --category cut78.json --functor T.json \
        --out theta_cut78.out.json
    run cert_nonassoc -m dkequiv.cli certify --category nonassoc.json --seeds 1 \
        --out cert_nonassoc.json
    run hat_nonassoc -m dkequiv.cli transport hat --category nonassoc.json \
        --functor F.json --out hat_nonassoc.out.json
    run theta_nonassoc -m dkequiv.cli theta --category nonassoc.json --functor T.json \
        --out theta_nonassoc.out.json
    run theta_obj7 -m dkequiv.cli theta --category ex/delta_bt_4.structure.json \
        --functor T.json --object 7 --out theta_obj7.json
    run theta_obj1 -m dkequiv.cli theta --category ex/delta_bt_4.structure.json \
        --functor T.json --object 1 --out theta_obj1.json
    run cert_dims_neg -m dkequiv.cli certify --dims-max -1 --out cert_dims_neg.json
    run cert_seeds_neg -m dkequiv.cli certify --seeds -1 --out cert_seeds_neg.json
    run cert_seeds0 -m dkequiv.cli certify --seeds 0 --out cert_seeds0.json
    run nested_check -m dkequiv.cli check nested.json
    run nested_idem -m dkequiv.cli idem --input nested.json
    run nested_hat -m dkequiv.cli transport hat --category ex/delta_bt_4.structure.json \
        --functor nested.json --out nested_hat.out.json
    run nested_cert -m dkequiv.cli certify --category nested.json --out nested_cert.json
    run nested_par -m dkequiv.cli example par --base nested.json --out ex
    # the cases an assert decided, again under python -O
    for t in empty nonsquare ragged; do
        run "idem_${t}_O" -O -m dkequiv.cli idem --input "idem_$t.json"
    done
    run hat_negdim_O -O -m dkequiv.cli transport hat \
        --category ex/delta_bt_4.structure.json --functor F_negdim.json \
        --out hat_negdim_O.out.json
    run check_idshort_O -O -m dkequiv.cli check S_idshort.json
}

(cases "$OLD" "$WORK/old")
(cases "$NEW" "$WORK/new")
diff -r "$WORK/old" "$WORK/new"
