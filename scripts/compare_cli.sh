#!/bin/sh
# Run the same dkequiv CLI cases on two checkouts and diff what they print to
# stdout and stderr, the exit codes, and every file they write.
#
#   mkdir -p /tmp/old && git archive <commit> | tar -x -C /tmp/old
#   sh scripts/compare_cli.sh /tmp/old . /tmp/cli-compare
#
# The exit status is diff's: 0 when both checkouts behave byte-identically.
# Inputs that are not produced by a CLI command (a functor file, structures
# that fail the axioms, a par base category) are written once, by the old
# checkout, and copied to both sides.
set -e
OLD=$(cd "$1" && pwd)
NEW=$(cd "$2" && pwd)
mkdir -p "$3"
WORK=$(cd "$3" && pwd)
rm -rf "$WORK/inputs" "$WORK/old" "$WORK/new"
mkdir -p "$WORK/inputs"

(cd "$WORK/inputs" && PYTHONPATH="$OLD/src" python3 - <<'EOF'
import json

from dkequiv.builders import build_delta_bt, build_fi_input, build_fi_sharp
from dkequiv.equivalence import build_kernel_module
from dkequiv.functors import random_pointed_functor
from dkequiv.structure import MRStructure

km = build_kernel_module(build_delta_bt(4), validate=False)
f = random_pointed_functor(km.d, (1, 2, 2, 1), seed=5)
with open("F.json", "w") as fh:
    json.dump(f.to_jsonable(category="ex/delta_bt_4.structure.json"), fh,
              sort_keys=True, indent=2)
with open("fi2.base.json", "w") as fh:
    json.dump(build_fi_input(2).to_jsonable(), fh)
# one non-identity retraction redirected to an identity
data = build_fi_sharp(3).to_jsonable()
m = next(k for k in data["star"] if int(k) not in set(data["identities"]))
data["star"][m] = str(data["identities"][0])
with open("bad_star.json", "w") as fh:
    json.dump(data, fh)
# embeddings cut to the isomorphisms plus a few injections: axiom failures
s = build_fi_sharp(2)
for tag, extra in (("cut1", {1}), ("cut78", {7, 8})):
    ms = s.cat.isos() | extra
    with open(f"{tag}.json", "w") as fh:
        fh.write(MRStructure(s.cat, ms, {k: s.star[k] for k in ms}).to_json())
EOF
)

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
    for t in delta_bt_4 fi_sharp_3 cube_2 pt; do
        run "check_$t" -m dkequiv.cli check "ex/$t.structure.json" --out "check_$t.json"
    done
    for t in bad_star cut1 cut78; do
        run "check_$t" -m dkequiv.cli check "$t.json" --out "check_$t.json"
    done
    run cert_fi -m dkequiv.cli certify --name fi_sharp --size 3 --seeds 5 --out cert_fi.json
    run cert_bad -m dkequiv.cli certify --category bad_star.json --seeds 1 --out cert_bad.json
    run cert_cut78 -m dkequiv.cli certify --category cut78.json --out cert_cut78.json
    run hat -m dkequiv.cli transport hat --category ex/delta_bt_4.structure.json \
        --functor F.json --out T.json
    run tilde -m dkequiv.cli transport tilde --category ex/delta_bt_4.structure.json \
        --functor T.json --out FT.json
    run theta -m dkequiv.cli theta --category ex/delta_bt_4.structure.json \
        --functor T.json --out theta.json
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
}

(cases "$OLD" "$WORK/old")
(cases "$NEW" "$WORK/new")
diff -r "$WORK/old" "$WORK/new"
