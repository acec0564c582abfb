#!/usr/bin/env bash
# The README's bank, scatter, decay, stationary and demo recipes, run end to end
# through the `scatdecay` console script on PATH, in a fresh temporary directory,
# or in the directory given as the one argument, which is made if missing and kept.
# CI's package-smoke job runs it after installing the package.  Without
# installing, put tools/bin, whose `scatdecay` calls scatdecay.cli:main, on PATH
# and src/ on PYTHONPATH, from the repository root:
#
#   PATH="$PWD/tools/bin:$PATH" PYTHONPATH="$PWD/src" bash tools/smoke.sh [DIR]
#
# tools/same_bytes.py runs it into kept directories under two source trees and
# compares every file it writes, the saved stderr of its refusals included.
#
# CLI refusals are rows of the table in tests/test_cli.py, run by Tier-1, so
# this script keeps the recipes, three exit-3 checks (`scatter run --depth 7`,
# `decay verify --depth 8` and an oversized `stationary run --trials`) and
# four exit-2 checks: a bank file that is not JSON, and a Morlet `"J": 505`, a Morlet
# `"width": 1e-153` and an empty signal CSV, which once warned before their
# refusals.  Each of the four reads "error: <what> file <path>: <reason>",
# naming the file it refuses.  Every warning is an error, as under Tier-1's filterwarnings, so a
# RuntimeWarning in a README recipe fails the script.  The first failing
# command ends it with a nonzero exit.
set -eo pipefail
export PYTHONWARNINGS=error
if [ -n "$1" ]; then
  work=$1
  mkdir -p "$work"
else
  work=$(mktemp -d)
  trap 'rm -rf "$work"' EXIT
fi
cd "$work"

echo "== bank check"
echo '{"mother": {"name": "morlet", "params": {}}, "J": 0, "j_min": null, "N": 256}' > bank.json
scatdecay bank check --bank bank.json --out reports/ > check.txt
cat check.txt
test -f reports/check_littlewood_paley.json
test -f reports/check_asymmetry.json
test -f reports/check_vanishing_order.json
# the band the octave sums validate, and byte-stable reports
grep -qxF "validated band: 3..127" check.txt
scatdecay bank check --bank bank.json --out reports2/
diff -r reports reports2
# a bank that builds gets a verdict: a narrow first-order Morlet, of order 1 whatever
# its width, fails the order check, exit 1 with its three reports written
echo '{"mother": {"name": "morlet_first_order", "params": {"center": 3.0, "width": 0.1}}, "J": 0, "j_min": null, "N": 256}' > first_order.json
code=0
scatdecay bank check --bank first_order.json --out reports_first_order/ > check_first_order.txt || code=$?
cat check_first_order.txt
test "$code" -eq 1
test -f reports_first_order/check_littlewood_paley.json
test -f reports_first_order/check_asymmetry.json
test -f reports_first_order/check_vanishing_order.json
grep -q "^vanishing_order: FAIL " check_first_order.txt
# a bank file that is not JSON: one refusal naming the file, exit 2 and no --out left behind
echo '{this is not json' > not_json.json
code=0
scatdecay bank check --bank not_json.json --out reports_not_json/ 2> err_not_json.txt || code=$?
cat err_not_json.txt
test "$code" -eq 2
test "$(wc -l < err_not_json.txt)" -eq 1
grep -qF "error: bank file not_json.json: " err_not_json.txt
test ! -e reports_not_json
# a top frequency 2^J * N/2 that squares past float64: one clean refusal naming J,
# exit 2 with no warning (an error here) and no --out left behind
echo '{"mother": {"name": "morlet", "params": {}}, "J": 505, "j_min": null, "N": 256}' > bank505.json
code=0
scatdecay bank check --bank bank505.json --out reports505/ 2> err505.txt || code=$?
cat err505.txt
test "$code" -eq 2
test "$(wc -l < err505.txt)" -eq 1
grep -qF "error: bank file bank505.json: " err505.txt
grep -qF "J=505" err505.txt
test ! -e reports505
# a Morlet width too narrow for the bank's largest arguments, 2^J * N/2 and the window's 16:
# one clean refusal naming the width, exit 2 with no warning and no --out left behind
echo '{"mother": {"name": "morlet", "params": {"width": 1e-153}}, "J": 0, "j_min": null, "N": 256}' > narrow.json
code=0
scatdecay bank check --bank narrow.json --out reports_narrow/ 2> err_narrow.txt || code=$?
cat err_narrow.txt
test "$code" -eq 2
test "$(wc -l < err_narrow.txt)" -eq 1
grep -qF "error: bank file narrow.json: " err_narrow.txt
grep -qF "1e-153" err_narrow.txt
test ! -e reports_narrow

echo "== scatter run"
python -c "import math; [print(math.cos(2 * math.pi * 5 * k / 256)) for k in range(256)]" > f.csv
scatdecay scatter run --bank bank.json --signal f.csv --out tree/ --depth 3
test -f tree/manifest.json
test -f tree/profile.csv
# byte-stable, pruned or not: the same request into a new directory writes identical files
scatdecay scatter run --bank bank.json --signal f.csv --out tree2/ --depth 3
diff -r tree tree2
scatdecay scatter run --bank bank.json --signal f.csv --out tree_pruned/ --depth 3 --prune-eps 1e-4
scatdecay scatter run --bank bank.json --signal f.csv --out tree_pruned2/ --depth 3 --prune-eps 1e-4
diff -r tree_pruned tree_pruned2
# over the memory budget: exit 3, refused before --out is made
code=0
scatdecay scatter run --bank bank.json --signal f.csv --out tree7/ --depth 7 || code=$?
test "$code" -eq 3
test ! -e tree7
# a CSV with no sample: one clean refusal, exit 2 with no loadtxt warning (an error
# here, which once ended the run in a traceback, exit 1) and no --out left behind
: > empty.csv
code=0
scatdecay scatter run --bank bank.json --signal empty.csv --out tree_empty/ 2> err_empty.txt || code=$?
cat err_empty.txt
test "$code" -eq 2
test "$(wc -l < err_empty.txt)" -eq 1
grep -qF "error: signal file empty.csv: signal CSV holds no samples" err_empty.txt
test ! -e tree_empty

echo "== decay verify"
scatdecay decay verify --bank bank.json --out decay/ --seed 7
test -f decay/constants.json
test -f decay/decay.csv
# over the memory budget: exit 3 with one line naming the bytes, refused before --out is made
code=0
scatdecay decay verify --bank bank.json --out decay8/ --seed 7 --depth 8 2> err_decay8.txt || code=$?
cat err_decay8.txt
test "$code" -eq 3
test "$(wc -l < err_decay8.txt)" -eq 1
test ! -e decay8
# byte-stable: the same request into a new directory writes identical files
scatdecay decay verify --bank bank.json --out decay2/ --seed 7
diff -r decay decay2
# Shannon's mirrored pair is two indicators of one comparison each, and its narrow
# window leaves all but 6 band rows out of the width search's smoothing: byte-stable too
echo '{"mother": {"name": "shannon", "params": {}}, "J": 0, "j_min": null, "N": 256}' > shannon.json
scatdecay decay verify --bank shannon.json --out shannon/ --seed 7
scatdecay decay verify --bank shannon.json --out shannon2/ --seed 7
diff -r shannon shannon2
# a layer's row does not depend on --depth: the default depth-4 table is the first
# four lines of the depth-6 one (Shannon's layer 4 once differed in its last bit);
# the depth-6 profile holds layers 1-4 and weighs layer 5 a chunk at a time, so
# the whole process peaks under 80 MB RSS
for b in bank shannon; do
  python -c "import resource, sys; from scatdecay.cli import main; code = main(sys.argv[1:]); rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024; print(f'peak RSS {rss:.1f} MB'); assert code == 0 and rss < 80, rss" decay verify --bank $b.json --out $b-depth6/ --seed 7 --depth 6
done
head -n 4 bank-depth6/decay.csv | cmp - decay/decay.csv
head -n 4 shannon-depth6/decay.csv | cmp - shannon/decay.csv
# the width search's own inequality, which no refusal backs: its least slack is at least -1e-9
for constants in decay/constants.json shannon/constants.json; do
  python -c "import json, pathlib, sys; m = json.loads(pathlib.Path(sys.argv[1]).read_text())['margins']['x_condition']; print(m); assert m >= -1e-9" $constants
done

echo "== stationary run"
echo '{"mother": {"name": "morlet", "params": {}}, "J": 0, "j_min": null, "N": 128}' > bank128.json
echo '{"kind": "white", "params": {"sigma": 1.0}, "N": 128}' > model.json
scatdecay stationary run --bank bank128.json --model model.json --out mc/ --trials 200 --depth 2
test -f mc/mc_report.json
# 8 bytes per trial over the memory budget: exit 3 before any trial is drawn
code=0
scatdecay stationary run --bank bank128.json --model model.json --out mc_trials/ --trials 1000000000 \
  2> err_trials.txt || code=$?
cat err_trials.txt
test "$code" -eq 3
test "$(wc -l < err_trials.txt)" -eq 1
test ! -e mc_trials
scatdecay stationary run --bank bank128.json --model model.json --out mc2/ --trials 200 --depth 2
diff -r mc mc2
# depth 3 runs 5 blocks of 41 trials, the last one partial: blocks do not move a bit
scatdecay stationary run --bank bank128.json --model model.json --out mc3/ --trials 200 --depth 3
scatdecay stationary run --bank bank128.json --model model.json --out mc3b/ --trials 200 --depth 3
diff -r mc3 mc3b
# layer 1 is read straight off each trial's spectrum: byte-stable too; `stationary run`
# refuses depth 1 (its bound starts at layer 2), so the library estimate is compared
mkdir -p mc1 mc1b
for out in mc1 mc1b; do
  python -c "from scatdecay.filterbank import load_bank; from scatdecay.stationary import load_model, mc_layer_energy; print(repr(mc_layer_energy(load_model('model.json'), load_bank('bank128.json'), 1, 200, 0)))" > $out/estimate.txt
done
diff -r mc1 mc1b
# Shannon's filters are one-sided, and its octave j=-6 holds no bin of the N=128 grid
echo '{"mother": {"name": "shannon", "params": {}}, "J": 0, "j_min": null, "N": 128}' > shannon128.json
scatdecay stationary run --bank shannon128.json --model model.json --out mcs/ --trials 200
scatdecay stationary run --bank shannon128.json --model model.json --out mcs2/ --trials 200
diff -r mcs mcs2
# the verdict, not only its bytes: each N=128 report passes, with estimate <= bound + 3 stderr
for report in mc/mc_report.json mc3/mc_report.json mcs/mc_report.json; do
  python -c "import json, pathlib, sys; r = json.loads(pathlib.Path(sys.argv[1]).read_text()); print(r); assert r['pass'] is True and r['estimate'] <= r['bound'] + 3 * r['stderr']" $report
done

echo "== demo modulus-shift"
scatdecay demo modulus-shift --out demo/
test -f demo/summary.json
