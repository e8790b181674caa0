#!/usr/bin/env bash
# The console script's end-to-end cases: the demo runs, the demo problem read
# from files in README's formats, the inputs that must exit 2 and a run that
# must exit 3.
#
# Run from anywhere with the `graphrbm` console script on PATH:
#
#     bash ci/console-script.sh
#
# Every case runs in a fresh temporary directory, which is removed at the end,
# in Python's development mode with warnings as errors, so a warning on a CLI
# path fails here as it fails tier-1.
set -euo pipefail
export PYTHONDEVMODE=1 PYTHONWARNINGS=error
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

graphrbm check
graphrbm solve --scheme ie --dt 0.002 --t-final 1.0
graphrbm solve --scheme theta:0.6 --dt 0.002 --t-final 0.2
graphrbm rbm --scheme siem --dt 0.002 --h 0.004 --t-final 0.2
graphrbm study --scheme ie,cn --dt 0.002 --h 0.004,0.008 --t-final 0.2 --realizations 2 --out study.csv
python -c "import csv, pathlib; rows = list(csv.DictReader(pathlib.Path('study.csv').read_text().splitlines())); assert len(rows) == 4, rows"
# the demo problem read from files in README's formats
cat > demo-graph.json <<'JSON'
{"edges": [{"tail": "v1", "head": "v3", "length": 1.0}, {"tail": "v2", "head": "v3", "length": 1.0},
           {"tail": "v3", "head": "v4", "length": 1.0}, {"tail": "v4", "head": "v5", "length": 1.0},
           {"tail": "v5", "head": "v7", "length": 1.0}, {"tail": "v4", "head": "v6", "length": 1.0},
           {"tail": "v6", "head": "v7", "length": 1.0}, {"tail": "v7", "head": "v8", "length": 1.0},
           {"tail": "v8", "head": "v9", "length": 1.0}, {"tail": "v8", "head": "v10", "length": 1.0}],
 "boundary": ["v1", "v2", "v9", "v10"]}
JSON
cat > demo-batches.json <<'JSON'
{"parts": [["e1", "e2", "e3"], ["e4", "e5"], ["e6", "e7"], ["e8", "e9", "e10"]],
 "batches": [[1], [2], [3], [4], [1, 2, 3, 4]],
 "probs": [0.2, 0.2, 0.2, 0.2, 0.2]}
JSON
graphrbm check --graph demo-graph.json --batches demo-batches.json
graphrbm rbm --graph demo-graph.json --batches demo-batches.json --scheme theta:0.6 --dt 0.002 --h 0.004 --t-final 0.2
# a malformed scheme is a configuration error
code=0; graphrbm solve --scheme thetafoo --t-final 0.2 || code=$?
test "$code" -eq 2
# theta:W sets the theta weight; there is no --theta
code=0; graphrbm solve --scheme theta --theta 0.6 --t-final 0.2 || code=$?
test "$code" -eq 2
# so is a scheme list for a single run, and an h a study is given twice
code=0; graphrbm solve --scheme ie,cn --t-final 0.2 || code=$?
test "$code" -eq 2
code=0; graphrbm study --h 0.004,0.004 --dt 0.002 --t-final 0.2 --realizations 1 --out dup.csv || code=$?
test "$code" -eq 2 && test ! -e dup.csv
# and an h list that does not parse, and a mesh with no node per edge
code=0; graphrbm study --h 0.004,x --dt 0.002 --t-final 0.2 --realizations 1 --out badh.csv || code=$?
test "$code" -eq 2 && test ! -e badh.csv
code=0; graphrbm solve --nodes-per-edge 0 --t-final 0.2 || code=$?
test "$code" -eq 2
# so is an edge length that is not a JSON number
sed '1s/"length": 1.0/"length": "2"/' demo-graph.json > bad-graph.json
code=0; graphrbm check --graph bad-graph.json || code=$?
test "$code" -eq 2
# and so is an edge name given to two edges, which a batch file could not tell apart
cat > twice-graph.json <<'JSON'
{"edges": [{"tail": "a", "head": "b", "name": "x"}, {"tail": "b", "head": "c", "name": "x"}], "boundary": ["a", "c"]}
JSON
code=0; graphrbm check --graph twice-graph.json || code=$?
test "$code" -eq 2
# and so are a file nested too deeply to read and a probability too large for a float
python -c "import sys; sys.stdout.write('[' * 100000)" > deep-graph.json
code=0; graphrbm check --graph deep-graph.json || code=$?
test "$code" -eq 2
python -c "import json, pathlib, sys; d = json.loads(pathlib.Path('demo-batches.json').read_text()); d['probs'][0] = 10**400; json.dump(d, sys.stdout)" > huge-batches.json
code=0; graphrbm check --batches huge-batches.json || code=$?
test "$code" -eq 2
# explicit Euler (theta 0) past its stability bound blows up: a numerical failure
code=0; graphrbm solve --scheme theta:0 --dt 0.01 --t-final 0.2 || code=$?
test "$code" -eq 3
echo "console script: every case passed"
