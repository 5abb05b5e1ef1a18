#!/usr/bin/env bash
# Byte-compare the golden scenario outputs of the working tree with those of a
# revision (normally the parent commit).
#
#   tools/golden_check.sh PARENT_REV
#
# The revision is exported with `git archive` into a temporary directory.  Each
# tree's src/ then runs the seven golden commands on its own scenarios/*.json:
# the five scenario runs plus `negativity` on fig1 and walk_hadamard.  It also
# runs `validate` on the five scenarios and keeps its stdout and exit status, so
# the pre-run checks are held to the same byte-identity.  Both trees also run
# `evolve` on one copy of fig3, written into the temporary directory, with the
# real spinor [cos 0.9, sin 0.9]: the committed configs use basis or "plus"
# spins, so most of their cells repeat, and this copy has few repeated values.
# BLAS is pinned to one thread, because the density route's last bits depend
# on the thread count.  The manifests' wall_clock_seconds, the one field
# allowed to differ between identical runs, is dropped before `diff -r`.  Exit
# status: 0 when every file is byte-identical, 1 on any difference.
set -euo pipefail

parent=${1:?usage: tools/golden_check.sh PARENT_REV}
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
python=${PYTHON:-python3}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent-tree"
git -C "$root" archive "$parent" | tar -x -C "$tmp/parent-tree"
export OPENBLAS_NUM_THREADS=1

golden_runs() {  # golden_runs TREE OUT
    local tree=$1 out=$2 cmd name
    for run in state:fig1_two_gaussian evolve:fig2_bloch evolve:fig3_spin_split \
        walk:cat_projective walk:walk_hadamard \
        negativity:fig1_two_gaussian negativity:walk_hadamard; do
        cmd=${run%%:*}
        name=${run#*:}
        (cd "$tmp" && PYTHONPATH="$tree/src" "$python" -m lattice_wigner.cli "$cmd" \
            --config "$tree/scenarios/$name.json" --out "$out/$cmd-$name" --quiet)
    done
    (cd "$tmp" && PYTHONPATH="$tree/src" "$python" -m lattice_wigner.cli evolve \
        --config "$tmp/fig3_spinor.json" --out "$out/evolve-fig3_spinor" --quiet)
    for name in cat_projective fig1_two_gaussian fig2_bloch fig3_spin_split walk_hadamard; do
        status=0
        (cd "$tmp" && PYTHONPATH="$tree/src" "$python" -m lattice_wigner.cli validate \
            --config "$tree/scenarios/$name.json") >"$out/validate-$name.txt" || status=$?
        echo "exit status $status" >>"$out/validate-$name.txt"
    done
    "$python" - "$out" <<'EOF'
import json, pathlib, sys
for path in pathlib.Path(sys.argv[1]).glob("*/manifest.json"):
    doc = json.loads(path.read_text())
    doc.pop("wall_clock_seconds")
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
EOF
}

"$python" - "$root/scenarios/fig3_spin_split.json" "$tmp/fig3_spinor.json" <<'EOF'
import json, math, pathlib, sys
doc = json.loads(pathlib.Path(sys.argv[1]).read_text())
doc["state"]["params"]["spin"] = [math.cos(0.9), math.sin(0.9)]
pathlib.Path(sys.argv[2]).write_text(json.dumps(doc))
EOF
golden_runs "$tmp/parent-tree" "$tmp/parent"
golden_runs "$root" "$tmp/change"
if diff -r "$tmp/parent" "$tmp/change"; then
    echo "golden outputs byte-identical: $(find "$tmp/change" -type f | wc -l) files"
else
    echo "golden outputs differ from $parent" >&2
    exit 1
fi
