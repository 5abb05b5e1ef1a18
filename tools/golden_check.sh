#!/usr/bin/env bash
# Byte-compare the golden scenario outputs of the working tree with those of a
# revision (normally the parent commit).
#
#   tools/golden_check.sh PARENT_REV
#
# The revision is exported with `git archive` into a temporary directory.  Each
# tree's src/ then runs the seven golden commands on its own scenarios/*.json:
# the five scenario runs plus `negativity` on fig1 and walk_hadamard.  It also
# runs `validate` on the five scenarios and on thirteen malformed copies, each
# with one fault: eight of fig2 (non-object window, potential and tolerances,
# the unknown key dynamics.methd, no dynamics.times, a NaN j_hop, method "rk5"
# and kgrid.n_k 16), and five that reach the blocks those never do: a walk
# mode "wlak" and a walk noise.basis "spn" in walk_hadamard, a Lindblad entry
# without gamma and a polynomial potential with coeffs [] in fig2, and a cat
# state with the unknown param "phase" in cat_projective. It keeps their
# stdout, stderr and exit status, so the pre-run checks and their error
# messages are held to the same byte-identity.  Both trees also run
# `evolve` on eight copies written into the temporary directory: fig3 with the
# real spinor [cos 0.9, sin 0.9] (the committed configs use basis or "plus"
# spins, so most of their cells repeat, and this copy has few repeated values);
# fig2 with an odd n_k = 193, spin "plus", a sigma_x channel and method
# "both", which reaches the Bessel-band kernel's odd-n_k phases, the closed-form
# spin channel and the density route; fig2 with method "both" at 12 evenly
# spaced times over [0, 4.7], whose manifest holds the two-path deviation and
# edge weight maximized over many snapshots; fig3 with a sigma_x channel,
# method "rk4" and times [0, 0.5], whose channel does not commute with the
# sigma_z-coupled potential, so it runs the RK4 density route; and fig3 with
# j_hop 0.8, slope 0.7 and window.a 1.3, whose coupling lambda a = 0.91 is not
# 1 as in every committed config, so the Bessel-band kernel's scale and its
# reduction of lambda a t, and the exact density route, run at a non-unit
# coupling; fig2 at the size of the benchmark's Bloch sweep, the window
# [-60, 60] with n_k = 256 (a pure power of two; the committed runs reach the
# Bessel-band kernel only at n_k 192 and 193), the spinor [0.6, 0.8i], a
# sigma_z-coupled potential, method "both" and times [0, 3.1]; and fig2 with
# method "both", a sigma_x channel and the times [0, 0, 1.6, 1.6, 4.7], which
# pins that a time adding no steps keeps the previous density (t = 0 first and
# a repeated time) and that the channel acts once per snapshot time; and fig2
# with method "both" and the custom Lindblad op
# [[0.3+0.1i, 0.5-0.2i], [-0.4+0.3i, 0.2+0.6i]] at gamma 0.2, the one run whose
# config numbers reach NoiseSpec's intake (it commutes with the spin-scalar H,
# so the exact density route and the closed form both run).  183 files in all.
# BLAS is pinned to one thread, because the density route's last bits depend
# on the thread count.  Every file, manifests included, is compared byte for
# byte with `diff -r`.  Exit status: 0 when every file is byte-identical, 1 on
# any difference.
set -euo pipefail

parent=${1:?usage: tools/golden_check.sh PARENT_REV}
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
python=${PYTHON:-python3}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent-tree"
git -C "$root" archive "$parent" | tar -x -C "$tmp/parent-tree"
export OPENBLAS_NUM_THREADS=1

validate_run() {  # validate_run TREE CONFIG FILE: stdout, stderr and exit status into FILE
    local status=0
    (cd "$tmp" && PYTHONPATH="$1/src" "$python" -m lattice_wigner.cli validate --config "$2") \
        >"$3" 2>"$3.err" || status=$?
    { echo "stderr:"; cat "$3.err"; echo "exit status $status"; } >>"$3"
    rm "$3.err"
}

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
    for name in fig3_spinor fig2_odd_nk_channel fig2_many_both fig3_rk4_sigma_x fig3_lambda_a \
        fig2_w121 fig2_repeat_times fig2_custom_op; do
        (cd "$tmp" && PYTHONPATH="$tree/src" "$python" -m lattice_wigner.cli evolve \
            --config "$tmp/$name.json" --out "$out/evolve-$name" --quiet)
    done
    for name in cat_projective fig1_two_gaussian fig2_bloch fig3_spin_split walk_hadamard; do
        validate_run "$tree" "$tree/scenarios/$name.json" "$out/validate-$name.txt"
    done
    for config in "$tmp"/malformed-*.json; do
        name=$(basename "$config" .json)
        validate_run "$tree" "$config" "$out/validate-$name.txt"
    done
}

"$python" - "$root/scenarios" "$tmp" <<'EOF'
import json, math, pathlib, sys
scenarios, tmp = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
doc = json.loads((scenarios / "fig3_spin_split.json").read_text())
doc["state"]["params"]["spin"] = [math.cos(0.9), math.sin(0.9)]
(tmp / "fig3_spinor.json").write_text(json.dumps(doc))
doc = json.loads((scenarios / "fig2_bloch.json").read_text())
doc["kgrid"]["n_k"] = 193
doc["state"]["params"]["spin"] = "plus"
doc["dynamics"]["method"] = "both"
doc["dynamics"]["noise"] = {"lindblad": [{"op": "sigma_x", "gamma": 0.2}]}
(tmp / "fig2_odd_nk_channel.json").write_text(json.dumps(doc))
doc = json.loads((scenarios / "fig2_bloch.json").read_text())
doc["dynamics"]["method"] = "both"
doc["dynamics"]["times"] = [4.7 * i / 11 for i in range(12)]
(tmp / "fig2_many_both.json").write_text(json.dumps(doc))
doc = json.loads((scenarios / "fig3_spin_split.json").read_text())
doc["dynamics"]["noise"] = {"lindblad": [{"op": "sigma_x", "gamma": 0.2}]}
doc["dynamics"]["method"] = "rk4"
doc["dynamics"]["times"] = [0.0, 0.5]
(tmp / "fig3_rk4_sigma_x.json").write_text(json.dumps(doc))
doc = json.loads((scenarios / "fig3_spin_split.json").read_text())
doc["dynamics"]["hamiltonian"]["j_hop"] = 0.8
doc["dynamics"]["hamiltonian"]["potential"]["slope"] = 0.7
doc["window"]["a"] = 1.3
(tmp / "fig3_lambda_a.json").write_text(json.dumps(doc))
doc = json.loads((scenarios / "fig2_bloch.json").read_text())
doc["window"].update(n_min=-60, n_max=60)
doc["kgrid"]["n_k"] = 256
doc["state"]["params"]["spin"] = [0.6, [0, 0.8]]
doc["dynamics"]["hamiltonian"]["spin_coupled"] = True
doc["dynamics"]["method"] = "both"
doc["dynamics"]["times"] = [0.0, 3.1]
(tmp / "fig2_w121.json").write_text(json.dumps(doc))
doc = json.loads((scenarios / "fig2_bloch.json").read_text())
doc["dynamics"]["method"] = "both"
doc["dynamics"]["noise"] = {"lindblad": [{"op": "sigma_x", "gamma": 0.2}]}
doc["dynamics"]["times"] = [0.0, 0.0, 1.6, 1.6, 4.7]
(tmp / "fig2_repeat_times.json").write_text(json.dumps(doc))
doc = json.loads((scenarios / "fig2_bloch.json").read_text())
doc["dynamics"]["method"] = "both"
op = [[[0.3, 0.1], [0.5, -0.2]], [[-0.4, 0.3], [0.2, 0.6]]]
doc["dynamics"]["noise"] = {"lindblad": [{"op": op, "gamma": 0.2}]}
(tmp / "fig2_custom_op.json").write_text(json.dumps(doc))
absent = object()
for name, scenario, path, value in [
    ("window", "fig2_bloch", ["window"], 5),
    ("potential", "fig2_bloch", ["dynamics", "hamiltonian", "potential"], "linear"),
    ("tolerances", "fig2_bloch", ["tolerances"], []),
    ("unknown_key", "fig2_bloch", ["dynamics", "methd"], "rk4"),
    ("no_times", "fig2_bloch", ["dynamics", "times"], absent),
    ("j_hop_nan", "fig2_bloch", ["dynamics", "hamiltonian", "j_hop"], math.nan),
    ("method_rk5", "fig2_bloch", ["dynamics", "method"], "rk5"),
    ("n_k_16", "fig2_bloch", ["kgrid", "n_k"], 16),
    ("walk_mode", "walk_hadamard", ["dynamics", "mode"], "wlak"),
    ("walk_basis", "walk_hadamard", ["dynamics", "noise", "basis"], "spn"),
    ("lindblad_no_gamma", "fig2_bloch", ["dynamics", "noise"], {"lindblad": [{"op": "sigma_z"}]}),
    ("coeffs_empty", "fig2_bloch", ["dynamics", "hamiltonian", "potential"], {"kind": "polynomial", "coeffs": []}),
    ("cat_param", "cat_projective", ["state"], {"name": "cat", "params": {"a_site": -2, "b_site": 3, "phase": 0.5}}),
]:
    doc = json.loads((scenarios / f"{scenario}.json").read_text())
    *parents, leaf = path
    block = doc
    for key in parents:
        block = block[key]
    if value is absent:
        del block[leaf]
    else:
        block[leaf] = value
    (tmp / f"malformed-{name}.json").write_text(json.dumps(doc))
EOF
golden_runs "$tmp/parent-tree" "$tmp/parent"
golden_runs "$root" "$tmp/change"
if diff -r "$tmp/parent" "$tmp/change"; then
    echo "golden outputs byte-identical: $(find "$tmp/change" -type f | wc -l) files"
else
    echo "golden outputs differ from $parent" >&2
    exit 1
fi
