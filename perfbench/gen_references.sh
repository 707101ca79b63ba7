#!/usr/bin/env bash
# Regenerates references.json: for each batch workload and request seed
# 1..16, the SHA-256 of the obmsim CLI's -json envelope and the
# deterministic counts from its -metrics block. Run from anywhere:
#
#   bash perfbench/gen_references.sh
#
# Only a change that alters the program's outputs on purpose needs it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root" && go build -o "$out/bin/obmsim" ./cmd/obmsim)

declare -A exps=(
  [noc-sim]=loadsweep,burst,tail,fig11,validate,congestion
  [map-solve]=table1,table3,table4,fig3,fig4,fig5,fig8,fig9,fig10,fig12,gap,objective,pareto,seeds,dynamic,dynstream,placement,capacity,topology
)
tmp="$(mktemp -d "$out/tmp/refs.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/refs"
for w in noc-sim map-solve; do
  for seed in $(seq 1 16); do
    "$out/bin/obmsim" -exp "${exps[$w]}" -quick -seed "$seed" -json "$tmp/env.json" >/dev/null
    "$out/bin/obmsim" -exp "${exps[$w]}" -quick -seed "$seed" -metrics -json "$tmp/met.json" >/dev/null
    jq -n --arg w "$w" --arg s "$seed" --arg sha "$(sha256sum "$tmp/env.json" | cut -d' ' -f1)" \
      --slurpfile m "$tmp/met.json" '
      ($m[0].metrics.counters | map({(.name): .value}) | add) as $c |
      {($w): {($s): {envelope_sha256: $sha, counts: {
        "noc.cycles": ($c["noc.cycles.stepped"] // 0),
        "noc.flits": ($c["noc.flits.delivered"] // 0),
        "artifact.computed": ($c["artifact.store.computed"] // 0),
        "sched.remap_attempts": ($c["sched.stream.remap.attempts"] // 0)}}}}' > "$tmp/refs/$w-$seed.json"
  done
done
jq -s 'reduce .[] as $x ({}; . * $x)' "$tmp"/refs/*.json > "$root/perfbench/references.json"
