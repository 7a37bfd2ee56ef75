#!/usr/bin/env bash
# CI's benchmark regression gate, comparing a change with its parent on
# one machine: builds the gated benchmark binaries of both sides, runs
# the two sides alternately for five rounds at 0.5 s, so machine drift
# hits both sides alike, then gates with cmd/bench2json -parent on the
# ratio of each benchmark's medians, median(change)/median(parent).
#
#   bash .github/bench-pair.sh PARENT_TREE
#
# Run from the change's tree; PARENT_TREE is a checkout of the parent
# commit (e.g. a git worktree). Writes bench_parent.txt,
# bench_change.txt and bench_delta.json into the current directory, and
# exits non-zero when a gated benchmark's median ns/op or allocs/op grew
# by more than 25% over the parent's, or when the gate matches no
# benchmark present on both sides. Smaller slowdowns only print
# soft-fail notes.
set -euo pipefail

parent_tree=$(cd "$1" && pwd)
change_tree=$(pwd)
rounds=5
benchtime=0.5s
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT

# The packages holding the gated benchmarks, and the gate, which selects
# both the benchmarks that run and those a regression fails: the
# compiled kernels and bit-parallel estimators; ExactFactoring, whose
# scratch-pooled arenas make the hybrid planner's exact probe cheap;
# PlanPatch, which keeps a patched plan cheaper than a fresh Compile;
# WALAppendNever, the durable-ingest hot path's CPU cost (the
# sync-bearing policies measure fsync latency and are not gated);
# AlignerSearch, AlignerIndex, ProfileMatch and the root package's
# ExploratoryQuery, mediator integration; the root's LiveCarve, live
# mode's resolve, which copies only the pruned subgraph out of the
# union graph (the root's other benchmarks regenerate whole paper
# figures); and internal/engine's EngineBatch, the engine's request path
# (resolve, plan cache, all five methods, result cache off), which a
# served request that reduces again, skips the plan cache or falls back
# to the scalar kernel slows. The $ keeps EngineBatchCached, a cache
# lookup, out of the gate (bench2json matches names without their -N
# suffix). Every gated benchmark is gated on allocs/op too: the counts
# are deterministic, a label index rebuilt on every AddNode adds ~1,000
# allocs/op (+67%) to ExploratoryQuery and doubles its ns/op, and a
# carve that clones the union graph again multiplies LiveCarve's.
pkgs=(internal/kernel internal/rank internal/wal internal/sources internal/engine .)
gate='^Benchmark(Compiled|BitParallel|WorldsBlock|ExactFactoring|PlanPatch|WALAppendNever|AlignerSearch|AlignerIndex|ProfileMatch|ExploratoryQuery|LiveCarve|EngineBatch$)'

tree() { if [ "$1" = parent ]; then echo "$parent_tree"; else echo "$change_tree"; fi; }
binary() { echo "$bin/$1-${2//\//_}.test"; }

for side in parent change; do
  for pkg in "${pkgs[@]}"; do
    if [ "$side" = parent ] && [ ! -d "$parent_tree/$pkg" ]; then
      # A package the parent lacks leaves its benchmarks one-sided:
      # bench2json reports them and does not gate them.
      echo "bench-pair: parent has no ./$pkg; its benchmarks run on the change only" >&2
      continue
    fi
    (cd "$(tree "$side")" && go test -c -o "$(binary "$side" "$pkg")" "./$pkg")
  done
done

: > bench_parent.txt
: > bench_change.txt
for round in $(seq "$rounds"); do
  # Alternate which side goes first, so a trend over the run does not
  # favour either.
  order="parent change"
  if [ $((round % 2)) -eq 0 ]; then order="change parent"; fi
  for side in $order; do
    for pkg in "${pkgs[@]}"; do
      test_bin=$(binary "$side" "$pkg")
      [ -x "$test_bin" ] || continue
      (cd "$(tree "$side")/$pkg" && "$test_bin" -test.run '^$' -test.bench "$gate" \
        -test.benchmem -test.benchtime "$benchtime" -test.timeout 10m) >> "bench_$side.txt"
    done
  done
done

go run ./cmd/bench2json -parent bench_parent.txt -max-regress 0.25 -max-allocs-regress 0.25 \
  -gate "$gate" < bench_change.txt > bench_delta.json
