#!/usr/bin/env bash
# census.sh: which functions does no result path run?
#
# Builds jtpsim and the five examples with coverage over the whole
# module, runs a fixed, deterministic list of the commands CI and the
# goldens already run (no timed signals: the restart paths use
# JTPSIM_CHAOS_EXIT_AT), writes `go tool covdata func` to DIR/func.txt
# and hands it to TestCoverageCensus, which fails on a function at 0%
# in internal/ or cmd/ that testdata/unreached.txt does not list, and
# on a listed entry that is now covered. See DESIGN.md "Exported
# surface".
#
# Usage: scripts/census.sh [DIR]   (run from the repository root;
# DIR defaults to a fresh temporary directory and is left in place)
set -euo pipefail

root=$(pwd)
test -f "$root/go.mod" -a -f "$root/testdata/unreached.txt" || {
	echo "census.sh: run from the repository root" >&2
	exit 2
}
dir=${1:-$(mktemp -d)}
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
rm -rf "$dir/bin" "$dir/cov" "$dir/work"
mkdir -p "$dir/bin" "$dir/cov" "$dir/work"
export GOCOVERDIR=$dir/cov

pkgs=github.com/javelen/jtp/...
go build -cover -coverpkg=$pkgs -o "$dir/bin/jtpsim" ./cmd/jtpsim
examples="quickstart mobilemesh reliability mediastream sensornet"
for ex in $examples; do
	go build -cover -coverpkg=$pkgs -o "$dir/bin/$ex" ./examples/$ex
done

j=$dir/bin/jtpsim
cd "$dir/work"

# fails runs a command that must exit non-zero.
fails() {
	if "$@" >/dev/null 2>err.txt; then
		echo "census.sh: expected a non-zero exit: $*" >&2
		exit 1
	fi
}

for ex in $examples; do
	"$dir/bin/$ex" >$ex.out
	diff "$root/examples/$ex/testdata/stdout.txt" $ex.out
done

# Every experiment, both forms, against the goldens.
"$j" -list 2>/dev/null
"$j" -exp all -scale 0.05 >exp-all.txt
"$j" -exp all -scale 0.05 -csv >exp-all.csv
diff "$root/cmd/jtpsim/testdata/exp-all.txt" exp-all.txt
diff "$root/cmd/jtpsim/testdata/exp-all.csv" exp-all.csv
"$j" -exp fig9 -scale 0.1 -par 1 >fig9.par1.txt
"$j" -exp fig9 -scale 0.1 -par 4 -telemetry fig9.tel.jsonl -progress >fig9.tel.txt 2>/dev/null
diff fig9.par1.txt fig9.tel.txt

# Error paths CI checks.
fails "$j" -exp nosuch
fails "$j" bogus -exp fig9
fails "$j" bench -exp fig9
echo '{"protocols":["carrierpigeon"]}' >bad-matrix.json
fails "$j" batch -matrix bad-matrix.json

# Batch campaigns: the smoke matrix and every driver on the four
# generated families.
cat >smoke-matrix.json <<'EOF'
{"name": "ci-smoke", "protocols": ["jtp", "tcp"], "nodes": [4], "lossTolerances": [0, 0.1], "runs": 2, "seconds": 300, "seed": 5}
EOF
"$j" batch -matrix smoke-matrix.json -par 4 >/dev/null
"$j" batch -matrix smoke-matrix.json -par 4 -json >batch.json
cat >wl-matrix.json <<'EOF'
{
  "name": "ci-workloads",
  "protocols": ["jtp", "jnc", "tcp", "atp"],
  "workloads": [
    {"family": "chain", "nodes": 6, "traffic": "single", "totalPackets": 40, "seconds": 250},
    {"family": "grid", "nodes": 9, "traffic": "sink", "flows": 3, "totalPackets": 30, "seconds": 250},
    {"family": "rgg", "nodes": 12, "traffic": "pairs", "flows": 3, "totalPackets": 30, "seconds": 250},
    {"family": "star", "nodes": 8, "traffic": "staggered", "flows": 3, "totalPackets": 30, "seconds": 250,
     "energyClasses": [{"weight": 2, "budgetJ": 0}, {"weight": 1, "budgetJ": 0.8}],
     "churn": {"failures": 1, "meanDowntime": 40}}
  ],
  "runs": 2,
  "seed": 9
}
EOF
"$j" batch -matrix wl-matrix.json -par 1 -csv >wl.par1.csv
"$j" batch -matrix wl-matrix.json -par 8 -csv >wl.par8.csv
diff wl.par1.csv wl.par8.csv

# Workload generation, replay and the packet trace.
"$j" gen -family rgg -nodes 15 -seed 11 >dump1.json
"$j" gen -replay dump1.json -proto jtp >replay.txt
echo '{"family": "grid", "nodes": 9, "traffic": "sink", "flows": 2, "totalPackets": 30, "seconds": 250}' >spec.json
"$j" gen -spec spec.json -seed 3 -run -proto tcp >/dev/null
"$j" gen -family chain -nodes 5 -run -proto jtp -trace trace.jsonl >/dev/null

# Shards and merges: a figure, a two-panel figure and a batch.
for exp in fig9 fig4; do
	"$j" -exp $exp -scale 0.1 -par 4 -shard-out $exp.un.json >/dev/null
	for i in 0 1 2; do
		"$j" -exp $exp -scale 0.1 -par 4 -shard $i/3 -shard-out $exp.s$i.json >/dev/null
	done
	"$j" merge -csv $exp.un.json >$exp.unsharded.csv
	"$j" merge -csv $exp.s0.json $exp.s1.json $exp.s2.json >$exp.merged.csv
	diff $exp.unsharded.csv $exp.merged.csv
done
cat >shard-matrix.json <<'EOF'
{"name": "ci-shard", "protocols": ["jtp", "tcp"], "nodes": [4, 6], "lossTolerances": [0, 0.1], "runs": 3, "seconds": 300, "seed": 5}
EOF
"$j" batch -matrix shard-matrix.json -par 4 -csv >batch.unsharded.csv
for i in 0 1 2; do
	"$j" batch -matrix shard-matrix.json -par 2 -shard $i/3 -shard-out batch.s$i.json >/dev/null
done
"$j" merge -csv batch.s0.json batch.s1.json batch.s2.json >batch.merged.csv
diff batch.unsharded.csv batch.merged.csv
fails "$j" merge batch.s0.json batch.s1.json

# The coordinator renders a figure as the unsharded run does.
"$j" -exp fig4 -scale 0.02 >fig4.plain.txt
"$j" coord -exp fig4 -scale 0.02 -shards 2 -out coord-fig4 -q >fig4.coord.txt
diff fig4.plain.txt fig4.coord.txt

# Checkpoint resume: the worker dies at fold 5 (a checkpoint at every
# fold), and the rerun resumes to the clean bytes.
cat >resume-matrix.json <<'EOF'
{"name": "ci-resume", "protocols": ["jtp", "tcp"], "nodes": [4, 6], "runs": 4, "seconds": 300, "seed": 9}
EOF
"$j" batch -matrix resume-matrix.json -par 2 -csv >resume.clean.csv
JTPSIM_CHAOS_EXIT_AT=5 fails "$j" batch -matrix resume-matrix.json -par 1 \
	-checkpoint resume.ck.json -checkpoint-interval 1ns -csv
"$j" batch -matrix resume-matrix.json -par 2 -checkpoint resume.ck.json -csv >resume.resumed.csv
diff resume.clean.csv resume.resumed.csv

# The coordinator restarts a shard that died, then, with no retries
# left, merges what it has and names the missing shard.
cat >chaos-matrix.json <<'EOF'
{"name": "ci-chaos", "protocols": ["jtp", "jnc"], "nodes": [6, 10], "cachePolicies": ["lru", "off"], "flows": 3, "runs": 4, "seconds": 400, "warmup": 50, "seed": 9}
EOF
"$j" batch -matrix chaos-matrix.json -par 2 -csv >chaos.clean.csv
JTPSIM_CHAOS_EXIT_AT=1:3 "$j" coord -matrix chaos-matrix.json -shards 4 -workers 2 -par 1 \
	-out outrestart -poll 20ms -retries 2 -backoff 10ms -checkpoint-interval 1ns \
	-csv >chaos.restart.csv 2>/dev/null
diff chaos.clean.csv chaos.restart.csv
JTPSIM_CHAOS_EXIT_AT=1:3 fails "$j" coord -matrix chaos-matrix.json -shards 4 -workers 2 -par 1 \
	-out outexh -poll 20ms -retries 0 -csv
grep -q 'PARTIAL result: missing shards \[1\]' err.txt

# The benchmark's four matrices at its -smoke size (bench/workloads.go,
# bench seed 1), traced as the benchmark traces them.
cat >static_chain.json <<'EOF'
{"name": "static_chain", "protocols": ["jtp", "atp", "tcp"], "topology": "linear", "nodes": [4, 5, 6, 7, 8, 9, 10], "flows": 2, "seconds": 2500, "runs": 1, "seed": 1000004}
EOF
cat >mobile_rgg.json <<'EOF'
{"name": "mobile_rgg", "protocols": ["jtp", "atp", "tcp"], "topology": "random", "nodes": [64, 96], "mobilitySpeeds": [1, 5], "flows": 5, "seconds": 600, "runs": 1, "seed": 1000005}
EOF
cat >large_static.json <<'EOF'
{"name": "large_static", "protocols": ["jtp", "tcp"], "workloads": [
  {"name": "rgg-2048", "family": "rgg", "nodes": 2048, "traffic": "sink", "flows": 64, "seconds": 600},
  {"name": "grid-4096", "family": "grid", "nodes": 4096, "traffic": "pairs", "flows": 64, "seconds": 600}], "runs": 1, "seed": 1000006}
EOF
cat >short_coord.json <<'EOF'
{"name": "short_coord", "protocols": ["jtp", "jnc", "atp", "tcp"], "topology": "linear", "nodes": [3, 4, 5], "lossTolerances": [0, 0.1, 0.2], "cachePolicies": ["lru", "off"], "channels": ["default", "clean"], "flows": 1, "totalPackets": 20, "seconds": 10, "warmup": 1, "runs": 4, "seed": 1000007}
EOF
for w in static_chain mobile_rgg large_static; do
	"$j" batch -matrix $w.json -csv -par 2 -telemetry $w.jsonl -cpuprofile $w.prof >$w.csv
done
"$j" coord -matrix short_coord.json -shards 8 -workers 2 -par 1 -out coord-short -csv -q >short_coord.csv
"$j" merge -csv coord-short/shard-[0-9]*[0-9].json >short_coord.merged.csv
diff short_coord.csv short_coord.merged.csv

cd "$root"
go tool covdata func -i "$dir/cov" >"$dir/func.txt"
echo "census.sh: $(grep -c . "$dir/func.txt") lines in $dir/func.txt" >&2
JTP_CENSUS_FUNC=$dir/func.txt go test -count=1 -run '^TestCoverageCensus$' -v .
