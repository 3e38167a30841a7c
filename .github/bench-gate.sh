#!/usr/bin/env bash
# CI's performance gate, on one traced ffbench run:
#
#   bash bench/run.sh --workload lu32-serial --seed 1 --seconds 15 --trace 1 | bash .github/bench-gate.sh
#
# Reads the run's result (the last line of its standard output: one JSON
# object, bench/README.md) on standard input and fails unless the run was
# correct and both checks hold. Both compare numbers from the same process on
# the same host, so neither depends on how fast that host is:
#
#   * fork speedup: core.trial_replay_ms_p50 / core.trial_fork_ms_p50 >= 2.0.
#     Fork-at-injection-site must keep a 2x win over replay from t=0 on the
#     paper-scale lu trial mix (3.9-4.7 in bench/baseline/).
#   * allocation budget: core.allocs_per_trial <= 250. bench/baseline/'s row
#     still says 697 (it predates effective-fault reuse). A traced run read
#     about 134 once the checkpoint cut and the decided trial had landed, and
#     about 85 since the apps' class-sized arrays live in the rank's run shell
#     (mpi.Static) and a killed world boxes its Killed once; 250 leaves room
#     for host noise but not for a per-rank allocation at 32 ranks.
set -euo pipefail

tail -n 1 | awk -v min_ratio=2.0 -v alloc_budget=250 '
function metric(name,    re, s) {
	re = name
	gsub(/[.]/, "[.]", re)
	if (!match($0, "\"" re "\":[{]\"value\":[-+0-9.eE]+")) {
		printf "bench-gate: no metric %s in the input (want one ffbench --trace 1 result line)\n", name
		bad = 1
		return 0
	}
	s = substr($0, RSTART, RLENGTH)
	sub(/.*:/, "", s)
	return s + 0
}
{
	seen = 1
	if ($0 !~ /"correct":true/) {
		print "bench-gate: the run did not report \"correct\":true"
		bad = 1
	}
	fork = metric("core.trial_fork_ms_p50")
	replay = metric("core.trial_replay_ms_p50")
	allocs = metric("core.allocs_per_trial")
	if (bad) exit
	ratio = fork > 0 ? replay / fork : 0
	printf "fork speedup: %.2fx (replay %.3f ms / fork %.3f ms; need >= %.1f)\n", ratio, replay, fork, min_ratio
	printf "allocation budget: %.0f allocs/trial (budget %d)\n", allocs, alloc_budget
	if (ratio < min_ratio) {
		print "bench-gate: fork-at-injection-site lost its 2x win over full replay"
		bad = 1
	}
	if (allocs > alloc_budget) {
		print "bench-gate: core.allocs_per_trial is over budget"
		bad = 1
	}
}
END {
	if (!seen) {
		print "bench-gate: empty input"
		bad = 1
	}
	exit bad
}
'
