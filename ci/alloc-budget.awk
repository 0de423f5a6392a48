# alloc-budget.awk holds each gated benchmark's allocations to its line
# in ci/alloc-budget.txt, so they cannot creep a percent per change past
# bench-gate's base comparison.
#
#   awk -f ci/alloc-budget.awk ci/alloc-budget.txt bench.txt
#
# The budget has one line per benchmark: the name as `go test -bench`
# prints it without its -GOMAXPROCS suffix, allocs/op and B/op.
# bench.txt is `go test -benchmem` output of one or more counts; each
# benchmark's median over them is compared. allocs/op may exceed its line
# by 1 % or by 2 allocations, whichever is more; B/op by 1 % or 64 bytes
# (a pooled buffer's header the GC happened to clear). A benchmark
# without a line, and a line whose benchmark did not run, fail too: the
# budget names exactly the benchmarks ci/gated-benchmarks.txt selects.

FILENAME == ARGV[1] {
	if (NF == 0 || $1 ~ /^#/) next
	lines++
	allocBudget[$1] = $2
	byteBudget[$1] = $3
	next
}
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	allocs = bytes = ""
	for (i = 3; i < NF; i++) {
		if ($(i + 1) == "allocs/op") allocs = $i
		if ($(i + 1) == "B/op") bytes = $i
	}
	if (allocs == "" || bytes == "") {
		print "NO BENCHMEM: " name " (run with -benchmem)"
		bad = 1
		next
	}
	if (!(name in runs)) order[++names] = name
	k = ++runs[name]
	allocRun[name, k] = allocs
	byteRun[name, k] = bytes
}

# median of the n values v[1..n], sorted in place.
function median(v, n,    i, j, x) {
	for (i = 2; i <= n; i++) {
		x = v[i]
		for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
		v[j + 1] = x
	}
	return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
}

END {
	for (o = 1; o <= names; o++) {
		name = order[o]
		if (!(name in allocBudget)) {
			print "NO LINE: " name " has no line in the budget"
			bad = 1
			continue
		}
		seen[name] = 1
		n = runs[name]
		for (k = 1; k <= n; k++) v[k] = allocRun[name, k] + 0
		allocs = median(v, n)
		for (k = 1; k <= n; k++) v[k] = byteRun[name, k] + 0
		bytes = median(v, n)
		slack = allocBudget[name] * 0.01
		if (slack < 2) slack = 2
		if (allocs > allocBudget[name] + slack) {
			print "OVER BUDGET (allocs/op " allocs " > " allocBudget[name] " + " slack "): " name
			bad = 1
		}
		slack = byteBudget[name] * 0.01
		if (slack < 64) slack = 64
		if (bytes > byteBudget[name] + slack) {
			print "OVER BUDGET (B/op " bytes " > " byteBudget[name] " + " slack "): " name
			bad = 1
		}
	}
	for (name in allocBudget) {
		if (!(name in seen)) {
			print "STALE LINE: " name " did not run"
			bad = 1
		}
	}
	if (bad || lines == 0) {
		print "alloc-budget: a gated benchmark exceeds ci/alloc-budget.txt, or the two lists differ"
		exit 1
	}
	print "alloc-budget: " names " benchmarks within ci/alloc-budget.txt"
}
