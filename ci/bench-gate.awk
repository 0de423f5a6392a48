# bench-gate.awk reads a benchstat delta table (base vs PR) and fails on a
# statistically significant regression in a gated table: more than 15 %
# sec/op, or more than 1 % allocs/op. benchstat prints a percent delta only
# when the change is significant (otherwise "~"), so any "+N%" token above
# the bound is a confirmed regression. A change from zero has no finite
# percentage: a row whose base center is 0 and whose PR center is not
# fails, whether its delta reads "?" or "+Inf%". The other tables are
# not gated: B/s (from b.SetBytes), where a positive delta is an
# improvement, B/op, and the custom b.ReportMetric units such as
# bytes-written/op.
#
#   awk -f ci/bench-gate.awk bench-delta.txt
#
# ci/testdata/bench-delta.txt is a hand-made table of rows to pass and
# rows to fail, and ci/testdata/bench-delta.want the verdicts on the
# latter; CI's lint job checks the script against both.

# A unit header names the table the following rows belong to. The
# allocs/op header also matches the catch-all, so it comes first.
/│/ && /sec\/op/    { table = "sec/op";    bound = 15; next }
/│/ && /allocs\/op/ { table = "allocs/op"; bound = 1;  next }
/│/ && /\/op|B\/s/  { table = "";          next }
table == "" || /geomean/ { next }
{
	# A row reads: name, base center, ±, spread, PR center, ±, spread, delta.
	for (i = 1; i <= NF; i++) {
		if ($i == "?" && $2 + 0 == 0 && $5 + 0 > 0) {
			pct = 1e300
		} else if ($i ~ /^\+([0-9.]+|Inf)%$/) {
			pct = ($i == "+Inf%") ? 1e300 : substr($i, 2, length($i) - 2) + 0
		} else {
			continue
		}
		if (pct > bound) {
			bad = 1
			print "REGRESSION (" table " " $i " > " bound "%): " $1
		}
	}
}
END {
	if (bad) {
		print "bench-gate: statistically significant regression: > 15% sec/op or > 1% allocs/op (see bench-delta artifact)"
		exit 1
	}
	print "bench-gate: no significant regression above 15% sec/op or 1% allocs/op"
}
