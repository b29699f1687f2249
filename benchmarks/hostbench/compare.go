package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// worsening returns by what share of the base value the other value is
// worse, given the metric's direction; negative when it is better.
func worsening(better string, base, other float64) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - other) / base
	}
	return (other - base) / base
}

// compareFiles prints one row per workload and end-to-end metric of two
// result files: both values, their ratio over file A as the base, the
// spread of each side's repetitions, the bound BENCHMARK.json fixes, and
// a verdict. A row whose repetitions
// spread wider than the bound on either side is "unresolved", not
// unchanged: the measurement cannot tell. The exit code is non-zero
// when any metric of B is worse than A's by more than its bound.
func compareFiles(w io.Writer, specPath, pathA, pathB string) int {
	spec, err := readBenchmarkSpec(specPath)
	if err == nil && len(spec.EndToEnd) == 0 {
		err = fmt.Errorf("%s declares no end-to-end metrics", specPath)
	}
	var a, b *resultFile
	if err == nil {
		a, err = readResultFile(pathA)
	}
	if err == nil {
		b, err = readResultFile(pathB)
	}
	if err != nil {
		fmt.Fprintln(w, "hostbench:", err)
		return 2
	}
	fmt.Fprintf(w, "A (base) = %s  seed %d  commit %s\nB        = %s  seed %d  commit %s\n",
		pathA, a.Seed, a.Env.Commit, pathB, b.Seed, b.Env.Commit)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA\tB\tB/A\tspread A\tspread B\tbound\tverdict")
	breaches, rows := 0, 0
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			sa, okA := wa.EndToEnd[m.Name]
			sb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			rows++
			spA, spB := spread(sa.Samples), spread(sb.Samples)
			verdict := "ok"
			switch {
			case worsening(m.Better, sa.Value, sb.Value) > m.Bound:
				verdict = "BREACH"
				breaches++
			case spA > m.Bound || spB > m.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%.3f\t%.1f%%\t%.1f%%\t%.0f%% %s\t%s\n",
				wa.Name, m.Name, m.Unit, sa.Value, sb.Value, ratio(sb.Value, sa.Value), 100*spA, 100*spB, 100*m.Bound, m.Better, verdict)
		}
	}
	tw.Flush()
	switch {
	case rows == 0:
		fmt.Fprintln(w, "hostbench: the two files share no workload and end-to-end metric")
		return 2
	case breaches > 0:
		fmt.Fprintf(w, "hostbench: %d of %d rows are worse in B by more than their bound\n", breaches, rows)
		return 1
	}
	return 0
}
