package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparator needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts, following the rule for a change on one layer: a gain needs
// the change to win at least nine pairs in ten and the medians to differ
// by more than the base's own interquartile spread; a loss beyond the
// bound is a regression; a spread wider than the bound leaves the metric
// unresolved unless every change run beats every base run.
const (
	improved    = "improved"
	withinBound = "within bound"
	regressed   = "regressed"
	unresolved  = "unresolved"
)

// comparison is one metric of one workload, base against change.
type comparison struct {
	baseMed, baseQ1, baseQ3 float64
	chgMed, chgQ1, chgQ3    float64
	pairs                   int
	wins                    float64 // fraction of pairs the change won; ties win for neither
	worse                   float64 // change's median worse than base's, as a share of base
	verdict                 string
}

// compareMetric pairs run i of base with run i of change.
func compareMetric(base, change []float64, better string, bound float64) comparison {
	var c comparison
	c.baseQ1, c.baseMed, c.baseQ3 = quartiles(base)
	c.chgQ1, c.chgMed, c.chgQ3 = quartiles(change)
	c.pairs = min(len(base), len(change))
	// gain is how much better b reads than a.
	gain := func(a, b float64) float64 {
		if better == "higher" {
			return b - a
		}
		return a - b
	}
	won := 0
	for i := 0; i < c.pairs; i++ {
		if gain(base[i], change[i]) > 0 {
			won++
		}
	}
	if c.pairs > 0 {
		c.wins = float64(won) / float64(c.pairs)
	}
	c.worse = -gain(c.baseMed, c.chgMed) / c.baseMed
	allBetter := len(base) > 0 && len(change) > 0
	for _, b := range base {
		for _, x := range change {
			if gain(b, x) <= 0 {
				allBetter = false
			}
		}
	}
	spread := max(share(c.baseQ3-c.baseQ1, c.baseMed), share(c.chgQ3-c.chgQ1, c.chgMed))
	switch {
	case c.pairs > 0 && c.wins >= 0.9 && gain(c.baseMed, c.chgMed) > c.baseQ3-c.baseQ1:
		c.verdict = improved
	case c.worse > bound:
		c.verdict = regressed
	case spread > bound && !allBetter:
		c.verdict = unresolved
	default:
		c.verdict = withinBound
	}
	return c
}

// rowVerdict folds a workload's metric verdicts into one: any regression
// regresses the row, then any unresolved metric leaves it unresolved.
func rowVerdict(vs []string) string {
	has := map[string]bool{}
	for _, v := range vs {
		has[v] = true
	}
	for _, v := range []string{regressed, unresolved, improved} {
		if has[v] {
			return v
		}
	}
	return withinBound
}

// compareMain reads two result sets (JSON lines written by steady --out)
// and prints, per workload and end-to-end metric, both sides' medians and
// quartiles, the share of pairs the change won and a verdict.
func compareMain(args []string, w io.Writer) int {
	fset := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	benchPath := fset.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	if fset.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] base.jsonl change.jsonl")
		return 2
	}
	spec, err := readBenchSpec(*benchPath)
	if err == nil {
		var base, change []record
		if base, err = readRecords(fset.Arg(0)); err == nil {
			if change, err = readRecords(fset.Arg(1)); err == nil {
				err = printComparison(w, spec, base, change)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 1
	}
	return 0
}

func readBenchSpec(path string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(data, &spec)
}

func printComparison(w io.Writer, spec benchSpec, base, change []record) error {
	byWorkload := func(recs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range recs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	b, c := byWorkload(base), byWorkload(change)
	var names []string
	for n := range b {
		if _, ok := c[n]; ok {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("the result sets share no workload")
	}
	sort.Strings(names)
	if len(base) > 0 && len(change) > 0 {
		hb, hc := base[0].Host, change[0].Host
		fmt.Fprintf(w, "base   %s  nproc %d  %s\nchange %s  nproc %d  %s\n", hb.Commit, hb.NProc, hb.GoVersion, hc.Commit, hc.NProc, hc.GoVersion)
		if hb.NProc != hc.NProc || hb.GoVersion != hc.GoVersion || hb.GOGC != hc.GOGC {
			fmt.Fprintln(w, "WARNING: the two sides ran on different hosts or builds; the comparison is not same-host")
		}
	}
	for _, n := range names {
		fmt.Fprintf(w, "\n%s (%d base, %d change runs)\n", n, len(b[n]), len(c[n]))
		fmt.Fprintf(w, "  %-14s %24s %24s %6s %8s  %s\n", "metric", "base med [q1,q3]", "change med [q1,q3]", "wins", "worse", "verdict")
		var vs []string
		for _, m := range spec.EndToEnd {
			bv, cv := values(b[n], m.Name), values(c[n], m.Name)
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			cmp := compareMetric(bv, cv, m.Better, m.Bound)
			vs = append(vs, cmp.verdict)
			fmt.Fprintf(w, "  %-14s %9.4g [%5.4g,%5.4g] %9.4g [%5.4g,%5.4g] %5.0f%% %7.2f%%  %s (bound %.0f%%)\n",
				m.Name, cmp.baseMed, cmp.baseQ1, cmp.baseQ3, cmp.chgMed, cmp.chgQ1, cmp.chgQ3,
				100*cmp.wins, 100*cmp.worse, cmp.verdict, 100*m.Bound)
		}
		fmt.Fprintf(w, "  => %s: %s\n", n, rowVerdict(vs))
	}
	return nil
}
