package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// record is one run as steadiness mode saves it and compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Host     host   `json:"host"`
	Result   result `json:"result"`
}

// steadyMain runs each workload k times, one seed after another, prints
// each metric's median, quartiles and spreads, and optionally saves every
// run as one JSON line for compare.
func steadyMain(args []string) int {
	fset := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	workload := fset.String("workload", "all", "workload, or all")
	runs := fset.Int("runs", 5, "runs per workload")
	seed := fset.Uint64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fset.Int("seconds", 30, "measuring time budget per run, in seconds")
	out := fset.String("out", "", "append every run to this JSON-lines file")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	}
	var sink io.Writer = io.Discard
	if *out != "" {
		f, err := os.OpenFile(*out, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		defer w.Flush()
		sink = w
	}
	status := 0
	for _, name := range names {
		var recs []record
		for i := 0; i < *runs; i++ {
			rec, err := steadyRun(name, *seed+uint64(i), *seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", name, *seed+uint64(i), err)
				return 1
			}
			if !rec.Result.Correct {
				status = 1
			}
			b, _ := json.Marshal(rec)
			fmt.Fprintf(sink, "%s\n", b)
			recs = append(recs, rec)
			fmt.Fprintf(os.Stderr, "%s seed %d done\n", name, rec.Seed)
		}
		printSpreads(os.Stdout, name, recs)
	}
	return status
}

// steadyRun runs one workload untraced in a fresh process of this
// program, as a driver-launched run is: a child's peak RSS from rusage includes the
// launching process's own high-water mark, so a long-lived parent that
// had run earlier workloads would inflate it.
func steadyRun(name string, seed uint64, seconds int) (record, error) {
	self, err := os.Executable()
	if err != nil {
		return record{}, err
	}
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	rec := record{Workload: name, Seed: seed}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		return rec, fmt.Errorf("no result (%v)", runErr)
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], "host: ")), &rec.Host); err != nil {
		return rec, fmt.Errorf("host line: %w", err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
		return rec, fmt.Errorf("result line: %w", err)
	}
	return rec, nil
}

// printSpreads prints, per metric, the median, the quartiles, the
// interquartile spread and the full range as shares of the median.
func printSpreads(w io.Writer, workload string, recs []record) {
	fmt.Fprintf(w, "%s: %d runs\n", workload, len(recs))
	fmt.Fprintf(w, "  %-32s %12s %12s %12s %9s %9s\n", "metric", "median", "q1", "q3", "iqr/med", "range/med")
	for _, name := range metricNames(recs) {
		v := values(recs, name)
		q1, q2, q3 := quartiles(v)
		s := sorted(v)
		fmt.Fprintf(w, "  %-32s %12.6g %12.6g %12.6g %8.2f%% %8.2f%%\n", name, q2, q1, q3,
			100*share(q3-q1, q2), 100*share(s[len(s)-1]-s[0], q2))
	}
}

// share is d as a fraction of base, 0 when base is 0.
func share(d, base float64) float64 {
	if base == 0 {
		return 0
	}
	return math.Abs(d / base)
}

// metricNames lists the metrics of the records in table order.
func metricNames(recs []record) []string {
	var names []string
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		for _, r := range recs {
			if _, ok := r.Result.Metrics[s.name]; ok {
				names = append(names, s.name)
				break
			}
		}
	}
	return names
}

// values collects one metric across records, in record order.
func values(recs []record, name string) []float64 {
	var v []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// readRecords loads a JSON-lines result set.
func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	for i, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}
