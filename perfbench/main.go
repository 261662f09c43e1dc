// Command perfbench is the repository's benchmark: it builds the shipped
// binaries (sweep, nmtrace, nmsimd) from source, drives one of three
// workloads through them, checks every output against an in-process
// oracle, and prints the end-to-end metrics. With --trace 1 it instead
// re-enacts the workload in-process with a span around each call into a
// layer and prints the per-layer metrics.
//
//	perfbench --workload bandwidth --seed 1 --seconds 30 --trace 0
//	perfbench steady --workload all --runs 5 --seconds 30 --out runs.jsonl
//	perfbench compare base.jsonl change.jsonl
//
// The last line of a run's standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The line before it
// describes the host and build, so a number is never compared across
// machines without saying so. Run it from the repository root through
// run.sh, which keeps the build cache and all outputs inside the checkout.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run    func(r *run) error
	traced func(r *run) error
}{
	"bandwidth": {runBandwidth, tracedBandwidth},
	"record":    {runRecord, tracedRecord},
	"served":    {runServed, tracedServed},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setups is how many times every run repeats its set-up; setup_s is the
// median, so one slow build-cache check does not move it. minUnits is the
// fewest units of work a run measures, whatever its time budget, so the
// reported median always has a middle; bandwidth and served take more.
const (
	setups   = 3
	minUnits = 3
)

// env is where a run builds, writes and finds the programs.
type env struct {
	ctx  context.Context
	root string // repository checkout
	bin  string // built binaries
	work string // this run's scratch files, removed at exit
	out  string // kept outputs (span files)
}

func newEnv(ctx context.Context) (*env, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	base := filepath.Join(root, ".bench_build")
	e := &env{ctx: ctx, root: root, bin: filepath.Join(base, "bin"), out: filepath.Join(base, "spans")}
	for _, d := range []string{e.bin, e.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if e.work, err = os.MkdirTemp(base, "work-"); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) close() { os.RemoveAll(e.work) }

// build compiles the three shipped binaries from the checkout's source.
// After the first run the Go build cache makes this a staleness check,
// which setup_s then measures alongside each workload's own preparation.
func (e *env) build() error {
	cmd := exec.CommandContext(e.ctx, "go", "build", "-o", e.bin+string(filepath.Separator),
		"./cmd/sweep", "./cmd/nmtrace", "./cmd/nmsimd")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building binaries: %v\n%s", err, out)
	}
	return nil
}

// usage is what one measured unit of work cost.
type usage struct {
	wall  time.Duration // launch to exit, output fully read
	cpu   time.Duration // user plus system time of the measured processes
	rssMB float64       // peak resident set
}

// proc is one finished child process.
type proc struct {
	usage
	stdout []byte
	err    error
}

// exec runs one of the built binaries to completion.
func (e *env) exec(name string, args ...string) proc {
	cmd := exec.CommandContext(e.ctx, filepath.Join(e.bin, name), args...)
	cmd.Dir = e.work
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	p := proc{usage: usage{wall: time.Since(start)}, stdout: stdout.Bytes(), err: err}
	if err != nil {
		p.err = fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, bytes.TrimSpace(stderr.Bytes()))
	}
	if ps := cmd.ProcessState; ps != nil {
		p.cpu = ps.UserTime() + ps.SystemTime()
		p.rssMB = rssMB(ps)
	}
	return p
}

// cpuNow is the CPU time this process and its waited-for children have
// used so far.
func cpuNow() time.Duration {
	var self, kids syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	tv := func(t syscall.Timeval) time.Duration { return time.Duration(t.Nano()) }
	return tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
}

// rssMB is a finished process's peak resident set in MiB.
func rssMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// run is one execution of a workload: its inputs, its operation counts,
// the metrics it produced and the lines it reports to a reader.
type run struct {
	*env
	workload string
	seed     uint64
	seconds  time.Duration
	tr       *tracer // nil in untraced runs

	attempted, failed int
	problems          []string
	metrics           map[string]metric
	lines             []string
}

// check counts one attempted operation, failed unless ok.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 10 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

// tally counts n attempted operations of which the listed ones failed.
func (r *run) tally(n int, bad []string) {
	r.attempted += n - len(bad)
	for _, b := range bad {
		r.check(false, "%s", b)
	}
}

// checkErr counts one operation that failed iff err is non-nil.
func (r *run) checkErr(err error) {
	r.check(err == nil, "%v", err)
}

// set records a metric; its unit comes from the metric table.
func (r *run) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in the metric table")
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// more reports whether a measuring loop runs another iteration: always
// until minIter are done, then only while one more iteration as long as
// the last still ends within the run's time budget.
func more(done, minIter int, elapsed, last, budget time.Duration) bool {
	return done < minIter || elapsed+last <= budget
}

// setup repeats the run's set-up — the build, then a warm-up of the
// measured command at a small size, which pages in the binary and the
// inputs' code paths — and reports the median CPU time it took as setup_s.
func (r *run) setup(warm func() error) error {
	var ds []time.Duration
	for i := 0; i < setups; i++ {
		start := cpuNow()
		if err := r.build(); err != nil {
			return err
		}
		if err := warm(); err != nil {
			return err
		}
		ds = append(ds, cpuNow()-start)
	}
	r.set("setup_s", median(secs(ds)))
	return nil
}

// setUnits reports the measured units of work: the median CPU time and
// the median peak RSS, and lists every unit.
func (r *run) setUnits(us []usage) {
	var cpus, rss []float64
	line := "units (wall s / cpu s / peak MB):"
	for _, u := range us {
		cpus = append(cpus, u.cpu.Seconds())
		rss = append(rss, u.rssMB)
		line += fmt.Sprintf(" %.3f/%.3f/%.0f", u.wall.Seconds(), u.cpu.Seconds(), u.rssMB)
	}
	r.printf("%s", line)
	r.set("cpu_s", median(cpus))
	r.set("peak_rss_mb", median(rss))
}

func lastWall(us []usage) time.Duration {
	if len(us) == 0 {
		return 0
	}
	return us[len(us)-1].wall
}

// latencyLine formats a latency distribution as its median and the highest
// percentile with at least ten samples beyond it, with the sample count.
func latencyLine(name string, ds []time.Duration) string {
	v := ms(ds)
	line := fmt.Sprintf("%-14s n=%-5d p50 %9.3f ms", name, len(v), median(v))
	if p, ok := tailPercentile(len(v)); ok {
		line += fmt.Sprintf("  %-5s %9.3f ms", percentileName(p), percentile(v, p))
	}
	return line
}

// host describes the machine and build a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Commit     string `json:"commit"`
}

func hostInfo(root string) host {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc,
		GoVersion: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH,
		Commit: commitID(root),
	}
}

// commitID names the measured code by its git commit, or "unknown".
func commitID(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// execute runs one workload and returns its result.
func execute(e *env, workload string, seed uint64, seconds time.Duration, traced bool) (result, []string, error) {
	w, ok := workloads[workload]
	if !ok {
		return result{}, nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames(), ", "))
	}
	r := &run{env: e, workload: workload, seed: seed, seconds: seconds, metrics: map[string]metric{}}
	fn := w.run
	if traced {
		r.tr = newTracer()
		fn = w.traced
	}
	if err := fn(r); err != nil {
		return result{}, r.lines, err
	}
	if traced {
		spans := r.tr.snapshot()
		if err := writeSpans(filepath.Join(e.out, fmt.Sprintf("%s-%d.json", workload, seed)), spans); err != nil {
			return result{}, r.lines, err
		}
		r.printSelfTimes(spans)
	}
	for _, p := range r.problems {
		r.lines = append(r.lines, "FAILED: "+p)
	}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	for _, s := range specs {
		if _, ok := r.metrics[s.name]; !ok {
			return result{}, r.lines, fmt.Errorf("%s run produced no %s", workload, s.name)
		}
	}
	return result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}, r.lines, nil
}

// runTimeout bounds a whole run; a cold first build can take minutes.
const runTimeout = 14 * time.Minute

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			os.Exit(steadyMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		}
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

func runMain(args []string, stdout io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fset.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fset.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fset.Int("seconds", 30, "measuring time budget per run, in seconds")
	traceFlag := fset.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	e, err := newEnv(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer e.close()
	res, lines, err := execute(e, *workload, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := printResult(stdout, hostInfo(e.root), res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// printResult prints the metrics table, the host line and, last, the
// result object.
func printResult(w io.Writer, h host, res result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed (error_rate %.4g)\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	hb, err := json.Marshal(h)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host: %s\n", hb)
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", rb)
	return err
}

// errMismatch marks an output that differs from its oracle.
var errMismatch = errors.New("output differs from the in-process oracle")
