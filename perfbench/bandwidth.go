package main

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/units"
)

// The bandwidth workload is claim C1 as a user runs it: one sweep process
// records gnusort and nmsort once and replays each on 2X/4X/8X near
// memory. Replay (engine, machine, cachesim, the device models and the
// slice cursor) does most of the work. -par 1 keeps one busy thread, so
// the time measures the kernel rather than the scheduler.
const (
	bwKeys  = 1 << 18
	bwCores = 256
	bwSPMiB = 8
	bwCells = 6

	warmKeys = 1 << 14 // warm-up size of set-up runs

	// A sweep's peak RSS moves by up to ±8% from one run of the same seed
	// to the next with GC timing, so a run takes the median of at least
	// five sweeps.
	bwMinSweeps = 5
)

func bandwidthWorkload(seed uint64) harness.Workload {
	return harness.Workload{N: bwKeys, Seed: seed, Threads: bwCores,
		SP: bwSPMiB * units.MiB, Par: 1, Sup: &harness.Supervisor{}}
}

func sweepArgs(keys int, seed uint64) []string {
	return []string{"-exp=bandwidth", "-n", strconv.Itoa(keys), "-cores", strconv.Itoa(bwCores),
		"-sp", strconv.Itoa(bwSPMiB), "-par", "1", "-seed", strconv.FormatUint(seed, 10)}
}

func runBandwidth(r *run) error {
	if err := r.setup(func() error { return r.exec("sweep", sweepArgs(warmKeys, r.seed)...).err }); err != nil {
		return err
	}
	var us []usage
	var outs [][]byte
	var elapsed time.Duration
	for i := 0; more(i, bwMinSweeps, elapsed, lastWall(us), r.seconds); i++ {
		p := r.exec("sweep", sweepArgs(bwKeys, r.seed)...)
		r.checkErr(p.err)
		us = append(us, p.usage)
		outs = append(outs, p.stdout)
		elapsed += p.wall
	}
	want, err := bandwidthOracle(r.seed)
	if err != nil {
		return err
	}
	for i, out := range outs {
		r.check(bytes.Equal(out, want), "sweep run %d: %v", i, errMismatch)
	}
	r.printf("bandwidth: %d sweeps of %d cells, N=%d, %d cores, -par 1", len(us), bwCells, bwKeys, bwCores)
	r.setUnits(us)
	return nil
}

// bandwidthOracle renders the same sweep in-process.
func bandwidthOracle(seed uint64) ([]byte, error) {
	s, err := harness.BandwidthSweep(bandwidthWorkload(seed))
	if err != nil {
		return nil, fmt.Errorf("in-process bandwidth sweep: %w", err)
	}
	return []byte(s.String()), nil
}

// tracedBandwidth runs the sweep CLI once as the oracle, then re-enacts
// the sweep in-process from its public parts — two records, six cells
// through Supervisor.ReplayCell as the CLI replays them, one render —
// twice: once untraced and once with a span around each call. The two
// re-enactments give bench.trace_overhead_pct. Then it probes the layers
// beneath replay on the recorded traces.
func tracedBandwidth(r *run) error {
	if err := r.build(); err != nil {
		return err
	}
	ref := r.exec("sweep", sweepArgs(bwKeys, r.seed)...)
	r.checkErr(ref.err)

	tr := r.tr
	r.tr = nil
	start := time.Now()
	plain, err := r.reenactBandwidth(&replaySpans{})
	untraced := time.Since(start)
	r.tr = tr
	if err != nil {
		return err
	}
	repl := &replaySpans{tr: r.tr}
	s, err := r.reenactBandwidth(repl)
	if err != nil {
		return err
	}
	for _, out := range []string{plain.rendered, s.rendered} {
		r.check(ref.err == nil && out == string(ref.stdout), "re-enacted sweep: %v", errMismatch)
	}

	self := selfTimes(r.tr.snapshot())
	traced := r.tr.total("harness.BandwidthSweep", 0)
	r.setRecordMetrics(s.traces[0].Ops() + s.traces[1].Ops())
	repl.set(r)
	r.set("harness.sweep_overhead_s", (self["harness.BandwidthSweep"] + self["harness.Supervisor.ReplayCell"]).Seconds())
	r.set("report.render_ms", ms(r.tr.durations("report.Render", anyParent))[0])
	r.set("bench.trace_overhead_pct", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds())

	cfg := harness.NodeFor(bwCores, 16, bwSPMiB*units.MiB)
	want := s.sweep.Points[3].Result // nmsort@4X
	if _, err := r.probeAllocs(cfg, s.traces[1], &want); err != nil {
		return err
	}
	r.probeCore(bandwidthWorkload(r.seed), []harness.Algorithm{harness.AlgGNUSort, harness.AlgNMSort})
	if err := r.probeReadSide(s.traces[1], cfg, &want); err != nil {
		return err
	}
	r.probeKernel(s.traces[1], cfg)
	r.zero(recordSideOnly...)
	r.zero(serveOnly...)
	r.printf("bandwidth traced: CLI sweep %.3f s wall; re-enacted untraced %.3f s, traced %.3f s",
		ref.wall.Seconds(), untraced.Seconds(), traced.Seconds())
	return nil
}

// reenacted is one in-process re-enactment of the bandwidth sweep.
type reenacted struct {
	sweep    harness.Sweep
	rendered string
	traces   [2]*trace.Trace
}

// reenactBandwidth rebuilds the sweep the way cmd/sweep runs it, under one
// root span (none when r.tr is nil). Each cell goes through the
// supervisor's public ReplayCell; repl sits in as its cell cache to time
// the replay inside it.
func (r *run) reenactBandwidth(repl *replaySpans) (reenacted, error) {
	var out reenacted
	w := bandwidthWorkload(r.seed)
	w.Sup.Ctx = r.ctx
	w.Sup.Cache = repl
	root := r.tr.begin("harness.BandwidthSweep", 0)
	for i, alg := range []harness.Algorithm{harness.AlgGNUSort, harness.AlgNMSort} {
		var res harness.RecordResult
		var err error
		r.tr.do("harness.Record", root, func() { res, err = harness.Record(alg, w) })
		if err != nil {
			return out, err
		}
		out.traces[i] = res.Trace
	}
	out.sweep.Title = fmt.Sprintf("Bandwidth sweep, N=%d keys, %d cores", w.N, w.Threads)
	for _, ch := range []int{8, 16, 32} {
		for i, name := range []string{"gnusort", "nmsort"} {
			cfg := harness.NodeFor(w.Threads, ch, w.SP)
			label := fmt.Sprintf("%s@%dX", name, ch/4)
			var cell harness.CellOutcome
			var err error
			id := r.tr.begin("harness.Supervisor.ReplayCell", root)
			repl.parent = id
			_, cell, err = w.Sup.ReplayCell(cfg, out.traces[i], label)
			r.tr.end(id)
			if err != nil {
				return out, err
			}
			out.sweep.Points = append(out.sweep.Points, harness.SweepPoint{Label: label,
				Cores: w.Threads, Rho: cfg.BandwidthExpansion(), Result: cell.Result})
		}
	}
	r.tr.do("report.Render", root, func() { out.rendered = out.sweep.String() })
	r.tr.end(root)
	return out, nil
}

// replaySpans is a cell cache that never holds a cell. The supervisor
// looks a cell up just before it replays it and completes it just after,
// so the span between the two calls is the supervised replay itself
// (machine.New and ReplaySliced with its pauses), without the keying
// around it. A nil tracer only sums the time and events.
type replaySpans struct {
	tr     *tracer
	parent int
	open   int
	start  time.Time
	wall   time.Duration
	events uint64
}

func (c *replaySpans) Lookup(harness.CellKey) (harness.CellOutcome, bool) {
	c.open = c.tr.begin("machine.ReplaySliced", c.parent)
	c.start = time.Now()
	return harness.CellOutcome{}, false
}

func (c *replaySpans) Complete(_ harness.CellKey, cell harness.CellOutcome) error {
	c.wall += time.Since(c.start)
	c.tr.end(c.open)
	c.events += cell.Result.Events
	return nil
}

// run times one unsupervised machine.Run in a span under parent.
func (c *replaySpans) run(parent int, cfg machine.Config, src trace.Source) (machine.Result, error) {
	var res machine.Result
	var err error
	start := time.Now()
	c.tr.do("machine.Run", parent, func() { res, err = machine.Run(cfg, src) })
	c.wall += time.Since(start)
	c.events += res.Events
	return res, err
}

func (c *replaySpans) set(r *run) {
	r.set("machine.replay_s", c.wall.Seconds())
	r.set("machine.events", float64(c.events))
	r.set("machine.ns_per_event", ratio(float64(c.wall.Nanoseconds()), float64(c.events)))
}

// probeAllocs replays one cell outside any span, reports the heap
// allocations machine.Run makes per event and returns the result. want,
// when set, is the same cell's result from the workload: the two must
// agree.
func (r *run) probeAllocs(cfg machine.Config, src trace.Source, want *machine.Result) (machine.Result, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := machine.Run(cfg, src)
	runtime.ReadMemStats(&after)
	if err != nil {
		return res, err
	}
	if want != nil {
		r.check(reflect.DeepEqual(res, *want), "probe replay differs from the workload's replay of the same cell")
	}
	r.set("machine.allocs_per_event", ratio(float64(after.Mallocs-before.Mallocs), float64(res.Events)))
	return res, nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
