package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/units"
)

// The served workload runs an nmsimd daemon with two workers and drives it
// with two closed-loop clients, each waiting for its reply before sending
// the next request, as sweep -server and nmsim -server callers do. Traces
// are small (2^16 keys, 64 threads), so the working set and ns/event differ
// from bandwidth. Each cycle boots a fresh daemon, then:
//
//	set-up  upload v3 bytes of gnusort and nmsort under two seeds
//	        (replayed through the columnar cursor)
//	cold    record both algorithms under two other seeds on the server
//	        (replayed through the decoded-slice cursor)
//	miss    run every cell once: 8 traces x near channels {8,16,32} x
//	        cores {64,128} x fault {off, 1e-6} = 96 first-time jobs
//	hit     1000 seeded repeats of completed cells, answered from the
//	        result cache; only the serving layer works here
//
// The daemon's CPU time is taken per phase, so each phase's share of the
// cycle's cpu_s is printed with the result.
const (
	srvKeys    = 1 << 16
	srvThreads = 64
	srvSPMiB   = 8
	srvClients = 2
	srvWorkers = 2
	srvHits    = 1000 // per cycle, split across the clients: ~10 per cell, and a hit p99 with 10 samples beyond it
	srvOracle  = 4    // miss bodies re-derived in-process per cycle
	srvFault   = 1e-6

	// One cycle's daemon CPU time moves by up to ±8% from the next on a
	// shared two-vCPU host, more than one sweep's does, so a run takes the
	// median of at least four cycles.
	srvMinCycles = 4
)

// traceSpec is one trace of a cycle: an algorithm under an input seed.
type traceSpec struct {
	Alg  harness.Algorithm
	Seed uint64
}

// cellSpec is one replay job against trace Trace of the plan.
type cellSpec struct {
	Trace     int
	Cores     int
	Channels  int
	FaultRate float64
}

// servedPlan is the seeded job sequence of a cycle. Traces 0..3 are
// uploaded, 4..7 recorded on the server.
type servedPlan struct {
	Traces    []traceSpec
	Cells     []cellSpec // miss phase, in issue order
	Hits      [][]int    // per client: cell indices, in issue order
	Oracle    []int      // cells re-derived in-process
	FaultSeed uint64
}

const uploadedTraces = 4

// splitmix is a small seeded generator for the job sequence.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// planServed derives a cycle's whole job sequence from the seed.
func planServed(seed uint64) servedPlan {
	rng := splitmix(seed)
	var p servedPlan
	for i := 0; i < 4; i++ {
		s := rng.next()
		p.Traces = append(p.Traces, traceSpec{harness.AlgGNUSort, s}, traceSpec{harness.AlgNMSort, s})
	}
	p.FaultSeed = rng.next() | 1
	for t := range p.Traces {
		for _, cores := range []int{64, 128} {
			for _, ch := range []int{8, 16, 32} {
				for _, fr := range []float64{0, srvFault} {
					p.Cells = append(p.Cells, cellSpec{t, cores, ch, fr})
				}
			}
		}
	}
	for i := len(p.Cells) - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		p.Cells[i], p.Cells[j] = p.Cells[j], p.Cells[i]
	}
	p.Hits = make([][]int, srvClients)
	for i := 0; i < srvHits; i++ {
		p.Hits[i%srvClients] = append(p.Hits[i%srvClients], rng.intn(len(p.Cells)))
	}
	for i := 0; i < srvOracle; i++ {
		p.Oracle = append(p.Oracle, rng.intn(len(p.Cells)))
	}
	return p
}

func (p *servedPlan) workload(t int) harness.Workload {
	return harness.Workload{N: srvKeys, Seed: p.Traces[t].Seed, Threads: srvThreads, SP: srvSPMiB * units.MiB}
}

func (p *servedPlan) job(digest string, c cellSpec) serve.JobRequest {
	req := serve.JobRequest{TraceDigest: digest, Cores: c.Cores, NearChannels: c.Channels, SPMiB: srvSPMiB}
	if c.FaultRate > 0 {
		req.FaultSeed, req.FaultRate = p.FaultSeed, c.FaultRate
	}
	return req
}

// daemon is a running nmsimd subprocess.
type daemon struct {
	cmd    *exec.Cmd
	client *serve.Client
	http   *http.Client
}

// startDaemon boots nmsimd on a free port and waits until /v1/stats
// answers.
func (r *run) startDaemon() (*daemon, error) {
	logPath := filepath.Join(r.work, "nmsimd.out")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.CommandContext(r.ctx, filepath.Join(r.bin, "nmsimd"), "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(srvWorkers))
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd}
	deadline := time.Now().Add(30 * time.Second)
	for {
		out, _ := os.ReadFile(logPath)
		if i := bytes.Index(out, []byte("listening on ")); i >= 0 {
			if line, _, ok := strings.Cut(string(out[i+len("listening on "):]), "\n"); ok {
				d.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: srvClients}}
				d.client = &serve.Client{BaseURL: "http://" + line, HTTP: d.http}
				break
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("nmsimd did not start: %s", out)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for {
		if _, err := d.client.Stats(r.ctx); err == nil {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("nmsimd never answered /v1/stats")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, killing it if it has not exited
// within ten seconds, and returns its peak RSS. The peak is the kernel's
// VmHWM of the daemon's own address space, read just before the signal:
// rusage would also count the launching process's high-water mark.
func (d *daemon) stop() (float64, error) {
	if d.http != nil {
		d.http.CloseIdleConnections()
	}
	peak, hwmErr := vmHWM(d.cmd.Process.Pid)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.cmd.Process.Kill()
	}
	t := time.AfterFunc(10*time.Second, func() { d.cmd.Process.Kill() })
	err := d.cmd.Wait()
	t.Stop()
	if err != nil {
		return peak, fmt.Errorf("nmsimd exit: %w", err)
	}
	return peak, hwmErr
}

// procCPU is the time a live process's threads have spent running, summed
// from /proc/<pid>/task/*/schedstat (nanoseconds, so short phases are not
// quantized to scheduler ticks). Stolen time is not run time.
func procCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for process %d: %v", pid, err)
	}
	var sum time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s", t)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// vmHWM reads a live process's peak resident set, in MiB.
func vmHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// servedInputs are the v3 bytes a cycle uploads, generated in-process from
// the plan's upload seeds.
type servedInputs struct {
	v3      [][]byte
	digests []uint64
	ops     int
}

func (r *run) servedInputs(p *servedPlan, parent int) (servedInputs, error) {
	var in servedInputs
	for t := 0; t < uploadedTraces; t++ {
		var res harness.RecordResult
		var err error
		r.tr.do("harness.Record", parent, func() { res, err = harness.Record(p.Traces[t].Alg, p.workload(t)) })
		if err != nil {
			return in, err
		}
		var data []byte
		r.tr.do("trace.EncodeColumnar", parent, func() { data, err = trace.EncodeColumnar(res.Trace) })
		if err != nil {
			return in, err
		}
		d, err := res.Trace.Digest()
		if err != nil {
			return in, err
		}
		in.v3 = append(in.v3, data)
		in.digests = append(in.digests, d)
		in.ops += res.Trace.Ops()
	}
	return in, nil
}

// cycle is what one served cycle measured.
type cycle struct {
	setup, phases             time.Duration    // wall; phases = cold, miss and hit
	setupCPU                  time.Duration    // driver, its children and the daemon
	phaseCPU                  [3]time.Duration // daemon only: cold, miss, hit
	rssMB                     float64
	record, upload, miss, hit []time.Duration // latencies; miss is per cell
	stats                     serve.Stats
	missBodies                [][]byte // per cell
	respBytes                 int64
	recordedOps               int // ops of the traces set-up recorded
}

// servedSetup builds the binaries, generates the upload inputs, boots the
// daemon and uploads. The returned digests index the plan's traces.
func (r *run) servedSetup(p *servedPlan, c *cycle, root int) (*daemon, []string, error) {
	start, startCPU := time.Now(), cpuNow()
	if err := r.build(); err != nil {
		return nil, nil, err
	}
	in, err := r.servedInputs(p, root)
	if err != nil {
		return nil, nil, err
	}
	c.recordedOps = in.ops
	d, err := r.startDaemon()
	if err != nil {
		return nil, nil, err
	}
	digests := make([]string, len(p.Traces))
	for t := 0; t < uploadedTraces; t++ {
		var info serve.TraceInfo
		t0 := time.Now()
		r.tr.do("serve.Client.UploadTraceBytes", root, func() { info, err = d.client.UploadTraceBytes(r.ctx, in.v3[t]) })
		c.upload = append(c.upload, time.Since(t0))
		want := fmt.Sprintf("%016x", in.digests[t])
		r.check(err == nil && info.Digest == want, "upload %d: digest %q (%v), want %s", t, info.Digest, err, want)
		digests[t] = want
	}
	c.setup = time.Since(start)
	dc, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		d.stop()
		return nil, nil, err
	}
	c.setupCPU = cpuNow() - startCPU + dc
	return d, digests, nil
}

// servedCycle runs one cycle on a fresh daemon. Traced runs put a span
// around each client call, under one root span per cycle.
func (r *run) servedCycle(p *servedPlan) (cycle, error) {
	var c cycle
	root := 0
	if r.tr != nil {
		root = r.tr.begin("served.cycle", 0)
		defer r.tr.end(root)
	}
	d, digests, err := r.servedSetup(p, &c, root)
	if err != nil {
		return c, err
	}
	pool := par.NewPool(srvClients)
	defer pool.Close()

	// cold: records split across the clients.
	recTraces := len(p.Traces) - uploadedTraces
	recLat := make([]time.Duration, recTraces)
	recErr := make([]error, recTraces)
	var cpu [4]time.Duration // daemon CPU at each phase boundary
	cpu[0], err = procCPU(d.cmd.Process.Pid)
	r.checkErr(err)
	start := time.Now()
	pool.Do(func(k int) {
		for i := k; i < recTraces; i += srvClients {
			t := uploadedTraces + i
			req := serve.RecordRequest{Alg: string(p.Traces[t].Alg), N: srvKeys, Seed: p.Traces[t].Seed, Threads: srvThreads, SPMiB: srvSPMiB}
			var info serve.TraceInfo
			t0 := time.Now()
			r.tr.do("serve.Client.Record", root, func() { info, recErr[i] = d.client.Record(r.ctx, req) })
			recLat[i] = time.Since(t0)
			digests[t] = info.Digest
		}
	})
	cpu[1], err = procCPU(d.cmd.Process.Pid)
	r.checkErr(err)
	for _, err := range recErr {
		r.checkErr(err)
	}

	// miss: every cell once, pulled from a shared queue.
	n := len(p.Cells)
	c.missBodies = make([][]byte, n)
	c.miss = make([]time.Duration, n)
	missErr := make([]error, n)
	var next atomic.Int64
	pool.Do(func(int) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			t0 := time.Now()
			var hit bool
			r.tr.do("serve.Client.SubmitJob.miss", root, func() {
				c.missBodies[i], _, hit, missErr[i] = d.client.SubmitJob(r.ctx, p.job(digests[p.Cells[i].Trace], p.Cells[i]))
			})
			c.miss[i] = time.Since(t0)
			if missErr[i] == nil && hit {
				missErr[i] = fmt.Errorf("cell %d: first request answered from the cache", i)
			}
		}
	})
	cpu[2], err = procCPU(d.cmd.Process.Pid)
	r.checkErr(err)
	for _, err := range missErr {
		r.checkErr(err)
	}

	// hit: seeded repeats of completed cells; each body must equal the
	// cell's miss body byte for byte.
	hitLat := make([][]time.Duration, srvClients)
	hitBad := make([][]string, srvClients)
	hitBytes := make([]int64, srvClients)
	pool.Do(func(k int) {
		for _, i := range p.Hits[k] {
			t0 := time.Now()
			var body []byte
			var hit bool
			var err error
			r.tr.do("serve.Client.SubmitJob.hit", root, func() {
				body, _, hit, err = d.client.SubmitJob(r.ctx, p.job(digests[p.Cells[i].Trace], p.Cells[i]))
			})
			hitLat[k] = append(hitLat[k], time.Since(t0))
			hitBytes[k] += int64(len(body))
			switch {
			case err != nil:
				hitBad[k] = append(hitBad[k], err.Error())
			case !hit || !bytes.Equal(body, c.missBodies[i]):
				hitBad[k] = append(hitBad[k], fmt.Sprintf("cell %d: cached answer (hit=%v) differs from its miss body", i, hit))
			}
		}
	})
	c.phases = time.Since(start)
	cpu[3], err = procCPU(d.cmd.Process.Pid)
	r.checkErr(err)
	for i := range c.phaseCPU {
		c.phaseCPU[i] = cpu[i+1] - cpu[i]
	}
	for k := range hitBad {
		r.tally(len(p.Hits[k]), hitBad[k])
		c.hit = append(c.hit, hitLat[k]...)
		c.respBytes += hitBytes[k]
	}
	for _, b := range c.missBodies {
		c.respBytes += int64(len(b))
	}
	c.record = recLat

	c.stats, err = d.client.Stats(r.ctx)
	r.checkErr(err)
	c.rssMB, err = d.stop()
	r.checkErr(err)

	r.servedOracle(p, digests, &c)
	return c, nil
}

// servedOracle re-derives a seeded sample of miss bodies in-process with
// Supervisor.ReplayCell and checks the recorded traces' digests.
func (r *run) servedOracle(p *servedPlan, digests []string, c *cycle) {
	for _, i := range p.Oracle {
		cell := p.Cells[i]
		src, digest, err := p.source(cell.Trace)
		if err != nil {
			r.checkErr(err)
			continue
		}
		r.check(digests[cell.Trace] == digest, "trace %d: server digest %q, want %s", cell.Trace, digests[cell.Trace], digest)
		want, err := replayBody(p, cell, src)
		if err != nil {
			r.checkErr(err)
			continue
		}
		r.check(bytes.Equal(want, c.missBodies[i]), "cell %d: miss body differs from in-process ReplayCell", i)
	}
}

// source rebuilds trace t of the plan in-process: columnar bytes for an
// uploaded trace (as the server stores it), a decoded trace for a recorded
// one. It returns the source and its digest.
func (p *servedPlan) source(t int) (trace.Source, string, error) {
	res, err := harness.Record(p.Traces[t].Alg, p.workload(t))
	if err != nil {
		return nil, "", err
	}
	var src trace.Source = res.Trace
	if t < uploadedTraces {
		data, err := trace.EncodeColumnar(res.Trace)
		if err != nil {
			return nil, "", err
		}
		if src, err = trace.OpenBytes(data); err != nil {
			return nil, "", err
		}
	}
	d, err := src.Digest()
	return src, fmt.Sprintf("%016x", d), err
}

// cellConfig is the node a job request selects, as the server builds it.
func (p *servedPlan) cellConfig(c cellSpec) machine.Config {
	cfg := harness.NodeFor(c.Cores, c.Channels, srvSPMiB*units.MiB)
	if c.FaultRate > 0 {
		cfg.Fault = fault.Profile(p.FaultSeed, c.FaultRate)
	}
	return cfg
}

// replayBody is the job response the server must send for a cell.
func replayBody(p *servedPlan, c cellSpec, src trace.Source) ([]byte, error) {
	sup := &harness.Supervisor{}
	key, out, err := sup.ReplayCell(p.cellConfig(c), src, "")
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(serve.JobResponse{
		TraceKey:  fmt.Sprintf("%016x", key.Trace),
		ConfigKey: fmt.Sprintf("%016x", key.Config),
		MemFault:  out.MemFault,
		Attempts:  out.Attempts,
		Result:    out.Result,
	})
	return append(b, '\n'), err
}

func runServed(r *run) error {
	p := planServed(r.seed)
	var cycles []cycle
	var elapsed time.Duration
	for i := 0; more(i, srvMinCycles, elapsed, lastCycle(cycles), r.seconds); i++ {
		c, err := r.servedCycle(&p)
		if err != nil {
			return err
		}
		cycles = append(cycles, c)
		elapsed += c.setup + c.phases
	}
	var setup []float64
	var us []usage
	var phaseCPU [3][]float64
	var rec, up, miss, hit []time.Duration
	for _, c := range cycles {
		setup = append(setup, c.setupCPU.Seconds())
		us = append(us, usage{wall: c.phases, cpu: c.phaseCPU[0] + c.phaseCPU[1] + c.phaseCPU[2], rssMB: c.rssMB})
		for i, d := range c.phaseCPU {
			phaseCPU[i] = append(phaseCPU[i], d.Seconds())
		}
		rec, up = append(rec, c.record...), append(up, c.upload...)
		miss, hit = append(miss, c.miss...), append(hit, c.hit...)
	}
	r.set("setup_s", median(setup))
	r.setUnits(us)
	r.printf("served: %d cycles; per cycle %d uploads, %d records, %d misses, %d hits; %d clients, %d workers",
		len(cycles), uploadedTraces, len(p.Traces)-uploadedTraces, len(p.Cells), srvHits, srvClients, srvWorkers)
	r.printf("daemon cpu s per phase (median of cycles): cold %.3f, miss %.3f, hit %.3f",
		median(phaseCPU[0]), median(phaseCPU[1]), median(phaseCPU[2]))
	for _, l := range []struct {
		name string
		ds   []time.Duration
	}{{"upload_ms", up}, {"record_ms", rec}, {"miss_ms", miss}, {"hit_ms", hit}} {
		r.printf("%s", latencyLine(l.name, l.ds))
	}
	st := cycles[len(cycles)-1].stats
	r.printf("last cycle /v1/stats: cache hits %d misses %d, rejected %d, store %d B heap + %d B mapped",
		st.CacheHits, st.CacheMisses, st.JobsRejected, st.TraceBytes, st.TraceMappedBytes)
	return nil
}

func lastCycle(cs []cycle) time.Duration {
	if len(cs) == 0 {
		return 0
	}
	c := cs[len(cs)-1]
	return c.setup + c.phases
}

// tracedServed runs one untraced cycle for reference and one traced cycle
// with a span around every client call, then replays the oracle cells
// in-process to split each miss into replay and serving overhead, and
// probes the trace and replay-kernel layers at the served shape.
func tracedServed(r *run) error {
	p := planServed(r.seed)
	tr := r.tr
	r.tr = nil
	ref, err := r.servedCycle(&p)
	r.tr = tr
	if err != nil {
		return err
	}
	c, err := r.servedCycle(&p)
	if err != nil {
		return err
	}
	untraced, traced := ref.phases.Seconds(), c.phases.Seconds()

	repl := &replaySpans{tr: r.tr}
	var overhead []float64
	for _, i := range p.Oracle {
		cell := p.Cells[i]
		src, _, err := p.source(cell.Trace)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := repl.run(0, p.cellConfig(cell), src); err != nil {
			return err
		}
		overhead = append(overhead, float64(c.miss[i]-time.Since(start))/float64(time.Millisecond))
	}
	repl.set(r)
	// The kernel probes use the first server-recorded nmsort trace.
	kt := uploadedTraces + 1
	res, err := harness.Record(p.Traces[kt].Alg, p.workload(kt))
	if err != nil {
		return err
	}
	cfg := harness.NodeFor(srvThreads, 16, srvSPMiB*units.MiB)
	want, err := r.probeAllocs(cfg, res.Trace, nil)
	if err != nil {
		return err
	}
	if err := r.probeReadSide(res.Trace, cfg, &want); err != nil {
		return err
	}
	r.probeKernel(res.Trace, cfg)
	r.probeCore(p.workload(kt), recAlgs)
	r.setRecordMetrics(c.recordedOps)
	digest, err := res.Trace.Digest()
	if err != nil {
		return err
	}
	flow := r.tr.begin("trace.flow", 0)
	b2, b3, err := r.serializeFlow(flow, res.Trace, digest)
	r.tr.end(flow)
	if err != nil {
		return err
	}
	r.setSerializationMetrics(flow, b2, b3)

	st := c.stats
	r.set("serve.record_ms", median(ms(c.record)))
	r.set("serve.upload_ms", median(ms(c.upload)))
	r.set("serve.miss_ms", median(ms(c.miss)))
	r.set("serve.hit_ms", median(ms(c.hit)))
	r.set("serve.miss_overhead_ms", median(overhead))
	r.set("serve.cache_hit_ratio", ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses)))
	r.set("serve.rejected", float64(st.JobsRejected))
	r.set("serve.store_bytes", float64(st.TraceBytes+st.TraceMappedBytes))
	r.set("serve.response_bytes", ratio(float64(c.respBytes), float64(len(c.miss)+len(c.hit))))
	r.set("bench.trace_overhead_pct", 100*(traced-untraced)/untraced)
	r.zero(sweepOnly...)
	r.printf("served traced: untraced phases %.3f s, traced %.3f s", untraced, traced)
	return nil
}
