package main

import (
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/addr"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/spmem"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// The probes below time one layer at a time on a recorded trace of the
// workload's own shape. They run outside the re-enacted workload's root
// span, so they never count toward bench.trace_overhead_pct.

// setRecordMetrics reports the harness.Record spans against the ops they
// recorded.
func (r *run) setRecordMetrics(ops int) {
	rec := r.tr.total("harness.Record", anyParent)
	r.set("trace.record_s", rec.Seconds())
	r.set("trace.ops", float64(ops))
	r.set("trace.record_ns_per_op", ratio(float64(rec.Nanoseconds()), float64(ops)))
}

// probeCore runs each algorithm's sort in pure mode (no recorder), the
// part of a record that is the sort itself.
func (r *run) probeCore(w harness.Workload, algs []harness.Algorithm) {
	for _, alg := range algs {
		env := core.NewEnv(w.Threads, w.SP, nil, w.Seed)
		a := env.AllocFar(w.N)
		workload.Fill(a.D, workload.Uniform, w.Seed^0xDA7A)
		sum := core.Checksum(a.D)
		switch alg {
		case harness.AlgGNUSort:
			r.tr.do("core.GNUSort", 0, func() { core.GNUSort(env, a) })
		default:
			r.tr.do("core.NMSort", 0, func() { core.NMSort(env, a, core.NMOptions{Buckets: w.Buckets}) })
		}
		r.check(core.IsSorted(a.D) && core.Checksum(a.D) == sum, "pure-mode %s left its input unsorted", alg)
	}
	r.set("core.sort_s", (r.tr.total("core.GNUSort", 0) + r.tr.total("core.NMSort", 0)).Seconds())
}

// cursorPass walks every op of every thread once and returns ns per op.
func cursorPass(src trace.Source) (float64, error) {
	start := time.Now()
	for t := 0; t < src.Threads(); t++ {
		cur := src.CursorAt(t)
		for cur.Next() {
		}
		if err := cur.Err(); err != nil {
			return 0, err
		}
	}
	d := time.Since(start)
	return ratio(float64(d.Nanoseconds()), float64(src.Ops())), nil
}

// medianPass repeats a cursor pass three times and keeps the median.
func medianPass(name string, tr *tracer, src trace.Source) (float64, error) {
	var ns []float64
	for i := 0; i < 3; i++ {
		var v float64
		var err error
		tr.do(name, 0, func() { v, err = cursorPass(src) })
		if err != nil {
			return 0, err
		}
		ns = append(ns, v)
	}
	return median(ns), nil
}

// probeReadSide times both cursor forms over the same trace and replays
// one cell from the columnar file opened with trace.Open. want, when set,
// is the same cell's result from the decoded trace: the two must agree.
func (r *run) probeReadSide(tr *trace.Trace, cfg machine.Config, want *machine.Result) error {
	slice, err := medianPass("trace.Cursor.slice", r.tr, tr)
	if err != nil {
		return err
	}
	data, err := trace.EncodeColumnar(tr)
	if err != nil {
		return err
	}
	path := filepath.Join(r.work, "probe.nmt3")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	col, err := trace.Open(path)
	if err != nil {
		return err
	}
	defer col.Close()
	v3, err := medianPass("trace.Cursor.v3", r.tr, col)
	if err != nil {
		return err
	}
	var res machine.Result
	r.tr.do("machine.Run.v3", 0, func() { res, err = machine.Run(cfg, col) })
	if err != nil {
		return err
	}
	if want != nil {
		r.check(reflect.DeepEqual(res, *want), "replay from trace.Open differs from the decoded replay")
	}
	r.set("trace.cursor_slice_ns_per_op", slice)
	r.set("trace.cursor_v3_ns_per_op", v3)
	r.set("machine.replay_v3_ns_per_event", r.nsPer("machine.Run.v3", float64(res.Events)))
	return nil
}

// access is one L1-filtered memory reference of a recorded thread.
type access struct {
	addr  uint64
	write bool
	group int
}

// interleave merges the threads' memory references round-robin, one op
// per thread in turn, the order a concurrent replay roughly sees them.
func interleave(tr *trace.Trace, threads []int, cpg int) []access {
	pos := make([]int, len(threads))
	var out []access
	for left := len(threads); left > 0; {
		left = 0
		for i, t := range threads {
			s := tr.Streams[t]
			for pos[i] < len(s) {
				op := s[pos[i]]
				pos[i]++
				if op.Kind == trace.OpAccess || op.Kind == trace.OpAtomic {
					out = append(out, access{addr: op.Addr, write: op.Write, group: t / cpg})
					break
				}
			}
			if pos[i] < len(s) {
				left++
			}
		}
	}
	return out
}

// probeKernel times the replay kernel's layers in isolation on the trace:
// the event queue under a hold model, each group's L2, and the far, near
// and network models on the trace's line addresses.
func (r *run) probeKernel(tr *trace.Trace, cfg machine.Config) {
	r.probeEngine(tr, cfg)

	cpg := cfg.CoresPerGroup
	var groupStreams [][]access
	for g := 0; g*cpg < len(tr.Streams); g++ {
		var threads []int
		for t := g * cpg; t < (g+1)*cpg && t < len(tr.Streams); t++ {
			threads = append(threads, t)
		}
		groupStreams = append(groupStreams, interleave(tr, threads, cpg))
	}
	var hits, misses, n uint64
	r.tr.do("cachesim.Access", 0, func() {
		for _, s := range groupStreams {
			c := cachesim.New(harness.ScaledL2, cfg.LineSize, cfg.L2Ways)
			for _, a := range s {
				c.Access(a.addr, a.write)
			}
			st := c.Stats()
			hits += st.Hits
			misses += st.Misses
			n += uint64(len(s))
		}
	})
	r.set("cachesim.ns_per_access", r.nsPer("cachesim.Access", float64(n)))
	r.set("cachesim.hit_ratio", ratio(float64(hits), float64(hits+misses)))

	// The devices see every thread's references, interleaved, one core
	// cycle apart; far and near references go to their own device.
	all := make([]int, len(tr.Streams))
	for t := range all {
		all[t] = t
	}
	stream := interleave(tr, all, cpg)
	type timed struct {
		at units.Time
		access
	}
	var farRefs, nearRefs []timed
	period := cfg.CoreHz.Period()
	for i, a := range stream {
		ref := timed{units.Time(i+1) * period, a}
		if addr.LevelOf(addr.Addr(a.addr)) == addr.Near {
			nearRefs = append(nearRefs, ref)
		} else {
			farRefs = append(farRefs, ref)
		}
	}
	sim := engine.New()
	far := dram.New(sim, cfg.Far, addr.FarBase)
	near := spmem.New(sim, cfg.Near, addr.NearBase)
	nw := noc.New(sim, cfg.NoC)
	r.tr.do("dram.Access", 0, func() {
		for _, a := range farRefs {
			far.Access(a.at, addr.Addr(a.addr), a.write)
		}
	})
	r.tr.do("spmem.Access", 0, func() {
		for _, a := range nearRefs {
			near.Access(a.at, addr.Addr(a.addr), a.write)
		}
	})
	r.tr.do("noc.Send", 0, func() {
		for i, a := range stream {
			nw.Send(units.Time(i+1)*period, a.group, cfg.LineSize)
		}
	})
	fs := far.Stats()
	r.set("dram.ns_per_access", r.nsPer("dram.Access", float64(len(farRefs))))
	r.set("dram.row_hit_ratio", ratio(float64(fs.RowHits), float64(fs.Accesses())))
	r.set("spmem.ns_per_access", r.nsPer("spmem.Access", float64(len(nearRefs))))
	r.set("noc.ns_per_send", r.nsPer("noc.Send", float64(len(stream))))
}

// nsPer is the total time of the named root spans per operation.
func (r *run) nsPer(name string, ops float64) float64 {
	return ratio(float64(r.tr.total(name, 0).Nanoseconds()), ops)
}

// probeEngine drives the event queue with a hold model: one
// self-rescheduling event per core, each firing once per recorded op after
// the op's compute gap plus the memory latency of the level it touches.
func (r *run) probeEngine(tr *trace.Trace, cfg machine.Config) {
	period := cfg.CoreHz.Period()
	farLat, nearLat := cfg.Far.MinService(), cfg.Near.MinService()
	delays := make([][]units.Time, len(tr.Streams))
	for t, s := range tr.Streams {
		ds := make([]units.Time, len(s))
		for i, op := range s {
			d := units.Time(op.Gap) * period
			if op.Kind == trace.OpAccess || op.Kind == trace.OpAtomic {
				if addr.LevelOf(addr.Addr(op.Addr)) == addr.Near {
					d += nearLat
				} else {
					d += farLat
				}
			}
			ds[i] = d
		}
		delays[t] = ds
	}
	sim := engine.New()
	for _, ds := range delays {
		if len(ds) == 0 {
			continue
		}
		// One closure per core, rescheduled as a value, so the hold model
		// allocates nothing per event and times the queue alone.
		ds, i := ds, 0
		var ev engine.Event
		ev = func() {
			if i++; i < len(ds) {
				sim.After(ds[i], ev) //nmlint:ignore simpure the closure only reschedules itself; a method value would allocate per event
			}
		}
		sim.At(ds[0], ev) //nmlint:ignore simpure same self-rescheduling closure as above
	}
	r.tr.do("engine.Sim.Run", 0, func() { sim.Run() })
	r.set("engine.ns_per_event", r.nsPer("engine.Sim.Run", float64(sim.Executed())))
	r.check(sim.Executed() == uint64(tr.Ops()), "hold model ran %d events for %d ops", sim.Executed(), tr.Ops())
}

// serializeFlow takes a recorded trace through the record-once file
// flow under parent: write v2 and read it back (nmtrace record and
// convert's load), encode v3 and open it (convert and info), then
// validate, verify and decode the columnar file. Every encoding must keep
// the recorded digest. It returns the two file sizes.
func (r *run) serializeFlow(parent int, tr *trace.Trace, digest uint64) (v2Bytes, v3Bytes int64, err error) {
	v2 := filepath.Join(r.work, "flow.nmt")
	r.tr.do("trace.WriteTo", parent, func() {
		var f *os.File
		if f, err = os.Create(v2); err != nil {
			return
		}
		if v2Bytes, err = tr.WriteTo(f); err != nil {
			f.Close()
			return
		}
		err = f.Close()
	})
	if err != nil {
		return 0, 0, err
	}
	var back *trace.Trace
	r.tr.do("trace.ReadTrace", parent, func() {
		var f *os.File
		if f, err = os.Open(v2); err != nil {
			return
		}
		defer f.Close()
		back, err = trace.ReadTrace(f)
	})
	if err != nil {
		return 0, 0, err
	}
	var data []byte
	r.tr.do("trace.EncodeColumnar", parent, func() { data, err = trace.EncodeColumnar(back) })
	if err != nil {
		return 0, 0, err
	}
	v3 := filepath.Join(r.work, "flow.nmt3")
	if err := os.WriteFile(v3, data, 0o644); err != nil {
		return 0, 0, err
	}
	var col *trace.Columnar
	r.tr.do("trace.Open", parent, func() { col, err = trace.Open(v3) })
	if err != nil {
		return 0, 0, err
	}
	defer col.Close()
	r.tr.do("trace.Columnar.Validate", parent, func() { err = col.Validate() })
	if err != nil {
		return 0, 0, err
	}
	r.tr.do("trace.Columnar.Verify", parent, func() { err = col.Verify() })
	if err != nil {
		return 0, 0, err
	}
	var dec *trace.Trace
	r.tr.do("trace.Columnar.Decode", parent, func() { dec, err = col.Decode() })
	if err != nil {
		return 0, 0, err
	}
	d2, err := back.Digest()
	if err != nil {
		return 0, 0, err
	}
	d3, err := col.Digest()
	if err != nil {
		return 0, 0, err
	}
	r.check(d2 == digest && d3 == digest && dec.Ops() == tr.Ops(),
		"v2/v3 round trip: digests %016x/%016x, want %016x", d2, d3, digest)
	return v2Bytes, int64(len(data)), nil
}

// setSerializationMetrics reports the serializeFlow spans under parent.
func (r *run) setSerializationMetrics(parent int, v2Bytes, v3Bytes int64) {
	r.set("trace.write_v2_s", r.tr.total("trace.WriteTo", parent).Seconds())
	r.set("trace.read_v2_s", r.tr.total("trace.ReadTrace", parent).Seconds())
	r.set("trace.encode_v3_s", r.tr.total("trace.EncodeColumnar", parent).Seconds())
	r.set("trace.open_v3_us", float64(r.tr.total("trace.Open", parent).Nanoseconds())/1e3)
	r.set("trace.validate_v3_s", r.tr.total("trace.Columnar.Validate", parent).Seconds())
	r.set("trace.verify_v3_s", r.tr.total("trace.Columnar.Verify", parent).Seconds())
	r.set("trace.v2_bytes", float64(v2Bytes))
	r.set("trace.v3_bytes", float64(v3Bytes))
}
