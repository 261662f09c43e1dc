package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"repro/internal/harness"
	"repro/internal/trace"
	"repro/internal/units"
)

// The record workload is the documented record-once flow at the CLI's
// default size: for gnusort and nmsort, nmtrace record (v2), convert to
// .nmt3, then info. The record side (core sorts, the trace recorder and L1
// filter, v2/v3 serialization, validation) does all the work and replay
// does none, so replay-kernel changes must read as no change here.
const (
	recKeys  = 1 << 20
	recCores = 256
	recSPMiB = 8
)

var recAlgs = []harness.Algorithm{harness.AlgGNUSort, harness.AlgNMSort}

func recordWorkload(seed uint64) harness.Workload {
	return harness.Workload{N: recKeys, Seed: seed, Threads: recCores, SP: recSPMiB * units.MiB}
}

// flowOutput is what one pass of the flow printed, per algorithm.
type flowOutput struct {
	record, convert, info [2][]byte
}

// recordFlow runs record, convert and info for both algorithms and
// returns the time of the whole flow and the peak RSS of its largest
// process.
func (r *run) recordFlow() (usage, flowOutput) {
	var out flowOutput
	var u usage
	for i, alg := range recAlgs {
		v2 := filepath.Join(r.work, string(alg)+".nmt")
		v3 := filepath.Join(r.work, string(alg)+".nmt3")
		steps := []struct {
			dst  *[]byte
			args []string
		}{
			{&out.record[i], []string{"record", "-alg", string(alg), "-n", strconv.Itoa(recKeys),
				"-cores", strconv.Itoa(recCores), "-sp", strconv.Itoa(recSPMiB),
				"-seed", strconv.FormatUint(r.seed, 10), "-o", v2}},
			{&out.convert[i], []string{"convert", "-i", v2, "-o", v3}},
			{&out.info[i], []string{"info", "-i", v3}},
		}
		for _, s := range steps {
			p := r.exec("nmtrace", s.args...)
			r.checkErr(p.err)
			u.wall += p.wall
			u.cpu += p.cpu
			u.rssMB = max(u.rssMB, p.rssMB)
			*s.dst = p.stdout
		}
	}
	return u, out
}

func runRecord(r *run) error {
	err := r.setup(func() error {
		v2 := filepath.Join(r.work, "warm.nmt")
		for _, args := range [][]string{
			{"record", "-alg", "nmsort", "-n", strconv.Itoa(warmKeys), "-cores", strconv.Itoa(recCores),
				"-sp", strconv.Itoa(recSPMiB), "-seed", strconv.FormatUint(r.seed, 10), "-o", v2},
			{"convert", "-i", v2, "-o", v2 + "3"},
			{"info", "-i", v2 + "3"},
		} {
			if p := r.exec("nmtrace", args...); p.err != nil {
				return p.err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var us []usage
	var outs []flowOutput
	var elapsed time.Duration
	for i := 0; more(i, minUnits, elapsed, lastWall(us), r.seconds); i++ {
		u, out := r.recordFlow()
		us = append(us, u)
		outs = append(outs, out)
		elapsed += u.wall
	}
	if err := r.recordOracle(outs); err != nil {
		return err
	}
	r.printf("record: %d flows of record+convert+info for %d algorithms, N=%d, %d threads", len(us), len(recAlgs), recKeys, recCores)
	r.setUnits(us)
	return nil
}

var (
	recordedOps  = regexp.MustCompile(`(?m)^recorded \S+: \d+ threads, (\d+) ops`)
	convertedDig = regexp.MustCompile(`(?m)ops, \d+ bytes, digest ([0-9a-f]{16})$`)
	infoOps      = regexp.MustCompile(`(?m)^total ops:\s+(\d+)$`)
)

// recordOracle records each algorithm in-process and checks every flow's
// output against it: the op count nmtrace record and info print, the
// digest convert prints, and the digests of the last flow's v2 and v3
// files as trace.Load reads them. Every flow must print the same bytes.
func (r *run) recordOracle(outs []flowOutput) error {
	for i, alg := range recAlgs {
		res, err := harness.Record(alg, recordWorkload(r.seed))
		if err != nil {
			return fmt.Errorf("in-process record of %s: %w", alg, err)
		}
		digest, err := res.Trace.Digest()
		if err != nil {
			return err
		}
		ops := strconv.Itoa(res.Trace.Ops())
		dig := fmt.Sprintf("%016x", digest)
		for n, o := range outs {
			r.check(submatch(recordedOps, o.record[i]) == ops, "flow %d: %s record printed %q ops, want %s", n, alg, submatch(recordedOps, o.record[i]), ops)
			r.check(submatch(convertedDig, o.convert[i]) == dig, "flow %d: %s convert printed digest %q, want %s", n, alg, submatch(convertedDig, o.convert[i]), dig)
			r.check(submatch(infoOps, o.info[i]) == ops, "flow %d: %s info printed %q ops, want %s", n, alg, submatch(infoOps, o.info[i]), ops)
			r.check(bytes.Equal(o.info[i], outs[0].info[i]), "flow %d: %s info output changed between flows", n, alg)
		}
		for _, ext := range []string{".nmt", ".nmt3"} {
			src, err := trace.Load(filepath.Join(r.work, string(alg)+ext))
			if err != nil {
				r.checkErr(err)
				continue
			}
			d, err := src.Digest()
			r.check(err == nil && d == digest, "%s%s digest %016x (%v), want %s", alg, ext, d, err, dig)
		}
	}
	return nil
}

func submatch(re *regexp.Regexp, b []byte) string {
	m := re.FindSubmatch(b)
	if m == nil {
		return ""
	}
	return string(m[1])
}

// tracedRecord re-enacts the flow in-process twice, once untraced and
// once with a span around each call — harness.Record, then the v2 write
// and read, the v3 encode, open, validate, verify and decode — and
// compares the two for bench.trace_overhead_pct.
func tracedRecord(r *run) error {
	tr := r.tr
	r.tr = nil
	start := time.Now()
	_, err := r.reenactRecord()
	untraced := time.Since(start)
	r.tr = tr
	if err != nil {
		return err
	}
	f, err := r.reenactRecord()
	if err != nil {
		return err
	}
	traced := r.tr.total("nmtrace.flow", 0)
	r.setRecordMetrics(f.ops)
	r.setSerializationMetrics(f.root, f.v2Bytes, f.v3Bytes)
	r.set("bench.trace_overhead_pct", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds())
	r.probeCore(recordWorkload(r.seed), recAlgs)
	r.zero(readSideOnly...)
	r.zero(sweepOnly...)
	r.zero(serveOnly...)
	r.printf("record traced: re-enacted flow untraced %.3f s, traced %.3f s", untraced.Seconds(), traced.Seconds())
	return nil
}

// reenactedFlow is one in-process re-enactment of the record flow.
type reenactedFlow struct {
	root             int // span of the whole flow
	ops              int
	v2Bytes, v3Bytes int64
}

// reenactRecord runs the record-once flow for both algorithms under one
// root span (none when r.tr is nil).
func (r *run) reenactRecord() (reenactedFlow, error) {
	var f reenactedFlow
	f.root = r.tr.begin("nmtrace.flow", 0)
	for _, alg := range recAlgs {
		var res harness.RecordResult
		var err error
		r.tr.do("harness.Record", f.root, func() { res, err = harness.Record(alg, recordWorkload(r.seed)) })
		if err != nil {
			return f, err
		}
		digest, err := res.Trace.Digest()
		if err != nil {
			return f, err
		}
		b2, b3, err := r.serializeFlow(f.root, res.Trace, digest)
		if err != nil {
			return f, err
		}
		f.v2Bytes += b2
		f.v3Bytes += b3
		f.ops += res.Trace.Ops()
	}
	r.tr.end(f.root)
	return f, nil
}
