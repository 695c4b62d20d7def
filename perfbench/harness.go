package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// config is one benchmark invocation.
type config struct {
	Seed    int64
	Seconds float64 // measured time
	Trace   bool
	Work    string // scratch root for inputs and stores
	Clients int    // closed-loop read clients
	Sizes   sizes
}

func (c config) measure() time.Duration { return time.Duration(c.Seconds * float64(time.Second)) }

// sample is one completed operation.
type sample struct {
	Kind  uint8
	Key   int32
	Start time.Time
	Lat   time.Duration
	Hash  uint64
	Err   error
}

// opFunc issues client c's k-th operation as request req and returns what
// the correctness check needs.
type opFunc func(c, k int, req int64) (kind uint8, key int32, hash uint64, err error)

// loop drives clients in a closed loop: each client sends its next
// request only after the previous one completed. Operation indices
// continue across phases, so a client's key sequence depends on the seed
// alone.
type loop struct {
	op    opFunc
	next  []int
	reqID atomic.Int64
}

func newLoop(clients int, op opFunc) *loop { return &loop{op: op, next: make([]int, clients)} }

// run drives every client until d has passed and returns the samples and
// the time until the last client finished its last request.
func (l *loop) run(d time.Duration) ([]sample, time.Duration) {
	start := time.Now()
	end := start.Add(d)
	per := make([][]sample, len(l.next))
	var wg sync.WaitGroup
	for c := range l.next {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				k := l.next[c]
				l.next[c]++
				t := time.Now()
				kind, key, h, err := l.op(c, k, l.reqID.Add(1))
				per[c] = append(per[c], sample{Kind: kind, Key: key, Start: t, Lat: time.Since(t), Hash: h, Err: err})
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, elapsed
}

// phases is the timeline of one run: an untimed warm-up, then the
// measured time. A traced run alternates untraced and traced slices of
// the measured time in the order U T T U U T T U, so that a trend over
// the run (a cache still filling, a checkpoint) weighs on both modes
// alike; the difference between the modes is the tracing overhead.
type phases struct {
	Warm, Untraced, Traced   []sample
	UntracedTime, TracedTime time.Duration
	// deltas holds each public counter's change over the measured
	// phase: the whole measured time untraced, the traced slices traced.
	deltas map[string]float64
}

// tracedSlices is the order of the slices of a traced run (true: traced).
var tracedSlices = []bool{false, true, true, false, false, true, true, false}

// measured is the phase the run's metrics come from.
func (p *phases) measured() ([]sample, time.Duration) {
	if p.Traced != nil {
		return p.Traced, p.TracedTime
	}
	return p.Untraced, p.UntracedTime
}

func (p *phases) all() []sample {
	return append(append(append([]sample(nil), p.Warm...), p.Untraced...), p.Traced...)
}

// drive runs the phases. stats snapshots the program's public counters;
// it is read around the measured phase.
func drive(cfg config, l *loop, tr *tracer, stats func() map[string]float64) *phases {
	p := &phases{deltas: make(map[string]float64)}
	p.Warm, _ = l.run(time.Duration(cfg.Sizes.Warmup * float64(time.Second)))
	counted := func(run func()) {
		before := stats()
		run()
		for k, v := range stats() {
			p.deltas[k] += v - before[k]
		}
	}
	if !cfg.Trace {
		counted(func() { p.Untraced, p.UntracedTime = l.run(cfg.measure()) })
		return p
	}
	slice := cfg.measure() / time.Duration(len(tracedSlices))
	for _, traced := range tracedSlices {
		if !traced {
			ss, d := l.run(slice)
			p.Untraced, p.UntracedTime = append(p.Untraced, ss...), p.UntracedTime+d
			continue
		}
		counted(func() {
			tr.on.Store(true)
			ss, d := l.run(slice)
			tr.on.Store(false)
			p.Traced, p.TracedTime = append(p.Traced, ss...), p.TracedTime+d
		})
	}
	return p
}

// delta is a counter's change over the measured phase.
func (p *phases) delta(name string) float64 { return p.deltas[name] }

// The measured time is cut into windows for the end-to-end metrics: each
// is computed per window and the median reported, so a burst of
// interference on a shared machine moves one window only. There are at
// most maxWindows, each holding at least minWindowSamples samples so that
// a window's p99 has at least ten samples beyond it.
const (
	maxWindows       = 10
	minWindowSamples = 1000
)

func windowCount(samples int) int { return max(1, min(maxWindows, samples/minWindowSamples)) }

// latencyMetrics fills qps, p50_ms and p99_ms from the measured reads:
// the median over the windows of the measured time.
func latencyMetrics(r *result, p *phases) {
	ss, elapsed := p.measured()
	r.set("harness.samples", float64(len(ss)))
	if p.Traced != nil {
		// the traced slices are not contiguous: no windows, and the
		// end-to-end metrics come from untraced runs
		untraced := float64(len(p.Untraced)) / p.UntracedTime.Seconds()
		traced := float64(len(p.Traced)) / p.TracedTime.Seconds()
		r.set("harness.trace_overhead_pct", (ratio(untraced, traced)-1)*100)
		r.linef("traced: %d samples over %.2fs at %.1f/s; untraced slices %d samples at %.1f/s",
			len(ss), elapsed.Seconds(), traced, len(p.Untraced), untraced)
		return
	}
	var qps, p50, p99 []float64
	for _, w := range splitWindows(ss) {
		if len(w.lat) == 0 {
			continue
		}
		qps = append(qps, float64(len(w.lat))/w.span.Seconds())
		p50 = append(p50, w.lat.quantileMS(0.50))
		p99 = append(p99, w.lat.quantileMS(0.99))
	}
	r.set("qps", median(qps))
	r.set("p50_ms", median(p50))
	r.set("p99_ms", median(p99))
	per := len(ss) / windowCount(len(ss))
	r.linef("samples %d measured over %.2fs in %d windows of >= %d samples (each window's p99 has >= %d beyond it)",
		len(ss), elapsed.Seconds(), windowCount(len(ss)), per, per/100)
	r.linef("windows: qps %.1f; p50_ms %.4f; p99_ms %.3f", qps, p50, p99)
}

type window struct {
	lat  durations
	span time.Duration
}

// splitWindows cuts the samples, in order of start time, into windows of
// equal sample count; a window's span runs from its first start to its
// last completion.
func splitWindows(ss []sample) []window {
	if len(ss) == 0 {
		return nil
	}
	sorted := append([]sample(nil), ss...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start.Before(sorted[j].Start) })
	n := windowCount(len(sorted))
	out := make([]window, n)
	for i := range out {
		part := sorted[i*len(sorted)/n : (i+1)*len(sorted)/n]
		if len(part) == 0 {
			continue
		}
		for _, s := range part {
			out[i].lat = append(out[i].lat, s.Lat)
		}
		first, last := part[0], part[len(part)-1]
		out[i].span = last.Start.Add(last.Lat).Sub(first.Start)
	}
	return out
}

// checkSamples applies the oracle to every operation of the run, warm-up
// included, and counts attempts, failures and wrong answers.
func checkSamples(r *result, p *phases, ok func(s sample) bool) {
	for _, s := range p.all() {
		r.Attempted++
		switch {
		case s.Err != nil:
			r.Failed++
			if r.Failed <= 3 {
				r.linef("error: %v", s.Err)
			}
		case !ok(s):
			r.Failed++
			r.Wrong++
			if r.Wrong <= 3 {
				r.linef("wrong answer: kind %d key %d", s.Kind, s.Key)
			}
		}
	}
	r.set("error_rate", ratio(float64(r.Failed), float64(r.Attempted)))
}

// maxSetups caps the set-ups of one run.
const maxSetups = 9

// setUpRepeated performs set-up at least cfg.Sizes.Setups times, and more
// while their total stays under cfg.Sizes.SetupBudget seconds, and keeps
// the last system serving; setup_s and mapfile.load_s are the medians.
// dataRoot, when set, gives every set-up a fresh durable data directory
// below it.
func setUpRepeated(cfg config, r *result, sysPath, dataRoot string, tr *tracer) (*setup, string, error) {
	var cur *setup
	var totals, loads []float64
	var spent float64
	dataDir := ""
	for i := 0; i < max(1, cfg.Sizes.Setups) || i < maxSetups && spent < cfg.Sizes.SetupBudget; i++ {
		if cur != nil {
			if err := cur.srv.close(); err != nil {
				return nil, "", err
			}
			cur = nil
		}
		if dataRoot != "" {
			dataDir = filepath.Join(dataRoot, fmt.Sprint(i))
			if i > 0 {
				os.RemoveAll(filepath.Join(dataRoot, fmt.Sprint(i-1)))
			}
		}
		runtime.GC()
		s, err := setUp(sysPath, dataDir, tr)
		if err != nil {
			return nil, "", fmt.Errorf("set-up: %w", err)
		}
		cur = s
		spent += s.total.Seconds()
		totals = append(totals, s.total.Seconds())
		loads = append(loads, s.load.Seconds())
	}
	r.set("setup_s", median(totals))
	r.set("mapfile.load_s", median(loads))
	r.linef("setup_s: median of %d set-ups %v", len(totals), totals)
	return cur, dataDir, nil
}

// liveHeapMB is the live heap after two full collections, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
