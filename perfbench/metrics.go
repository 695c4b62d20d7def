package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/pattern"
)

// metricDef names one reported metric. The end-to-end metrics (trace 0)
// and the per-layer metrics (trace 1) are the lists BENCHMARK.json
// declares, in the same order.
type metricDef struct {
	Name, Unit, Better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"qps", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"heap_mb", "MiB", "lower"},
}

var perLayer = []metricDef{
	{"peer.handler_us", "us", "lower"},
	{"peer.http_us", "us", "lower"},
	{"peer.response_bytes", "bytes", "lower"},
	{"peer.rows_per_op", "count", "lower"},
	{"sparql.parse_us", "us", "lower"},
	{"sparql.pattern_scans_per_op", "count", "lower"},
	{"qcache.hit_ratio", "ratio", "higher"},
	{"qcache.lookups", "count", "higher"},
	{"qcache.stale_drops", "count", "lower"},
	{"qcache.rejections", "count", "lower"},
	{"qcache.evictions", "count", "lower"},
	{"rewrite.us", "us", "lower"},
	{"rewrite.disjuncts", "count", "lower"},
	{"federation.answer_us", "us", "lower"},
	{"federation.wire_us", "us", "lower"},
	{"federation.wire_calls", "count", "lower"},
	{"federation.first_chunk_us", "us", "lower"},
	{"federation.mediator_self_us", "us", "lower"},
	{"federation.rows_fetched_per_answer", "count", "lower"},
	{"federation.answer_rows", "count", "higher"},
	{"rdf.commit_us", "us", "lower"},
	{"durable.wal_bytes_per_user_byte", "ratio", "lower"},
	{"durable.user_bytes", "bytes", "higher"},
	{"durable.syncs_per_commit", "ratio", "lower"},
	{"durable.commits", "count", "higher"},
	{"checkpoint.count", "count", "lower"},
	{"write_p50_ms", "ms", "lower"},
	{"write_p99_ms", "ms", "lower"},
	{"recover_s", "s", "lower"},
	{"mapfile.load_s", "s", "lower"},
	{"error_rate", "ratio", "lower"},
	{"harness.gen_late_ms_p99", "ms", "lower"},
	{"harness.samples", "count", "higher"},
	{"harness.trace_overhead_pct", "%", "lower"},
}

// result is what one workload run reports.
type result struct {
	Attempted, Failed int64
	// Wrong counts answers that disagreed with the oracle; any one fails
	// the run.
	Wrong   int64
	Metrics map[string]float64
	// Lines is the human-readable report printed before the JSON line.
	Lines []string
}

func newResult() *result { return &result{Metrics: make(map[string]float64)} }

func (r *result) set(name string, v float64) { r.Metrics[name] = v }

func (r *result) linef(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.Wrong == 0 && r.Failed == 0 }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonReport struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the report lines, every metric of the run by name and unit
// (with direction), and last the one-line JSON object of the defs.
func (r *result) print(w io.Writer, defs []metricDef) error {
	for _, l := range r.Lines {
		fmt.Fprintln(w, l)
	}
	all := append(append([]metricDef(nil), endToEnd...), perLayer...)
	for _, d := range all {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "metric %-36s %16.6g %-6s (%s is better)\n", d.Name, v, d.Unit, d.Better)
		}
	}
	rep := jsonReport{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]jsonMetric)}
	for _, d := range defs {
		v := r.Metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// Latency samples.

// durations holds latency samples.
type durations []time.Duration

// quantile is the nearest-rank q-quantile, in milliseconds.
func (d durations) quantileMS(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return float64(s[i]) / 1e6
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Answer hashing.

// rowsHash is an order-independent hash of a multiset of rows: the sum of
// the rows' FNV-1a hashes, mixed with the row count. Answers are hashed
// inside the timed loop and compared with the oracle's after it.
func rowsHash(rows []pattern.Tuple) uint64 {
	var sum uint64
	h := fnv.New64a()
	for _, row := range rows {
		h.Reset()
		for _, t := range row {
			io.WriteString(h, t.String())
			h.Write([]byte{0})
		}
		sum += h.Sum64()
	}
	return sum ^ uint64(len(rows))*0x9e3779b97f4a7c15
}
