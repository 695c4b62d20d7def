package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var smokeSizes = sizes{
	Films: 300, Actors: 3, SameAs: 0.5,
	Peers: 3, Facts: 200, Entities: 100,
	WriteRate: 200, WriteCast: 3,
	Setups: 1, Warmup: 0.2,
}

// readDir returns every file under dir by relative path.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out[rel] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	gens := map[string]func(dir string, seed int64, sz sizes) (string, error){
		"film": genFilm, "lod": genLOD,
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			root := t.TempDir()
			dirs := []string{filepath.Join(root, "a"), filepath.Join(root, "b"), filepath.Join(root, "c")}
			for i, seed := range []int64{7, 7, 8} {
				if _, err := gen(dirs[i], seed, smokeSizes); err != nil {
					t.Fatal(err)
				}
			}
			a, b, c := readDir(t, dirs[0]), readDir(t, dirs[1]), readDir(t, dirs[2])
			if len(a) == 0 || len(a) != len(b) {
				t.Fatalf("seed 7 wrote %d and %d files", len(a), len(b))
			}
			differs := false
			for path, data := range a {
				if !bytes.Equal(data, b[path]) {
					t.Errorf("%s differs between two runs with seed 7", path)
				}
				differs = differs || !bytes.Equal(data, c[path])
			}
			if !differs {
				t.Error("seeds 7 and 8 wrote identical inputs")
			}
		})
	}
}

func TestKeysFollowSeed(t *testing.T) {
	a, b := newKeys(3, 1000), newKeys(3, 1000)
	for i := 0; i < 100; i++ {
		if x, y := a.next(), b.next(); x != y {
			t.Fatalf("draw %d: %d != %d", i, x, y)
		}
	}
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadOrder {
		for _, traced := range []bool{false, true} {
			t.Run(name, func(t *testing.T) {
				cfg := config{Seed: 1, Seconds: 0.8, Trace: traced, Work: t.TempDir(), Clients: 2, Sizes: smokeSizes}
				r, err := workloads[name](cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !r.correct() || r.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d wrong=%d\n%v",
						r.correct(), r.Attempted, r.Failed, r.Wrong, r.Lines)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				for _, d := range defs {
					if _, ok := r.Metrics[d.Name]; !ok && appliesTo(d.Name, name) {
						t.Errorf("metric %s missing", d.Name)
					}
				}
				var out bytes.Buffer
				if err := r.print(&out, defs); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// appliesTo reports whether a metric is measured on a workload; the others
// print as 0.
func appliesTo(metric, workload string) bool {
	switch {
	case strings.HasPrefix(metric, "write_") || strings.HasPrefix(metric, "durable.") ||
		strings.HasPrefix(metric, "checkpoint.") || strings.HasPrefix(metric, "rdf.") ||
		metric == "recover_s" || metric == "harness.gen_late_ms_p99":
		return workload == "durable-write"
	case strings.HasPrefix(metric, "federation.") || strings.HasPrefix(metric, "rewrite."):
		return workload == "federated"
	}
	return true
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "federation.answer", Start: 0, End: 100},
		// parallel sub-queries: [10,40] and [30,60] overlap, [80,120]
		// runs past the parent's end
		{ID: 2, Parent: 1, Name: "federation.wire", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "federation.wire", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "federation.wire", Start: 80, End: 120},
		// a grandchild counts against its own parent only
		{ID: 5, Parent: 2, Name: "peer.handler", Start: 15, End: 35},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 20, 2: 30 - 20, 3: 30, 4: 40, 5: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	agg := aggregate(spans)
	if got := agg["federation.wire"]; got.Count != 3 || got.Total != 100 || got.Self != 80 {
		t.Errorf("wire aggregate = %+v", *got)
	}
}

func TestCovered(t *testing.T) {
	cases := []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 10, nil, 0},
		{0, 10, [][2]int64{{2, 4}, {2, 4}}, 2},
		{0, 10, [][2]int64{{5, 8}, {1, 3}, {2, 6}}, 7},
		{0, 10, [][2]int64{{-5, 20}}, 10},
		{0, 10, [][2]int64{{10, 20}, {-3, 0}}, 0},
	}
	for _, c := range cases {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}
