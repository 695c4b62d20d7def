// Command perfbench is the repository's benchmark. One invocation
// generates seeded inputs, sets the system up from the files on disk the
// way cmd/rpsd does, drives one workload for a fixed time, checks every
// answer against an oracle, and prints its metrics by name and unit; the
// last line of standard output is one JSON object.
//
//	bash perfbench/run.sh --workload peer-read --seed 1 --seconds 10 --trace 0
//
// Workloads: peer-read, federated, durable-write, or all (each in turn, in
// its own process). --trace 0 reports the end-to-end metrics; --trace 1
// makes a traced run and reports the per-layer metrics. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

var workloads = map[string]func(config) (*result, error){
	"peer-read":     runPeerRead,
	"federated":     runFederated,
	"durable-write": runDurableWrite,
}

var workloadOrder = []string{"peer-read", "federated", "durable-write"}

func main() {
	name := flag.String("workload", "", "peer-read | federated | durable-write | all")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "measured time per run, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	work := flag.String("work", ".bench_build/work", "scratch directory for generated inputs and stores")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	if *name == "all" {
		if err := runAll(os.Stdout, *work, *seed, *seconds, *trace); err != nil {
			fail(err)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	cfg := config{
		Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Work: *work,
		Clients: min(2, runtime.NumCPU()), Sizes: fullSizes,
	}
	r, err := run(cfg)
	if err != nil {
		fail(err)
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	if err := r.print(os.Stdout, defs); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// runAll runs every workload in its own process, so that the process-wide
// state of one cannot leak into the next, and merges their JSON lines
// into one, with metrics named <workload>/<metric>.
func runAll(w io.Writer, work string, seed int64, seconds float64, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	total := jsonReport{Correct: true, Metrics: make(map[string]jsonMetric)}
	for _, name := range workloadOrder {
		cmd := exec.Command(self, "-workload", name, "-work", work, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		var last string
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if last != "" {
				fmt.Fprintf(w, "[%s] %s\n", name, last)
			}
			last = sc.Text()
		}
		werr := cmd.Wait()
		var rep jsonReport
		if err := json.Unmarshal([]byte(last), &rep); err != nil {
			return fmt.Errorf("%s: no result (%v)", name, werr)
		}
		total.Correct = total.Correct && rep.Correct
		total.Attempted += rep.Attempted
		total.Failed += rep.Failed
		for k, v := range rep.Metrics {
			total.Metrics[name+"/"+k] = v
		}
	}
	b, err := json.Marshal(total)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
