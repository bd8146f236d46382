// Command bench is the repository's benchmark. It drives five workloads
// through the public entry points of the simulator and of sppd, checks
// every output, and prints each metric as "<workload> <metric> <value>
// <unit>" followed by one JSON result line. A plain run reports the
// end-to-end metrics; a -trace 1 run records spans around the calls into
// each layer and reports the per-layer metrics. See README.md.
//
//	bench --workload t1-agent --seed 1 --seconds 10 --trace 0
//	bench --seed 1 --out runs.jsonl            # every workload, one child process each
//	bench -compare base.jsonl head.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as -out stores it: every metric measured (a traced run
// also carries its end-to-end metrics, measured under tracing), the raw
// samples as measured, before the yardstick scaling, with the pass count
// at each, the window peaks of the resident set, and for a traced run the
// spans and per-span self times.
type record struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Notes      []string           `json:"notes,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	SetupS     []float64          `json:"setup_s_samples,omitempty"`
	OpMS       []float64          `json:"op_ms_samples,omitempty"`
	YardMS     []float64          `json:"yardstick_ms_samples,omitempty"`
	SetupPass  []int              `json:"setup_pass_index,omitempty"`
	OpPass     []int              `json:"op_pass_index,omitempty"`
	RSSMB      []float64          `json:"rss_window_mb,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
	Aggregated []aggSpan          `json:"aggregated_spans,omitempty"`
	SelfTimes  []selfTime         `json:"self_times,omitempty"`
	Env        environment        `json:"env"`
}

type environment struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (empty: all of them, one child process each): "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed every input derives from")
	seconds := fs.Float64("seconds", 10, "length of the measured loop in seconds")
	trace := fs.Int("trace", 0, "1: record spans and report the per-layer metrics")
	out := fs.String("out", "", "append the run's record (raw samples, spans) to this JSON-lines file")
	compareMode := fs.Bool("compare", false, "compare two -out files: bench -compare BASE HEAD")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareMode {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare BASE.jsonl HEAD.jsonl")
			return 2
		}
		if err := compareFiles(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	if *name == "" {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return runAll(exe, args, stdout, stderr)
	}
	def, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	// The run's disk stores live in a directory of its own under TMPDIR,
	// which run.sh points into the checkout's build directory.
	tmp, err := os.MkdirTemp("", "bench-run-")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer os.RemoveAll(tmp)
	cfg := config{seed: *seed, workers: workersFor(def, runtime.NumCPU()), sc: fullScale, tmpDir: tmp, collect: !def.server}
	dur := time.Duration(*seconds * float64(time.Second))
	rec, err := measureWorkload(def, cfg, dur, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(stderr, "%s: FAILED %s\n", rec.Workload, n)
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if err := emit(stdout, rec); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runAll runs every workload in its own child process, so each has its own
// heap, GC state and peak RSS, passing the other flags through (the
// appended --workload wins over any in args).
func runAll(exe string, args []string, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range workloads {
		childArgs := append(append([]string(nil), args...), "--workload", w.name)
		cmd := exec.Command(exe, childArgs...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// measureWorkload runs one workload and, when traced, the layer probes.
func measureWorkload(def workloadDef, cfg config, dur time.Duration, trace bool) (*record, error) {
	var tr *tracer
	if trace {
		tr = newTracer()
	}
	st, err := drive(def.make(cfg), cfg, dur, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	rec := &record{
		Workload: def.name, Seed: cfg.seed, Seconds: dur.Seconds(), Trace: trace,
		Attempted: st.attempted, Failed: st.failed, Notes: st.notes,
		Metrics: endToEndMetrics(st),
		SetupS:  st.setupS, OpMS: st.opMS, YardMS: st.yardMS, SetupPass: st.setupPass, OpPass: st.opPass, RSSMB: st.rssMB,
		Env: environment{GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: cfg.workers},
	}
	if trace {
		ops := float64(st.attempted)
		rec.Metrics["alloc.bytes_per_op"] = float64(st.allocBytes) / ops
		rec.Metrics["alloc.objects_per_op"] = float64(st.allocObjects) / ops
		rec.Metrics["gc.cycles_per_op"] = float64(st.gcCycles) / ops
		pr := runProbes(cfg, tr)
		for _, d := range perLayer {
			if v, ok := pr.metrics[d.name]; ok {
				rec.Metrics[d.name] = v
			}
		}
		rec.Attempted += pr.checks
		rec.Failed += pr.failed
		rec.Notes = append(rec.Notes, pr.notes...)
		rec.Spans, rec.Aggregated = tr.spans, tr.aggs
		rec.SelfTimes = selfTimes(tr.spans)
	}
	rec.Correct = rec.Failed == 0
	for _, d := range reported(trace) {
		v, ok := rec.Metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			rec.Correct = false
			rec.Notes = append(rec.Notes, fmt.Sprintf("metric %s was not measured", d.name))
			rec.Metrics[d.name] = 0
		}
	}
	return rec, nil
}

// reported lists the metrics the result line carries.
func reported(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// emit prints one line per reported metric and then the result line.
func emit(w io.Writer, rec *record) error {
	res := result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: make(map[string]metricValue)}
	for _, d := range reported(rec.Trace) {
		v := rec.Metrics[d.name]
		fmt.Fprintf(w, "%s %s %s %s\n", rec.Workload, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func appendRecord(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(b, '\n'))
	return errors.Join(werr, f.Close())
}
