// Command bench is the repository's benchmark: five workloads over the
// negotiation stack, eight end-to-end metrics gated by BENCHMARK.json, and a
// traced run that attributes each workload's latency to the layers it
// crosses, measured from outside through their public functions. See
// README.md beside this file.
//
// Usage (from this directory):
//
//	go run . -seed 1996                      # every workload, untraced then traced, a fresh process each
//	go run . -workload hot-inproc -seed 7    # one workload, end-to-end metrics
//	go run . -workload hot-inproc -trace 1   # one workload, per-layer metrics and span file
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// runConfig is one invocation's arguments.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale multiplies op counts and warm-up; the test suite runs at 1/200.
	scale  float64
	outDir string
}

// report is what one run of one workload produces. The result line carries
// Correct, Attempted, Failed and Metrics; the result file adds the rest.
type report struct {
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Trace       bool        `json:"trace"`
	Epochs      int         `json:"epochs"`
	Ops         int         `json:"frozenOpsPerEpoch"`
	Warmup      int         `json:"warmupOps"`
	Environment environment `json:"environment"`
	Correct     bool        `json:"correct"`
	// Valid is false when the load generator missed its own schedule or the
	// --seconds budget cut an epoch short of its frozen op count: the outputs
	// were still checked, but the timings do not compare with another run's.
	Valid     bool              `json:"valid"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Observed  map[string]int    `json:"observedStatuses"`
	Expected  map[string]int    `json:"expectedStatuses"`
	Checks    []check           `json:"checks"`
	Problems  []string          `json:"problems,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	Ladder    []rung            `json:"ladder,omitempty"`
}

// check is one output check and its verdict.
type check struct {
	Name   string `json:"name"`
	Passed bool   `json:"passed"`
	Detail string `json:"detail,omitempty"`
}

// check books one verdict of a named check. Every epoch runs the same
// checks; a name is listed once and passes only if it passed every time.
func (r *report) check(name string, passed bool, format string, args ...any) {
	c := check{Name: name, Passed: passed}
	if !passed {
		c.Detail = fmt.Sprintf(format, args...)
		r.Correct = false
	}
	for i, old := range r.Checks {
		if old.Name == name {
			if old.Passed {
				r.Checks[i] = c
			}
			return
		}
	}
	r.Checks = append(r.Checks, c)
}

func (r *report) invalid(format string, args ...any) {
	r.Valid = false
	r.Notes = append(r.Notes, "RUN INVALID: "+fmt.Sprintf(format, args...))
}

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all, a fresh process each)")
	flag.Uint64Var(&cfg.seed, "seed", 1996, "seed every input is derived from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured-phase budget: scales the frozen op counts; a phase it cuts short marks the run invalid")
	trace := flag.Int("trace", 0, "1 runs the traced variant: per-layer metrics and a span file")
	flag.StringVar(&cfg.outDir, "out", "out", "directory for result and trace files")
	flag.Parse()
	cfg.trace = *trace != 0
	cfg.scale = 1
	if cfg.seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	if cfg.workload == "" {
		if err := runAll(cfg); err != nil {
			fatal(err)
		}
		return
	}
	rep, err := execute(cfg)
	if err != nil {
		fatal(err)
	}
	rep.print(os.Stdout)
	if err := rep.write(cfg.outDir); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runAll runs every workload untraced and then traced, each in a fresh
// process of this binary so sessions one workload retains cannot weigh on
// the next, and waits for each before starting the following one.
func runAll(cfg runConfig) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloadDefs {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(cfg.seed),
				"-seconds", fmt.Sprint(cfg.seconds), "-trace", trace, "-out", cfg.outDir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = append(failed, fmt.Sprintf("%s (trace %s): %v", w.name, trace, err))
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed runs:\n  %s", strings.Join(failed, "\n  "))
	}
	return nil
}

func scaled(n int, scale float64) int {
	if m := int(math.Round(float64(n) * scale)); m > 1 {
		return m
	}
	return 1
}

func (r *report) print(w *os.File) {
	fmt.Fprintf(w, "workload %s seed %d trace %v: %d epochs of %d ops frozen, %d attempted, %d failed\n",
		r.Workload, r.Seed, r.Trace, r.Epochs, r.Ops, r.Attempted, r.Failed)
	fmt.Fprintf(w, "  %s\n  %s\n", r.Environment, r.Environment.Transport)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, line := range ladderLines(r.Ladder) {
		fmt.Fprintf(w, "  %s\n", line)
	}
	fmt.Fprintf(w, "  statuses observed %v expected %v\n", r.Observed, r.Expected)
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.Passed {
			verdict = "FAILED: " + c.Detail
		}
		fmt.Fprintf(w, "  check %-28s %s\n", c.Name, verdict)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func (r *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "result"
	if r.Trace {
		kind = "result-traced"
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%s.json", kind, r.Workload)), append(data, '\n'), 0o644)
}

// epochs is how many times a run repeats the whole experiment — set-up,
// measured phase, wind-down — each on a fresh system with its own request
// stream; every time-based metric is the median over the epochs. One long
// phase on one system is a poor sample: the retained heap grows through it,
// collections land at geometrically spaced heap sizes, and whether the last
// and largest one starts before or after the final op moved whole-run
// throughput by ±10% between identical runs. Short independent repeats
// average over that, and give setup_s its several set-ups for free.
const epochs = 5

// execute runs one workload once and assembles its report.
func execute(cfg runConfig) (*report, error) {
	w := findWorkload(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	budget := cfg.seconds / epochs
	if cfg.trace {
		// The traced run spends the other half of its budget on the ladder.
		budget /= 2
	}
	perSecond := w.opsPerSecond
	if cfg.trace && w.name == "wire-daemon" {
		// The traced loop runs one caller (see below), which gets through
		// that share of the callers' count in the same time.
		perSecond /= wireCallers
	}
	ops, warm := scaled(perSecond, budget*cfg.scale), scaled(w.warm, cfg.scale)
	rep := &report{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Epochs: epochs, Ops: ops, Warmup: warm, Environment: readEnvironment(), Correct: true, Valid: true,
	}
	in, err := generate(w, cfg.seed, epochs, ops, warm)
	if err != nil {
		return nil, err
	}
	if w.oneCPU {
		if cpu, restore, err := pinToOneCPU(); err != nil {
			rep.Notes = append(rep.Notes, fmt.Sprintf("not pinned to one CPU (%v): cpu_us_per_op depends on where the kernel places the threads", err))
		} else {
			rep.Notes = append(rep.Notes, fmt.Sprintf("process pinned to CPU %d", cpu))
			defer restore()
		}
	}

	var (
		s *sut
		// perEpoch holds each epoch's value of the metrics reported as
		// medians over the epochs.
		perEpoch   = make(map[string][]float64)
		total      = newTally(0)
		usage      struct{ mallocs, bytes, wireBytes, wireWrites uint64 }
		heapGrowth int64
	)
	for e, st := range in.epochs {
		begin := time.Now()
		if s, err = setUp(w, in); err != nil {
			return nil, err
		}
		epoch := metrics{"setup_s": time.Since(begin).Seconds()}
		heapBefore := liveHeap()
		t := newTally(len(st.reqs))
		ph := &phase{reqs: st.reqs, sample: w.name == "cold-catalog", writes: st.writes, due: st.due, t: t, callers: wireCallers}
		if cfg.trace {
			// One caller, so the loop's median is the uncontended call
			// the ladder takes apart.
			ph.callers = 1
		}
		// The connections carried the warm-up too: count from here.
		wireBytes, wireWrites := s.daemon.wire()
		before := readUsage()
		ph.deadline = before.at.Add(time.Duration(budget * float64(time.Second)))
		w.drive(s, in, ph)
		after := readUsage()
		b, wr := s.daemon.wire()
		usage.wireBytes, usage.wireWrites = usage.wireBytes+b-wireBytes, usage.wireWrites+wr-wireWrites
		if t.attempted < len(st.reqs) {
			rep.invalid("epoch %d: the --seconds budget ended the phase after %d of its %d frozen ops; this run's metrics describe less work than another's",
				e, t.attempted, len(st.reqs))
		}
		windDown(s, rep)
		heapAfter := liveHeap()
		verify(w, in, st, t, rep)

		sortDurations(t.lat)
		epoch["negotiate_p50_us"] = us(quantile(t.lat, 0.50))
		epoch["negotiate_p90_us"] = us(quantile(t.lat, 0.90))
		epoch["throughput_ops_s"] = float64(t.good) / after.at.Sub(before.at).Seconds()
		epoch["cpu_us_per_op"] = us(after.cpu-before.cpu) / float64(max(t.attempted, 1))
		epoch["live_heap_end_mb"] = float64(heapAfter) / (1 << 20)
		for name, v := range epoch {
			perEpoch[name] = append(perEpoch[name], v)
		}
		usage.mallocs += after.mallocs - before.mallocs
		usage.bytes += after.bytes - before.bytes
		heapGrowth += int64(heapAfter) - int64(heapBefore)
		total.merge(t)
	}

	m := metrics{}
	attempted := float64(max(total.attempted, 1))
	for name, v := range perEpoch {
		m[name] = median(v)
	}
	m["allocs_per_op"] = float64(usage.mallocs) / attempted
	m["alloc_kb_per_op"] = float64(usage.bytes) / 1024 / attempted

	validate(total, rep)
	rep.Attempted, rep.Failed = total.attempted, total.failed
	rep.Observed, rep.Expected, rep.Problems = total.observed, total.expected, total.problems
	if len(rep.Problems) > 8 {
		rep.Problems = rep.Problems[:8]
	}

	if cfg.trace {
		retained := float64(heapGrowth) / float64(max(total.sessions, 1))
		m["retained_kb_per_session"] = retained / 1024
		m["core.retained_bytes_per_session"] = retained
		m["rss_peak_mb"] = rssPeakMB()
		m["protocol.wire_bytes_per_op"] = float64(usage.wireBytes) / attempted
		m["protocol.writes_per_op"] = float64(usage.wireWrites) / attempted
		sortDurations(total.lat)
		loadgenMetrics(m, total)
		// The layers' counters are the last epoch's.
		layerCounters(m, s, total)
		if err := runLadder(cfg, w, in, m, rep); err != nil {
			return nil, err
		}
		rep.Metrics = m.render(perLayerSpecs)
	} else {
		rep.Metrics = m.render(endToEndSpecs)
	}
	if rep.Failed > 0 {
		rep.Correct = false
	}
	return rep, nil
}

// setUp assembles the workload's system, registers its catalog, starts and
// dials the loopback daemon where the workload has one, and runs the fixed
// warm-up: everything between process start and the first measured op.
func setUp(w *workloadDef, in *inputs) (*sut, error) {
	sys, err := assemble(in, w.stack)
	if err != nil {
		return nil, err
	}
	s := &sut{system: sys}
	if w.conns > 0 {
		if s.daemon, err = serve(sys, w.conns); err != nil {
			return nil, err
		}
	}
	t := newTally(len(in.warm))
	if w.stack.storm {
		s.monitor = sys.Monitor()
		// The standing population comes first; warm-up rounds then churn it.
		for i := 0; i < stormSessions; i++ {
			if !s.admit(context.Background(), in, in.warm[i%len(in.warm)], t) {
				break
			}
		}
	}
	w.drive(s, in, &phase{reqs: in.warm, t: t, callers: wireCallers, deadline: time.Now().Add(time.Hour)})
	if t.failed > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up: %d of %d ops failed: %s", t.failed, t.attempted, strings.Join(t.problems, "; "))
	}
	return s, nil
}
