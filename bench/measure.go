package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value; the JSON shape is the result line's.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec names one metric the binary emits. The lists below must equal
// BENCHMARK.json's; bench_test.go holds them to it.
type metricSpec struct{ name, unit string }

var endToEndSpecs = []metricSpec{
	{"setup_s", "s"},
	{"negotiate_p50_us", "us"},
	{"negotiate_p90_us", "us"},
	{"throughput_ops_s", "ops/s"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KB"},
	{"live_heap_end_mb", "MB"},
}

var perLayerSpecs = []metricSpec{
	{"adapt_p50_us", "us"},
	{"adapt_p90_us", "us"},
	{"retained_kb_per_session", "KB"},
	{"rss_peak_mb", "MB"},
	{"protocol.self_us", "us"},
	{"protocol.allocs_per_rpc", "count"},
	{"protocol.noop_rpc_us", "us"},
	{"protocol.wire_bytes_per_op", "bytes"},
	{"protocol.writes_per_op", "count"},
	{"protocol.shed_reply_us", "us"},
	{"protocol.redials", "count"},
	{"admission.admit_ns", "ns"},
	{"admission.self_us", "us"},
	{"admission.admitted", "count"},
	{"admission.shed", "count"},
	{"admission.shed_ratio", "ratio"},
	{"admission.limit_final", "count"},
	{"admission.retry_hint_ms", "ms"},
	{"shard.self_us", "us"},
	{"shard.sync_us", "us"},
	{"shard.bus_lag_max", "count"},
	{"shard.session_imbalance", "ratio"},
	{"offercache.hit_ratio", "ratio"},
	{"offercache.invalidations", "count"},
	{"offercache.entries", "count"},
	{"offercache.lookup_ns", "ns"},
	{"offercache.store_ns", "ns"},
	{"offer.filter_us", "us"},
	{"offer.classify_us", "us"},
	{"offer.classify_ns_per_offer", "ns"},
	{"offer.allocs_per_classify", "count"},
	{"offer.offers_per_request", "count"},
	{"registry.snapshot_ns", "ns"},
	{"registry.add_us", "us"},
	{"cost.document_ns", "ns"},
	{"core.negotiate_us", "us"},
	{"core.self_us", "us"},
	{"core.allocs_per_negotiate", "count"},
	{"core.step_classification_us", "us"},
	{"core.step_commitment_us", "us"},
	{"core.confirm_us", "us"},
	{"core.reject_us", "us"},
	{"core.complete_us", "us"},
	{"core.adapt_us", "us"},
	{"core.commit_attempts_per_success", "ratio"},
	{"core.retained_bytes_per_session", "bytes"},
	{"cmfs.reserve_ns", "ns"},
	{"cmfs.release_ns", "ns"},
	{"cmfs.rejects", "count"},
	{"transport.connect_us", "us"},
	{"transport.close_us", "us"},
	{"network.findpaths_ns", "ns"},
	{"network.reserve_ns", "ns"},
	{"network.release_ns", "ns"},
	{"ledger.acquire_release_ns", "ns"},
	{"ledger.open_at_end", "count"},
	{"telemetry.overhead_pct", "%"},
	{"telemetry.observe_ns", "ns"},
	{"telemetry.trace_ns", "ns"},
	{"telemetry.snapshot_us", "us"},
	{"adaptation.scan_us", "us"},
	{"adaptation.transitions", "count"},
	{"adaptation.failed", "count"},
	{"loadgen.negotiate_p99_us", "us"},
	{"loadgen.negotiate_p999_us", "us"},
	{"loadgen.samples", "count"},
	{"loadgen.sched_lag_p99_us", "us"},
	{"loadgen.dropped", "count"},
	{"loadgen.ops_attempted", "count"},
	{"loadgen.failed_ops_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.ladder_residual_pct", "%"},
}

// metrics collects values by name and renders them against a spec list:
// every spec is emitted, a layer that did no work on the workload reads 0.
type metrics map[string]float64

func (m metrics) render(specs []metricSpec) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.name] = metric{Value: m[s.name], Unit: s.unit}
	}
	return out
}

// quantile returns the q-quantile of sorted by the nearest-rank rule; 0 for
// no samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) []time.Duration {
	slices.Sort(d)
	return d
}

// median is the middle value (the lower of two) of v; the zero value for none.
func median[T cmp.Ordered](v []T) T {
	if len(v) == 0 {
		var zero T
		return zero
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ns(d time.Duration) float64 { return float64(d) }

// perCall times n back-to-back calls of f and returns the mean: calls that
// take tens of nanoseconds are below the clock's own cost when timed singly.
func perCall(n int, f func()) time.Duration {
	begin := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(begin) / time.Duration(n)
}

// usage is a point reading of the process counters the end-to-end metrics
// difference over the measured phase.
type usage struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// mallocs reads the process malloc counter alone.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeap forces collection (twice, so sync.Pool victims go too) and
// returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// rssPeakMB reads VmHWM; 0 where /proc is not available.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// environment is the stamp every result file carries.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"goVersion"`
	CPUModel   string `json:"cpuModel"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Transport  string `json:"transport"`
}

func readEnvironment() environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Transport:  "system under test and load generator share one process; wire workloads cross the host's loopback (127.0.0.1), no real link",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return env
}

func (e environment) String() string {
	return fmt.Sprintf("commit %s, %s, %s, nproc %d, GOMAXPROCS %d", e.Commit, e.GoVersion, e.CPUModel, e.NumCPU, e.GOMAXPROCS)
}
