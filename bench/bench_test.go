package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// manifest is the part of BENCHMARK.json the binary must agree with.
type manifest struct {
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []manifestMetric             `json:"end_to_end"`
	PerLayer   []manifestMetric             `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesBinary holds BENCHMARK.json and the binary to the same
// workloads, frozen at the same op counts, and the same metrics, name for
// name and unit for unit.
func TestManifestMatchesBinary(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the binary runs %d", len(m.Workloads), len(workloadDefs))
	}
	for i, w := range m.Workloads {
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the binary %q", i, w.Name, workloadDefs[i].name)
		}
		// The schema gives a workload a name and a why, so the why states the count.
		frozen := fmt.Sprintf("frozen at %d ops a run", workloadDefs[i].opsPerSecond*m.RunSeconds)
		if !strings.HasSuffix(w.Why, frozen) {
			t.Errorf("workload %s: the binary runs %q at run_seconds %d, BENCHMARK.json says %q", w.Name, frozen, m.RunSeconds, w.Why)
		}
	}
	compare := func(kind string, listed []manifestMetric, specs []metricSpec) {
		if len(listed) != len(specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the binary emits %d", kind, len(listed), len(specs))
		}
		units := make(map[string]string, len(specs))
		for _, s := range specs {
			units[s.name] = s.unit
		}
		for _, l := range listed {
			unit, ok := units[l.Name]
			if !ok {
				t.Errorf("%s: BENCHMARK.json lists %q, which the binary does not emit", kind, l.Name)
			} else if unit != l.Unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the binary", kind, l.Name, l.Unit, unit)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEndSpecs)
	compare("per_layer", m.PerLayer, perLayerSpecs)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloadsAtSmallScale runs every workload, untraced and traced, at
// 1/200 of its frozen size and checks that every metric BENCHMARK.json
// names is emitted, finite, well named and unit-tagged, that every output
// check passes and that the traced run leaves its span file.
func TestWorkloadsAtSmallScale(t *testing.T) {
	m := readManifest(t)
	out := t.TempDir()
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			rep, err := execute(runConfig{workload: w.name, seed: 1996, seconds: 10, trace: trace, scale: 1.0 / 200, outDir: out})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s (trace %v): %d of %d ops failed: %v", w.name, trace, rep.Failed, rep.Attempted, rep.Problems)
			}
			for _, c := range rep.Checks {
				if !c.Passed {
					t.Errorf("%s (trace %v): check %s failed: %s", w.name, trace, c.Name, c.Detail)
				}
			}
			want := m.EndToEnd
			if trace {
				want = m.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics emitted, BENCHMARK.json names %d", w.name, trace, len(rep.Metrics), len(want))
			}
			for _, spec := range want {
				got, ok := rep.Metrics[spec.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): metric %s not emitted", w.name, trace, spec.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s (trace %v): metric %s is %v", w.name, trace, spec.Name, got.Value)
				case got.Unit != spec.Unit:
					t.Errorf("%s (trace %v): metric %s has unit %q, want %q", w.name, trace, spec.Name, got.Unit, spec.Unit)
				case !metricName.MatchString(spec.Name):
					t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", spec.Name)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, spec.Name, got.Value)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
		}
	}
}

// TestPinToOneCPU checks that pinning leaves every thread of the process
// on the same single CPU and that restoring gives the first mask back.
func TestPinToOneCPU(t *testing.T) {
	before, err := getAffinity(0)
	if err != nil {
		t.Skip("no sched_getaffinity here:", err)
	}
	_, restore, err := pinToOneCPU()
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		t.Fatal(err)
	}
	var pinned cpuMask
	for i, task := range tasks {
		var tid int
		fmt.Sscan(task.Name(), &tid)
		m, err := getAffinity(tid)
		if err != nil {
			continue // the thread has ended
		}
		if i == 0 {
			pinned = m
		}
		cpus := 0
		for _, word := range m {
			cpus += bits.OnesCount64(word)
		}
		if cpus != 1 || m != pinned {
			t.Errorf("thread %d may run on %d CPUs after pinning, or not on the others' CPU", tid, cpus)
		}
	}
	restore()
	if after, _ := getAffinity(0); after != before {
		t.Error("restore did not give the first mask back")
	}
}
