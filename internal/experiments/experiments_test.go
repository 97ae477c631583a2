package experiments

import (
	"bytes"
	"errors"
	"regexp"
	"strconv"
	"testing"
)

func runToString(t *testing.T, id string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Run(id, &buf); err != nil {
		t.Fatalf("Run(%s): %v\n%s", id, err, buf.String())
	}
	return buf.String()
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "F1", "F2"}
	all := All()
	if len(all) != len(want) {
		ids := make([]string, len(all))
		for i, e := range all {
			ids[i] = e.ID
		}
		t.Fatalf("registered %v, want %v", ids, want)
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("All()[%d] = %s, want %s", i, all[i].ID, id)
		}
		if _, ok := Lookup(id); !ok {
			t.Errorf("Lookup(%s) failed", id)
		}
	}
	if _, ok := Lookup("E99"); ok {
		t.Error("ghost experiment found")
	}
	var buf bytes.Buffer
	if err := Run("E99", &buf); err == nil {
		t.Error("Run(E99) succeeded")
	}
}

// rows returns the submatches of pattern's matches in one experiment's
// report, failing the test unless there are exactly n.
func rows(t *testing.T, id, pattern string, n int) [][]string {
	t.Helper()
	out := runToString(t, id)
	m := regexp.MustCompile(`(?m)`+pattern).FindAllStringSubmatch(out, -1)
	if len(m) != n {
		t.Fatalf("%s: %d rows match %q, want %d:\n%s", id, len(m), pattern, n, out)
	}
	return m
}

func num(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestE8SmartBeatsBasic(t *testing.T) {
	// Smart negotiation degrades instead of blocking: at every load its
	// acceptance is at least basic negotiation's.
	for _, r := range rows(t, "E8", `^(\S+) +accept +([\d.]+)%.* ([\d.]+)%$`, 4) {
		if smart, basic := num(t, r[2]), num(t, r[3]); smart < basic-0.001 {
			t.Errorf("smart (%.1f%%) below basic (%.1f%%) at %s", smart, basic, r[1])
		}
	}
}

func TestE12CostCapAdmitsMore(t *testing.T) {
	r := rows(t, "E12", `^no cost constraint +admitted +(\d+).*\n4\$ budget +admitted +(\d+)`, 1)[0]
	if noCap, capped := num(t, r[1]), num(t, r[2]); capped <= noCap {
		t.Errorf("budgeted users admitted %v ≤ greedy %v", capped, noCap)
	}
}

func TestE13ClassifierAblation(t *testing.T) {
	acc, sat := map[string]float64{}, map[string]float64{}
	for _, r := range rows(t, "E13", `^(sns-primary|oif-only|cost-only|qos-only) +([\d.]+)% +[\d.]+% +([\d.]+)`, 4) {
		acc[r[1]], sat[r[1]] = num(t, r[2]), num(t, r[3])
	}
	// cost-only accepts the most; qos-only the least; sns-primary sits
	// between with the highest (or tied-highest) satisfaction.
	if !(acc["cost-only"] >= acc["sns-primary"] && acc["sns-primary"] > acc["qos-only"]) {
		t.Errorf("acceptance ordering violated: %v", acc)
	}
	if sat["sns-primary"] <= sat["cost-only"] {
		t.Errorf("sns-primary satisfaction should beat cost-only: %v", sat)
	}
}

func TestE15FederationScales(t *testing.T) {
	r := rows(t, "E15", `^\d provider\(s\): +(\d+)/`, 3)
	if a, b, c := num(t, r[0][1]), num(t, r[1][1]), num(t, r[2][1]); !(a < b && b < c) {
		t.Errorf("federation not monotone: %v, %v, %v", a, b, c)
	}
}

func TestE17MultiplexingGain(t *testing.T) {
	r := rows(t, "E17", `^by-peak +admits +(\d+).*\nby-average +admits +(\d+)`, 1)[0]
	if byPeak, byAvg := num(t, r[1]), num(t, r[2]); byAvg < 2*byPeak {
		t.Errorf("multiplexing gain too small: by-average %v vs by-peak %v", byAvg, byPeak)
	}
}

func TestE18ReplicationMonotone(t *testing.T) {
	r := rows(t, "E18", `^replication \d: +(\d+)/`, 3)
	if a, b, c := num(t, r[0][1]), num(t, r[1][1]), num(t, r[2][1]); !(a <= b && b <= c && c > a) {
		t.Errorf("replication not helping: %v, %v, %v", a, b, c)
	}
}

// The experiments below have no claim test of their own: each is checked
// against its section of the golden, so a failure names the experiment.
func TestE1SelectsFullQualityOffer(t *testing.T)      { checkSection(t, "E1") }
func TestE2ReproducesPaperSNS(t *testing.T)           { checkSection(t, "E2") }
func TestE3ReproducesPaperOIF(t *testing.T)           { checkSection(t, "E3") }
func TestE4MappingNumbers(t *testing.T)               { checkSection(t, "E4") }
func TestE5CostFormula(t *testing.T)                  { checkSection(t, "E5") }
func TestE6AllStatusesAppear(t *testing.T)            { checkSection(t, "E6") }
func TestE7AdaptationTimeline(t *testing.T)           { checkSection(t, "E7") }
func TestE9Scales(t *testing.T)                       { checkSection(t, "E9") }
func TestE10ChoicePeriod(t *testing.T)                { checkSection(t, "E10") }
func TestE11AtomicBeatsGreedy(t *testing.T)           { checkSection(t, "E11") }
func TestE14FutureReservations(t *testing.T)          { checkSection(t, "E14") }
func TestE16AdaptationReducesViolations(t *testing.T) { checkSection(t, "E16") }
func TestE19OverloadStudy(t *testing.T)               { checkSection(t, "E19") }
func TestF1F2Render(t *testing.T)                     { checkSection(t, "F1"); checkSection(t, "F2") }

// TestE20PolicyStudy reruns the E20 matrix on every `-count`, like every
// checkSection test, so a cell that timing decides shows as a difference
// from the golden.
func TestE20PolicyStudy(t *testing.T) { checkSection(t, "E20") }

// TestE20Verdict feeds runE20's verdict a leaked cell and each failed
// claim; every one must be an error, so E20 cannot print its summary.
func TestE20Verdict(t *testing.T) {
	// The measured failed commitments, static then bandit, by breaker and
	// drop rate.
	var measured e20Matrix
	for b, row := range [2][4][2]int{
		{{0, 0}, {25, 1}, {81, 1}, {138, 1}},
		{{0, 0}, {25, 1}, {4, 1}, {3, 1}},
	} {
		for d, cell := range row {
			for p, fails := range cell {
				measured[b][d][p].failedCommits = fails
			}
		}
	}
	if err := e20Verdict(measured); err != nil {
		t.Fatalf("verdict on the measured cells: %v", err)
	}
	for _, tc := range []struct {
		name             string
		breaker, drop, p int
		spoil            func(*e20Outcome)
	}{
		{"leaked cell", 1, 3, 1, func(o *e20Outcome) { o.leak = errors.New("1 reservation open") }},
		{"clean failures, breaker off", 0, 0, 0, func(o *e20Outcome) { o.failedCommits = 1 }},
		{"clean failures, default breaker", 1, 0, 1, func(o *e20Outcome) { o.failedCommits = 1 }},
		{"bandit no fewer, breaker off", 0, 2, 1, func(o *e20Outcome) { o.failedCommits = 81 }},
		{"bandit no fewer, default breaker at 20%", 1, 1, 1, func(o *e20Outcome) { o.failedCommits = 25 }},
		{"bandit more, default breaker", 1, 3, 1, func(o *e20Outcome) { o.failedCommits = 4 }},
	} {
		results := measured
		tc.spoil(&results[tc.breaker][tc.drop][tc.p])
		if err := e20Verdict(results); err == nil {
			t.Errorf("%s: verdict passed", tc.name)
		}
	}
}
