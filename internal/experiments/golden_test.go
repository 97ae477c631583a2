package experiments

import (
	"bytes"
	"cmp"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden from this run")

const goldenPath = "testdata/all.golden"

// allRun is Run("all")'s output, produced once per test binary, so the
// experiments run once however many tests read it.
var allRun = sync.OnceValues(func() (string, error) {
	var buf bytes.Buffer
	err := Run("all", &buf)
	return buf.String(), err
})

func runAll(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	out, err := allRun()
	if err != nil {
		t.Fatalf("Run(all): %v\n%s", err, out)
	}
	return out
}

var e9Time = regexp.MustCompile(`^(\d+ +\d+ +\d+ +)[0-9.]+(ns|µs|ms|s)$`)

// mask blanks what the host decides rather than the code: E9's wall-clock
// column.
func mask(out string) string {
	lines := strings.Split(out, "\n")
	id := ""
	for i, l := range lines {
		if h, ok := sectionID(l); ok {
			id = h
			continue
		}
		if id == "E9" {
			lines[i] = e9Time.ReplaceAllString(l, "${1}<time>")
		}
	}
	return strings.Join(lines, "\n")
}

// sectionID returns the experiment id of a "=== E5: ..." report header.
func sectionID(line string) (string, bool) {
	rest, ok := strings.CutPrefix(line, "=== ")
	if !ok {
		return "", false
	}
	id, _, ok := strings.Cut(rest, ":")
	return id, ok
}

// sections splits a run into its experiments' reports, in order, keyed by id.
func sections(out string) (ids []string, byID map[string]string) {
	byID = map[string]string{}
	id := ""
	for _, l := range strings.SplitAfter(out, "\n") {
		if h, ok := sectionID(l); ok {
			id = h
			ids = append(ids, id)
		}
		byID[id] += l
	}
	return ids, byID
}

// firstDiff describes the first line where two sections differ, or returns
// "" when they are equal.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl || i >= len(w) || i >= len(g) {
			return fmt.Sprintf("line %d differs\n  golden: %q\n  got:    %q", i+1, wl, gl)
		}
	}
	return ""
}

func readGolden(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (create it with `go test ./internal/experiments -run TestGolden -update`)", err)
	}
	return string(b)
}

// TestGolden compares the masked output of every experiment with
// testdata/all.golden, naming each section that differs. A change that
// moves a figure on purpose rewrites the file with -update, and its diff is
// the change's experiment diff.
func TestGolden(t *testing.T) {
	got := mask(runAll(t))
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if got == want {
		return
	}
	wantIDs, wantBy := sections(want)
	gotIDs, gotBy := sections(got)
	if strings.Join(wantIDs, " ") != strings.Join(gotIDs, " ") {
		t.Errorf("sections %v, golden has %v", gotIDs, wantIDs)
	}
	seen := map[string]bool{}
	for _, id := range append([]string{""}, append(wantIDs, gotIDs...)...) {
		if seen[id] {
			continue
		}
		seen[id] = true
		if d := firstDiff(wantBy[id], gotBy[id]); d != "" {
			t.Errorf("%s: %s", cmp.Or(id, "before the first section"), d)
		}
	}
	t.Log("if the change is intended: go test ./internal/experiments -run TestGolden -update")
}

// checkSection runs one experiment afresh and compares its report with its
// section of the golden file, so a failure names the experiment and
// `-count=N` repeats the experiment N times.
func checkSection(t *testing.T, id string) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs the experiment")
	}
	_, got := sections(mask(runToString(t, id)))
	_, want := sections(readGolden(t))
	if want[id] == "" {
		t.Fatalf("%s has no section in %s", id, goldenPath)
	}
	if d := firstDiff(want[id], got[id]); d != "" {
		t.Errorf("%s: %s", id, d)
	}
}

func TestMask(t *testing.T) {
	for _, tc := range []struct{ name, in, want string }{
		{"E9 time", "=== E9: x ===\n4          8          4096       9.493ms\n",
			"=== E9: x ===\n4          8          4096       <time>\n"},
		{"E19 row", "=== E19: x ===\nsteady 1x        667/s       400     58.0%\n", ""},
		{"other section", "=== E8: x ===\nsteady 1x        298/s\nGOMAXPROCS=2\n4          8          4096       9.493ms\n", ""},
	} {
		want := tc.want
		if want == "" {
			want = tc.in
		}
		if got := mask(tc.in); got != want {
			t.Errorf("%s: mask(%q) = %q, want %q", tc.name, tc.in, got, want)
		}
	}
}

var (
	// A number follows a non-word character, so a minus sign right after a
	// word character, as in "4-5", is a hyphen.
	docNumber = regexp.MustCompile(`(?:^|\W)(-?\d+(?:\.\d+)?)`)
	docName   = regexp.MustCompile(`\b(?:SUCCEEDED|FAILED[A-Z]+|DESIRABLE|ACCEPTABLE|CONSTRAINT)\b`)
)

// docMeasured reads EXPERIMENTS.md's tables and returns, per experiment id,
// each row's cell under the header that starts with "Measured". Rows E3a,
// E3b and E3c belong to E3.
func docMeasured(t *testing.T) map[string][]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string][]string{}
	col := -1
	inTable := false
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "|") {
			inTable = false
			continue
		}
		row := strings.Split(strings.Trim(line, "| "), "|")
		for i := range row {
			row[i] = strings.TrimSpace(row[i])
		}
		if !inTable {
			inTable, col = true, -1
			for i, h := range row {
				if strings.HasPrefix(h, "Measured") {
					col = i
				}
			}
			continue
		}
		if col < 0 || col >= len(row) || strings.HasPrefix(row[0], "-") {
			continue
		}
		id := strings.TrimRight(row[0], "abc")
		cells[id] = append(cells[id], row[col])
	}
	return cells
}

// hasNumber reports whether num occurs in text on number boundaries:
// "31.7" is not in "31.72", nor "7" in "31.7".
func hasNumber(text, num string) bool {
	isDigit := func(i int) bool { return i >= 0 && i < len(text) && text[i] >= '0' && text[i] <= '9' }
	for i := 0; ; i++ {
		j := strings.Index(text[i:], num)
		if j < 0 {
			return false
		}
		i += j
		end := i + len(num)
		before := isDigit(i-1) || (i > 0 && text[i-1] == '.' && isDigit(i-2))
		after := isDigit(end) || (end < len(text) && text[end] == '.' && isDigit(end+1))
		if !before && !after {
			return true
		}
	}
}

// TestExperimentsDoc checks every figure and status name EXPERIMENTS.md
// quotes as measured against that experiment's section of the golden. E9
// measures the host and is not quoted exactly.
func TestExperimentsDoc(t *testing.T) {
	_, golden := sections(readGolden(t))
	cells := docMeasured(t)
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E10",
		"E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20"} {
		if len(cells[id]) == 0 {
			t.Errorf("%s: no Measured cell in EXPERIMENTS.md", id)
		}
		for _, cell := range cells[id] {
			cell = strings.NewReplacer(`\$`, "$", "−", "-").Replace(cell)
			for _, m := range docNumber.FindAllStringSubmatch(cell, -1) {
				if num := m[1]; !hasNumber(golden[id], num) {
					t.Errorf("%s: EXPERIMENTS.md quotes %s, which the output does not print\n  cell: %s", id, num, cell)
				}
			}
			for _, name := range docName.FindAllString(cell, -1) {
				if !slices.Contains(docName.FindAllString(golden[id], -1), name) {
					t.Errorf("%s: EXPERIMENTS.md quotes %s, which the output does not print\n  cell: %s", id, name, cell)
				}
			}
		}
	}
}
