// Package archtest checks the repository's structural rules: invariants
// earlier simplifications established (one way to build a manager, one wire
// codec, one clock, ...) that the compiler cannot see. The test parses every
// Go file of the module with go/parser and checks each rule on the syntax
// tree, resolving import names, so a renamed import hides nothing.
package archtest

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// root is the module root, seen from this package's directory.
const root = "../.."

// file is one Go source file, or one document when ast is nil.
type file struct {
	path  string         // slash-separated, relative to root
	fset  *token.FileSet // holds this file alone, so a Pos is an offset + 1
	ast   *ast.File
	facts []fact
}

// fact is what a rule can match in a Go file: a comment, an identifier, a
// quoted string literal, a function's header, a call head, or an imported
// member under its import path ("time.Now" however time is imported). A
// call head is what a grep sees of a call: callee, "(", and the first
// argument if it is a literal or ")" if there is none (`h.Set("codec"`).
// fn is the header of the function the fact lies in, "" for comments. In a
// document the facts are `go run` commands, fn the package each names.
type fact struct {
	pos      token.Pos
	fn, text string
}

// code reports whether f is non-test Go outside the benchmark module.
func (f *file) code() bool {
	return f.ast != nil && !strings.HasSuffix(f.path, "_test.go") && !f.under("bench/")
}

func (f *file) under(prefixes ...string) bool {
	return slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(f.path, p) })
}

func parse(rel, src string) (*file, error) {
	f := &file{path: rel, fset: token.NewFileSet()}
	if !strings.HasSuffix(rel, ".go") {
		f.fset.AddFile(rel, -1, len(src)).SetLinesForContent([]byte(src))
		for _, m := range goRun.FindAllStringSubmatchIndex(src, -1) {
			pkg, _ := build.ImportDir(filepath.Join(root, src[m[2]:m[3]]), 0)
			f.facts = append(f.facts, fact{token.Pos(1 + m[0]), pkg.Name, src[m[0]:m[1]]})
		}
		return f, nil
	}
	var err error
	if f.ast, err = parser.ParseFile(f.fset, rel, src, parser.ParseComments|parser.SkipObjectResolution); err != nil {
		return nil, err
	}
	imports := map[string]string{}
	for _, im := range f.ast.Imports {
		p := strings.Trim(im.Path.Value, `"`)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = p
	}
	for _, cg := range f.ast.Comments {
		for _, c := range cg.List {
			f.facts = append(f.facts, fact{c.Pos(), "", c.Text})
		}
	}
	for _, d := range f.ast.Decls {
		fn := ""
		if fd, ok := d.(*ast.FuncDecl); ok {
			fn = src[fd.Pos()-1:fd.Name.End()-1] + "("
		}
		add := func(n ast.Node, text string) { f.facts = append(f.facts, fact{n.Pos(), fn, text}) }
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				add(n, fn)
			case *ast.Ident:
				add(n, n.Name)
			case *ast.BasicLit:
				add(n, n.Value)
			case *ast.CallExpr:
				end := n.Lparen + 1
				if len(n.Args) == 0 {
					end = n.Rparen + 1
				} else if _, ok := n.Args[0].(*ast.BasicLit); ok {
					end = n.Args[0].End()
				}
				add(n, src[n.Pos()-1:end-1])
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					add(n, imports[x.Name]+"."+n.Sel.Name)
				}
			}
			return true
		})
	}
	return f, nil
}

// rule is one structural invariant. It flags each fact of a file in scope
// that re matches, except in the functions outside lists and, if with is
// set, in functions without a fact that with matches. plant, and each of
// more, parsed as the file at, must be flagged.
type rule struct {
	name           string
	scope          func(*file) bool
	re, with       *regexp.Regexp
	outside        []string
	msg, at, plant string
	more           []string
}

var rules = []rule{{
	name: "no deprecated API twins", scope: func(f *file) bool { return f.ast != nil },
	re:  regexp.MustCompile(`(?s)^/[/*].*Deprecated:`),
	msg: "a Deprecated: marker means two ways to make one call; delete the old one",
	at:  "bench/x_test.go", plant: "package bench\n\n// Old is the old way.\n//\n// Deprecated: use New.\nfunc Old() {}\n",
}, {
	name: "one way to assemble a system", scope: func(f *file) bool { return f.code() && !f.under("internal/testbed/") },
	re:  regexp.MustCompile(`^qosneg/internal/core\.NewManager$`),
	msg: "only internal/testbed builds the manager; assemble through testbed.New or qosneg.New, not a second way",
	at:  "cmd/qosnegd/x.go", plant: "package main\n\nimport c \"qosneg/internal/core\"\n\nfunc f() { c.NewManager(nil, nil, c.Pricing{}, c.Options{}) }\n",
}, {
	name: "one wire codec", scope: (*file).code,
	re:  regexp.MustCompile(`CodecJSON|exchangeJSON|watchJSON|\.[A-Za-z]+\("codec"`),
	msg: "binary/2 is the only wire codec; JSON is the hello line alone",
	at:  "internal/protocol/x.go", plant: "package protocol\n\nfunc f(h header) { h.Set(\"codec\", \"json/1\") }\n",
}, {
	name: "one hello line", scope: (*file).code,
	re:      regexp.MustCompile(`^(\w+\.)?(write|read)EnvelopeLine\(`),
	outside: []string{"func (s *Server) handle(", "func (c *Client) handshake("},
	msg:     "a JSON envelope line outside Server.handle and Client.handshake",
	at:      "internal/protocol/x.go", plant: "package protocol\n\nfunc (s *Server) serve(c conn) { writeEnvelopeLine(c, hello{}) }\n",
}, {
	// One list of the names the mechanisms deleted for "one negotiate RPC",
	// "one breaker table", "no unset knobs", "one count per fact", "one
	// arrival driver", "one record of commit outcomes", "one ops read", "one
	// manager", "every value kept once", "one way to build an offer" and
	// "a flat importance profile" used.
	name: "retired names", scope: (*file).code,
	re: regexp.MustCompile(`BatchNegotiate|MsgBatch|BatchItem|batch-negotiate|TimeoutMs|ApplyQuarantine|PublishQuarantine|Breakers|` +
		`\bThompson\b|\bsplitmix\b|SetOccupancy|MaxOccupancy|HintDecay|MinRetryAfter|MaxRetryAfter|` +
		`AdaptationPolicy|OrderTargets|OrderCommits|WithOptions\(|policy-seed|\.topK\(\)|` +
		`addStats|serverHealthGauges|offerCacheLookup|statsMu|\bc\.shedCtr\b|admitCtr|inflightG|limitG|hintG|p99G|` +
		`NewOpenLoop|OpenLoopSpec|BurstFactor|DiurnalAmplitude|` +
		`ObserveCommit|PolicyObserver|CommitObservation|latencyWeight|` +
		`MsgStats|MsgServerLoads|StatsInfoPayload|ServerLoadsPayload|` +
		`ShardHooks|SumStats|NextSessionID|MetricShardRouted|MetricShardLiveSessions|qosneg_shard_|qosneg/internal/shard\b|` +
		`GaugeFamily|streamGauge|connGauge|redialCtr|\bc\.connCtr\b|badAcquires|` +
		`\bMaterializeLimit\b|\bbuildOffer\b|internal/offer\.Walk\b|^func Walk\(|\bcandidateSet\b|` +
		`\bcloneMap\b|\bintMap\b|\blanguageMap\b|\bsortedKeys\b`),
	msg: "one request negotiates one document; a batch is concurrent Negotiate calls on one connection, canceled by CANCEL frames" +
		" / one server table holds every quarantine; a quarantine is one fact, never copied between tables" +
		" / a setting only its default ever reaches is a constant; one core.Policy orders step 5 and adaptation" +
		" / a value its owner keeps is read at Snapshot time (telemetry.Collector), not counted again in the registry" +
		" / workload.Generator is the one arrival source and Generator.Drive the one driver; the shapes' tuning is constant" +
		" / the server table is the one record of commit outcomes; a policy reads its rows and keeps no evidence of its own" +
		" / the metrics snapshot is the one ops read; qosctl renders stats and servers from it" +
		" / one manager runs every system: no shard router, per-shard hooks, strided ids or per-shard series (a fleet measured no faster)" +
		" / a gauge is a collector over its owner's state, and a count its owner keeps is read from the owner; the ledger only reads tables" +
		" / a classification writes only the offers it keeps, through the one offer writer, and the offer cache memoizes no offer product" +
		" / an importance profile is a flat value: copied by assignment, coded by one fixed-table coder",
	at: "internal/protocol/x.go", plant: "package protocol\n\nfunc (c *Client) f(m *Manager) {\n\t_ = m.topK()\n\tc.roundTrip(Envelope{Type: MsgStats}, &StatsInfoPayload{})\n}\n",
	more: []string{
		"package protocol\n\nvar _ core.ShardHooks\n",
		"package protocol\n\nvar st = core.SumStats(m)\n",
		"package protocol\n\nfunc f(h hooks) { _ = h.NextSessionID() }\n",
		"package protocol\n\nvar n = shard.MetricShardRouted\n",
		"package protocol\n\nvar n = shard.MetricShardLiveSessions\n",
		"package protocol\n\nconst n = \"qosneg_shard_routed_total\"\n",
		"package protocol\n\nimport _ \"qosneg/internal/shard\"\n",
		"package protocol\n\nvar f *telemetry.GaugeFamily\n",
		"package protocol\n\nfunc (c *Client) f() { c.streamGauge.Add(1) }\n",
		"package protocol\n\nfunc (s *Server) f() { s.connGauge.Add(-1) }\n",
		"package protocol\n\nfunc (c *Client) f() { c.redialCtr.Inc() }\n",
		"package protocol\n\nfunc (c *Client) f() { c.connCtr.Inc() }\n",
		"package protocol\n\nfunc (l *Ledger) f() { l.badAcquires.Add(1) }\n",
		"package protocol\n\nvar n = offercache.MaterializeLimit\n",
		"package protocol\n\nfunc f(doc media.Document) { _ = buildOffer(doc, nil, nil, 0) }\n",
		"package protocol\n\nimport \"qosneg/internal/offer\"\n\nfunc f() { offer.Walk(doc, cands, yield) }\n",
		"package protocol\n\nfunc Walk(doc media.Document, yield func(SystemOffer) bool) {}\n",
		"package protocol\n\nfunc (m *Manager) f() { m.candidateSet(ctx, doc, mach) }\n",
		"package protocol\n\nfunc f(m map[int]float64) map[int]float64 { return cloneMap(m) }\n",
		"package protocol\n\nfunc (c *coder) f(m *map[int]float64) { intMap(c, m) }\n",
		"package protocol\n\nfunc (c *coder) f(m *map[qos.Language]float64) { c.languageMap(m) }\n",
		"package protocol\n\nfunc f(m map[int]float64) { _ = sortedKeys(m, nil) }\n",
	},
}, {
	name: "the wire reads no fleet", scope: func(f *file) bool { return f.code() && f.under("internal/protocol/") },
	re:  regexp.MustCompile(`^qosneg/internal/(shard|testbed)\.`),
	msg: "the wire reads the manager surface and telemetry; it neither fronts a fleet nor assembles the system it serves",
	at:  "internal/protocol/x.go", plant: "package protocol\n\nimport \"qosneg/internal/testbed\"\n\nvar bed = testbed.MustNew(testbed.Spec{})\n",
	more: []string{"package protocol\n\nimport \"qosneg/internal/shard\"\n\nvar rows []shard.Stat\n"},
}, {
	name: "one clock", scope: func(f *file) bool {
		return f.code() && f.under("internal/core/", "internal/admission/", "internal/adaptation/",
			"internal/session/", "internal/protocol/server.go", "internal/protocol/playout.go",
			"internal/faults/", "internal/workload/", "internal/experiments/overload.go")
	},
	re:  regexp.MustCompile(`^time\.(Now|Since|Until|AfterFunc|NewTicker|NewTimer|After|Tick|Sleep)$`),
	msg: "time enters through internal/clock; read the component's clock.Clock, not the time package",
	at:  "internal/core/x.go", plant: "package core\n\nimport t \"time\"\n\nfunc f() { _ = t.Now() }\n",
}, {
	name: "no tickers", scope: (*file).code,
	re:  regexp.MustCompile(`^time\.NewTicker$`),
	msg: "playout ticks on a clock.Clock in session.Player, not on a ticker",
	at:  "cmd/qosnegd/x.go", plant: "package main\n\nimport \"time\"\n\nvar tk = time.NewTicker(time.Second)\n",
}, {
	name: "one playout loop", scope: func(f *file) bool { return f.code() && !f.under("internal/session/") },
	// Comments lie in no function (""), so they never make one a loop.
	re: regexp.MustCompile(`\.Complete\(`), with: regexp.MustCompile(`\.Advance\(`), outside: []string{""},
	msg: "a second Advance/Complete playout loop outside internal/session; drive sessions with session.Player",
	at:  "internal/protocol/x.go", plant: "package protocol\n\nfunc drive(m manager, id uint64) {\n\tm.Advance(id, 1)\n\tm.Complete(id)\n}\n",
}, {
	name: "one time source for every driver", scope: func(f *file) bool {
		return f.code() && !f.under("internal/sim/", "internal/clock/", "internal/experiments/")
	},
	re:  regexp.MustCompile(`^qosneg/internal/sim\.(Engine|NewEngine)$`),
	msg: "drivers take a clock.Clock; only experiments build engines, and clock.Sim adapts them",
	at:  "internal/adaptation/x.go", plant: "package adaptation\n\nimport s \"qosneg/internal/sim\"\n\nfunc (m *Monitor) Attach(e *s.Engine) {}\n",
}, {
	name: "one Dial", scope: func(f *file) bool { return f.code() && f.under("internal/protocol/") },
	re:  regexp.MustCompile(`^func Dial\w+\(|^(Default)?RetryPolicy$`),
	msg: "protocol.Dial(ctx, addr, opts...) is the one way to connect; the retry schedule is a constant",
	at:  "internal/protocol/x.go", plant: "package protocol\n\nfunc DialContext(ctx context.Context, addr string) (*Client, error) { return nil, nil }\n",
}, {
	name: "one way to serve a system", scope: func(f *file) bool { return f.code() && f.path != "qosneg.go" },
	re:  regexp.MustCompile(`^qosneg/internal/protocol\.NewServer$`),
	msg: "serve a system through qosneg.System.Serve, which attaches playout; not a second server assembly",
	at:  "cmd/qosnegd/x.go", plant: "package main\n\nimport \"qosneg/internal/protocol\"\n\nvar srv = protocol.NewServer(nil, nil)\n",
}, {
	name: "docs name only commands that exist", scope: func(f *file) bool { return f.ast == nil },
	re: regexp.MustCompile(`^go run`), outside: []string{"main"},
	msg: "a `go run` in the docs names a directory without a main package",
	at:  "README.md", plant: "Run it: `go run ./examples/quickstart`.\n",
}}

var goRun = regexp.MustCompile(`go run\s+\./([\w./-]*[\w-])`)

// load parses every Go file under root outside hidden directories, and the
// documents whose `go run` commands must name a main package.
func load(t *testing.T) (files []*file) {
	add := func(rel string) {
		src, err := os.ReadFile(filepath.Join(root, rel))
		f, perr := parse(rel, string(src))
		if err = errors.Join(err, perr); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			t.Fatal(err)
		case d.IsDir() && p != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case strings.HasSuffix(p, ".go"):
			add(filepath.ToSlash(p[len(root)+1:]))
		}
		return nil
	})
	for _, d := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		add(d)
	}
	return files
}

// violations lists r's violations in f.
func violations(r rule, f *file) (out []string) {
	if !r.scope(f) {
		return nil
	}
	with := map[string]bool{}
	for _, ft := range f.facts {
		with[ft.fn] = with[ft.fn] || r.with == nil || r.with.MatchString(ft.text)
	}
	for _, ft := range f.facts {
		if r.re.MatchString(ft.text) && with[ft.fn] && !slices.Contains(r.outside, ft.fn) {
			out = append(out, fmt.Sprintf("%s: %s", f.fset.Position(ft.pos), ft.text))
		}
	}
	return out
}

func TestRules(t *testing.T) {
	files := load(t)
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			for _, src := range append([]string{r.plant}, r.more...) {
				if plant, err := parse(r.at, src); err != nil || len(violations(r, plant)) == 0 {
					t.Errorf("self-check: the planted violation in %s is not flagged (%v):\n%s", r.at, err, src)
				}
			}
			for _, f := range files {
				for _, v := range violations(r, f) {
					t.Errorf("%s\ncheck: %s", v, r.msg)
				}
			}
		})
	}
}
