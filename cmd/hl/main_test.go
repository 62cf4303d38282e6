package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hyperloop/internal/check"
	"hyperloop/internal/experiments"
	"hyperloop/internal/metrics"
)

var (
	update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")
	heavy  = flag.Bool("heavy", false, "also compare the pins marked heavy (CI's golden step)")
)

// hl runs the driver in-process over the real registry.
func hl(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(experiments.Scenarios, &out, &errw, args)
	return code, out.String(), errw.String()
}

var nonAlnum = regexp.MustCompile(`[^a-zA-Z0-9]+`)

// stem names a pin's golden files: the scenario name plus its arguments,
// punctuation folded to dashes ("micro -quick" -> "micro-quick").
func stem(name string, p experiments.Pin) string {
	for _, f := range strings.Fields(p.Args) {
		name += "-" + strings.Trim(nonAlnum.ReplaceAllString(f, "-"), "-")
	}
	return name
}

// golden compares got with testdata/file, or rewrites the file under -update.
func golden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/hl -update -heavy` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s changed:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// TestGolden runs every pinned invocation and compares what the pin says to
// compare: stdout byte for byte, the -metrics-json dump by digest (the dumps
// run to hundreds of KiB; `hl stats` on both trees is how to diff one).
// The goldens were captured from the eleven per-study binaries this driver
// replaced, so they pin "same tables, same seeds, same bytes" across the
// move.
func TestGolden(t *testing.T) {
	for _, s := range experiments.Scenarios {
		for _, p := range s.Pins {
			s, p := s, p
			t.Run(stem(s.Name, p), func(t *testing.T) {
				if p.Heavy && !*heavy {
					t.Skip("heavy pin: compared by `go test ./cmd/hl -run TestGolden -heavy`")
				}
				args := append([]string{s.Name}, strings.Fields(p.Args)...)
				dump := filepath.Join(t.TempDir(), "dump.json")
				if p.Compare != experiments.Stdout {
					args = append(args, "-metrics-json", dump)
				}
				code, out, errs := hl(args...)
				if code != 0 {
					t.Fatalf("hl %s: exit %d\n%s%s", strings.Join(args, " "), code, out, errs)
				}
				if p.Compare != experiments.Stdout {
					// The driver's own closing line carries the temp path.
					var ok bool
					if out, ok = strings.CutSuffix(out, "wrote metrics dump to "+dump+"\n"); !ok {
						t.Fatalf("no dump line closing:\n%s", out)
					}
					data, err := os.ReadFile(dump)
					if err != nil {
						t.Fatal(err)
					}
					digest := fmt.Sprintf("sha256:%x %d bytes\n", sha256.Sum256(data), len(data))
					golden(t, stem(s.Name, p)+".dump.golden", []byte(digest))
				}
				if p.Compare != experiments.Dump {
					golden(t, stem(s.Name, p)+".golden", []byte(out))
				}
			})
		}
	}
}

func TestListGolden(t *testing.T) {
	code, out, _ := hl("list")
	if code != 0 {
		t.Fatalf("hl list: exit %d", code)
	}
	golden(t, "list.golden", []byte(out))
	if code, out, _ := hl("list", "-pins"); code != 0 || !strings.Contains(out, "restore |  | -engine-workers N -parallel N | both | heavy=true\n") {
		t.Fatalf("hl list -pins: exit %d\n%s", code, out)
	}
}

// TestRegistry checks the registry's shape: unique documented names, groups
// with explicit members that are plain scenarios, every scenario's output
// pinned by a golden of its own or of a group that runs it, and no golden
// left behind by a pin that no longer exists.
func TestRegistry(t *testing.T) {
	byName := map[string]experiments.Scenario{}
	for _, s := range experiments.Scenarios {
		if s.Name == "" || s.Name == "list" || s.Doc == "" {
			t.Errorf("entry %+q: needs a name (not the built-in list) and a doc line", s.Name)
		}
		if _, dup := byName[s.Name]; dup {
			t.Errorf("duplicate scenario %q", s.Name)
		}
		byName[s.Name] = s
		if (s.Run == nil) == (s.Members == nil) {
			t.Errorf("%s: an entry is either a scenario (Run) or a group (Members)", s.Name)
		}
	}
	pinned := map[string]bool{}
	goldens := map[string]bool{"list.golden": true}
	for _, s := range experiments.Scenarios {
		for _, p := range s.Pins {
			pinned[s.Name] = true
			if p.Compare != experiments.Dump {
				goldens[stem(s.Name, p)+".golden"] = true
			}
			if p.Compare != experiments.Stdout {
				goldens[stem(s.Name, p)+".dump.golden"] = true
			}
			for _, m := range s.Members {
				pinned[m] = true
			}
		}
		for _, m := range s.Members {
			if member, ok := byName[m]; !ok || member.Run == nil {
				t.Errorf("group %s: member %q is not a registered scenario", s.Name, m)
			}
		}
	}
	for _, s := range experiments.Scenarios {
		if s.Run != nil && !pinned[s.Name] {
			t.Errorf("%s: no pin of its own and none on a group that runs it", s.Name)
		}
	}
	files, err := filepath.Glob("testdata/*.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !goldens[filepath.Base(f)] {
			t.Errorf("%s belongs to no pin", f)
		}
	}
}

// A bad invocation exits 2 and names the choices (the per-study binaries
// disagreed: two of them printed nothing and exited 0).
func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"bogus"},
		{"app", "bogus"},
		{"app", "-exp", "fig11"},
		{"micro", "-no-such-flag"},
		{"chaos", "-classes", "bogus"},
		{"stats"},
		{"list", "bogus"},
	} {
		code, out, errs := hl(args...)
		if code != 2 || out != "" || errs == "" {
			t.Errorf("hl %v: exit %d, stdout %q, stderr %q; want exit 2 and a message on stderr only", args, code, out, errs)
		}
	}
	if _, _, errs := hl("bogus"); !strings.Contains(errs, `unknown scenario "bogus"`) || !strings.Contains(errs, " fig11 ") {
		t.Errorf("unknown scenario message does not list the names:\n%s", errs)
	}
}

// The dump is wanted most when a check fails: it is written whatever the
// verdict, and the exit status is still 1.
func TestDumpWrittenOnFailedCheck(t *testing.T) {
	failing := experiments.Scenario{Name: "failing", Doc: "fails one check after collecting a counter",
		Run: func(e *experiments.Env) error {
			reg := metrics.NewRegistry()
			reg.Counter("test", "ran", "failing").Inc()
			e.Merge(reg)
			e.Checks(check.Report{{Name: "always", Err: errors.New("boom")}})
			return nil
		}}
	dump := filepath.Join(t.TempDir(), "dump.json")
	var out, errw bytes.Buffer
	code := run([]experiments.Scenario{failing}, &out, &errw, []string{"failing", "-metrics-json", dump})
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "FAIL") || !strings.HasSuffix(out.String(), "wrote metrics dump to "+dump+"\n") {
		t.Fatalf("stdout lacks the failed check or the dump line:\n%s", out.String())
	}
	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := metrics.ParseJSON(data); err != nil || len(d.Counters) != 1 {
		t.Fatalf("dump does not carry what the scenario collected: %v\n%s", err, data)
	}
}

// invocation matches `hl NAME rest-of-command` wherever a document shows one
// (`go run ./cmd/hl micro -quick`, `hl list -pins`); the command ends at a
// backtick, comment, pipe, bracket or line end.
var invocation = regexp.MustCompile("\\bhl ([a-z][a-z0-9-]*)([^`#|()<>;&\n]*)")

// TestDocsMatchRegistry fails on a documented invocation of a scenario or
// flag that does not exist, and on a scenario neither README.md nor
// EXPERIMENTS.md shows how to run.
func TestDocsMatchRegistry(t *testing.T) {
	shown, reg := map[string]bool{}, withList(experiments.Scenarios)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range invocation.FindAllStringSubmatch(string(text), -1) {
			name, rest := m[1], m[2]
			s, ok := lookup(reg, name)
			if !ok {
				t.Errorf("%s: `hl %s`: no such scenario", doc, name)
				continue
			}
			fs, _ := flagSet(name, members(reg, s), os.Stderr)
			if doc == "README.md" || doc == "EXPERIMENTS.md" {
				shown[name] = true
			}
			for _, word := range strings.Fields(rest) {
				word = strings.Trim(word, "[],.")
				if !strings.HasPrefix(word, "-") || len(word) < 2 {
					continue
				}
				name, _, _ := strings.Cut(word[1:], "=")
				if fs.Lookup(name) == nil {
					t.Errorf("%s: `hl %s %s`: no such flag", doc, m[1], word)
				}
			}
		}
	}
	for _, s := range reg {
		if !shown[s.Name] {
			t.Errorf("`hl %s` appears in neither README.md nor EXPERIMENTS.md", s.Name)
		}
	}
}
