// Command hl regenerates every table and figure of the reproduction: one
// driver over the scenario registry in internal/experiments.
//
//	hl list [-pins]              the scenarios, or the pinned invocations CI and detgate run
//	hl NAME [flags] [operands]   run a scenario, or a group's members in order
//
// The driver owns the shared flags, profiles, the merged -metrics-json dump
// (written whatever the verdict), table rendering and the exit status: 0 pass,
// 1 failed check or runtime error, 2 unknown scenario or flag (DESIGN.md §20).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hyperloop/internal/experiments"
	"hyperloop/internal/metrics"
	"hyperloop/internal/prof"
)

func main() {
	os.Exit(run(experiments.Scenarios, os.Stdout, os.Stderr, os.Args[1:]))
}

// shared are the flags every scenario takes, defined once.
type shared struct {
	seed                      *int64
	quick, csv, verbose       *bool
	parallel, engineWorkers   *int
	metricsJSON, cpu, memProf *string
}

func sharedFlags(fs *flag.FlagSet) shared {
	return shared{
		seed:          fs.Int64("seed", 1, "simulation seed"),
		quick:         fs.Bool("quick", false, "reduced op counts for a fast run"),
		csv:           fs.Bool("csv", false, "emit tables as CSV"),
		verbose:       fs.Bool("v", false, "print fault timelines, per-check details and decision logs"),
		parallel:      fs.Int("parallel", 0, "worker count for independent sweep cells (0 = all cores, 1 = serial)"),
		engineWorkers: fs.Int("engine-workers", 0, "partitioned-engine worker count (0 = all cores, 1 = serial; chaos: N > 0 appends the 1-vs-N determinism gate)"),
		metricsJSON:   fs.String("metrics-json", "", "dump the metrics registry the run collected as JSON to this file"),
		cpu:           fs.String("cpuprofile", "", "write a CPU profile to this file"),
		memProf:       fs.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

func lookup(reg []experiments.Scenario, name string) (experiments.Scenario, bool) {
	for _, s := range reg {
		if s.Name == name {
			return s, true
		}
	}
	return experiments.Scenario{}, false
}

// members expands a group into its scenarios, in the group's order; a plain
// scenario is its own only member.
func members(reg []experiments.Scenario, s experiments.Scenario) []experiments.Scenario {
	if s.Members == nil {
		return []experiments.Scenario{s}
	}
	var out []experiments.Scenario
	for _, name := range s.Members {
		m, _ := lookup(reg, name)
		out = append(out, m)
	}
	return out
}

// flagSet builds the flags `hl name` accepts: the shared ones plus each
// member's own, a name two members share (curve and fusion's -clients)
// defined once.
func flagSet(name string, ms []experiments.Scenario, stderr io.Writer) (*flag.FlagSet, shared) {
	fs := flag.NewFlagSet("hl "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	sh := sharedFlags(fs)
	for _, m := range ms {
		if m.Flags == nil {
			continue
		}
		own := flag.NewFlagSet(m.Name, flag.ContinueOnError)
		m.Flags(own)
		own.VisitAll(func(f *flag.Flag) {
			if fs.Lookup(f.Name) == nil {
				fs.Var(f.Value, f.Name, f.Usage)
			}
		})
	}
	return fs, sh
}

// withList appends the built-in `hl list`: the registry an entry a line, or
// under -pins every pinned invocation as a
// `name | args | worker flags | compare | heavy` row — the table
// scripts/detgate.sh iterates.
func withList(reg []experiments.Scenario) []experiments.Scenario {
	all := reg[:len(reg):len(reg)]
	all = append(all, experiments.Scenario{
		Name: "list", Doc: "this list; -pins prints the pinned invocations CI and detgate run",
		Flags: func(fs *flag.FlagSet) { fs.Bool("pins", false, "print the pinned invocations instead") },
		Run: func(e *experiments.Env) error {
			for _, s := range all {
				if !e.Bool("pins") {
					e.Printf("%-19s %s\n", s.Name, s.Doc)
					if s.Members != nil {
						e.Printf("%-19s = %s\n", "", strings.Join(s.Members, " "))
					}
					continue
				}
				for _, p := range s.Pins {
					e.Printf("%s | %s | %s | %v | heavy=%t\n", s.Name, p.Args, p.Workers, p.Compare, p.Heavy)
				}
			}
			return nil
		}})
	return all
}

// fail reports a bad invocation and the choices; the exit status is 2.
func fail(stderr io.Writer, reg []experiments.Scenario, format string, a ...any) int {
	fmt.Fprintf(stderr, format, a...)
	fmt.Fprint(stderr, "usage: hl NAME [flags] [operands]\nscenarios:")
	for _, s := range reg {
		fmt.Fprint(stderr, " ", s.Name)
	}
	fmt.Fprintln(stderr, "\n`hl list` describes them; `hl NAME -h` prints a scenario's flags.")
	return 2
}

// run is the whole driver: it returns the process exit status.
func run(reg []experiments.Scenario, stdout, stderr io.Writer, args []string) int {
	reg = withList(reg)
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return fail(stderr, reg, "")
	}
	name := args[0]
	s, ok := lookup(reg, name)
	if !ok {
		return fail(stderr, reg, "hl: unknown scenario %q\n", name)
	}
	ms := members(reg, s)
	fs, sh := flagSet(name, ms, stderr)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 && s.Operand == "" {
		return fail(stderr, reg, "hl %s: unexpected argument %q\n", name, fs.Arg(0))
	}

	experiments.SetParallelism(*sh.parallel)
	stopProf, err := prof.Start(*sh.cpu, *sh.memProf)
	if err != nil {
		fmt.Fprintf(stderr, "profile: %v\n", err)
		return 1
	}
	defer stopProf()
	env := &experiments.Env{
		Out: stdout, Seed: *sh.seed, Quick: *sh.quick, CSV: *sh.csv, Verbose: *sh.verbose,
		EngineWorkers: *sh.engineWorkers, Operands: fs.Args(), Flags: fs,
	}
	if *sh.metricsJSON != "" {
		env.Metrics = metrics.NewRegistry()
	}

	status := 0
	for _, m := range ms {
		failed, err := env.Run(m)
		if errors.Is(err, experiments.ErrUsage) {
			fmt.Fprintf(stderr, "hl %s: %v\n", m.Name, err)
			return 2
		}
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", m.Name, err)
			status = 1
			break
		}
		if failed > 0 {
			status = 1
		}
	}
	if env.Metrics != nil {
		data, err := env.Metrics.ExportJSON()
		if err == nil {
			err = os.WriteFile(*sh.metricsJSON, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "metrics-json: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote metrics dump to %s\n", *sh.metricsJSON)
	}
	return status
}
