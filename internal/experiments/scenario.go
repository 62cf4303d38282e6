package experiments

import (
	"errors"
	"flag"
	"fmt"
	"io"

	"hyperloop/internal/check"
	"hyperloop/internal/metrics"
	"hyperloop/internal/sim"
	"hyperloop/internal/stats"
)

// The scenario layer: every study the repository regenerates is one
// Scenario in the Scenarios list (registry.go), rendered by a function that
// sits beside the RunX it prints. cmd/hl is the only driver: it owns the
// shared flags, profiles, the merged metrics dump, table rendering and exit
// codes, and hands each scenario an Env. DESIGN.md §20.

// Scenario is one registry entry: `hl <Name>` runs it.
type Scenario struct {
	Name string
	Doc  string // one line, shown by `hl list`
	// Members makes the entry a group: `hl <Name>` runs the named scenarios
	// in this order against one Env, their outputs back to back. A group has
	// no Run of its own.
	Members []string
	// Operand names the positional arguments the scenario takes ("FILE");
	// empty means any positional argument is a usage error.
	Operand string
	// Flags registers the scenario's own flags (the shared ones are the
	// driver's). Run reads them back through Env.Int / Env.Str / Env.Bool.
	Flags func(*flag.FlagSet)
	Run   func(*Env) error
	// Pins are the invocations whose output is golden-pinned: what CI and
	// scripts/detgate.sh run.
	Pins []Pin
}

// Pin is one pinned invocation of a scenario.
type Pin struct {
	// Args are the flags after the scenario name, as CI runs them.
	Args string
	// Workers are the worker flags the output must not depend on, with N
	// standing for the count ("-parallel N -engine-workers N"): detgate runs
	// the pin at N=1 and N=4 and compares. Empty = not determinism-gated.
	Workers string
	Compare Compare
	// Heavy pins cost seconds: CI's golden step compares them, tier-1
	// (`go test ./...`) skips them.
	Heavy bool
}

// Compare says which of a pinned run's products are compared.
type Compare int

// What a pin compares.
const (
	Stdout Compare = iota
	Dump           // the -metrics-json dump
	Both
)

func (c Compare) String() string { return [...]string{"out", "json", "both"}[c] }

// ErrUsage marks a bad invocation found by a scenario (unknown class,
// missing operand); the driver exits 2 for it instead of 1.
var ErrUsage = errors.New("usage")

// Env is what the driver hands a scenario: where to print, the shared flag
// values, the scenario's own parsed flags, and the sinks for what it
// collects — metrics registries and check verdicts.
type Env struct {
	Out           io.Writer
	Seed          int64
	Quick         bool
	CSV           bool
	Verbose       bool
	EngineWorkers int
	Operands      []string
	Flags         *flag.FlagSet
	// Metrics is the merged registry -metrics-json dumps; nil when no dump
	// was asked for, which is how a collection pass knows to skip itself.
	Metrics *metrics.Registry

	failed, total int              // verdicts of the scenario running now
	curve         *LoadCurveResult // `hl load` renders curve and fusion from one sweep
}

// Run runs one scenario on a fresh verdict tally and returns how many of its
// checks or verdict rows failed.
func (e *Env) Run(s Scenario) (failed int, err error) {
	e.failed, e.total = 0, 0
	err = s.Run(e)
	return e.failed, err
}

// Printf prints to the scenario's output.
func (e *Env) Printf(format string, a ...any) { fmt.Fprintf(e.Out, format, a...) }

// Println prints to the scenario's output.
func (e *Env) Println(a ...any) { fmt.Fprintln(e.Out, a...) }

// Table renders a result table as text, or as CSV under -csv.
func (e *Env) Table(t *stats.Table) {
	if e.CSV {
		fmt.Fprint(e.Out, t.CSV())
		return
	}
	fmt.Fprintln(e.Out, t)
}

// Merge folds a registry a scenario collected into the dump. Merge order is
// dump order, so callers merge in table order.
func (e *Env) Merge(reg *metrics.Registry) {
	if e.Metrics != nil && reg != nil {
		e.Metrics.Merge(reg)
	}
}

func (e *Env) flagValue(name string) any {
	f := e.Flags.Lookup(name)
	if f == nil {
		panic(fmt.Sprintf("scenario read -%s without registering it", name))
	}
	return f.Value.(flag.Getter).Get()
}

// Int, Str and Bool read one of the scenario's own flags.
func (e *Env) Int(name string) int    { return e.flagValue(name).(int) }
func (e *Env) Str(name string) string { return e.flagValue(name).(string) }
func (e *Env) Bool(name string) bool  { return e.flagValue(name).(bool) }

func us(d sim.Duration) string { return fmt.Sprintf("%.1fus", float64(d)/1000) }
func ms(d sim.Duration) string { return fmt.Sprintf("%.3fms", float64(d)/1e6) }

// Judged is what every scenario verdict carries: the invariant checks that
// judge it and the registry the run collected (always collected;
// observation-only, so the verdict is identical with or without a consumer).
type Judged struct {
	Checks  check.Report
	Metrics *metrics.Registry
}

// Pass reports whether every check passed.
func (j Judged) Pass() bool { return j.Checks.AllPass() }

func (j Judged) registry() *metrics.Registry { return j.Metrics }

// verdict is one row of a PASS/FAIL table.
type verdict interface {
	Pass() bool
	// row returns the cells before the verdict column.
	row() []string
	// detail prints what -v (or a failure) adds under the table.
	detail(e *Env)
	// registry returns what the run collected (nil = nothing).
	registry() *metrics.Registry
}

// printVerdicts renders one verdict table: a title line, a row per verdict
// closed by PASS or FAIL, then the details of every failed row (all rows
// under -v). Registries merge in row order and failures are tallied for the
// scenario's summary line and the exit status.
func printVerdicts[V verdict](e *Env, title string, vs []V, header ...string) {
	e.Printf("=== %s ===\n", title)
	t := stats.NewTable(append(header, "verdict")...)
	for _, v := range vs {
		e.Merge(v.registry())
		mark := "PASS"
		if !v.Pass() {
			mark = "FAIL"
			e.failed++
		}
		e.total++
		t.AddRow(append(v.row(), mark)...)
	}
	e.Table(t)
	for _, v := range vs {
		if e.Verbose || !v.Pass() {
			v.detail(e)
		}
	}
}

// printDetail is the detail block most verdicts share: a rule naming the
// scenario, its fault timeline, then every check.
func printDetail[T any](e *Env, head any, timeline []T, checks check.Report) {
	e.Printf("--- %v ---\n", head)
	for _, ev := range timeline {
		e.Printf("    %v\n", ev)
	}
	for _, r := range checks {
		e.Printf("    %v\n", r)
	}
}

// Checks renders a check report as a check/detail/verdict table and tallies
// it.
func (e *Env) Checks(checks check.Report) {
	t := stats.NewTable("check", "detail", "verdict")
	for _, c := range checks {
		mark, detail := "PASS", c.Detail
		if c.Err != nil {
			mark, detail = "FAIL", c.Err.Error()
			e.failed++
		}
		e.total++
		t.AddRow(c.Name, detail, mark)
	}
	e.Table(t)
}

// printSummary closes a scenario with its tally ("all 11 scenarios passed").
func printSummary(e *Env, noun string) {
	if e.failed > 0 {
		e.Printf("%d of %d %s FAILED\n", e.failed, e.total, noun)
		return
	}
	e.Printf("all %d %s passed\n", e.total, noun)
}

// seedMatrix runs n scenarios seeded base..base+n-1 over the worker pool;
// verdicts come back in seed order, bit-identical at any parallelism.
func seedMatrix[V any](base int64, n int, run func(seed int64) V) []V {
	out, _ := RunParallel(Parallelism(), n, func(i int) (V, error) {
		return run(base + int64(i)), nil
	})
	return out
}
