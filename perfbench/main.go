// Command perfbench is the repository benchmark. It drives the URHunter
// sweep and the urwatchd DNSBL front-end from outside, through their public
// Go APIs, and prints one JSON result line.
//
// Every workload runs the same cycle a deployment runs: generate the
// simulated Internet, sweep it, seal the verdicts into a generation, and
// serve that generation over loopback UDP, checking every reply. The
// workload chooses how the sweep runs (single
// process, or a chaos fleet of in-process workers) and the query mix the
// feed is served with (Zipf over hot keys, which the response cache holds,
// or a scan that the cache never serves). Untraced runs (-trace 0) report
// the end-to-end metrics; traced runs (-trace 1) the per-layer ledger.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro"
)

// workload is one benchmark input set. See BENCHMARK.json for why each
// exists.
type workload struct {
	name string
	// chaos applies repro.ApplyDeterministicChaos before the warm-up sweep.
	chaos bool
	// fleet runs the timed sweeps through a coordinator and in-process
	// workers over shard journals instead of a single pipeline.
	fleet bool
	// minSweeps is the floor on timed sweeps per run.
	minSweeps int
	mix       mixKind
}

// sweepShare is the share of --seconds spent on timed sweeps; the serving
// step gets the rest.
const sweepShare = 0.85

var workloads = []workload{
	{name: "sweep", minSweeps: 3, mix: mixZipf},
	{name: "fleet-chaos", chaos: true, fleet: true, minSweeps: 2, mix: mixScan},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// worldSeed is the world generation seed. It is held fixed so every run
// sweeps the same world: across seeds the small-scale sweep varies by ±20%
// in size. --seed drives the serving query mix.
const worldSeed = 7

type options struct {
	wl      workload
	seed    int64
	seconds float64
	trace   bool
	scale   repro.Scale
	workdir string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: sweep or fleet-chaos")
		seed    = flag.Int64("seed", 1, "query-mix seed")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 reports the per-layer ledger instead of the end-to-end metrics")
		workdir = flag.String("workdir", ".bench_build/tmp", "directory for journals and other scratch files")
	)
	flag.Parse()
	wl, ok := workloadByName(*name)
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fatalf("workdir: %v", err)
	}
	opts := options{
		wl: wl, seed: *seed, seconds: *seconds, trace: *trace == 1,
		scale: repro.SmallScale(), workdir: dir,
	}
	res, err := run(context.Background(), opts)
	os.RemoveAll(dir)
	if err != nil {
		fatalf("%s: %v", wl.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("marshal result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// run sets up one workload, measures it, and folds the checks and figures
// into the result line.
func run(ctx context.Context, opts options) (*result, error) {
	chk := &checks{}
	env, err := setup(ctx, opts, chk)
	if err != nil {
		return nil, err
	}
	defer env.close()

	var metrics map[string]metric
	if opts.trace {
		metrics, err = measureTraced(ctx, env, chk)
	} else {
		metrics, err = measure(ctx, env, chk)
	}
	if err != nil {
		return nil, err
	}
	printContext(opts, env)
	chk.report()
	return &result{
		Correct:   chk.ok(),
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   metrics,
	}, nil
}

// measure is the untraced run: timed sweeps, then the nominal-rate serving
// step.
func measure(ctx context.Context, env *env, chk *checks) (map[string]metric, error) {
	sweeps, err := timedSweeps(ctx, env, chk)
	if err != nil {
		return nil, err
	}
	env.dropWorld()
	sv, err := serve(env, chk)
	if err != nil {
		return nil, err
	}
	m := map[string]metric{
		"setup_s":      {env.setupS, "s"},
		"sweep_s":      {median(sweeps), "s"},
		"answered_pct": {100 * env.sweepAnswered, "%"},
		"live_heap_mb": {env.heap.mb(), "MB"},
	}
	note("sweep_s is the median of %d timed sweeps: %s", len(sweeps), fmtSeconds(sweeps))
	note("serve: nominal %.0f q/s open loop: %d sent, p50 %.1f us, p90 %.1f us, p99 %.1f us, fail %.3f%%, generator late p90 %.1f us",
		sv.rate, sv.sent, sv.p50us, sv.p90us, sv.p99us, sv.failPct(), sv.lateP90us)
	return m, nil
}

// printContext records what every figure was measured on.
func printContext(opts options, e *env) {
	ctx := map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"scale":      opts.scale.Name,
		"world_seed": worldSeed,
		"seed":       opts.seed,
		"seconds":    opts.seconds,
		"workload":   opts.wl.name,
		"trace":      opts.trace,
		"probes":     e.probes,
		"verdicts":   e.gen.Total(),
		"domains":    len(e.feed.domains),
		"ips":        len(e.feed.ips),
	}
	line, _ := json.Marshal(map[string]any{"context": ctx})
	fmt.Println(string(line))
}

// cpuModel reads the CPU model name, or "unknown" off Linux.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// note prints a human-readable line on standard error.
func note(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// checks collects correctness failures and the operation counts.
type checks struct {
	attempted, failed int64
	errs              []string
}

func (c *checks) fail(format string, args ...any) {
	if len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

func (c *checks) ok() bool { return len(c.errs) == 0 }

func (c *checks) report() {
	for _, e := range c.errs {
		note("check failed: %s", e)
	}
}

// median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs, sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if q >= 1 {
		return xs[len(xs)-1]
	}
	i := int(q * float64(len(xs)))
	if q == 0.5 && len(xs)%2 == 0 {
		return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
	}
	return xs[i]
}

// scratchDir makes a fresh directory under the run's workdir.
func (e *env) scratchDir(prefix string) (string, error) {
	return os.MkdirTemp(e.opts.workdir, prefix)
}
