// Command benchjson runs every entry of the benchmark suite
// (internal/benchsuite) through testing.Benchmark at the tiny scale, writes
// the JSON summary BENCH_pipeline.json for CI trend tracking and the
// DESIGN.md performance table, and then checks the suite's gates. Custom
// metrics reported via b.ReportMetric appear under "extra". The snapshot is
// written first, so a failing run still leaves its numbers behind; a failed
// entry or gate exits 1.
//
// Usage:
//
//	go run ./cmd/benchjson [-out BENCH_pipeline.json] [-seed 7]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro"
	"repro/internal/benchsuite"
)

// benchResult is one benchmark's summary in the output file.
type benchResult struct {
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// report is the output file: the measuring host, the workload, and one
// result per suite entry.
type report struct {
	GoVersion  string                 `json:"go_version"`
	CPU        string                 `json:"cpu"`
	NumCPU     int                    `json:"num_cpu"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Scale      string                 `json:"scale"`
	Seed       int64                  `json:"seed"`
	Benchmarks map[string]benchResult `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "BENCH_pipeline.json", "output file ('-' for stdout)")
	seed := flag.Int64("seed", 7, "world generation seed")
	flag.Parse()
	testing.Init() // b.Fatal needs the testing flags; registered after Parse, they stay off the CLI

	env, err := repro.NewEnv(context.Background(), repro.TinyScale(), *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: env: %v\n", err)
		os.Exit(1)
	}
	rep := report{
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      "tiny",
		Seed:       *seed,
		Benchmarks: map[string]benchResult{},
	}
	failed := false
	for _, e := range benchsuite.Entries {
		r := testing.Benchmark(func(b *testing.B) { e.Run(b, env) })
		if r.N == 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %s failed\n", e.Name)
			failed = true
			continue
		}
		nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
		rep.Benchmarks[e.Name] = benchResult{
			Iterations:  r.N,
			NsPerOp:     nsPerOp,
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Extra:       r.Extra,
		}
		fmt.Fprintf(os.Stderr, "%-36s %10d iters  %14.0f ns/op\n", e.Name, r.N, nsPerOp)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: marshal: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: write: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}

	for _, g := range benchsuite.Gates {
		got, ok := rep.Benchmarks[g.Bench].Extra[g.Metric]
		verdict := "ok"
		if !ok {
			verdict = "FAIL: not reported"
		} else if g.Op == "<=" && got > g.Bound || g.Op == ">=" && got < g.Bound {
			verdict = "FAIL"
		}
		fmt.Fprintf(os.Stderr, "gate %s %s = %.3f (%s %g): %s\n", g.Bench, g.Metric, got, g.Op, g.Bound, verdict)
		failed = failed || verdict != "ok"
	}
	if failed {
		os.Exit(1)
	}
}

// cpuModel names the host CPU from /proc/cpuinfo, or "" where that is not
// available.
func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo")
	_, rest, _ := strings.Cut(string(data), "model name")
	_, rest, _ = strings.Cut(rest, ":")
	model, _, _ := strings.Cut(rest, "\n")
	return strings.TrimSpace(model)
}
