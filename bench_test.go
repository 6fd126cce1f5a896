package repro_test

import (
	"context"
	"testing"

	"repro"
	"repro/internal/benchsuite"
)

// BenchmarkSuite runs every internal/benchsuite entry as a sub-benchmark over
// one shared tiny-scale world: the bodies cmd/benchjson runs for CI. Select
// entries with `-bench 'Suite/Table1Pipeline'`.
func BenchmarkSuite(b *testing.B) {
	env, err := repro.NewEnv(context.Background(), repro.TinyScale(), 7)
	if err != nil {
		b.Fatalf("env: %v", err)
	}
	for _, e := range benchsuite.Entries {
		b.Run(e.Name, func(b *testing.B) { e.Run(b, env) })
	}
}
