package core

import (
	"runtime/debug"
	"testing"
)

// BenchmarkConvergence measures one full 10k-node BA RIP convergence
// trial end to end — build, warm-up, failure, measurement.
// Run with -bench Convergence -benchtime 1x; each iteration is a whole
// trial, tens of seconds of virtual time.
func BenchmarkConvergence(b *testing.B) {
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	b.Run("rip-10k", func(b *testing.B) {
		cfg := scaleSmokeConfig()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.WarmedUpTrials != 1 {
				b.Fatalf("trial did not warm up: %d/1", res.WarmedUpTrials)
			}
		}
	})
}
