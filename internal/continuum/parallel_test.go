package continuum

import (
	"runtime"
	"testing"

	"mummi/internal/units"
)

// TestParallelMatchesSerialExactly steps the model on 1 worker and on 2, 3,
// 5 and 7, which split the 32 rows of small() unevenly, and requires every
// field cell and protein to match bit for bit. diffuse sizes its fan-out
// from GOMAXPROCS, so that is what each run pins.
func TestParallelMatchesSerialExactly(t *testing.T) {
	cfg := small()
	run := func(workers int) *Sim {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 3; step++ {
			s.Step(1 * units.Microsecond)
		}
		return s
	}
	serial := run(1)
	for _, workers := range []int{2, 3, 5, 7} {
		par := run(workers)
		if serial.Time() != par.Time() {
			t.Fatalf("workers=%d: times diverged: %v vs %v", workers, serial.Time(), par.Time())
		}
		for sp := 0; sp < cfg.Species(); sp++ {
			for y := 0; y < cfg.GridN; y++ {
				for x := 0; x < cfg.GridN; x++ {
					if a, b := density(serial, sp, x, y), density(par, sp, x, y); a != b {
						t.Fatalf("workers=%d: field %d cell (%d,%d): serial %v, parallel %v", workers, sp, x, y, a, b)
					}
				}
			}
		}
		sp, pp := serial.proteins, par.proteins
		for i := range sp {
			if sp[i] != pp[i] {
				t.Fatalf("workers=%d: protein %d diverged: %+v vs %+v", workers, i, sp[i], pp[i])
			}
		}
	}
}

func BenchmarkStep(b *testing.B) {
	s, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(100 * units.Nanosecond) // one diffusion sub-step
	}
}
