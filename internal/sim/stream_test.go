package sim

import (
	"testing"
	"time"
)

// TestStreamDeterministic pins that (seed, id) fully determines the
// sequence, and that distinct ids and seeds give distinct sequences.
func TestStreamDeterministic(t *testing.T) {
	a := NewStream(7, 3)
	b := NewStream(7, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("draw %d differs for identical (seed, id)", i)
		}
	}
	c, d := NewStream(7, 4), NewStream(8, 3)
	base := NewStream(7, 3)
	sameID, sameSeed := 0, 0
	for i := 0; i < 64; i++ {
		v := base.Uint64()
		if v == c.Uint64() {
			sameID++
		}
		if v == d.Uint64() {
			sameSeed++
		}
	}
	if sameID > 1 || sameSeed > 1 {
		t.Errorf("streams correlate: %d/64 collisions across ids, %d/64 across seeds", sameID, sameSeed)
	}
}

// TestStreamIndependence: drawing from one stream must not perturb
// another, so each entity's sequence depends only on its own draws.
func TestStreamIndependence(t *testing.T) {
	a := NewStream(1, 10)
	b := NewStream(1, 11)
	var want []uint64
	ref := NewStream(1, 10)
	for i := 0; i < 10; i++ {
		want = append(want, ref.Uint64())
	}
	for i := 0; i < 10; i++ {
		b.Uint64() // interleaved draws on another stream
		if got := a.Uint64(); got != want[i] {
			t.Fatalf("draw %d: got %d, want %d — streams are coupled", i, got, want[i])
		}
	}
}

// TestStreamJitterBounds: Jitter stays within [lo, hi] and degenerates to
// lo when the interval is empty or inverted.
func TestStreamJitterBounds(t *testing.T) {
	st := NewStream(3, 0)
	lo, hi := 10*time.Millisecond, 30*time.Millisecond
	seenLow, seenHigh := false, false
	for i := 0; i < 2000; i++ {
		j := st.Jitter(lo, hi)
		if j < lo || j > hi {
			t.Fatalf("Jitter = %v outside [%v, %v]", j, lo, hi)
		}
		if j < lo+5*time.Millisecond {
			seenLow = true
		}
		if j > hi-5*time.Millisecond {
			seenHigh = true
		}
	}
	if !seenLow || !seenHigh {
		t.Error("2000 draws never touched the interval's ends — not uniform")
	}
	if st.Jitter(hi, lo) != hi {
		t.Error("inverted interval should return lo")
	}
	if st.Jitter(lo, lo) != lo {
		t.Error("empty interval should return lo")
	}
}

// TestStreamFloat64Range: Float64 stays in [0, 1).
func TestStreamFloat64Range(t *testing.T) {
	st := NewStream(5, 1)
	for i := 0; i < 1000; i++ {
		f := st.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
	}
}

// TestStreamInt63nPanics: non-positive n is a programming error.
func TestStreamInt63nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Int63n(0) did not panic")
		}
	}()
	st := NewStream(1, 1)
	st.Int63n(0)
}
