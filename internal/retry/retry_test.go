package retry

import (
	"errors"
	"slices"
	"testing"
	"time"
)

// TestBackoffKnownAnswers pins the shared schedule that every armored store
// and the kvstore cluster run — the chaos replays' store.backoff_ms series
// follow from these values — and its four-attempt budget.
func TestBackoffKnownAnswers(t *testing.T) {
	want := []time.Duration{96_576_399, 152_643_377, 494_176_395, 642_538_676, 1_461_860_611, 2_678_188_585}
	for i, w := range want {
		if got := Backoff(i + 1); got != w {
			t.Errorf("Backoff(%d) = %d ns, want %d", i+1, got, w)
		}
	}
	attempts := 0
	if Do(func(time.Duration) {}, nil, func() error { attempts++; return errors.New("x") }) == nil || attempts != 4 {
		t.Errorf("Do gave up after %d attempts, want 4", attempts)
	}
}

func TestBackoffDeterministicAndCapped(t *testing.T) {
	for attempt := 1; attempt <= 12; attempt++ {
		d := Backoff(attempt)
		if again := Backoff(attempt); again != d {
			t.Fatalf("attempt %d: backoff not deterministic: %v vs %v", attempt, d, again)
		}
		if d <= 0 || d > DefaultMaxDelay {
			t.Fatalf("attempt %d: backoff %v outside (0, %v]", attempt, d, DefaultMaxDelay)
		}
	}
}

// TestBackoffGrows: each delay is the doubled base, capped, within the
// jitter band [0.75, 1.25].
func TestBackoffGrows(t *testing.T) {
	base := DefaultBaseDelay
	for attempt := 1; attempt <= 8; attempt++ {
		lo, hi := base*3/4, min(base*5/4, DefaultMaxDelay)
		if d := Backoff(attempt); d < lo || d > hi {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, d, lo, hi)
		}
		base = min(2*base, DefaultMaxDelay)
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	calls := 0
	var slept []time.Duration
	err := Do(func(d time.Duration) { slept = append(slept, d) }, nil, func() error {
		calls++
		if calls < 3 {
			return errors.New("flaky")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("calls=%d err=%v, want 3/nil", calls, err)
	}
	if len(slept) != 2 || slept[0] != Backoff(1) || slept[1] != Backoff(2) {
		t.Fatalf("slept %v, want [Backoff(1) Backoff(2)]", slept)
	}
}

// TestDoExhaustsBudget: Do gives up after four attempts, having slept the
// first three delays of the schedule between them.
func TestDoExhaustsBudget(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	var slept []time.Duration
	err := Do(func(d time.Duration) { slept = append(slept, d) }, nil, func() error { calls++; return boom })
	if !errors.Is(err, boom) || calls != 4 {
		t.Fatalf("calls=%d err=%v, want 4/boom", calls, err)
	}
	if want := []time.Duration{Backoff(1), Backoff(2), Backoff(3)}; !slices.Equal(slept, want) {
		t.Errorf("slept %v, want %v", slept, want)
	}
}

func TestDoStopsOnNonRetryable(t *testing.T) {
	perm := errors.New("permanent")
	calls := 0
	err := Do(func(time.Duration) { t.Fatal("slept before a non-retryable error") },
		func(err error) bool { return !errors.Is(err, perm) },
		func() error { calls++; return perm })
	if !errors.Is(err, perm) || calls != 1 {
		t.Fatalf("calls=%d err=%v, want 1/permanent", calls, err)
	}
}

func TestDoNilSleepStillBoundsAttempts(t *testing.T) {
	calls := 0
	if err := Do(nil, nil, func() error { calls++; return errors.New("x") }); err == nil {
		t.Fatal("want error after exhausted budget")
	}
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
}
