// Package retry provides the repo's one bounded-backoff schedule: capped
// exponential backoff with deterministic jitter. It is the single
// implementation behind every armored I/O path (datastore.Armor, the
// kvstore cluster's shard recovery), and the schedule is fixed — every
// command, experiment, benchmark and replay runs the defaults below, so they
// are constants, not settings. The jitter is a pure function of the attempt
// number, never of the wall clock or a global random source, so same-seed
// chaos replays schedule byte-identical backoff sequences.
package retry

import (
	"time"
)

// The schedule.
const (
	// DefaultMaxAttempts is the total number of attempts, including the
	// first: one try plus three retries.
	DefaultMaxAttempts = 4
	// DefaultBaseDelay is the backoff before the first retry.
	DefaultBaseDelay = 100 * time.Millisecond
	// DefaultMaxDelay caps the grown backoff.
	DefaultMaxDelay = 5 * time.Second
	// DefaultMultiplier grows the delay between retries.
	DefaultMultiplier = 2.0
	// DefaultJitter is the fraction of each delay that is randomized:
	// delays land in [0.75d, 1.25d].
	DefaultJitter = 0.5
)

// mix64 is the splitmix64 finalizer: a stateless bijective hash good enough
// to derive an independent-looking jitter fraction from the attempt number
// without carrying any mutable RNG state.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Backoff returns the delay to sleep after failed attempt n (1-based): the
// capped exponential base delay, spread by the deterministic jitter. It is a
// pure function of n.
func Backoff(attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := float64(DefaultBaseDelay)
	for i := 1; i < attempt; i++ {
		d *= DefaultMultiplier
		if d >= float64(DefaultMaxDelay) {
			d = float64(DefaultMaxDelay)
			break
		}
	}
	// frac in [0,1) from the hash of the attempt; shift the delay into
	// [d*(1-J/2), d*(1+J/2)].
	frac := float64(mix64(uint64(attempt)*0x9e3779b97f4a7c15)>>11) / float64(1<<53)
	d *= 1 - DefaultJitter/2 + DefaultJitter*frac
	if d > float64(DefaultMaxDelay) {
		d = float64(DefaultMaxDelay)
	}
	return time.Duration(d)
}

// Do runs op under the schedule: it retries while op fails, retryable(err)
// reports true, and the attempt budget lasts. Between attempts it calls
// sleep with the Backoff delay (virtual-time callers cannot block inside an
// event callback, so they account the delay instead of sleeping it — see
// datastore.Armor); a nil sleep skips the wait but keeps the attempt budget.
// A nil retryable retries every error. Do returns op's last error, nil on
// success.
func Do(sleep func(time.Duration), retryable func(error) bool, op func() error) error {
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil || (retryable != nil && !retryable(err)) || attempt >= DefaultMaxAttempts {
			return err
		}
		if sleep != nil {
			sleep(Backoff(attempt))
		}
	}
}
