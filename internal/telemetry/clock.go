package telemetry

import (
	"sync"
	"time"
)

// nower is all a measurement clock must do: a *vclock.Virtual satisfies it,
// and so does wallClock.
type nower interface{ Now() time.Time }

// wallClock is the default measurement clock, the host's wall clock. The
// campaign driver replaces it with its virtual clock via SetClock.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// clockHolder is the rebindable clock shared by Telemetry.Now and the
// tracer. A plain RWMutex keeps it race-safe; the campaign rebinds
// it exactly once, before any concurrent use.
type clockHolder struct {
	mu  sync.RWMutex
	clk nower
}

func (c *clockHolder) set(clk nower) {
	c.mu.Lock()
	c.clk = clk
	c.mu.Unlock()
}

func (c *clockHolder) now() time.Time {
	c.mu.RLock()
	clk := c.clk
	c.mu.RUnlock()
	return clk.Now()
}
