package telemetry

import (
	"sync"
	"time"

	"mummi/internal/vclock"
)

// clockHolder is the rebindable clock shared by Telemetry.Now and the
// tracer. A plain RWMutex keeps it race-safe; the campaign rebinds
// it exactly once, before any concurrent use.
type clockHolder struct {
	mu  sync.RWMutex
	clk vclock.Clock
}

func (c *clockHolder) set(clk vclock.Clock) {
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
