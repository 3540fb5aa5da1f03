// Package wm is analyzer test input for lockdiscipline (see lint_test.go).
package wm

import (
	"sync"
	"time"
)

type counter struct {
	mu sync.Mutex
	n  int
}

// leakOnReturn takes the lock but only releases it on one of two paths.
func (c *counter) leakOnReturn() int {
	c.mu.Lock()
	if c.n > 0 {
		c.mu.Unlock()
		return c.n
	}
	return 0 // want "still held"
}

// sleepUnderLock blocks every other workflow task for a millisecond.
func (c *counter) sleepUnderLock() {
	c.mu.Lock()
	time.Sleep(time.Millisecond) // want "blocking operations under a mutex"
	c.mu.Unlock()
}

// doubleLock self-deadlocks on the second acquisition.
func (c *counter) doubleLock() {
	c.mu.Lock()
	c.mu.Lock() // want "self-deadlock"
	c.mu.Unlock()
}

// deferred is the blessed §4.4 shape and must NOT be flagged.
func (c *counter) deferred() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.n
}

// balancedBranches unlocks on both paths and must NOT be flagged.
func (c *counter) balancedBranches(x int) int {
	c.mu.Lock()
	if x > 0 {
		c.n += x
		c.mu.Unlock()
		return x
	}
	c.mu.Unlock()
	return 0
}

// suppressed shows the annotation escape hatch: no diagnostic may survive.
func (c *counter) suppressed() {
	c.mu.Lock()
	//lint:allow lockdiscipline -- fixture: demonstrating the suppression path
	time.Sleep(time.Microsecond)
	c.mu.Unlock()
}
