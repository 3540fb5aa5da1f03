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

// transfer holds the same field of two instances: two locks, not a
// self-deadlock, and must NOT be flagged.
func transfer(src, dst *counter) {
	src.mu.Lock()
	dst.mu.Lock()
	dst.n += src.n
	dst.mu.Unlock()
	src.mu.Unlock()
}

// ---- blocking channel operations under a held mutex ----

type box struct {
	mu sync.Mutex
	wg sync.WaitGroup
	ch chan int
}

func (b *box) sendLocked(v int) {
	b.mu.Lock()
	b.ch <- v // want "channel send on wm.box.ch while holding .wm.box.mu."
	b.mu.Unlock()
}

func (b *box) waitLocked() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.wg.Wait() // want "sync.WaitGroup.Wait while holding"
}

func (b *box) recvOne() int {
	return <-b.ch
}

// The same bug one frame removed: the callee blocks on the channel.
func (b *box) lockedCall() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.recvOne() // want "receives from channel wm.box.ch at .*, a blocking operation under the lock"
}

// trySendLocked cannot stall: select-with-default is non-blocking and must
// NOT be flagged.
func (b *box) trySendLocked(v int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case b.ch <- v:
		return true
	default:
		return false
	}
}

// selectLocked has no default: either communication can park the goroutine
// with the lock held.
func (b *box) selectLocked(stop chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case v := <-b.ch: // want "channel receive from wm.box.ch while holding"
		_ = v
	case <-stop: // want "channel receive from .*stop while holding"
	}
}
