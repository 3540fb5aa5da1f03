package telemetry

import (
	"io"
	"time"

	"mummi/internal/vclock"
)

// Heartbeat periodically writes a one-line status to a writer — the
// terminal-friendly stand-in for the paper's live monitoring dashboards
// (§6 credits continuous in-situ monitoring for keeping multi-day runs
// alive). The line builder receives the tick time; the campaign's builder
// summarizes occupancy, queue depth, and per-coupling progress.
type Heartbeat struct {
	ticker *vclock.Ticker
}

// NewHeartbeat starts a heartbeat on clk firing every period; each tick
// writes line(now) plus a newline to w. Stop ends it.
func NewHeartbeat(clk *vclock.Virtual, period time.Duration, w io.Writer, line func(now time.Time) string) *Heartbeat {
	h := &Heartbeat{}
	h.ticker = vclock.NewTicker(clk, period, func(now time.Time) {
		//lint:allow errdiscipline -- heartbeat output is best-effort monitoring; a failed write must not stop the workflow
		io.WriteString(w, line(now)+"\n")
	})
	return h
}

// Stop cancels future heartbeats.
func (h *Heartbeat) Stop() { h.ticker.Stop() }
