package faults

import (
	"fmt"
	"math/rand"
	"time"

	"mummi/internal/datastore"
	"mummi/internal/telemetry"
	"mummi/internal/vclock"
)

// Handler reacts to one injected timed fault. The engine passes the rule
// that fired and a deterministic per-rule random source the handler may use
// to pick a victim (a node index, a job from a sorted list); drawing from
// it is part of the replayable schedule. Handlers run inside a virtual
// clock callback, so they must not block.
type Handler func(r Rule, rng *rand.Rand)

// ruleState is the mutable scheduling state of one plan rule.
type ruleState struct {
	rule     Rule
	rng      *rand.Rand                        // private stream: seed ^ f(rule index)
	injected telemetry.Lazy[telemetry.Counter] // faults.injected_total for the rule's class
}

// Engine executes a Plan against a clock. One engine serves a whole
// campaign: timed faults are scheduled as events on the clock, store faults
// are consulted synchronously by wrapped stores (WrapStore), and every
// injection is counted in faults.injected_total.
//
// An Engine is not safe for concurrent use: its timed faults are clock
// callbacks, and wrapped stores draw from it on the same goroutine that
// drives the clock (DESIGN.md §6).
type Engine struct {
	clk          *vclock.Virtual
	tel          *telemetry.Telemetry
	storeLatency telemetry.Lazy[telemetry.Histogram]

	rules    []*ruleState
	handlers map[Class]Handler
	start    time.Time
	started  bool
}

// NewEngine builds an engine for plan. The plan must already validate; an
// invalid plan is a programming error and panics. The engine is inert until
// Start.
func NewEngine(clk *vclock.Virtual, tel *telemetry.Telemetry, plan *Plan) *Engine {
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	if tel == nil {
		tel = telemetry.Nop()
	}
	e := &Engine{clk: clk, tel: tel, handlers: make(map[Class]Handler)}
	for i, r := range plan.Rules {
		// Each rule gets a private splitmix-style stream so adding a rule
		// never perturbs the draws of the others.
		seed := plan.Seed ^ int64(uint64(i+1)*0x9e3779b97f4a7c15)
		e.rules = append(e.rules, &ruleState{
			rule: r.withDefaults(),
			rng:  rand.New(rand.NewSource(seed)),
		})
	}
	return e
}

// SetHandler installs the callback for a timed fault class, replacing any
// previous one. A nil handler makes the class fire into the void (still
// counted). The campaign rebinds handlers at the start of each
// allocation, since the victims (scheduler, workflow manager) are rebuilt.
func (e *Engine) SetHandler(c Class, h Handler) { e.handlers[c] = h }

// Start fixes the window origin at the current virtual time and arms the
// timed-fault schedules. Starting twice is a no-op.
func (e *Engine) Start() {
	if e.started {
		return
	}
	e.started = true
	e.start = e.clk.Now()
	for _, rs := range e.rules {
		if rs.rule.Class.timed() && rs.rule.Rate > 0 {
			e.arm(rs)
		}
	}
}

// arm schedules the next arrival of a timed rule: exponential
// interarrival with mean 24h/rate, the Poisson process of the plan.
func (e *Engine) arm(rs *ruleState) {
	mean := float64(24*time.Hour) / rs.rule.Rate
	d := time.Duration(rs.rng.ExpFloat64() * mean)
	if d < time.Second {
		d = time.Second // keep pathological rates from starving the clock
	}
	e.clk.After(d, func() { e.fire(rs) })
}

// fire delivers one timed fault occurrence and re-arms the rule.
func (e *Engine) fire(rs *ruleState) {
	now := e.clk.Now()
	var h Handler
	if e.inWindow(rs.rule, now) {
		h = e.handlers[rs.rule.Class]
		rs.injected.Get(e.tel, "faults.injected_total", "class", string(rs.rule.Class)).Inc()
		e.tel.RecordSpan("faults", string(rs.rule.Class), now, 0)
	}
	e.arm(rs)
	if h != nil {
		h(rs.rule, rs.rng)
	}
}

// inWindow reports whether t falls inside the rule's window.
func (e *Engine) inWindow(r Rule, t time.Time) bool {
	off := t.Sub(e.start)
	if off < r.Start {
		return false
	}
	return r.End == 0 || off < r.End
}

// DrawStore is consulted by wrapped stores once per operation. It walks the
// store-class rules in plan order, drawing each in-window rule's generator
// exactly once, and returns the injected error (nil if no fault hit) plus
// any latency spike charged to this operation. Draw order and count are
// functions of (plan, virtual time, operation sequence), keeping replays
// identical.
func (e *Engine) DrawStore(op string) (spike time.Duration, err error) {
	if !e.started {
		return 0, nil
	}
	now := e.clk.Now()
	for _, rs := range e.rules {
		r := rs.rule
		if r.Class.timed() || r.Rate <= 0 || !e.inWindow(r, now) {
			continue
		}
		if rs.rng.Float64() >= r.Rate {
			continue
		}
		rs.injected.Get(e.tel, "faults.injected_total", "class", string(r.Class)).Inc()
		switch r.Class {
		case StoreLatency:
			spike += r.Latency
			e.storeLatency.Get(e.tel, "faults.store_latency_ms").
				Observe(float64(r.Latency) / float64(time.Millisecond))
		case StoreTransient:
			if err == nil {
				err = fmt.Errorf("faults: injected transient fault in %s: %w", op, datastore.ErrTransient)
			}
		case StorePermanent:
			if err == nil {
				err = fmt.Errorf("faults: injected fault in %s: %w", op, ErrInjectedPermanent)
			}
		}
	}
	return spike, err
}
