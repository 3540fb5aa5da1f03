package faults

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"mummi/internal/datastore"
	"mummi/internal/telemetry"
	"mummi/internal/vclock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestParseFlagInline(t *testing.T) {
	p, err := ParseFlag("seed=7; store-transient-error:0.2; node-crash:4/day@2h..8h; wm-crash:1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || len(p.Rules) != 3 {
		t.Fatalf("seed=%d rules=%d, want 7/3", p.Seed, len(p.Rules))
	}
	if p.Rules[0].Class != StoreTransient || p.Rules[0].Rate != 0.2 {
		t.Errorf("rule 0 = %+v", p.Rules[0])
	}
	nc := p.Rules[1]
	if nc.Class != NodeCrash || nc.Rate != 4 || nc.Start != 2*time.Hour || nc.End != 8*time.Hour {
		t.Errorf("rule 1 = %+v", nc)
	}
}

func TestParseFlagJSON(t *testing.T) {
	p, err := ParseFlag(`{"seed": 3, "rules": [{"class": "job-hang", "rate": 6}]}`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 3 || len(p.Rules) != 1 || p.Rules[0].Class != JobHang {
		t.Fatalf("parsed %+v", p)
	}
}

func TestParseFlagRejectsBadInput(t *testing.T) {
	for _, s := range []string{
		"",
		"bogus-class:0.5",
		"store-transient-error:1.5", // probability > 1
		"node-crash:-2",
		"node-crash:4/day@8h..2h", // window ends before it starts
		"seed=x",
		"store-transient-error", // missing rate
	} {
		if _, err := ParseFlag(s); err == nil {
			t.Errorf("ParseFlag(%q) accepted bad input", s)
		}
	}
}

func TestAggressivePlanCoversAllClasses(t *testing.T) {
	p := AggressivePlan(1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := map[Class]bool{}
	for _, r := range p.Rules {
		seen[r.Class] = true
	}
	for _, c := range Classes() {
		if !seen[c] {
			t.Errorf("aggressive plan missing class %s", c)
		}
	}
}

// recordFires installs a handler for class that appends the virtual time of
// every fire to *at.
func recordFires(clk *vclock.Virtual, e *Engine, class Class, at *[]time.Time) {
	e.SetHandler(class, func(Rule, *rand.Rand) { *at = append(*at, clk.Now()) })
}

// timedSchedule runs a one-rule engine for d and returns the injection times.
func timedSchedule(t *testing.T, seed int64, rate float64, d time.Duration) []time.Time {
	t.Helper()
	clk := vclock.NewVirtual(epoch)
	e := NewEngine(clk, telemetry.Nop(), &Plan{Seed: seed, Rules: []Rule{{Class: NodeCrash, Rate: rate}}})
	var at []time.Time
	recordFires(clk, e, NodeCrash, &at)
	e.Start()
	clk.RunFor(d)
	return at
}

func TestTimedScheduleDeterministicPerSeed(t *testing.T) {
	a := timedSchedule(t, 42, 24, 48*time.Hour)
	b := timedSchedule(t, 42, 24, 48*time.Hour)
	if len(a) == 0 {
		t.Fatal("rate 24/day over 48h produced no injections")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("injection %d at %v vs %v", i, a[i], b[i])
		}
	}
	c := timedSchedule(t, 43, 24, 48*time.Hour)
	if len(a) == len(c) {
		same := true
		for i := range a {
			if !a[i].Equal(c[i]) {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical schedules")
		}
	}
}

func TestTimedWindowGating(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	e := NewEngine(clk, telemetry.Nop(), &Plan{Seed: 5, Rules: []Rule{
		{Class: JobHang, Rate: 48, Start: 6 * time.Hour, End: 12 * time.Hour},
	}})
	var inj []time.Time
	recordFires(clk, e, JobHang, &inj)
	e.Start()
	clk.RunFor(24 * time.Hour)
	if len(inj) == 0 {
		t.Fatal("rate 48/day in a 6h window produced no injections")
	}
	for _, at := range inj {
		off := at.Sub(epoch)
		if off < 6*time.Hour || off >= 12*time.Hour {
			t.Errorf("injection at offset %v escaped window [6h,12h)", off)
		}
	}
}

func TestHandlerReceivesRule(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	e := NewEngine(clk, telemetry.Nop(), &Plan{Seed: 9, Rules: []Rule{
		{Class: WMCrash, Rate: 24},
	}})
	fired := 0
	e.SetHandler(WMCrash, func(r Rule, rng *rand.Rand) {
		fired++
		if r.Class != WMCrash {
			t.Errorf("handler got rule %+v", r)
		}
		if rng == nil {
			t.Error("handler got nil rng")
		}
	})
	e.Start()
	clk.RunFor(24 * time.Hour)
	if fired == 0 {
		t.Fatal("handler never fired")
	}
}

func TestDrawStoreInjectsTransientAndPermanent(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	e := NewEngine(clk, telemetry.Nop(), &Plan{Seed: 11, Rules: []Rule{
		{Class: StoreTransient, Rate: 0.5},
		{Class: StorePermanent, Rate: 0.2},
	}})
	e.Start()
	var transient, permanent, clean int
	for i := 0; i < 1000; i++ {
		_, err := e.DrawStore("get")
		switch {
		case err == nil:
			clean++
		case errors.Is(err, datastore.ErrTransient):
			transient++
		case errors.Is(err, ErrInjectedPermanent):
			permanent++
		default:
			t.Fatalf("unexpected error class: %v", err)
		}
	}
	if transient == 0 || permanent == 0 || clean == 0 {
		t.Fatalf("transient=%d permanent=%d clean=%d — all should occur at these rates",
			transient, permanent, clean)
	}
	if transient < 300 || transient > 700 {
		t.Errorf("transient rate off: %d/1000 at p=0.5", transient)
	}
}

func TestDrawStoreDeterministic(t *testing.T) {
	draw := func() []bool {
		clk := vclock.NewVirtual(epoch)
		e := NewEngine(clk, telemetry.Nop(), &Plan{Seed: 4, Rules: []Rule{
			{Class: StoreTransient, Rate: 0.3},
		}})
		e.Start()
		var hits []bool
		for i := 0; i < 200; i++ {
			_, err := e.DrawStore("op")
			hits = append(hits, err != nil)
		}
		return hits
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between same-seed runs", i)
		}
	}
}

func TestDrawStoreInertBeforeStart(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	e := NewEngine(clk, telemetry.Nop(), &Plan{Seed: 1, Rules: []Rule{
		{Class: StoreTransient, Rate: 1.0},
	}})
	if _, err := e.DrawStore("get"); err != nil {
		t.Fatalf("engine injected before Start: %v", err)
	}
	e.Start()
	if _, err := e.DrawStore("get"); err == nil {
		t.Fatal("rate-1.0 rule did not inject after Start")
	}
}

func TestDrawStoreLatencySpike(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	e := NewEngine(clk, telemetry.Nop(), &Plan{Seed: 1, Rules: []Rule{
		{Class: StoreLatency, Rate: 1.0, Latency: 3 * time.Second},
	}})
	e.Start()
	spike, err := e.DrawStore("get")
	if err != nil {
		t.Fatalf("latency rule must not fail the op: %v", err)
	}
	if spike != 3*time.Second {
		t.Fatalf("spike = %v, want 3s", spike)
	}
}

func TestWrapStoreInjectsAndArmorAbsorbs(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	tel := telemetry.Nop()
	e := NewEngine(clk, tel, &Plan{Seed: 8, Rules: []Rule{
		{Class: StoreTransient, Rate: 0.4},
	}})
	e.Start()
	// At p=0.4 the 4-attempt budget fails an op with p≈2.6%, so some of
	// the 400 ops (deterministically) give up: every error that escapes the
	// armor must be transient and counted in store.gaveup_total.
	s := datastore.Armor(WrapStore(datastore.NewMemory(), e), tel, "memory", datastore.ArmorOptions{})
	var gaveUp int64
	check := func(op string, i int, err error) {
		if err == nil {
			return
		}
		if !errors.Is(err, datastore.ErrTransient) {
			t.Fatalf("armored %s %d: %v, want a transient give-up", op, i, err)
		}
		gaveUp++
	}
	written := map[string]bool{}
	for i := 0; i < 200; i++ {
		key := string(rune('a'+i%26)) + "x"
		err := s.Put("ns", key, []byte("v"))
		check("put", i, err)
		written[key] = written[key] || err == nil
		if _, err := s.Get("ns", key); !errors.Is(err, datastore.ErrNotFound) || written[key] {
			check("get", i, err)
		}
	}
	reg := tel.Registry()
	if got := reg.Counter("store.retries_total{backend=memory}").Value(); got == 0 {
		t.Error("no retries recorded — faults never reached the armor")
	}
	if gaveUp == 0 {
		t.Error("no op exhausted the budget — the give-up path went unexercised")
	}
	if got := reg.Counter("store.gaveup_total{backend=memory}").Value(); got != gaveUp {
		t.Errorf("gaveup_total = %d, want %d (one per error returned)", got, gaveUp)
	}
	if got := reg.Counter("faults.injected_total{class=store-transient-error}").Value(); got == 0 {
		t.Error("no injections counted")
	}
}

func TestWrapStorePermanentEscapesArmor(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	e := NewEngine(clk, telemetry.Nop(), &Plan{Seed: 8, Rules: []Rule{
		{Class: StorePermanent, Rate: 1.0},
	}})
	e.Start()
	s := datastore.Armor(WrapStore(datastore.NewMemory(), e), telemetry.Nop(), "memory", datastore.ArmorOptions{})
	err := s.Put("ns", "k", []byte("v"))
	if !errors.Is(err, ErrInjectedPermanent) {
		t.Fatalf("want ErrInjectedPermanent through the armor, got %v", err)
	}
	if errors.Is(err, datastore.ErrTransient) {
		t.Fatal("permanent injection must not look transient")
	}
}

func TestWrapStoreNilEnginePassesThrough(t *testing.T) {
	s := datastore.NewMemory()
	if got := WrapStore(s, nil); got != datastore.Store(s) {
		t.Fatalf("nil engine wrapped the store: %T", got)
	}
}
