package maestro

import (
	"errors"
	"testing"
	"time"

	"mummi/internal/cluster"
	"mummi/internal/sched"
	"mummi/internal/vclock"
)

var epoch = time.Date(2020, 12, 1, 0, 0, 0, 0, time.UTC)

// fakeBackend records submissions and lets tests fire callbacks.
type fakeBackend struct {
	subs     []sched.Request
	subTimes []time.Time
	clk      vclock.Clock
	failNext bool
	onFinish func(sched.JobID, sched.State)
	onStart  func(sched.JobID)
}

func (f *fakeBackend) Submit(req sched.Request) (sched.JobID, error) {
	if f.failNext {
		f.failNext = false
		return 0, errors.New("backend rejected")
	}
	f.subs = append(f.subs, req)
	f.subTimes = append(f.subTimes, f.clk.Now())
	return sched.JobID(len(f.subs)), nil
}
func (f *fakeBackend) Cancel(sched.JobID) bool                    { return true }
func (f *fakeBackend) Fail(sched.JobID) error                     { return nil }
func (f *fakeBackend) OnFinish(fn func(sched.JobID, sched.State)) { f.onFinish = fn }
func (f *fakeBackend) OnStart(fn func(sched.JobID))               { f.onStart = fn }

func TestConductorThrottlesTo100PerMinute(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	fb := &fakeBackend{clk: clk}
	c, err := NewConductor(clk, fb, 100)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		if err := c.Submit(sched.Request{Name: "cg", GPUs: 1, Cores: 3}, nil); err != nil {
			t.Fatal(err)
		}
	}
	clk.RunFor(90 * time.Second)
	// At 100/min, ~150 jobs should have reached the backend in 90 s.
	got := len(fb.subs)
	if got < 140 || got > 160 {
		t.Errorf("submissions in 90s = %d, want ~150", got)
	}
	if c.Queued() != n-got {
		t.Errorf("Queued = %d, want %d", c.Queued(), n-got)
	}
	clk.RunFor(3 * time.Minute)
	if len(fb.subs) != n || c.Queued() != 0 {
		t.Errorf("drain incomplete: %d submitted, %d queued", len(fb.subs), c.Queued())
	}
	if c.Submitted() != n {
		t.Errorf("Submitted = %d", c.Submitted())
	}
	// The inter-submission spacing must be the throttle period.
	for i := 1; i < 10; i++ {
		gap := fb.subTimes[i].Sub(fb.subTimes[i-1])
		if gap != 600*time.Millisecond {
			t.Fatalf("gap %d = %v, want 600ms", i, gap)
		}
	}
}

func TestConductorUnthrottled(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	fb := &fakeBackend{clk: clk}
	c, _ := NewConductor(clk, fb, 0)
	for i := 0; i < 50; i++ {
		c.Submit(sched.Request{Name: "x", Cores: 1}, nil)
	}
	clk.RunFor(time.Millisecond)
	if len(fb.subs) != 50 {
		t.Errorf("unthrottled submitted %d/50", len(fb.subs))
	}
}

func TestConductorCallbacksAndErrors(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	fb := &fakeBackend{clk: clk, failNext: true}
	c, _ := NewConductor(clk, fb, 0)
	var ids []sched.JobID
	var errs []error
	cb := func(id sched.JobID, err error) { ids = append(ids, id); errs = append(errs, err) }
	c.Submit(sched.Request{Name: "a", Cores: 1}, cb)
	c.Submit(sched.Request{Name: "b", Cores: 1}, cb)
	clk.Run()
	if len(ids) != 2 {
		t.Fatalf("callbacks = %d", len(ids))
	}
	if errs[0] == nil || errs[1] != nil {
		t.Errorf("errs = %v", errs)
	}
	if ids[1] == 0 {
		t.Error("successful submission got zero id")
	}
}

func TestConductorClose(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	fb := &fakeBackend{clk: clk}
	c, _ := NewConductor(clk, fb, 60)
	for i := 0; i < 10; i++ {
		c.Submit(sched.Request{Name: "x", Cores: 1}, nil)
	}
	clk.RunFor(time.Second) // one submission at t=0
	c.Close()
	clk.RunFor(time.Hour)
	if len(fb.subs) > 2 {
		t.Errorf("submissions after Close: %d", len(fb.subs))
	}
	if err := c.Submit(sched.Request{Name: "y", Cores: 1}, nil); err == nil {
		t.Error("Submit after Close succeeded")
	}
}

func TestNewConductorValidation(t *testing.T) {
	if _, err := NewConductor(vclock.NewVirtual(epoch), nil, 10); err == nil {
		t.Error("nil backend accepted")
	}
}

func TestFluxBackendEndToEnd(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	m, err := cluster.New(cluster.Summit(1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(clk, sched.Config{Machine: m, Policy: sched.FirstMatch, Mode: sched.Async})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewConductor(clk, FluxBackend{S: s}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var started, finished int
	c.OnStart(func(sched.JobID) { started++ })
	c.OnFinish(func(id sched.JobID, st sched.State) {
		if st == sched.Completed {
			finished++
		}
	})
	var gotID sched.JobID
	c.Submit(sched.Request{Name: "cg", GPUs: 1, Cores: 3, Duration: time.Hour},
		func(id sched.JobID, err error) { gotID = id })
	clk.RunFor(2 * time.Hour)
	if gotID == 0 {
		t.Fatal("submission callback never fired")
	}
	if started != 1 || finished != 1 {
		t.Errorf("started=%d finished=%d", started, finished)
	}
	j, ok := s.Job(gotID)
	if !ok || j.State != sched.Completed {
		t.Errorf("job state = %v", j.State)
	}
}
