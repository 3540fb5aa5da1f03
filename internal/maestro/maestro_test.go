package maestro

import (
	"errors"
	"reflect"
	"slices"
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
	clk      *vclock.Virtual
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
	if c.queue.Len() != n-got {
		t.Errorf("queued = %d, want %d", c.queue.Len(), n-got)
	}
	clk.RunFor(3 * time.Minute)
	if len(fb.subs) != n || c.queue.Len() != 0 {
		t.Errorf("drain incomplete: %d submitted, %d queued", len(fb.subs), c.queue.Len())
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
	for clk.Step() {
	}
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

// TestConductorReleasesPoppedSubmission: a drained submission's request and
// callback must not stay reachable from the queue's backing array.
func TestConductorReleasesPoppedSubmission(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	fb := &fakeBackend{clk: clk}
	c, _ := NewConductor(clk, fb, 60)
	done := 0
	for i := 0; i < 3; i++ {
		if err := c.Submit(sched.Request{Name: "x", Cores: 1}, func(sched.JobID, error) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	clk.RunFor(time.Hour)
	if done != 3 || c.queue.Len() != 0 {
		t.Fatalf("%d submitted, %d still queued", done, c.queue.Len())
	}
	// The ring's fields are sched's own: read its backing array through
	// reflection.
	backing := reflect.ValueOf(&c.queue).Elem().FieldByName("buf")
	if backing.Len() < 3 {
		t.Fatalf("the queue's backing array has %d slots, want the three submissions'", backing.Len())
	}
	for i := 0; i < backing.Len(); i++ {
		if p := backing.Index(i); !p.IsZero() {
			t.Errorf("popped slot %d still holds %v", i, p)
		}
	}
}

// nopBackend accepts every submission and allocates nothing.
type nopBackend struct{ next sched.JobID }

func (b *nopBackend) Submit(sched.Request) (sched.JobID, error) { b.next++; return b.next, nil }
func (b *nopBackend) Cancel(sched.JobID) bool                   { return true }
func (b *nopBackend) Fail(sched.JobID) error                    { return nil }
func (b *nopBackend) OnFinish(func(sched.JobID, sched.State))   {}
func (b *nopBackend) OnStart(func(sched.JobID))                 {}

// TestConductorDrainTickAllocatesNothing: a throttled drain tick pops one
// queued submission, hands it to the backend and re-arms itself, all
// without allocating.
func TestConductorDrainTickAllocatesNothing(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	b := &nopBackend{}
	c, _ := NewConductor(clk, b, 100)
	for i := 0; i < 300; i++ {
		if err := c.Submit(sched.Request{Name: "x", Cores: 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	clk.Step() // the first tick
	if n := testing.AllocsPerRun(100, func() { clk.Step() }); n != 0 {
		t.Errorf("a drain tick allocates %v times, want 0", n)
	}
	if b.next != 102 || c.queue.Len() != 198 {
		t.Errorf("%d submitted, %d queued after 102 ticks, want 102 and 198", b.next, c.queue.Len())
	}
}

// TestConductorCloseFailsUnsubmittedInOrder: with the queue's live run
// wrapped past the end of its array, queue.Len counts what is left, and Close
// fails exactly the unsubmitted requests, in submission order, with
// ErrClosed.
func TestConductorCloseFailsUnsubmittedInOrder(t *testing.T) {
	clk := vclock.NewVirtual(epoch)
	fb := &fakeBackend{clk: clk}
	c, _ := NewConductor(clk, fb, 60) // one a second
	var submitted, closed []int
	submit := func(i int) {
		err := c.Submit(sched.Request{Name: "x", Cores: 1}, func(_ sched.JobID, err error) {
			switch {
			case err == nil:
				submitted = append(submitted, i)
			case errors.Is(err, ErrClosed):
				closed = append(closed, i)
			default:
				t.Errorf("request %d: %v", i, err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		submit(i)
	}
	clk.RunFor(4500 * time.Millisecond) // ticks at 0-4 s take 0-4
	for i := 6; i < 10; i++ {           // the ring's back wraps to its front
		submit(i)
	}
	if c.queue.Len() != 5 {
		t.Fatalf("queued = %d, want 5", c.queue.Len())
	}
	q := reflect.ValueOf(&c.queue).Elem()
	if head, n := q.FieldByName("head").Int(), q.FieldByName("n").Int(); head+n <= int64(q.FieldByName("buf").Len()) {
		t.Fatalf("the queue's live run (%d from slot %d) does not wrap", n, head)
	}
	clk.RunFor(2 * time.Second) // ticks at 5 and 6 s take 5 and 6
	if c.queue.Len() != 3 {
		t.Fatalf("queued = %d, want 3", c.queue.Len())
	}
	c.Close()
	clk.RunFor(time.Hour)
	if want := []int{0, 1, 2, 3, 4, 5, 6}; !slices.Equal(submitted, want) {
		t.Errorf("submitted %v, want %v", submitted, want)
	}
	if want := []int{7, 8, 9}; !slices.Equal(closed, want) {
		t.Errorf("failed with ErrClosed %v, want %v", closed, want)
	}
	if c.queue.Len() != 0 {
		t.Errorf("queued = %d after Close, want 0", c.queue.Len())
	}
}
