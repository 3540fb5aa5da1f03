package units

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSimTimeConversions(t *testing.T) {
	cases := []struct {
		in   SimTime
		ns   float64
		us   float64
		want string
	}{
		{5 * Microsecond, 5000, 5, "5us"},
		{50 * Nanosecond, 50, 0.05, "50ns"},
		{Millisecond, 1e6, 1000, "1ms"},
		{1500 * Femtosecond, 1.5e-3, 1.5e-6, "1.5ps"},
		{0, 0, 0, "0fs"},
	}
	for _, c := range cases {
		if got := c.in.Nanoseconds(); got != c.ns {
			t.Errorf("%v.Nanoseconds() = %v, want %v", c.in, got, c.ns)
		}
		if got := c.in.Microseconds(); got != c.us {
			t.Errorf("%v.Microseconds() = %v, want %v", c.in, got, c.us)
		}
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestSimTimeNegativeString(t *testing.T) {
	if got := (-5 * Microsecond).String(); got != "-5us" {
		t.Errorf("negative String() = %q, want -5us", got)
	}
}

func TestSimTimeOfRounds(t *testing.T) {
	if got := SimTimeOf(1.0399999, Microsecond); got != 1039999900*Femtosecond {
		t.Errorf("SimTimeOf = %d fs", got.Femtoseconds())
	}
	if got := SimTimeOf(0.5, Picosecond); got != 500*Femtosecond {
		t.Errorf("SimTimeOf(0.5 ps) = %v", got)
	}
}

func TestRateRoundTrip(t *testing.T) {
	// ddcMD delivers ~1.04 µs/day/GPU (§4.1): the wall time for 5 µs must be
	// ~4.8 days.
	r := PerDay(1.04, Microsecond)
	wall := r.WallFor(5 * Microsecond)
	days := wall.Hours() / 24
	if days < 4.8 || days > 4.81 {
		t.Errorf("5us at 1.04us/day took %.3f days, want ~4.807", days)
	}
	// And the inverse direction.
	sim := r.SimFor(24 * time.Hour)
	if us := sim.Microseconds(); us < 1.0399 || us > 1.0401 {
		t.Errorf("SimFor(1 day) = %v µs, want 1.04", us)
	}
}

func TestRateZeroGuards(t *testing.T) {
	if (Rate{}).WallFor(Microsecond) != 0 {
		t.Error("zero rate should produce zero wall time, not divide by zero")
	}
	if (Rate{Sim: Microsecond}).SimFor(time.Hour) != 0 {
		t.Error("zero wall should produce zero sim time")
	}
}

func TestRateString(t *testing.T) {
	if got := PerDay(13.98, Nanosecond).String(); got != "13.98ns/day" {
		t.Errorf("Rate.String() = %q", got)
	}
}

func TestByteSizeString(t *testing.T) {
	cases := []struct {
		in   ByteSize
		want string
	}{
		{374 * MB, "374.00MB"},
		{18 * MB, "18.00MB"},
		{850 * Byte, "850B"},
		{455 * GB, "455.00GB"},
		{ByteSize(4.6e6), "4.60MB"},
		{-KB, "-1.00KB"},
		{17 * KB, "17.00KB"},
		{2 * TB, "2.00TB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("ByteSize(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestLengthString(t *testing.T) {
	if got := (30 * Nm).String(); got != "30nm" {
		t.Errorf("30nm renders as %q", got)
	}
	if got := (1 * Um).String(); got != "1um" {
		t.Errorf("1um renders as %q", got)
	}
}

func TestNodeHours(t *testing.T) {
	// Table 1's largest row: 1000 nodes × 24 h × 20 runs = 480,000 node-hours.
	nh := NodeHours(0)
	for i := 0; i < 20; i++ {
		nh += NodeHoursFor(1000, 24*time.Hour)
	}
	if nh != 480000 {
		t.Errorf("20 × 1000-node 24h runs = %v, want 480000", float64(nh))
	}
	if nh.String() != "480000 node-hours" {
		t.Errorf("String() = %q", nh.String())
	}
}

func TestPropertyRateMonotonic(t *testing.T) {
	// More simulated time never takes less wall time at a fixed rate.
	r := PerDay(1.04, Microsecond)
	f := func(a, b uint32) bool {
		ta, tb := SimTime(a), SimTime(b)
		if ta > tb {
			ta, tb = tb, ta
		}
		return r.WallFor(ta) <= r.WallFor(tb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertySimTimeOfInvertsMicroseconds(t *testing.T) {
	f := func(v uint16) bool {
		st := SimTimeOf(float64(v), Microsecond)
		return st.Microseconds() == float64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
