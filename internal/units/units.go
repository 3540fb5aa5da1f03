// Package units provides typed physical quantities used throughout mummi:
// simulated (in-model) time at femtosecond resolution, byte sizes, and
// simulation-rate conversions such as "µs of trajectory per day of
// wall-clock". Keeping simulated time distinct from wall-clock
// time.Duration prevents an entire class of unit bugs: the campaign couples
// a continuum model advancing in microseconds of model time with jobs whose
// wall clock is measured in hours.
package units

import (
	"fmt"
	"time"
)

// SimTime is a span of simulated (in-model) time, stored in femtoseconds.
// Molecular-dynamics trajectories span fs..ms, which fits comfortably in an
// int64 (max ≈ 9.2 ms at 1 fs resolution); the continuum scale exceeds that,
// so continuum bookkeeping uses Microseconds as floats where needed, while
// per-simulation spans stay exact.
type SimTime int64

// Units of simulated time.
const (
	Femtosecond SimTime = 1
	Picosecond          = 1000 * Femtosecond
	Nanosecond          = 1000 * Picosecond
	Microsecond         = 1000 * Nanosecond
	Millisecond         = 1000 * Microsecond
)

// Femtoseconds returns t as a count of femtoseconds.
func (t SimTime) Femtoseconds() int64 { return int64(t) }

// Nanoseconds returns t in nanoseconds of simulated time.
func (t SimTime) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds returns t in microseconds of simulated time.
func (t SimTime) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds returns t in milliseconds of simulated time.
func (t SimTime) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String renders the span in the largest unit that keeps the value ≥ 1.
func (t SimTime) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t >= Millisecond:
		return fmt.Sprintf("%.4gms", t.Milliseconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.4gus", t.Microseconds())
	case t >= Nanosecond:
		return fmt.Sprintf("%.4gns", t.Nanoseconds())
	case t >= Picosecond:
		return fmt.Sprintf("%.4gps", float64(t)/float64(Picosecond))
	default:
		return fmt.Sprintf("%dfs", int64(t))
	}
}

// SimTimeOf builds a SimTime from a floating-point count of a unit,
// rounding to the nearest femtosecond.
func SimTimeOf(v float64, unit SimTime) SimTime {
	return SimTime(v*float64(unit) + 0.5)
}

// Rate expresses simulation throughput as simulated time per wall-clock day,
// the unit used throughout the paper (ms/day continuum, µs/day CG, ns/day AA).
type Rate struct {
	Sim  SimTime       // simulated time advanced ...
	Wall time.Duration // ... per this much wall clock
}

// PerDay builds a Rate of v simulated units per wall-clock day.
func PerDay(v float64, unit SimTime) Rate {
	return Rate{Sim: SimTimeOf(v, unit), Wall: 24 * time.Hour}
}

// WallFor returns the wall-clock time needed to advance the simulation by st.
func (r Rate) WallFor(st SimTime) time.Duration {
	if r.Sim <= 0 {
		return 0
	}
	return time.Duration(float64(r.Wall) * float64(st) / float64(r.Sim))
}

// SimFor returns the simulated time advanced in wall-clock span d.
func (r Rate) SimFor(d time.Duration) SimTime {
	if r.Wall <= 0 {
		return 0
	}
	return SimTime(float64(r.Sim) * float64(d) / float64(r.Wall))
}

// String renders the rate in a paper-style "X/day" form.
func (r Rate) String() string {
	perDay := SimTime(float64(r.Sim) * float64(24*time.Hour) / float64(r.Wall))
	return perDay.String() + "/day"
}

// ByteSize is a size in bytes with human-readable formatting.
type ByteSize int64

// Units of data size (decimal, as used in the paper's MB/GB/TB figures).
const (
	Byte ByteSize = 1
	KB            = 1000 * Byte
	MB            = 1000 * KB
	GB            = 1000 * MB
	TB            = 1000 * GB
)

// String renders the size in the largest unit that keeps the value ≥ 1.
func (b ByteSize) String() string {
	switch {
	case b < 0:
		return "-" + (-b).String()
	case b >= TB:
		return fmt.Sprintf("%.2fTB", float64(b)/float64(TB))
	case b >= GB:
		return fmt.Sprintf("%.2fGB", float64(b)/float64(GB))
	case b >= MB:
		return fmt.Sprintf("%.2fMB", float64(b)/float64(MB))
	case b >= KB:
		return fmt.Sprintf("%.2fKB", float64(b)/float64(KB))
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}

// Length is a spatial length in nanometers. The campaign spans nm (patches)
// to µm (the full membrane), so float64 nm is exact enough everywhere.
type Length float64

// Units of length.
const (
	Nm Length = 1
	Um Length = 1000
)

// Nanometers returns the length in nm.
func (l Length) Nanometers() float64 { return float64(l) }

// String renders the length in nm or µm.
func (l Length) String() string {
	if l >= Um {
		return fmt.Sprintf("%.4gum", float64(l/Um))
	}
	return fmt.Sprintf("%.4gnm", float64(l))
}

// NodeHours accumulates the campaign's node-hour budget.
type NodeHours float64

// NodeHoursFor computes node-hours for n nodes held for wall-clock d.
func NodeHoursFor(n int, d time.Duration) NodeHours {
	return NodeHours(float64(n) * d.Hours())
}

// String renders node-hours with thousands precision like the paper's tables.
func (nh NodeHours) String() string { return fmt.Sprintf("%.0f node-hours", float64(nh)) }
