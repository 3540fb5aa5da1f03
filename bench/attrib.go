package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A stack is one CPU-profile sample: function names innermost first, and
// the CPU time the sample stands for.
type stack struct {
	frames []string
	cpuNS  int64
}

// Layers that own sampled CPU. Every sample lands in exactly one of them,
// so they sum to the profile's total; dynim.fps and dynim.binned split
// dynim further and ckpt overlays all of them (see attribute).
var cpuLayers = []string{
	"dynim", "core", "campaign", "sched", "vclock", "wmfleet", "datastore",
	"kvstore", "feedback", "sim", "telemetry", "runtime.gc_bg", "other",
}

// layerOf maps a package under mummi/internal to its layer. Packages mapped
// to "" are helpers charged to whoever called them; packages not listed fall
// into "other".
var layerOf = map[string]string{
	"dynim": "dynim", "core": "core", "campaign": "campaign",
	"sched": "sched", "cluster": "sched", "maestro": "sched",
	"vclock": "vclock", "wmfleet": "wmfleet",
	"datastore": "datastore", "faults": "datastore",
	"kvstore": "kvstore", "feedback": "feedback", "sim": "sim",
	"telemetry": "telemetry",
	"knn":       "", "parallel": "", "retry": "", "errutil": "",
	"units": "", "stats": "", "profile": "",
}

const internalPrefix = "mummi/internal/"

// internalPkg returns the package of a function under mummi/internal
// ("dynim" for "mummi/internal/dynim.(*Binned).Select"), or "" for any
// other function.
func internalPkg(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if slash := strings.LastIndexByte(rest, '/'); slash >= 0 {
		rest = rest[slash+1:]
	}
	pkg, _, _ := strings.Cut(rest, ".")
	return pkg
}

// isCkpt reports whether a function of the program is checkpoint work:
// Checkpoint, CheckpointCoupling, MergeCouplingCheckpoints, SelectorCheckpoint,
// RestoreState, Restore, RestoreBinned and their like. One such frame
// anywhere on a stack puts the sample in the checkpoint overlay.
func isCkpt(fn string) bool {
	base := baseFunc(fn)
	return strings.Contains(base, "Checkpoint") || strings.HasPrefix(base, "Restore")
}

// baseFunc strips the package, receiver and closure suffixes from a
// function name: "mummi/internal/core.(*Workflow).Checkpoint.func1" gives
// "Checkpoint".
func baseFunc(fn string) string {
	if slash := strings.LastIndexByte(fn, '/'); slash >= 0 {
		fn = fn[slash+1:]
	}
	parts := strings.Split(fn, ".")
	for i := len(parts) - 1; i > 0; i-- {
		p := parts[i]
		if strings.HasPrefix(p, "func") || strings.HasPrefix(p, "gowrap") || (p != "" && p[0] >= '0' && p[0] <= '9') {
			continue
		}
		return p
	}
	return fn
}

var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// attribute charges each stack to one layer and returns CPU seconds per
// ledger name. The rule is fixed: a sample goes to the innermost frame whose
// function is in a mummi/internal package that is a layer, so runtime, map,
// sort, encoding/json and allocator time is paid by the layer that asked for
// it; helper packages are skipped over to their caller; a stack with no such
// frame is background GC if it is rooted in a GC worker, else "other".
func attribute(stacks []stack) map[string]float64 {
	out := map[string]float64{}
	for _, l := range cpuLayers {
		out[l+".cpu_s"] = 0
	}
	for _, n := range []string{"dynim.fps.cpu_s", "dynim.binned.cpu_s", "ckpt.cpu_s", "layers.cpu_sum_s"} {
		out[n] = 0
	}
	for _, s := range stacks {
		sec := float64(s.cpuNS) / 1e9
		layer, at := "", -1
		for i, fn := range s.frames {
			pkg := internalPkg(fn)
			if pkg == "" {
				continue
			}
			l, known := layerOf[pkg]
			if !known {
				l = "other"
			}
			if l != "" {
				layer, at = l, i
				break
			}
		}
		if layer == "" {
			layer = "other"
			for _, fn := range s.frames {
				for _, root := range gcRoots {
					if strings.HasPrefix(fn, root) {
						layer = "runtime.gc_bg"
					}
				}
			}
		}
		out[layer+".cpu_s"] += sec
		out["layers.cpu_sum_s"] += sec
		if layer == "dynim" {
			// Split on the selector that owns the frame: the first dynim
			// frame from the charged one outward that names a selector type.
			for _, fn := range s.frames[at:] {
				if internalPkg(fn) != "dynim" {
					continue
				}
				if strings.Contains(fn, ".(*Binned).") {
					out["dynim.binned.cpu_s"] += sec
					break
				}
				if strings.Contains(fn, ".(*FarthestPoint).") || strings.Contains(fn, ".(*QueueSet).") ||
					strings.Contains(fn, ".(*queueSelector).") {
					out["dynim.fps.cpu_s"] += sec
					break
				}
			}
		}
		for _, fn := range s.frames {
			if internalPkg(fn) != "" && isCkpt(fn) {
				out["ckpt.cpu_s"] += sec
				break
			}
		}
	}
	return out
}

// decodeProfile reads a gzipped profile.proto CPU profile, as runtime/pprof
// writes it, into stacks. Only the fields attribution needs are decoded:
// samples, locations (with inlined lines), function names and the string
// table.
func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string index
		strs      []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, u := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	stacks := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, errors.New("profile: sample without a cpu value")
		}
		st := stack{cpuNS: s.values[1]} // sample types are [samples/count, cpu/nanoseconds]
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					st.frames = append(st.frames, strs[idx])
				}
			}
		}
		stacks = append(stacks, st)
	}
	return stacks, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling f with each field's number
// and its varint value or length-delimited bytes.
func eachField(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := f(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which arrives either one
// value at a time (b nil) or packed into b.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
