package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"mummi/internal/dynim"
	"mummi/internal/npy"
)

// CouplingCheckpoint is one coupling's recoverable state: exactly what a
// restore reads. Selectors are not in it — they are campaign state that
// outlives any manager.
type CouplingCheckpoint struct {
	Name string
	// Ready holds prepared configurations. RunningSims holds configurations
	// whose simulation was live at checkpoint time — on restore they return
	// to the front of the ready queue and resume without a new setup
	// (simulations restart from their own checkpoints in the real system).
	// InSetup holds configurations whose setup job was live or owed — their
	// setup re-runs; the selection stands.
	Ready       []dynim.Point
	RunningSims []dynim.Point
	InSetup     []dynim.Point
	Launched    int
	Completed   int
}

// Selections counts the selected configurations the record holds — what a
// restore must account for as ready or in setup.
func (c CouplingCheckpoint) Selections() int {
	return len(c.Ready) + len(c.RunningSims) + len(c.InSetup)
}

// Stats reports the record's counts for a coupling no manager owns (the
// fleet's orphan window): running simulations count as ready, matching
// what a restore yields; Launched is the count as recorded.
func (c CouplingCheckpoint) Stats() CouplingStats {
	return CouplingStats{
		Name:          c.Name,
		Ready:         len(c.Ready) + len(c.RunningSims),
		InSetup:       len(c.InSetup),
		Launched:      c.Launched,
		CompletedSims: c.Completed,
	}
}

// checkpointMagic opens every checkpoint; its last byte is the format
// version. docs/RESILIENCE.md "Checkpoint record" is the byte layout: a
// WM checkpoint lists every coupling, a fleet store record lists one.
const checkpointMagic = "MUMMI-CKPT\x00\x01"

// EncodeCheckpoint serializes coupling records as one checkpoint document.
// Bytes exist only where the modelled system has a process boundary:
// allocation end to the next allocation, a crashed manager to its
// replacement, a fleet flush through the store to an adopter.
func EncodeCheckpoint(couplings ...CouplingCheckpoint) ([]byte, error) {
	out := binary.AppendUvarint([]byte(checkpointMagic), uint64(len(couplings)))
	for _, c := range couplings {
		out = appendBytes(out, c.Name)
		out = binary.AppendUvarint(out, uint64(c.Launched))
		out = binary.AppendUvarint(out, uint64(c.Completed))
		for _, ps := range [...][]dynim.Point{c.Ready, c.RunningSims, c.InSetup} {
			var err error
			if out, err = appendPoints(out, ps); err != nil {
				return nil, fmt.Errorf("core: checkpoint of %q: %w", c.Name, err)
			}
		}
	}
	return out, nil
}

// appendBytes appends s with its uvarint length in front.
func appendBytes[T string | []byte](out []byte, s T) []byte {
	return append(binary.AppendUvarint(out, uint64(len(s))), s...)
}

// appendPoints appends one point list: its count, each length-prefixed ID,
// then every coordinate as one length-prefixed <f8 n×dim npy block.
func appendPoints(out []byte, ps []dynim.Point) ([]byte, error) {
	out = binary.AppendUvarint(out, uint64(len(ps)))
	dim := 0
	if len(ps) > 0 {
		dim = len(ps[0].Coords)
	}
	flat := make([]float64, 0, len(ps)*dim)
	for _, p := range ps {
		if len(p.Coords) != dim {
			return nil, fmt.Errorf("point %q has %d coordinates, want %d", p.ID, len(p.Coords), dim)
		}
		out = appendBytes(out, p.ID)
		flat = append(flat, p.Coords...)
	}
	arr, err := npy.NewFloat64([]int{len(ps), dim}, flat)
	if err != nil {
		return nil, err
	}
	block, err := npy.Marshal(arr)
	if err != nil {
		return nil, err
	}
	return appendBytes(out, block), nil
}

// DecodeCheckpoint parses a checkpoint document into its coupling records
// (at least one, no name twice). Every length is checked against the bytes
// that remain before it is used, and bytes past the last record are an
// error.
func DecodeCheckpoint(data []byte) ([]CouplingCheckpoint, error) {
	rest, ok := bytes.CutPrefix(data, []byte(checkpointMagic))
	if !ok {
		return nil, errors.New("core: corrupt checkpoint: no version-1 header")
	}
	d := &decoder{b: rest}
	n := d.length("coupling count")
	if n == 0 {
		d.fail(errors.New("no couplings"))
	}
	cks := make([]CouplingCheckpoint, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		c := CouplingCheckpoint{Name: string(d.bytes("name"))}
		if slices.ContainsFunc(cks, func(o CouplingCheckpoint) bool { return o.Name == c.Name }) {
			d.fail(fmt.Errorf("duplicate coupling %q", c.Name))
		}
		c.Launched = int(d.uvarint("launched"))
		c.Completed = int(d.uvarint("completed"))
		c.Ready = d.points("ready")
		c.RunningSims = d.points("running sims")
		c.InSetup = d.points("in setup")
		cks = append(cks, c)
	}
	if len(d.b) > 0 {
		d.fail(fmt.Errorf("%d trailing bytes", len(d.b)))
	}
	if d.err != nil {
		return nil, fmt.Errorf("core: corrupt checkpoint: %w", d.err)
	}
	return cks, nil
}

// decoder reads a checkpoint front to back and keeps the first failure.
// Reads after one stay in bounds and their values are discarded, so
// callers check err once at the end.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) uvarint(what string) uint64 {
	v, k := binary.Uvarint(d.b)
	if k <= 0 {
		d.fail(fmt.Errorf("bad %s", what))
		return 0
	}
	d.b = d.b[k:]
	return v
}

// length reads a count or byte length, which can never exceed the bytes
// that remain: each counted item takes at least one.
func (d *decoder) length(what string) int {
	v := d.uvarint(what)
	if v > uint64(len(d.b)) {
		d.fail(fmt.Errorf("%s %d exceeds the %d bytes left", what, v, len(d.b)))
		return 0
	}
	return int(v)
}

// bytes reads a length-prefixed byte string, aliasing the input.
func (d *decoder) bytes(what string) []byte {
	n := d.length(what)
	s := d.b[:n]
	d.b = d.b[n:]
	return s
}

// points reads one point list. The points share the block's backing array;
// each Coords is cap-limited, so appending to one cannot overwrite the next.
func (d *decoder) points(list string) []dynim.Point {
	n := d.length(list + " count")
	ps, id := make([]dynim.Point, n), list+" ID"
	for i := range ps {
		ps[i].ID = string(d.bytes(id))
	}
	block := d.bytes(list + " block")
	if d.err != nil {
		return nil
	}
	arr, err := npy.Unmarshal(block)
	if err != nil {
		d.fail(fmt.Errorf("%s: %w", list, err))
		return nil
	}
	flat, ok := arr.Data.([]float64)
	if !ok || len(arr.Shape) != 2 || arr.Shape[0] != n {
		d.fail(fmt.Errorf("%s: block is %T of shape %v, want []float64 of (%d, dim)", list, arr.Data, arr.Shape, n))
		return nil
	}
	dim := arr.Shape[1]
	for i := range ps {
		ps[i].Coords = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return ps
}
