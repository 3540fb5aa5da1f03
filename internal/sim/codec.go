package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The CG frame codec: ddcMD writes trajectories in "a custom binary format"
// and the analysis outputs are moved at 4.6 MB per 41.5 s per simulation —
// at 3600 concurrent simulations, serialization efficiency is a real cost.
// A CG frame has this one compact binary encoding: every producer writes
// MarshalBinary and the feedback path decodes with UnmarshalCGFrame, which
// rejects anything without the magic.

var cgFrameMagic = [4]byte{'C', 'G', 'F', '1'}

// MarshalBinary encodes the frame in the compact binary format: a "CGF1"
// magic, the scalars, then the RDFs as raw little-endian float32s.
func (f *CGFrame) MarshalBinary() ([]byte, error) {
	if len(f.SimID) > 0xFFFF {
		return nil, fmt.Errorf("sim: sim id too long (%d bytes)", len(f.SimID))
	}
	bins := 0
	if len(f.RDF) > 0 {
		bins = len(f.RDF[0])
	}
	var buf bytes.Buffer
	buf.Write(cgFrameMagic[:])
	le := binary.LittleEndian
	var scratch [8]byte
	le.PutUint16(scratch[:2], uint16(len(f.SimID)))
	buf.Write(scratch[:2])
	buf.WriteString(f.SimID)
	le.PutUint32(scratch[:4], uint32(f.Index))
	buf.Write(scratch[:4])
	le.PutUint64(scratch[:8], uint64(f.TimeFs))
	buf.Write(scratch[:8])
	buf.WriteByte(byte(f.State))
	for _, v := range []float64{f.Tilt, f.Rotation, f.Depth} {
		le.PutUint64(scratch[:8], math.Float64bits(v))
		buf.Write(scratch[:8])
	}
	le.PutUint16(scratch[:2], uint16(len(f.RDF)))
	buf.Write(scratch[:2])
	le.PutUint16(scratch[:2], uint16(bins))
	buf.Write(scratch[:2])
	for _, rdf := range f.RDF {
		if len(rdf) != bins {
			return nil, fmt.Errorf("sim: ragged RDF (%d vs %d bins)", len(rdf), bins)
		}
		for _, v := range rdf {
			le.PutUint32(scratch[:4], math.Float32bits(v))
			buf.Write(scratch[:4])
		}
	}
	return buf.Bytes(), nil
}

// UnmarshalCGFrame decodes a frame written by MarshalBinary.
func UnmarshalCGFrame(b []byte) (*CGFrame, error) {
	if len(b) < 4 || !bytes.Equal(b[:4], cgFrameMagic[:]) {
		return nil, errors.New("sim: not a binary CG frame")
	}
	le := binary.LittleEndian
	p := b[4:]
	need := func(n int) error {
		if len(p) < n {
			return errors.New("sim: truncated binary CG frame")
		}
		return nil
	}
	if err := need(2); err != nil {
		return nil, err
	}
	idLen := int(le.Uint16(p))
	p = p[2:]
	if err := need(idLen + 4 + 8 + 1 + 24 + 4); err != nil {
		return nil, err
	}
	f := &CGFrame{SimID: string(p[:idLen])}
	p = p[idLen:]
	f.Index = int(le.Uint32(p))
	p = p[4:]
	f.TimeFs = int64(le.Uint64(p))
	p = p[8:]
	f.State = int(p[0])
	p = p[1:]
	f.Tilt = math.Float64frombits(le.Uint64(p))
	p = p[8:]
	f.Rotation = math.Float64frombits(le.Uint64(p))
	p = p[8:]
	f.Depth = math.Float64frombits(le.Uint64(p))
	p = p[8:]
	species := int(le.Uint16(p))
	bins := int(le.Uint16(p[2:]))
	p = p[4:]
	if species > 1024 || bins > 4096 {
		return nil, errors.New("sim: implausible binary CG frame header")
	}
	if err := need(species * bins * 4); err != nil {
		return nil, err
	}
	f.RDF = make([][]float32, species)
	for sp := 0; sp < species; sp++ {
		rdf := make([]float32, bins)
		for i := range rdf {
			rdf[i] = math.Float32frombits(le.Uint32(p))
			p = p[4:]
		}
		f.RDF[sp] = rdf
	}
	return f, nil
}
